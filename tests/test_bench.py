"""Tests for the repro.bench benchmark subsystem."""

import csv
import json
import subprocess
from pathlib import Path

import pytest

from repro.bench.runner import (
    BenchRunner,
    build_report,
    render_report,
    write_report,
)
from repro.bench.specs import BenchSpec, suite_specs


class TestSpecs:
    def test_quick_suite_has_enough_cases(self):
        specs = suite_specs("quick")
        assert len(specs) >= 3
        assert {spec.scenario for spec in specs} == {
            "bootstrap",
            "crash",
            "join_churn",
            "adversary",
            "service_discovery",
            "txn_platform",
        }

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            suite_specs("nope")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            BenchSpec("warp", "rapid", 8)

    def test_scaling_grows_n_and_caps_failures(self):
        spec = BenchSpec("crash", "rapid", 16, params={"failures": 3})
        scaled = spec.scaled(4.0)
        assert scaled.n == 64
        assert scaled.params["failures"] == 3
        shrunk = spec.scaled(0.25)
        assert shrunk.n == 4
        assert shrunk.params["failures"] == 1

    def test_name_encodes_fault_profile(self):
        spec = BenchSpec(
            "adversary", "rapid", 8, seed=2, params={"profile": "egress_loss"}
        )
        assert spec.name == "adversary/rapid/n8/s2/profile=egress_loss"


class TestRunner:
    @pytest.fixture(scope="class")
    def case(self):
        runner = BenchRunner(log=None)
        return runner.run_case(BenchSpec("bootstrap", "rapid", 8, seed=1))

    def test_case_captures_required_measurements(self, case):
        payload = case.to_json()
        assert payload["virtual_s"] > 0
        assert payload["events_processed"] > 0
        for key in ("sent", "delivered", "dropped", "bytes_sent", "bytes_received"):
            assert payload["messages"][key] >= 0
        assert payload["messages"]["sent"] > 0

    def test_case_metrics_include_cluster_and_consensus(self, case):
        metrics = case.metrics
        assert metrics["cluster.view_changes"] > 0
        assert metrics["consensus.decisions_fast_path"] >= 0
        assert "cluster.cut_detection_latency_s" in metrics

    def test_per_node_metrics_dropped_by_default(self, case):
        assert not any(name.startswith("node.") for name in case.metrics)

    def test_scenario_result_is_scalar_only(self, case):
        assert "harness" not in case.result
        assert "timeseries" not in case.result
        json.dumps(case.result)

    def test_same_seed_runs_identical_virtual_metrics(self):
        runner = BenchRunner(log=None)
        spec = BenchSpec("crash", "rapid", 8, seed=5, params={"failures": 2})
        assert runner.run_case(spec).to_json() == runner.run_case(spec).to_json()

    def test_invariants_block_certifies_checked_views(self, case):
        payload = case.to_json()
        assert payload["invariants"]["ok"] is True
        assert payload["invariants"]["checked"] > 0
        assert payload["invariants"]["nodes"] == 8

    def test_adversary_counts_surface_in_by_class(self):
        runner = BenchRunner(log=None)
        case = runner.run_case(
            BenchSpec(
                "adversary",
                "rapid",
                16,
                seed=1,
                params={"profile": "dup_reorder", "fault_at": 5.0, "observe_for": 20.0},
            )
        )
        by_class = case.messages["by_class"]
        assert sum(row.get("duplicates", 0) for row in by_class.values()) > 0
        assert sum(row.get("reordered", 0) for row in by_class.values()) > 0
        # Untouched runs keep the exact two-key row shape (schema-additive).
        clean = runner.run_case(BenchSpec("bootstrap", "rapid", 8, seed=1))
        assert all(
            set(row) == {"messages", "bytes"}
            for row in clean.messages["by_class"].values()
        )

    def test_partition_heal_case_runs_and_renders(self):
        runner = BenchRunner(log=None)
        case = runner.run_case(
            BenchSpec(
                "partition_heal",
                "rapid",
                16,
                seed=1,
                params={"fraction": 0.2, "partition_for": 30.0},
            )
        )
        assert case.result["rejoined"] == case.result["minority"]
        assert case.result["minority_installs_during_partition"] == 0
        assert case.invariants["ok"] is True
        assert "rejoined=" in render_report([case])

    def test_render_report_mentions_every_case(self):
        runner = BenchRunner(log=None)
        cases = runner.run([BenchSpec("bootstrap", "rapid", 8, seed=1)])
        text = render_report(cases)
        assert "bootstrap/rapid/n8/s1" in text
        assert "converged@" in text


class TestJsonOutput:
    def test_report_schema_and_roundtrip(self, tmp_path):
        runner = BenchRunner(log=None)
        cases = runner.run([BenchSpec("bootstrap", "rapid", 8, seed=1)])
        report = build_report("quick", 1.0, cases)
        path = write_report(report, tmp_path / "BENCH_test.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == "repro.bench/v3"
        assert loaded["suite"] == "quick"
        assert loaded["config"]["python"]
        assert len(loaded["cases"]) == 1
        case = loaded["cases"][0]
        for key in (
            "name",
            "virtual_s",
            "events_processed",
            "messages",
            "metrics",
            "result",
        ):
            assert key in case


class TestTimeseriesExport:
    """``--timeseries``: the documented Fig. 5-10 / 12-13 export."""

    VIEW_SIZES = {"view_size_min", "view_size_med", "view_size_max"}

    def export(self, tmp_path, name, *selection):
        from repro.bench.__main__ import main

        out, series = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        args = ["--suite", "quick", "--quiet", "--out", str(out), *selection]
        assert main(args + ["--timeseries", str(series)]) == 0
        with series.open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["case", "series", "time", "value"]
        (case,) = json.loads(out.read_text())["cases"]
        assert {row[0] for row in rows} == {case["name"]}
        return series.read_bytes(), rows

    def test_bootstrap_exports_view_sizes_and_the_convergence_ecdf(self, tmp_path):
        selection = ("--scale", "0.5", "--filter", "bootstrap/rapid/")  # n=8
        data, rows = self.export(tmp_path, "a", *selection)
        assert {row[1] for row in rows} == self.VIEW_SIZES | {"node_convergence_ecdf"}
        ecdf = [
            (float(t), float(share))
            for _, series, t, share in rows
            if series == "node_convergence_ecdf"
        ]
        assert ecdf == sorted(ecdf)
        assert [share for _, share in ecdf] == [(i + 1) / 8 for i in range(8)]
        spread: dict = {}
        for _, series, t, value in rows:
            if series in self.VIEW_SIZES:
                spread.setdefault(float(t), {})[series] = int(value)
        assert list(spread) == sorted(spread)
        for sizes in spread.values():
            assert (
                1
                <= sizes["view_size_min"]
                <= sizes["view_size_med"]
                <= sizes["view_size_max"]
                <= 8
            )
        assert sizes["view_size_max"] == 8  # the last sample
        assert self.export(tmp_path, "b", *selection)[0] == data

    def test_app_case_exports_latency_and_goodput_buckets(self, tmp_path):
        selection = ("--filter", "service_discovery/")
        data, rows = self.export(tmp_path, "a", *selection)
        latency = {"app_latency_p50", "app_latency_p99", "app_latency_max"}
        assert {row[1] for row in rows} == self.VIEW_SIZES | latency | {"app_goodput"}
        by_bucket: dict = {}
        for _, series, t, value in rows:
            if series in latency:
                by_bucket.setdefault(t, {})[series] = float(value)
        assert by_bucket
        for bucket in by_bucket.values():
            assert (
                0
                < bucket["app_latency_p50"]
                <= bucket["app_latency_p99"]
                <= bucket["app_latency_max"]
            )
        assert all(float(v) > 0 for _, series, _, v in rows if series == "app_goodput")
        assert self.export(tmp_path, "b", *selection)[0] == data


class TestCli:
    def test_quick_suite_smoke(self, tmp_path, capsys):
        # The acceptance-criteria invocation, in-process with a reduced
        # scale so the whole suite stays test-sized.
        from repro.bench.__main__ import main

        out = tmp_path / "BENCH_quick.json"
        code = main(
            ["--suite", "quick", "--scale", "0.5", "--quiet", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.bench/v3"
        assert len(report["cases"]) >= 3
        for case in report["cases"]:
            assert case["virtual_s"] > 0
            assert case["events_processed"] > 0
            assert case["messages"]["sent"] > 0
        assert "benchmark summary" in capsys.readouterr().out

    def test_list_and_filter(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--suite", "quick", "--filter", "bootstrap", "--list"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out and all("bootstrap" in line for line in out)

    def test_filter_without_match_errors(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--suite", "quick", "--filter", "zzz", "--list"]) == 2

    def test_full_suite_includes_paper_operating_points(self):
        names = [spec.name for spec in suite_specs("full")]
        assert "bootstrap/rapid/n1000/s1" in names
        assert "bootstrap/rapid/n2000/s1" in names
        assert "crash/rapid/n2000/s1/failures=16" in names
        assert any(name.startswith("crash/rapid/n512") for name in names)
        assert any(name.startswith("partition_heal/rapid/n1000") for name in names)

    def test_quick_suite_gates_the_message_adversary(self):
        names = [spec.name for spec in suite_specs("quick")]
        assert any(
            name.startswith("adversary/") and "profile=dup_reorder" in name
            for name in names
        )

    def test_quick_suite_gates_gossip_consensus(self):
        names = [spec.name for spec in suite_specs("quick")]
        assert any("gossip_threshold:1" in name for name in names)


class TestCompare:
    def _report(self, tmp_path, name, cases):
        path = tmp_path / name
        path.write_text(
            json.dumps({"schema": "repro.bench/v3", "suite": "quick", "cases": cases})
        )
        return str(path)

    @staticmethod
    def _case(name, events=100):
        return {
            "name": name,
            "events_processed": events,
            "virtual_s": 15.0,
            "messages": {"sent": 10, "bytes_sent": 1024},
            "metrics": {"net.messages_sent": 10},
            "result": {"convergence_time": 13.0},
        }

    def test_identical_reports_pass(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a")])
        new = self._report(tmp_path, "new.json", [self._case("a")])
        assert main(["compare", old, new]) == 0
        assert "ok" in capsys.readouterr().out

    def test_determinism_drift_fails(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a", events=100)])
        new = self._report(tmp_path, "new.json", [self._case("a", events=101)])
        assert main(["compare", old, new]) == 1
        assert "drift:events_processed" in capsys.readouterr().out

    def test_case_set_change_fails_strict_compare(self, tmp_path):
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a")])
        new = self._report(
            tmp_path,
            "new.json",
            [self._case("a"), self._case("b")],
        )
        assert main(["compare", old, new]) == 1
        assert main(["compare", new, old]) == 1

    def test_schema_mismatch_is_usage_error(self, tmp_path, capsys):
        # Field shapes can change between schema revisions (by_class grew
        # byte totals in v2); comparing across revisions must fail with a
        # clear message, not report every reshaped field as drift.
        from repro.bench.__main__ import main

        new = self._report(tmp_path, "new.json", [self._case("a")])
        old_path = tmp_path / "old.json"
        old_path.write_text(
            json.dumps(
                {
                    "schema": "repro.bench/v1",
                    "suite": "quick",
                    "cases": [self._case("a")],
                }
            )
        )
        assert main(["compare", str(old_path), new]) == 2
        assert "schema mismatch" in capsys.readouterr().out

    def test_unreadable_report_is_usage_error(self, tmp_path):
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a")])
        assert main(["compare", old, str(tmp_path / "missing.json")]) == 2

    def test_malformed_report_is_usage_error(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a")])
        case = self._case("a")
        del case["name"]
        bad = self._report(tmp_path, "bad.json", [case])
        assert main(["compare", old, bad]) == 2
        assert "malformed report" in capsys.readouterr().out

    def test_real_reports_roundtrip_through_compare(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        runner = BenchRunner(log=None)
        spec = BenchSpec("bootstrap", "rapid", 8, seed=1)
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        for path in (old, new):
            write_report(build_report("quick", 1.0, [runner.run_case(spec)]), path)
        assert main(["compare", str(old), str(new)]) == 0


class TestCommittedNumbers:
    """No stale committed numbers: a baseline names the code that produced it."""

    def test_no_committed_report_is_stamped_dirty(self):
        root = Path(__file__).resolve().parent.parent
        try:  # tracked files only; every BENCH_*.json when this is no checkout
            listed = subprocess.run(
                ["git", "ls-files", "BENCH_*.json"],
                cwd=root, check=True, capture_output=True, text=True,
            ).stdout.split()
        except (OSError, subprocess.CalledProcessError):
            listed = []
        names = listed or [path.name for path in root.glob("BENCH_*.json")]
        assert "BENCH_quick.json" in names
        for name in names:
            stamp = json.loads((root / name).read_text())["config"]["git"]
            assert stamp and not stamp.endswith("-dirty"), (name, stamp)

    @pytest.fixture
    def git(self, tmp_path):
        """Run git in a throwaway repository with one committed source file."""

        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path, check=True, capture_output=True, text=True,
            ).stdout.strip()

        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "code.py").write_text("x = 1\n")
        try:
            git("init", "-q")
            git("add", ".")
            git("commit", "-q", "-m", "baseline")
        except (OSError, subprocess.CalledProcessError) as exc:
            pytest.skip(f"git unavailable: {exc}")
        return git

    def test_stamp_is_the_commit_plus_the_source_tree_once_it_moves(self, git, tmp_path):
        """Numbers taken before committing name the parent commit and the
        ``src/`` tree that produced them — the tree a later commit records,
        however it is squashed — not a scratch commit or ``-dirty``."""
        from repro.bench.runner import _git_describe

        head = git("rev-parse", "--short", "HEAD")
        assert _git_describe(cwd=tmp_path) == head
        (tmp_path / "notes.txt").write_text("outside src: not the code measured\n")
        assert _git_describe(cwd=tmp_path) == head
        (tmp_path / "src" / "code.py").write_text("x = 2\n")
        (tmp_path / "src" / "new.py").write_text("y = 3\n")
        stamp = _git_describe(cwd=tmp_path)
        assert stamp.startswith(f"{head}+src:") and not stamp.endswith("-dirty")
        assert git("status", "--short", "src") != ""  # the real index is untouched
        git("add", ".")
        git("commit", "-q", "-m", "the change")
        assert git("rev-parse", "HEAD:src").startswith(stamp.split("+src:")[1])
