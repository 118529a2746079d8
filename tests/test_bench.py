"""Tests for the repro.bench experiment runner: specs, grids, records, CLI."""

import csv
import hashlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.__main__ import main
from repro.bench.runner import (
    CSV_HEADER,
    BenchRunner,
    CaseResult,
    _scalars,
    build_report,
    case_rows,
    csv_hash,
    render_csv,
    render_report,
    write_report,
)
from repro.bench.specs import BenchSpec, parse_grid, suite_specs

TINY_GRID = (
    "scenario=adversary;system=rapid;profiles=flip_flop;n=16;seeds=1,2;"
    "fault_at=5;observe_for=20;settle_timeout=60"
)


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

    def test_names_keep_timeout_params_apart(self):
        # A swept timeout is an axis like any other: two cases, two names,
        # so compare keys each of them separately.
        points = parse_grid("scenario=adversary;n=8;settle_timeout=60,120")
        names = [point.name for point in points]
        assert len(names) == len(set(names)) == 2
        assert names[0].endswith("/settle_timeout=60")


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

    def test_scenario_without_a_headline_renders_a_blank_outcome(self):
        spec = BenchSpec("live_bootstrap", "rapid", 4, seed=1)
        messages = {"sent": 0, "dropped": 0, "bytes_sent": 0}
        last_row = render_report([CaseResult(spec, messages=messages)]).splitlines()[-1]
        assert last_row.split() == [spec.name, "0", "0", "0", "0", "0"]

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

    def test_empty_latency_buckets_are_skipped(self, tmp_path):
        from repro.bench.runner import write_timeseries_csv

        series = {"app_latency": [(0.0, None, None, None), (1.0, 0.1, 0.2, 0.3)]}
        case = CaseResult(BenchSpec("service_discovery", "rapid", 8), series=series)
        with write_timeseries_csv([case], tmp_path / "ts.csv").open(newline="") as fh:
            _, *rows = csv.reader(fh)
        assert [(row[1], row[2]) for row in rows] == [
            ("app_latency_p50", "1.0"),
            ("app_latency_p99", "1.0"),
            ("app_latency_max", "1.0"),
        ]

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
        assert main(["--suite", "quick", "--filter", "bootstrap", "--list"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out and all("bootstrap" in line for line in out)

    def test_filter_without_match_errors(self, capsys):
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


class TestGridParsing:
    def test_compact_string_axes_and_typing(self):
        points = parse_grid(
            "scenario=adversary;systems=rapid,memberlist;profiles=flip_flop;"
            "n=16,24;seeds=1,2;observe_for=30.5;quiet=false;loud=TRUE"
        )
        assert len(points) == 2 * 2 * 2  # systems x n x seeds
        assert {p.system for p in points} == {"rapid", "memberlist"}
        assert {p.n for p in points} == {16, 24}
        assert all(isinstance(p.n, int) for p in points)
        assert all(
            p.params
            == {"observe_for": 30.5, "quiet": False, "loud": True, "profile": "flip_flop"}
            for p in points
        )

    def test_singular_and_plural_aliases_agree(self):
        singular = parse_grid("scenario=adversary;system=rapid;seed=1;n=16")
        plural = parse_grid("scenarios=adversary;systems=rapid;seeds=1;ns=16")
        assert singular == plural

    def test_json_object_and_list_blocks(self):
        block = {"scenario": "adversary", "systems": ["rapid"], "seeds": [1, 2]}
        points = parse_grid(json.dumps(block))
        assert len(points) == 2
        ragged = parse_grid(json.dumps([block, {**block, "n": 32}]))
        assert len(ragged) == 4
        assert {p.n for p in ragged} == {24, 32}

    def test_json_grid_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"systems": ["rapid"], "seeds": [7]}))
        (point,) = parse_grid(str(path))
        assert point.seed == 7

    def test_profile_axis_dropped_for_scenarios_without_one(self):
        points = parse_grid(
            "scenario=bootstrap;system=rapid;profiles=flip_flop,slow_process;"
            "n=16;seed=1"
        )
        # Both profile values collapse to the same bootstrap point.
        assert len(points) == 1
        assert points[0].profile == "-"
        assert "profile" not in points[0].params

    def test_profile_is_a_param_or_the_scenarios_default(self):
        (named,) = parse_grid(
            "scenario=adversary;system=rapid;profile=egress_loss;n=16;seed=1"
        )
        assert named.params["profile"] == named.profile == "egress_loss"
        assert BenchSpec("adversary", "rapid", 16).profile == "flip_flop"
        assert BenchSpec("service_discovery", "rapid", 8).profile == "-"

    def test_dict_valued_params_stay_one_argument(self):
        (point,) = parse_grid(
            json.dumps(
                {
                    "scenario": "service_discovery",
                    "settings": {"k": 8, "h": 7},
                    "app_config": {"request_deadline": 2.0},
                }
            )
        )
        assert point.params["settings"] == {"k": 8, "h": 7}
        assert point.params["app_config"] == {"request_deadline": 2.0}

    def test_bad_specs_fail_loudly(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_grid("scenario adversary")
        with pytest.raises(ValueError, match="empty key"):
            parse_grid("=adversary")
        with pytest.raises(ValueError, match="empty grid"):
            parse_grid("  ;  ")
        with pytest.raises(ValueError, match="must be an object"):
            parse_grid("[5]")
        with pytest.raises(ValueError, match="unknown scenario"):
            parse_grid("scenario=nope")
        with pytest.raises(ValueError, match="unknown RapidSettings field"):
            BenchSpec("bootstrap", "rapid", 8, params={"settings": {"nope": 1}})


class TestRows:
    def test_rows_are_the_scalar_results_of_the_record(self):
        spec = BenchSpec("adversary", "rapid", 16, seed=1, params={"profile": "flip_flop"})
        result = {
            "system": "rapid",  # identity: skipped
            "n": 16,  # identity: skipped
            "flap_events": 3,
            "flap_rate": 0.5,
            "faulty_removed": True,
            "detection_latency": None,
            "faulty": ["10.0.0.2:5000"],  # list: skipped
            "mode": "gossip",  # string: skipped
            "wire_parity": {"Probe": {"messages": 3, "ratio": 0.5}},  # table: skipped
        }
        rows = case_rows(CaseResult(spec, result=result, invariants={"checked": 7}))
        by_metric = {r[5]: r[6] for r in rows}
        assert by_metric == {
            "detection_latency": "NA",
            "faulty_removed": "1",
            "flap_events": "3",
            "flap_rate": "0.5",
            "invariant_checks": "7",
        }
        assert all(r[:5] == ("adversary", "flip_flop", "rapid", "16", "1") for r in rows)
        # A scenario's own count wins over the ledger's.
        own = CaseResult(spec, result={"invariant_checks": 2}, invariants={"checked": 7})
        assert case_rows(own)[0][5:] == ("invariant_checks", "2")

    def test_a_record_keeps_tables_of_scalar_rows(self):
        parity = {"Probe": {"messages": 3, "ratio": 0.5}, "Ack": {"ratio": None}}
        kept = _scalars(
            {
                "wire_parity": parity,
                "nested": {"a": {"b": {"c": 1}}},  # a row of a row: dropped
                "flat": {"a": 1},  # not rows: dropped
                "harness": object(),
            }
        )
        assert kept == {"wire_parity": parity}
        assert kept["wire_parity"]["Probe"] is not parity["Probe"]

    def test_csv_shape(self):
        spec = BenchSpec("bootstrap", "rapid", 8, seed=2)
        text = render_csv([CaseResult(spec, result={"convergence_time": 3.5})])
        assert text.splitlines()[0] == CSV_HEADER
        assert text.endswith("bootstrap,-,rapid,8,2,convergence_time,3.5\n")
        assert render_csv([]) == CSV_HEADER + "\n"


class TestDeterminism:
    def test_same_grid_same_seed_byte_identical(self):
        runner = BenchRunner(log=None)
        first = runner.run(parse_grid(TINY_GRID))
        second = runner.run(parse_grid(TINY_GRID))
        assert render_csv(first) == render_csv(second)
        assert [c.to_json() for c in first] == [c.to_json() for c in second]

    def test_different_seed_changes_the_hash(self):
        runner = BenchRunner(log=None)
        base = runner.run(parse_grid(TINY_GRID))
        shifted = runner.run(parse_grid(TINY_GRID.replace("seeds=1,2", "seeds=3,4")))
        assert csv_hash(shifted) != csv_hash(base)

    def test_quick_suite_entry_and_its_grid_give_one_record(self, tmp_path):
        """A suite is a named grid: the same point written by hand on the
        command line yields the field-identical record and the same rows."""
        (entry,) = [s for s in suite_specs("quick") if "gossip_threshold" in s.name]
        grid = json.dumps(
            {
                "scenario": "crash",
                "system": "rapid",
                "n": 24,
                "seed": 2,
                "failures": 6,
                "settings": {"gossip_threshold": 1},
            }
        )
        paths = {}
        for label, source in (("suite", ["--suite", "quick", "--filter", entry.name]),
                              ("grid", ["--grid", grid])):
            out, rows = tmp_path / f"{label}.json", tmp_path / f"{label}.csv"
            args = [*source, "--quiet", "--out", str(out), "--csv", str(rows)]
            assert main(args) == 0
            paths[label] = (out, rows)
        (suite_case,) = json.loads(paths["suite"][0].read_text())["cases"]
        (grid_case,) = json.loads(paths["grid"][0].read_text())["cases"]
        assert suite_case["name"] == entry.name
        assert suite_case == grid_case
        assert paths["suite"][1].read_bytes() == paths["grid"][1].read_bytes()


class TestFailureAccounting:
    # partition_heal requires a Rapid harness, so pointing it at
    # memberlist raises deterministically — a cheap stand-in for any
    # scenario failure (including a safety InvariantViolation).
    FAILING = BenchSpec("partition_heal", "memberlist", 8, seed=1)
    GOOD = BenchSpec("bootstrap", "rapid", 8, seed=1)

    @pytest.fixture(scope="class")
    def cases(self):
        return BenchRunner(log=None).run([self.FAILING, self.GOOD])

    def test_failed_case_is_an_error_record_and_row(self, cases):
        failed, good = cases
        assert case_rows(failed) == [
            ("partition_heal", "-", "memberlist", "8", "1", "error", "1")
        ]
        record = failed.to_json()
        assert record["error"].startswith("ValueError: ")
        assert "virtual_s" not in record
        assert record["error"] in render_report([failed, good])

    def test_the_remaining_cases_still_run(self, cases):
        _, good = cases
        assert good.error is None
        assert "convergence_time" in {row[5] for row in case_rows(good)}

    def test_invariant_checks_come_from_the_record(self, cases):
        _, good = cases
        by_metric = {row[5]: row[6] for row in case_rows(good)}
        assert int(by_metric["invariant_checks"]) == good.invariants["checked"] > 0

    def test_error_records_are_deterministic(self):
        runner = BenchRunner(log=None)
        first = runner.run([self.FAILING, self.GOOD])
        second = runner.run([self.FAILING, self.GOOD])
        assert [c.to_json() for c in first] == [c.to_json() for c in second]
        assert csv_hash(first) == csv_hash(second)

    def test_cli_exits_1_and_writes_error_rows(self, tmp_path, capsys):
        grid = json.dumps(
            [
                {"scenario": "partition_heal", "system": "memberlist", "n": 8},
                {"scenario": "bootstrap", "system": "rapid", "n": 8},
            ]
        )
        out, rows = tmp_path / "grid.json", tmp_path / "grid.csv"
        args = ["--grid", grid, "--out", str(out), "--csv", str(rows)]
        assert main(args) == 1
        text = rows.read_text()
        assert "partition_heal,-,memberlist,8,1,error,1" in text
        assert "convergence_time" in text
        assert "errored" in capsys.readouterr().err
        cases = json.loads(out.read_text())["cases"]
        assert "error" in cases[0] and "error" not in cases[1]


class TestGridCli:
    def test_list_run_and_expect_hash(self, tmp_path, capsys):
        assert main(["--grid", TINY_GRID, "--list"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

        out, rows = tmp_path / "grid.json", tmp_path / "grid.csv"
        args = ["--grid", TINY_GRID, "--quiet", "--out", str(out), "--csv", str(rows)]
        assert main(args) == 0
        printed = capsys.readouterr().out
        digest = hashlib.sha256(rows.read_bytes()).hexdigest()
        assert f"sha256: {digest}" in printed
        assert rows.read_text().splitlines()[0] == CSV_HEADER
        assert json.loads(out.read_text())["suite"] == "grid"

        # The recorded hash gates a second run; a wrong hash fails it.
        assert main(args + ["--expect-hash", digest]) == 0
        assert main(args + ["--expect-hash", "0" * 64]) == 1
        assert "sha256 mismatch" in capsys.readouterr().err

    def test_summarize_subcommand(self, tmp_path, capsys):
        rows = tmp_path / "grid.csv"
        main(["--grid", TINY_GRID, "--quiet", "--out", str(tmp_path / "g.json"),
              "--csv", str(rows)])
        capsys.readouterr()
        assert main(["summarize", str(rows), "--metric", "flap_events"]) == 0
        printed = capsys.readouterr().out
        assert "flap_events" in printed
        assert "rapid" in printed
        assert main(["summarize", str(rows), "--metric", "nope"]) == 2

    def test_bad_grid_exits_2(self, tmp_path, capsys):
        assert main(["--grid", ";;;"]) == 2
        assert main(["--grid", str(tmp_path / "missing.json")]) == 2
        assert main(["--grid", "scenario=nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_stale_settings_key_is_a_usage_error(self, tmp_path, capsys):
        """A grid still passing a deleted knob gets a diagnosis naming it
        and the valid fields — exit 2, no traceback, nothing written."""
        stale = "broadcast" + "_mode"  # split: the removed name must not grep
        grid = json.dumps(
            {"scenario": "bootstrap", "n": 8, "settings": {stale: "gossip"}}
        )
        out, rows = tmp_path / "grid.json", tmp_path / "grid.csv"
        args = ["--grid", grid, "--quiet", "--out", str(out), "--csv", str(rows)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert stale in err and "gossip_threshold" in err
        assert not out.exists() and not rows.exists()

    def test_module_entry_point(self, monkeypatch, capsys):
        """``python -m repro.bench`` runs the same CLI."""
        monkeypatch.setattr(sys, "argv", ["repro.bench", "--grid", TINY_GRID, "--list"])
        monkeypatch.delitem(sys.modules, "repro.bench.__main__")  # run it afresh
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("repro.bench", run_name="__main__", alter_sys=True)
        assert exit_.value.code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2


class TestStatsHelpers:
    def test_load_and_summarize_long_format_csv(self, tmp_path):
        from repro.analysis.stats import load_sweep_csv, summarize_sweep

        path = tmp_path / "s.csv"
        path.write_text(
            CSV_HEADER + "\n"
            "adversary,flip_flop,rapid,16,1,flap_events,0\n"
            "adversary,flip_flop,rapid,16,2,flap_events,4\n"
            "adversary,flip_flop,rapid,16,1,detection_latency,NA\n"
        )
        loaded = load_sweep_csv(str(path))
        assert len(loaded) == 3
        assert loaded[0]["n"] == 16 and loaded[0]["value"] == 0.0
        assert loaded[2]["value"] is None
        cells = summarize_sweep(loaded)
        key = ("adversary", "flip_flop", "rapid", 16, "flap_events")
        assert cells[key]["mean"] == 2.0
        assert cells[key]["seeds"] == 2
        # NA-only cells vanish rather than polluting the aggregate.
        assert len(cells) == 1


def test_the_retired_sweep_package_holds_no_code():
    """``repro.sweep`` stays only while the benchmark's layer map names it:
    its one statement is its docstring, and importing it defines nothing."""
    import ast
    import inspect

    import repro.sweep

    assert "holds no code" in repro.sweep.__doc__
    body = ast.parse(inspect.getsource(repro.sweep)).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr)
    assert [name for name in vars(repro.sweep) if not name.startswith("__")] == []


class TestRenderTable:
    def test_a_float_prints_whole_when_it_is_whole_else_to_two_places(self):
        from repro.analysis.report import render_table

        lines = render_table(
            ["metric", "value"], [["n", 8.0], ["p99", 1.234], ["big", 2e9]], title="T"
        ).splitlines()
        assert lines[0] == "T"
        assert [line.split()[-1] for line in lines[3:]] == ["8", "1.23", "2000000000.00"]


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
        old = self._report(tmp_path, "old.json", [self._case("a")])
        new = self._report(tmp_path, "new.json", [self._case("a")])
        assert main(["compare", old, new]) == 0
        assert "ok" in capsys.readouterr().out

    def test_determinism_drift_fails(self, tmp_path, capsys):
        old = self._report(tmp_path, "old.json", [self._case("a", events=100)])
        new = self._report(tmp_path, "new.json", [self._case("a", events=101)])
        assert main(["compare", old, new]) == 1
        assert "drift:events_processed" in capsys.readouterr().out

    def test_case_set_change_fails_strict_compare(self, tmp_path):
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
        old = self._report(tmp_path, "old.json", [self._case("a")])
        assert main(["compare", old, str(tmp_path / "missing.json")]) == 2

    def test_malformed_report_is_usage_error(self, tmp_path, capsys):
        old = self._report(tmp_path, "old.json", [self._case("a")])
        case = self._case("a")
        del case["name"]
        bad = self._report(tmp_path, "bad.json", [case])
        assert main(["compare", old, bad]) == 2
        assert "malformed report" in capsys.readouterr().out

    def test_real_reports_roundtrip_through_compare(self, tmp_path, capsys):
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

    def test_a_checkout_without_a_commit_gets_no_stamp(self, tmp_path):
        from repro.bench.runner import _git_describe

        try:
            subprocess.run(
                ["git", "init", "-q"], cwd=tmp_path, check=True, capture_output=True
            )
        except (OSError, subprocess.CalledProcessError) as exc:
            pytest.skip(f"git unavailable: {exc}")
        assert _git_describe(cwd=tmp_path) is None

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
