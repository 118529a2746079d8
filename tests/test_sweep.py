"""Tests for the sweep harness: grid parsing, CSV shape, determinism."""

import json

import pytest

from repro.sweep.grid import SweepPoint, expand_grid, parse_grid
from repro.sweep.runner import (
    CSV_HEADER,
    failed_points,
    point_rows,
    rows_to_csv,
    run_point,
    run_sweep,
    sweep_hash,
    write_sweep_csv,
)
from repro.sweep.__main__ import main as sweep_main

TINY_GRID = (
    "scenario=adversary;system=rapid;profiles=flip_flop;n=16;seeds=1,2;"
    "fault_at=5;observe_for=20;settle_timeout=60"
)


class TestGridParsing:
    def test_compact_string_axes_and_typing(self):
        points = parse_grid(
            "scenario=adversary;systems=rapid,memberlist;profiles=flip_flop;"
            "n=16,24;seeds=1,2;observe_for=30.5"
        )
        assert len(points) == 2 * 2 * 2  # systems x n x seeds
        assert {p.system for p in points} == {"rapid", "memberlist"}
        assert {p.n for p in points} == {16, 24}
        assert all(isinstance(p.n, int) for p in points)
        assert all(p.params == (("observe_for", 30.5),) for p in points)

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

    def test_profile_axis_dropped_for_non_adversary_scenarios(self):
        points = parse_grid(
            "scenario=bootstrap;system=rapid;profiles=flip_flop,slow_process;"
            "n=16;seed=1"
        )
        # Both profile values collapse to the same bootstrap point.
        assert len(points) == 1
        assert points[0].profile == "-"
        assert "profile" not in points[0].call_kwargs()

    def test_adversary_points_pass_profile_through(self):
        (point,) = parse_grid(
            "scenario=adversary;system=rapid;profile=egress_loss;n=16;seed=1"
        )
        assert point.call_kwargs()["profile"] == "egress_loss"

    def test_dict_valued_params_stay_scalar_and_thaw(self):
        (point,) = parse_grid(
            json.dumps(
                {
                    "systems": ["gossip-fd"],
                    "config": {"heartbeat_interval": 2.0},
                    "profile_overrides": {"fraction": 0.05},
                }
            )
        )
        kwargs = point.call_kwargs()
        assert kwargs["config"] == {"heartbeat_interval": 2.0}
        assert kwargs["profile_overrides"] == {"fraction": 0.05}

    def test_bad_specs_fail_loudly(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_grid("scenario adversary")
        with pytest.raises(ValueError, match="empty grid"):
            parse_grid("  ;  ")
        with pytest.raises(ValueError, match="unknown scenario"):
            run_point(SweepPoint("nope", "rapid", 4, 1))


class TestRows:
    def test_point_rows_are_scalars_only(self):
        point = SweepPoint("adversary", "rapid", 16, 1, profile="flip_flop")
        result = {
            "system": "rapid",  # identity: skipped
            "n": 16,  # identity: skipped
            "flap_events": 3,
            "flap_rate": 0.5,
            "faulty_removed": True,
            "detection_latency": None,
            "faulty": ["10.0.0.2:5000"],  # container: skipped
            "harness": object(),  # object: skipped
        }
        rows = point_rows(point, result)
        by_metric = {r[5]: r[6] for r in rows}
        assert by_metric == {
            "detection_latency": "NA",
            "faulty_removed": "1",
            "flap_events": "3",
            "flap_rate": "0.5",
        }
        assert all(r[:5] == ("adversary", "flip_flop", "rapid", "16", "1") for r in rows)

    def test_csv_shape(self):
        rows = [("a", "b", "c", "1", "2", "m", "3")]
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == CSV_HEADER
        assert text.endswith("a,b,c,1,2,m,3\n")


class TestDeterminism:
    def test_same_grid_same_seed_byte_identical(self, tmp_path):
        points = parse_grid(TINY_GRID)
        first = run_sweep(points)
        second = run_sweep(points)
        assert first == second
        assert sweep_hash(first) == sweep_hash(second)
        p1 = write_sweep_csv(first, str(tmp_path / "a.csv"))
        p2 = write_sweep_csv(second, str(tmp_path / "b.csv"))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_different_seed_changes_the_hash(self):
        base = run_sweep(parse_grid(TINY_GRID))
        shifted = run_sweep(
            parse_grid(TINY_GRID.replace("seeds=1,2", "seeds=3,4"))
        )
        assert sweep_hash(base) != sweep_hash(shifted)


class TestFailureAccounting:
    # partition_heal requires a Rapid harness, so pointing it at
    # memberlist raises deterministically — a cheap stand-in for any
    # scenario failure (including a safety InvariantViolation).
    FAILING = SweepPoint("partition_heal", "memberlist", 8, 1)
    GOOD = SweepPoint("bootstrap", "rapid", 8, 1)

    def test_failed_point_yields_error_row_and_stops(self):
        rows = run_sweep([self.FAILING, self.GOOD])
        assert rows == [
            ("partition_heal", "-", "memberlist", "8", "1", "error", "1")
        ]
        assert failed_points(rows) == 1

    def test_keep_going_runs_the_remaining_points(self):
        rows = run_sweep([self.FAILING, self.GOOD], keep_going=True)
        assert failed_points(rows) == 1
        metrics = {row[5] for row in rows if row[0] == "bootstrap"}
        assert "convergence_time" in metrics

    def test_error_rows_are_deterministic(self):
        first = run_sweep([self.FAILING, self.GOOD], keep_going=True)
        second = run_sweep([self.FAILING, self.GOOD], keep_going=True)
        assert sweep_hash(first) == sweep_hash(second)

    def test_unknown_scenario_is_a_usage_error_not_an_error_row(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_sweep([SweepPoint("nope", "rapid", 4, 1)], keep_going=True)

    def test_invariant_checks_injected_for_rapid_points(self):
        rows = run_point(self.GOOD)
        by_metric = {row[5]: row[6] for row in rows}
        assert int(by_metric["invariant_checks"]) > 0

    def test_cli_exits_nonzero_and_writes_error_rows(self, tmp_path, capsys):
        grid = "scenario=partition_heal;system=memberlist;n=8;seed=1"
        out = tmp_path / "sweep.csv"
        assert sweep_main(["--grid", grid, "--quiet", "--out", str(out)]) == 1
        assert "error,1" in out.read_text()
        assert "errored" in capsys.readouterr().err

    def test_cli_keep_going_still_exits_nonzero(self, tmp_path):
        grid = json.dumps(
            [
                {"scenario": "partition_heal", "system": "memberlist", "n": 8},
                {"scenario": "bootstrap", "system": "rapid", "n": 8},
            ]
        )
        out = tmp_path / "sweep.csv"
        code = sweep_main(
            ["--grid", grid, "--quiet", "--keep-going", "--out", str(out)]
        )
        assert code == 1
        text = out.read_text()
        assert "error,1" in text
        assert "convergence_time" in text


class TestCli:
    def test_list_and_run_and_expect_hash(self, tmp_path, capsys):
        assert sweep_main(["--grid", TINY_GRID, "--list"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert len(listed) == 2

        out = tmp_path / "sweep.csv"
        hash_out = tmp_path / "sweep.sha256"
        assert (
            sweep_main(
                [
                    "--grid", TINY_GRID, "--quiet",
                    "--out", str(out), "--hash-out", str(hash_out),
                ]
            )
            == 0
        )
        digest = hash_out.read_text().strip()
        assert len(digest) == 64
        assert out.read_text().splitlines()[0] == CSV_HEADER

        # The recorded hash gates a second run; a wrong hash fails it.
        assert (
            sweep_main(
                ["--grid", TINY_GRID, "--quiet", "--out", str(out),
                 "--expect-hash", digest]
            )
            == 0
        )
        assert (
            sweep_main(
                ["--grid", TINY_GRID, "--quiet", "--out", str(out),
                 "--expect-hash", "0" * 64]
            )
            == 1
        )

    def test_summarize_subcommand(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        sweep_main(["--grid", TINY_GRID, "--quiet", "--out", str(out)])
        capsys.readouterr()
        assert (
            sweep_main(["summarize", str(out), "--metric", "flap_events"]) == 0
        )
        printed = capsys.readouterr().out
        assert "flap_events" in printed
        assert "rapid" in printed

    def test_bad_grid_exits_2(self, capsys):
        assert sweep_main(["--grid", ";;;"]) == 2

    def test_stale_settings_key_is_a_usage_error(self, tmp_path, capsys):
        """A grid still passing a deleted knob gets a diagnosis naming it
        and the valid fields — exit 2, no traceback, no CSV."""
        stale = "broadcast" + "_mode"  # split: the removed name must not grep
        grid = json.dumps(
            {"scenario": "bootstrap", "n": 8, "settings": {stale: "gossip"}}
        )
        out = tmp_path / "sweep.csv"
        assert sweep_main(["--grid", grid, "--quiet", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert stale in err and "gossip_threshold" in err
        assert not out.exists()


class TestStatsHelpers:
    def test_load_and_summarize_sweep(self, tmp_path):
        from repro.analysis.stats import load_sweep_csv, summarize_sweep

        rows = [
            ("adversary", "flip_flop", "rapid", "16", "1", "flap_events", "0"),
            ("adversary", "flip_flop", "rapid", "16", "2", "flap_events", "4"),
            ("adversary", "flip_flop", "rapid", "16", "1", "detection_latency", "NA"),
        ]
        path = write_sweep_csv(rows, str(tmp_path / "s.csv"))
        loaded = load_sweep_csv(path)
        assert len(loaded) == 3
        assert loaded[0]["n"] == 16 and loaded[0]["value"] == 0.0
        assert loaded[2]["value"] is None
        cells = summarize_sweep(loaded)
        key = ("adversary", "flip_flop", "rapid", 16, "flap_events")
        assert cells[key]["mean"] == 2.0
        assert cells[key]["seeds"] == 2
        # NA-only cells vanish rather than polluting the aggregate.
        assert len(cells) == 1
