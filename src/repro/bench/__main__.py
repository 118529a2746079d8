"""Experiment runner CLI: ``python -m repro.bench [--suite NAME | --grid SPEC]``.

Runs a named suite or a grid in the same grammar (see
:mod:`repro.bench.specs`), prints the paper-shaped ASCII summary, writes
the ``repro.bench/v3`` JSON report and prints the sha256 of its
long-format CSV projection (:mod:`repro.bench.runner`; ``--csv PATH``
writes the CSV, ``--expect-hash HEX`` fails the run when the hash
differs).  A case that raised is an error record: the other cases still
run and the invocation exits 1.  A malformed grid, an unknown scenario
or ``settings`` field, or a ``--filter SUBSTR`` that selects nothing (a
renamed case cannot silently drop out of a CI step) exits 2 before
anything runs.  ``--timeseries PATH`` also exports the plot-ready
Figure 5-10 series (:func:`repro.bench.runner.write_timeseries_csv`,
``docs/REPRODUCING.md``).

``compare OLD.json NEW.json`` diffs two reports (:mod:`repro.bench.compare`):
any drifted field or changed case set fails it — the determinism gate CI
runs on every PR.  ``summarize runs.csv`` aggregates a written CSV over
seeds per (scenario, profile, system, n, metric) cell
(:func:`repro.analysis.stats.summarize_sweep`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.report import render_table
from repro.analysis.stats import load_sweep_csv, summarize_sweep
from repro.bench.compare import main as compare_main
from repro.bench.runner import (
    BenchRunner,
    build_report,
    csv_hash,
    render_csv,
    render_report,
    write_report,
    write_timeseries_csv,
)
from repro.bench.specs import SUITES, parse_grid

__all__ = ["main"]


def _summarize_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench summarize",
        description="Aggregate a long-format CSV (--csv) over seeds.",
    )
    parser.add_argument("csv", help="long-format CSV written by --csv")
    parser.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="NAME",
        help="only show these metrics (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    cells = summarize_sweep(load_sweep_csv(args.csv), metrics=args.metric)
    if not cells:
        print("no matching rows", file=sys.stderr)
        return 2
    print(
        render_table(
            ["scenario", "profile", "system", "n", "metric", "mean", "p50", "max", "seeds"],
            [[*cell, s["mean"], s["p50"], s["max"], s["seeds"]] for cell, s in cells.items()],
            title="summary over seeds",
        )
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    if argv[:1] == ["summarize"]:
        return _summarize_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run a benchmark suite or a scenario x system x profile "
        "x n x seed grid (or `compare OLD.json NEW.json` to diff two "
        "reports, `summarize runs.csv` to aggregate one CSV).",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--suite",
        default="quick",
        choices=sorted(SUITES),
        help="which suite to run (default: quick)",
    )
    source.add_argument(
        "--grid",
        default=None,
        metavar="SPEC",
        help="run this grid instead: compact string (key=v1,v2;key=v3), "
        "inline JSON, or a path to a .json file",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply every case's cluster size by this factor",
    )
    parser.add_argument(
        "--filter",
        default=None,
        metavar="SUBSTR",
        help="only run cases whose name contains this substring",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output JSON path (default: BENCH_<suite>.json, BENCH_grid.json)",
    )
    parser.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="also write the long-format CSV the printed sha256 is taken over",
    )
    parser.add_argument(
        "--expect-hash",
        default=None,
        metavar="HEX",
        help="fail unless the sha256 equals HEX",
    )
    parser.add_argument(
        "--timeseries",
        default=None,
        metavar="PATH",
        help="also export the plot-ready Figure 5-10 series (view-size "
        "timeseries, per-node convergence ECDF) as long-format CSV",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the selected cases and exit"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    args = parser.parse_args(argv)

    try:
        grid = SUITES[args.suite] if args.grid is None else args.grid
        specs = [spec.scaled(args.scale) for spec in parse_grid(grid)]
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.filter:
        specs = [spec for spec in specs if args.filter in spec.name]
    if not specs:
        print("no cases selected", file=sys.stderr)
        return 2
    if args.list:
        for spec in specs:
            print(spec.name)
        return 0

    cases = BenchRunner(log=None if args.quiet else print).run(specs)
    print(render_report(cases))
    label = args.suite if args.grid is None else "grid"
    report = build_report(label, args.scale, cases)
    out = write_report(report, args.out or f"BENCH_{label}.json")
    print(f"wrote {len(cases)} cases to {out}")
    if args.csv:
        Path(args.csv).write_text(render_csv(cases), encoding="utf-8", newline="\n")
        print(f"wrote long-format CSV to {args.csv}")
    if args.timeseries:
        ts = write_timeseries_csv(cases, args.timeseries)
        print(f"wrote timeseries CSV to {ts}")
    digest = csv_hash(cases)
    print(f"sha256: {digest}")
    status = 0
    failed = [case.spec.name for case in cases if case.error is not None]
    if failed:
        print(f"FAIL: {len(failed)} case(s) errored: {', '.join(failed)}", file=sys.stderr)
        status = 1
    if args.expect_hash and digest != args.expect_hash.strip():
        print(f"FAIL: sha256 mismatch (expected {args.expect_hash.strip()})", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
