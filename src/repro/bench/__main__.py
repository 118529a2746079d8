"""Benchmark CLI: ``python -m repro.bench --suite quick --out BENCH_quick.json``.

Runs a declared suite (see :mod:`repro.bench.specs`), prints the
paper-shaped ASCII summary, and writes the ``repro.bench/v2`` JSON
report.  The report's virtual-time fields are deterministic given the
suite and seeds; only wall-clock and memory fields vary across machines
and runs.

``python -m repro.bench compare OLD.json NEW.json`` diffs two reports
(see :mod:`repro.bench.compare`): per-case wall/throughput/bytes deltas,
a configurable throughput-regression threshold, and an optional strict
determinism check — the regression gate CI runs on every PR.

``--budget PATTERN=SECONDS`` (repeatable, on both the run and compare
forms) turns wall-clock expectations into alarms: any selected case whose
name contains ``PATTERN`` and whose wall time exceeds the budget makes
the invocation exit nonzero.  CI uses this to pin the n=1000 operating
points to an absolute time box.

``--check-invariants`` (the default) harvests each case's safety-invariant
ledger summary (:meth:`repro.obs.invariants.ViewLedger.report`) into the
report's per-case ``invariants`` block; ``--no-check-invariants`` drops the
block, e.g. to compare against pre-ledger baseline reports.  The safety
checks themselves always run inside the harness either way.

``--timeseries PATH`` additionally exports the plot-ready Figure 5-10
series (view-size timeseries and per-node convergence ECDF) as
long-format CSV; see :func:`repro.bench.runner.write_timeseries_csv` and
``docs/REPRODUCING.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.bench.compare import budget_breaches, main as compare_main, parse_budgets
from repro.bench.runner import (
    BenchRunner,
    build_report,
    render_report,
    write_report,
    write_timeseries_csv,
)
from repro.bench.specs import SUITES, suite_specs

__all__ = ["main"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the reproduction's benchmark suites "
        "(or `compare OLD.json NEW.json` to diff two reports).",
    )
    parser.add_argument(
        "--suite",
        default="quick",
        choices=sorted(SUITES),
        help="which suite to run (default: quick)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply every case's cluster size by this factor",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output JSON path (default: BENCH_<suite>.json)",
    )
    parser.add_argument(
        "--filter",
        default=None,
        metavar="SUBSTR",
        help="only run cases whose name contains this substring",
    )
    parser.add_argument(
        "--mem",
        action="store_true",
        help="trace python allocations (tracemalloc) and record each "
        "case's alloc_peak_bytes; roughly doubles wall time",
    )
    parser.add_argument(
        "--check-invariants",
        dest="check_invariants",
        action="store_true",
        default=True,
        help="harvest each case's safety-invariant ledger summary into the "
        "report's invariants block (default: on; the checks themselves are "
        "always enforced inside the harness and abort a violating case)",
    )
    parser.add_argument(
        "--no-check-invariants",
        dest="check_invariants",
        action="store_false",
        help="omit the per-case invariants block (e.g. to compare against "
        "reports from before the ledger existed)",
    )
    parser.add_argument(
        "--timeseries",
        default=None,
        metavar="PATH",
        help="also export the plot-ready Figure 5-10 series (view-size "
        "timeseries, per-node convergence ECDF) as long-format CSV",
    )
    parser.add_argument(
        "--budget",
        action="append",
        default=[],
        metavar="PATTERN=SECONDS",
        help="fail the run when a selected case whose name contains "
        "PATTERN exceeds SECONDS of wall time (repeatable)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the selected cases and exit"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    args = parser.parse_args(argv)
    try:
        budgets = parse_budgets(args.budget)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    specs = suite_specs(args.suite, scale=args.scale)
    if args.filter:
        specs = [spec for spec in specs if args.filter in spec.name]
    if not specs:
        print("no cases selected", file=sys.stderr)
        return 2
    if args.list:
        for spec in specs:
            print(spec.name)
        return 0

    runner = BenchRunner(
        track_alloc=args.mem,
        check_invariants=args.check_invariants,
        log=None if args.quiet else print,
    )
    cases = runner.run(specs)
    print(render_report(cases))
    report = build_report(args.suite, args.scale, cases)
    out = write_report(report, args.out or f"BENCH_{args.suite}.json")
    print(f"wrote {len(cases)} cases to {out}")
    if args.timeseries:
        ts = write_timeseries_csv(cases, args.timeseries)
        print(f"wrote timeseries CSV to {ts}")
    breaches = budget_breaches(report["cases"], budgets)
    if breaches:
        for breach in breaches:
            print(f"FAIL: {breach}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
