"""Benchmark CLI: ``python -m repro.bench --suite quick --out BENCH_quick.json``.

Runs a declared suite (see :mod:`repro.bench.specs`), prints the
paper-shaped ASCII summary, and writes the ``repro.bench/v3`` JSON
report.  Every field of a simulator case replays from the suite and its
seeds; host time and memory are measured by ``benchmarks/``, not here.

``python -m repro.bench compare OLD.json NEW.json`` diffs two reports
(see :mod:`repro.bench.compare`): any drifted field or changed case set
fails it — the determinism gate CI runs on every PR.

``--filter SUBSTR`` selects cases by name and exits 2 when nothing
matches, so a renamed case cannot silently drop out of a CI step that
selects it.

``--timeseries PATH`` additionally exports the plot-ready Figure 5-10
series (view-size timeseries and per-node convergence ECDF) as
long-format CSV; see :func:`repro.bench.runner.write_timeseries_csv` and
``docs/REPRODUCING.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.bench.compare import main as compare_main
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

    cases = BenchRunner(log=None if args.quiet else print).run(specs)
    print(render_report(cases))
    report = build_report(args.suite, args.scale, cases)
    out = write_report(report, args.out or f"BENCH_{args.suite}.json")
    print(f"wrote {len(cases)} cases to {out}")
    if args.timeseries:
        ts = write_timeseries_csv(cases, args.timeseries)
        print(f"wrote timeseries CSV to {ts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
