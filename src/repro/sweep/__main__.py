"""Sweep CLI: ``python -m repro.sweep --grid <spec> --out sweep.csv``.

Expands the grid (see :mod:`repro.sweep.grid` for the spec forms), runs
every point through the scenario dispatch table, writes the long-format
CSV, and prints a sha256 over the result rows.  Because every metric is
simulation-derived, the hash is a determinism fingerprint:

* ``--hash-out PATH`` writes it to a file (CI artifact);
* ``--expect-hash HEX`` fails the run when the fingerprint differs —
  the same-grid-twice regression gate.

A point whose scenario raises — including a safety
:class:`~repro.obs.invariants.InvariantViolation` — lands in the CSV as an
in-band ``error`` row and makes the invocation exit non-zero.  By default
the sweep stops at the first failure (the partial CSV, error row included,
is still written); ``--keep-going`` runs the remaining points and marks
every failure instead.

``python -m repro.sweep summarize sweep.csv`` aggregates a written CSV
over seeds per (scenario, profile, system, n, metric) cell using
:func:`repro.analysis.stats.summarize_sweep`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.stats import load_sweep_csv, summarize_sweep
from repro.sweep.grid import parse_grid
from repro.sweep.runner import failed_points, run_sweep, sweep_hash, write_sweep_csv

__all__ = ["main"]


def _summarize_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep summarize",
        description="Aggregate a sweep CSV over seeds.",
    )
    parser.add_argument("csv", help="long-format CSV written by the sweep run")
    parser.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="NAME",
        help="only show these metrics (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    rows = load_sweep_csv(args.csv)
    cells = summarize_sweep(rows, metrics=args.metric)
    if not cells:
        print("no matching rows", file=sys.stderr)
        return 2
    header = (
        f"{'scenario':<12} {'profile':<20} {'system':<12} {'n':>5} "
        f"{'metric':<28} {'mean':>10} {'p50':>10} {'max':>10} {'seeds':>5}"
    )
    print(header)
    print("-" * len(header))
    for (scenario, profile, system, n, metric), summary in cells.items():
        print(
            f"{scenario:<12} {profile:<20} {system:<12} {n:>5} "
            f"{metric:<28} {summary['mean']:>10.3f} {summary['p50']:>10.3f} "
            f"{summary['max']:>10.3f} {summary['seeds']:>5}"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "summarize":
        return _summarize_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Run a scenario × system × fault-profile × seed grid "
        "and write long-format metric rows "
        "(or `summarize sweep.csv` to aggregate one).",
    )
    parser.add_argument(
        "--grid",
        required=True,
        metavar="SPEC",
        help="grid spec: compact string (key=v1,v2;key=v3), inline JSON, "
        "or a path to a .json file",
    )
    parser.add_argument(
        "--out",
        default="sweep.csv",
        metavar="PATH",
        help="output CSV path (default: sweep.csv)",
    )
    parser.add_argument(
        "--hash-out",
        default=None,
        metavar="PATH",
        help="also write the determinism hash to this file",
    )
    parser.add_argument(
        "--expect-hash",
        default=None,
        metavar="HEX",
        help="fail unless the determinism hash equals HEX",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="run the remaining points after a point fails (every failure "
        "still lands as an error row and the exit status stays non-zero)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the expanded points and exit"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    args = parser.parse_args(argv)
    try:
        points = parse_grid(args.grid)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not points:
        print("empty grid", file=sys.stderr)
        return 2
    if args.list:
        for point in points:
            print(point.name)
        return 0
    try:
        rows = run_sweep(
            points, log=None if args.quiet else print, keep_going=args.keep_going
        )
    except ValueError as exc:  # a grid mistake, caught before any point ran
        print(exc, file=sys.stderr)
        return 2
    out = write_sweep_csv(rows, args.out)
    digest = sweep_hash(rows)
    print(f"wrote {len(rows)} rows from {len(points)} runs to {out}")
    print(f"sweep sha256: {digest}")
    if args.hash_out:
        with open(args.hash_out, "w", encoding="utf-8") as fh:
            fh.write(digest + "\n")
    status = 0
    failures = failed_points(rows)
    if failures:
        print(
            f"FAIL: {failures} point(s) errored (see the error rows in {out})",
            file=sys.stderr,
        )
        status = 1
    if args.expect_hash and digest != args.expect_hash.strip():
        print(
            f"FAIL: hash mismatch (expected {args.expect_hash.strip()})",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
