"""A/A check: the same tree measured as side A and side B, then compared.

    python3 benchmarks/aa.py [--runs N] [--seed S] [--seconds T] [--out AA_RESULT.md]

The suite runs ``N`` times per side (seeds ``S .. S+N-1``, sides
alternating), as the driver does with ten.  Printed per workload and
end-to-end metric: both medians, their relative difference and the
metric's bound.  Exits non-zero if a difference exceeds its bound, if a
deterministic number (the exact end-to-end metrics and every counter of
the raw output) differs at all between the sides for the same seed, or if
a run was incorrect.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run

#: End-to-end metrics that are counts, identical for a given seed.
EXACT = ("msgs_per_node", "wire_bytes_per_msg")


def _medians(sides: tuple, value) -> tuple:
    """Median over each side's runs of ``value(results, raws)``."""
    return tuple(
        statistics.median(value(results, raws) for results, raws in side)
        for side in sides
    )


def compare(spec: dict, side_a: list, side_b: list) -> tuple:
    """Markdown rows for every workload × metric, and the failures found.

    Each side is a list of ``run.run_suite`` results, one per seed.
    """
    rows = [
        "| workload | metric | unit | median A | median B | difference | bound | |",
        "|---|---|---|---|---|---|---|---|",
    ]
    failures = []
    sides = (side_a, side_b)
    for workload in side_a[0][0]:
        for (results_a, raws_a), (results_b, raws_b) in zip(side_a, side_b):
            if not (results_a[workload]["correct"] and results_b[workload]["correct"]):
                failures.append(f"{workload}: a run was incorrect")
            if raws_a[workload]["exact"] != raws_b[workload]["exact"]:
                failures.append(f"{workload}: deterministic counters differ between sides")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = _medians(
                sides, lambda results, raws: results[workload]["metrics"][name]["value"]
            )
            difference = abs(b - a) / abs(a)
            limit = 0.0 if name in EXACT else metric["bound"]
            ok = difference <= limit
            if not ok:
                failures.append(f"{workload}/{name}: {a!r} vs {b!r}")
            rows.append(
                f"| {workload} | {name} | {metric['unit']} | {a:.6g} | {b:.6g} "
                f"| {difference:.2%} | {'exact' if name in EXACT else format(limit, '.0%')} "
                f"| {'ok' if ok else 'FAIL'} |"
            )
        # Not a gate (see README.md): the timed region's host time.
        a, b = _medians(
            sides, lambda results, raws: run.host_time(raws[workload]["wall_s"]["each"])
        )
        rows.append(
            f"| {workload} | (run.wall_s) | s | {a:.6g} | {b:.6g} "
            f"| {abs(b - a) / a:.2%} | none | info |"
        )
    return rows, failures


def main(argv=None) -> int:
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="suite runs per side")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--out", help="also write the table to this markdown file")
    args = parser.parse_args(argv)
    args.trace = 0

    side_a, side_b = [], []
    first_seed = args.seed
    for args.seed in range(first_seed, first_seed + args.runs):
        side_a.append(run.run_suite(args, spec))
        side_b.append(run.run_suite(args, spec))
    rows, failures = compare(spec, side_a, side_b)
    where = run.provenance()
    lines = [
        "# A/A result: the same tree as side A and side B",
        "",
        f"{args.runs} suite runs per side (seeds {first_seed}..{args.seed}, sides "
        f"alternating), {args.seconds:g} s per workload run.  Python {where['python']}, "
        f"nproc {where['nproc']}, commit {where['commit'][:12]}"
        f"{' (dirty)' if where['dirty'] else ''}.",
        "",
        *rows,
        "",
        "Verdict: " + ("every median within its bound, every count identical."
                       if not failures else "FAILED — " + "; ".join(failures)),
    ]
    text = "\n".join(lines) + "\n"
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
