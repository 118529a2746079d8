"""Diff two ``repro.bench`` reports: the determinism gate.

``python -m repro.bench compare OLD.json NEW.json`` matches cases by
name and prints, per case, the bytes-sent delta and every field that
differs.  Every case field replays from the seed, so the committed
``BENCH_quick.json`` must be reproduced exactly anywhere: any drifted
field, or a case present in only one report, fails the comparison.
Host time is not compared here; ``benchmarks/`` measures it.

The process exit code encodes the verdict: 0 clean, 1 drift or a
changed case set, 2 usage/IO error.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.analysis.report import render_table

__all__ = ["CaseDelta", "compare_reports", "render_comparison"]


class CaseDelta:
    """Delta between one case's measurements in two reports."""

    __slots__ = ("name", "old_bytes_sent", "new_bytes_sent", "drifted_fields")

    def __init__(self, old: dict, new: dict) -> None:
        self.name = old["name"]
        self.old_bytes_sent = old.get("messages", {}).get("bytes_sent", 0)
        self.new_bytes_sent = new.get("messages", {}).get("bytes_sent", 0)
        self.drifted_fields = sorted(
            field for field in set(old) | set(new) if old.get(field) != new.get(field)
        )


def compare_reports(old: dict, new: dict) -> dict:
    """Match cases by name and compute their deltas.

    Returns ``{"deltas": [CaseDelta], "missing": [name], "added": [name]}``
    where *missing* cases exist only in ``old`` and *added* only in
    ``new`` (both count as drift).
    """
    old_schema, new_schema = old.get("schema"), new.get("schema")
    if old_schema != new_schema:
        # Field shapes may differ between schema revisions (e.g.
        # messages.by_class grew byte totals); diffing across them would
        # report every such field as drift instead of the real problem.
        raise ValueError(
            f"schema mismatch: OLD is {old_schema!r}, NEW is {new_schema!r} "
            "— re-record the baseline with this version"
        )
    old_cases = {case["name"]: case for case in old.get("cases", [])}
    new_cases = {case["name"]: case for case in new.get("cases", [])}
    deltas = [
        CaseDelta(old_cases[name], new_cases[name])
        for name in old_cases
        if name in new_cases
    ]
    return {
        "deltas": deltas,
        "missing": sorted(set(old_cases) - set(new_cases)),
        "added": sorted(set(new_cases) - set(old_cases)),
    }


def render_comparison(comparison: dict) -> str:
    """ASCII table of per-case deltas, flagging drift."""
    rows = []
    for delta in comparison["deltas"]:
        drift = delta.drifted_fields
        rows.append(
            [
                delta.name,
                f"{(delta.new_bytes_sent - delta.old_bytes_sent) / 1024.0:+.0f}",
                "drift:" + ",".join(drift) if drift else "ok",
            ]
        )
    for name in comparison["missing"]:
        rows.append([name, "-", "missing in NEW"])
    for name in comparison["added"]:
        rows.append([name, "-", "only in NEW"])
    return render_table(
        ["case", "KB tx Δ", "verdict"], rows, title="benchmark comparison"
    )


def main(argv: Sequence[str]) -> int:
    """Entry point for ``python -m repro.bench compare ...``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench compare",
        description="Diff two repro.bench JSON reports; any drift fails.",
    )
    parser.add_argument("old", metavar="OLD.json")
    parser.add_argument("new", metavar="NEW.json")
    args = parser.parse_args(argv)

    reports = []
    for path in (args.old, args.new):
        try:
            reports.append(json.loads(Path(path).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read report {path}: {exc}")
            return 2
    try:
        comparison = compare_reports(*reports)
        print(render_comparison(comparison))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # Structurally malformed report (e.g. a case without a "name"):
        # a usage error, not drift.
        print(f"malformed report: {exc!r}")
        return 2

    failures = []
    drifted = [d.name for d in comparison["deltas"] if d.drifted_fields]
    if drifted:
        failures.append(f"determinism drift: {', '.join(drifted)}")
    if comparison["missing"] or comparison["added"]:
        failures.append(
            f"case set changed: -{len(comparison['missing'])} "
            f"+{len(comparison['added'])}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("ok")
    return 0
