"""Statistics helpers used by the experiment harnesses.

Besides the scalar summaries (mean/percentile), this module loads
and aggregates the long-format CSVs written by ``python -m repro.bench
--csv``: :func:`load_sweep_csv` parses rows back into dicts and
:func:`summarize_sweep` groups them over seeds per (scenario, profile,
system, n, metric) cell.
"""

from __future__ import annotations

import csv
import math
from typing import Iterable, Mapping, Optional, Sequence

__all__ = [
    "percentile",
    "mean",
    "summarize",
    "load_sweep_csv",
    "summarize_sweep",
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for empty input (experiment-friendly)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100) with linear interpolation."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    rank = (p / 100.0) * (len(values) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return values[low]
    frac = rank - low
    return values[low] * (1 - frac) + values[high] * frac


def summarize(values: Sequence[float]) -> dict:
    """Mean / p50 / p99 / max summary, as the paper's Table 2 reports."""
    return {
        "mean": mean(values),
        "p50": percentile(values, 50),
        "p99": percentile(values, 99),
        "max": max(values) if values else 0.0,
    }


# ------------------------------------------------------ long-format CSVs


def load_sweep_csv(path: str) -> list:
    """Parse a ``repro.bench --csv`` long-format CSV into row dicts.

    Each row becomes ``{"scenario", "profile", "system", "n", "seed",
    "metric", "value"}`` with ``n``/``seed`` as ints and ``value`` as a
    float (``NA`` → ``None``).
    """
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for record in csv.DictReader(fh):
            value: Optional[float]
            raw = record["value"]
            value = None if raw == "NA" else float(raw)
            rows.append(
                {
                    "scenario": record["scenario"],
                    "profile": record["profile"],
                    "system": record["system"],
                    "n": int(record["n"]),
                    "seed": int(record["seed"]),
                    "metric": record["metric"],
                    "value": value,
                }
            )
    return rows


def summarize_sweep(
    rows: Iterable[Mapping], metrics: Optional[Sequence[str]] = None
) -> dict:
    """Aggregate long-format rows over seeds.

    Returns ``{(scenario, profile, system, n, metric): summary}`` where
    ``summary`` is the mean/p50/p99/max dict of :func:`summarize` plus a
    ``seeds`` count (``NA`` values are dropped before aggregating).
    ``metrics`` optionally restricts which metric names are kept.
    """
    wanted = set(metrics) if metrics is not None else None
    cells: dict[tuple, list] = {}
    for row in rows:
        if wanted is not None and row["metric"] not in wanted:
            continue
        if row["value"] is None:
            continue
        key = (
            row["scenario"],
            row["profile"],
            row["system"],
            row["n"],
            row["metric"],
        )
        cells.setdefault(key, []).append(row["value"])
    return {
        key: {**summarize(values), "seeds": len(values)}
        for key, values in sorted(cells.items())
    }
