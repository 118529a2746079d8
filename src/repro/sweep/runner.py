"""Sweep execution: run grid points, collect long-format metric rows.

Each :class:`~repro.sweep.grid.SweepPoint` dispatches through
:data:`repro.experiments.scenarios.SCENARIO_FUNCTIONS` and yields one CSV
row per *scalar* result key (``scenario,profile,system,n,seed,metric,``
``value``).  Container-valued results (timeseries, per-node lists, the
harness itself) are dropped: the sweep is the cheap long-format view;
``python -m repro.bench`` keeps the rich per-case snapshots.

Determinism contract: every value that lands in a row derives only from
the simulation (virtual time, seeded RNG), never from wall clock — so the
sha256 in :func:`sweep_hash` is reproducible run-to-run and machine-to-
machine, and CI can assert byte-identical CSVs for identical grids.

Failure accounting: a point whose scenario raises (including an
:class:`~repro.obs.invariants.InvariantViolation` from the safety monitor)
yields a single in-band ``error`` row (``metric=error, value=1``) instead
of silently vanishing from the CSV; :func:`run_sweep` stops at the first
failure unless ``keep_going=True``, and :func:`failed_points` counts the
error rows so the CLI can exit non-zero either way.  Scenario exceptions
are themselves simulation-deterministic, so error rows hash like any
other row.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Optional, Sequence

from repro.core.settings import RapidSettings
from repro.experiments.scenarios import scenario_function
from repro.sweep.grid import SweepPoint

__all__ = [
    "CSV_HEADER",
    "error_rows",
    "failed_points",
    "run_point",
    "run_sweep",
    "rows_to_csv",
    "write_sweep_csv",
    "sweep_hash",
]

CSV_HEADER = "scenario,profile,system,n,seed,metric,value"

#: Result keys that duplicate the row's identity columns.
_IDENTITY_KEYS = frozenset({"system", "n", "profile"})


def _format_value(value) -> Optional[str]:
    """Canonical CSV rendering of one scalar metric, or None to skip.

    Bools become 0/1, None becomes ``NA`` (ran, no measurement — e.g.
    detection latency when nothing was evicted); floats use ``repr`` for
    shortest-roundtrip stability.  Containers and strings are skipped.
    """
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return None


def point_rows(point: SweepPoint, result: dict) -> list:
    """Long-format rows for one finished run, in sorted metric order."""
    rows = []
    for metric in sorted(result):
        if metric in _IDENTITY_KEYS:
            continue
        rendered = _format_value(result[metric])
        if rendered is None:
            continue
        rows.append(
            (
                point.scenario,
                point.profile,
                point.system,
                str(point.n),
                str(point.seed),
                metric,
                rendered,
            )
        )
    return rows


def error_rows(point: SweepPoint, exc: BaseException) -> list:
    """The in-band failure marker for one raised sweep point.

    A single ``error=1`` row keyed like every other metric: downstream
    consumers (``summarize``, :func:`failed_points`, plotting scripts)
    see *that* the point ran and failed without any out-of-band channel,
    and the row hashes deterministically because scenario exceptions are
    simulation-derived.
    """
    del exc  # identity comes from the point; the detail goes to the log
    return [
        (
            point.scenario,
            point.profile,
            point.system,
            str(point.n),
            str(point.seed),
            "error",
            "1",
        )
    ]


def failed_points(rows: Iterable[tuple]) -> int:
    """Count the distinct points that contributed an ``error`` row."""
    return sum(1 for row in rows if row[5] == "error")


def run_point(point: SweepPoint) -> list:
    """Execute one sweep point and return its metric rows.

    Rapid harnesses carry an always-on safety-invariant ledger; its check
    count is injected as an ``invariant_checks`` metric when the scenario
    did not already report one, so every sweep row set certifies how many
    view installations the monitor validated for that run.
    """
    run = scenario_function(point.scenario)
    result = run(point.system, point.n, seed=point.seed, **point.call_kwargs())
    ledger = result["harness"].ledger
    if ledger is not None and "invariant_checks" not in result:
        result = dict(result)
        result["invariant_checks"] = ledger.records
    return point_rows(point, result)


def run_sweep(
    points: Sequence[SweepPoint],
    log: Optional[Callable[[str], None]] = None,
    keep_going: bool = False,
) -> list:
    """Run every point in order; returns all rows (grid order preserved).

    A point whose scenario raises contributes its :func:`error_rows`
    marker instead of metric rows.  With ``keep_going=False`` (the
    default) the sweep stops at the first failed point — the rows
    gathered so far, error marker included, are still returned so the
    caller can write a partial CSV; with ``keep_going=True`` the
    remaining points run and every failure is marked.  Either way the
    caller decides the exit status via :func:`failed_points`.  A grid
    mistake — an unknown scenario, an unknown ``settings`` field — raises
    ``ValueError`` before any point runs.
    """
    for point in points:
        # Grid mistakes are usage errors, not per-point failures.
        scenario_function(point.scenario)
        settings = point.call_kwargs().get("settings")
        if isinstance(settings, dict):
            RapidSettings.from_overrides(settings)  # raises on unknown fields
    rows: list = []
    for i, point in enumerate(points):
        try:
            point_result = run_point(point)
        except Exception as exc:
            rows.extend(error_rows(point, exc))
            if log is not None:
                log(
                    f"[{i + 1}/{len(points)}] {point.name}: "
                    f"ERROR {type(exc).__name__}: {exc}"
                )
            if not keep_going:
                break
            continue
        rows.extend(point_result)
        if log is not None:
            log(f"[{i + 1}/{len(points)}] {point.name}: {len(point_result)} metrics")
    return rows


def rows_to_csv(rows: Iterable[tuple]) -> str:
    """Render rows as CSV text (header + one line per row, LF endings)."""
    lines = [CSV_HEADER]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows: Sequence[tuple], path: str) -> str:
    """Write the long-format CSV; returns ``path``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))
    return path


def sweep_hash(rows: Sequence[tuple]) -> str:
    """sha256 over the canonical CSV text — the determinism fingerprint."""
    return hashlib.sha256(rows_to_csv(rows).encode("utf-8")).hexdigest()
