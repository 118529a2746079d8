"""The experiment runner: suites and grids of scenario runs, one record each.

Usage::

    PYTHONPATH=src python -m repro.bench --suite quick --out BENCH_quick.json
    PYTHONPATH=src python -m repro.bench --grid "scenario=adversary;..." --csv runs.csv

See :mod:`repro.bench.specs` for the point type, the grid grammar and the
suite definitions, and :mod:`repro.bench.runner` for the measurement
capture, the JSON schema and the long-format CSV projection.
"""

from repro.bench.runner import BenchRunner, CaseResult, build_report, csv_hash, write_report
from repro.bench.specs import SUITES, BenchSpec, parse_grid, suite_specs

__all__ = [
    "BenchRunner",
    "BenchSpec",
    "CaseResult",
    "SUITES",
    "build_report",
    "csv_hash",
    "parse_grid",
    "suite_specs",
    "write_report",
]
