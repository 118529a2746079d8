"""Analysis utilities: statistics and report rendering."""

from repro.analysis.stats import mean, percentile, summarize
from repro.analysis.report import render_table

__all__ = [
    "mean",
    "percentile",
    "summarize",
    "render_table",
]
