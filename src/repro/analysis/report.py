"""Rendering helper: ASCII tables matching the paper's layout.

Benchmarks print their reproduced rows through :func:`render_table`, so
the ``python -m repro.bench`` summary output can be compared side by side
with the paper's tables.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["render_table"]


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Format rows as a padded ASCII table."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e9:
            return str(int(value))
        return f"{value:.2f}"
    return str(value)
