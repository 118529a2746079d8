"""Observability: cheap always-on metrics for the simulator and protocols.

See :mod:`repro.obs.metrics` for the instruments and the determinism
contract (virtual-time data only — snapshots are identical across
same-seed runs).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsScope,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
]
