"""Lightweight always-on metrics: counters, gauges, streaming histograms.

Instrumentation in the hot paths (event loop, network fabric, protocol
nodes) records into a :class:`MetricsRegistry`.  Design constraints, in
order:

* **deterministic** — every instrument records *virtual-time* or count
  data only, so two same-seed simulation runs produce byte-identical
  snapshots.  Host time is not recorded here (``benchmarks/`` measures
  it), keeping snapshots safe to diff across runs and machines.
* **cheap** — counters are a single attribute add; histograms are O(1)
  per observation with bounded memory (log-spaced buckets, no sample
  retention).  There is no off switch: a component built without a
  registry makes a private one and records into it all the same.

Names are hierarchical, dot-separated (``net.messages_sent``,
``cluster.view_changes``, ``consensus.votes_cast``); use
:meth:`MetricsRegistry.scope` to build prefixed families without string
concatenation at every call site.
"""

from __future__ import annotations

import math
from typing import Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
]

Number = Union[int, float]

# Log-spaced buckets with base 2**(1/8): at most ~9% relative error on any
# reported quantile, ~300 buckets covering 1e-9 .. 1e9.
_LOG_BASE = math.log(2.0) / 8.0


class Counter:
    """Monotonically increasing count (messages, bytes, decisions)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value (queue depth, cluster size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """Streaming quantile sketch over non-negative samples.

    Samples land in log-spaced buckets; quantiles are answered from the
    bucket boundaries (geometric midpoint), clamped to the exact observed
    min/max.  Relative quantile error is bounded by the bucket width
    (~9%), memory by the dynamic range of the data — no samples are kept.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_zeros", "_buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._zeros = 0
        self._buckets: dict[int, int] = {}

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self._zeros += 1
        else:
            index = int(math.floor(math.log(value) / _LOG_BASE))
            self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The approximate ``p``-th percentile (0-100) of observations."""
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil((p / 100.0) * self.count))
        if target <= self._zeros:
            return max(self.min, 0.0) if self.min <= 0.0 else 0.0
        # The zeros and the buckets hold all ``count`` samples, and
        # ``target <= count`` for ``p <= 100``: the loop always returns.
        seen = self._zeros
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= target:
                midpoint = math.exp((index + 0.5) * _LOG_BASE)
                return min(max(midpoint, self.min), self.max)

    def summary(self) -> dict:
        """Count / mean / p50 / p90 / p99 / max, Table-2 style."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.max if self.count else 0.0,
        }


class MetricsRegistry:
    """Factory and container for named instruments.

    Instruments are memoized by name: two call sites asking for
    ``net.messages_sent`` share one counter.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------- factories

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def scope(self, *parts: object) -> "MetricsScope":
        """A view that prefixes every instrument name with ``parts``.

        >>> m = MetricsRegistry()
        >>> m.scope("net").counter("messages_sent").name
        'net.messages_sent'
        """
        return MetricsScope(self, ".".join(str(p) for p in parts))

    # ------------------------------------------------------------- reporting

    def snapshot(self) -> dict:
        """All instruments as a plain, JSON-serializable, name-sorted dict.

        Counters and gauges map to their value; histograms map to their
        :meth:`Histogram.summary` dict.
        """
        out: dict = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, histogram in self._histograms.items():
            out[name] = histogram.summary()
        return dict(sorted(out.items()))


class MetricsScope:
    """A registry view under a fixed name prefix (hierarchical naming)."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix

    def _name(self, name: str) -> str:
        return f"{self._prefix}.{name}" if self._prefix else name

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._name(name))

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(self._name(name))
