"""Open-loop load generation: scheduled arrivals, zipf keys, no omission.

A closed-loop generator (send, wait, send again) silently *stops offering
load* the moment the system stalls, so a one-second outage shows up as a
handful of slightly-slow requests instead of a one-second pile of
deadline misses — the coordinated-omission trap.  The generators here are
open-loop: request *k* is committed to arrive at ``start + k/rate``
whether or not request *k-1* has finished, and every request carries its
intended arrival time so latency is measured against the schedule, not
against whenever a stalled client got around to transmitting.

:class:`ZipfKeys` provides the skewed key popularity real caches and
routers see, so hot-key behaviour (one backend absorbing a third of the
traffic) is represented rather than averaged away.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional

__all__ = ["ZipfKeys", "OpenLoopSource"]


class ZipfKeys:
    """Zipf-distributed key sampler over ``n_keys`` keys.

    Key ``i`` (0-based) is drawn with probability proportional to
    ``1 / (i + 1) ** skew``.  Sampling is one uniform draw plus a binary
    search over the precomputed cumulative weights — O(log n) per key,
    deterministic given the caller's RNG.
    """

    def __init__(self, n_keys: int = 1024, skew: float = 1.1) -> None:
        if n_keys < 1:
            raise ValueError("n_keys must be >= 1")
        self.n_keys = n_keys
        self.skew = skew
        cumulative = []
        total = 0.0
        for i in range(n_keys):
            total += 1.0 / (i + 1) ** skew
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self, rng) -> int:
        """Draw one key index in ``[0, n_keys)``."""
        return bisect_right(self._cumulative, rng.random() * self._total)


class OpenLoopSource:
    """Fires ``issue(intended, index)`` at absolute scheduled arrival times.

    Request ``k``'s intended time is ``start + k / rate`` — fixed when the
    source starts, independent of how long earlier requests take.  The
    callback receives that intended time so downstream latency accounting
    (see :class:`repro.apps.resilience.ResilientCall`) measures from the
    schedule.  ``duration`` bounds the offered window.
    """

    def __init__(
        self,
        runtime,
        rate: float,
        issue: Callable[[float, int], None],
        duration: Optional[float] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.runtime = runtime
        self.rate = rate
        self.issue = issue
        self.duration = duration
        self.offered = 0
        self._start = 0.0
        self._stopped = False

    def start(self) -> None:
        """Begin the arrival schedule at the current virtual time."""
        self._start = self.runtime.now()
        self._fire(0)

    def stop(self) -> None:
        """Stop offering load (the pending arrival becomes a no-op)."""
        self._stopped = True

    def _fire(self, index: int) -> None:
        if self._stopped:
            return
        now = self.runtime.now()
        if self.duration is not None and now - self._start >= self.duration:
            return
        self.offered += 1
        self.issue(now, index)
        # Next arrival is anchored to the schedule, not to this request's
        # processing: if the client stalls, the engine delivers the
        # backlog of arrivals as soon as it can, with *old* intended
        # times — the load the system failed to absorb stays visible.
        next_at = self._start + (index + 1) / self.rate
        self.runtime.schedule(max(next_at - now, 0.0), self._fire, index + 1)
