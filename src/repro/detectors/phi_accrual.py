"""Phi-accrual failure detector [Hayashibara et al. 2004].

Instead of a binary verdict, the detector maintains a suspicion level
``phi = -log10(P(ack arrives after this long))`` under a normal model of
historical inter-arrival times.  The edge is declared faulty when ``phi``
crosses a threshold.  The paper lists phi-accrual as one of the detectors
that can be plugged into Rapid's edge monitor; Akka and Cassandra use it
natively, and our Akka-like baseline reuses this implementation.
"""

from __future__ import annotations

import math
from collections import deque

from repro.detectors.base import EdgeFailureDetector

__all__ = ["PhiAccrualDetector", "phi"]


_LN10 = math.log(10.0)


def phi(elapsed: float, mean: float, stddev: float) -> float:
    """Suspicion level for an ack overdue by ``elapsed`` seconds.

    Uses the logistic approximation to the normal CDF tail that the
    original paper (and Akka's implementation) uses, which is monotone and
    cheap to evaluate.  A late ack is handled analytically: ``exp``
    underflows past an exponent of ~700, where the tail probability is
    ~``exp(-exponent)`` (so ``phi ~ exponent / ln 10``).  An early one
    needs no such care: with ``stddev`` floored at a tenth of the mean,
    any ``elapsed >= 0`` gives ``y >= -10``, an exponent above -87, and
    ``phi = 0``.
    """
    stddev = max(stddev, mean / 10.0, 1e-6)
    y = (elapsed - mean) / stddev
    exponent = y * (1.5976 + 0.070566 * y * y)
    if exponent > 700.0:
        return exponent / _LN10
    e = math.exp(-exponent)
    if elapsed > mean:
        return -math.log10(e / (1.0 + e))
    return -math.log10(1.0 - 1.0 / (1.0 + e))


class PhiAccrualDetector(EdgeFailureDetector):
    """Accrual detector driven by probe outcomes.

    Probe successes feed the inter-arrival history.  A probe failure means
    no ack arrived for a full probe interval; we evaluate phi at the time of
    the failure (:meth:`current_phi`, which owns the short-history
    fallback) and latch when it crosses ``threshold``.
    """

    def __init__(
        self,
        threshold: float = 8.0,
        window: int = 100,
        min_samples: int = 3,
        expected_interval: float = 1.0,
    ) -> None:
        self.threshold = threshold
        self.window = window
        self.min_samples = min_samples
        self.expected_interval = expected_interval
        self._intervals: deque = deque(maxlen=window)
        self._last_ack: float = -1.0
        self._failed = False

    def on_probe_success(self, now: float, rtt: float) -> None:
        """Record an ack at virtual time ``now``: feeds the inter-arrival
        history (``rtt`` itself is unused — phi accrues on arrival gaps)."""
        if self._last_ack >= 0:
            self._intervals.append(now - self._last_ack)
        self._last_ack = now

    def on_probe_failure(self, now: float) -> None:
        """Evaluate suspicion at ``now``; latch when phi >= threshold."""
        if not self._failed and self.current_phi(now) >= self.threshold:
            self._failed = True

    def current_phi(self, now: float) -> float:
        """Suspicion level at ``now`` (also read by the Akka-like baseline).

        Never-acked edges have no baseline and stay at 0.  With fewer than
        ``min_samples`` intervals of history the level is all or nothing:
        infinite once the edge has been silent for more than three expected
        intervals, 0 before that.
        """
        if self._last_ack < 0:
            return 0.0
        if len(self._intervals) < self.min_samples:
            silent = now - self._last_ack > 3 * self.expected_interval
            return math.inf if silent else 0.0
        mean = sum(self._intervals) / len(self._intervals)
        var = sum((x - mean) ** 2 for x in self._intervals) / len(self._intervals)
        return phi(now - self._last_ack, mean, math.sqrt(var))

    def failed(self) -> bool:
        """True once suspicion crossed the threshold (irrevocable)."""
        return self._failed
