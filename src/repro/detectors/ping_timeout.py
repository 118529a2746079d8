"""Default probe-outcome detector.

From the paper's implementation section: "Observers mark an edge faulty
when the number of communication exceptions they detect exceed a threshold
(40% of the last 10 measurement attempts fail)."  The window requirement
makes the detector deliberately sluggish — several seconds of evidence are
needed before an alert — which is what buys Rapid its stability under
flaky-but-alive conditions.
"""

from __future__ import annotations

from repro.detectors.base import EdgeFailureDetector

__all__ = ["PingTimeoutDetector"]


class PingTimeoutDetector(EdgeFailureDetector):
    """Sliding-window failure-fraction detector.

    The window is one ``int`` bit history (bit 0 the newest outcome, a set
    bit a failure) with an incrementally maintained failure count: the
    membership layer's probe wheel feeds one outcome per subject per
    ``probe_interval``, so updates must be O(1); and every observer keeps
    K detectors, so the window is one small int rather than a list.

    Parameters
    ----------
    window:
        Number of most recent probe outcomes considered.
    threshold:
        Fraction of failures within the window that marks the edge
        faulty (inclusive: ``failures / samples >= threshold`` fails).
    min_samples:
        Minimum outcomes before any verdict, so a single lost probe right
        after a view change cannot condemn an edge.  Clamped to
        ``window``.
    """

    __slots__ = ("window", "threshold", "min_samples", "_history",
                 "_count", "_failures", "_failed")

    def __init__(
        self, window: int = 10, threshold: float = 0.4, min_samples: int = 4
    ) -> None:
        """Validate parameters and start an empty window."""
        if window < 1:
            raise ValueError("window must be positive")
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.window = window
        self.threshold = threshold
        self.min_samples = min(min_samples, window)
        # The last `window` outcomes as bits (1 = failure, newest lowest);
        # `_count` grows to `window` then sticks, `_failures` counts set bits.
        self._history = 0
        self._count = 0
        self._failures = 0
        self._failed = False

    def _observe(self, ok: bool) -> None:
        """Record one outcome: O(1) shift-in, shift-out + count maintenance."""
        window = self.window
        history = self._history << 1
        if not ok:
            history |= 1
            self._failures += 1
        if self._count == window:
            if history >> window:  # the oldest outcome, shifted out, failed
                self._failures -= 1
                history &= (1 << window) - 1
        else:
            self._count += 1
        self._history = history
        if self._failed or self._count < self.min_samples:
            return
        if self._failures / self._count >= self.threshold:
            self._failed = True

    def on_probe_success(self, now: float, rtt: float) -> None:
        """Record an acked probe (``rtt`` in seconds; unused here)."""
        self._observe(True)

    def on_probe_failure(self, now: float) -> None:
        """Record a probe that expired without an ack."""
        self._observe(False)

    def failed(self) -> bool:
        """True once the failure fraction crossed the threshold (latched)."""
        return self._failed
