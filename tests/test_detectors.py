"""Direct unit coverage for the pluggable edge failure detectors.

Pins the window semantics and threshold edges of
:class:`repro.detectors.ping_timeout.PingTimeoutDetector` (the paper's
default: >= 40% of the last 10 probes failed) and the accrual behavior of
:class:`repro.detectors.phi_accrual.PhiAccrualDetector`.  The membership
layer only needs ``failed()`` to latch correctly; these tests exercise the
detectors standalone, the way a custom ``detector_factory`` consumer would.
"""

import math
import random

import pytest

from repro.detectors.phi_accrual import PhiAccrualDetector, phi
from repro.detectors.ping_timeout import PingTimeoutDetector


class TestPingTimeoutWindow:
    def test_clean_edge_never_fails(self):
        d = PingTimeoutDetector()
        for i in range(100):
            d.on_probe_success(float(i), 0.001)
        assert not d.failed()

    def test_min_samples_guards_fresh_edges(self):
        """A lone failure right after a view change must not condemn."""
        d = PingTimeoutDetector(window=10, threshold=0.4, min_samples=4)
        d.on_probe_failure(0.0)
        assert not d.failed()  # 1/1 = 100% failed, but only 1 sample
        d.on_probe_failure(1.0)
        d.on_probe_failure(2.0)
        assert not d.failed()  # still below min_samples
        d.on_probe_failure(3.0)
        assert d.failed()  # 4/4 at min_samples crosses 40%

    @staticmethod
    def _feed(detector, outcomes):
        for i, ok in enumerate(outcomes):
            if ok:
                detector.on_probe_success(float(i), 0.001)
            else:
                detector.on_probe_failure(float(i))

    def test_threshold_edge_is_inclusive(self):
        """Exactly threshold-fraction failures fails (>=, not >)."""
        d = PingTimeoutDetector(window=10, threshold=0.4, min_samples=10)
        self._feed(d, [True] * 6 + [False] * 4)  # exactly 40% of 10
        assert d.failed()

    def test_just_under_threshold_does_not_fail(self):
        d = PingTimeoutDetector(window=10, threshold=0.4, min_samples=10)
        self._feed(d, [True] * 7 + [False] * 3)  # 30% of 10
        assert not d.failed()

    def test_window_slides_old_outcomes_out(self):
        """Failures older than the window stop counting against the edge."""
        d = PingTimeoutDetector(window=5, threshold=0.6, min_samples=5)
        # 2F + 5S: the two failures leave the window as it slides...
        self._feed(d, [False, False] + [True] * 5)
        assert not d.failed()
        # ...so two fresh failures are 2/5 = 40%, not 4 failures ever.
        d.on_probe_failure(7.0)
        d.on_probe_failure(8.0)
        assert not d.failed()
        d.on_probe_failure(9.0)  # 3/5 = 60% crosses the threshold
        assert d.failed()

    def test_failure_fraction_over_partial_window(self):
        """Before the window fills, the fraction uses the sample count."""
        d = PingTimeoutDetector(window=10, threshold=0.5, min_samples=4)
        d.on_probe_success(0.0, 0.001)
        d.on_probe_failure(1.0)
        d.on_probe_success(2.0, 0.001)
        d.on_probe_failure(3.0)
        assert d.failed()  # 2/4 = 50% >= 0.5

    def test_verdict_latches(self):
        """Once failed, later successes cannot rescind the verdict."""
        d = PingTimeoutDetector(window=4, threshold=0.5, min_samples=4)
        for i in range(4):
            d.on_probe_failure(float(i))
        assert d.failed()
        for i in range(4, 50):
            d.on_probe_success(float(i), 0.001)
        assert d.failed()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PingTimeoutDetector(window=0)
        with pytest.raises(ValueError):
            PingTimeoutDetector(threshold=0.0)
        with pytest.raises(ValueError):
            PingTimeoutDetector(threshold=1.5)

    def test_min_samples_clamped_to_window(self):
        d = PingTimeoutDetector(window=3, threshold=1.0, min_samples=10)
        for i in range(3):
            d.on_probe_failure(float(i))
        assert d.failed()  # min_samples acts as 3, not 10


class ListWindowDetector:
    """The list-backed window :class:`PingTimeoutDetector` kept before its
    window became one int: a ring of ``window`` booleans, an incremental
    failure count and a latch.  The reference the differential runs
    against."""

    def __init__(self, window=10, threshold=0.4, min_samples=4):
        self.window = window
        self.threshold = threshold
        self.min_samples = min(min_samples, window)
        self.ring = [True] * window
        self.pos = 0
        self.count = 0
        self.failures = 0
        self.verdict = False

    def observe(self, ok):
        if self.count == self.window:
            if not self.ring[self.pos]:
                self.failures -= 1
        else:
            self.count += 1
        self.ring[self.pos] = ok
        if not ok:
            self.failures += 1
        self.pos = (self.pos + 1) % self.window
        if self.verdict or self.count < self.min_samples:
            return
        if self.failures / self.count >= self.threshold:
            self.verdict = True


class TestPingTimeoutBitHistory:
    def test_matches_the_list_window_on_1000_seeded_streams(self):
        """Same verdict after every outcome, and the same failure count,
        for random parameters and failure rates."""
        for seed in range(1000):
            rng = random.Random(seed)
            params = dict(
                window=rng.randint(1, 70),
                threshold=rng.choice((0.1, 0.25, 0.4, 0.5, 0.75, 1.0)),
                min_samples=rng.randint(0, 20),
            )
            loss = rng.random()
            d, ref = PingTimeoutDetector(**params), ListWindowDetector(**params)
            for i in range(rng.randint(1, 200)):
                ok = rng.random() >= loss
                if ok:
                    d.on_probe_success(float(i), 0.001)
                else:
                    d.on_probe_failure(float(i))
                ref.observe(ok)
                assert d.failed() == ref.verdict, (seed, params, i)
                assert d._failures == ref.failures, (seed, params, i)

    def test_history_holds_only_the_window(self):
        d = PingTimeoutDetector(window=10, threshold=1.0, min_samples=10)
        for i in range(1000):
            d.on_probe_failure(float(i))
        assert d._history == (1 << 10) - 1
        assert d._failures == 10


class TestPhiAccrual:
    def test_phi_monotone_in_elapsed(self):
        values = [phi(e, mean=1.0, stddev=0.1) for e in (0.5, 1.0, 1.5, 2.0, 5.0)]
        assert values == sorted(values)
        assert all(not math.isnan(v) for v in values)

    def test_the_earliest_ack_is_no_suspicion_and_the_latest_is_finite(self):
        """The stddev floor keeps the early side far from ``exp``'s
        overflow; the late side takes the analytic tail."""
        for stddev in (0.0, 1e-9, 0.1):
            assert phi(0.0, mean=1.0, stddev=stddev) == 0.0
        assert phi(0.0, mean=0.0, stddev=0.0) == pytest.approx(0.30103, abs=1e-5)
        assert 1e8 < phi(1e3, mean=1.0, stddev=0.1) < math.inf

    def test_steady_acks_keep_suspicion_low(self):
        d = PhiAccrualDetector(threshold=8.0)
        for i in range(20):
            d.on_probe_success(float(i), 0.001)
        assert d.current_phi(20.5) < d.threshold
        assert not d.failed()

    def test_silence_after_history_crosses_threshold(self):
        """Regular acks then silence: phi accrues past the threshold."""
        d = PhiAccrualDetector(threshold=8.0)
        for i in range(20):
            d.on_probe_success(float(i), 0.001)
        # Failures while overdue: evaluate phi at growing silence.
        t = 20.0
        while not d.failed() and t < 60.0:
            t += 1.0
            d.on_probe_failure(t)
        assert d.failed()

    def test_no_history_fallback_three_silent_intervals(self):
        """Without min_samples of history, 3 expected intervals of silence
        latch the fallback verdict."""
        d = PhiAccrualDetector(min_samples=3, expected_interval=1.0)
        d.on_probe_success(0.0, 0.001)  # one ack, not enough history
        d.on_probe_failure(2.0)
        assert not d.failed()
        d.on_probe_failure(3.5)
        assert d.failed()  # 3.5s > 3 * expected_interval since last ack

    def test_short_history_silence_is_full_suspicion(self):
        """The Akka-like baseline reads only ``current_phi``: with fewer than
        min_samples intervals it must still see a member that went silent
        right after its first ack, and agree with ``on_probe_failure``."""
        d = PhiAccrualDetector(threshold=8.0, min_samples=3, expected_interval=1.0)
        d.on_probe_success(0.0, 0.001)
        assert d.current_phi(3.0) == 0.0
        assert d.current_phi(3.5) >= d.threshold
        d.on_probe_failure(3.5)
        assert d.failed()
        d.on_probe_success(4.0, 0.001)  # an ack is back: no longer suspect
        assert d.current_phi(4.5) == 0.0

    def test_never_acked_edge_does_not_fail(self):
        """With no ack ever, there is no baseline to accrue against."""
        d = PhiAccrualDetector()
        for i in range(10):
            d.on_probe_failure(float(i))
        assert not d.failed()
        assert d.current_phi(100.0) == 0.0

    def test_jittery_history_is_more_tolerant_than_tight_history(self):
        """Higher inter-arrival variance lowers phi for the same silence."""
        tight = PhiAccrualDetector()
        loose = PhiAccrualDetector()
        t_tight = 0.0
        t_loose = 0.0
        for i in range(30):
            t_tight += 1.0
            tight.on_probe_success(t_tight, 0.001)
            t_loose += 1.0 if i % 2 == 0 else 3.0
            loose.on_probe_success(t_loose, 0.001)
        silence = 6.0
        assert tight.current_phi(t_tight + silence) > loose.current_phi(
            t_loose + silence
        )

