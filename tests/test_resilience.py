"""Unit tests for the shared app resilience tier (:mod:`repro.apps.resilience`).

Backoff jitter stays inside its bounds and caps; circuit breakers walk
closed → open → half-open → closed under injected failures; a hedged
request duplicates exactly once; a propagated deadline aborts the retry
loop; and the view resolver re-resolves to a new serializer after a view
change — each primitive pinned in isolation before the app models
compose them.
"""

import random

import pytest

from repro.apps.resilience import (
    BackoffPolicy,
    BreakerBoard,
    CircuitBreaker,
    HedgeTracker,
    ResiliencePolicy,
    ResilientCall,
    ViewResolver,
    ViewWatcher,
)
from repro.core.node_id import Endpoint
from repro.obs.app_scorecard import AppScorecard
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.process import SimRuntime


class TestBackoffPolicy:
    def test_bound_grows_geometrically_until_cap(self):
        policy = BackoffPolicy(base=0.1, cap=1.0, multiplier=2.0)
        assert policy.bound(0) == pytest.approx(0.1)
        assert policy.bound(1) == pytest.approx(0.2)
        assert policy.bound(2) == pytest.approx(0.4)
        # 0.1 * 2**5 = 3.2 > cap
        assert policy.bound(5) == pytest.approx(1.0)
        assert policy.bound(50) == pytest.approx(1.0)

    def test_delay_jitters_within_zero_and_bound(self):
        policy = BackoffPolicy(base=0.05, cap=0.4, multiplier=2.0)
        rng = random.Random(7)
        for attempt in range(8):
            bound = policy.bound(attempt)
            for _ in range(200):
                delay = policy.delay(attempt, rng)
                assert 0.0 <= delay <= bound

    def test_full_jitter_actually_spreads(self):
        # Full jitter means delays cover the range, not cluster at the top.
        policy = BackoffPolicy(base=1.0, cap=1.0)
        rng = random.Random(3)
        delays = [policy.delay(0, rng) for _ in range(500)]
        assert min(delays) < 0.1
        assert max(delays) > 0.9


class TestCircuitBreaker:
    def test_open_after_threshold_then_half_open_then_closed(self):
        transitions = []
        breaker = CircuitBreaker(
            failure_threshold=3,
            recovery_timeout=5.0,
            on_transition=lambda old, new: transitions.append((old, new)),
        )
        assert breaker.state == "closed"
        for t in (1.0, 2.0):
            breaker.record_failure(t)
            assert breaker.allow(t)
        breaker.record_failure(3.0)
        assert breaker.state == "open"
        assert not breaker.allow(4.0)
        # Recovery timeout elapses: half-open admits a probe.
        assert breaker.allow(8.1)
        assert breaker.state == "half_open"
        breaker.record_success(8.2)
        assert breaker.state == "closed"
        assert breaker.allow(8.3)
        assert transitions == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_half_open_failure_reopens_and_restarts_clock(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=5.0)
        breaker.record_failure(0.0)
        assert breaker.state == "open"
        assert breaker.allow(5.1)  # probe
        breaker.record_failure(5.2)
        assert breaker.state == "open"
        # The recovery clock restarted at 5.2, so 5.3 is still open...
        assert not breaker.allow(5.3)
        # ...and only 5.2 + 5.0 reopens the probe window.
        assert breaker.allow(10.3)

    def test_half_open_admits_limited_probes(self):
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout=1.0, half_open_probes=1
        )
        breaker.record_failure(0.0)
        assert breaker.allow(1.5)
        # Second trial while the probe is outstanding is rejected.
        assert not breaker.allow(1.6)

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3, recovery_timeout=1.0)
        breaker.record_failure(0.1)
        breaker.record_failure(0.2)
        breaker.record_success(0.3)
        breaker.record_failure(0.4)
        breaker.record_failure(0.5)
        assert breaker.state == "closed"


class TestBreakerBoard:
    def test_per_destination_isolation_and_transition_callback(self):
        seen = []
        board = BreakerBoard(
            failure_threshold=1,
            recovery_timeout=10.0,
            on_transition=lambda dst, old, new: seen.append((dst, old, new)),
        )
        a, b = Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 1)
        board.record_failure(a, 0.0)
        assert not board.allow(a, 0.1)
        assert board.allow(b, 0.1)
        assert board.state(a) == "open"
        assert board.state(b) == "closed"
        assert board.open_count() == 1
        assert seen == [(a, "closed", "open")]


class TestHedgeTracker:
    def test_no_threshold_until_min_samples(self):
        tracker = HedgeTracker(quantile=95.0, min_samples=10)
        for _ in range(9):
            tracker.record(0.010)
        assert tracker.threshold() is None
        tracker.record(0.010)
        assert tracker.threshold() == pytest.approx(0.010)

    def test_threshold_tracks_the_quantile(self):
        tracker = HedgeTracker(
            quantile=50.0, min_samples=10, window=64, refresh_every=1
        )
        for i in range(64):
            tracker.record(float(i))
        threshold = tracker.threshold()
        assert threshold is not None
        assert 25.0 <= threshold <= 40.0


def _runtime(seed=0):
    engine = Engine()
    network = Network(engine, seed=seed)
    runtime = SimRuntime(engine, network, Endpoint("10.9.9.9", 1), seed=seed)
    return engine, runtime


class _Sink:
    """Scriptable target set: records sends, answers on demand."""

    def __init__(self):
        self.sent = []  # (time, dst, call)

    def send(self, dst, call):
        self.sent.append(dst)


class TestResilientCall:
    def _call(self, engine, runtime, policy, stats=None, targets=("a", "b", "c"),
              outcomes=None):
        stats = stats or AppScorecard()
        sink = _Sink()
        eps = [Endpoint(f"10.1.0.{i}", 1) for i in range(len(targets))]
        call = ResilientCall(
            runtime,
            policy,
            stats,
            pick=lambda attempt: eps[attempt % len(eps)],
            send=sink.send,
            on_done=lambda c, ok: outcomes.append((c.outcome, ok))
            if outcomes is not None
            else None,
        )
        return call, sink, stats, eps

    def test_hedge_fires_exactly_once(self):
        engine, runtime = _runtime()
        hedge = HedgeTracker(quantile=95.0, min_samples=1, refresh_every=1)
        hedge.record(0.05)  # threshold: 50 ms
        policy = ResiliencePolicy(
            attempt_timeout=10.0, max_attempts=4, deadline=30.0, hedge=hedge
        )
        call, sink, stats, eps = self._call(engine, runtime, policy)
        call.begin()
        engine.run(until=5.0)  # far past the threshold; no response arrives
        # One primary attempt plus exactly one hedge, despite 5 s of
        # silence being 100x the hedge threshold.
        assert call.hedged is True
        assert len(sink.sent) == 2
        assert stats.hedges == 1
        call.complete(sink.sent[0])
        assert call.outcome == "ok"

    def test_hedged_response_from_either_attempt_wins(self):
        engine, runtime = _runtime()
        hedge = HedgeTracker(quantile=95.0, min_samples=1, refresh_every=1)
        hedge.record(0.05)
        policy = ResiliencePolicy(
            attempt_timeout=10.0, max_attempts=4, deadline=30.0, hedge=hedge
        )
        call, sink, stats, eps = self._call(engine, runtime, policy)
        call.begin()
        engine.run(until=1.0)
        hedged_dst = sink.sent[1]
        call.complete(hedged_dst)
        assert call.outcome == "ok"
        # Late response from the primary is ignored, not a second outcome.
        call.complete(sink.sent[0])
        assert stats.completed == 0  # the call doesn't record; apps do

    def test_deadline_exceeded_aborts_retries(self):
        engine, runtime = _runtime()
        outcomes = []
        policy = ResiliencePolicy(
            attempt_timeout=0.5,
            max_attempts=100,
            deadline=1.6,
            backoff=BackoffPolicy(base=0.01, cap=0.01),
        )
        call, sink, stats, eps = self._call(
            engine, runtime, policy, outcomes=outcomes
        )
        call.begin()
        engine.run(until=10.0)
        assert outcomes == [("deadline", False)]
        # ~3 attempts fit in 1.6 s of 0.5 s timeouts; nowhere near 100.
        assert len(sink.sent) <= 4
        # No timers left running after the terminal outcome.
        before = len(sink.sent)
        engine.run(until=20.0)
        assert len(sink.sent) == before

    def test_exhausted_after_max_attempts(self):
        engine, runtime = _runtime()
        outcomes = []
        policy = ResiliencePolicy(
            attempt_timeout=0.2,
            max_attempts=3,
            deadline=60.0,
            backoff=BackoffPolicy(base=0.01, cap=0.01),
        )
        call, sink, stats, eps = self._call(
            engine, runtime, policy, outcomes=outcomes
        )
        call.begin()
        engine.run(until=10.0)
        assert outcomes == [("exhausted", False)]
        assert len(sink.sent) == 3
        assert stats.retries == 2
        assert stats.attempt_timeouts == 3

    def test_retry_targets_feed_failure_callbacks(self):
        engine, runtime = _runtime()
        failed = []
        policy = ResiliencePolicy(
            attempt_timeout=0.2,
            max_attempts=2,
            deadline=60.0,
            backoff=BackoffPolicy(base=0.01, cap=0.01),
        )
        stats = AppScorecard()
        eps = [Endpoint(f"10.1.0.{i}", 1) for i in range(2)]
        call = ResilientCall(
            runtime,
            policy,
            stats,
            pick=lambda attempt: eps[attempt % 2],
            send=lambda dst, c: None,
            on_done=lambda c, ok: None,
            on_target_failure=failed.append,
        )
        call.begin()
        engine.run(until=5.0)
        assert failed == [eps[0], eps[1]]


class TestViewResolver:
    def test_failover_reresolution_converges_after_view_change(self):
        # The txn serializer pattern: lowest member of the current view.
        view = [["s1", "s2", "s3"]]
        resolver = ViewResolver(lambda: view[0], select=min)
        assert resolver.resolve() == "s1"
        assert resolver.resolve() == "s1"
        assert resolver.resolutions == 1  # cached
        # s1 crashes; the membership layer publishes a new view.
        view[0] = ["s2", "s3"]
        assert resolver.resolve() == "s1"  # stale until told otherwise
        resolver.invalidate()
        assert resolver.resolve() == "s2"
        assert resolver.resolutions == 2

    def test_hint_adopts_redirect(self):
        resolver = ViewResolver(lambda: ["s1", "s2"], select=min)
        assert resolver.resolve() == "s1"
        resolver.hint("s2")
        assert resolver.resolve() == "s2"

    def test_none_hint_invalidates(self):
        view = [["s1", "s2"]]
        resolver = ViewResolver(lambda: view[0], select=min)
        assert resolver.resolve() == "s1"
        view[0] = ["s2"]
        resolver.hint(None)
        assert resolver.resolve() == "s2"

    def test_restrict_filters_nonmembers(self):
        resolver = ViewResolver(
            lambda: ["lb", "s1", "s2"], select=min, restrict=("s1", "s2")
        )
        assert resolver.resolve() == "s1"


class TestResilientCallEnds:
    """How a call ends when no response comes: each rule that stops
    sending, reached once."""

    def _call(self, runtime, policy, pick=None, deadline_at=None):
        sent, outcomes = [], []
        stats = AppScorecard()
        target = Endpoint("10.1.0.1", 1)
        call = ResilientCall(
            runtime,
            policy,
            stats,
            pick=pick or (lambda attempt: target),
            send=lambda dst, c: sent.append((runtime.now(), dst)),
            on_done=lambda c, ok: outcomes.append(c.outcome),
            deadline_at=deadline_at,
        )
        return call, sent, outcomes, stats

    def test_nothing_eligible_backs_off_and_re_picks_until_the_deadline(self):
        """All breakers open: nothing is sent and no attempt is spent; the
        deadline ends the call, and a re-pick due after it does nothing."""
        engine, runtime = _runtime()
        picks = []

        def pick(attempt):
            picks.append(runtime.now())
            return None

        policy = ResiliencePolicy(
            deadline=1.0, backoff=BackoffPolicy(base=0.3, cap=0.3)
        )
        call, sent, outcomes, _ = self._call(runtime, policy, pick=pick)
        call.begin()
        engine.run(until=5.0)
        assert outcomes == ["deadline"]
        assert sent == [] and call.attempts == 0
        assert len(picks) >= 2 and max(picks) < 1.0

    def test_a_call_begun_past_its_deadline_sends_nothing(self):
        engine, runtime = _runtime()
        call, sent, outcomes, _ = self._call(
            runtime, ResiliencePolicy(), deadline_at=runtime.now()
        )
        call.begin()
        engine.run(until=1.0)
        assert outcomes == ["deadline"] and sent == []

    def test_a_retry_that_would_land_past_the_deadline_is_not_sent(self):
        engine, runtime = _runtime()
        policy = ResiliencePolicy(
            attempt_timeout=0.5, deadline=0.6, backoff=BackoffPolicy(base=5.0, cap=5.0)
        )
        call, sent, outcomes, stats = self._call(runtime, policy)
        call.begin()
        engine.run(until=5.0)
        assert outcomes == ["deadline"]
        assert len(sent) == 1 and stats.retries == 0 and stats.attempt_timeouts == 1

    def test_a_hedge_that_cannot_finish_before_the_deadline_is_not_armed(self):
        engine, runtime = _runtime()
        hedge = HedgeTracker(quantile=95.0, min_samples=1, refresh_every=1)
        hedge.record(2.0)
        policy = ResiliencePolicy(attempt_timeout=10.0, deadline=1.0, hedge=hedge)
        call, sent, outcomes, stats = self._call(runtime, policy)
        call.begin()
        engine.run(until=5.0)
        assert outcomes == ["deadline"]
        assert len(sent) == 1 and stats.hedges == 0

    def test_the_hedge_is_not_sent_when_no_attempt_is_left(self):
        engine, runtime = _runtime()
        hedge = HedgeTracker(quantile=95.0, min_samples=1, refresh_every=1)
        hedge.record(0.05)
        policy = ResiliencePolicy(
            attempt_timeout=10.0, max_attempts=1, deadline=30.0, hedge=hedge
        )
        call, sent, outcomes, stats = self._call(runtime, policy)
        call.begin()
        engine.run(until=5.0)
        assert len(sent) == 1 and stats.hedges == 0 and not call.hedged

    def test_a_hedge_can_spend_the_attempt_a_pending_retry_was_to_use(self):
        """The first attempt times out and a retry is due; the hedge fires
        first and sends the last attempt.  The retry then finds none left
        and ends the call as exhausted, with the hedge still in flight."""
        engine, runtime = _runtime()
        hedge = HedgeTracker(quantile=95.0, min_samples=1, refresh_every=1)
        hedge.record(0.25)
        policy = ResiliencePolicy(
            attempt_timeout=0.2,
            max_attempts=2,
            deadline=30.0,
            backoff=BackoffPolicy(base=0.25, cap=0.25),
            hedge=hedge,
        )
        call, sent, outcomes, stats = self._call(runtime, policy)
        call.begin()
        engine.run(until=0.44)  # the hedge's own timeout is due at 0.45
        assert [t for t, _ in sent] == [0.0, 0.25]
        assert stats.retries == 1 and stats.hedges == 1
        assert outcomes == ["exhausted"]

    def test_a_timeout_with_the_hedge_in_flight_waits_for_the_hedge(self):
        engine, runtime = _runtime()
        hedge = HedgeTracker(quantile=95.0, min_samples=1, refresh_every=1)
        hedge.record(0.05)
        policy = ResiliencePolicy(attempt_timeout=0.2, deadline=30.0, hedge=hedge)
        call, sent, outcomes, stats = self._call(runtime, policy)
        call.begin()
        engine.run(until=0.24)
        assert [t for t, _ in sent] == [0.0, 0.05]
        assert stats.attempt_timeouts == 1 and stats.retries == 0
        engine.run(until=0.26)  # the hedge times out too: now a retry is due
        assert stats.attempt_timeouts == 2 and stats.retries == 1


class TestViewWatcher:
    def test_reports_each_change_once_and_nothing_after_stop(self):
        engine, runtime = _runtime()
        view = [("s1", "s2")]
        seen = []
        watcher = ViewWatcher(runtime, lambda: view[0], seen.append, interval=0.25)
        watcher.start()
        engine.run(until=1.0)
        view[0] = ("s2",)
        engine.run(until=2.0)
        watcher.stop()
        view[0] = ("s3",)
        engine.run(until=3.0)
        assert seen == [("s1", "s2"), ("s2",)]
