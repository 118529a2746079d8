"""Application resilience policies: what a well-built client does during churn.

The paper's section 7 argument is that membership *stability* is what end
users feel: a flapping failure detector turns into reload storms (Figure
13) and failover storms (Figure 12).  A production client does not retry
naively against that — it bounds its retries with jittered backoff, hedges
slow requests, breaks circuits to dead destinations, and re-resolves
routing state from the membership view after a failover.  This module is
that tier, shared by :mod:`repro.apps.service_discovery` and
:mod:`repro.apps.txn_platform` in place of their former ad-hoc retry
loops:

* :class:`BackoffPolicy` — bounded exponential backoff with full jitter
  (AWS-style: ``uniform(0, min(cap, base * multiplier**attempt))``);
* :class:`CircuitBreaker` / :class:`BreakerBoard` — per-destination
  closed → open → half-open breakers with bounded half-open probing;
* :class:`HedgeTracker` — a latency-quantile estimator deciding *when* a
  hedge (one duplicate attempt per request, "the tail at scale") fires;
* :class:`ResiliencePolicy` + :class:`ResilientCall` — the per-request
  driver tying those together under a propagated deadline: retries stop
  the moment they cannot finish before the deadline, and the hedge fires
  exactly once per logical request;
* :class:`ViewResolver` — failover re-resolution: a cached "who do I talk
  to" answer derived from the membership view, invalidated on failure so
  the next attempt re-resolves against the current view;
* :class:`ViewWatcher` — polls a membership agent's view and feeds
  ``on_change`` callbacks, letting apps ride on any harness-driven
  membership system without bespoke callback plumbing.

Everything here is runtime-agnostic (it needs only ``now``/``schedule``
and a seeded ``rng``) and deterministic given the runtime's RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.analysis.stats import percentile
from repro.core.node_id import Endpoint

__all__ = [
    "BackoffPolicy",
    "CircuitBreaker",
    "BreakerBoard",
    "HedgeTracker",
    "ResiliencePolicy",
    "ResilientCall",
    "ViewResolver",
    "ViewWatcher",
]


# ------------------------------------------------------------------ backoff


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff with full jitter.

    ``delay(attempt, rng)`` draws uniformly from ``[0, bound)`` where
    ``bound = min(cap, base * multiplier**attempt)`` — the "full jitter"
    variant, which de-correlates retry storms: after a mass failure no
    two clients retry on the same schedule.  ``attempt`` counts completed
    attempts, so the first retry draws from ``[0, base * multiplier)``.
    """

    base: float = 0.05
    cap: float = 2.0
    multiplier: float = 2.0

    def bound(self, attempt: int) -> float:
        """The (capped) upper bound of the ``attempt``-th retry delay."""
        return min(self.cap, self.base * self.multiplier ** max(attempt, 0))

    def delay(self, attempt: int, rng) -> float:
        """A jittered delay before the ``attempt``-th retry."""
        return rng.random() * self.bound(attempt)


# ----------------------------------------------------------------- breakers

#: Circuit breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class CircuitBreaker:
    """One destination's circuit: closed → open → half-open → closed.

    ``failure_threshold`` consecutive failures open the circuit;
    :meth:`allow` then refuses traffic for ``recovery_timeout`` seconds,
    after which it admits up to ``half_open_probes`` trial requests
    (half-open).  A success closes the circuit; a failure re-opens it and
    restarts the recovery clock.
    """

    __slots__ = (
        "failure_threshold",
        "recovery_timeout",
        "half_open_probes",
        "state",
        "_failures",
        "_opened_at",
        "_probes",
        "_on_transition",
    )

    def __init__(
        self,
        failure_threshold: int = 3,
        recovery_timeout: float = 10.0,
        half_open_probes: int = 1,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self.half_open_probes = half_open_probes
        self.state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes = 0
        self._on_transition = on_transition

    def _transition(self, new: str) -> None:
        old, self.state = self.state, new
        if self._on_transition is not None:
            self._on_transition(old, new)

    def allow(self, now: float) -> bool:
        """Whether a request may be sent to this destination right now."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self._opened_at < self.recovery_timeout:
                return False
            self._transition(HALF_OPEN)
            self._probes = 0
        # HALF_OPEN: admit a bounded number of trial requests.
        if self._probes < self.half_open_probes:
            self._probes += 1
            return True
        return False

    def record_success(self, now: float) -> None:
        """A request to this destination completed."""
        self._failures = 0
        if self.state != CLOSED:
            self._transition(CLOSED)

    def record_failure(self, now: float) -> None:
        """A request to this destination timed out or errored."""
        if self.state == HALF_OPEN:
            self._opened_at = now
            self._transition(OPEN)
            return
        self._failures += 1
        if self.state == CLOSED and self._failures >= self.failure_threshold:
            self._opened_at = now
            self._transition(OPEN)


class BreakerBoard:
    """Per-destination circuit breakers sharing one configuration.

    Breakers are created lazily on first contact with a destination;
    transition events are forwarded to ``on_transition(dst, old, new)``
    (how the SLO scorecard counts breaker activity).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        recovery_timeout: float = 10.0,
        half_open_probes: int = 1,
        on_transition: Optional[Callable[[Endpoint, str, str], None]] = None,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self.half_open_probes = half_open_probes
        self.on_transition = on_transition
        self._breakers: dict[Endpoint, CircuitBreaker] = {}

    def breaker(self, dst: Endpoint) -> CircuitBreaker:
        """The breaker guarding ``dst`` (created on first use)."""
        breaker = self._breakers.get(dst)
        if breaker is None:
            hook = None
            if self.on_transition is not None:
                hook = lambda old, new, _dst=dst: self.on_transition(_dst, old, new)
            breaker = self._breakers[dst] = CircuitBreaker(
                self.failure_threshold,
                self.recovery_timeout,
                self.half_open_probes,
                on_transition=hook,
            )
        return breaker

    def allow(self, dst: Endpoint, now: float) -> bool:
        """Whether ``dst``'s breaker admits a request right now."""
        return self.breaker(dst).allow(now)

    def record_success(self, dst: Endpoint, now: float) -> None:
        """Report a completed request to ``dst``'s breaker."""
        breaker = self._breakers.get(dst)
        if breaker is not None:
            breaker.record_success(now)

    def record_failure(self, dst: Endpoint, now: float) -> None:
        """Report a failed/timed-out request to ``dst``'s breaker."""
        self.breaker(dst).record_failure(now)

    def state(self, dst: Endpoint) -> str:
        """Current breaker state for ``dst`` (CLOSED if never contacted)."""
        breaker = self._breakers.get(dst)
        return breaker.state if breaker is not None else CLOSED

    def open_count(self) -> int:
        """How many destinations currently sit in the OPEN state."""
        return sum(1 for b in self._breakers.values() if b.state == OPEN)


# ------------------------------------------------------------------ hedging


class HedgeTracker:
    """Latency-quantile estimator deciding when a hedged request fires.

    Records completed-request latencies in a fixed ring buffer and
    exposes :meth:`threshold` — the configured quantile of the recent
    window, or ``None`` until ``min_samples`` latencies have been seen
    (hedging on no data would just double traffic).  The quantile is
    recomputed every ``refresh_every`` records, not per read, so the
    per-request cost is one cached float.
    """

    def __init__(
        self,
        quantile: float = 95.0,
        min_samples: int = 20,
        window: int = 256,
        refresh_every: int = 32,
    ) -> None:
        self.quantile = quantile
        self.min_samples = min_samples
        self.window = window
        self.refresh_every = refresh_every
        self._samples: list[float] = []
        self._next = 0
        self._since_refresh = 0
        self._cached: Optional[float] = None

    def record(self, latency: float) -> None:
        """Add one completed-request latency to the window."""
        if len(self._samples) < self.window:
            self._samples.append(latency)
        else:
            self._samples[self._next] = latency
            self._next = (self._next + 1) % self.window
        self._since_refresh += 1
        if self._cached is None or self._since_refresh >= self.refresh_every:
            self._refresh()

    def _refresh(self) -> None:
        self._since_refresh = 0
        if len(self._samples) >= self.min_samples:
            self._cached = percentile(self._samples, self.quantile)

    def threshold(self) -> Optional[float]:
        """Current hedge delay, or ``None`` with insufficient samples."""
        return self._cached


# ------------------------------------------------------------- call driver


@dataclass
class ResiliencePolicy:
    """Per-request resilience knobs bundled for a client.

    ``attempt_timeout`` bounds each attempt; ``max_attempts`` bounds the
    total (hedge included); ``deadline`` is the end-to-end budget from the
    request's *intended* start — retries that cannot fit before it are
    abandoned, which is what stops retry storms.  ``hedge`` (optional)
    supplies the tail-latency threshold after which one duplicate attempt
    is issued.
    """

    attempt_timeout: float = 1.0
    max_attempts: int = 4
    deadline: float = 5.0
    backoff: BackoffPolicy = BackoffPolicy()
    hedge: Optional[HedgeTracker] = None


class ResilientCall:
    """Drives one logical request through retries, a hedge, and a deadline.

    The application supplies three hooks:

    * ``pick(attempt)`` — choose a destination for the ``attempt``-th
      transmission (consulting breakers/round-robin/resolvers), or
      ``None`` if nothing is currently eligible (the call backs off and
      re-picks while the deadline allows — load shedding, not spinning);
    * ``send(dst, call)`` — transmit the attempt to ``dst``;
    * ``on_done(call, ok)`` — exactly-once completion: ``ok`` is True on
      :meth:`complete`, False on deadline/exhaustion (``call.outcome``
      says which).

    The call reports attempt-level events (retries, hedges, attempt
    timeouts, breaker feedback) through ``stats`` (an
    :class:`repro.obs.app_scorecard.AppScorecard` or anything with its
    recording surface) and, on success, feeds the hedge tracker.
    Terminal accounting (offered/success/error) stays with the caller —
    a mid-tier retrier and an edge client share this driver but own
    different ends of the ledger.

    The hedge is armed once, when the first attempt departs, and fires at
    most once per logical request no matter how many retries follow.
    """

    __slots__ = (
        "runtime",
        "policy",
        "stats",
        "pick",
        "send",
        "on_done",
        "on_target_failure",
        "on_target_success",
        "intended",
        "deadline_at",
        "done",
        "outcome",
        "attempts",
        "retries",
        "hedged",
        "_hedge_armed",
        "_current",
        "_responded",
    )

    def __init__(
        self,
        runtime,
        policy: ResiliencePolicy,
        stats,
        pick: Callable[[int], Optional[Endpoint]],
        send: Callable[[Endpoint, "ResilientCall"], None],
        on_done: Optional[Callable[["ResilientCall", bool], None]] = None,
        on_target_failure: Optional[Callable[[Endpoint], None]] = None,
        on_target_success: Optional[Callable[[Endpoint], None]] = None,
        intended: Optional[float] = None,
        deadline_at: Optional[float] = None,
    ) -> None:
        self.runtime = runtime
        self.policy = policy
        self.stats = stats
        self.pick = pick
        self.send = send
        self.on_done = on_done
        self.on_target_failure = on_target_failure
        self.on_target_success = on_target_success
        now = runtime.now()
        #: The request's scheduled arrival time — the latency origin.
        #: Measuring from here (not from whenever an attempt actually
        #: left) is the coordinated-omission fix: stalls and retries
        #: cannot hide inside the measurement.
        self.intended = now if intended is None else intended
        self.deadline_at = (
            self.intended + policy.deadline if deadline_at is None else deadline_at
        )
        self.done = False
        self.outcome: Optional[str] = None
        self.attempts = 0
        self.retries = 0
        self.hedged = False
        self._hedge_armed = False
        self._current: dict[int, Endpoint] = {}  # outstanding attempt -> dst
        self._responded = False

    # ---------------------------------------------------------------- driving

    def begin(self) -> None:
        """Issue the first attempt and arm the deadline."""
        self.runtime.schedule(
            max(self.deadline_at - self.runtime.now(), 0.0), self._deadline
        )
        self._launch()

    def _launch(self) -> None:
        if self.done:
            return
        now = self.runtime.now()
        if now >= self.deadline_at:
            return  # the deadline event finishes the call
        if self.attempts >= self.policy.max_attempts:
            self._finish("exhausted", ok=False)
            return
        dst = self.pick(self.attempts)
        if dst is None:
            # Nothing eligible (breakers all open, view empty): back off
            # and re-pick, bounded by the deadline.  Deliberately not
            # counted as an attempt — nothing was transmitted.
            self.runtime.schedule(
                self.policy.backoff.delay(self.attempts, self.runtime.rng),
                self._launch,
            )
            return
        attempt = self.attempts
        self.attempts += 1
        self._current[attempt] = dst
        self.send(dst, self)
        self.runtime.schedule(
            self.policy.attempt_timeout, self._attempt_timeout, attempt
        )
        if not self._hedge_armed:
            self._hedge_armed = True
            self._arm_hedge(now)

    def _arm_hedge(self, now: float) -> None:
        hedge = self.policy.hedge
        if hedge is None:
            return
        threshold = hedge.threshold()
        if threshold is None:
            return
        # A hedge that could not finish an attempt before the deadline is
        # pure waste; skip arming it.
        if now + threshold >= self.deadline_at:
            return
        self.runtime.schedule(threshold, self._fire_hedge)

    def _fire_hedge(self) -> None:
        if self.done or self._responded or self.hedged:
            return
        if self.attempts >= self.policy.max_attempts:
            return
        self.hedged = True
        self.stats.record_hedge()
        self._launch()

    def _attempt_timeout(self, attempt: int) -> None:
        dst = self._current.pop(attempt, None)
        if self.done or dst is None:
            return
        self.stats.record_attempt_timeout()
        if self.on_target_failure is not None:
            self.on_target_failure(dst)
        if self._current:
            # A sibling attempt (the hedge) is still in flight; let it run
            # rather than piling on another retry.
            return
        now = self.runtime.now()
        if self.attempts >= self.policy.max_attempts:
            self._finish("exhausted", ok=False)
            return
        delay = self.policy.backoff.delay(self.retries, self.runtime.rng)
        if now + delay >= self.deadline_at:
            # Deadline exceeded aborts retries: nothing more is sent.
            return
        self.retries += 1
        self.stats.record_retry()
        self.runtime.schedule(delay, self._launch)

    def _deadline(self) -> None:
        if self.done:
            return
        self._finish("deadline", ok=False)

    def _finish(self, outcome: str, ok: bool) -> None:
        self.done = True
        self.outcome = outcome
        self._current.clear()
        if self.on_done is not None:
            self.on_done(self, ok)

    # -------------------------------------------------------------- responses

    def complete(self, src: Endpoint) -> bool:
        """Report a response from ``src``; returns False for late duplicates.

        The first response settles the call: latency is measured from the
        *intended* start, the hedge tracker learns it, and ``src``'s
        breaker records a success.  A response is always a success: no app
        of this tier answers a request with an error.
        """
        if self.done:
            return False
        self._responded = True
        # Retire whichever outstanding attempt src answers.
        for attempt, dst in list(self._current.items()):
            if dst == src:
                del self._current[attempt]
                break
        if self.on_target_success is not None:
            self.on_target_success(src)
        latency = self.runtime.now() - self.intended
        if self.policy.hedge is not None:
            self.policy.hedge.record(latency)
        self._finish("ok", ok=True)
        return True

    @property
    def latency(self) -> float:
        """Elapsed time since the intended start (end-to-end so far)."""
        return self.runtime.now() - self.intended


# --------------------------------------------------------------- resolution


class ViewResolver:
    """Failover re-resolution: derive "who do I talk to" from the view.

    ``view_fn`` returns the current membership iterable; ``select`` picks
    the servicing endpoint from the eligible candidates (``min`` models
    the paper's lowest-addressed transaction serializer).  ``restrict``
    optionally limits candidates to a known server set.  The answer is
    cached until :meth:`invalidate` — on a timeout or a
    ``NotSerializer``-style redirect the client invalidates and the next
    :meth:`resolve` re-derives the target from the *current* view, which
    is how failover converges after a view change.
    """

    def __init__(
        self,
        view_fn: Callable[[], Iterable[Endpoint]],
        select: Callable = min,
        restrict: Optional[Iterable[Endpoint]] = None,
    ) -> None:
        self.view_fn = view_fn
        self.select = select
        self.restrict = frozenset(restrict) if restrict is not None else None
        self._cached: Optional[Endpoint] = None
        self._valid = False
        #: How many times a fresh resolution was computed (scorecard food).
        self.resolutions = 0

    def resolve(self) -> Optional[Endpoint]:
        """The currently resolved endpoint (recomputed if invalidated)."""
        if self._valid:
            return self._cached
        candidates = self.view_fn()
        if self.restrict is not None:
            candidates = [ep for ep in candidates if ep in self.restrict]
        else:
            candidates = list(candidates)
        self._cached = self.select(candidates) if candidates else None
        self._valid = True
        self.resolutions += 1
        return self._cached

    def invalidate(self) -> None:
        """Drop the cached answer; the next resolve re-derives it."""
        self._valid = False

    def hint(self, endpoint: Optional[Endpoint]) -> None:
        """Adopt a redirect hint (e.g. ``NotSerializer.hint``) directly."""
        if endpoint is None:
            self.invalidate()
            return
        self._cached = endpoint
        self._valid = True
        self.resolutions += 1


class ViewWatcher:
    """Polls a membership agent's view; calls ``on_change`` when it moves.

    Lets application components follow *any* membership system the
    harness can drive — Rapid's callback-driven views and the baselines'
    polled views look identical from here.  The comparison is
    identity-first (agents cache their view tuples on quiet seconds), so
    a watcher costs one ``is`` check per interval while nothing changes.
    """

    def __init__(
        self,
        runtime,
        view_fn: Callable[[], Iterable[Endpoint]],
        on_change: Callable[[tuple], None],
        interval: float = 0.25,
    ) -> None:
        self.runtime = runtime
        self.view_fn = view_fn
        self.on_change = on_change
        self.interval = interval
        self._last: Optional[tuple] = None
        self._stopped = False

    def start(self) -> None:
        """Deliver the current view immediately, then poll every interval."""
        self._tick()

    def stop(self) -> None:
        """Stop polling (pending tick becomes a no-op)."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        raw = tuple(self.view_fn())
        last = self._last
        if last is None or (raw is not last and raw != last):
            self._last = raw
            self.on_change(raw)
        self.runtime.schedule(self.interval, self._tick)
