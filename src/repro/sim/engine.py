"""Deterministic discrete-event engine.

All protocol code in this repository is *sans-io*: it interacts with the
world only through a :class:`~repro.runtime.base.Runtime`.  The simulated
runtime is driven by this engine, a classic event-heap scheduler with a
virtual clock.  Determinism matters: given the same seed, an experiment
replays byte-for-byte, which is what makes the benchmark suite meaningful.

Times are floats in (virtual) seconds.

Hot-path design (the engine executes tens of millions of events in a full
benchmark run, so constant factors dominate):

* One queue.  Heap entries are plain ``(time, seq, event)`` tuples and
  ``seq`` is unique, so tuple comparison resolves on the two leading
  numbers, never falls through to comparing event objects, and *is* the
  ordering contract: same-instant events fire in scheduling order.  Events
  are ``__slots__`` records rather than ``@dataclass(order=True)``
  instances with generated ``__lt__``.
* One insertion routine (:meth:`Engine._push`) behind ``schedule``,
  ``schedule_at`` and ``post``, and one dispatch loop (:meth:`Engine.run`).
  Zero-delay events take the heap like any other: measured, they are 0 %
  of the membership workloads' events and 7 % of the app tier's (see
  "Forks on the per-event path" in ``docs/ARCHITECTURE.md``).
* Cancelled events are tombstones swept in batch: a counter tracks them,
  and when tombstones outnumber live heap entries the heap is compacted
  in one O(n) pass instead of churning through lazy pops.  This keeps
  cancel-heavy phases (a view change cancels every node's consensus
  timers at once) cheap.  Cancelling drops the callback and its
  arguments, so a tombstone pins nothing: a replaced consensus instance
  whose fallback timer was due minutes later is freed at once, not when
  the heap reaches that timer.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["Engine", "EventHandle"]

#: Compaction threshold: sweep when at least this many tombstones exist
#: *and* they outnumber live heap entries.
_COMPACT_MIN = 256


class _Event:
    """One scheduled callback; mutable only through cancellation."""

    __slots__ = ("time", "fn", "args", "cancelled", "fired")

    def __init__(self, when: float, fn: Callable[..., None], args: tuple):
        self.time = when
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False


class EventHandle:
    """Opaque handle returned by :meth:`Engine.schedule`; cancellable."""

    __slots__ = ("_event", "_engine")

    def __init__(self, event: _Event, engine: "Engine"):
        self._event = event
        self._engine = engine

    def cancel(self) -> None:
        """Cancel the event if it has not fired yet (idempotent).

        The callback and its arguments are dropped: neither :meth:`Engine.run`
        nor compaction reads them from a tombstone.
        """
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            event.fn = event.args = None
            if not event.fired:
                self._engine._note_cancel()

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this event."""
        return self._event.cancelled

    @property
    def time(self) -> float:
        """Virtual time at which the event will fire."""
        return self._event.time


class Engine:
    """A single-threaded discrete-event scheduler.

    Events scheduled for the same instant fire in scheduling order (FIFO),
    which keeps runs deterministic without relying on heap tie-breaking
    accidents.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, _Event]] = []
        self._seq = 0
        self._tombstones = 0
        self._events_processed = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    @property
    def pending_live(self) -> int:
        """Number of queued events that are not cancelled tombstones."""
        return len(self._heap) - self._tombstones

    def _push(self, when: float, fn: Callable[..., None], args: tuple) -> _Event:
        """Queue ``fn(*args)`` for virtual time ``when``: the one way in."""
        self._seq = seq = self._seq + 1
        event = _Event(when, fn, args)
        heappush(self._heap, (when, seq, event))
        return event

    def schedule(self, delay: float, fn: Callable[..., None], *args) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` virtual seconds.

        ``delay`` must be non-negative; zero-delay events run before time
        advances, after currently queued same-time events.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return EventHandle(self._push(self._now + delay, fn, args), self)

    def schedule_at(self, when: float, fn: Callable[..., None], *args) -> EventHandle:
        """Run ``fn(*args)`` at absolute virtual time ``when``."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: {when} < {self._now}")
        return EventHandle(self._push(when, fn, args), self)

    def post(self, delay: float, fn: Callable[..., None], *args) -> None:
        """Like :meth:`schedule` but returns no handle (not cancellable).

        The network fabric posts one of these per in-flight message;
        skipping the :class:`EventHandle` allocation is a measurable win.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._push(self._now + delay, fn, args)

    # ------------------------------------------------------------- execution

    def step(self) -> bool:
        """Execute the next pending event.  Returns ``False`` when idle."""
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed != before

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been processed.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the queue drains early, so periodic measurements can assume
        the full window elapsed.
        """
        if until is not None and until < self._now:
            return  # the window is already in the past; nothing can fire
        # Events left in the budget; counting down from -1 never reaches zero.
        budget = -1 if max_events is None else max_events
        # Aliased for the hot loop; the list is only ever mutated in place
        # (see _compact), so the alias cannot go stale.
        heap = self._heap
        horizon = float("inf") if until is None else until
        try:
            while heap and budget:
                when, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    self._tombstones -= 1
                    continue
                if when > horizon:
                    break
                heappop(heap)
                self._now = when
                self._events_processed += 1
                event.fired = True
                event.fn(*event.args)
                budget -= 1
            # The window elapsed unless the event budget ended the run.
            if until is not None and budget and self._now < until:
                self._now = until
        finally:
            self.metrics.gauge("engine.virtual_s").set(self._now)
            self.metrics.gauge("engine.events_processed").set(self._events_processed)
            # Live events only: cancelled timers linger as tombstones
            # until lazily popped or batch-compacted.
            self.metrics.gauge("engine.pending_events").set(self.pending_live)

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` virtual seconds from the current time."""
        self.run(until=self._now + duration)

    # -------------------------------------------------------------- internal

    def _note_cancel(self) -> None:
        """Record a new tombstone; compact the heap when they dominate."""
        self._tombstones += 1
        tombstones = self._tombstones
        if tombstones >= _COMPACT_MIN and tombstones * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Batch-sweep cancelled tombstones out of the heap in one pass.

        Mutates the list in place: :meth:`run` holds a local alias to it
        across event execution, and cancellation (hence compaction) can
        happen inside an event callback.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapify(heap)
        self._tombstones = 0
