"""Unit tests for the discrete-event engine."""

import gc
import weakref

import pytest

from repro.sim.engine import Engine


class TestScheduling:
    def test_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_event_fires_at_scheduled_time(self):
        engine = Engine()
        fired = []
        engine.schedule(5.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [5.0]

    def test_events_fire_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(3.0, order.append, "c")
        engine.schedule(1.0, order.append, "a")
        engine.schedule(2.0, order.append, "b")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        engine = Engine()
        order = []
        for tag in "abcde":
            engine.schedule(1.0, order.append, tag)
        engine.run()
        assert order == list("abcde")

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(1.0, lambda: None)

    def test_args_passed_through(self):
        engine = Engine()
        seen = []
        engine.schedule(0.0, lambda a, b: seen.append((a, b)), 1, 2)
        engine.run()
        assert seen == [(1, 2)]

    def test_nested_scheduling(self):
        engine = Engine()
        times = []

        def outer():
            times.append(engine.now)
            engine.schedule(2.0, inner)

        def inner():
            times.append(engine.now)

        engine.schedule(1.0, outer)
        engine.run()
        assert times == [1.0, 3.0]

    def test_zero_delay_runs_at_current_time(self):
        engine = Engine()
        seen = []
        engine.schedule(1.0, lambda: engine.schedule(0.0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [1.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, fired.append, "x")
        handle.cancel()
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_cancel_after_fire_is_noop(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, fired.append, "x")
        engine.run()
        handle.cancel()
        assert fired == ["x"]

    def test_handle_exposes_time(self):
        engine = Engine()
        handle = engine.schedule(2.5, lambda: None)
        assert handle.time == 2.5


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(10.0, fired.append, "b")
        engine.run(until=5.0)
        assert fired == ["a"]
        assert engine.now == 5.0

    def test_run_until_advances_clock_when_idle(self):
        engine = Engine()
        engine.run(until=42.0)
        assert engine.now == 42.0

    def test_run_for_is_relative(self):
        engine = Engine()
        engine.run(until=10.0)
        engine.run_for(5.0)
        assert engine.now == 15.0

    def test_remaining_events_fire_on_next_run(self):
        engine = Engine()
        fired = []
        engine.schedule(10.0, fired.append, "b")
        engine.run(until=5.0)
        engine.run()
        assert fired == ["b"]

    def test_max_events_bounds_execution(self):
        engine = Engine()
        fired = []
        for i in range(10):
            engine.schedule(float(i), fired.append, i)
        engine.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_returns_false_when_idle(self):
        assert Engine().step() is False

    def test_events_processed_counter(self):
        engine = Engine()
        for i in range(4):
            engine.schedule(float(i), lambda: None)
        engine.run()
        assert engine.events_processed == 4

    def test_pending_counts_queued(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        assert engine.pending == 2


class TestOrderingSemantics:
    """Scheduling-order guarantees the heap/FIFO rewrite must preserve.

    The engine routes zero-delay events through an O(1) FIFO run queue
    and everything else through the heap; these tests pin the global
    (time, scheduling-order) contract across both paths.
    """

    def test_zero_delay_interleaves_with_same_time_heap_events(self):
        # Schedule two future events for t=1.0 (heap path).  The first,
        # while running, schedules a zero-delay event (FIFO path).  The
        # FIFO event was scheduled *after* the second heap event, so it
        # must fire after it.
        engine = Engine()
        order = []
        engine.schedule(1.0, lambda: (order.append("h1"), engine.schedule(0.0, order.append, "f")))
        engine.schedule(1.0, order.append, "h2")
        engine.run()
        assert order == ["h1", "h2", "f"]

    def test_zero_delay_chain_runs_before_time_advances(self):
        engine = Engine()
        order = []

        def chain(depth):
            order.append((engine.now, depth))
            if depth:
                engine.schedule(0.0, chain, depth - 1)

        engine.schedule(1.0, chain, 3)
        engine.schedule(1.5, order.append, "later")
        engine.run()
        assert order == [(1.0, 3), (1.0, 2), (1.0, 1), (1.0, 0), "later"]

    def test_schedule_at_current_time_is_fifo(self):
        engine = Engine()
        engine.run(until=5.0)
        order = []
        engine.schedule_at(5.0, order.append, "a")
        engine.schedule(0.0, order.append, "b")
        engine.schedule_at(5.0, order.append, "c")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_mixed_paths_global_fifo_per_instant(self):
        engine = Engine()
        order = []
        for tag in ("a", "b"):
            engine.schedule(2.0, order.append, tag)

        def at_two():
            order.append("c")
            engine.schedule(0.0, order.append, "d")

        engine.schedule(2.0, at_two)
        engine.schedule(2.0, order.append, "e")
        engine.run()
        # a, b fire first (earliest seqs), then c which enqueues d via the
        # FIFO; e (scheduled before d) still precedes d.
        assert order == ["a", "b", "c", "e", "d"]

    def test_post_matches_schedule_ordering(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, order.append, "s1")
        engine.post(1.0, order.append, "p1")
        engine.schedule(1.0, order.append, "s2")
        engine.post(0.0, order.append, "p0")
        engine.run()
        assert order == ["p0", "s1", "p1", "s2"]

    def test_post_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Engine().post(-0.5, lambda: None)

    def test_step_and_run_agree_on_ordering(self):
        # run() inlines the FIFO-vs-heap tie-break that step() gets from
        # _next_live/_pop; this pins the two code paths to identical
        # ordering across mixed zero-delay, same-time, and cancelled
        # events.
        def drive(via_run):
            engine = Engine()
            order = []

            def spawn(tag, extra):
                order.append((engine.now, tag))
                if extra:
                    engine.schedule(0.0, order.append, (engine.now, f"{tag}+0"))
                    engine.schedule(0.5, order.append, (engine.now + 0.5, f"{tag}+.5"))

            for i, tag in enumerate(["a", "b", "c"]):
                engine.schedule(1.0 + (i % 2), spawn, tag, i != 1)
            engine.schedule(1.0, order.append, (1.0, "x"))
            doomed = engine.schedule(1.0, order.append, (1.0, "doomed"))
            doomed.cancel()
            if via_run:
                engine.run()
            else:
                while engine.step():
                    pass
            return order

        assert drive(True) == drive(False)


class TestTombstones:
    def test_cancelled_zero_delay_event_does_not_fire(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(0.0, fired.append, "x")
        handle.cancel()
        engine.run()
        assert fired == []
        assert engine.pending == 0

    def test_pending_live_excludes_cancelled(self):
        engine = Engine()
        handles = [engine.schedule(1.0, lambda: None) for _ in range(4)]
        handles[0].cancel()
        handles[2].cancel()
        assert engine.pending == 4
        assert engine.pending_live == 2

    def test_mass_cancellation_compacts_heap(self):
        # More cancellations than _COMPACT_MIN triggers the batch sweep;
        # remaining events must still fire in order.
        engine = Engine()
        fired = []
        keep = []
        for i in range(1200):
            handle = engine.schedule(1.0 + i, fired.append, i)
            if i % 3:
                handle.cancel()
            else:
                keep.append(i)
        assert engine.pending < 1200  # compaction ran
        assert engine.pending_live == len(keep)
        engine.run()
        assert fired == keep

    def test_mass_cancellation_of_zero_delay_events_compacts_fifo(self):
        # Regression test: FIFO tombstones must be swept by compaction
        # too, or the trigger stays armed and every later cancel pays
        # another O(n) sweep.
        engine = Engine()
        fired = []
        for i in range(1200):
            handle = engine.schedule(0.0, fired.append, i)
            if i != 600:
                handle.cancel()
        assert engine.pending < 1200  # compaction swept the FIFO
        assert engine.pending_live == 1
        engine.run()
        assert fired == [600]

    def test_cancel_during_execution(self):
        engine = Engine()
        fired = []
        later = engine.schedule(2.0, fired.append, "late")
        engine.schedule(1.0, later.cancel)
        engine.run()
        assert fired == []

    def test_cancel_after_fire_keeps_counts_consistent(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.run()
        handle.cancel()
        handle.cancel()
        assert engine.pending == 0
        assert engine.pending_live == 0

    def test_a_tombstone_pins_neither_callback_owner_nor_arguments(self):
        """A consensus instance cancels its own far-off fallback timer when
        a view replaces it; the queued tombstone must not keep it alive."""

        class Owner:
            def fire(self, payload):
                raise AssertionError("cancelled")

        engine = Engine()
        owner, payload = Owner(), Owner()
        owner.timer = engine.schedule(300.0, owner.fire, payload)
        refs = weakref.ref(owner), weakref.ref(payload)
        owner.timer.cancel()
        del owner, payload
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert engine.pending == 1  # still queued, below the compaction floor
        engine.run()
        assert engine.pending == 0 and engine.events_processed == 0


class TestRunUntilClock:
    def test_run_until_with_past_deadline_is_noop(self):
        engine = Engine()
        engine.run(until=10.0)
        fired = []
        engine.schedule(0.0, fired.append, "x")
        engine.run(until=5.0)
        assert fired == []
        assert engine.now == 10.0
        engine.run()
        assert fired == ["x"]

    def test_run_until_exact_event_time_fires_event(self):
        engine = Engine()
        fired = []
        engine.schedule(5.0, fired.append, "x")
        engine.run(until=5.0)
        assert fired == ["x"]
        assert engine.now == 5.0
