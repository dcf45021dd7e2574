"""Unit tests for the discrete-event kernel.

``TestEventQueue`` checks the heapq oracle the property tests compare the
kernel against.  The other classes pin the :class:`repro.sim.kernel.Simulator`
API; each runs on the bucket-queue kernel and on the heapq oracle
(:class:`tests.reference_kernel.ReferenceSimulator`), so the oracle the
order property and whole-run differential tests trust meets the same
hand-written contract as the kernel it checks.
"""

import pytest

from repro.sim.kernel import SimulationError, Simulator
from tests.reference_kernel import EventQueue, ReferenceSimulator

KERNELS = {"bucket": Simulator, "heapq": ReferenceSimulator}


@pytest.fixture(params=sorted(KERNELS))
def sim(request):
    return KERNELS[request.param]()


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        order = []
        queue.push(30, lambda: order.append("c"))
        queue.push(10, lambda: order.append("a"))
        queue.push(20, lambda: order.append("b"))
        while queue:
            queue.pop().callback()
        assert order == ["a", "b", "c"]

    def test_fifo_for_equal_times(self):
        queue = EventQueue()
        order = []
        for label in "abcde":
            queue.push(5, lambda x=label: order.append(x))
        while queue:
            queue.pop().callback()
        assert order == list("abcde")

    def test_priority_breaks_ties(self):
        queue = EventQueue()
        order = []
        queue.push(5, lambda: order.append("low"), priority=1)
        queue.push(5, lambda: order.append("high"), priority=0)
        while queue:
            queue.pop().callback()
        assert order == ["high", "low"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        ran = []
        event = queue.push(1, lambda: ran.append("cancelled"))
        queue.push(2, lambda: ran.append("kept"))
        event.cancel()
        results = []
        while queue:
            results.append(queue.pop())
        assert ran == []
        assert len(results) == 1

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1, lambda: None)
        queue.push(7, lambda: None)
        first.cancel()
        assert queue.peek_time() == 7

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_len_tracks_live_events(self):
        queue = EventQueue()
        a = queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        assert len(queue) == 2
        # The heap entry is discarded lazily, but the live count drops the
        # moment the event is cancelled.
        a.cancel()
        assert len(queue) == 1
        event = queue.pop()
        assert event.time == 2
        assert len(queue) == 0

    def test_cancel_decrements_immediately(self):
        queue = EventQueue()
        events = [queue.push(t, lambda: None) for t in (1, 2, 3)]
        events[1].cancel()
        assert len(queue) == 2
        assert bool(queue) is True
        events[0].cancel()
        events[2].cancel()
        assert len(queue) == 0
        assert bool(queue) is False

    def test_cancel_twice_counts_once(self):
        queue = EventQueue()
        event = queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_is_noop(self):
        queue = EventQueue()
        event = queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        assert queue.pop() is event
        event.cancel()
        assert len(queue) == 1
        assert queue.pop().time == 2

    def test_cancel_after_clear_is_noop(self):
        queue = EventQueue()
        event = queue.push(1, lambda: None)
        queue.clear()
        event.cancel()
        assert len(queue) == 0

    def test_peek_time_keeps_count_truthful(self):
        queue = EventQueue()
        first = queue.push(1, lambda: None)
        queue.push(7, lambda: None)
        first.cancel()
        assert len(queue) == 1
        assert queue.peek_time() == 7
        assert len(queue) == 1


class TestSimulator:
    def test_time_advances_with_events(self, sim):
        times = []
        sim.schedule(10, lambda: times.append(sim.now))
        sim.schedule(25, lambda: times.append(sim.now))
        sim.run()
        assert times == [10, 25]
        assert sim.now == 25

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(10, lambda: fired.append(10))
        sim.schedule(100, lambda: fired.append(100))
        sim.run(until=50)
        assert fired == [10]
        assert sim.now == 50
        assert sim.pending_events == 1

    def test_max_events_bounds_work(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(i + 1, lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert len(fired) == 3

    def test_nested_scheduling(self, sim):
        fired = []

        def first():
            fired.append("first")
            sim.schedule(5, lambda: fired.append("second"))

        sim.schedule(1, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 6

    def test_stop_requests_halt(self, sim):
        fired = []
        sim.schedule(1, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        assert sim.pending_events == 1

    def test_step_processes_one_event(self, sim):
        fired = []
        sim.schedule(3, lambda: fired.append("x"))
        assert sim.step() is True
        assert fired == ["x"]
        assert sim.step() is False

    def test_drain_until_quiescent_raises_on_runaway(self, sim):
        def reschedule():
            sim.schedule(1, reschedule)

        sim.schedule(1, reschedule)
        with pytest.raises(SimulationError):
            sim.drain_until_quiescent(max_events=100)

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_reset_clears_state(self, sim):
        sim.schedule(5, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0
        assert sim.pending_events == 0

    def test_iterate_events_yields_times(self, sim):
        sim.schedule(2, lambda: None)
        sim.schedule(4, lambda: None)
        assert list(sim.iterate_events()) == [2, 4]

    # ------------------------------------------------- until clock semantics
    def test_run_until_advances_clock_when_queue_drains(self, sim):
        sim.schedule(10, lambda: None)
        sim.run(until=50)
        assert sim.now == 50

    def test_run_until_advances_clock_on_empty_queue(self, sim):
        sim.run(until=25)
        assert sim.now == 25

    def test_run_until_never_moves_clock_backwards(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        assert sim.now == 10
        sim.run(until=5)
        assert sim.now == 10

    def test_run_until_not_advanced_on_max_events_exit(self, sim):
        for t in (1, 2, 3):
            sim.schedule(t, lambda: None)
        sim.run(until=100, max_events=2)
        assert sim.now == 2

    def test_run_until_not_advanced_on_stop(self, sim):
        sim.schedule(1, sim.stop)
        sim.schedule(2, lambda: None)
        sim.run(until=100)
        assert sim.now == 1

    def test_run_until_not_advanced_when_stop_drains_queue(self, sim):
        sim.schedule(1, sim.stop)
        sim.run(until=100)
        assert sim.now == 1

    def test_cancelled_events_do_not_stall_run(self, sim):
        event = sim.schedule(10, lambda: None)
        event.cancel()
        assert sim.pending_events == 0
        sim.run(until=20)
        assert sim.now == 20

    def test_iterate_events_until_advances_clock(self, sim):
        sim.schedule(2, lambda: None)
        sim.schedule(40, lambda: None)
        assert list(sim.iterate_events(until=30)) == [2]
        assert sim.now == 30
        assert sim.pending_events == 1

    def test_iterate_events_until_advances_clock_when_drained(self, sim):
        sim.schedule(2, lambda: None)
        assert list(sim.iterate_events(until=9)) == [2]
        assert sim.now == 9


class TestArgsAndCancellation:
    def test_arg_payload_dispatch(self, sim):
        seen = []
        sim.schedule(3, seen.append, arg="payload")
        sim.schedule(4, lambda: seen.append("plain"))
        sim.run()
        assert seen == ["payload", "plain"]

    def test_cancel_then_reschedule_at_same_tick(self, sim):
        """A cancelled event must not fire even when a replacement is
        scheduled for the identical tick (and priority)."""
        fired = []
        victim = sim.schedule(7, lambda: fired.append("victim"))
        victim.cancel()
        sim.schedule(7, lambda: fired.append("replacement"))
        sim.run()
        assert fired == ["replacement"]
        assert sim.now == 7

    def test_cancel_reschedule_same_tick_mid_run(self, sim):
        """Cancel-and-replace issued from an earlier event at the same tick
        as the victim."""
        fired = []
        victim = sim.schedule(10, lambda: fired.append("victim"))

        def replace() -> None:
            victim.cancel()
            sim.schedule(0, lambda: fired.append("replacement"))

        sim.schedule(10, replace, priority=-1)
        sim.run()
        assert fired == ["replacement"]

    def test_cancel_of_dispatched_handle_is_noop(self, sim):
        """A handle whose event already ran must not touch later events."""
        stale = sim.schedule(1, lambda: None)
        sim.run()
        fired = []
        sim.schedule(2, lambda: fired.append("fresh"))
        stale.cancel()
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["fresh"]

    def test_cancel_twice_counts_once(self, sim):
        event = sim.schedule(3, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled
        assert sim.pending_events == 0

    def test_cancel_later_entry_of_the_bucket_being_drained(self, sim):
        fired = []
        handles = []

        def first() -> None:
            fired.append("first")
            handles[0].cancel()

        sim.schedule(5, first)
        handles.append(sim.schedule(5, lambda: fired.append("victim")))
        sim.schedule(5, lambda: fired.append("last"))
        assert sim.run() == 2
        assert fired == ["first", "last"]
        assert sim.events_processed == 2

    def test_self_cancel_inside_callback_is_noop(self, sim):
        handles = []
        fired = []

        def body() -> None:
            handles[0].cancel()
            fired.append(sim.pending_events)

        handles.append(sim.schedule(1, body))
        sim.schedule(1, lambda: None)
        sim.run()
        assert fired == [1]
        assert sim.events_processed == 2

    def test_order_across_until_boundaries_matches_reference(self):
        logs = {}
        for name, target in (("kernel", Simulator()),
                             ("reference", ReferenceSimulator())):
            fired = []
            for delay in (5, 10, 15, 20):
                target.schedule(
                    delay, lambda d=delay, f=fired, t=target: f.append((d, t.now))
                )
            target.run(until=10)
            assert target.now == 10
            target.schedule(2, lambda f=fired, t=target: f.append(("late", t.now)))
            target.run()
            logs[name] = fired
        assert logs["kernel"] == logs["reference"]


class TestBatchedScheduling:
    def test_batched_and_handle_entries_share_fifo(self, sim):
        log = []
        sim.schedule_batched(5, log.append, "pair-1")
        sim.schedule(5, lambda: log.append("event"))
        sim.schedule_batched(5, log.append, "pair-2")
        sim.run()
        assert log == ["pair-1", "event", "pair-2"]

    def test_noarg_pair_dispatches_without_payload(self, sim):
        log = []
        sim.schedule_batched(3, lambda: log.append("called"))
        sim.run()
        assert log == ["called"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_batched(-1, lambda: None)

    def test_schedule_batched_at_past_rejected(self, sim):
        sim.schedule(5, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_batched_at(2, lambda: None)

    def test_schedule_batched_at_orders_with_relative(self, sim):
        log = []
        sim.schedule_batched_at(7, log.append, "absolute")
        sim.schedule_batched(7, log.append, "relative")
        sim.schedule_batched_at(6, log.append, "earlier")
        sim.run()
        assert log == ["earlier", "absolute", "relative"]

    def test_nonzero_priority_orders_after_priority_zero(self, sim):
        log = []
        sim.schedule_batched(4, log.append, "fanout", 1)
        sim.schedule_batched(4, log.append, "lane", 0)
        sim.run()
        assert log == ["lane", "fanout"]
        assert sim.events_processed == 2

    def test_pending_events_counts_batched_entries(self, sim):
        sim.schedule_batched(1, lambda: None)
        sim.schedule_batched(1, lambda: None)
        sim.schedule(1, lambda: None)
        assert sim.pending_events == 3
        sim.run()
        assert sim.pending_events == 0

    def test_pending_events_exact_inside_callbacks(self, sim):
        seen = []
        for _ in range(3):
            sim.schedule_batched(
                2, lambda: seen.append((sim.pending_events, sim.events_processed))
            )
        sim.run()
        assert seen == [(2, 1), (1, 2), (0, 3)]

    def test_cancelled_event_in_bucket_is_skipped_and_uncounted(self, sim):
        log = []
        sim.schedule_batched(2, log.append, "before")
        event = sim.schedule(2, lambda: log.append("cancelled"))
        sim.schedule_batched(2, log.append, "after")
        event.cancel()
        assert sim.pending_events == 2
        processed = sim.run()
        assert log == ["before", "after"]
        assert processed == 2
        assert sim.events_processed == 2

    def test_stop_mid_bucket_leaves_rest_queued(self, sim):
        log = []
        sim.schedule_batched(1, lambda _: (log.append("first"), sim.stop()), 0)
        sim.schedule_batched(1, log.append, "second")
        sim.run()
        assert log == ["first"]
        assert sim.pending_events == 1
        sim.run()
        assert log == ["first", "second"]

    def test_step_dispatches_one_entry_of_a_bucket(self, sim):
        log = []
        sim.schedule_batched(1, log.append, "a")
        sim.schedule_batched(1, log.append, "b")
        assert sim.step() is True
        assert log == ["a"]
        assert sim.events_processed == 1
        assert sim.step() is True
        assert sim.step() is False
        assert log == ["a", "b"]

    def test_iterate_events_yields_once_per_entry(self, sim):
        log = []
        sim.schedule_batched(2, log.append, "x")
        sim.schedule_batched(2, log.append, "y")
        sim.schedule(5, lambda: log.append("z"))
        assert list(sim.iterate_events()) == [2, 2, 5]
        assert log == ["x", "y", "z"]
        assert sim.events_processed == 3

    def test_same_key_work_runs_in_the_same_drain(self, sim):
        log = []

        def first(arg=None):
            log.append("first")
            sim.schedule_batched(0, log.append, "nested")

        sim.schedule_batched(3, first, None)
        sim.run()
        assert log == ["first", "nested"]
        assert sim.now == 3
        assert sim.events_processed == 2

    def test_reset_discards_pending_entries(self, sim):
        sim.schedule_batched(4, lambda: None)
        sim.reset()
        assert sim.pending_events == 0
        sim.run()
        assert sim.events_processed == 0

    def test_lower_priority_scheduled_mid_drain_runs_first(self, sim):
        """A callback scheduling a lower priority at the current tick runs
        it before the rest of the tick's bucket."""
        log = []

        def first(arg=None):
            log.append("a")
            sim.schedule(0, lambda: log.append("neg"), priority=-1)

        sim.schedule_batched(5, first, None)
        sim.schedule_batched(5, log.append, "b")
        sim.run()
        assert log == ["a", "neg", "b"]

    def test_raising_callback_keeps_counts_truthful(self, sim):
        """An exception mid-bucket consumes the raising entry only."""
        log = []

        def boom(arg=None):
            raise RuntimeError("mid-bucket failure")

        sim.schedule_batched(5, log.append, "before")
        sim.schedule_batched(5, boom, None)
        sim.schedule_batched(5, log.append, "after")
        with pytest.raises(RuntimeError):
            sim.run()
        assert log == ["before"]
        assert sim.pending_events == 1
        sim.run()
        assert log == ["before", "after"]
        assert sim.pending_events == 0

    def test_raising_callback_in_step_keeps_counts(self, sim):
        log = []

        def boom(arg=None):
            raise RuntimeError("mid-bucket failure")

        sim.schedule_batched(5, boom, None)
        sim.schedule_batched(5, log.append, "after")
        with pytest.raises(RuntimeError):
            sim.step()
        assert sim.pending_events == 1
        assert sim.step() is True
        assert log == ["after"]
        assert sim.pending_events == 0
