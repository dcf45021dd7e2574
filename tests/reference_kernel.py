"""Reference event kernel: the oracle for ``repro.sim.kernel``.

A binary heap of events ordered by ``(time, priority, seq)`` -- obviously
correct, one entry per event, nothing batched or bucketed.  It exposes the
public API of :class:`repro.sim.kernel.Simulator`, so the order property
tests can run the same random program on both kernels and the whole-run
differential tests can monkeypatch it into ``repro.system.builder``.

Counting rules, shared with the production kernel: an entry counts as
processed when it is dispatched (before its callback runs), and
``pending_events`` counts entries neither dispatched nor cancelled, at
any moment, including inside a callback.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, List, Optional

from repro.sim.kernel import SimulationError


class Event:
    """A single scheduled callback, ordered by ``(time, priority, seq)``."""

    __slots__ = (
        "time",
        "priority",
        "seq",
        "callback",
        "arg",
        "label",
        "cancelled",
        "_queue",
    )

    def __init__(self, time, priority, seq, callback, label="", arg=None, queue=None):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.arg = arg
        self.label = label
        self.cancelled = False
        self._queue = queue

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def cancel(self) -> None:
        """Cancel; the heap entry is dropped lazily, the live count now."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._live -= 1
            self._queue = None


class EventQueue:
    """A min-heap of :class:`Event` objects; ``len()`` counts live ones."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: int,
        callback: Callable[..., None],
        priority: int = 0,
        label: str = "",
        arg: Any = None,
    ) -> Event:
        event = Event(time, priority, self._seq, callback, label, arg, self)
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, event)
        return event

    def peek_time(self) -> Optional[int]:
        """Time of the earliest live event, or ``None``."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def pop(self) -> Event:
        """Remove and return the earliest live event."""
        if self.peek_time() is None:
            raise SimulationError("pop from an empty event queue")
        event = heapq.heappop(self._heap)
        self._live -= 1
        event._queue = None
        return event

    def clear(self) -> None:
        for event in self._heap:
            event._queue = None
        self._heap.clear()
        self._live = 0


class ReferenceSimulator:
    """The :class:`repro.sim.kernel.Simulator` API over :class:`EventQueue`."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0
        self._events_processed = 0
        self._stop_requested = False

    @property
    def now(self) -> int:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def schedule(self, delay, callback, *, priority=0, label="", arg=None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._queue.push(self._now + delay, callback, priority, label, arg)

    def schedule_at(self, time, callback, *, priority=0, label="", arg=None):
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time}")
        return self._queue.push(time, callback, priority, label, arg)

    def schedule_batched(self, delay, callback, arg=None, priority=0) -> None:
        self.schedule(delay, callback, priority=priority, arg=arg)

    def schedule_batched_at(self, time, callback, arg=None, priority=0) -> None:
        self.schedule_at(time, callback, priority=priority, arg=arg)

    def _dispatch_next(self, until: Optional[int]) -> bool:
        """Dispatch the earliest live event if it is due; False otherwise."""
        time = self._queue.peek_time()
        if time is None or (until is not None and time > until):
            return False
        event = self._queue.pop()
        self._now = event.time
        self._events_processed += 1
        if event.arg is None:
            event.callback()
        else:
            event.callback(event.arg)
        return True

    def run(
        self, *, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> int:
        processed = 0
        self._stop_requested = False
        while max_events is None or processed < max_events:
            if not self._dispatch_next(until):
                break
            processed += 1
            if self._stop_requested:
                return processed
        if until is not None and until > self._now:
            next_time = self._queue.peek_time()
            if next_time is None or next_time > until:
                self._now = until
        return processed

    def step(self) -> bool:
        return self._dispatch_next(None)

    def stop(self) -> None:
        self._stop_requested = True

    def drain_until_quiescent(self, *, max_events: int = 50_000_000) -> int:
        processed = self.run(max_events=max_events)
        if self._queue:
            raise SimulationError("simulation did not quiesce")
        return processed

    def iterate_events(self, *, until: Optional[int] = None) -> Iterator[int]:
        while self._dispatch_next(until):
            yield self._now
        if until is not None and until > self._now:
            self._now = until

    def reset(self) -> None:
        self._queue.clear()
        self._now = 0
        self._events_processed = 0
