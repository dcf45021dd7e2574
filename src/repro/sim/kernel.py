"""Discrete-event simulation kernel.

Times are integer nanoseconds throughout the library.  Using integers keeps
event ordering exact and makes runs reproducible bit-for-bit, which the
perturbation methodology of the paper (Section 4.3) relies on: perturbed
replicas differ *only* in the injected random delays.

Dispatch order is ``(time, priority, FIFO)``: earlier times first, lower
priorities first within a tick, and scheduling order within one
``(time, priority)`` pair.  Timestamp snooping processes address
transactions in one logical total order with ties broken by source; the
ordered networks model that tie-break as the event priority (the source
id), so every result of the reproduction depends on this order.

One queue implements it.  Each ``(time, priority)`` pair owns a *bucket*:
a plain list of ``(callback, arg)`` entries, appended on schedule and
drained front to back.  A heap holds the distinct bucket keys, packed into
one int, ``(time << 20) + priority + 2**19``, so priorities must lie in
``[-2**19, 2**19)`` (production uses 0, 1 and source ids).  The drain is
a plain ``for`` loop over the bucket, so work that a callback schedules at
the same key runs in the same drain, in order.  A callback that schedules
at a *lower* key of the same tick (a lower priority) halts the drain after
it returns; the rest of the bucket stays queued behind the new key.

``schedule`` / ``schedule_at`` return an :class:`Event` handle that can
cancel the entry until it is dispatched; ``schedule_batched`` /
``schedule_batched_at`` are the handle-free variants the hot producers
use.  Both append the same kind of entry, so they share one FIFO order.
The dispatcher calls ``callback(arg)``, or ``callback()`` when ``arg`` is
``None``, so hot paths pass a pre-bound method plus its payload instead of
a per-event closure.
"""
# repro-lint: hot

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterator, Optional

#: Bits of a bucket key below the time field, and the bias that maps the
#: allowed priorities ``[-2**19, 2**19)`` onto ``[0, 2**20)``.
_PRIORITY_BITS = 20
_PRIORITY_BIAS = 1 << (_PRIORITY_BITS - 1)
_PRIORITY_MASK = (1 << _PRIORITY_BITS) - 1

#: Budget meaning "no bound" (larger than any run could dispatch).
_UNBOUNDED = 1 << 62


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (scheduling in the past, etc.)."""


def _priority_error(priority: int) -> SimulationError:
    return SimulationError(
        f"priority {priority} outside [{-_PRIORITY_BIAS}, {_PRIORITY_BIAS})"
    )


class Event:
    """Handle of one entry scheduled with :meth:`Simulator.schedule`.

    :meth:`cancel` removes the entry if it has not been dispatched yet;
    afterwards it is a no-op.
    """

    __slots__ = ("_sim", "_key", "_entry", "label", "cancelled")

    def __init__(self, sim: "Simulator", key: int, entry: tuple, label: str) -> None:
        self._sim = sim
        self._key = key
        self._entry = entry
        self.label = label
        self.cancelled = False

    @property
    def time(self) -> int:
        return self._key >> _PRIORITY_BITS

    @property
    def priority(self) -> int:
        return (self._key & _PRIORITY_MASK) - _PRIORITY_BIAS

    def cancel(self) -> None:
        """Drop the entry from its bucket unless it was already dispatched."""
        self.cancelled = True
        sim = self._sim
        if sim is None:
            return
        self._sim = None
        bucket = sim._buckets.get(self._key)
        if bucket is None:
            return  # dispatched (its bucket is gone) or reset
        # Entries before the drain position of the bucket being drained
        # have been dispatched; deleting at or after it is safe for the
        # running list iterator.
        start = sim._drained() if sim._current == self._key else 0
        entry = self._entry
        for index in range(start, len(bucket)):
            if bucket[index] is entry:
                del bucket[index]
                return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} prio={self.priority} {self.label!r}{state}>"


class Simulator:
    """The event-driven simulation engine: the clock plus one bucket queue.

    Model components call :meth:`schedule` / :meth:`schedule_at` for
    cancellable work and :meth:`schedule_batched` /
    :meth:`schedule_batched_at` for fire-and-forget work; :meth:`run`
    dispatches entries in ``(time, priority, FIFO)`` order until the queue
    empties, a time limit is hit, the event budget is spent, or
    :meth:`stop` is called.
    """

    def __init__(self) -> None:
        #: Bucket key -> FIFO list of (callback, arg).  A key is in
        #: ``_keys`` exactly as long as it is in ``_buckets``; buckets left
        #: empty by a cancel or an interrupted drain are dropped when they
        #: reach the top of the heap.
        self._buckets: dict = {}
        self._keys: list = []
        self._now = 0
        #: Entries dispatched before the bucket being drained.
        self._events_processed = 0
        #: Key of the bucket being drained (stale between drains) and its
        #: list iterator (None between drains).
        self._current = -1
        self._drain_it: Optional[Iterator] = None
        #: Set by stop() and by a push below the drained key: the drain
        #: loop checks it after every entry.
        self._halt = False
        self._stop_requested = False

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    def _drained(self) -> int:
        """Entries of the bucket being drained that were dispatched."""
        it = self._drain_it
        if it is None:
            return 0
        return len(self._buckets[self._current]) - it.__length_hint__()

    @property
    def events_processed(self) -> int:
        """Entries dispatched since construction or :meth:`reset`."""
        return self._events_processed + self._drained()

    @property
    def pending_events(self) -> int:
        """Entries scheduled and neither dispatched nor cancelled."""
        return sum(map(len, self._buckets.values())) - self._drained()

    # -------------------------------------------------------------- schedule
    def _push(self, time: int, callback, priority: int, label: str, arg) -> Event:
        if priority and not -_PRIORITY_BIAS <= priority < _PRIORITY_BIAS:
            raise _priority_error(priority)
        key = (time << _PRIORITY_BITS) + priority + _PRIORITY_BIAS
        entry = (callback, arg)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [entry]
            heappush(self._keys, key)
            if key < self._current:
                self._halt = True
        else:
            bucket.append(entry)
        return Event(self, key, entry, label)

    def schedule(
        self,
        delay: int,
        callback: Callable[..., None],
        *,
        priority: int = 0,
        label: str = "",
        arg: Any = None,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` ns from now.

        The dispatcher calls ``callback(arg)`` when ``arg`` is not ``None``
        and ``callback()`` otherwise.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._push(self._now + delay, callback, priority, label, arg)

    def schedule_at(
        self,
        time: int,
        callback: Callable[..., None],
        *,
        priority: int = 0,
        label: str = "",
        arg: Any = None,
    ) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        return self._push(time, callback, priority, label, arg)

    def schedule_batched(
        self,
        delay: int,
        callback: Callable[..., None],
        arg: Any = None,
        priority: int = 0,
    ) -> None:
        """Schedule fire-and-forget work (no handle; the per-message path).

        Orders exactly like an equivalent :meth:`schedule` call.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if priority and not -_PRIORITY_BIAS <= priority < _PRIORITY_BIAS:
            raise _priority_error(priority)
        key = ((self._now + delay) << _PRIORITY_BITS) + priority + _PRIORITY_BIAS
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [(callback, arg)]
            heappush(self._keys, key)
            if key < self._current:
                self._halt = True
        else:
            bucket.append((callback, arg))

    def schedule_batched_at(
        self,
        time: int,
        callback: Callable[..., None],
        arg: Any = None,
        priority: int = 0,
    ) -> None:
        """Absolute-time variant of :meth:`schedule_batched`."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        if priority and not -_PRIORITY_BIAS <= priority < _PRIORITY_BIAS:
            raise _priority_error(priority)
        key = (time << _PRIORITY_BITS) + priority + _PRIORITY_BIAS
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [(callback, arg)]
            heappush(self._keys, key)
            if key < self._current:
                self._halt = True
        else:
            bucket.append((callback, arg))

    # ------------------------------------------------------------------- run
    def _drain(self, until: Optional[int], budget: int) -> int:
        """Dispatch up to ``budget`` entries due at or before ``until``.

        Stops early on :meth:`stop`; returns the number dispatched.
        """
        buckets = self._buckets
        keys = self._keys
        limit = _UNBOUNDED if until is None else (until + 1) << _PRIORITY_BITS
        processed = 0
        self._halt = False
        self._stop_requested = False
        while keys and processed < budget:
            key = keys[0]
            if key >= limit:
                break
            bucket = buckets[key]
            if not bucket:
                heappop(keys)
                del buckets[key]
                continue
            self._now = key >> _PRIORITY_BITS
            self._current = key
            it = self._drain_it = iter(bucket)
            left = budget - processed
            try:
                for callback, arg in it:
                    if arg is None:
                        callback()
                    else:
                        callback(arg)
                    left -= 1
                    if not left or self._halt:
                        break
            finally:
                # Settle even when a callback raised: the raising entry
                # counts as dispatched, the rest stays queued.
                self._drain_it = None
                done = len(bucket) - it.__length_hint__()
                processed += done
                self._events_processed += done
                if done < len(bucket):
                    del bucket[:done]
                elif keys[0] == key:
                    heappop(keys)
                    del buckets[key]
                else:
                    bucket.clear()
            if self._halt:
                if self._stop_requested:
                    break
                self._halt = False
        return processed

    def _has_due(self, until: int) -> bool:
        """Whether an entry at or before ``until`` is still queued."""
        buckets = self._buckets
        keys = self._keys
        while keys and not buckets[keys[0]]:
            del buckets[heappop(keys)]
        return bool(keys) and keys[0] >> _PRIORITY_BITS <= until

    def run(
        self,
        *,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Dispatch queued entries; returns how many ran in this call.

        ``until`` is an inclusive simulated-time bound; ``max_events``
        bounds the entries this call dispatches.

        Clock semantics: when ``until`` is given and the call covers the full
        interval -- every entry at or before ``until`` ran, whether the queue
        drained first or later entries remain -- the clock lands exactly on
        ``until``.  Early exits (:meth:`stop` or the ``max_events`` budget)
        leave the clock at the last dispatched entry, since the interval was
        not fully simulated.  The clock never moves backwards.
        """
        budget = _UNBOUNDED if max_events is None else max_events
        processed = self._drain(until, budget)
        if (
            until is not None
            and until > self._now
            and not self._stop_requested
            and (processed < budget or not self._has_due(until))
        ):
            self._now = until
        return processed

    def step(self) -> bool:
        """Dispatch a single entry.  Returns False when the queue is empty."""
        return self._drain(None, 1) == 1

    def stop(self) -> None:
        """Request that :meth:`run` return after the current entry."""
        self._stop_requested = True
        self._halt = True

    def drain_until_quiescent(self, *, max_events: int = 50_000_000) -> int:
        """Run until no entries remain; guard against runaway models."""
        processed = self.run(max_events=max_events)
        pending = self.pending_events
        if pending:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events "
                f"({pending} still pending at t={self._now})"
            )
        return processed

    # --------------------------------------------------------------- utility
    def iterate_events(self, *, until: Optional[int] = None) -> Iterator[int]:
        """Yield the simulation time after each dispatched entry.

        Convenience generator for interactive examples and tests that want
        to observe the simulation advancing.  Matches :meth:`run`'s clock
        semantics: once the generator is exhausted (queue drained or no
        entry at or before ``until`` remains), the clock lands on ``until``.
        Abandoning the generator early leaves the clock at the last
        dispatched entry.
        """
        while self._drain(until, 1):
            yield self._now
        if until is not None and until > self._now:
            self._now = until

    def reset(self) -> None:
        """Discard all pending entries and rewind the clock to zero."""
        self._buckets.clear()
        self._keys.clear()
        self._now = 0
        self._events_processed = 0
        self._current = -1
