"""Host-speed calibration: a fixed reference workload timed between operations.

The benchmark runs on a share of a machine whose speed drifts in phases of
seconds to minutes, by up to 2x, with no steal time to show for it.  A phase
lasts about as long as a whole run, so medians within a run cannot average
it out, and runs of the same code land 25-30 % apart.

So the benchmark times a fixed reference workload next to its operations
and reports every end-to-end timing at a reference host speed::

    reported = measured * REFERENCE_UNIT_S / unit

where ``unit`` is the time of one reference unit measured around the
operation: the mean of the host-speed samples nearest to it.  The reference
is pure standard library code of this file, a small event-driven coherence
model with the same kind of work as the simulator (a heap of timed events,
dictionaries, small objects), so a change to the program cannot move it.
A faster program shows as a smaller reported time; a faster host does not.

The host's two vCPUs change speed independently, so ``run.py`` pins the
benchmark to one CPU (:func:`pin_to_one_cpu`): the reference then runs on
the CPU the operations ran on.

Only the standard library is imported, so the set-up probe can use it.
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import statistics
import time
from typing import List

#: Reported timings are scaled to a host on which one reference unit takes
#: this long, about what it takes on the development host (2 vCPUs of a
#: shared 2.1 GHz Intel Xeon).
REFERENCE_UNIT_S = 0.014
#: Units timed per sample; the sample is their mean.
UNITS_PER_SAMPLE = 3
#: An interval between two samples is scaled by the mean of this many
#: samples on either side of it.  In a slow phase the host's speed
#: flickers between fast and slow within a second, so one short sample
#: catches either; an operation lasting seconds sees the average, which the
#: mean over several seconds of samples estimates.
SAMPLES_PER_SIDE = 3
#: Accesses one unit simulates.
UNIT_ACCESSES = 6000
NODES = 16
BLOCKS = 4096


class _Block:
    __slots__ = ("owner", "sharers")

    def __init__(self) -> None:
        self.owner = -1
        self.sharers: set = set()


class _Node:
    __slots__ = ("cache", "hits", "misses")

    def __init__(self) -> None:
        self.cache: dict = {}
        self.hits = 0
        self.misses = 0


def reference_unit() -> int:
    """One unit of reference work: a fixed MSI-style access stream.

    Returns the number of misses, which is the same on every call.
    """
    rng = random.Random(12345)
    nodes = [_Node() for _ in range(NODES)]
    blocks: dict = {}
    queue: list = []
    order = 0
    for ident in range(NODES):
        order += 1
        start, address = rng.randrange(100), rng.randrange(BLOCKS)
        heapq.heappush(queue, (start, order, ident, address, rng.random() < 0.3))
    for _ in range(UNIT_ACCESSES):
        now, _, ident, address, write = heapq.heappop(queue)
        node = nodes[ident]
        block = blocks.get(address)
        if block is None:
            block = blocks[address] = _Block()
        state = node.cache.get(address, 0)
        if state == 2 or (state == 1 and not write):
            node.hits += 1
            delay = 1
        else:
            node.misses += 1
            if write:
                for other in block.sharers:
                    if other != ident:
                        nodes[other].cache.pop(address, None)
                block.sharers = {ident}
                block.owner = ident
                node.cache[address] = 2
            else:
                if block.owner >= 0 and block.owner != ident:
                    nodes[block.owner].cache[address] = 1
                    block.owner = -1
                block.sharers.add(ident)
                node.cache[address] = 1
            delay = 50 + 10 * len(block.sharers)
        order += 1
        following = address + 1 if rng.random() < 0.6 else rng.randrange(BLOCKS)
        heapq.heappush(
            queue, (now + delay, order, ident, following % BLOCKS, rng.random() < 0.3)
        )
    return sum(node.misses for node in nodes)


def unit_seconds() -> float:
    """Seconds one reference unit takes now (mean of a few).

    The garbage collector is paused meanwhile, so the size of the program's
    heap does not leak into the sample.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(UNITS_PER_SAMPLE):
            reference_unit()
        return (time.perf_counter() - start) / UNITS_PER_SAMPLE
    finally:
        if enabled:
            gc.enable()


def pin_to_one_cpu() -> None:
    """Run this thread, and the threads and processes it starts, on one CPU.

    Call it before any thread is started.  Without CPU affinity support
    (other systems than Linux) it does nothing.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostClock:
    """Samples the host's speed between operations.

    Take a sample before the first operation (on construction), then call
    :meth:`mark` after each operation or batch of them.  At the end,
    :meth:`factors` gives, for each interval between two marks, the factor
    that scales its measured times to the reference speed.
    """

    def __init__(self) -> None:
        self.units: List[float] = [unit_seconds()]

    def mark(self) -> None:
        self.units.append(unit_seconds())

    def factors(self) -> List[float]:
        """One factor per interval: interval ``i`` lies between samples
        ``i`` and ``i + 1``."""
        return [
            REFERENCE_UNIT_S
            / statistics.mean(
                self.units[max(0, i + 1 - SAMPLES_PER_SIDE) : i + 1 + SAMPLES_PER_SIDE]
            )
            for i in range(len(self.units) - 1)
        ]

    def unit_ms(self) -> float:
        """Median reference unit of the run, in milliseconds."""
        return 1000.0 * statistics.median(self.units)
