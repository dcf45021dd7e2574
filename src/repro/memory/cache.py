"""Set-associative cache arrays with true-LRU replacement.

Models the unified level-two cache of the target system: 4 MB, 4-way,
64-byte blocks (Section 4.2).  The array stores coherence state and a data
version token per line; actual data values are not simulated (the simulator
is a timing/protocol model), but version tokens let the consistency checker
verify that reads observe the latest write in the global order.

Two implementations share one API (the :data:`CACHE_ARRAYS` registry):

* :class:`CacheArray` -- the reference implementation, one ``CacheLine``
  heap object per resident line in a per-set dict;
* :class:`PackedCacheArray` -- the default fast path, storing tags, state
  codes, LRU generation stamps, dirty bits and version tokens as parallel
  ``array('q')``/``array('b')`` columns with no per-line objects.

Both are behaviourally identical (verified by property tests and whole-run
equivalence tests); ``SystemConfig.cache_array`` selects one.
"""
# repro-lint: hot

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Union

from repro.memory.coherence import CacheState, STATE_FROM_CODE


@dataclass
class CacheLine:
    """One cache line: tag (block number), state, LRU stamp, version token."""

    block: int
    state: CacheState = CacheState.INVALID
    lru_stamp: int = 0
    dirty: bool = False
    version: int = 0


@dataclass
class EvictionResult:
    """Outcome of allocating a line: which victim (if any) must be evicted."""

    victim_block: Optional[int]
    victim_state: CacheState
    victim_dirty: bool
    victim_version: int = 0

    @property
    def needs_writeback(self) -> bool:
        return self.victim_block is not None and self.victim_state in (
            CacheState.MODIFIED,
            CacheState.OWNED,
        )


class CacheArray:
    """A set-associative array keyed by block number.

    The array tracks only *stable* states; in-flight blocks live in the
    controller's MSHR file until the transaction completes and the line is
    installed with :meth:`install`.
    """

    def __init__(
        self,
        size_bytes: int = 4 * 1024 * 1024,
        associativity: int = 4,
        block_size: int = 64,
        name: str = "L2",
    ) -> None:
        if size_bytes % (associativity * block_size):
            raise ValueError("cache size must divide evenly into sets")
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.block_size = block_size
        self.num_sets = size_bytes // (associativity * block_size)
        self._sets: Dict[int, Dict[int, CacheLine]] = {}
        self._access_clock = 0

    # ------------------------------------------------------------- indexing
    def set_index(self, block: int) -> int:
        return block % self.num_sets

    def _set_for(self, block: int) -> Dict[int, CacheLine]:
        return self._sets.setdefault(self.set_index(block), {})

    # ---------------------------------------------------------------- lookup
    def lookup(self, block: int) -> Optional[CacheLine]:
        """Return the line holding ``block`` or ``None`` (does not touch LRU)."""
        line = self._sets.get(self.set_index(block), {}).get(block)
        if line is not None and line.state is CacheState.INVALID:
            return None
        return line

    def state_of(self, block: int) -> CacheState:
        line = self.lookup(block)
        return line.state if line is not None else CacheState.INVALID

    def version_of(self, block: int) -> int:
        """Version token of a resident block (0 when the block is absent)."""
        line = self.lookup(block)
        return line.version if line is not None else 0

    def touch(self, block: int) -> None:
        """Update LRU recency for a hit."""
        line = self.lookup(block)
        if line is None:
            raise KeyError(f"touch on missing block {block}")
        self._access_clock += 1
        line.lru_stamp = self._access_clock

    # ------------------------------------------------------------ allocation
    def choose_victim(self, block: int) -> EvictionResult:
        """Decide which line would be evicted to make room for ``block``.

        Does not modify the array.  If the set has a free (or invalid) way,
        no victim is needed.
        """
        cache_set = self._set_for(block)
        if block in cache_set and cache_set[block].state is not CacheState.INVALID:
            return EvictionResult(None, CacheState.INVALID, False)
        live = {
            b: l for b, l in cache_set.items() if l.state is not CacheState.INVALID
        }
        if len(live) < self.associativity:
            return EvictionResult(None, CacheState.INVALID, False)
        # repro-lint: disable=HOT001 -- dict reference implementation; the
        # packed array is the hot default and never takes this path.
        victim = min(live.values(), key=lambda line: line.lru_stamp)
        return EvictionResult(victim.block, victim.state, victim.dirty, victim.version)

    def install(
        self, block: int, state: CacheState, *, version: int = 0, dirty: bool = False
    ) -> EvictionResult:
        """Install ``block`` in ``state``, evicting an LRU victim if needed."""
        if state is CacheState.INVALID:
            raise ValueError("cannot install a line in state I")
        eviction = self.choose_victim(block)
        cache_set = self._set_for(block)
        if eviction.victim_block is not None:
            del cache_set[eviction.victim_block]
        self._access_clock += 1
        cache_set[block] = CacheLine(
            block=block,
            state=state,
            lru_stamp=self._access_clock,
            dirty=dirty,
            version=version,
        )
        return eviction

    def set_state(self, block: int, state: CacheState) -> None:
        """Change the stable state of a resident block (or drop it on I)."""
        cache_set = self._set_for(block)
        line = cache_set.get(block)
        if state is CacheState.INVALID:
            if line is not None:
                del cache_set[block]
            return
        if line is None:
            raise KeyError(f"set_state on missing block {block}")
        line.state = state
        if state not in (CacheState.MODIFIED, CacheState.OWNED):
            line.dirty = False

    def evict(self, block: int) -> Optional[CacheLine]:
        """Forcibly remove a block (silent eviction / invalidation)."""
        cache_set = self._set_for(block)
        return cache_set.pop(block, None)

    def write(self, block: int, version: int) -> None:
        """Record a store to a resident block (bumps the version token)."""
        line = self.lookup(block)
        if line is None:
            raise KeyError(f"write to missing block {block}")
        line.dirty = True
        line.version = version

    # ------------------------------------------------------------ inspection
    def resident_blocks(self) -> Iterator[int]:
        for cache_set in self._sets.values():
            for block, line in cache_set.items():
                if line.state is not CacheState.INVALID:
                    yield block

    def occupancy(self) -> int:
        return sum(1 for _ in self.resident_blocks())

    def set_occupancy(self, set_index: int) -> int:
        return sum(
            1
            for line in self._sets.get(set_index, {}).values()
            if line.state is not CacheState.INVALID
        )

    def __contains__(self, block: int) -> bool:
        return self.lookup(block) is not None


#: Shared "nothing to evict" result.  Callers only read EvictionResult, so
#: the packed array hands every victimless install the same instance.
_NO_VICTIM = EvictionResult(None, CacheState.INVALID, False)


class PackedCacheArray:
    """Allocation-free cache array over parallel integer columns.

    Sets are materialised lazily: the first access to a set appends
    ``associativity`` ways to every column and records the set's base slot in
    ``_set_base``.  A way is empty when its state code is 0 (INVALID).  LRU
    recency is a monotonically increasing generation counter shared with the
    reference implementation's ``_access_clock``, so victim selection is
    bit-identical: stamps are unique and the minimum stamp identifies the
    same victim regardless of storage layout.

    The protocol-facing API (``state_of`` / ``version_of`` / ``touch`` /
    ``install`` / ``set_state`` / ``evict`` / ``write`` / ``choose_victim``)
    never creates per-line objects; :meth:`lookup` materialises a
    :class:`CacheLine` *copy* for tests and inspection only -- mutating it
    does not write back to the array.
    """

    def __init__(
        self,
        size_bytes: int = 4 * 1024 * 1024,
        associativity: int = 4,
        block_size: int = 64,
        name: str = "L2",
    ) -> None:
        if size_bytes % (associativity * block_size):
            raise ValueError("cache size must divide evenly into sets")
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.block_size = block_size
        self.num_sets = size_bytes // (associativity * block_size)
        # Parallel columns, ``associativity`` consecutive slots per set.
        self._tags = array("q")
        self._states = array("b")
        self._lru = array("q")
        self._dirty = array("b")
        self._versions = array("q")
        self._set_base: Dict[int, int] = {}
        #: block -> live state code; a redundant index over the packed
        #: columns so ``state_of`` -- the once-per-snooped-transaction-
        #: per-node query, the hottest in the simulator -- is one dict get
        #: instead of a set probe.  Maintained at every state mutation
        #: (install / set_state / evict); the columns stay the source of
        #: truth for lookup/victim logic.
        self._state_index: Dict[int, int] = {}
        self._access_clock = 0
        # Extension templates: array-from-array extends are a straight
        # memcpy, list literals are not.
        self._fresh_tags = array("q", [-1] * associativity)
        self._fresh_q = array("q", [0] * associativity)
        self._fresh_b = array("b", [0] * associativity)

    # ------------------------------------------------------------- indexing
    def set_index(self, block: int) -> int:
        return block % self.num_sets

    def _base_for(self, block: int) -> int:
        """Base slot of the block's set, materialising the set on demand."""
        index = block % self.num_sets
        base = self._set_base.get(index)
        if base is None:
            base = len(self._tags)
            self._set_base[index] = base
            self._tags.extend(self._fresh_tags)
            self._states.extend(self._fresh_b)
            self._lru.extend(self._fresh_q)
            self._dirty.extend(self._fresh_b)
            self._versions.extend(self._fresh_q)
        return base

    def _slot_of(self, block: int) -> int:
        """Slot holding ``block`` or -1 (never allocates)."""
        slot = self._set_base.get(block % self.num_sets)
        if slot is None:
            return -1
        tags = self._tags
        states = self._states
        end = slot + self.associativity
        while slot < end:
            if tags[slot] == block and states[slot]:
                return slot
            slot += 1
        return -1

    # ---------------------------------------------------------------- lookup
    def lookup(self, block: int) -> Optional[CacheLine]:
        """A :class:`CacheLine` *copy* of the resident line (tests only)."""
        slot = self._slot_of(block)
        if slot < 0:
            return None
        return CacheLine(
            block=block,
            state=STATE_FROM_CODE[self._states[slot]],
            lru_stamp=self._lru[slot],
            dirty=bool(self._dirty[slot]),
            version=self._versions[slot],
        )

    def state_of(self, block: int) -> CacheState:
        # One dict get against the state index: this probe runs once per
        # snooped transaction per node, the single hottest query in the
        # simulator (code 0 is INVALID, the default for absent blocks).
        return STATE_FROM_CODE[self._state_index.get(block, 0)]

    def version_of(self, block: int) -> int:
        slot = self._slot_of(block)
        return 0 if slot < 0 else self._versions[slot]

    def touch(self, block: int) -> None:
        slot = self._slot_of(block)
        if slot < 0:
            raise KeyError(f"touch on missing block {block}")
        self._access_clock += 1
        self._lru[slot] = self._access_clock

    # ------------------------------------------------------------ allocation
    def choose_victim(self, block: int) -> EvictionResult:
        base = self._base_for(block)
        tags = self._tags
        states = self._states
        lru = self._lru
        victim_slot = -1
        victim_stamp = 0
        live = 0
        for slot in range(base, base + self.associativity):
            if not states[slot]:
                continue
            if tags[slot] == block:
                return EvictionResult(None, CacheState.INVALID, False)
            live += 1
            if victim_slot < 0 or lru[slot] < victim_stamp:
                victim_slot = slot
                victim_stamp = lru[slot]
        if live < self.associativity:
            return EvictionResult(None, CacheState.INVALID, False)
        return EvictionResult(
            tags[victim_slot],
            STATE_FROM_CODE[states[victim_slot]],
            bool(self._dirty[victim_slot]),
            self._versions[victim_slot],
        )

    def install(
        self, block: int, state: CacheState, *, version: int = 0, dirty: bool = False
    ) -> EvictionResult:
        if state is CacheState.INVALID:
            raise ValueError("cannot install a line in state I")
        # Single pass finds the existing line, a free way or the LRU victim
        # (choose_victim's semantics fused with the slot search).  Victim
        # choice depends only on LRU stamps, never on slot positions, so the
        # outcome is identical to the reference implementation's.
        base = self._set_base.get(block % self.num_sets)
        if base is None:
            base = self._base_for(block)
        tags = self._tags
        states = self._states
        lru = self._lru
        end = base + self.associativity
        target = -1
        free = -1
        victim = -1
        victim_stamp = 0
        slot = base
        while slot < end:
            code = states[slot]
            if not code:
                if free < 0:
                    free = slot
            elif tags[slot] == block:
                target = slot
                break
            elif victim < 0 or lru[slot] < victim_stamp:
                victim = slot
                victim_stamp = lru[slot]
            slot += 1
        if target >= 0 or free >= 0:
            eviction = _NO_VICTIM
            if target < 0:
                target = free
        else:
            eviction = EvictionResult(
                tags[victim],
                STATE_FROM_CODE[states[victim]],
                bool(self._dirty[victim]),
                self._versions[victim],
            )
            target = victim
            del self._state_index[tags[victim]]
        self._access_clock += 1
        tags[target] = block
        states[target] = state.code
        lru[target] = self._access_clock
        self._dirty[target] = 1 if dirty else 0
        self._versions[target] = version
        self._state_index[block] = state.code
        return eviction

    def set_state(self, block: int, state: CacheState) -> None:
        slot = self._slot_of(block)
        if state is CacheState.INVALID:
            if slot >= 0:
                self._states[slot] = 0
                del self._state_index[block]
            return
        if slot < 0:
            raise KeyError(f"set_state on missing block {block}")
        self._states[slot] = state.code
        self._state_index[block] = state.code
        if state is not CacheState.MODIFIED and state is not CacheState.OWNED:
            self._dirty[slot] = 0

    def evict(self, block: int) -> Optional[CacheLine]:
        slot = self._slot_of(block)
        if slot < 0:
            return None
        line = CacheLine(
            block=block,
            state=STATE_FROM_CODE[self._states[slot]],
            lru_stamp=self._lru[slot],
            dirty=bool(self._dirty[slot]),
            version=self._versions[slot],
        )
        self._states[slot] = 0
        del self._state_index[block]
        return line

    def write(self, block: int, version: int) -> None:
        slot = self._slot_of(block)
        if slot < 0:
            raise KeyError(f"write to missing block {block}")
        self._dirty[slot] = 1
        self._versions[slot] = version

    # ------------------------------------------------------------ inspection
    def resident_blocks(self) -> Iterator[int]:
        tags = self._tags
        states = self._states
        for slot in range(len(tags)):
            if states[slot]:
                yield tags[slot]

    def occupancy(self) -> int:
        return sum(1 for state in self._states if state)

    def set_occupancy(self, set_index: int) -> int:
        base = self._set_base.get(set_index)
        if base is None:
            return 0
        return sum(
            1 for slot in range(base, base + self.associativity) if self._states[slot]
        )

    def __contains__(self, block: int) -> bool:
        return self._slot_of(block) >= 0


#: Either implementation, for type annotations at the call sites.
AnyCacheArray = Union[CacheArray, PackedCacheArray]

#: Registry of interchangeable cache-array implementations.  "packed" is
#: the fast default; "dict" is the reference kept for equivalence testing.
CACHE_ARRAYS = {"dict": CacheArray, "packed": PackedCacheArray}
DEFAULT_CACHE_ARRAY = "packed"


def make_cache_array(impl: str = DEFAULT_CACHE_ARRAY, **kwargs):
    """Instantiate a registered cache-array implementation by name."""
    try:
        factory = CACHE_ARRAYS[impl]
    except KeyError:
        raise ValueError(
            f"unknown cache array {impl!r}; choose one of {sorted(CACHE_ARRAYS)}"
        ) from None
    return factory(**kwargs)
