"""Coherence / consistency checking.

The paper leans on formal work (Sorin et al.; Afek et al.) showing that
snooping correctness depends only on the order in which transactions are
processed.  Our simulator carries a per-block *version* token through every
data message; the checker uses those tokens to detect coherence violations
during test runs:

* **write serialisation** -- versions written to a block must be strictly
  increasing in completion order (two caches believing they both own a block
  produce duplicate or decreasing versions);
* **no stale reads going backward** -- a given processor must never observe
  a block's version moving backward;
* **no reads from the future** -- a read can only return a version some
  write has produced.

A separate helper, :func:`check_swmr_invariant`, inspects the stable cache
states directly and asserts the single-writer / multiple-reader property.

This module also hosts the consistency-*model* axis: the constants that
``SystemConfig.consistency`` validates against and the value-level
:class:`StoreBuffer` the TSO processor drives (see
:mod:`repro.processor.litmus` for the litmus-test harness built on top).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.memory.coherence import CacheState

#: Consistency models selectable via ``SystemConfig.consistency``.  "sc"
#: (sequential consistency, the blocking-processor default) is bit-identical
#: to the pre-matrix simulator; "tso" adds a per-core FIFO store buffer with
#: load forwarding (PAPERS.md, "A formalisation of the SPARC TSO memory
#: model").
CONSISTENCY_MODELS = ("sc", "tso")

#: FIFO store-buffer depth per core under TSO (the paper's Section 2.2
#: outstanding-transaction sizing); a full buffer stalls the core until the
#: head store drains.
STORE_BUFFER_CAPACITY = 8

#: Rest delay before a buffered store starts draining to the cache.  This is
#: what makes store->load reordering *observable*: younger loads issue and
#: get ordered during the window.  With a zero delay the drain would be
#: indistinguishable from SC's blocking store.
TSO_DRAIN_DELAY_NS = 30


@dataclass
class Violation:
    """One detected coherence violation."""

    kind: str
    block: int
    node: int
    detail: str
    time: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"[{self.kind}] block {self.block} node {self.node} "
            f"at t={self.time}: {self.detail}"
        )


class CoherenceChecker:
    """Collects read/write observations and flags violations."""

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self._latest_write: Dict[int, int] = {}
        self._writes_seen: Dict[int, List[Tuple[int, int, int]]] = {}
        self._last_read_version: Dict[Tuple[int, int], int] = {}
        self.writes_recorded = 0
        self.reads_recorded = 0

    # -------------------------------------------------------------- recording
    def record_write(self, node: int, block: int, version: int, time: int) -> None:
        self.writes_recorded += 1
        previous = self._latest_write.get(block, 0)
        if version <= previous:
            self.violations.append(
                Violation(
                    kind="write-serialisation",
                    block=block,
                    node=node,
                    time=time,
                    detail=(
                        f"wrote version {version} but version {previous} "
                        f"was already written"
                    ),
                )
            )
        self._latest_write[block] = max(previous, version)
        self._writes_seen.setdefault(block, []).append((time, node, version))

    def record_read(self, node: int, block: int, version: int, time: int) -> None:
        self.reads_recorded += 1
        latest = self._latest_write.get(block, 0)
        if version > latest:
            self.violations.append(
                Violation(
                    kind="read-from-future",
                    block=block,
                    node=node,
                    time=time,
                    detail=f"read version {version}, newest write is {latest}",
                )
            )
        key = (node, block)
        previous = self._last_read_version.get(key, 0)
        if version < previous:
            self.violations.append(
                Violation(
                    kind="read-went-backward",
                    block=block,
                    node=node,
                    time=time,
                    detail=f"read version {version} after having read {previous}",
                )
            )
        self._last_read_version[key] = max(previous, version)

    # -------------------------------------------------------------- reporting
    @property
    def clean(self) -> bool:
        return not self.violations

    def assert_clean(self) -> None:
        if self.violations:
            summary = "\n".join(str(v) for v in self.violations[:20])
            raise AssertionError(
                f"{len(self.violations)} coherence violations detected:\n{summary}"
            )

    def writes_to(self, block: int) -> List[Tuple[int, int, int]]:
        return list(self._writes_seen.get(block, []))


def _collect_holders(controllers):
    """Stable cache states and version tokens held across ``controllers``.

    Returns ``(holders, versions)``: ``holders[block]`` maps node -> state
    for every non-INVALID resident line, ``versions[(node, block)]`` its
    version token.  Shared by the quiescence invariant checkers below.
    """
    holders: Dict[int, Dict[int, CacheState]] = {}
    versions: Dict[Tuple[int, int], int] = {}
    for controller in controllers:
        cache = controller.cache
        node = controller.node
        for block in cache.resident_blocks():
            state = cache.state_of(block)
            if state is CacheState.INVALID:
                continue
            holders.setdefault(block, {})[node] = state
            versions[(node, block)] = cache.version_of(block)
    return holders, versions


def check_directory_invariant(controllers: Iterable) -> List[str]:
    """Check that directory state agrees with the caches' stable states.

    ``controllers`` are per-node directory cache controllers, each linking
    its home ``DirectoryMemoryController`` as ``memory_controller`` (the
    protocol factory wires this).  Call at quiescence (no in-flight
    transactions).  Clean S evictions are silent, so a sharer vector may be
    a strict *superset* of the actual holders; the invariant is containment
    plus ownership agreement:

    * a MODIFIED entry's owner -- and nobody else -- holds the block, in M
      (or E/M under MESI: the directory does not distinguish the two);
    * SHARED/UNCACHED entries have no M holder anywhere, and every actual
      holder appears in the sharer vector;
    * S holders agree with the home's version token;
    * busy states (DirClassic) have drained.

    Returns human-readable violations (empty when the invariant holds).
    """
    from repro.protocols.directory_state import DirectoryState

    controllers = list(controllers)
    holders, versions = _collect_holders(controllers)
    problems: List[str] = []
    for controller in controllers:
        memory = controller.memory_controller
        if memory is None:
            problems.append(f"node {controller.node}: no linked memory controller")
            continue
        for block, entry in memory.directory.entries():
            block_holders = holders.get(block, {})
            modified = sorted(
                node
                for node, state in block_holders.items()
                if state in (CacheState.MODIFIED, CacheState.EXCLUSIVE)
            )
            if entry.state.is_busy:
                problems.append(
                    f"block {block}: entry busy ({entry.state.value}) at quiescence"
                )
            elif entry.state is DirectoryState.MODIFIED:
                if modified != [entry.owner]:
                    problems.append(
                        f"block {block}: directory owner {entry.owner} but "
                        f"M holders {modified}"
                    )
                extra = sorted(set(block_holders) - {entry.owner})
                if extra:
                    problems.append(
                        f"block {block}: non-owner holders {extra} while "
                        f"directory state is M"
                    )
            else:
                if modified:
                    problems.append(
                        f"block {block}: M holders {modified} but directory "
                        f"state is {entry.state.value}"
                    )
                mask = entry.sharers_mask
                for node in block_holders:
                    if not (mask >> node) & 1:
                        problems.append(
                            f"block {block}: node {node} holds a copy but "
                            f"is missing from the sharer vector"
                        )
                for node in block_holders:
                    version = versions[(node, block)]
                    if version != entry.version:
                        problems.append(
                            f"block {block}: node {node} holds version "
                            f"{version}, home has {entry.version}"
                        )
    return problems


def check_snoop_home_invariant(nodes: Iterable) -> List[str]:
    """Check TS-Snoop home-block owner bits against the caches.

    ``nodes`` are the per-node ``TSSnoopNode`` controllers (each is both
    the cache side and the memory side for its slice).  Call at quiescence.

    * an owner bit naming cache C means C -- and nobody else -- holds the
      block in M (or, under MOESI, in O with every other holder an S copy
      agreeing with the O holder's version);
    * a cleared owner bit (memory owns) means no cache holds the block M or
      O, and every S holder agrees with memory's version token;
    * no writeback may still be buffered;
    * the shared interest mask is a superset: every node holding a block
      in a non-I state, an MSHR or a writeback-buffer entry for it has its
      bit set (otherwise the analytical network would skip its snoops).
    """
    node_list = list(nodes)
    holders, versions = _collect_holders(node_list)
    problems: List[str] = []
    for controller in node_list:
        if controller.writeback_buffer:
            problems.append(
                f"node {controller.node}: writeback buffer not drained "
                f"({sorted(controller.writeback_buffer)})"
            )
        tracked = set(controller.writeback_buffer)
        tracked.update(controller.mshrs.blocks_in_flight())
        tracked.update(
            block
            for block in controller.cache.resident_blocks()
            if controller.cache.state_of(block) is not CacheState.INVALID
        )
        interest = controller.interest
        for block in sorted(tracked):
            if not (interest.get(block, 0) >> controller.node) & 1:
                problems.append(
                    f"block {block}: node {controller.node} may act on it "
                    f"but its interest bit is clear"
                )
        for block, home_state in controller.home_blocks.items():
            block_holders = holders.get(block, {})
            modified = sorted(
                node
                for node, state in block_holders.items()
                if state in (CacheState.MODIFIED, CacheState.EXCLUSIVE)
            )
            owned = sorted(
                node
                for node, state in block_holders.items()
                if state is CacheState.OWNED
            )
            if home_state.awaiting_data:
                problems.append(
                    f"block {block}: home still awaiting writeback data at "
                    f"quiescence"
                )
            if home_state.owner is not None:
                if owned:
                    # MOESI: the named owner may hold O while S copies of
                    # the same (dirty) version circulate.
                    if owned != [home_state.owner] or modified:
                        problems.append(
                            f"block {block}: owner bit names "
                            f"{home_state.owner} but O holders are {owned} "
                            f"and M holders are {modified}"
                        )
                    else:
                        owner_version = versions[(home_state.owner, block)]
                        for node in block_holders:
                            if versions[(node, block)] != owner_version:
                                problems.append(
                                    f"block {block}: node {node} holds "
                                    f"version {versions[(node, block)]}, O "
                                    f"owner has {owner_version}"
                                )
                elif modified != [home_state.owner]:
                    problems.append(
                        f"block {block}: owner bit names {home_state.owner} "
                        f"but M holders are {modified}"
                    )
            else:
                if modified or owned:
                    problems.append(
                        f"block {block}: memory owns the block but M "
                        f"holders are {modified} and O holders are {owned}"
                    )
                for node in block_holders:
                    version = versions[(node, block)]
                    if version != home_state.version:
                        problems.append(
                            f"block {block}: node {node} holds version "
                            f"{version}, memory has {home_state.version}"
                        )
    return problems


def check_swmr_invariant(controllers: Iterable) -> List[str]:
    """Check the single-writer / multiple-reader invariant on stable states.

    ``controllers`` is any iterable of objects exposing a ``cache``
    (CacheArray) attribute.  Returns a list of human-readable violations
    (empty when the invariant holds).  Only *stable* states are examined, so
    this should be called when the system is quiescent (no in-flight
    transactions), as the integration tests do.
    """
    holders: Dict[int, List[Tuple[int, CacheState]]] = {}
    for index, controller in enumerate(controllers):
        for block in controller.cache.resident_blocks():
            state = controller.cache.state_of(block)
            holders.setdefault(block, []).append((index, state))

    problems: List[str] = []
    for block, entries in holders.items():
        modified = [
            node
            for node, state in entries
            if state in (CacheState.MODIFIED, CacheState.EXCLUSIVE)
        ]
        shared = [
            node
            for node, state in entries
            if state in (CacheState.SHARED, CacheState.OWNED)
        ]
        owned = [node for node, state in entries if state is CacheState.OWNED]
        if len(modified) > 1:
            problems.append(f"block {block}: multiple writers {sorted(modified)}")
        if len(owned) > 1:
            problems.append(f"block {block}: multiple owned copies {sorted(owned)}")
        if modified and shared:
            problems.append(
                f"block {block}: writer {modified} coexists with sharers "
                f"{sorted(shared)}"
            )
    return problems


class StoreBuffer:
    """Per-core FIFO store buffer with same-address load forwarding (TSO).

    This is the *value-level* model of the buffer the TSO processor keeps:
    stores enter at the tail, drain to the memory system from the head in
    FIFO order, and a load first consults the buffer (newest matching entry
    wins) before going to the cache.  :class:`repro.processor.Processor`
    drives one of these per core; the hypothesis differential in
    ``tests/processor/test_consistency.py`` runs it against a flat-memory
    oracle to prove that an empty buffer makes TSO agree with SC exactly.
    """

    def __init__(self, capacity: int = STORE_BUFFER_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[Tuple[int, int]] = deque()

    def push(self, block: int, value: int) -> None:
        """Append a store at the tail; raises when the buffer is full."""
        if len(self._entries) >= self.capacity:
            raise OverflowError("store buffer full")
        self._entries.append((block, value))

    def forward(self, block: int) -> Optional[int]:
        """Value of the *youngest* buffered store to ``block`` (or None)."""
        for buffered_block, value in reversed(self._entries):
            if buffered_block == block:
                return value
        return None

    def head(self) -> Tuple[int, int]:
        """The oldest buffered store (the next one to drain)."""
        return self._entries[0]

    def pop(self) -> Tuple[int, int]:
        """Remove and return the head store once its drain completes."""
        return self._entries.popleft()

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)
