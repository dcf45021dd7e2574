"""Executable coherence invariants, checked inside real protocol runs.

Three invariant layers run against every protocol (TS-Snoop, DirClassic,
DirOpt, MESIDir, MOESISnoop) under both batched and unbatched dispatch:

* **single-writer / multiple-reader** over the stable cache states,
  re-checked periodically *during* the run (between event slices) and at
  quiescence;
* **data-value**: the per-block version tokens recorded by the
  :class:`CoherenceChecker` (write serialisation, no stale or future
  reads), plus version agreement between sharers and the home at
  quiescence;
* **directory-matches-caches**: the home's sharer vector / owner bit must
  agree with the caches' stable states (the directory protocols' bank
  entries, TS-Snoop's per-block owner bits).

The checkers themselves are validated negatively: corrupting a quiescent
system must produce violations.

Setting ``REPRO_SANITIZE=1`` in the environment re-runs the whole suite
with ``SystemConfig.sanitize`` on: the message/event pools are swapped for
checked variants that raise on double releases and, at quiescence, every
run additionally asserts that no pooled message shell leaked.  CI runs the
suite once in this mode.
"""

import os

import pytest

from repro.memory.coherence import CacheState
from repro.processor.consistency import (
    check_directory_invariant,
    check_snoop_home_invariant,
    check_swmr_invariant,
)
from repro.system.builder import SystemBuilder, build_streams
from repro.system.config import SystemConfig
from repro.workloads.profiles import get_profile

SANITIZE = os.environ.get("REPRO_SANITIZE", "") == "1"
PROTOCOLS = ("ts-snoop", "dirclassic", "diropt", "mesi-dir", "moesi-snoop")
SNOOPERS = ("ts-snoop", "moesi-snoop")
DISPATCH_MODES = (True, False)
CASES = [
    (protocol, batched) for protocol in PROTOCOLS for batched in DISPATCH_MODES
]


def _run_with_invariant_hook(
    protocol, batched, workload="barnes", scale=0.05, check_every=1500
):
    """Run one workload, re-checking SWMR between event slices.

    Returns ``(system, mid_run_checks)`` with the system quiescent.
    """
    config = SystemConfig(
        protocol=protocol, batched_dispatch=batched, enable_checker=True,
        sanitize=SANITIZE,
    )
    profile = get_profile(workload).scaled(scale)
    streams = build_streams(profile, config)
    system = SystemBuilder(config).build(streams)
    for processor in system.processors:
        processor.start()
    sim = system.sim
    checks = 0
    while not system.all_finished():
        processed = sim.run(max_events=check_every)
        assert processed > 0, f"{protocol}: deadlocked mid-run"
        problems = check_swmr_invariant(system.controllers)
        assert not problems, (
            f"{protocol} batched={batched}: SWMR violated mid-run: "
            f"{problems[:5]}")
        checks += 1
    # Let in-flight writebacks and acknowledgements drain so the home state
    # is quiescent before the directory invariants are checked.
    sim.run()
    if SANITIZE:
        # At true quiescence every pooled message shell must have been
        # handed back; a leak here is an ownership-contract bug.
        system.message_pool.assert_no_leaks()
    return system, checks


def _final_invariants(protocol, system):
    problems = check_swmr_invariant(system.controllers)
    if protocol in SNOOPERS:
        problems += check_snoop_home_invariant(system.controllers)
    else:
        problems += check_directory_invariant(system.controllers)
    return problems


class TestInvariantsInsideProtocolScenarios:
    @pytest.mark.parametrize("protocol,batched", CASES)
    def test_invariants_hold_throughout(self, protocol, batched):
        system, checks = _run_with_invariant_hook(protocol, batched)
        assert checks >= 1, "the mid-run hook never fired"
        assert system.total_misses() > 0, "workload produced no misses"
        system.checker.assert_clean()
        assert system.checker.writes_recorded > 0
        assert system.checker.reads_recorded > 0
        problems = _final_invariants(protocol, system)
        assert not problems, f"{protocol}: {problems[:8]}"

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_dispatch_modes_agree_on_observables(self, protocol):
        batched, _ = _run_with_invariant_hook(protocol, True)
        unbatched, _ = _run_with_invariant_hook(protocol, False)
        assert batched.total_misses() == unbatched.total_misses()
        assert (batched.total_cache_to_cache_misses()
                == unbatched.total_cache_to_cache_misses())
        assert batched.finish_time() == unbatched.finish_time()
        assert (batched.checker.writes_recorded
                == unbatched.checker.writes_recorded)
        assert (batched.checker.reads_recorded
                == unbatched.checker.reads_recorded)

    def test_invariants_hold_on_torus_network(self):
        config_extra = {"network": "torus"}
        config = SystemConfig(
            protocol="diropt", enable_checker=True, sanitize=SANITIZE,
            **config_extra
        )
        profile = get_profile("oltp").scaled(0.05)
        streams = build_streams(profile, config)
        system = SystemBuilder(config).build(streams)
        for processor in system.processors:
            processor.start()
        system.sim.run()
        if SANITIZE:
            system.message_pool.assert_no_leaks()
        system.checker.assert_clean()
        problems = _final_invariants("diropt", system)
        assert not problems, problems[:8]


class TestCheckersDetectCorruption:
    """The invariant checkers must actually flag broken states."""

    def _quiescent_system(self, protocol):
        system, _ = _run_with_invariant_hook(protocol, True)
        return system

    def _first_shared_holder(self, system):
        for controller in system.controllers:
            for block in controller.cache.resident_blocks():
                if controller.cache.state_of(block) is CacheState.SHARED:
                    return controller, block
        pytest.skip("no shared line to corrupt")

    def test_swmr_checker_flags_double_writer(self):
        system = self._quiescent_system("diropt")
        controller, block = self._first_shared_holder(system)
        controller.cache.set_state(block, CacheState.MODIFIED)
        other = next(c for c in system.controllers if c is not controller)
        other.cache.install(block, CacheState.MODIFIED, version=99, dirty=True)
        assert check_swmr_invariant(system.controllers)

    def test_directory_checker_flags_unregistered_holder(self):
        system = self._quiescent_system("dirclassic")
        controller, block = self._first_shared_holder(system)
        home = system.controllers[0].memory_controller.address_space
        memory = system.controllers[home.home_of(block)].memory_controller
        entry = memory.directory.entry(block)
        entry.sharers_mask &= ~(1 << controller.node)
        problems = check_directory_invariant(system.controllers)
        assert any("sharer vector" in problem for problem in problems)

    def test_directory_checker_flags_phantom_owner(self):
        system = self._quiescent_system("diropt")
        controller, block = self._first_shared_holder(system)
        home = system.controllers[0].memory_controller.address_space
        memory = system.controllers[home.home_of(block)].memory_controller
        entry = memory.directory.entry(block)
        entry.make_modified(controller.node)
        problems = check_directory_invariant(system.controllers)
        assert any("M holders" in problem for problem in problems)

    def test_snoop_checker_flags_owner_mismatch(self):
        system = self._quiescent_system("ts-snoop")
        controller, block = self._first_shared_holder(system)
        home_node = controller.address_space.home_of(block)
        home_state = system.controllers[home_node].home_blocks.get(block)
        if home_state is None:
            pytest.skip("home bookkeeping never touched the block")
        home_state.owner = controller.node
        problems = check_snoop_home_invariant(system.controllers)
        assert any("owner bit" in problem for problem in problems)

    def test_snoop_checker_flags_version_mismatch(self):
        system = self._quiescent_system("ts-snoop")
        controller, block = self._first_shared_holder(system)
        home_node = controller.address_space.home_of(block)
        home_state = system.controllers[home_node].home_blocks.get(block)
        if home_state is None or home_state.owner is not None:
            pytest.skip("no memory-owned home entry for the shared line")
        home_state.version += 7
        problems = check_snoop_home_invariant(system.controllers)
        assert any("version" in problem for problem in problems)

    def test_snoop_checker_flags_cleared_interest_bit(self):
        system = self._quiescent_system("ts-snoop")
        controller, block = self._first_shared_holder(system)
        assert not check_snoop_home_invariant(system.controllers)
        controller.interest[block] &= ~(1 << controller.node)
        problems = check_snoop_home_invariant(system.controllers)
        assert any("interest bit" in problem for problem in problems)
