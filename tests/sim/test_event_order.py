"""Dispatch-order property tests: the kernel against the heapq oracle.

Random programs -- delayed and absolute pushes, cancellable and
fire-and-forget, at priorities -3..70, with callbacks that schedule more
work (including at the current tick with a lower priority) and cancel
earlier handles -- run on :class:`repro.sim.kernel.Simulator` and on the
test-local :class:`tests.reference_kernel.ReferenceSimulator`, sliced by
``until``, ``max_events`` and ``stop``.  Dispatch order, the clock,
``events_processed`` and ``pending_events`` must agree everywhere,
including inside callbacks.
"""

import pytest

from repro.sim.kernel import SimulationError, Simulator
from tests.reference_kernel import ReferenceSimulator

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# ops: "batched" / "batched_at" (handle-free), "plain" / "plain_at"
# (cancellable; the handle is kept), "cancel" (cancels the kept handle
# chosen by ``target``), "stop" (calls Simulator.stop()).
_OPS = st.sampled_from(["batched", "batched_at", "plain", "plain_at", "cancel", "stop"])
_PRIORITIES = st.one_of(st.integers(-3, 2), st.integers(0, 70))


def _commands(depth: int):
    children = _commands(depth - 1) if depth > 0 else st.just(())
    return st.lists(
        st.tuples(
            _OPS,
            st.integers(min_value=0, max_value=12),  # delay
            _PRIORITIES,
            st.integers(min_value=0, max_value=30),  # cancel target
            children,  # scheduled from inside the callback
        ),
        max_size=4 if depth < 2 else 6,
    ).map(tuple)


def _run_program(make_sim, program, until, budget, mode):
    """Interpret ``program`` on one kernel; return everything observable."""
    sim = make_sim()
    log = []
    handles = []
    uid = [0]

    def observe(tag):
        log.append((tag, sim.now, sim.events_processed, sim.pending_events))

    def schedule_commands(commands):
        for op, delay, priority, target, children in commands:
            uid[0] += 1
            ident = uid[0], op

            def callback(
                arg=None, ident=ident, op=op, target=target, children=children
            ):
                observe(ident)
                if op == "cancel" and handles:
                    handles[target % len(handles)].cancel()
                elif op == "stop":
                    sim.stop()
                schedule_commands(children)

            if op == "batched":
                sim.schedule_batched(delay, callback, None, priority)
            elif op == "batched_at":
                sim.schedule_batched_at(sim.now + delay, callback, "x", priority)
            elif op == "plain_at":
                handles.append(
                    sim.schedule_at(sim.now + delay, callback, priority=priority)
                )
            else:
                handles.append(sim.schedule(delay, callback, priority=priority))

    schedule_commands(program)
    observe("start")
    if mode == "run":
        while True:
            processed = sim.run(until=until, max_events=budget)
            observe(("slice", processed))
            if processed == 0:
                break
    elif mode == "iterate":
        log.append(("times", tuple(sim.iterate_events(until=until))))
    else:
        while sim.step():
            observe("step")
    observe("sliced")
    sim.run()
    observe("end")
    return log


@settings(max_examples=250, deadline=None)
@given(
    program=_commands(2),
    until=st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
    budget=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    mode=st.sampled_from(["run", "run", "iterate", "step"]),
)
def test_dispatch_matches_reference(program, until, budget, mode):
    observed = _run_program(Simulator, program, until, budget, mode)
    expected = _run_program(ReferenceSimulator, program, until, budget, mode)
    assert observed == expected


class TestPriorityRange:
    @pytest.mark.parametrize("priority", [-(2**19), 0, 2**19 - 1])
    def test_priorities_in_range_are_accepted(self, priority):
        sim = Simulator()
        fired = []
        sim.schedule(1, fired.append, priority=priority, arg=priority)
        sim.schedule_batched(1, fired.append, priority, priority)
        sim.run()
        assert fired == [priority, priority]
        assert sim.now == 1

    @pytest.mark.parametrize("priority", [-(2**19) - 1, 2**19, 2**40])
    def test_out_of_range_priority_raises(self, priority):
        sim = Simulator()
        with pytest.raises(SimulationError, match="priority"):
            sim.schedule(1, lambda: None, priority=priority)
        with pytest.raises(SimulationError, match="priority"):
            sim.schedule_at(1, lambda: None, priority=priority)
        with pytest.raises(SimulationError, match="priority"):
            sim.schedule_batched(1, lambda: None, None, priority)
        with pytest.raises(SimulationError, match="priority"):
            sim.schedule_batched_at(1, lambda: None, None, priority)
        assert sim.pending_events == 0

    def test_extreme_priorities_keep_their_tick(self):
        """The packed key must not let a priority spill into the time."""
        sim = Simulator()
        order = []
        sim.schedule(2, order.append, priority=-(2**19), arg="t2-low")
        sim.schedule(1, order.append, priority=2**19 - 1, arg="t1-high")
        sim.run()
        assert order == ["t1-high", "t2-low"]
