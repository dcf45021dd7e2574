"""Whole runs on the bucket-queue kernel equal runs on the heapq oracle.

The system builder's :class:`~repro.sim.kernel.Simulator` is swapped for
the test-local :class:`tests.reference_kernel.ReferenceSimulator` (one
heap entry per event, ordered by ``(time, priority, seq)``), and every
protocol must produce an ``==`` :class:`~repro.system.results.RunResult`,
``sim_events`` included, on both topologies and both consistency models,
with perturbed replicas and the coherence checker on.  One detailed
token-network run covers the token-priority events.
"""

import pytest

from repro import api
from repro.processor.consistency import CoherenceChecker
from repro.protocols import PROTOCOLS
from repro.system import builder
from tests.reference_kernel import ReferenceSimulator

CASES = [
    (protocol, network, consistency)
    for protocol in PROTOCOLS
    for network in ("butterfly", "torus")
    for consistency in ("sc", "tso")
]


class RecordingReference(ReferenceSimulator):
    instances: list = []

    def __init__(self):
        super().__init__()
        self.instances.append(self)


class RecordingChecker(CoherenceChecker):
    instances: list = []

    def __init__(self):
        super().__init__()
        self.instances.append(self)


def _run(monkeypatch, reference, **kwargs):
    RecordingReference.instances.clear()
    RecordingChecker.instances.clear()
    monkeypatch.setattr(builder, "CoherenceChecker", RecordingChecker)
    if reference:
        monkeypatch.setattr(builder, "Simulator", RecordingReference)
    try:
        result = api.run_experiment(enable_checker=True, jobs=1, **kwargs)
    finally:
        monkeypatch.undo()
    replicas = kwargs.get("perturbation_replicas", 1)
    assert len(RecordingReference.instances) == (replicas if reference else 0)
    checkers = RecordingChecker.instances
    assert len(checkers) == replicas and all(c.clean for c in checkers)
    return result


@pytest.mark.parametrize("protocol,network,consistency", CASES)
def test_run_results_equal_the_reference_kernel(
    monkeypatch, protocol, network, consistency
):
    # DSS's migratory sharing and NACK/retry traffic make whole-run
    # results the most sensitive to the order within a bucket.
    kwargs = dict(
        workload="dss",
        protocol=protocol,
        network=network,
        consistency=consistency,
        scale=0.1,
        perturbation_replicas=2,
    )
    expected = _run(monkeypatch, True, **kwargs)
    assert _run(monkeypatch, False, **kwargs) == expected
    assert expected.sim_events > 0


def test_detailed_token_network_equals_the_reference_kernel(monkeypatch):
    kwargs = dict(
        workload="oltp",
        protocol="ts-snoop",
        scale=0.01,
        detailed_address_network=True,
        slack=2,
    )
    expected = _run(monkeypatch, True, **kwargs)
    assert _run(monkeypatch, False, **kwargs) == expected
