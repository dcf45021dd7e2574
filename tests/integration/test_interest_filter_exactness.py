"""Interest filtering is exact: whole runs equal a full fan-out oracle.

The analytical address network calls a TS-Snoop node's ordered handler only
when the node sent the transaction, is the block's home, or has its bit set
in the shared per-block interest mask.  The oracle below is a test-only
network built without a home resolver, so every node processes every
transaction, as in the paper (each node then resolves the home itself).  Both sides must produce ``==`` results on
both snooping protocols, both topologies and both consistency models, with
perturbed replicas and the coherence checker on.
"""

import pytest

from repro import api
from repro.core.analytical_ordering import AnalyticalTimestampNetwork
from repro.processor.consistency import CoherenceChecker
from repro.protocols import ts_snoop
from repro.system import builder

CASES = [
    (protocol, network, consistency)
    for protocol in ("ts-snoop", "moesi-snoop")
    for network in ("butterfly", "torus")
    for consistency in ("sc", "tso")
]
#: The butterfly runs at 64 nodes, where the fan-out is widest.
NODES = {"butterfly": 64, "torus": 16}


class FilteredNetwork(AnalyticalTimestampNetwork):
    """The production network, recording its instances."""

    instances: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.instances.append(self)


class FullFanOutNetwork(FilteredNetwork):
    """Oracle: every endpoint receives every ordered transaction."""

    instances: list = []

    def __init__(self, *args, **kwargs):
        kwargs["home_resolver"] = None
        super().__init__(*args, **kwargs)


class RecordingChecker(CoherenceChecker):
    instances: list = []

    def __init__(self):
        super().__init__()
        self.instances.append(self)


def _run(monkeypatch, network_class, protocol, network, consistency):
    network_class.instances.clear()
    RecordingChecker.instances.clear()
    monkeypatch.setattr(ts_snoop, "AnalyticalTimestampNetwork", network_class)
    monkeypatch.setattr(builder, "CoherenceChecker", RecordingChecker)
    result = api.run_experiment(
        workload="oltp",
        protocol=protocol,
        network=network,
        scale=0.03,
        num_nodes=NODES[network],
        consistency=consistency,
        enable_checker=True,
        perturbation_replicas=2,
        jobs=1,
    )
    networks = list(network_class.instances)
    assert len(networks) == 2, "expected one address network per replica"
    checkers = list(RecordingChecker.instances)
    assert len(checkers) == 2 and all(checker.clean for checker in checkers)
    return result, networks


@pytest.mark.parametrize("protocol,network,consistency", CASES)
def test_filtered_run_equals_full_fan_out(monkeypatch, protocol, network, consistency):
    filtered, filtered_networks = _run(
        monkeypatch, FilteredNetwork, protocol, network, consistency
    )
    oracle, oracle_networks = _run(
        monkeypatch, FullFanOutNetwork, protocol, network, consistency
    )
    assert filtered == oracle
    # The two sides really differ in what they skip.
    for net in oracle_networks:
        assert net.stats.counter("snoops_filtered").value == 0
    for net in filtered_networks:
        assert net.stats.counter("snoops_filtered").value > 0
