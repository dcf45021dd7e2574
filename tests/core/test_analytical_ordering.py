"""Tests for the closed-form address network and its agreement with the
detailed token-passing model."""

import pytest

from repro.core.analytical_ordering import AnalyticalTimestampNetwork
from repro.core.timestamp_network import TimestampAddressNetwork
from repro.network import make_topology
from repro.network.link import TrafficAccountant
from repro.network.message import Message, MessageKind
from repro.network.timing import NetworkTiming
from repro.sim.kernel import Simulator


def run_analytical(topology_name, injections, slack=0):
    topology = make_topology(topology_name)
    sim = Simulator()
    accountant = TrafficAccountant(num_links=topology.num_links)
    network = AnalyticalTimestampNetwork(sim, topology, NetworkTiming(),
                                         accountant=accountant,
                                         default_slack=slack)
    observations = {endpoint: [] for endpoint in topology.endpoints()}
    for endpoint in topology.endpoints():
        network.attach(endpoint,
                       lambda d, e=endpoint: observations[e].append(d))
    for index, (source, time) in enumerate(injections):
        message = Message(MessageKind.GETS, src=source, dst=None, block=index)
        sim.schedule_at(time, lambda m=message: network.broadcast(m))
    sim.run()
    return topology, network, accountant, observations


class TestAnalyticalNetwork:
    def test_every_endpoint_processes_every_broadcast(self):
        _t, _n, _a, obs = run_analytical("butterfly", [(0, 0), (3, 10)])
        assert all(len(deliveries) == 2 for deliveries in obs.values())

    def test_total_order_consistent(self):
        injections = [(1, 0), (14, 0), (7, 5), (7, 80), (2, 80)]
        _t, _n, _a, obs = run_analytical("torus", injections)
        reference = [d.message.msg_id for d in obs[0]]
        for deliveries in obs.values():
            assert [d.message.msg_id for d in deliveries] == reference

    def test_ordering_latency_formula(self):
        topology, network, _a, obs = run_analytical("butterfly", [(0, 0)])
        # Dovh + (Dmax + S + margin) * Dswitch = 4 + 4*15 = 64.
        assert network.ordering_latency() == 64
        assert obs[0][0].ordered_time == 64

    def test_ordering_latency_with_slack(self):
        _t, network, _a, _obs = run_analytical("torus", [(0, 0)], slack=2)
        # 4 + (4 + 2 + 1) * 15 = 109.
        assert network.ordering_latency() == 109

    def test_arrival_times_match_topology(self):
        topology, network, _a, obs = run_analytical("torus", [(0, 0)])
        for endpoint, deliveries in obs.items():
            expected = 4 + 15 * topology.broadcast_arrival_hops(0, endpoint)
            assert deliveries[0].arrival_time == expected
            assert network.arrival_latency(0, endpoint) == expected

    def test_traffic_recorded_once_per_broadcast(self):
        _t, _n, accountant, _obs = run_analytical("butterfly", [(0, 0), (1, 1)])
        assert accountant.total_bytes() == 2 * 21 * 8

    def test_attach_rejects_bad_endpoint(self):
        topology = make_topology("torus")
        network = AnalyticalTimestampNetwork(Simulator(), topology)
        with pytest.raises(ValueError):
            network.attach(99, lambda d: None)

    def test_negative_slack_rejected(self):
        topology = make_topology("torus")
        sim = Simulator()
        network = AnalyticalTimestampNetwork(sim, topology)
        network.attach(0, lambda d: None)
        with pytest.raises(ValueError):
            network.broadcast(Message(MessageKind.GETS, 0, None, 1), slack=-1)


class TestModelAgreement:
    """The analytical model must agree with the detailed token network."""

    INJECTIONS = [(0, 0), (5, 0), (3, 70), (12, 200), (7, 200), (0, 330)]

    @pytest.mark.parametrize("topology_name", ["butterfly", "torus"])
    def test_same_total_order(self, topology_name):
        _t, _n, _a, analytic = run_analytical(topology_name, self.INJECTIONS)

        topology = make_topology(topology_name)
        sim = Simulator()
        detailed_net = TimestampAddressNetwork(sim, topology, NetworkTiming())
        detailed = {endpoint: [] for endpoint in topology.endpoints()}
        for endpoint in topology.endpoints():
            detailed_net.attach(endpoint,
                                lambda d, e=endpoint: detailed[e].append(d))
        detailed_net.start()
        for index, (source, time) in enumerate(self.INJECTIONS):
            message = Message(MessageKind.GETS, src=source, dst=None, block=index)
            sim.schedule_at(time, lambda m=message: detailed_net.broadcast(m))
        sim.run(until=20_000)

        analytic_order = [d.message.block for d in analytic[0]]
        detailed_order = [d.message.block for d in detailed[0]]
        assert analytic_order == detailed_order

    @pytest.mark.parametrize("topology_name", ["butterfly", "torus"])
    def test_similar_ordering_latency(self, topology_name):
        """Ordering instants agree to within one token interval."""
        _t, _n, _a, analytic = run_analytical(topology_name, [(2, 0)])

        topology = make_topology(topology_name)
        sim = Simulator()
        detailed_net = TimestampAddressNetwork(sim, topology, NetworkTiming())
        observed = []
        detailed_net.attach(0, lambda d: observed.append(d))
        detailed_net.start()
        sim.schedule_at(0, lambda: detailed_net.broadcast(
            Message(MessageKind.GETS, src=2, dst=None, block=0)))
        sim.run(until=5_000)

        assert abs(analytic[0][0].ordered_time - observed[0].ordered_time) <= 15



def run_filtered(injections, attached, interest=None, home=lambda b: 0):
    """Torus network with a home resolver; only ``attached`` endpoints attach.

    ``injections`` are (source, time, block) triples.  Returns the network
    and one list per broadcast of the endpoint ids whose handler ran, in
    call order.
    """
    topology = make_topology("torus")
    sim = Simulator()
    network = AnalyticalTimestampNetwork(sim, topology, NetworkTiming(),
                                         home_resolver=home)
    if interest:
        network.interest.update(interest)
    calls = {}
    for endpoint in sorted(attached):
        network.attach(
            endpoint,
            lambda d, e=endpoint: calls.setdefault(d.message.msg_id,
                                                   []).append(e))
    messages = []
    for source, time, block in injections:
        message = Message(MessageKind.GETS, src=source, dst=None, block=block)
        messages.append(message)
        sim.schedule_at(time, lambda m=message: network.broadcast(m))
    sim.run()
    return network, [calls.get(m.msg_id, []) for m in messages]


class TestInterestFiltering:
    """With a home resolver, endpoints see only what they may act on;
    without one, everyone keeps full delivery."""

    def test_endpoint_needs_bit_source_or_home(self):
        injections = [(5, 0, 40), (5, 10, 41), (9, 20, 42)]
        # Block 40: nobody interested; 41: endpoints 3 and 12; 42: 9 only.
        interest = {41: (1 << 3) | (1 << 12), 42: 1 << 9}
        network, calls = run_filtered(injections, range(16), interest=interest,
                                      home=lambda block: block % 16)
        assert calls == [[5, 8], [3, 5, 9, 12], [9, 10]]
        assert network.stats.counter("snoops_filtered").value == 3 * 16 - 8

    def test_handlers_run_in_ascending_endpoint_order(self):
        interest = {7: sum(1 << e for e in (15, 1, 8, 3))}
        _n, calls = run_filtered([(14, 0, 7)], range(16), interest=interest,
                                 home=lambda block: 0)
        assert calls == [[0, 1, 3, 8, 14, 15]]

    def test_unattached_endpoint_ids_are_skipped(self):
        # Source 6, home 9 and interested endpoint 12 are not attached.
        interest = {3: (1 << 12) | (1 << 2)}
        network, calls = run_filtered([(6, 0, 3)], attached=(2, 5, 10),
                                      interest=interest, home=lambda block: 9)
        assert calls == [[2]]
        assert network.stats.counter("snoops_filtered").value == 2
        # The modelled network still delivers one copy per endpoint.
        assert network.stats.counter("deliveries").value == 16

    def test_without_home_resolver_everyone_receives(self):
        topology = make_topology("torus")
        sim = Simulator()
        network = AnalyticalTimestampNetwork(sim, topology, NetworkTiming())
        network.interest[5] = 1 << 4
        seen = []
        for endpoint in (0, 4, 8):
            network.attach(endpoint, lambda d, e=endpoint: seen.append(e))
        sim.schedule_at(0, lambda: network.broadcast(
            Message(MessageKind.GETS, src=1, dst=None, block=5)))
        sim.run()
        assert seen == [0, 4, 8]
        assert network.stats.counter("snoops_filtered").value == 0
