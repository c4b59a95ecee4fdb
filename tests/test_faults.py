"""Fault-injection plan tests: determinism, link resolution, network counters.

The :class:`~repro.net.faults.FaultPlan` is the chaos layer's contract with
the reliability machinery above it: deterministic under a fixed seed (so
every chaos test is reproducible), isolated from the network's own noise
source (installing a plan must not shift existing seeded behaviour), and
fully accounted (every dropped/duplicated/delayed packet shows up in a
counter, never vanishing silently).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.cost import NoiseSource
from repro.net.faults import ANY, FaultPlan, LinkFaults
from repro.net.firewall import Firewall
from repro.net.network import Network, NoRouteError, UnknownNodeError
from repro.net.packet import Packet
from repro.net.simclock import Simulator


class TestLinkResolution:
    def test_exact_link_beats_wildcards(self):
        plan = FaultPlan()
        exact = LinkFaults(drop=0.5)
        plan.set_link(ANY, ANY, LinkFaults(drop=0.1))
        plan.set_link("a", ANY, LinkFaults(drop=0.2))
        plan.set_link(ANY, "b", LinkFaults(drop=0.3))
        plan.set_link("a", "b", exact)
        assert plan.faults_for("a", "b") is exact

    def test_resolution_precedence_order(self):
        plan = FaultPlan(default=LinkFaults(drop=0.05))
        src_any = LinkFaults(drop=0.2)
        any_dst = LinkFaults(drop=0.3)
        plan.set_link("a", ANY, src_any)
        plan.set_link(ANY, "b", any_dst)
        assert plan.faults_for("a", "x") is src_any
        assert plan.faults_for("x", "b") is any_dst
        # src-side wildcard wins over dst-side when both match.
        assert plan.faults_for("a", "b") is src_any
        # Nothing matches: the plan-wide default applies.
        assert plan.faults_for("x", "y") is plan.default

    def test_symmetric_installs_both_directions(self):
        plan = FaultPlan()
        faults = LinkFaults(duplicate=0.4)
        plan.set_link("a", "b", faults, symmetric=True)
        assert plan.faults_for("a", "b") is faults
        assert plan.faults_for("b", "a") is faults

    def test_clear_link_restores_default(self):
        plan = FaultPlan(default=None)
        plan.set_link("a", "b", LinkFaults(drop=1.0))
        plan.clear_link("a", "b")
        assert plan.faults_for("a", "b") is None


class TestScriptedDrops:
    def test_drop_next_consumes_exactly_count(self):
        plan = FaultPlan()
        plan.drop_next("a", "b", count=2)
        assert plan.decide("a", "b").drop
        assert plan.decide("a", "b").drop
        decision = plan.decide("a", "b")
        assert not decision.drop
        assert plan.scripted == 2
        assert plan.pending_scripted_drops("a", "b") == 0

    def test_scripted_drops_are_per_link(self):
        plan = FaultPlan()
        plan.drop_next("a", "b")
        assert not plan.decide("b", "a").drop
        assert plan.decide("a", "b").drop

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().drop_next("a", "b", count=-1)

    def test_scripted_decisions_are_flagged(self):
        plan = FaultPlan(default=LinkFaults(drop=1.0))
        plan.drop_next("a", "b")
        assert plan.decide("a", "b").scripted
        # Probabilistic drops are not flagged as scripted.
        assert not plan.decide("a", "b").scripted


class TestDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**31), draws=st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_same_seed_same_decision_sequence(self, seed, draws):
        spec = LinkFaults(drop=0.2, duplicate=0.3, reorder=0.4, delay=0.3)
        plans = [FaultPlan(seed=seed, default=spec) for _ in range(2)]
        sequences = [
            [plan.decide("a", "b") for _ in range(draws)] for plan in plans
        ]
        assert sequences[0] == sequences[1]

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        count=st.integers(0, 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_scripted_drops_fire_regardless_of_seed(self, seed, count):
        plan = FaultPlan(seed=seed)
        if count:
            plan.drop_next("a", "b", count=count)
        outcomes = [plan.decide("a", "b").drop for _ in range(count + 5)]
        assert outcomes == [True] * count + [False] * 5

    def test_chaos_plans_with_same_seed_agree(self):
        left, right = FaultPlan.chaos(seed=7), FaultPlan.chaos(seed=7)
        for _ in range(100):
            assert left.decide("x", "y") == right.decide("x", "y")

    def test_stats_account_for_every_decision(self):
        plan = FaultPlan(seed=3, default=LinkFaults(drop=0.5, duplicate=0.5))
        for _ in range(200):
            plan.decide("a", "b")
        assert plan.decisions == 200
        assert plan.dropped > 0
        assert plan.duplicated > 0


def _two_nodes(network):
    sender = network.create_node("a")
    receiver = network.create_node("b")
    received = []
    receiver.add_handler(received.append)
    return sender, received


class TestNetworkFaultCounters:
    def _network(self, plan=None):
        return Network(Simulator(), noise=NoiseSource(1), fault_plan=plan)

    def test_dropped_packets_are_counted_not_delivered(self):
        network = self._network(FaultPlan(default=LinkFaults(drop=1.0)))
        sender, received = _two_nodes(network)
        sender.send(Packet(source="a", destination="b", payload=b"x"))
        network.simulator.run()
        assert received == []
        counters = network.metrics.counters()
        assert counters["faults_dropped"] == 1
        assert counters["packets_lost"] == 1

    def test_duplicated_packets_deliver_twice(self):
        network = self._network(FaultPlan(default=LinkFaults(duplicate=1.0)))
        sender, received = _two_nodes(network)
        sender.send(Packet(source="a", destination="b", payload=b"x"))
        network.simulator.run()
        assert len(received) == 2
        assert network.metrics.counters()["faults_duplicated"] == 1

    def test_delayed_packets_arrive_late_but_arrive(self):
        network = self._network(
            FaultPlan(default=LinkFaults(delay=1.0, delay_window=0.5))
        )
        sender, received = _two_nodes(network)
        sender.send(Packet(source="a", destination="b", payload=b"x"))
        network.simulator.run()
        assert len(received) == 1
        assert network.metrics.counters()["faults_delayed"] == 1

    def test_scripted_drop_counts_separately(self):
        plan = FaultPlan()
        network = self._network(plan)
        sender, received = _two_nodes(network)
        plan.drop_next("a", "b")
        sender.send(Packet(source="a", destination="b", payload=b"x"))
        sender.send(Packet(source="a", destination="b", payload=b"y"))
        network.simulator.run()
        assert len(received) == 1
        counters = network.metrics.counters()
        assert counters["faults_scripted"] == 1
        assert counters["faults_dropped"] == 1

    def test_installing_a_plan_does_not_shift_existing_noise(self):
        # Same seed, same traffic: latencies (driven by the network's own
        # NoiseSource) must be identical with and without a no-op fault plan.
        arrivals = []
        for plan in (None, FaultPlan(default=LinkFaults())):
            network = Network(Simulator(), noise=NoiseSource(9), fault_plan=plan)
            sender, _ = _two_nodes(network)
            times = []
            network.node("b").add_handler(
                lambda packet, network=network: times.append(network.simulator.now)
            )
            for index in range(5):
                sender.send(Packet(source="a", destination="b", payload=b"p"))
            network.simulator.run()
            arrivals.append(times)
        assert arrivals[0] == arrivals[1]


class TestRoutingFailureCounters:
    def test_unknown_destination_counts_no_route(self):
        network = Network(Simulator(), noise=NoiseSource(1))
        sender = network.create_node("a")
        with pytest.raises(UnknownNodeError):
            sender.send(Packet(source="a", destination="ghost", payload=b""))
        assert network.metrics.counters()["packets_no_route"] == 1

    def test_unreachable_destination_counts_no_route(self):
        network = Network(Simulator(), noise=NoiseSource(1))
        sender = network.create_node("a", segment="lan0")
        network.create_node("b", segment="lan1")
        with pytest.raises(NoRouteError):
            sender.send(Packet(source="a", destination="b", payload=b""))
        counters = network.metrics.counters()
        assert counters["packets_no_route"] == 1
        assert "packets_blocked" not in counters

    def test_firewalled_destination_counts_blocked_and_no_route(self):
        network = Network(Simulator(), noise=NoiseSource(1))
        sender = network.create_node("a")
        network.create_node("b", firewall=Firewall(default_inbound="deny"))
        with pytest.raises(NoRouteError):
            sender.send(Packet(source="a", destination="b", payload=b""))
        counters = network.metrics.counters()
        assert counters["packets_blocked"] == 1
        assert counters["packets_no_route"] == 1

    def test_refused_packet_is_counted_once_and_as_sent_nowhere(self):
        network = Network(Simulator(), noise=NoiseSource(1))
        firewall = Firewall(default_inbound="deny")
        sender = network.create_node("a")
        network.create_node("b", firewall=firewall)
        assert not network.reachable("a", "b")  # a query: counts nothing
        with pytest.raises(NoRouteError):
            sender.send(Packet(source="a", destination="b", payload=b"refused"))
        assert firewall.blocked_count == 1
        counters = network.metrics.counters()
        assert counters["packets_blocked"] == 1
        assert counters["packets_no_route"] == 1
        assert "packets_offered" not in counters
        assert "packets_sent" not in sender.metrics.counters()
