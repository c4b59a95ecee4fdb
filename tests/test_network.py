"""Tests for the simulated network: nodes, links, delivery, partitions, firewalls."""

from __future__ import annotations

import pytest

from repro.net.cost import NoiseSource
from repro.net.firewall import Direction, Firewall, FirewallRule
from repro.net.network import LinkSpec, Network, NetworkError, NoRouteError, UnknownNodeError
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.simclock import Simulator
from repro.net.transport import TransportKind


def _heal(network, a, b):
    """Undo ``network.partition(a, b)`` (the network has no public heal)."""
    network._partitions.discard(frozenset((a, b)))


@pytest.fixture
def network():
    return Network(Simulator(), noise=NoiseSource(1))


def _collect(node):
    received = []
    node.add_handler(received.append)
    return received


class TestTopology:
    def test_create_and_lookup_nodes(self, network):
        node = network.create_node("host-a")
        assert network.node("host-a") is node
        assert network.has_node("host-a")
        assert not network.has_node("missing")

    def test_duplicate_address_rejected(self, network):
        network.create_node("host-a")
        with pytest.raises(NetworkError):
            network.attach(Node("host-a"))

    def test_unknown_node_lookup_raises(self, network):
        with pytest.raises(UnknownNodeError):
            network.node("nope")

    def test_segments(self, network):
        network.create_node("a", segment="lan0")
        network.create_node("b", segment="lan1")
        assert network.segment_of("a") == "lan0"
        assert network.segment_of("b") == "lan1"
        assert network.segment_members("lan0") == ["a"]

    def test_same_segment_is_reachable_by_default(self, network):
        network.create_node("a")
        network.create_node("b")
        assert network.reachable("a", "b")

    def test_different_segments_need_explicit_link(self, network):
        network.create_node("a", segment="lan0")
        network.create_node("b", segment="lan1")
        assert not network.reachable("a", "b")
        network.connect("a", "b")
        assert network.reachable("a", "b")


class TestUnicastDelivery:
    def test_packet_is_delivered_with_latency(self, network):
        sender = network.create_node("a")
        receiver = network.create_node("b")
        received = _collect(receiver)
        sender.send(Packet(source="a", destination="b", payload=b"hello"))
        assert received == []  # nothing delivered before time advances
        network.simulator.run()
        assert len(received) == 1
        assert received[0].payload == b"hello"
        assert network.simulator.now > 0.0

    def test_delivery_to_unknown_destination_raises(self, network):
        sender = network.create_node("a")
        with pytest.raises(UnknownNodeError):
            sender.send(Packet(source="a", destination="ghost", payload=b""))

    def test_send_without_network_raises(self):
        node = Node("lonely")
        with pytest.raises(NetworkError):
            node.send(Packet(source="lonely", destination="x", payload=b""))

    def test_partition_blocks_and_heal_restores(self, network):
        sender = network.create_node("a")
        receiver = network.create_node("b")
        received = _collect(receiver)
        network.partition("a", "b")
        assert not network.reachable("a", "b")
        with pytest.raises(NoRouteError):
            sender.send(Packet(source="a", destination="b", payload=b"x"))
        _heal(network, "a", "b")
        sender.send(Packet(source="a", destination="b", payload=b"x"))
        network.simulator.run()
        assert len(received) == 1

    def test_offline_node_does_not_receive(self, network):
        sender = network.create_node("a")
        receiver = network.create_node("b")
        received = _collect(receiver)
        receiver.go_offline()
        sender.send(Packet(source="a", destination="b", payload=b"x"))
        network.simulator.run()
        assert received == []
        receiver.go_online()
        sender.send(Packet(source="a", destination="b", payload=b"y"))
        network.simulator.run()
        assert len(received) == 1

    def test_transport_mismatch_is_unreachable(self, network):
        network.create_node("a", transports=[TransportKind.TCP])
        network.create_node("b", transports=[TransportKind.HTTP])
        assert not network.reachable("a", "b", TransportKind.TCP)
        assert not network.reachable("a", "b", TransportKind.HTTP)

    def test_larger_packets_take_longer(self, network):
        sender = network.create_node("a")
        receiver = network.create_node("b")
        arrival_times = []
        receiver.add_handler(lambda p: arrival_times.append(network.simulator.now))
        slow_spec = LinkSpec(latency=0.001, bandwidth=1000.0, jitter=0.0)
        network.connect("a", "b", slow_spec)
        sender.send(Packet(source="a", destination="b", payload=b"x" * 10))
        network.simulator.run()
        small_time = arrival_times[-1]
        start = network.simulator.now
        sender.send(Packet(source="a", destination="b", payload=b"x" * 1000))
        network.simulator.run()
        big_time = arrival_times[-1] - start
        assert big_time > small_time


class TestMulticastDelivery:
    def test_multicast_reaches_all_segment_members(self, network):
        sender = network.create_node("a")
        receivers = [network.create_node(f"r{i}") for i in range(3)]
        collected = [_collect(node) for node in receivers]
        other = network.create_node("far", segment="lan1")
        far_received = _collect(other)
        sender.send(
            Packet(
                source="a",
                destination=Packet.MULTICAST_ADDRESS,
                payload=b"all",
                transport="multicast",
            )
        )
        network.simulator.run()
        assert all(len(received) == 1 for received in collected)
        assert far_received == []  # different segment: multicast does not cross

    def test_multicast_skips_non_multicast_nodes(self, network):
        sender = network.create_node("a")
        tcp_only = network.create_node("tcp-only", transports=[TransportKind.TCP])
        received = _collect(tcp_only)
        sender.send(
            Packet(
                source="a",
                destination=Packet.MULTICAST_ADDRESS,
                payload=b"all",
                transport="multicast",
            )
        )
        network.simulator.run()
        assert received == []

    def test_multicast_loss(self):
        lossy = Network(
            Simulator(),
            default_link=LinkSpec(latency=0.001, loss_rate=1.0),
            noise=NoiseSource(3),
        )
        sender = lossy.create_node("a")
        receiver = lossy.create_node("b")
        received = _collect(receiver)
        sender.send(
            Packet(
                source="a",
                destination=Packet.MULTICAST_ADDRESS,
                payload=b"x",
                transport="multicast",
            )
        )
        lossy.simulator.run()
        assert received == []
        assert lossy.metrics.counters()["packets_lost"] == 1

    def test_reliable_transport_ignores_loss_rate(self):
        lossy = Network(
            Simulator(),
            default_link=LinkSpec(latency=0.001, loss_rate=1.0),
            noise=NoiseSource(3),
        )
        sender = lossy.create_node("a")
        receiver = lossy.create_node("b")
        received = _collect(receiver)
        sender.send(Packet(source="a", destination="b", payload=b"x", transport="tcp"))
        lossy.simulator.run()
        assert len(received) == 1


class TestFirewallIntegration:
    def test_inbound_tcp_blocked_by_corporate_firewall(self, network):
        network.create_node("a")
        network.create_node("b", firewall=Firewall.corporate_default())
        assert not network.reachable("a", "b", TransportKind.TCP)
        assert network.reachable("a", "b", TransportKind.HTTP)

    def test_outbound_deny_rule(self, network):
        firewall = Firewall(
            rules=[FirewallRule("deny", direction=Direction.OUTBOUND)],
        )
        sender = network.create_node("a", firewall=firewall)
        network.create_node("b")
        assert not network.reachable("a", "b", TransportKind.TCP)

    def test_queries_count_nothing_and_a_refused_packet_counts_once(self, network):
        """``blocked_count`` counts refused packets, not questions asked."""
        firewall = Firewall(default_inbound="deny")
        sender = network.create_node("a")
        network.create_node("b", firewall=firewall)
        assert not network.reachable("a", "b", TransportKind.TCP)
        assert not network.reachable("a", "b", TransportKind.HTTP)
        assert firewall.blocked_count == 0
        with pytest.raises(NoRouteError):
            sender.send(Packet(source="a", destination="b", payload=b"x"))
        assert firewall.blocked_count == 1
        assert network.metrics.counters()["packets_blocked"] == 1

    def test_protocol_rule_applies_to_unicast(self, network):
        """The unicast decision is taken on the real packet, protocol included
        (it used to be taken on a probe that was always ``"jxta"``)."""
        firewall = Firewall(rules=[FirewallRule("deny", protocol="experimental")])
        sender = network.create_node("a")
        received = _collect(network.create_node("b", firewall=firewall))
        with pytest.raises(NoRouteError):
            sender.send(
                Packet(source="a", destination="b", payload=b"x", protocol="experimental")
            )
        sender.send(Packet(source="a", destination="b", payload=b"y", protocol="jxta"))
        network.simulator.run()
        assert [packet.payload for packet in received] == [b"y"]
        assert firewall.blocked_count == 1

    def test_node_metrics_track_traffic(self, network):
        sender = network.create_node("a")
        receiver = network.create_node("b")
        sender.send(Packet(source="a", destination="b", payload=b"12345"))
        network.simulator.run()
        assert sender.metrics.counters()["packets_sent"] == 1
        assert sender.metrics.counters()["bytes_sent"] == 5
        assert receiver.metrics.counters()["packets_received"] == 1
        assert receiver.metrics.counters()["bytes_received"] == 5


class TestPacket:
    def test_retargeted_keeps_identity(self):
        packet = Packet(source="a", destination="*", payload=b"x", transport="multicast")
        copy = packet.retargeted("c")
        assert copy.destination == "c"
        assert copy.payload is packet.payload
        assert (copy.source, copy.transport) == ("a", "multicast")
        assert packet.destination == "*"

    def test_size_and_multicast_flag(self):
        packet = Packet(source="a", destination="*", payload=b"abc")
        assert packet.size == 3
        assert packet.is_multicast
        assert not Packet(source="a", destination="b", payload=b"").is_multicast
