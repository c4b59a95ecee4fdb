"""Tests for the cost model, noise source, transports and firewall rules."""

from __future__ import annotations

import pytest

from repro.net.cost import CostModel, NoiseSource, PAPER_TESTBED
from repro.net.firewall import Direction, Firewall, FirewallRule
from repro.net.packet import Packet
from repro.net.transport import (
    HttpTransport,
    MulticastTransport,
    TcpTransport,
    TransportKind,
    transport_for,
)


class TestCostModel:
    def test_paper_calibration_publisher_side(self):
        """The noise-free calibration reproduces the paper's headline rates."""
        model = PAPER_TESTBED
        wire_1 = model.send_cost(1, 0)
        wire_4 = model.send_cost(4, 0)
        # ~10 events/s for JXTA-WIRE with one subscriber, ~3x slower with four.
        assert 1.0 / wire_1 == pytest.approx(10.0, rel=0.05)
        assert 2.0 < wire_4 / wire_1 < 3.0

    def test_paper_calibration_subscriber_side(self):
        model = PAPER_TESTBED
        rate_wire = 1.0 / model.receive_cost(1, 0)
        rate_tps = 1.0 / (
            model.receive_cost(1, 0) + model.app_layer_receive + model.tps_layer_receive
        )
        assert rate_wire == pytest.approx(7.8, rel=0.05)
        assert rate_tps == pytest.approx(6.0, rel=0.08)

    def test_layer_gap_is_about_one_percent(self):
        model = PAPER_TESTBED
        sr_jxta = model.send_cost(1, 1910) + model.app_layer_send
        sr_tps = sr_jxta + model.tps_layer_send
        assert (sr_tps - sr_jxta) / sr_jxta < 0.02

    def test_send_cost_grows_with_connections_and_size(self):
        model = PAPER_TESTBED
        assert model.send_cost(2, 0) > model.send_cost(1, 0)
        assert model.send_cost(1, 10_000) > model.send_cost(1, 0)
        # Zero connections is charged like one (there is always some fan-out work).
        assert model.send_cost(0, 0) == model.send_cost(1, 0)

    def test_scaled_preserves_ratios(self):
        model = PAPER_TESTBED
        fast = model.scaled(0.5)
        assert fast.wire_send_base == pytest.approx(model.wire_send_base * 0.5)
        ratio_before = model.send_cost(4, 0) / model.send_cost(1, 0)
        ratio_after = fast.send_cost(4, 0) / fast.send_cost(1, 0)
        assert ratio_after == pytest.approx(ratio_before)

    def test_without_noise(self):
        quiet = PAPER_TESTBED.without_noise()
        assert quiet.wire_jitter == 0.0
        assert quiet.wire_loss_rate == 0.0
        # The original is unchanged (frozen dataclass semantics).
        assert PAPER_TESTBED.wire_jitter > 0.0

    def test_transmission_and_serialization_time(self):
        model = CostModel(per_byte=1e-6, lan_bandwidth=1e6)
        assert model.transmission_time(1_000_000) == pytest.approx(1.0)
        assert model.serialization_time(1000) == pytest.approx(0.001)


class TestNoiseSource:
    def test_determinism(self):
        a, b = NoiseSource(7), NoiseSource(7)
        assert [a.jittered(1.0, 0.3) for _ in range(5)] == [
            b.jittered(1.0, 0.3) for _ in range(5)
        ]

    def test_different_seeds_differ(self):
        a, b = NoiseSource(7), NoiseSource(8)
        assert [a.jittered(1.0, 0.3) for _ in range(5)] != [
            b.jittered(1.0, 0.3) for _ in range(5)
        ]

    def test_zero_sigma_is_identity(self):
        noise = NoiseSource(1)
        assert noise.jittered(2.5, 0.0) == 2.5

    def test_jitter_mean_is_near_base(self):
        noise = NoiseSource(2)
        samples = [noise.jittered(1.0, 0.2) for _ in range(2000)]
        assert 0.9 < sum(samples) / len(samples) < 1.15

    def test_chance_extremes(self):
        noise = NoiseSource(3)
        assert not noise.chance(0.0)
        assert noise.chance(1.0)

    def test_fork_is_deterministic_and_independent(self):
        base = NoiseSource(9)
        fork_a = base.fork(1)
        fork_b = NoiseSource(9).fork(1)
        assert fork_a.jittered(1.0, 0.3) == fork_b.jittered(1.0, 0.3)
        assert base.fork(1).seed != base.fork(2).seed


class TestTransports:
    def test_lookup_by_kind_and_name(self):
        assert transport_for(TransportKind.TCP) is TcpTransport
        assert transport_for("http") is HttpTransport
        assert transport_for("multicast") is MulticastTransport

    def test_reliability_flags(self):
        assert TcpTransport.reliable
        assert HttpTransport.reliable
        assert not MulticastTransport.reliable

    def test_http_has_more_overhead_than_tcp(self):
        assert HttpTransport.per_packet_overhead > TcpTransport.per_packet_overhead

    def test_point_to_point(self):
        assert TcpTransport.point_to_point
        assert not MulticastTransport.point_to_point


class TestFirewall:
    def _packet(self, transport="tcp", protocol="jxta"):
        return Packet(source="a", destination="b", payload=b"", transport=transport, protocol=protocol)

    def test_open_firewall_allows_everything(self):
        firewall = Firewall.open()
        assert firewall.permits(self._packet(), Direction.INBOUND)
        assert firewall.permits(self._packet("multicast"), Direction.OUTBOUND)

    def test_corporate_default_blocks_inbound_tcp_allows_http(self):
        firewall = Firewall.corporate_default()
        assert not firewall.permits(self._packet("tcp"), Direction.INBOUND)
        assert firewall.permits(self._packet("http"), Direction.INBOUND)
        assert firewall.permits(self._packet("http"), Direction.OUTBOUND)
        assert not firewall.permits(self._packet("multicast"), Direction.OUTBOUND)

    def test_first_matching_rule_wins(self):
        firewall = Firewall(
            rules=[
                FirewallRule("allow", transport=TransportKind.TCP),
                FirewallRule("deny", transport=TransportKind.TCP),
            ]
        )
        assert firewall.permits(self._packet("tcp"), Direction.INBOUND)

    def test_default_policies(self):
        firewall = Firewall(default_inbound="deny")
        assert not firewall.permits(self._packet(), Direction.INBOUND)
        assert firewall.permits(self._packet(), Direction.OUTBOUND)

    def test_protocol_specific_rule(self):
        firewall = Firewall(rules=[FirewallRule("deny", protocol="experimental")])
        assert firewall.permits(self._packet(protocol="jxta"), Direction.INBOUND)
        assert not firewall.permits(self._packet(protocol="experimental"), Direction.INBOUND)

    def test_blocked_counter(self):
        firewall = Firewall(default_inbound="deny")
        firewall.permits(self._packet(), Direction.INBOUND)
        firewall.permits(self._packet(), Direction.INBOUND)
        assert firewall.blocked_count == 2

    def test_allows_is_the_same_answer_without_the_count(self):
        firewall = Firewall.corporate_default()
        for transport in ("tcp", "http", "multicast"):
            for direction in Direction:
                answer = firewall.allows(transport, "jxta", direction)
                assert firewall.blocked_count == 0
                assert firewall.permits(self._packet(transport), direction) == answer
                firewall.blocked_count = 0

    def test_invalid_rule_action_rejected(self):
        with pytest.raises(ValueError):
            FirewallRule("maybe")

    def test_invalid_default_policy_rejected(self):
        with pytest.raises(ValueError):
            Firewall(default_inbound="whatever")
