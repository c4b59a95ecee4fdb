"""Tests for the rendez-vous service (leases) and the ERP route inspection."""

from __future__ import annotations

import pytest

from repro.jxta.rendezvous import DEFAULT_LEASE_DURATION
from repro.net.firewall import Firewall
from repro.net.network import LinkSpec
from repro.net.transport import TransportKind


class TestRendezvousLeases:
    def test_lease_request_and_grant(self, builder):
        rendezvous = builder.add_rendezvous("rdv-0")
        client = builder.add_peer("client", connect_rendezvous=False)
        client.world_group.rendezvous.connect("rdv-0")
        builder.settle(rounds=2)
        held = client.world_group.rendezvous.held_leases()
        granted = rendezvous.world_group.rendezvous.granted_leases()
        assert client.world_group.rendezvous.is_connected()
        assert list(held) == [rendezvous.peer_id.to_urn()]
        assert list(granted) == [client.peer_id.to_urn()]
        assert held[rendezvous.peer_id.to_urn()].expires_at == pytest.approx(
            held[rendezvous.peer_id.to_urn()].granted_at + DEFAULT_LEASE_DURATION, rel=0.1
        )
        # The endpoint books reflect the connection on both sides.
        assert rendezvous.node.address in client.endpoint.rendezvous_connections().values()
        assert client.node.address in rendezvous.endpoint.client_connections().values()

    def test_non_rendezvous_peer_refuses_leases(self, builder):
        plain = builder.add_peer("plain", connect_rendezvous=False)
        client = builder.add_peer("client", connect_rendezvous=False)
        client.world_group.rendezvous.connect("plain")
        builder.settle(rounds=2)
        assert not client.world_group.rendezvous.is_connected()
        assert plain.metrics.counters().get("rendezvous_requests_refused", 0) == 1

    def test_builder_connects_new_peers_automatically(self, lan):
        builder = lan
        rendezvous = builder.peer_named("rdv-0")
        assert len(rendezvous.world_group.rendezvous.granted_leases()) == 3

    def test_disconnect_cancels_lease(self, builder):
        rendezvous = builder.add_rendezvous("rdv-0")
        client = builder.add_peer("client")
        builder.settle(rounds=2)
        client.world_group.rendezvous.disconnect(rendezvous.peer_id)
        builder.settle(rounds=2)
        assert not client.world_group.rendezvous.is_connected()
        assert rendezvous.world_group.rendezvous.granted_leases() == {}
        assert client.endpoint.rendezvous_connections() == {}

    def test_lease_expiry(self, builder):
        rendezvous = builder.add_rendezvous("rdv-0")
        client = builder.add_peer("client")
        builder.settle(rounds=2)
        builder.simulator.run_until(builder.simulator.now + DEFAULT_LEASE_DURATION + 10)
        assert rendezvous.world_group.rendezvous.expire_leases() == 1
        assert rendezvous.world_group.rendezvous.granted_leases() == {}

    def test_lease_renewal_keeps_connection_alive(self, builder):
        rendezvous = builder.add_rendezvous("rdv-0")
        client = builder.add_peer("client")
        builder.settle(rounds=2)
        client.world_group.rendezvous.start_lease_renewal(interval=DEFAULT_LEASE_DURATION / 3)
        builder.simulator.run_until(builder.simulator.now + DEFAULT_LEASE_DURATION + 20)
        # The grant has been refreshed by renewals, so nothing expires.
        assert rendezvous.world_group.rendezvous.expire_leases() == 0
        client.world_group.rendezvous.stop_lease_renewal()

    def test_disconnect_without_a_lease_sends_nothing(self, two_peers):
        alpha, beta, builder = two_peers
        sent = alpha.metrics.counters().get("endpoint_sent", 0)
        alpha.world_group.rendezvous.disconnect(beta.peer_id)
        builder.settle(rounds=2)
        assert alpha.metrics.counters().get("endpoint_sent", 0) == sent
        assert not alpha.world_group.rendezvous.is_connected()


class TestRouting:
    def test_direct_route_prefers_tcp(self, two_peers):
        alpha, beta, _builder = two_peers
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        route = alpha.world_group.router.find_route(beta.peer_id)
        assert route.direct
        assert route.transport == TransportKind.TCP
        assert route.hop_count == 0
        assert route.reachable

    def test_route_to_firewalled_peer_uses_http(self, builder):
        alpha = builder.add_peer("alpha", connect_rendezvous=False)
        guarded = builder.add_peer(
            "guarded", connect_rendezvous=False, firewall=Firewall.corporate_default()
        )
        builder.settle(rounds=2)
        alpha.endpoint.learn_address(guarded.peer_id, guarded.node.address)
        route = alpha.world_group.router.find_route(guarded.peer_id)
        assert route.direct
        assert route.transport == TransportKind.HTTP

    def test_relayed_route_through_rendezvous(self, builder):
        rendezvous = builder.add_rendezvous("rdv-0")
        alpha = builder.add_peer("alpha")
        beta = builder.add_peer("beta", segment="lan1", connect_rendezvous=False)
        builder.connect_segments("beta", "rdv-0", LinkSpec.lan())
        beta.world_group.rendezvous.connect("rdv-0")
        builder.settle(rounds=4)
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        route = alpha.world_group.router.find_route(beta.peer_id)
        assert not route.direct
        assert route.hops == [rendezvous.node.address]
        assert route.reachable
        assert alpha.world_group.router.can_reach(beta.peer_id)

    def test_unknown_peer_is_unreachable(self, two_peers):
        alpha, beta, _builder = two_peers
        alpha.endpoint.forget_address(beta.peer_id)
        route = alpha.world_group.router.find_route(beta.peer_id)
        assert not route.reachable

    def test_partitioned_peers_without_relay_unreachable(self, two_peers):
        alpha, beta, builder = two_peers
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        builder.network.partition(alpha.node.address, beta.node.address)
        route = alpha.world_group.router.find_route(beta.peer_id)
        assert not route.reachable

    def test_find_route_accepts_a_urn(self, two_peers):
        alpha, beta, _builder = two_peers
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        router = alpha.world_group.router
        assert router.find_route(beta.peer_id.to_urn()) == router.find_route(beta.peer_id)
        assert router.find_route(beta.peer_id.to_urn()).destination == beta.peer_id.to_urn()

    @staticmethod
    def _relayed_pair(builder):
        """``alpha`` on lan0 and ``beta`` on lan1, joined only through ``rdv-0``."""
        rendezvous = builder.add_rendezvous("rdv-0")
        alpha = builder.add_peer("alpha")
        beta = builder.add_peer("beta", segment="lan1", connect_rendezvous=False)
        builder.connect_segments("beta", "rdv-0", LinkSpec.lan())
        beta.world_group.rendezvous.connect("rdv-0")
        builder.settle(rounds=4)
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        return rendezvous, alpha, beta

    def test_no_route_when_the_relay_is_out_of_reach(self, builder):
        rendezvous, alpha, beta = self._relayed_pair(builder)
        builder.network.partition(alpha.node.address, rendezvous.node.address)
        route = alpha.world_group.router.find_route(beta.peer_id)
        assert not route.reachable
        assert route.hops == [] and route.hop_count == 0

    def test_no_route_when_the_relay_cannot_reach_the_destination(self, builder):
        rendezvous, alpha, beta = self._relayed_pair(builder)
        assert alpha.world_group.router.find_route(beta.peer_id).hop_count == 1
        builder.network.partition(rendezvous.node.address, beta.node.address)
        assert not alpha.world_group.router.can_reach(beta.peer_id)
