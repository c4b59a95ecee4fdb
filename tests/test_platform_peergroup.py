"""Tests for peer bootstrapping, peer groups and the network builder."""

from __future__ import annotations

import pytest

from repro.jxta.advertisement import PeerGroupAdvertisement
from repro.jxta.errors import JxtaError, ServiceNotFoundError
from repro.jxta.ids import WORLD_GROUP_ID
from repro.jxta.peergroup import PeerGroup
from repro.jxta.platform import (
    JxtaNetworkBuilder,
    PeerGroupFactory,
    create_peer,
    lan_of,
    world_group_advertisement,
)
from repro.jxta.wire import WireService
from repro.net.network import Network
from repro.net.simclock import Simulator


class TestCreatePeer:
    def test_peer_boots_with_world_group_and_services(self):
        network = Network(Simulator())
        peer = create_peer(network, "solo")
        world = peer.world_group
        assert world.group_id == WORLD_GROUP_ID
        assert world.name == "NetPeerGroup"
        for name in (
            PeerGroup.RESOLVER,
            PeerGroup.DISCOVERY,
            PeerGroup.PIPE,
            PeerGroup.RENDEZVOUS,
            PeerGroup.WIRE,
        ):
            assert world.lookup_service(name) is not None
        assert len(world.service_names()) == 5

    def test_unknown_service_raises(self):
        network = Network(Simulator())
        peer = create_peer(network, "solo")
        with pytest.raises(ServiceNotFoundError):
            peer.world_group.lookup_service("jxta.service.nope")

    def test_duplicate_address_rejected(self):
        network = Network(Simulator())
        create_peer(network, "dup")
        with pytest.raises(Exception):
            create_peer(network, "dup")

    def test_peer_advertisement_reflects_roles_and_endpoints(self):
        network = Network(Simulator())
        peer = create_peer(network, "rdv", rendezvous=True, router=True)
        advertisement = peer.advertisement()
        assert advertisement.is_rendezvous and advertisement.is_router
        assert any(endpoint.startswith("tcp://") for endpoint in advertisement.endpoints)
        assert advertisement.peer_id == peer.peer_id

    def test_uptime_advances_with_virtual_time(self):
        network = Network(Simulator())
        peer = create_peer(network, "p")
        network.simulator.run_until(42.0)
        assert peer.uptime() == pytest.approx(42.0)

    def test_world_group_access_before_boot_fails(self):
        from repro.jxta.peer import Peer, PeerConfig
        from repro.net.node import Node

        network = Network(Simulator())
        node = network.create_node("raw")
        peer = Peer(node, network.simulator, PeerConfig(name="raw"))
        with pytest.raises(RuntimeError):
            peer.world_group


class TestPeerGroups:
    def test_new_group_is_scoped_and_registered(self, two_peers):
        alpha, _beta, _builder = two_peers
        advertisement = PeerGroupAdvertisement(name="workgroup")
        child = alpha.world_group.new_group(advertisement)
        assert child.parent is alpha.world_group
        assert child.group_id == advertisement.group_id
        assert child in alpha.joined_groups
        assert alpha.joined_groups[0] is alpha.world_group

    def test_peer_group_factory_two_step_init(self, two_peers):
        alpha, _beta, _builder = two_peers
        uninitialised = PeerGroupFactory.new_peer_group()
        with pytest.raises(JxtaError):
            uninitialised.lookup_service(WireService.WireName)
        advertisement = PeerGroupAdvertisement(name="wire-group")
        group = uninitialised.init(alpha.world_group, advertisement)
        assert isinstance(group.lookup_service(WireService.WireName), WireService)
        assert uninitialised.lookup_service(WireService.WireName) is group.wire

    def test_service_names_listed(self, two_peers):
        alpha, _beta, _builder = two_peers
        names = alpha.world_group.service_names()
        assert PeerGroup.WIRE in names and PeerGroup.DISCOVERY in names

    def test_figure_15_accessors_describe_the_local_view(self, two_peers):
        alpha, _beta, _builder = two_peers
        world = alpha.world_group
        assert world.get_id() == WORLD_GROUP_ID == world.group_id
        assert world.get_peer_id() == alpha.peer_id
        assert world.get_advertisement() is world.advertisement

    def test_world_group_advertisement_helper(self):
        advertisement = world_group_advertisement()
        assert advertisement.group_id == WORLD_GROUP_ID
        assert advertisement.name == "NetPeerGroup"


class TestBuilder:
    def test_lan_of_builds_named_peers(self):
        builder = lan_of(3, seed=5)
        builder.settle(rounds=4)
        assert builder.peer_named("rdv-0").is_rendezvous
        assert len(builder.peers) == 4
        with pytest.raises(JxtaError):
            builder.peer_named("missing")

    def test_lan_without_rendezvous(self):
        builder = lan_of(2, seed=5, with_rendezvous=False)
        assert all(not peer.is_rendezvous for peer in builder.peers)

    def test_same_seed_same_peer_ids(self):
        first = JxtaNetworkBuilder(seed=77)
        first.add_peer("a", connect_rendezvous=False)
        second = JxtaNetworkBuilder(seed=77)
        second.add_peer("a", connect_rendezvous=False)
        # Noise sources are derived deterministically from the seed.
        assert first.network.noise.seed == second.network.noise.seed

    def test_testbed_helper(self):
        from repro import tps_network

        net = tps_network(peers=2, seed=3)
        assert len(net) == 2
        assert net.rendezvous is not None
        assert net.peer(0).name == "peer-0"
        assert net.peer_named("rdv-0").is_rendezvous
        before = net.now
        net.run_for(5.0)
        assert net.now == pytest.approx(before + 5.0)

    def test_testbed_requires_at_least_one_peer(self):
        from repro import tps_network

        with pytest.raises(ValueError):
            tps_network(peers=0)
