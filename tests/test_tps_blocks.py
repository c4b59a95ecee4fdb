"""Unit tests for the TPS architecture blocks of Figures 10-11.

The end-to-end behaviour is covered by ``test_jxta_engine.py``; these tests
exercise the individual blocks -- the advertisements creator, the
advertisements finder and the wire-service finder -- the way the paper's
Section 3.4 describes them, independently of the engine that normally drives
them.
"""

from __future__ import annotations

import pytest

from repro.core.advertisements import (
    PS_PREFIX,
    TPSAdvertisementsCreator,
    TPSAdvertisementsFinder,
)
from repro.core.wire_finder import TPSWireServiceFinder, WireServiceFinderException
from repro.jxta.advertisement import PeerGroupAdvertisement
from repro.jxta.cache import DiscoveryKind
from repro.jxta.message import Message
from repro.jxta.pipes import PipeKind
from repro.jxta.wire import WireService


class TestAdvertisementsCreator:
    def test_created_advertisement_structure(self, two_peers):
        alpha, _beta, _builder = two_peers
        creator = TPSAdvertisementsCreator(alpha.world_group)
        advertisement = creator.create_peer_group_advertisement("SkiRental")
        # Name = PS_PREFIX + pipe name; the pipe is named after the type.
        assert advertisement.name == PS_PREFIX + "SkiRental"
        assert advertisement.creator_peer_id == alpha.peer_id
        wire = advertisement.service(WireService.WireName)
        assert wire is not None
        assert wire.version == WireService.WireVersion
        assert wire.get_pipe().name == "SkiRental"
        assert wire.get_pipe().pipe_kind == PipeKind.WIRE.value
        # The resolver service advertisement carries the creator's peer id as
        # an extra parameter (Figure 15, lines 37-41).
        resolver = advertisement.service("jxta.service.resolver")
        assert alpha.peer_id.to_urn() in resolver.get_params()
        assert creator.advertisement is advertisement

    def test_publish_advertisement_reaches_remote_cache(self, two_peers):
        alpha, beta, builder = two_peers
        creator = TPSAdvertisementsCreator(alpha.world_group)
        advertisement = creator.create_peer_group_advertisement("Widget")
        creator.publish_advertisement(advertisement)
        builder.settle(rounds=3)
        local = alpha.world_group.discovery.get_local_advertisements(
            DiscoveryKind.GROUP, "Name", PS_PREFIX + "Widget"
        )
        remote = beta.world_group.discovery.get_local_advertisements(
            DiscoveryKind.GROUP, "Name", PS_PREFIX + "Widget"
        )
        assert len(local) == 1
        assert len(remote) == 1

    def test_each_creation_gets_fresh_ids(self, two_peers):
        alpha, _beta, _builder = two_peers
        creator = TPSAdvertisementsCreator(alpha.world_group)
        first = creator.create_peer_group_advertisement("T")
        second = creator.create_peer_group_advertisement("T")
        assert first.get_gid() != second.get_gid()
        assert (
            first.service(WireService.WireName).get_pipe().pipe_id
            != second.service(WireService.WireName).get_pipe().pipe_id
        )


class TestAdvertisementsFinder:
    def test_finder_discovers_remote_advertisement(self, two_peers):
        alpha, beta, builder = two_peers
        creator = TPSAdvertisementsCreator(beta.world_group)
        advertisement = creator.create_peer_group_advertisement("Thing")
        creator.publish_advertisement(advertisement)
        builder.settle(rounds=2)
        finder = TPSAdvertisementsFinder(alpha.world_group, PS_PREFIX + "Thing")
        found = []
        finder.add_advertisements_listener(found.append)
        finder.start()
        builder.settle(rounds=4)
        assert len(found) == 1
        assert found[0].get_gid() == advertisement.get_gid()
        assert finder.advertisements == found
        finder.stop()
        assert not finder.running

    def test_finder_deduplicates_by_group_id(self, two_peers):
        alpha, beta, builder = two_peers
        creator = TPSAdvertisementsCreator(beta.world_group)
        advertisement = creator.create_peer_group_advertisement("Dup")
        creator.publish_advertisement(advertisement)
        builder.settle(rounds=2)
        finder = TPSAdvertisementsFinder(alpha.world_group, PS_PREFIX + "Dup")
        found = []
        finder.add_advertisements_listener(found.append)
        finder.start(interval=2.0)
        # Several polling rounds pass; the advertisement is reported once.
        builder.settle(rounds=10)
        assert len(found) == 1
        finder.stop()

    def test_finder_ignores_non_matching_prefixes(self, two_peers):
        alpha, beta, builder = two_peers
        creator = TPSAdvertisementsCreator(beta.world_group)
        creator.publish_advertisement(creator.create_peer_group_advertisement("Other"))
        builder.settle(rounds=2)
        finder = TPSAdvertisementsFinder(alpha.world_group, PS_PREFIX + "Wanted")
        found = []
        finder.add_advertisements_listener(found.append)
        finder.start()
        builder.settle(rounds=4)
        assert found == []
        finder.stop()

    def test_finder_picks_up_later_advertisements(self, two_peers):
        alpha, beta, builder = two_peers
        finder = TPSAdvertisementsFinder(alpha.world_group, PS_PREFIX + "Late")
        found = []
        finder.add_advertisements_listener(found.append)
        finder.start(interval=2.0)
        builder.settle(rounds=3)
        assert found == []
        creator = TPSAdvertisementsCreator(beta.world_group)
        creator.publish_advertisement(creator.create_peer_group_advertisement("Late"))
        builder.settle(rounds=6)
        assert len(found) == 1
        finder.stop()

    def test_find_advertisement_helper(self, two_peers):
        alpha, _beta, _builder = two_peers
        finder = TPSAdvertisementsFinder(alpha.world_group, PS_PREFIX)
        a = PeerGroupAdvertisement(name=PS_PREFIX + "A")
        b = PeerGroupAdvertisement(name=PS_PREFIX + "B")
        assert not finder.find_advertisement([], a)
        assert finder.find_advertisement([a], a)
        assert not finder.find_advertisement([a], b)

    def test_start_twice_is_idempotent(self, two_peers):
        alpha, _beta, builder = two_peers
        finder = TPSAdvertisementsFinder(alpha.world_group, PS_PREFIX + "X")
        finder.start()
        finder.start()
        builder.settle(rounds=2)
        finder.stop()
        finder.stop()


class TestWireServiceFinder:
    def _advertisement(self, group, name="Wired"):
        creator = TPSAdvertisementsCreator(group)
        return creator.create_peer_group_advertisement(name)

    def test_lookup_and_pipe_creation(self, two_peers):
        alpha, beta, builder = two_peers
        advertisement = self._advertisement(beta.world_group)
        # Subscriber side (beta): input pipe.
        sub_finder = TPSWireServiceFinder(beta.world_group, advertisement)
        sub_finder.lookup_wire_service()
        received = []
        input_pipe = sub_finder.create_input_pipe(
            lambda message, source: received.append(message)
        )
        assert sub_finder.input_pipe is input_pipe
        builder.settle(rounds=2)
        # Publisher side (alpha): output pipe.
        pub_finder = TPSWireServiceFinder(alpha.world_group, advertisement)
        assert isinstance(pub_finder.lookup_wire_service(), WireService)
        output = pub_finder.create_output_pipe()
        assert pub_finder.output_pipe is output
        builder.settle(rounds=2)
        assert output.resolved_peers() == [beta.peer_id]
        message = Message()
        message.add("payload", "through the finder")
        output.send(message)
        builder.settle(rounds=4)
        assert len(received) == 1
        assert received[0].get_text("payload") == "through the finder"

    def test_advertisement_without_wire_service_rejected(self, two_peers):
        alpha, _beta, _builder = two_peers
        bare = PeerGroupAdvertisement(name=PS_PREFIX + "Bare")
        finder = TPSWireServiceFinder(alpha.world_group, bare)
        finder.lookup_wire_service()
        with pytest.raises(WireServiceFinderException):
            finder.create_input_pipe()
        with pytest.raises(WireServiceFinderException):
            finder.create_output_pipe()

    def test_lazy_lookup_on_pipe_creation(self, two_peers):
        alpha, _beta, builder = two_peers
        advertisement = self._advertisement(alpha.world_group)
        finder = TPSWireServiceFinder(alpha.world_group, advertisement)
        # create_output_pipe looks the wire service up on demand.
        output = finder.create_output_pipe()
        assert finder.wire_service is not None
        assert output.pipe_id == advertisement.service(WireService.WireName).get_pipe().pipe_id
