"""Unit tests for the TPS architecture blocks of Figures 10-11.

The end-to-end behaviour is covered by ``test_jxta_engine.py``; these tests
exercise the individual blocks -- the advertisements creator, the
advertisements finder and the wire-service finder -- the way the paper's
Section 3.4 describes them, independently of the engine that normally drives
them.
"""

from __future__ import annotations

import pytest

from repro.apps.skirental.types import SkiRental
from repro.core import TPSConfig, TPSEngine
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
        finder.start()
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
        finder.start()
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


def _query_times(finder, simulator):
    """Record the virtual time of each remote query round ``finder`` sends."""
    times = []
    query = finder.discovery.get_remote_advertisements

    def recording(*args, **kwargs):
        times.append(simulator.now)
        return query(*args, **kwargs)

    finder.discovery.get_remote_advertisements = recording
    return times


def _relative(times, start):
    return [round(time - start, 6) for time in times]


class TestFinderBackoff:
    """Rounds double their delay while they learn nothing, up to the cap."""

    def test_idle_rounds_double_up_to_the_cap(self, two_peers):
        alpha, _beta, builder = two_peers
        finder = TPSAdvertisementsFinder(alpha.world_group, PS_PREFIX + "Idle")
        times = _query_times(finder, builder.simulator)
        start = builder.simulator.now
        finder.start()
        builder.settle(rounds=200)
        # A fixed SLEEPING_TIME loop sends 41 query rounds in these 200 s.
        assert len(times) <= 10
        assert _relative(times, start) == [0.0, 5.0, 15.0, 35.0, 75.0, 115.0, 155.0, 195.0]
        finder.stop()

    def test_pulled_advertisement_resets_the_delay(self, two_peers):
        alpha, _beta, builder = two_peers
        finder = TPSAdvertisementsFinder(alpha.world_group, PS_PREFIX + "Pulled")
        times = _query_times(finder, builder.simulator)
        start = builder.simulator.now
        finder.start()
        builder.settle(rounds=40)
        # Published on this peer only: no discovery event, so the next
        # round's local harvest is what pulls it in.
        creator = TPSAdvertisementsCreator(alpha.world_group)
        creator.discovery.publish(
            creator.create_peer_group_advertisement("Pulled"), DiscoveryKind.GROUP
        )
        builder.settle(rounds=60)
        assert len(finder.advertisements) == 1
        assert _relative(times, start) == [0.0, 5.0, 15.0, 35.0, 75.0, 80.0, 90.0]
        finder.stop()

    def test_pushed_advertisement_resets_the_delay(self, two_peers):
        alpha, beta, builder = two_peers
        finder = TPSAdvertisementsFinder(alpha.world_group, PS_PREFIX + "Pushed")
        found = []
        finder.add_advertisements_listener(lambda advertisement: found.append(builder.simulator.now))
        times = _query_times(finder, builder.simulator)
        start = builder.simulator.now
        finder.start()
        builder.settle(rounds=40)
        creator = TPSAdvertisementsCreator(beta.world_group)
        creator.publish_advertisement(creator.create_peer_group_advertisement("Pushed"))
        builder.settle(rounds=60)
        # Heard between the rounds at 35 and 75, without a round of its own.
        assert len(found) == 1 and 40.0 <= found[0] - start < 75.0
        assert _relative(times, start) == [0.0, 5.0, 15.0, 35.0, 75.0, 80.0, 90.0]
        finder.stop()

    def test_stop_cancels_the_pending_round_and_start_begins_at_the_base(self, two_peers):
        alpha, _beta, builder = two_peers
        finder = TPSAdvertisementsFinder(alpha.world_group, PS_PREFIX + "Restart")
        times = _query_times(finder, builder.simulator)
        start = builder.simulator.now
        finder.start()
        builder.settle(rounds=20)
        finder.stop()
        builder.settle(rounds=100)
        assert _relative(times, start) == [0.0, 5.0, 15.0]
        del times[:]
        restart = builder.simulator.now
        finder.start()
        builder.settle(rounds=20)
        assert _relative(times, restart) == [0.0, 5.0, 15.0]
        finder.stop()

    def test_backed_off_subscriber_attaches_to_a_late_publisher(self, lan):
        builder = lan
        subscriber = TPSEngine(
            SkiRental, peer=builder.peer_named("peer-0"), config=TPSConfig(create_if_missing=False)
        ).new_interface("JXTA")
        received = []
        subscriber.subscribe(received.append)
        builder.settle(rounds=120)
        # Backed off to the cap: the last rounds are a capped delay apart.
        assert subscriber.manager.finder._factor == TPSAdvertisementsFinder.MAX_BACKOFF
        created = builder.simulator.now
        publisher = TPSEngine(
            SkiRental, peer=builder.peer_named("peer-1"), config=TPSConfig(search_timeout=2.0)
        ).new_interface("JXTA")
        cap = TPSAdvertisementsFinder.MAX_BACKOFF * TPSAdvertisementsFinder.SLEEPING_TIME
        while not subscriber.ready and builder.simulator.now - created < cap:
            builder.settle(rounds=1)
        assert subscriber.ready
        builder.settle(rounds=4)
        publisher.publish(SkiRental("shop", 1.0, "brand", 1))
        builder.settle(rounds=4)
        assert len(received) == 1


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
