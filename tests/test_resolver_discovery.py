"""Tests for the Peer Resolver Protocol and the Peer Discovery Protocol."""

from __future__ import annotations

import random
from typing import Optional

import pytest

from repro.jxta.advertisement import (
    AdvertisementFactory,
    PeerGroupAdvertisement,
    PipeAdvertisement,
)
from repro.jxta.cache import DiscoveryKind
from repro.jxta.discovery import DiscoveryEvent
from repro.jxta.errors import ResolverError
from repro.jxta.resolver import ResolverQuery, ResolverResponse
from repro.serialization.xml_codec import XmlElement, parse_xml, to_xml


class EchoHandler:
    """A resolver handler answering every query with an upper-cased echo."""

    def __init__(self):
        self.queries = []
        self.responses = []

    def process_query(self, query: ResolverQuery) -> Optional[str]:
        self.queries.append(query)
        return query.body.upper()

    def process_response(self, response: ResolverResponse) -> None:
        self.responses.append(response)


class SilentHandler(EchoHandler):
    """A handler that records queries but never responds."""

    def process_query(self, query: ResolverQuery) -> Optional[str]:
        self.queries.append(query)
        return None


class TestResolver:
    def test_directed_query_and_response(self, two_peers):
        alpha, beta, builder = two_peers
        asker, answerer = EchoHandler(), EchoHandler()
        alpha.world_group.resolver.register_handler("echo", asker)
        beta.world_group.resolver.register_handler("echo", answerer)
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        query_id = alpha.world_group.resolver.send_query("echo", "hello", dest_peer=beta.peer_id)
        builder.settle(rounds=2)
        assert [q.body for q in answerer.queries] == ["hello"]
        assert [r.body for r in asker.responses] == ["HELLO"]
        assert asker.responses[0].query_id == query_id
        assert asker.responses[0].src_peer == beta.peer_id

    def test_propagated_query_collects_multiple_responses(self, lan):
        builder = lan
        source = builder.peer_named("peer-0")
        handler = EchoHandler()
        source.world_group.resolver.register_handler("echo", handler)
        for name in ("peer-1", "peer-2", "rdv-0"):
            builder.peer_named(name).world_group.resolver.register_handler("echo", EchoHandler())
        source.world_group.resolver.send_query("echo", "ping")
        builder.settle(rounds=3)
        assert len(handler.responses) == 3
        assert {r.body for r in handler.responses} == {"PING"}

    def test_query_requires_registered_local_handler(self, two_peers):
        alpha, _beta, _builder = two_peers
        with pytest.raises(ResolverError):
            alpha.world_group.resolver.send_query("unregistered", "x")

    def test_unhandled_query_is_counted_not_crashed(self, two_peers):
        alpha, beta, builder = two_peers
        alpha.world_group.resolver.register_handler("only-here", EchoHandler())
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        alpha.world_group.resolver.send_query("only-here", "x", dest_peer=beta.peer_id)
        builder.settle(rounds=2)
        assert beta.metrics.counters().get("resolver_unhandled", 0) == 1

    def test_no_response_when_handler_returns_none(self, two_peers):
        alpha, beta, builder = two_peers
        asker = EchoHandler()
        alpha.world_group.resolver.register_handler("silent", asker)
        beta.world_group.resolver.register_handler("silent", SilentHandler())
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        alpha.world_group.resolver.send_query("silent", "x", dest_peer=beta.peer_id)
        builder.settle(rounds=2)
        assert asker.responses == []

    def test_own_query_is_not_answered(self, two_peers):
        """A query that comes back to its sender (loopback, or a propagated
        echo) reaches the resolver but never the local handler."""
        alpha, _beta, _builder = two_peers
        handler = EchoHandler()
        alpha.world_group.resolver.register_handler("echo", handler)
        alpha.world_group.resolver.send_query("echo", "x", dest_peer=alpha.peer_id)
        counters = alpha.metrics.counters()
        assert counters["resolver_queries_received"] >= 1
        assert counters.get("resolver_responses_sent", 0) == 0
        assert handler.queries == [] and handler.responses == []

    def test_unknown_message_kind_is_counted_malformed(self, two_peers):
        from repro.jxta.message import Message
        from repro.jxta.resolver import ResolverService

        alpha, beta, builder = two_peers
        handler = EchoHandler()
        beta.world_group.resolver.register_handler("echo", handler)
        message = Message()
        for name, text in (("kind", "gossip"), ("handler", "echo"), ("query_id", "q1"), ("body", "x")):
            message.add(name, text)
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        alpha.endpoint.send(
            beta.peer_id, message, ResolverService.SERVICE_NAME, beta.world_group.group_id.to_urn()
        )
        builder.settle(rounds=2)
        assert beta.metrics.counters().get("resolver_malformed", 0) == 1
        assert handler.queries == [] and handler.responses == []

    def test_unregister_handler(self, two_peers):
        alpha, _beta, _builder = two_peers
        resolver = alpha.world_group.resolver
        resolver.register_handler("temp", EchoHandler())
        assert "temp" in resolver.handler_names()
        resolver.unregister_handler("temp")
        assert "temp" not in resolver.handler_names()

    def test_group_scoping_isolates_queries(self, two_peers):
        alpha, beta, builder = two_peers
        # beta registers the handler only in a child group alpha is not part of.
        child_adv = PeerGroupAdvertisement(name="private-group")
        child = beta.world_group.new_group(child_adv)
        handler = EchoHandler()
        child.resolver.register_handler("echo", handler)
        alpha.world_group.resolver.register_handler("echo", EchoHandler())
        alpha.world_group.resolver.send_query("echo", "ping")
        builder.settle(rounds=3)
        assert handler.queries == []  # world-group query never reaches the child group


class TestDiscovery:
    def test_local_publish_and_search(self, two_peers):
        alpha, _beta, _builder = two_peers
        discovery = alpha.world_group.discovery
        advertisement = PeerGroupAdvertisement(name="PS$Widget")
        discovery.publish(advertisement, DiscoveryKind.GROUP)
        found = discovery.get_local_advertisements(DiscoveryKind.GROUP, "Name", "PS$*")
        assert advertisement in found

    def test_remote_query_finds_published_advertisement(self, two_peers):
        alpha, beta, builder = two_peers
        advertisement = PeerGroupAdvertisement(name="PS$Widget")
        beta.world_group.discovery.publish(advertisement, DiscoveryKind.GROUP)
        events: list[DiscoveryEvent] = []
        alpha.world_group.discovery.add_discovery_listener(events.append)
        alpha.world_group.discovery.get_remote_advertisements(
            None, DiscoveryKind.GROUP, "Name", "PS$*"
        )
        builder.settle(rounds=3)
        assert len(events) == 1
        (event,) = events
        assert event.kind == DiscoveryKind.GROUP
        assert event.src_peer == beta.peer_id
        assert event.advertisements[0].get_gid() == advertisement.get_gid()
        # The response is also cached locally.
        local = alpha.world_group.discovery.get_local_advertisements(
            DiscoveryKind.GROUP, "Name", "PS$*"
        )
        assert local and local[0].get_gid() == advertisement.get_gid()

    def test_remote_query_directed_to_one_peer(self, lan):
        builder = lan
        alpha = builder.peer_named("peer-0")
        beta = builder.peer_named("peer-1")
        gamma = builder.peer_named("peer-2")
        beta.world_group.discovery.publish(
            PeerGroupAdvertisement(name="PS$OnBeta"), DiscoveryKind.GROUP
        )
        gamma.world_group.discovery.publish(
            PeerGroupAdvertisement(name="PS$OnGamma"), DiscoveryKind.GROUP
        )
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        events = []
        alpha.world_group.discovery.add_discovery_listener(events.append)
        alpha.world_group.discovery.get_remote_advertisements(
            beta.peer_id, DiscoveryKind.GROUP, "Name", "PS$*"
        )
        builder.settle(rounds=3)
        names = {adv.name for event in events for adv in event.advertisements}
        assert names == {"PS$OnBeta"}

    def test_remote_publish_pushes_to_other_peers(self, two_peers):
        alpha, beta, builder = two_peers
        advertisement = PeerGroupAdvertisement(name="PS$Pushed")
        alpha.world_group.discovery.publish(advertisement, DiscoveryKind.GROUP)
        alpha.world_group.discovery.remote_publish(advertisement, DiscoveryKind.GROUP)
        builder.settle(rounds=3)
        found = beta.world_group.discovery.get_local_advertisements(
            DiscoveryKind.GROUP, "Name", "PS$Pushed"
        )
        assert len(found) == 1

    def test_a_response_from_this_peer_itself_is_ignored(self, two_peers):
        alpha, beta, _builder = two_peers
        discovery = alpha.world_group.discovery
        events = []
        discovery.add_discovery_listener(events.append)
        body = XmlElement("DiscoveryResponse")
        body.add("Kind", str(DiscoveryKind.GROUP))
        body.add("Adv", PeerGroupAdvertisement(name="PS$Echoed").to_document())
        body = to_xml(body, declaration=False)

        def arrival(src_peer):
            return ResolverResponse(handler_name="urn:jxta:pdp", query_id="q1", body=body, src_peer=src_peer)

        def cached():
            return discovery.get_local_advertisements(DiscoveryKind.GROUP, "Name", "PS$Echoed")

        discovery.process_response(arrival(alpha.peer_id))
        assert cached() == [] and events == []
        # The same body from another peer is taken in.
        discovery.process_response(arrival(beta.peer_id))
        assert len(cached()) == 1 and len(events) == 1

    def test_threshold_limits_response_size(self, two_peers):
        alpha, beta, builder = two_peers
        for index in range(8):
            beta.world_group.discovery.publish(
                PeerGroupAdvertisement(name=f"PS$Many-{index}"), DiscoveryKind.GROUP
            )
        events = []
        alpha.world_group.discovery.add_discovery_listener(events.append)
        alpha.world_group.discovery.get_remote_advertisements(
            None, DiscoveryKind.GROUP, "Name", "PS$Many-*", threshold=3
        )
        builder.settle(rounds=3)
        assert sum(len(e.advertisements) for e in events) == 3

    def test_flush_advertisements(self, two_peers):
        alpha, _beta, _builder = two_peers
        discovery = alpha.world_group.discovery
        advertisement = PeerGroupAdvertisement(name="PS$Flushable")
        discovery.publish(advertisement, DiscoveryKind.GROUP)
        removed = discovery.flush_advertisements(advertisement.get_gid().to_urn(), DiscoveryKind.GROUP)
        assert removed == 1
        # Flushing everything of a kind.
        discovery.publish(advertisement, DiscoveryKind.GROUP)
        assert discovery.flush_advertisements(None, DiscoveryKind.GROUP) >= 1

    def test_listener_remove(self, two_peers):
        alpha, beta, builder = two_peers
        events = []
        discovery = alpha.world_group.discovery
        discovery.add_discovery_listener(events.append)
        discovery.remove_discovery_listener(events.append)
        beta.world_group.discovery.publish(
            PeerGroupAdvertisement(name="PS$X"), DiscoveryKind.GROUP
        )
        discovery.get_remote_advertisements(None, DiscoveryKind.GROUP, "Name", "PS$*")
        builder.settle(rounds=3)
        assert events == []

    def test_peer_advertisements_published_at_boot(self, lan):
        builder = lan
        rendezvous = builder.peer_named("rdv-0")
        # Peers push their peer advertisement at creation; the rendez-vous
        # (present from the start) has learned about the later peers.
        found = rendezvous.world_group.discovery.get_local_advertisements(
            DiscoveryKind.PEER, "Name", "peer-*"
        )
        assert len(found) >= 1


class _UnmemoisedDiscovery:
    """What the discovery handlers did before they kept anything: render every
    response from the advertisement objects, parse every body from scratch.

    Wraps one live service's ``process_query`` / ``process_response`` and
    checks each call against that reference *at the instant of the call*.
    """

    def __init__(self, peer, monkeypatch):
        self.peer = peer
        self.discovery = peer.world_group.discovery
        self.cache = self.discovery.cache
        self.events: list[DiscoveryEvent] = []
        self.served: list[str] = []
        self.absorbed = 0
        self.discovery.add_discovery_listener(self.events.append)
        self._process_query = self.discovery.process_query
        self._process_response = self.discovery.process_response
        monkeypatch.setattr(self.discovery, "process_query", self.process_query)
        monkeypatch.setattr(self.discovery, "process_response", self.process_response)

    @staticmethod
    def render(kind, advertisements):
        response = XmlElement("DiscoveryResponse")
        response.add("Kind", str(kind))
        for advertisement in advertisements:
            response.add("Adv", advertisement.to_document())
        return to_xml(response, declaration=False)

    def snapshot(self):
        """(kind, key) -> everything an entry holds, its document rendered now."""
        state = {}
        for kind in DiscoveryKind.ALL:
            for entry in self.cache.entries(kind):
                advertisement = entry.advertisement
                fresh = advertisement.to_document()
                assert entry.document in (None, fresh), "a kept document went stale"
                state[kind, advertisement.unique_key()] = (
                    fresh, entry.lifetime, entry.inserted_at, entry.local,
                )
        return state

    def process_query(self, query):
        element = parse_xml(query.body)
        if element.name == "DiscoveryResponse":
            # A remote_publish push: the service hands it to process_response.
            return self._process_query(query)
        matches = self.cache.search(
            int(element.child_text("Kind")),
            element.child_text("Attribute") or None,
            element.child_text("Value") or None,
            limit=int(element.child_text("Threshold")),
        )
        expected = self.render(int(element.child_text("Kind")), matches) if matches else None
        served = self._process_query(query)
        assert served == expected
        if served is not None:
            self.served.append(served)
        return served

    def process_response(self, arrival):
        element = parse_xml(arrival.body)
        kind = int(element.child_text("Kind"))
        carried = [
            AdvertisementFactory.from_document(child.text) for child in element.find_all("Adv")
        ]
        expected, heard = self.snapshot(), len(self.events)
        self._process_response(arrival)
        now = self.peer.now
        for advertisement in carried:
            expected[kind, advertisement.unique_key()] = (
                advertisement.to_document(), advertisement.expiration, now, False,
            )
        assert self.snapshot() == expected
        assert carried, "this test's peers never send an empty response"
        (event,) = self.events[heard:]
        assert (event.kind, event.src_peer, event.query_id) == (
            kind, arrival.src_peer, arrival.query_id,
        )
        assert [a.to_document() for a in event.advertisements] == [
            a.to_document() for a in carried
        ]
        assert all(a.created_at == now for a in event.advertisements)
        self.absorbed += 1


class TestDiscoveryMemoDifferential:
    """The rendered-body and parsed-body memos change no observable result.

    A seeded op sequence over two peers; every served body and every absorbed
    response is compared with the un-memoised reference above.
    """

    EXPIRATIONS = (12.0, 600.0, 7200.0)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_seeded_op_sequence(self, two_peers, monkeypatch, seed):
        alpha, beta, builder = two_peers
        rng = random.Random(seed)
        sides = [_UnmemoisedDiscovery(peer, monkeypatch) for peer in (alpha, beta)]
        owned = {id(side): [] for side in sides}
        counter = iter(range(10_000))

        def publish(side):
            advertisement = PeerGroupAdvertisement(name=f"PS$T-{next(counter)}")
            owned[id(side)].append(advertisement)
            # Some publications are short-lived so "advance" can expire them.
            side.discovery.publish(
                advertisement, DiscoveryKind.GROUP, lifetime=rng.choice([8.0, None])
            )

        def remote_publish(side):
            if owned[id(side)]:
                side.discovery.remote_publish(
                    rng.choice(owned[id(side)]),
                    DiscoveryKind.GROUP,
                    expiration=rng.choice(self.EXPIRATIONS),
                )

        def mutate_and_republish(side):
            if owned[id(side)]:
                advertisement = rng.choice(owned[id(side)])
                advertisement.description = f"edited-{next(counter)}"
                side.discovery.publish(advertisement, DiscoveryKind.GROUP)

        def flush(side):
            if rng.random() < 0.5 or not owned[id(side)]:
                side.discovery.flush_advertisements(None, DiscoveryKind.GROUP)
            else:
                victim = rng.choice(owned[id(side)])
                side.discovery.flush_advertisements(
                    victim.get_gid().to_urn(), DiscoveryKind.GROUP
                )

        def advance(side):
            builder.network.simulator.run_for(rng.choice([3.0, 10.0, 15.0]))

        def query(side):
            side.discovery.get_remote_advertisements(
                None, DiscoveryKind.GROUP, "Name", "PS$T-*", threshold=rng.choice([2, 10])
            )

        ops = [publish, remote_publish, mutate_and_republish, flush, advance, query, query, query]
        for side in sides:
            publish(side)
        for _ in range(120):
            rng.choice(ops)(rng.choice(sides))
            builder.settle(rounds=2)
        # The sequence did reach both memos: some bodies were served again
        # as the same object, some advertisements absorbed again as the same
        # objects (the lists keep them alive, so ids are not recycled).
        served = [body for side in sides for body in side.served]
        heard = [a for side in sides for event in side.events for a in event.advertisements]
        assert len(served) > 20 and sum(side.absorbed for side in sides) > 20
        assert len({id(body) for body in served}) < len(served)
        assert len({id(advertisement) for advertisement in heard}) < len(heard)

    def test_every_invalidation_path_with_one_asker(self, two_peers, monkeypatch):
        """Only beta asks, so alpha's entries stay its own publications (a
        peer that asks absorbs its advertisements back as remote copies) and
        each path that changes a rendered field is followed by a serve."""
        alpha, beta, builder = two_peers
        owner, asker = (_UnmemoisedDiscovery(peer, monkeypatch) for peer in (alpha, beta))
        kind = DiscoveryKind.GROUP

        def ask():
            asker.discovery.get_remote_advertisements(None, kind, "Name", "PS$T-*")
            builder.settle(rounds=2)
            return owner.served[-1]

        first = PeerGroupAdvertisement(name="PS$T-first")
        owner.discovery.publish(first, kind)
        body = ask()
        assert ask() is body  # nothing changed: not rendered again
        owner.discovery.remote_publish(first, kind, expiration=12.0)  # a rendered field
        builder.settle(rounds=2)
        assert "<Expiration>12.0" in parse_xml(ask()).child_text("Adv")
        first.description = "edited"
        owner.discovery.publish(first, kind)
        assert "edited" in ask()
        second = PeerGroupAdvertisement(name="PS$T-second")
        owner.discovery.publish(second, kind, lifetime=8.0)
        assert "PS$T-second" in ask()
        owner.discovery.flush_advertisements(first.get_gid().to_urn(), kind)
        assert "PS$T-first" not in ask()
        builder.network.simulator.run_for(10.0)  # past ``second``'s lifetime
        served = len(owner.served)
        asker.discovery.get_remote_advertisements(None, kind, "Name", "PS$T-*")
        builder.settle(rounds=2)
        assert len(owner.served) == served  # nothing left to serve

    def test_memos_are_bounded_and_evict_oldest_first(self, two_peers):
        from repro.jxta import discovery as discovery_module

        alpha, beta, _builder = two_peers
        service = alpha.world_group.discovery
        limit = discovery_module._MEMO_LIMIT
        bodies = []
        for index in range(limit + 5):
            advertisement = PeerGroupAdvertisement(name=f"PS$Many-{index}")
            body = _UnmemoisedDiscovery.render(DiscoveryKind.GROUP, [advertisement])
            bodies.append(body)
            service.process_response(
                ResolverResponse(
                    handler_name="h", query_id="q", body=body, src_peer=beta.peer_id
                )
            )
            assert service._response_body(DiscoveryKind.GROUP, (body,))
        assert list(service._absorbed) == bodies[5:]
        assert [key[1][0] for key in service._bodies] == bodies[5:]


class TestMalformedRemoteBodies:
    """A remote peer's malformed XML must never crash the dispatch loop.

    Every resolver handler on the receive path guards its ``parse_xml`` call:
    the body is counted in a ``*_malformed`` metric and dropped.  (Before the
    parse-path fixes, these raised XmlParseError straight through
    ``ResolverService._on_envelope``.)
    """

    BAD_BODIES = ["<not xml", "", "plain text", "<a>&#xZZ;</a>", "<a></b>"]

    @staticmethod
    def _query(body):
        from repro.jxta.ids import PeerID

        return ResolverQuery(handler_name="h", query_id="q1", body=body, src_peer=PeerID())

    @staticmethod
    def _response(body):
        from repro.jxta.ids import PeerID

        return ResolverResponse(handler_name="h", query_id="q1", body=body, src_peer=PeerID())

    def test_discovery_drops_malformed_bodies(self, two_peers):
        alpha, _, _ = two_peers
        discovery = alpha.world_group.discovery
        def malformed():
            return alpha.metrics.counters().get("discovery_malformed", 0)

        # Every body twice: a malformed body is never remembered, so its
        # second arrival is counted like its first.
        for body in self.BAD_BODIES * 2:
            before = malformed()
            assert discovery.process_query(self._query(body)) is None
            discovery.process_response(self._response(body))
            assert malformed() == before + 2
        # Numeric fields that do not parse are dropped too.
        assert discovery.process_query(self._query("<DiscoveryQuery><Kind>NaN</Kind></DiscoveryQuery>")) is None
        # So is one bad advertisement among good ones, on every arrival.
        good = PeerGroupAdvertisement(name="PS$Good").to_document()
        mixed = XmlElement("DiscoveryResponse")
        mixed.add("Kind", "1")
        mixed.add("Adv", good)
        mixed.add("Adv", "<not an advertisement")
        for arrival in range(2):
            before = malformed()
            discovery.process_response(self._response(to_xml(mixed, declaration=False)))
            assert malformed() == before + 1
        assert malformed() == len(self.BAD_BODIES) * 4 + 1 + 2
        assert discovery.cache.count(DiscoveryKind.GROUP) >= 1

    def test_pipe_binding_drops_malformed_bodies(self, two_peers):
        alpha, _, _ = two_peers
        service = alpha.world_group.pipe_service
        for body in self.BAD_BODIES:
            assert service.process_query(self._query(body)) is None
            service.process_response(self._response(body))
        assert alpha.metrics.counters().get("pbp_malformed", 0) >= len(self.BAD_BODIES) * 2

    def test_pipe_binding_drops_a_malformed_peer_urn_on_entry(self, two_peers):
        """A binding's ``<Peer>`` is outside input, parsed once when it is
        learned: one that is not a peer URN used to be stored and then make
        every later send on the pipe raise AdvertisementError."""
        from repro.jxta.message import Message
        from repro.jxta.pipes import PipeKind

        alpha, beta, builder = two_peers
        advertisement = PipeAdvertisement(name="bound", pipe_kind=PipeKind.WIRE.value)
        inbox = []
        beta.world_group.wire.create_input_pipe(advertisement, lambda m, s: inbox.append(m))
        builder.settle(rounds=2)
        output = alpha.world_group.wire.create_output_pipe(advertisement)
        builder.settle(rounds=2)
        service = alpha.world_group.pipe_service
        body = (
            "<{0}><Pipe>" + advertisement.pipe_id.to_urn() + "</Pipe>"
            "<Peer>not-a-jxta-urn</Peer><Address>nowhere</Address></{0}>"
        )
        before = alpha.metrics.counters().get("pbp_malformed", 0)
        service.process_query(self._query(body.format("PipeBind")))
        service.process_response(self._response(body.format("PipeBound")))
        assert alpha.metrics.counters().get("pbp_malformed", 0) == before + 2
        assert output.resolved_peers() == [beta.peer_id]
        output.send(Message())
        builder.settle(rounds=2)
        assert len(inbox) == 1

    def test_advertisement_factory_wraps_parse_errors(self):
        from repro.jxta.advertisement import AdvertisementFactory
        from repro.jxta.errors import AdvertisementError

        with pytest.raises(AdvertisementError):
            AdvertisementFactory.from_document("<not xml")
