"""Tests for the endpoint service: unicast, propagation, relaying (ERP)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.jxta.endpoint import EndpointEnvelope
from repro.jxta.message import Message
from repro.net.firewall import Firewall
from repro.net.network import LinkSpec
from repro.net.packet import Packet
from repro.net.transport import TransportKind


def _message(text="payload"):
    message = Message()
    message.add("body", text)
    return message


def _register(peer, service="test.service", param=""):
    received = []
    peer.endpoint.register_listener(
        service, param, lambda envelope, message: received.append((envelope, message))
    )
    return received


def _envelope(**overrides):
    fields = dict(
        src_peer="urn:src", src_address="host-a", dst_peer="urn:dst", service="svc",
        param="p", envelope_id="id-1", ttl=3, propagate=False, hops=[], body=b"",
    )
    fields.update(overrides)
    return EndpointEnvelope(**fields)


class TestEnvelope:
    def test_round_trip(self):
        envelope = EndpointEnvelope(
            src_peer="urn:src",
            src_address="host-a",
            dst_peer="urn:dst",
            service="svc",
            param="p",
            envelope_id="id-1",
            ttl=3,
            propagate=False,
            hops=["urn:relay"],
            body=_message().to_bytes(),
        )
        restored = EndpointEnvelope.from_bytes(envelope.to_bytes())
        assert restored.src_peer == "urn:src"
        assert restored.dst_peer == "urn:dst"
        assert restored.hops == ["urn:relay"]
        assert restored.message().get_text("body") == "payload"

    def test_body_is_carried_not_re_encoded(self):
        """The frame holds the body bytes verbatim -- a relay that decodes
        and re-encodes an envelope never touches the carried message."""
        body = _message("carried").to_bytes()
        envelope = _envelope(body=body)
        assert envelope.to_bytes().endswith(body)
        assert EndpointEnvelope.from_bytes(envelope.to_bytes()).body == body

    def test_frame_fuzz(self, check_frame_fuzz):
        envelope = _envelope(
            src_peer="urn:jxta:uuid-é", hops=["urn:relay-1", "urn:relay-2"], ttl=3,
            propagate=True, body=_message().to_bytes(),
        )
        check_frame_fuzz(
            envelope.to_bytes(), EndpointEnvelope.from_bytes, EndpointEnvelope.to_bytes
        )

    @pytest.mark.parametrize(
        "damage",
        [
            lambda frame: b"",
            lambda frame: frame[:10],  # inside the header
            lambda frame: frame[:4] + b"\x02" + frame[5:],  # propagate is 0 or 1
            lambda frame: frame[:5] + b"\xff\xff" + frame[7:],  # 65 535 hops, none present
            lambda frame: frame[:7] + b"\xff\xff\xff\xff" + frame[11:],  # body overruns
            lambda frame: frame[:11] + b"\xff\xff" + frame[13:],  # source peer overruns
            lambda frame: frame[:13] + b"\xff" + frame[14:],  # invalid UTF-8 in a string
        ],
        ids=["empty", "short-header", "propagate", "hop-count", "body-overrun", "string-overrun", "utf8"],
    )
    def test_malformed_frames_raise(self, damage):
        with pytest.raises(ValueError):
            EndpointEnvelope.from_bytes(damage(_envelope(body=b"body").to_bytes()))


_urns = st.text(max_size=24)  # non-ASCII included


@settings(max_examples=60, deadline=None)
@given(
    strings=st.tuples(*[_urns] * 6),
    ttl=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    propagate=st.booleans(),
    hops=st.lists(_urns, max_size=4),
    body=st.binary(max_size=64),
)
def test_property_envelope_round_trip(strings, ttl, propagate, hops, body):
    """Every field survives the frame: non-ASCII URNs, empty and multi-entry
    ``hops``, an empty body, ``ttl`` 0 and below."""
    src_peer, src_address, dst_peer, service, param, envelope_id = strings
    envelope = EndpointEnvelope(
        src_peer, src_address, dst_peer, service, param, envelope_id, ttl, propagate, hops, body
    )
    assert EndpointEnvelope.from_bytes(envelope.to_bytes()) == envelope


class TestMalformedPackets:
    """Bytes that are not an envelope frame around a message frame are
    counted and dropped: no listener runs, nothing raises into the network's
    delivery callback."""

    def test_damaged_frames_are_counted_and_dropped(self, two_peers, check_frame_fuzz):
        alpha, beta, _builder = two_peers
        received = _register(beta)
        body = _message("intact").to_bytes()
        frame = _envelope(
            src_peer=alpha.peer_id.to_urn(), src_address=alpha.node.address,
            dst_peer=beta.peer_id.to_urn(), service="test.service", param="", body=body,
        ).to_bytes()

        def dropped_count():
            counters = beta.metrics.counters()
            # A damaged envelope frame is "malformed"; an intact envelope
            # around a damaged message frame fails where the listener's
            # message is decoded.
            return counters.get("endpoint_malformed", 0), counters.get(
                "endpoint_listener_errors", 0
            )

        def damage(payload):
            try:
                envelope = EndpointEnvelope.from_bytes(payload)
            except ValueError:
                return (1, 0)
            try:
                envelope.message()
            except ValueError:
                return (0, 1)
            return (0, 0)

        damaged = check_frame_fuzz(frame, EndpointEnvelope.from_bytes, EndpointEnvelope.to_bytes)
        dropped = 0
        for payload in [frame, *damaged]:
            counted, seen = dropped_count(), len(received)
            beta.endpoint._on_packet(
                Packet(source=alpha.node.address, destination=beta.node.address, payload=payload)
            )
            expected = damage(payload)
            assert dropped_count() == (counted[0] + expected[0], counted[1] + expected[1])
            if any(expected):
                dropped += 1
                assert len(received) == seen
        # The intact frame got through; every truncation, every extension and
        # every flip inside the carried message's own header did not.
        assert received[0][1].get_text("body") == "intact"
        assert dropped >= len(frame) + 3
        assert dropped_count()[0] >= len(frame) + 3
        assert all(message.to_bytes() == envelope.body for envelope, message in received)


class TestUnicast:
    def test_direct_send_and_dispatch(self, two_peers):
        alpha, beta, builder = two_peers
        received = _register(beta)
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        assert alpha.endpoint.send(beta.peer_id, _message("hi"), "test.service")
        builder.settle(rounds=2)
        assert len(received) == 1
        envelope, message = received[0]
        assert message.get_text("body") == "hi"
        assert envelope.source_peer_id == alpha.peer_id

    def test_loopback_send(self, two_peers):
        alpha, _beta, builder = two_peers
        received = _register(alpha)
        assert alpha.endpoint.send(alpha.peer_id, _message("self"), "test.service")
        assert len(received) == 1  # loopback delivery is synchronous

    def test_listener_param_specificity(self, two_peers):
        alpha, beta, builder = two_peers
        specific = []
        fallback = []
        beta.endpoint.register_listener("svc", "pipe-1", lambda e, m: specific.append(m))
        beta.endpoint.register_listener("svc", "", lambda e, m: fallback.append(m))
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        alpha.endpoint.send(beta.peer_id, _message(), "svc", "pipe-1")
        alpha.endpoint.send(beta.peer_id, _message(), "svc", "pipe-other")
        builder.settle(rounds=2)
        assert len(specific) == 1
        assert len(fallback) == 1

    def test_unknown_destination_without_router_fails(self, two_peers):
        alpha, beta, _builder = two_peers
        # alpha never learned beta's address and there is no router to ask.
        alpha.endpoint.forget_address(beta.peer_id)
        assert not alpha.endpoint.send(beta.peer_id, _message(), "svc")
        assert alpha.metrics.counters().get("endpoint_no_route", 0) == 1

    def test_unhandled_service_is_counted(self, two_peers):
        alpha, beta, builder = two_peers
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        alpha.endpoint.send(beta.peer_id, _message(), "nobody.listens")
        builder.settle(rounds=2)
        assert beta.metrics.counters().get("endpoint_unhandled", 0) >= 1

    def test_listener_exception_does_not_break_endpoint(self, two_peers):
        alpha, beta, builder = two_peers

        def bad_listener(envelope, message):
            raise RuntimeError("boom")

        beta.endpoint.register_listener("svc", "", bad_listener)
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        alpha.endpoint.send(beta.peer_id, _message(), "svc")
        builder.settle(rounds=2)
        assert beta.metrics.counters().get("endpoint_listener_errors", 0) == 1

    def test_address_learned_from_traffic(self, two_peers):
        alpha, beta, builder = two_peers
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        _register(beta)
        alpha.endpoint.send(beta.peer_id, _message(), "svc")
        builder.settle(rounds=2)
        # beta learned alpha's address just from receiving the envelope.
        assert beta.endpoint.known_address(alpha.peer_id) == alpha.node.address

    def test_send_to_address_without_peer_id(self, two_peers):
        alpha, beta, builder = two_peers
        received = _register(beta, "svc")
        assert alpha.endpoint.send_to_address(beta.node.address, _message("x"), "svc")
        builder.settle(rounds=2)
        assert len(received) == 1

    def test_send_to_own_address_is_delivered_locally(self, two_peers):
        alpha, _beta, _builder = two_peers
        received = _register(alpha, "svc")
        sent = alpha.metrics.counters().get("endpoint_sent", 0)
        assert alpha.endpoint.send_to_address(alpha.node.address, _message("me"), "svc")
        # Synchronous, and nothing touched the network.
        assert [message.get_text("body") for _envelope, message in received] == ["me"]
        assert alpha.metrics.counters().get("endpoint_sent", 0) == sent


class TestPropagation:
    def test_propagate_reaches_all_lan_peers(self, builder):
        peers = [builder.add_peer(f"p{i}", connect_rendezvous=False) for i in range(4)]
        builder.settle(rounds=2)
        inboxes = [_register(peer, "svc") for peer in peers]
        peers[0].endpoint.propagate(_message("flood"), "svc")
        builder.settle(rounds=2)
        assert len(inboxes[0]) == 0  # no self-delivery of the multicast echo
        assert all(len(inbox) == 1 for inbox in inboxes[1:])

    def test_propagate_duplicates_suppressed(self, lan):
        builder = lan
        target = builder.peer_named("peer-1")
        source = builder.peer_named("peer-0")
        inbox = _register(target, "svc")
        source.endpoint.propagate(_message("once"), "svc")
        builder.settle(rounds=3)
        # The envelope arrives over multicast AND re-propagated by the
        # rendez-vous, but is delivered exactly once.
        assert len(inbox) == 1
        assert target.metrics.counters().get("endpoint_duplicate_suppressed", 0) >= 1

    def test_propagation_crosses_segments_through_rendezvous(self, builder):
        rendezvous = builder.add_rendezvous("rdv-0")
        near = builder.add_peer("near")
        far = builder.add_peer("far", segment="lan1", connect_rendezvous=False)
        builder.connect_segments("far", "rdv-0", LinkSpec.lan())
        far.world_group.rendezvous.connect("rdv-0")
        builder.settle(rounds=4)
        inbox = _register(far, "svc")
        near.endpoint.propagate(_message("cross"), "svc")
        builder.settle(rounds=4)
        assert len(inbox) == 1


class TestRouting:
    def test_relay_through_router_when_no_direct_route(self, builder):
        rendezvous = builder.add_rendezvous("rdv-0")
        alpha = builder.add_peer("alpha")
        # beta lives on another segment, reachable only through the rendez-vous.
        beta = builder.add_peer("beta", segment="lan1", connect_rendezvous=False)
        builder.connect_segments("beta", "rdv-0", LinkSpec.lan())
        beta.world_group.rendezvous.connect("rdv-0")
        builder.settle(rounds=4)
        inbox = _register(beta, "svc")
        # alpha knows beta's peer ID and address but has no direct link to lan1.
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        assert alpha.endpoint.send(beta.peer_id, _message("via router"), "svc")
        builder.settle(rounds=4)
        assert len(inbox) == 1
        assert rendezvous.metrics.counters().get("endpoint_forwarded", 0) >= 1

    def test_firewalled_peer_reached_over_http(self, builder):
        alpha = builder.add_peer("alpha", connect_rendezvous=False)
        guarded = builder.add_peer(
            "guarded",
            connect_rendezvous=False,
            firewall=Firewall.corporate_default(),
        )
        builder.settle(rounds=2)
        inbox = _register(guarded, "svc")
        alpha.endpoint.learn_address(guarded.peer_id, guarded.node.address)
        # Inbound TCP is blocked; the endpoint must fall back to HTTP.
        assert alpha.endpoint.send(guarded.peer_id, _message("http"), "svc")
        builder.settle(rounds=2)
        assert len(inbox) == 1

    def test_ttl_expiry_stops_relaying(self, two_peers):
        alpha, beta, builder = two_peers
        alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
        assert not alpha.endpoint.send(beta.peer_id, _message(), "svc", ttl=0) or True
        # A ttl=0 envelope can still be sent directly; relaying is what needs
        # budget.  Force the relay path by forgetting the address:
        alpha.endpoint.forget_address(beta.peer_id)
        assert not alpha.endpoint.send(beta.peer_id, _message(), "svc", ttl=0)

    def test_router_drops_a_transit_envelope_with_no_ttl_left(self, lan):
        builder = lan
        rendezvous = builder.peer_named("rdv-0")
        source, destination = builder.peer_named("peer-0"), builder.peer_named("peer-1")
        inbox = _register(destination, "svc")
        envelope = _envelope(
            src_peer=source.peer_id.to_urn(), src_address=source.node.address,
            dst_peer=destination.peer_id.to_urn(), service="svc", param="", ttl=0,
            body=_message("spent").to_bytes(),
        )
        before = rendezvous.metrics.counters()
        rendezvous.endpoint._on_packet(
            Packet(source=source.node.address, destination=rendezvous.node.address,
                   payload=envelope.to_bytes())
        )
        builder.settle(rounds=2)
        counters = rendezvous.metrics.counters()
        assert counters["endpoint_ttl_expired"] == before.get("endpoint_ttl_expired", 0) + 1
        assert counters.get("endpoint_forwarded", 0) == before.get("endpoint_forwarded", 0)
        assert inbox == []
