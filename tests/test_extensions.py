"""Tests for the paper's 'future work' extensions: XML type descriptions and replies."""

from __future__ import annotations

import pytest

from repro.apps.skirental.types import PremiumSkiRental, RentalOffer, SkiRental
from repro.core import TPSConfig, TPSEngine
from repro.core.exceptions import PSException
from repro.core.reply import Reply, ReplyEndpoint, Replyable, reply
from repro.core.type_registry import type_name
from repro.core.xml_types import (
    DynamicEvent,
    XmlEventCodec,
    XmlTypeDescription,
    describe_type,
)
from repro.jxta.ids import PipeID
from repro.jxta.message import Message
from repro.serialization.object_codec import ObjectCodec


class TestXmlTypeDescriptions:
    def test_describe_type_from_sample(self):
        offer = SkiRental("shop", 99.0, "Salomon", 7.0)
        description = describe_type(SkiRental, sample=offer)
        assert description.name == type_name(SkiRental)
        assert type_name(RentalOffer) in description.parents
        assert description.fields["shop"] == "str"
        assert description.fields["price"] == "float"

    def test_describe_type_sample_mismatch_rejected(self):
        with pytest.raises(PSException):
            describe_type(SkiRental, sample=RentalOffer("s", 1.0, 1))

    def test_description_xml_round_trip(self):
        description = XmlTypeDescription(
            name="a.B", parents=["a.A"], fields={"x": "int", "y": "str"}
        )
        restored = XmlTypeDescription.from_xml_element(description.to_xml_element())
        assert restored == description
        assert restored.lineage() == ["a.B", "a.A"]

    def test_non_scalar_fields_rejected(self):
        premium = PremiumSkiRental("s", 1.0, "b", 1, extras=("boots",))
        with pytest.raises(PSException):
            describe_type(PremiumSkiRental, sample=premium)

    def test_codec_round_trip_with_known_type(self):
        codec = XmlEventCodec()
        codec.register(SkiRental)
        offer = SkiRental("shop", 45.0, "Head", 3.0)
        restored = codec.decode(codec.encode(offer))
        assert isinstance(restored, SkiRental)
        assert restored == offer

    def test_codec_produces_dynamic_event_for_unknown_type(self):
        encoder = XmlEventCodec()
        offer = SkiRental("shop", 45.0, "Head", 3.0)
        payload = encoder.encode(offer)
        decoder = XmlEventCodec()  # knows nothing about SkiRental
        event = decoder.decode(payload)
        assert isinstance(event, DynamicEvent)
        assert event.type_name == type_name(SkiRental)
        assert event.price == 45.0
        assert event["brand"] == "Head"
        assert len(event) == 4
        with pytest.raises(AttributeError):
            _ = event.nonexistent

    def test_dynamic_event_conforms_to_hierarchy(self):
        payload = XmlEventCodec().encode(SkiRental("shop", 45.0, "Head", 3.0))
        event = XmlEventCodec().decode(payload)
        assert event.conforms_to("SkiRental")
        assert event.conforms_to(type_name(RentalOffer))
        assert event.conforms_to("RentalOffer")
        assert not event.conforms_to("SnowboardRental")

    def test_decode_malformed_payload_rejected(self):
        with pytest.raises(Exception):
            XmlEventCodec().decode(b"<NotAnEvent/>")

    def test_known_type_names(self):
        codec = XmlEventCodec()
        codec.register(SkiRental, "Ski")
        assert codec.known_type_names() == ["Ski"]


class ReplyableOffer(SkiRental, Replyable):
    """A ski-rental offer whose publisher accepts direct responses."""


class TestReplyChannel:
    def test_reply_flow_end_to_end(self, lan):
        builder = lan
        shop_peer = builder.peer_named("peer-0")
        shopper_peer = builder.peer_named("peer-1")

        publisher = TPSEngine(
            ReplyableOffer, peer=shop_peer, config=TPSConfig(search_timeout=2.0)
        ).new_interface("JXTA")
        builder.settle(rounds=8)
        subscriber = TPSEngine(
            ReplyableOffer,
            peer=shopper_peer,
            config=TPSConfig(search_timeout=6.0, create_if_missing=False),
        ).new_interface("JXTA")
        inbox = []
        subscriber.subscribe(inbox.append)
        builder.settle(rounds=12)

        endpoint = ReplyEndpoint(shop_peer)
        builder.settle(rounds=4)
        offer = endpoint.attach(ReplyableOffer("XTremShop", 80.0, "Salomon", 7.0))
        receipt = publisher.publish(offer)
        builder.simulator.run_until(max(builder.simulator.now, receipt.completion_time))
        builder.settle(rounds=8)

        assert len(inbox) == 1
        received = inbox[0]
        assert received.accepts_replies()
        assert reply(shopper_peer, received, {"answer": "I will take them", "days": 7})
        builder.settle(rounds=6)

        assert len(endpoint.replies) == 1
        response = endpoint.replies[0]
        assert isinstance(response, Reply)
        assert response.responder == shopper_peer.peer_id
        assert response.body["answer"] == "I will take them"
        assert endpoint.replies_for(offer) == [response]

    def test_attach_requires_replyable_event(self, lan):
        builder = lan
        endpoint = ReplyEndpoint(builder.peer_named("peer-0"))
        with pytest.raises(PSException):
            endpoint.attach(SkiRental("s", 1.0, "b", 1))

    def test_reply_without_address_rejected(self, lan):
        builder = lan
        shopper = builder.peer_named("peer-1")
        with pytest.raises(PSException):
            reply(shopper, ReplyableOffer("s", 1.0, "b", 1), "hello")

    #: Reply addresses as a remote event may carry them; ``<peer>`` / ``<pipe>``
    #: stand for a well-formed URN of that kind.
    MALFORMED_ADDRESSES = {
        "missing-peer": {"pipe": "<pipe>"},
        "peer-not-a-urn": {"peer": "not-a-urn", "pipe": "<pipe>"},
        "peer-is-a-pipe-urn": {"peer": "<pipe>", "pipe": "<pipe>"},
        "missing-pipe": {"peer": "<peer>"},
        "pipe-not-a-urn": {"peer": "<peer>", "pipe": "not-a-urn"},
        "pipe-is-a-peer-urn": {"peer": "<peer>", "pipe": "<peer>"},
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_ADDRESSES))
    def test_malformed_reply_address_raises_psexception(self, lan, case):
        """The address travels inside a remote event, so a bad one is a
        PSException -- not a KeyError, an AdvertisementError or a send to a
        pipe that cannot exist."""
        builder = lan
        shopper = builder.peer_named("peer-1")
        urns = {
            "<peer>": builder.peer_named("peer-0").peer_id.to_urn(),
            "<pipe>": PipeID().to_urn(),
        }
        event = ReplyableOffer("s", 1.0, "b", 1)
        event.reply_address = {
            key: urns.get(value, value)
            for key, value in self.MALFORMED_ADDRESSES[case].items()
        }
        with pytest.raises(PSException):
            reply(shopper, event, "hello")
        assert shopper.metrics.counters().get("replies_sent", 0) == 0

    def test_reply_with_a_bogus_sender_is_counted_malformed(self, lan):
        """The sender URN is parsed inside the guarded block: a bogus one is a
        ``reply_malformed``, not an error raised into the endpoint dispatch."""
        builder = lan
        shop_peer = builder.peer_named("peer-0")
        shopper_peer = builder.peer_named("peer-1")
        endpoint = ReplyEndpoint(shop_peer)
        builder.settle(rounds=4)
        forged = Message()
        forged.add("TPSReplyBody", ObjectCodec(strict=False).encode("hi"))
        forged.add("TPSReplySender", "not-a-urn")
        shopper_peer.endpoint.learn_address(shop_peer.peer_id, shop_peer.node.address)
        shopper_peer.endpoint.send(
            shop_peer.peer_id,
            forged,
            "jxta.service.pipedata",
            endpoint.advertisement.pipe_id.to_urn(),
        )
        builder.settle(rounds=4)
        counters = shop_peer.metrics.counters()
        assert endpoint.replies == []
        assert counters.get("reply_malformed", 0) == 1
        assert counters.get("endpoint_listener_errors", 0) == 0

    def test_replies_for_unattached_event_is_empty(self, lan):
        builder = lan
        endpoint = ReplyEndpoint(builder.peer_named("peer-0"))
        assert endpoint.replies_for(ReplyableOffer("s", 1.0, "b", 1)) == []

    def test_closed_endpoint_stops_collecting(self, lan):
        builder = lan
        shop_peer = builder.peer_named("peer-0")
        shopper_peer = builder.peer_named("peer-1")
        endpoint = ReplyEndpoint(shop_peer)
        builder.settle(rounds=4)
        offer = endpoint.attach(ReplyableOffer("s", 1.0, "b", 1))
        endpoint.close()
        builder.settle(rounds=2)
        shopper_peer.endpoint.learn_address(shop_peer.peer_id, shop_peer.node.address)
        reply(shopper_peer, offer, "too late")
        builder.settle(rounds=4)
        assert endpoint.replies == []
