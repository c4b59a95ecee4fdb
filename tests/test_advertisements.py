"""Tests for advertisements and the advertisement factory (repro.jxta.advertisement)."""

from __future__ import annotations

import pytest

from repro.jxta.advertisement import (
    Advertisement,
    AdvertisementFactory,
    ModuleAdvertisement,
    PeerAdvertisement,
    PeerGroupAdvertisement,
    PipeAdvertisement,
    ServiceAdvertisement,
)
from repro.jxta.errors import AdvertisementError
from repro.jxta.ids import PeerGroupID, PeerID, PipeID


class TestAgeAndExpiry:
    def test_age_and_expiry(self):
        advertisement = Advertisement(name="thing", created_at=100.0)
        advertisement.lifetime = 50.0
        advertisement.expiration = 10.0
        assert advertisement.age(120.0) == pytest.approx(20.0)
        assert not advertisement.expired(120.0)
        assert advertisement.expired(151.0)
        assert advertisement.expired(111.0, remote=True)

    def test_age_never_negative(self):
        advertisement = Advertisement(created_at=100.0)
        assert advertisement.age(50.0) == 0.0


class TestMatching:
    def test_match_by_name_and_prefix(self):
        advertisement = Advertisement(name="PS$SkiRental")
        assert advertisement.matches("Name", "PS$SkiRental")
        assert advertisement.matches("Name", "PS$*")
        assert not advertisement.matches("Name", "Other*")
        assert advertisement.matches(None, None)
        assert advertisement.matches("Name", None)

    def test_match_unknown_attribute(self):
        advertisement = Advertisement(name="x")
        assert not advertisement.matches("Color", "blue")

    def test_peer_group_matches_gid(self):
        advertisement = PeerGroupAdvertisement(name="g")
        assert advertisement.matches("GID", advertisement.group_id.to_urn())

    def test_peer_matches_pid(self):
        advertisement = PeerAdvertisement(name="p")
        assert advertisement.matches("PID", advertisement.peer_id.to_urn())

    def test_peer_matches_the_group_it_lives_in(self):
        group_id = PeerGroupID()
        advertisement = PeerAdvertisement(name="p", group_id=group_id)
        assert advertisement.matches("GID", group_id.to_urn())
        assert not advertisement.matches("GID", PeerGroupID().to_urn())

    def test_peer_group_matches_description(self):
        advertisement = PeerGroupAdvertisement(name="g", description="ski rentals")
        assert advertisement.matches("Desc", "ski*")
        assert not advertisement.matches("Desc", "bikes*")

    @pytest.mark.parametrize(
        "make",
        [PeerAdvertisement, PeerGroupAdvertisement, PipeAdvertisement, ModuleAdvertisement],
        ids=lambda cls: cls.__name__,
    )
    def test_every_advertisement_matches_its_resource_id(self, make):
        advertisement = make(name="x")
        urn = advertisement.resource_id().to_urn()
        assert advertisement.matches("ID", urn)
        assert not advertisement.matches("ID", PipeID().to_urn())


class TestXmlRoundTrips:
    def test_peer_advertisement(self):
        advertisement = PeerAdvertisement(
            peer_id=PeerID(),
            name="workstation-1",
            endpoints=["tcp://host-1", "http://host-1"],
            is_rendezvous=True,
            is_router=False,
        )
        restored = AdvertisementFactory.from_document(advertisement.to_document())
        assert isinstance(restored, PeerAdvertisement)
        assert restored.peer_id == advertisement.peer_id
        assert restored.endpoints == advertisement.endpoints
        assert restored.is_rendezvous and not restored.is_router

    def test_pipe_advertisement(self):
        advertisement = PipeAdvertisement(pipe_id=PipeID(), name="SkiRental", pipe_kind="JxtaWire")
        restored = AdvertisementFactory.from_document(advertisement.to_document())
        assert isinstance(restored, PipeAdvertisement)
        assert restored.pipe_id == advertisement.pipe_id
        assert restored.pipe_kind == "JxtaWire"

    def test_service_advertisement_with_pipe(self):
        pipe = PipeAdvertisement(name="SkiRental")
        service = ServiceAdvertisement(
            name="jxta.service.wire",
            version="2.1",
            uri="urn:jxta:wire",
            code="WireService",
            security="none",
            keywords="SkiRental",
            pipe=pipe,
            params=["p1", "p2"],
        )
        restored = AdvertisementFactory.from_document(service.to_document())
        assert isinstance(restored, ServiceAdvertisement)
        assert restored.version == "2.1"
        assert restored.get_params() == ["p1", "p2"]
        assert restored.get_pipe().pipe_id == pipe.pipe_id

    def test_peer_group_advertisement_with_services(self):
        pipe = PipeAdvertisement(name="SkiRental")
        group = PeerGroupAdvertisement(
            group_id=PeerGroupID(),
            creator_peer_id=PeerID(),
            name="PS$SkiRental",
            description="ski rental group",
        )
        group.add_service(
            "jxta.service.wire", ServiceAdvertisement(name="jxta.service.wire", pipe=pipe)
        )
        restored = AdvertisementFactory.from_document(group.to_document())
        assert isinstance(restored, PeerGroupAdvertisement)
        assert restored.get_gid() == group.group_id
        assert restored.get_pid() == group.creator_peer_id
        wire = restored.service("jxta.service.wire")
        assert wire is not None
        assert wire.get_pipe().name == "SkiRental"

    def test_empty_service_entry_in_a_group_document_is_skipped(self):
        group = PeerGroupAdvertisement(name="PS$SkiRental")
        group.add_service("jxta.service.wire", ServiceAdvertisement(name="jxta.service.wire"))
        document = group.to_document().replace(
            "<Services>", '<Services><Service name="jxta.service.empty"/>', 1
        )
        assert '<Service name="jxta.service.empty"/>' in document
        restored = AdvertisementFactory.from_document(document)
        assert restored.service("jxta.service.empty") is None
        assert restored.service("jxta.service.wire") is not None

    def test_module_advertisement(self):
        advertisement = ModuleAdvertisement(name="resolver-impl", provider="repro")
        restored = AdvertisementFactory.from_document(advertisement.to_document())
        assert isinstance(restored, ModuleAdvertisement)
        assert restored.module_id == advertisement.module_id
        assert restored.provider == "repro"

    def test_document_size_is_positive(self):
        assert PeerAdvertisement(name="x").document_size > 50


class TestJxtaStyleAccessors:
    def test_peer_group_setters(self):
        advertisement = PeerGroupAdvertisement()
        peer_id = PeerID()
        group_id = PeerGroupID()
        advertisement.set_pid(peer_id.to_urn())
        advertisement.set_gid(group_id.to_urn())
        advertisement.set_name("PS$X")
        advertisement.set_app("app")
        advertisement.set_group_impl("impl")
        advertisement.set_is_rendezvous(True)
        assert advertisement.get_pid() == peer_id
        assert advertisement.get_gid() == group_id
        assert advertisement.get_app() == "app"
        assert advertisement.get_group_impl() == "impl"
        assert advertisement.is_rendezvous

    def test_service_setters(self):
        service = ServiceAdvertisement()
        pipe = PipeAdvertisement(name="X")
        service.set_name("wire")
        service.set_version("1.0")
        service.set_uri("u")
        service.set_code("c")
        service.set_security("none")
        service.set_keywords("X")
        service.set_pipe(pipe)
        service.set_params(["a"])
        assert service.get_pipe() is pipe
        assert service.get_params() == ["a"]

    def test_unique_keys(self):
        a = PeerGroupAdvertisement()
        b = PeerGroupAdvertisement()
        assert a.unique_key() != b.unique_key()
        assert a.unique_key() == a.unique_key()
        plain = Advertisement(name="n")
        assert "n" in plain.unique_key()

    def test_service_versions_are_distinct_cache_keys(self):
        old = ServiceAdvertisement(name="jxta.service.wire", version="1.0")
        new = ServiceAdvertisement(name="jxta.service.wire", version="2.0")
        assert old.unique_key() != new.unique_key()
        assert old.unique_key() == ServiceAdvertisement(
            name="jxta.service.wire", version="1.0"
        ).unique_key()


class TestFactory:
    def test_new_advertisement_by_type(self):
        advertisement = AdvertisementFactory.new_advertisement("jxta:PipeAdvertisement")
        assert isinstance(advertisement, PipeAdvertisement)

    def test_unknown_type_rejected(self):
        with pytest.raises(AdvertisementError):
            AdvertisementFactory.new_advertisement("jxta:Nope")

    def test_unknown_document_type_rejected(self):
        with pytest.raises(AdvertisementError):
            AdvertisementFactory.from_document('<?xml version="1.0"?><X type="jxta:Nope"/>')

    def test_known_types_registered(self):
        known = AdvertisementFactory.known_types()
        for name in ("jxta:PA", "jxta:PGA", "jxta:PipeAdvertisement", "jxta:ServiceAdvertisement"):
            assert name in known
