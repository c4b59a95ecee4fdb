"""Tests for JXTA identifiers (repro.jxta.ids)."""

from __future__ import annotations

import uuid

import pytest
from hypothesis import given, settings, strategies as st

from repro.jxta.errors import AdvertisementError
from repro.jxta.ids import (
    IDFactory,
    JxtaID,
    ModuleID,
    PeerGroupID,
    PeerID,
    PipeID,
    WORLD_GROUP_ID,
    seed_ids,
)

ALL_KINDS = [PeerID, PeerGroupID, PipeID, ModuleID]


@pytest.fixture(autouse=True)
def _unseeded_ids():
    """Keep the global ID factory random by default and restore it afterwards."""
    seed_ids(None)
    yield
    seed_ids(None)


class TestUrnFormat:
    @pytest.mark.parametrize("cls", ALL_KINDS)
    def test_urn_round_trip(self, cls):
        identifier = cls()
        urn = identifier.to_urn()
        assert urn.startswith("urn:jxta:uuid-")
        restored = JxtaID.from_urn(urn)
        assert type(restored) is cls
        assert restored == identifier

    @pytest.mark.parametrize("cls", ALL_KINDS)
    def test_urn_is_rendered_once_per_instance(self, cls):
        value = uuid.UUID(int=0xABCDEF)
        identifier = cls(value)
        assert identifier.to_urn() is identifier.to_urn()
        assert identifier.to_urn() == f"urn:jxta:uuid-{value.hex.upper()}{cls.kind_code}"
        # A lower-case spelling parses to an equal ID that renders canonically.
        assert cls.from_urn(identifier.to_urn().replace("ABCDEF", "abcdef")).to_urn() == str(identifier)

    def test_kind_specific_parse_rejects_other_kinds(self):
        pipe_urn = PipeID().to_urn()
        with pytest.raises(AdvertisementError):
            PeerID.from_urn(pipe_urn)

    def test_subclass_parse_accepts_own_kind(self):
        urn = PeerID().to_urn()
        assert isinstance(PeerID.from_urn(urn), PeerID)

    @pytest.mark.parametrize(
        "bad",
        [
            "not-a-urn",
            "urn:jxta:uuid-",                      # empty body
            "urn:jxta:uuid-" + "0" * 33,           # wrong length
            "urn:jxta:uuid-" + "0" * 32 + "ZZ",    # unknown kind code
            "urn:jxta:uuid-" + "g" * 32 + "03",    # non-hex uuid
        ],
    )
    def test_malformed_urns_rejected(self, bad):
        with pytest.raises(AdvertisementError):
            JxtaID.from_urn(bad)


class TestEqualityAndHashing:
    def test_same_uuid_different_kind_not_equal(self):
        value = uuid.uuid4()
        assert PeerID(value) != PipeID(value)
        assert hash(PeerID(value)) != hash(PipeID(value))

    def test_equal_ids_hash_equal(self):
        value = uuid.uuid4()
        assert PeerID(value) == PeerID(value)
        assert hash(PeerID(value)) == hash(PeerID(value))
        assert len({PeerID(value), PeerID(value)}) == 1

    def test_ordering_is_total_within_and_across_kinds(self):
        ids = sorted([PipeID(), PeerID(), PeerGroupID(), PeerID()])
        assert len(ids) == 4  # sortable without error

    def test_an_id_never_equals_or_orders_against_its_urn_string(self):
        identifier = PeerID()
        assert identifier != identifier.to_urn()
        assert identifier.to_urn() not in {identifier}
        with pytest.raises(TypeError):
            identifier < identifier.to_urn()

    def test_fresh_ids_are_unique(self):
        assert len({PeerID() for _ in range(100)}) == 100


class TestDeterminism:
    def test_seeded_generation_is_reproducible(self):
        seed_ids(42)
        first = [PeerID() for _ in range(3)]
        seed_ids(42)
        second = [PeerID() for _ in range(3)]
        assert first == second

    def test_factory_with_seed(self):
        a = IDFactory(7).new_uuid()
        b = IDFactory(7).new_uuid()
        assert a == b
        assert IDFactory(8).new_uuid() != a

    def test_world_group_id_is_stable(self):
        assert WORLD_GROUP_ID == PeerGroupID.from_urn(WORLD_GROUP_ID.to_urn())


@settings(max_examples=50, deadline=None)
@given(value=st.uuids(version=4), cls=st.sampled_from(ALL_KINDS))
def test_property_urn_round_trip(value, cls):
    identifier = cls(value)
    assert JxtaID.from_urn(identifier.to_urn()) == identifier
