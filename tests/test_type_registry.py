"""Tests for the TPS type registry, hierarchy handling and criteria."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.skirental.types import PremiumSkiRental, RentalOffer, SkiRental, SnowboardRental
from repro.core.exceptions import PSException, TypeMismatchError
from repro.core.type_registry import (
    Criteria,
    TypeRegistry,
    all_subtypes,
    hierarchy_root,
    type_name,
    validate_event_type,
)


class Base:
    def __init__(self, value=0):
        self.value = value


class Middle(Base):
    pass


class Leaf(Middle):
    pass


class OtherRoot:
    pass


class Mixin:
    pass


class MixedSafe(Base, Mixin):
    """Multiple inheritance where the extra base is a plain mixin rooted elsewhere."""


class TestHierarchyHelpers:
    def test_type_name_is_qualified(self):
        assert type_name(SkiRental).endswith("types.SkiRental")

    def test_hierarchy_root(self):
        assert hierarchy_root(Leaf) is Base
        assert hierarchy_root(Base) is Base
        assert hierarchy_root(PremiumSkiRental) is RentalOffer
        assert hierarchy_root(SnowboardRental) is RentalOffer

    def test_all_subtypes_includes_descendants(self):
        subtypes = all_subtypes(Base)
        assert Base in subtypes and Middle in subtypes and Leaf in subtypes
        assert OtherRoot not in subtypes

    def test_validate_rejects_non_classes_and_builtins(self):
        with pytest.raises(PSException):
            validate_event_type(42)
        with pytest.raises(PSException):
            validate_event_type(str)
        with pytest.raises(PSException):
            validate_event_type(dict)

    def test_multiple_inheritance_follows_primary_base(self):
        assert hierarchy_root(MixedSafe) is Base
        assert MixedSafe in all_subtypes(Base)

    def test_validate_accepts_normal_classes(self):
        assert validate_event_type(Leaf) is Leaf
        assert validate_event_type(MixedSafe) is MixedSafe


class TestTypeRegistry:
    def test_a_mixin_root_gets_a_registry(self):
        """While ``MixedSafe(Base, Mixin)`` exists, ``Mixin`` is still a
        hierarchy of its own: its registry skips ``MixedSafe`` (which belongs
        to ``Base``'s hierarchy) instead of raising."""
        registry = TypeRegistry(Mixin)
        assert registry.registered_types() == [Mixin]
        with pytest.raises(PSException, match="does not belong"):
            registry.register(MixedSafe)
        assert MixedSafe in TypeRegistry(Base).registered_types()

    def test_registers_whole_hierarchy(self):
        registry = TypeRegistry(SkiRental)
        names = {type_name(cls) for cls in registry.registered_types()}
        # The root and its known subtypes are registered even when the engine
        # was created for a deeper type.
        assert type_name(RentalOffer) in names
        assert type_name(SkiRental) in names
        assert type_name(PremiumSkiRental) in names
        assert type_name(SnowboardRental) in names

    def test_conforms_follows_figure7(self):
        registry = TypeRegistry(SkiRental)
        assert registry.conforms(SkiRental("s", 1.0, "b", 1))
        assert registry.conforms(PremiumSkiRental("s", 1.0, "b", 1))
        assert not registry.conforms(SnowboardRental("s", 1.0, "b", 1))
        assert not registry.conforms(RentalOffer("s", 1.0, 1))
        assert registry.in_hierarchy(SnowboardRental("s", 1.0, "b", 1))

    def test_check_publishable(self):
        registry = TypeRegistry(SkiRental)
        registry.check_publishable(SkiRental("s", 1.0, "b", 1))
        with pytest.raises(TypeMismatchError):
            registry.check_publishable(SnowboardRental("s", 1.0, "b", 1))
        with pytest.raises(PSException):
            registry.check_publishable(None)
        with pytest.raises(PSException):
            registry.check_publishable(SkiRental)  # a class, not an instance
        with pytest.raises(TypeMismatchError):
            registry.check_publishable("not an offer")

    def test_encode_decode_round_trip_preserves_concrete_type(self):
        registry = TypeRegistry(SkiRental)
        premium = PremiumSkiRental("shop", 150.0, "Atomic", 7, extras=("boots",))
        restored = registry.decode(registry.encode(premium))
        assert isinstance(restored, PremiumSkiRental)
        assert restored == premium

    def test_encode_registers_late_defined_subtypes(self):
        registry = TypeRegistry(Base)

        class LateSubtype(Base):
            pass

        instance = LateSubtype(value=9)
        restored = registry.decode(registry.encode(instance))
        assert type(restored).__name__ == "LateSubtype"
        assert restored.value == 9

    def test_register_foreign_type_rejected(self):
        registry = TypeRegistry(Base)
        with pytest.raises(PSException):
            registry.register(OtherRoot)

    def test_advertised_and_interface_names(self):
        registry = TypeRegistry(PremiumSkiRental)
        assert registry.advertised_name == type_name(RentalOffer)
        assert registry.interface_name == type_name(PremiumSkiRental)


class TestCriteria:
    def test_default_criteria_match_everything(self):
        criteria = Criteria()
        assert criteria.matches_advertisement(object())
        assert criteria.matches_event(object())

    def test_name_contains_filter(self):
        class FakeAdv:
            def __init__(self, name):
                self.name = name

        criteria = Criteria(name_contains="SkiRental")
        assert criteria.matches_advertisement(FakeAdv("PS$...SkiRental"))
        assert not criteria.matches_advertisement(FakeAdv("PS$Other"))

    def test_advertisement_predicate(self):
        criteria = Criteria(advertisement_predicate=lambda adv: adv == "yes")
        assert criteria.matches_advertisement("yes")
        assert not criteria.matches_advertisement("no")

    def test_event_predicate(self):
        criteria = Criteria(event_predicate=lambda offer: offer.price < 100)
        assert criteria.matches_event(SkiRental("s", 50.0, "b", 1))
        assert not criteria.matches_event(SkiRental("s", 150.0, "b", 1))


# ----------------------------------------------------------------- property

_prices = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_texts = st.text(max_size=20)


@settings(max_examples=60, deadline=None)
@given(shop=_texts, price=_prices, brand=_texts, days=st.floats(min_value=0.5, max_value=365))
def test_property_event_round_trip(shop, price, brand, days):
    """Typed encode/decode is the identity on arbitrary event field values."""
    registry = TypeRegistry(SkiRental)
    offer = SkiRental(shop, price, brand, days)
    restored = registry.decode(registry.encode(offer))
    assert isinstance(restored, SkiRental)
    assert restored == offer


@settings(max_examples=60, deadline=None)
@given(
    price=_prices,
    choose=st.sampled_from(["ski", "premium", "snowboard", "offer"]),
)
def test_property_conformance_matches_isinstance(price, choose):
    """`conforms` agrees with isinstance for every type in the hierarchy."""
    registry = TypeRegistry(SkiRental)
    event = {
        "ski": SkiRental("s", price, "b", 1),
        "premium": PremiumSkiRental("s", price, "b", 1),
        "snowboard": SnowboardRental("s", price, "b", 1),
        "offer": RentalOffer("s", price, 1),
    }[choose]
    assert registry.conforms(event) == isinstance(event, SkiRental)
