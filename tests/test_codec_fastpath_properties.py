"""Property tests: the compiled fast paths are byte-identical to the generic ones.

The hot-path overhaul (compiled codec plans, cached XML type descriptions,
escape fast paths, type-indexed routing) is only safe because every fast path
produces exactly what the original implementation produced.  These tests pin
that equivalence down:

* ``ObjectCodec(compiled=True)`` must encode scalars, containers, nested
  values and registered event objects to the *same bytes* as
  ``ObjectCodec(compiled=False)`` (the seed's generic recursive codec), and
  each must decode the other's output;
* ``XmlEventCodec(cache_descriptions=True)`` must produce byte-identical
  documents to the tree-building encoder and round-trip identically;
* ``XmlEventCodec.decode`` must read back every event the encoder writes,
  and a foreign writer's documents too;
* the escape fast path and the parser must stay inverses on arbitrary text.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.skirental.types import (
    PremiumSkiRental,
    RentalOffer,
    SkiRental,
    SnowboardRental,
)
from repro.core.exceptions import PSException
from repro.core.local_engine import LocalBus, LocalTPSEngine
from repro.core.type_registry import type_name
from repro.core.xml_types import XmlEventCodec
from repro.serialization.object_codec import ObjectCodec
from repro.serialization.xml_codec import XmlParseError, escape_text, parse_xml


#: Characters XML 1.0 cannot carry (its ``Char`` production excludes them).
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _is_xml(text):
    return _NOT_XML.search(text) is None


def _writable(event, *codecs):
    """Whether every string field of ``event`` is XML 1.0 text; when one is
    not, check that each XML codec refuses the event instead."""
    if all(_is_xml(value) for value in vars(event).values() if isinstance(value, str)):
        return True
    for codec in codecs:
        with pytest.raises(PSException):
            codec.encode(event)
    return False


class Holder:
    """An event class whose fields take arbitrary nested values."""

    def __init__(self, **fields):
        self.__dict__.update(fields)


class Stateful:
    """Custom __getstate__/__setstate__: must bypass the compiled plans."""

    def __init__(self, value):
        self.value = value
        self.cache = "not serialised"

    def __getstate__(self):
        return {"value": self.value}

    def __setstate__(self, state):
        self.value = state["value"]
        self.cache = "restored"


def _codec_pair():
    compiled = ObjectCodec()
    generic = ObjectCodec(compiled=False)
    for codec in (compiled, generic):
        codec.register(RentalOffer, "t.RentalOffer")
        codec.register(SkiRental, "t.SkiRental")
        codec.register(PremiumSkiRental, "t.PremiumSkiRental")
        codec.register(SnowboardRental, "t.SnowboardRental")
        codec.register(Holder, "t.Holder")
        codec.register(Stateful, "t.Stateful")
    return compiled, generic


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**18), max_value=10**18),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30),
    st.binary(max_size=30),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)

_events = st.one_of(
    st.builds(
        SkiRental,
        shop=st.text(max_size=12),
        price=st.floats(allow_nan=False, allow_infinity=False),
        brand=st.text(max_size=12),
        number_of_days=st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.builds(
        PremiumSkiRental,
        shop=st.text(max_size=12),
        price=st.floats(allow_nan=False, allow_infinity=False),
        brand=st.text(max_size=12),
        number_of_days=st.floats(allow_nan=False, allow_infinity=False),
        extras=st.lists(st.text(max_size=6), max_size=3).map(tuple),
    ),
    st.builds(
        SnowboardRental,
        shop=st.text(max_size=12),
        price=st.floats(allow_nan=False, allow_infinity=False),
        brand=st.text(max_size=12),
        number_of_days=st.floats(allow_nan=False, allow_infinity=False),
        stance=st.sampled_from(["regular", "goofy"]),
    ),
)


class TestCompiledCodecByteCompatibility:
    @settings(max_examples=120, deadline=None)
    @given(value=_values)
    def test_plain_values_encode_identically(self, value):
        compiled, generic = _codec_pair()
        fast_bytes = compiled.encode(value)
        assert fast_bytes == generic.encode(value)
        assert compiled.decode(fast_bytes) == generic.decode(fast_bytes) == value

    @settings(max_examples=120, deadline=None)
    @given(event=_events)
    def test_event_objects_encode_identically(self, event):
        compiled, generic = _codec_pair()
        fast_bytes = compiled.encode(event)
        assert fast_bytes == generic.encode(event)
        # Cross-decoding: each codec understands the other's output, and the
        # restored instance matches field for field.
        for source, sink in ((compiled, generic), (generic, compiled)):
            restored = sink.decode(source.encode(event))
            assert type(restored) is type(event)
            assert vars(restored) == vars(event)

    @settings(max_examples=60, deadline=None)
    @given(fields=st.dictionaries(
        st.text(min_size=1, max_size=10), _values, min_size=0, max_size=5
    ))
    def test_arbitrary_field_shapes_encode_identically(self, fields):
        compiled, generic = _codec_pair()
        event = Holder(**{f"f_{i}_{k}": v for i, (k, v) in enumerate(fields.items())})
        fast_bytes = compiled.encode(event)
        assert fast_bytes == generic.encode(event)
        assert vars(compiled.decode(fast_bytes)) == vars(generic.decode(fast_bytes))

    def test_shape_drift_within_one_class(self):
        """Instances of one class with different attribute sets all encode
        identically to the generic path (per-shape plan entries)."""
        compiled, generic = _codec_pair()
        variants = [
            Holder(a=1),
            Holder(a=1, b="x"),
            Holder(b="x", a=1),  # same keys, different insertion order
            Holder(),
            Holder(c=[1, {"k": (2.5, None)}]),
        ]
        for event in variants:
            assert compiled.encode(event) == generic.encode(event)
            assert vars(compiled.decode(compiled.encode(event))) == vars(event)

    def test_custom_getstate_bypasses_plans_and_matches(self):
        compiled, generic = _codec_pair()
        event = Stateful(42)
        assert compiled.encode(event) == generic.encode(event)
        restored = compiled.decode(compiled.encode(event))
        assert restored.value == 42 and restored.cache == "restored"

    def test_decode_plan_relearns_on_shape_change(self):
        """A learned key pattern must not corrupt decoding of a new shape."""
        compiled, generic = _codec_pair()
        first = Holder(alpha=1, beta="two")
        second = Holder(gamma=3.5)
        third = Holder(alpha=9, beta="ten")
        for event in (first, second, third, first):
            payload = generic.encode(event)
            assert vars(compiled.decode(payload)) == vars(event)


class TestXmlCodecCacheEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(event=st.builds(
        SkiRental,
        shop=st.text(max_size=20),
        price=st.floats(allow_nan=False, allow_infinity=False),
        brand=st.text(max_size=20),
        number_of_days=st.floats(allow_nan=False, allow_infinity=False),
    ))
    def test_cached_encoding_is_byte_identical(self, event):
        cached = XmlEventCodec()
        uncached = XmlEventCodec(cache_descriptions=False)
        if _writable(event, cached, uncached):
            assert cached.encode(event) == uncached.encode(event)

    @settings(max_examples=60, deadline=None)
    @given(
        shop=st.text(max_size=15),
        price=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_cached_round_trip_matches_uncached(self, shop, price):
        cached = XmlEventCodec()
        uncached = XmlEventCodec(cache_descriptions=False)
        for codec in (cached, uncached):
            codec.register(SkiRental)
        event = SkiRental(shop, price, "Atomic", 5)
        if not _writable(event, cached, uncached):
            return
        from_cached = cached.decode(cached.encode(event))
        from_uncached = uncached.decode(uncached.encode(event))
        assert type(from_cached) is type(from_uncached) is SkiRental
        # All three must agree exactly -- including boundary whitespace and
        # carriage returns in ``shop``: text is written and read verbatim.
        assert vars(from_cached) == vars(from_uncached) == vars(event)

    def test_scalar_kind_variants_get_distinct_cache_rows(self):
        cached = XmlEventCodec()
        uncached = XmlEventCodec(cache_descriptions=False)
        variants = [
            Holder(x=1),
            Holder(x=1.5),
            Holder(x="one"),
            Holder(x=True),
            Holder(x=None),
            Holder(x=1, y="two"),
        ]
        for event in variants:
            assert cached.encode(event) == uncached.encode(event)


class TestXmlDecode:
    """``decode`` reads every document through the one XML parser."""

    @settings(max_examples=80, deadline=None)
    @given(event=st.builds(
        SkiRental,
        shop=st.text(max_size=20),
        price=st.floats(allow_nan=False, allow_infinity=False),
        brand=st.text(max_size=20),
        number_of_days=st.floats(allow_nan=False, allow_infinity=False),
    ))
    def test_known_types_round_trip(self, event):
        codec = XmlEventCodec()
        codec.register(SkiRental)
        if not _writable(event, codec):
            return
        decoded = codec.decode(codec.encode(event))
        assert type(decoded) is SkiRental
        assert vars(decoded) == vars(event)

    @settings(max_examples=60, deadline=None)
    @given(fields=st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(
            st.none(), st.booleans(), st.integers(-10**9, 10**9),
            st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=20),
        ),
        max_size=5,
    ))
    def test_unknown_types_decode_to_dynamic_events(self, fields):
        codec = XmlEventCodec()
        event = Holder(**{f"f_{i}": v for i, v in enumerate(fields.values())})
        if not _writable(event, codec):
            return
        decoded = codec.decode(codec.encode(event))
        assert dict(decoded) == vars(event)
        assert decoded.type_name == type_name(Holder)
        assert decoded.description.lineage() == [type_name(Holder)]

    def test_register_after_decoding_is_picked_up(self):
        codec = XmlEventCodec()
        payload = XmlEventCodec().encode(SkiRental("s", 1.0, "b", 2))
        first = codec.decode(payload)
        assert type(first).__name__ == "DynamicEvent"
        codec.register(SkiRental)
        second = codec.decode(payload)
        assert type(second) is SkiRental

    def test_foreign_documents_decode(self):
        """Declarations, pretty-printing and reordered attributes are read
        like the codec's own documents."""
        event = SkiRental("shop", 2.5, "brand", 3)
        canonical = XmlEventCodec().encode(event).decode("utf-8")
        foreign_docs = [
            '<?xml version="1.0" encoding="UTF-8"?>' + canonical,
            canonical.replace("><", ">\n  <"),  # indented between tags
            canonical.replace('name="shop" kind="str"', 'kind="str" name="shop"'),
        ]
        codec = XmlEventCodec()
        codec.register(SkiRental)
        for document in foreign_docs:
            assert vars(codec.decode(document.encode("utf-8"))) == vars(event)

    @pytest.mark.parametrize("char", ["\x01", "\x1f", "\ufffe", "\uffff"], ids=repr)
    def test_non_xml_characters_in_a_foreign_document_raise(self, char):
        """A peer may send raw characters this codec never writes; the
        parser refuses them."""
        canonical = XmlEventCodec().encode(Holder(a="x")).decode("utf-8")
        foreign = canonical.replace(">x<", f">{char}<")
        assert foreign != canonical
        with pytest.raises(XmlParseError):
            XmlEventCodec().decode(foreign.encode("utf-8"))

    def test_entity_heavy_field_values_round_trip(self):
        event = Holder(tricky='a&b<c>"d"\'e\'', padded="  ws  ", empty="")
        codec = XmlEventCodec()
        assert dict(codec.decode(codec.encode(event))) == vars(event)


class TestEscapeFastPaths:
    @settings(max_examples=200, deadline=None)
    @given(text=st.text(max_size=60))
    def test_escape_parse_inverse(self, text):
        if _is_xml(text):
            assert parse_xml(f"<a>{escape_text(text)}</a>").text == text
        else:
            with pytest.raises(ValueError):
                escape_text(text)

    def test_no_specials_returns_same_object(self):
        text = "plain text without specials"
        assert escape_text(text) is text

    def test_all_specials(self):
        assert escape_text("&<>\"'\r") == "&amp;&lt;&gt;&quot;&apos;&#13;"
        assert parse_xml("<a>&amp;&lt;&gt;&quot;&apos;&#13;</a>").text == "&<>\"'\r"


class TestRoutingTableSemantics:
    """The type-indexed routing table must preserve Figure 7 semantics."""

    def test_subtype_routing_matches_isinstance(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(RentalOffer, bus=bus)
        all_offers = LocalTPSEngine(RentalOffer, bus=bus)
        ski_only = LocalTPSEngine(SkiRental, bus=bus)
        received = {"all": [], "ski": []}
        all_offers.subscribe(lambda e: received["all"].append(e))
        ski_only.subscribe(lambda e: received["ski"].append(e))
        publisher.publish(SkiRental("s", 1.0, "b", 2))
        publisher.publish(SnowboardRental("s", 1.0, "b", 2))
        publisher.publish(PremiumSkiRental("s", 1.0, "b", 2))
        assert len(received["all"]) == 3
        assert len(received["ski"]) == 2  # no snowboard offers (Figure 7)

    def test_routes_invalidated_on_attach_and_detach(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(SkiRental, bus=bus)
        first = LocalTPSEngine(SkiRental, bus=bus)
        first.subscribe(lambda e: None)
        assert publisher.publish(SkiRental("s", 1.0, "b", 2)).wire_receipts == [1]
        # A subscriber attached *after* the route row was built must be seen.
        second = LocalTPSEngine(SkiRental, bus=bus)
        second.subscribe(lambda e: None)
        assert publisher.publish(SkiRental("s", 1.0, "b", 2)).wire_receipts == [2]
        first.close()
        assert publisher.publish(SkiRental("s", 1.0, "b", 2)).wire_receipts == [1]

    def test_late_defined_subclass_routes_correctly(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(SkiRental, bus=bus)
        subscriber = LocalTPSEngine(SkiRental, bus=bus)
        events = []
        subscriber.subscribe(events.append)
        publisher.publish(SkiRental("s", 1.0, "b", 2))

        class NightSkiRental(SkiRental):
            pass

        publisher.publish(NightSkiRental("s", 2.0, "b", 1))
        assert [type(e).__name__ for e in events] == ["SkiRental", "NightSkiRental"]
