"""Tests for the binary object codec (repro.serialization.object_codec)."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.skirental.types import SkiRental
from repro.serialization.object_codec import (
    ObjectCodec,
    SerializationError,
    UnregisteredTypeError,
)


class Point:
    def __init__(self, x, y):
        self.x = x
        self.y = y

    def __eq__(self, other):
        return isinstance(other, Point) and (self.x, self.y) == (other.x, other.y)


class Segment:
    def __init__(self, start: Point, end: Point):
        self.start = start
        self.end = end


class Stateful:
    """A class with custom __getstate__/__setstate__ hooks."""

    def __init__(self, value):
        self.value = value
        self.cache = "not serialised"

    def __getstate__(self):
        return {"value": self.value}

    def __setstate__(self, state):
        self.value = state["value"]
        self.cache = "restored"


@pytest.fixture
def codec():
    return ObjectCodec()


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -17, 10**40, 0.0, 3.25, -1e300, "", "héllo ✓", b"", b"\x00\xff"],
    )
    def test_round_trip(self, codec, value):
        assert codec.decode(codec.encode(value)) == value

    def test_float_nan(self, codec):
        restored = codec.decode(codec.encode(float("nan")))
        assert math.isnan(restored)

    def test_bool_is_not_confused_with_int(self, codec):
        assert codec.decode(codec.encode(True)) is True
        assert codec.decode(codec.encode(1)) == 1
        assert codec.decode(codec.encode(1)) is not True


class TestContainers:
    def test_nested_containers(self, codec):
        value = {"a": [1, 2, {"b": (3.5, None)}], "c": b"bytes"}
        assert codec.decode(codec.encode(value)) == value

    def test_tuple_vs_list_preserved(self, codec):
        assert isinstance(codec.decode(codec.encode((1, 2))), tuple)
        assert isinstance(codec.decode(codec.encode([1, 2])), list)

    def test_dict_key_ordering_is_deterministic(self, codec):
        a = codec.encode({"x": 1, "y": 2})
        b = codec.encode({"y": 2, "x": 1})
        assert a == b

    def test_empty_containers(self, codec):
        for value in ([], (), {}):
            assert codec.decode(codec.encode(value)) == value


class TestObjects:
    def test_registered_class_round_trip(self, codec):
        codec.register(Point)
        point = Point(1, 2.5)
        restored = codec.decode(codec.encode(point))
        assert isinstance(restored, Point)
        assert restored == point

    def test_nested_registered_objects(self, codec):
        codec.register(Point)
        codec.register(Segment)
        segment = Segment(Point(0, 0), Point(3, 4))
        restored = codec.decode(codec.encode(segment))
        assert isinstance(restored, Segment)
        assert restored.end == Point(3, 4)

    def test_unregistered_class_raises_in_strict_mode(self, codec):
        with pytest.raises(UnregisteredTypeError):
            codec.encode(Point(1, 2))

    def test_unregistered_decoding_raises(self, codec):
        codec.register(Point, "pt")
        payload = codec.encode(Point(1, 2))
        fresh = ObjectCodec()
        with pytest.raises(UnregisteredTypeError):
            fresh.decode(payload)

    def test_lenient_mode_degrades_to_dict(self):
        codec = ObjectCodec(strict=False)
        restored = codec.decode(codec.encode(Point(1, 2)))
        assert restored == {"x": 1, "y": 2}  # the type is lost, as for raw JXTA payloads

    def test_register_custom_name(self, codec):
        codec.register(Point, "geometry.Point")
        assert codec.registered_name(Point) == "geometry.Point"
        assert codec.class_for("geometry.Point") is Point

    def test_register_twice_same_class_is_noop(self, codec):
        codec.register(Point)
        codec.register(Point)
        assert codec.is_registered(Point)

    def test_register_conflicting_name_rejected(self, codec):
        codec.register(Point, "thing")
        with pytest.raises(SerializationError):
            codec.register(Segment, "thing")

    def test_getstate_setstate_hooks(self, codec):
        codec.register(Stateful)
        restored = codec.decode(codec.encode(Stateful(42)))
        assert restored.value == 42
        assert restored.cache == "restored"

    def test_encoded_size(self, codec):
        codec.register(Point)
        assert codec.encoded_size(Point(1, 2)) == len(codec.encode(Point(1, 2)))


class TestMalformedInput:
    def test_truncated_payload(self, codec):
        payload = codec.encode("hello world")
        with pytest.raises(SerializationError):
            codec.decode(payload[:-3])

    def test_trailing_bytes(self, codec):
        payload = codec.encode(7) + b"junk"
        with pytest.raises(SerializationError):
            codec.decode(payload)

    def test_unknown_tag(self, codec):
        with pytest.raises(SerializationError):
            codec.decode(b"?whatever")

    def test_empty_input(self, codec):
        with pytest.raises(SerializationError):
            codec.decode(b"")

    def test_declared_length_beyond_buffer(self, codec):
        # A string tag declaring 100 bytes but carrying only 3.
        import struct

        payload = b"S" + struct.pack(">I", 100) + b"abc"
        with pytest.raises(SerializationError):
            codec.decode(payload)


    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "generic"])
    def test_corrupt_bytes_raise_only_serialization_errors(self, compiled):
        """Every strict prefix and 3 000 seeded one-byte flips of an encoded
        event: decode returns a value or raises SerializationError, never a
        bare UnicodeDecodeError, ValueError or TypeError."""
        codec = ObjectCodec(compiled=compiled)
        codec.register(SkiRental, "t.SkiRental")
        event = SkiRental("shop-é", 120.5, "brand", 7)
        event.extras = {"days": [1, 2, (3, None)], "tag": "x", "raw": b"\x00\xff", "n": -42}
        payload = codec.encode(event)
        assert vars(codec.decode(payload)) == vars(event)
        for end in range(len(payload)):
            with pytest.raises(SerializationError):
                codec.decode(payload[:end])
        rng = random.Random(2002)
        for _ in range(3000):
            corrupt = bytearray(payload)
            corrupt[rng.randrange(len(corrupt))] ^= rng.randrange(1, 256)
            try:
                codec.decode(bytes(corrupt))
            except SerializationError:
                pass
        with pytest.raises(SerializationError):  # nesting deeper than the stack
            codec.decode(b"L\x00\x00\x00\x01" * 5000 + b"N")


class Slotted:
    __slots__ = ("shop", "price")

    def __init__(self, shop, price):
        self.shop = shop
        self.price = price


class SlottedChild(Slotted):
    """A ``__dict__`` subclass of a slotted base: state lives in both."""


class Empty:
    __slots__ = ()


class TestSlots:
    """``object.__getstate__`` returns (dict-or-None, {slot: value}) for a
    ``__slots__`` class; both codec paths must round-trip it."""

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "generic"])
    def test_slotted_classes_round_trip(self, compiled):
        codec = ObjectCodec(compiled=compiled)
        for cls in (Slotted, SlottedChild, Empty):
            codec.register(cls)
        child = SlottedChild("b", 2.0)
        child.note = "in __dict__"
        unset = Slotted("c", 3.0)
        del unset.price
        for event in (Slotted("a", 1.5), child, unset, Empty()):
            restored = codec.decode(codec.encode(event))
            assert type(restored) is type(event)
            for name in ("shop", "price", "note"):
                assert getattr(restored, name, None) == getattr(event, name, None)
        assert not hasattr(codec.decode(codec.encode(unset)), "price")
        assert vars(codec.decode(codec.encode(child))) == {"note": "in __dict__"}

    def test_both_paths_write_the_same_bytes(self):
        compiled, generic = ObjectCodec(), ObjectCodec(compiled=False)
        for codec in (compiled, generic):
            codec.register(Slotted)
        payload = compiled.encode(Slotted("a", 1.5))
        assert payload == generic.encode(Slotted("a", 1.5))
        assert compiled.decode(payload).shop == generic.decode(payload).shop == "a"

    def test_local_publish_delivers_a_slotted_event(self):
        from repro.core.local_engine import LocalBus, LocalTPSEngine

        bus = LocalBus()
        publisher = LocalTPSEngine(Slotted, bus=bus)
        subscriber = LocalTPSEngine(Slotted, bus=bus)
        received = []
        subscriber.subscribe(received.append)
        publisher.publish(Slotted("shop", 9.0))
        assert [(e.shop, e.price) for e in received] == [("shop", 9.0)]


# ----------------------------------------------------------------- property

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


@settings(max_examples=80, deadline=None)
@given(value=_values)
def test_property_codec_round_trip(value):
    """encode/decode is the identity on arbitrary nested plain values."""
    codec = ObjectCodec()
    assert codec.decode(codec.encode(value)) == value


@settings(max_examples=40, deadline=None)
@given(x=st.integers(), y=st.floats(allow_nan=False, allow_infinity=False))
def test_property_registered_object_round_trip(x, y):
    codec = ObjectCodec()
    codec.register(Point)
    restored = codec.decode(codec.encode(Point(x, y)))
    assert isinstance(restored, Point) and restored == Point(x, y)


@settings(max_examples=60, deadline=None)
@given(value=_values)
def test_property_encoding_is_deterministic(value):
    codec = ObjectCodec()
    assert codec.encode(value) == codec.encode(value)
