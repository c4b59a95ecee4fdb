"""Tests for JXTA messages (repro.jxta.message)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.jxta.message import Message, MessageElement


class TestMessageElement:
    def test_qualified_name(self):
        assert MessageElement("n", "x").qualified_name == "n"
        assert MessageElement("n", "x", namespace="jxta").qualified_name == "jxta:n"

    def test_text_and_bytes_views(self):
        text_element = MessageElement("t", "héllo")
        assert text_element.as_bytes == "héllo".encode("utf-8")
        assert text_element.as_text == "héllo"
        bytes_element = MessageElement("b", b"\x01\x02")
        assert bytes_element.as_bytes == b"\x01\x02"

    def test_bytes_content_reads_as_utf8_text(self):
        assert MessageElement("b", "héllo".encode("utf-8")).as_text == "héllo"
        message = Message()
        message.add("b", "wire".encode("utf-8"))
        assert message.get_text("b") == "wire"

    def test_size(self):
        assert MessageElement("t", "abc").size == 3
        assert MessageElement("b", b"12345").size == 5

    def test_elements_are_immutable(self):
        """A message keeps its frame between edits, so an element it holds
        must not be editable behind its back."""
        element = MessageElement("t", "abc")
        with pytest.raises(dataclasses.FrozenInstanceError):
            element.content = "changed"


class TestMessage:
    def test_add_and_get(self):
        message = Message()
        message.add("name", "value")
        message.add("blob", b"\x00\x01")
        assert message.get_text("name") == "value"
        assert message.get_bytes("blob") == b"\x00\x01"
        assert message.get_text("missing", "default") == "default"
        assert message.has("name")
        assert not message.has("missing")

    def test_mime_type_defaults(self):
        message = Message()
        assert message.add("t", "text").mime_type == "text/plain"
        assert message.add("b", b"bytes").mime_type == "application/octet-stream"

    def test_namespaces_are_distinct(self):
        message = Message()
        message.add("x", "plain")
        message.add("x", "scoped", namespace="ns")
        assert message.get_text("x") == "plain"
        assert message.get_text("x", namespace="ns") == "scoped"

    def test_elements_filtering_and_len(self):
        message = Message()
        message.add("a", "1")
        message.add("a", "2")
        message.add("b", "3")
        assert len(message) == 3
        assert [e.as_text for e in message.elements("a")] == ["1", "2"]
        assert len(message.elements()) == 3

    def test_remove(self):
        message = Message()
        message.add("a", "1")
        assert message.remove("a")
        assert not message.remove("a")
        assert not message.has("a")

    def test_size_sums_elements(self):
        message = Message()
        message.add("a", "12345")
        message.add("b", b"123")
        assert message.size == 8

    def test_dup_is_deep_enough(self):
        message = Message()
        message.add("a", "original")
        copy = message.dup()
        copy.add("b", "extra")
        copy.remove("a")
        assert message.has("a")
        assert not message.has("b")
        assert copy.message_number != message.message_number

    def test_round_trip(self):
        message = Message()
        message.add("text", "héllo", namespace="ns", mime_type="text/plain")
        message.add("data", b"\x00\xff\x10")
        restored = Message.from_bytes(message.to_bytes())
        assert restored.get_text("text", namespace="ns") == "héllo"
        assert restored.get_bytes("data") == b"\x00\xff\x10"
        assert len(restored) == 2
        assert restored.elements()[0].mime_type == "text/plain"

    def test_round_trip_preserves_order(self):
        message = Message()
        for index in range(10):
            message.add(f"e{index}", str(index))
        restored = Message.from_bytes(message.to_bytes())
        assert [e.name for e in restored.elements()] == [f"e{i}" for i in range(10)]

    def test_pad_to_reaches_target_size(self):
        message = Message()
        message.add("small", "x")
        message.pad_to(1910)
        assert message.size >= 1910
        # Padding an already large message is a no-op.
        before = message.size
        message.pad_to(100)
        assert message.size == before

    def test_message_numbers_are_unique(self):
        assert Message().message_number != Message().message_number


class TestFrameMemo:
    """``to_bytes`` is computed once per edit and shared by every caller."""

    @staticmethod
    def _message():
        message = Message()
        message.add("a", "1")
        message.add("b", b"\x02")
        return message

    def test_unedited_message_returns_the_same_bytes_object(self):
        message = self._message()
        assert message.to_bytes() is message.to_bytes()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.add("c", "3"),
            lambda m: m.add_element(MessageElement("c", "3")),
            lambda m: m.remove("a"),
            lambda m: m.pad_to(64),
        ],
        ids=["add", "add_element", "remove", "pad_to"],
    )
    def test_every_edit_invalidates(self, edit):
        message = self._message()
        before = message.to_bytes()
        assert message.has("a") and not message.has("c")  # builds the lookup index
        edit(message)
        after = message.to_bytes()
        assert after != before
        restored = Message.from_bytes(after)
        assert [(e.name, e.content) for e in restored] == [(e.name, e.content) for e in message]
        assert message.to_bytes() is after
        # The size and the lookup index are kept beside the frame: every
        # edit updates or drops them too.
        assert message.size == sum(e.size for e in message)
        assert restored.size == message.size
        for name in ("a", "c"):
            assert message.has(name) == any(e.name == name for e in message)

    def test_edits_that_change_nothing_keep_the_frame(self):
        message = self._message()
        before = message.to_bytes()
        assert not message.remove("missing")
        message.pad_to(1)  # already larger
        assert message.to_bytes() is before

    def test_dup_never_inherits_the_source_frame(self):
        message = self._message()
        frame = message.to_bytes()
        copy = message.dup()
        assert copy.to_bytes() == frame and copy.to_bytes() is not frame
        copy.add("c", "3")
        assert message.to_bytes() is frame
        assert len(Message.from_bytes(copy.to_bytes())) == 3
        assert len(Message.from_bytes(message.to_bytes())) == 2
        assert copy.size == sum(e.size for e in copy) == message.size + 1
        assert message.size == sum(e.size for e in message)

    def test_dup_shares_elements_not_the_list(self):
        message = self._message()
        copy = message.dup()
        assert all(a is b for a, b in zip(message, copy))
        copy.remove("a")
        assert message.has("a")


# ----------------------------------------------------------------- property

_names = st.from_regex(r"[A-Za-z][A-Za-z0-9._-]{0,12}", fullmatch=True)
_payload = st.one_of(st.text(max_size=40), st.binary(max_size=40))


@settings(max_examples=60, deadline=None)
@given(
    elements=st.lists(st.tuples(_names, _payload, st.sampled_from(["", "ns", "jxta"])), max_size=8)
)
def test_property_message_round_trip(elements):
    """Serialising and deserialising a message preserves all elements in order."""
    message = Message()
    for name, content, namespace in elements:
        message.add(name, content, namespace=namespace)
    restored = Message.from_bytes(message.to_bytes())
    assert restored.elements() == message.elements()
    assert restored.size == sum(e.size for e in restored) == message.size


# --------------------------------------------------------------------- fuzz


def test_message_frame_fuzz(check_frame_fuzz):
    message = Message()
    message.add("text", "héllo", namespace="ns")
    message.add("data", b"\x00\xff\x10", mime_type="application/x-thing")
    message.add("empty", "")
    check_frame_fuzz(message.to_bytes(), Message.from_bytes, Message.to_bytes)


@pytest.mark.parametrize(
    "frame",
    [
        b"",
        b"\x00\x00\x00",  # shorter than the count
        b"\xff\xff\xff\xff",  # four billion elements, none present
        b"\x00\x00\x00\x01" + b"\x00" + b"\x00\x01\x00\x00\x00\x00" + b"\xff\xff\xff\xff" + b"n",
        b"\x00\x00\x00\x01" + b"\x02" + b"\x00" * 10,  # unknown kind
        b"\x00\x00\x00\x01" + b"\x00" + b"\x00\x01" + b"\x00" * 8 + b"\xff",  # bad UTF-8
    ],
    ids=["empty", "short-count", "huge-count", "content-overrun", "kind", "utf8"],
)
def test_malformed_message_frames_raise(frame):
    with pytest.raises(ValueError):
        Message.from_bytes(frame)
