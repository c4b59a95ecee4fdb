"""Tests for the XML codec (repro.serialization.xml_codec)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.serialization.xml_codec import (
    XmlElement,
    XmlParseError,
    escape_text,
    parse_xml,
    to_xml,
)


def _read_text(escaped):
    return parse_xml(f"<a>{escaped}</a>").text


class TestEscaping:
    def test_escape_round_trip(self):
        text = 'a < b & c > "d" \'e\''
        assert _read_text(escape_text(text)) == text

    def test_numeric_entities(self):
        assert _read_text("&#65;&#x42;") == "AB"

    def test_unknown_entity_raises(self):
        with pytest.raises(XmlParseError):
            _read_text("&bogus;")

    def test_unterminated_entity_raises(self):
        with pytest.raises(XmlParseError):
            _read_text("&amp")


class TestXmlElement:
    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            XmlElement("bad name")
        with pytest.raises(ValueError):
            XmlElement("")

    def test_add_builds_children_with_attributes(self):
        root = XmlElement("Root")
        child = root.add("Child", "text", kind="demo")
        assert child.name == "Child"
        assert root.find("Child") is child
        assert root.find("Child").attributes == {"kind": "demo"}

    def test_find_and_find_all(self):
        root = XmlElement("Root")
        root.add("Item", "1")
        root.add("Item", "2")
        root.add("Other", "3")
        assert root.find("Item").text == "1"
        assert [c.text for c in root.find_all("Item")] == ["1", "2"]
        assert root.find("Missing") is None

    def test_child_text_default(self):
        root = XmlElement("Root")
        root.add("Name", "value")
        assert root.child_text("Name") == "value"
        assert root.child_text("Missing", "fallback") == "fallback"

    def test_iter_walks_depth_first(self):
        root = XmlElement("a")
        b = root.add("b")
        b.add("c")
        root.add("d")
        assert [e.name for e in root.iter()] == ["a", "b", "c", "d"]

    def test_equality(self):
        a = XmlElement("x", attributes={"k": "v"}, text="t")
        b = XmlElement("x", attributes={"k": "v"}, text="t")
        assert a == b
        b.add("child")
        assert a != b


class TestRoundTrip:
    def test_simple_document(self):
        root = XmlElement("Adv", attributes={"type": "jxta:PA"})
        root.add("Name", "peer-0")
        root.add("Nested").add("Deep", "inner text")
        document = to_xml(root)
        parsed = parse_xml(document)
        assert parsed == root

    def test_declaration_optional(self):
        root = XmlElement("A")
        assert to_xml(root).startswith("<?xml")
        assert to_xml(root, declaration=False) == "<A/>"

    def test_special_characters_survive(self):
        root = XmlElement("Doc")
        root.add("Body", "<embedded> & 'quoted' \"text\"")
        root.set_attribute("attr", "a<b&c")
        parsed = parse_xml(to_xml(root))
        assert parsed.child_text("Body") == "<embedded> & 'quoted' \"text\""
        assert parsed.attributes["attr"] == "a<b&c"

    def test_nested_document_as_text(self):
        # Discovery responses embed whole advertisement documents as text.
        inner = to_xml(XmlElement("Inner", attributes={"x": "1"}))
        outer = XmlElement("Outer")
        outer.add("Adv", inner)
        parsed = parse_xml(to_xml(outer))
        assert parse_xml(parsed.child_text("Adv")).name == "Inner"

    def test_pretty_printing_parses_back(self):
        pretty = "<Root>\n  <A>1</A>\n  <B>\n    <C>2</C>\n  </B>\n</Root>\n"
        parsed = parse_xml(pretty)
        assert parsed.child_text("A") == "1"
        assert parsed.find("B").child_text("C") == "2"
        assert parsed.text == "\n  \n  \n"  # indentation is character data

    def test_comments_and_pi_are_skipped(self):
        document = (
            '<?xml version="1.0"?><!-- a comment --><Root><!-- inner -->'
            "<Child>x</Child></Root>"
        )
        parsed = parse_xml(document)
        assert parsed.child_text("Child") == "x"


class TestParseErrors:
    @pytest.mark.parametrize(
        "document",
        [
            "<Root>",                      # unterminated element
            "<Root></Other>",              # mismatched closing tag
            "<Root attr=value/>",          # unquoted attribute
            "<Root/><Extra/>",             # trailing content
            "<Root attr='x/>",             # unterminated attribute value
            "<1abc/>",                     # invalid name start... parsed as name error
            "plain text",                  # no element at all
        ],
    )
    def test_malformed_documents_raise(self, document):
        with pytest.raises(XmlParseError):
            parse_xml(document)

    def test_error_carries_position(self):
        try:
            parse_xml("<Root></Wrong>")
        except XmlParseError as error:
            assert error.position > 0
        else:  # pragma: no cover
            pytest.fail("expected XmlParseError")


# ----------------------------------------------------------------- property


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=40
)
_names = st.from_regex(r"[A-Za-z][A-Za-z0-9._-]{0,10}", fullmatch=True)


@st.composite
def xml_elements(draw, depth=2):
    element = XmlElement(draw(_names))
    # Text is written and read verbatim, so arbitrary (unstripped) text
    # round-trips.
    element.text = draw(_text)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        key = draw(_names)
        element.attributes[key] = draw(_text)
    if depth > 0:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            element.children.append(draw(xml_elements(depth=depth - 1)))
    return element


@settings(max_examples=60, deadline=None)
@given(element=xml_elements())
def test_property_xml_round_trip(element):
    """Any element tree the writer can produce, the parser reads back identically."""
    parsed = parse_xml(to_xml(element))
    assert parsed == element


@settings(max_examples=100, deadline=None)
@given(text=_text)
def test_property_escaping_round_trip(text):
    assert _read_text(escape_text(text)) == text
