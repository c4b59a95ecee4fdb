"""Property and regression tests for the XML 1.0 writer and the expat parser.

The writer must emit documents any conforming parser reads back exactly, and
``parse_xml`` must turn every string into either a tree or an
:class:`XmlParseError`.  The oracles:

* round trip: for a generated tree, ``to_xml`` raises ``ValueError`` exactly
  when the tree holds a character outside XML 1.0's ``Char`` production, and
  otherwise ``parse_xml(to_xml(t)) == t``;
* an independent parser: ``xml.etree.ElementTree`` reads the same names,
  attributes and text from every emitted document whose names carry no
  ``:`` (ElementTree is namespace-aware and rejects unbound prefixes);
* a table of conformance cases, including the writer defects these tests
  were written against: raw newlines and tabs in attribute values, raw C0
  controls in text and raw carriage returns in text.
"""

from __future__ import annotations

import re
import time
import xml.etree.ElementTree as ElementTree

import pytest
from hypothesis import given, settings, strategies as st

from repro.serialization.xml_codec import (
    XmlElement,
    XmlParseError,
    escape_text,
    parse_xml,
    to_xml,
)

# Hostile content: raw specials, entity look-alikes, boundary/interior
# whitespace, embedded markup -- everything the writer must make survive.
_hostile_text = st.one_of(
    st.text(max_size=40),
    st.sampled_from(
        [
            " leading and trailing ",
            "\t tabbed \n",
            "   ",
            "&amp;",
            "&#65;",
            "&bogus;",
            "a & b < c > d",
            '<fake attr="1"/>',
            "</close>",
            "x&#32;y",
            " nbsp ",
        ]
    ),
)
_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9._:-]{0,10}", fullmatch=True)

#: Characters XML 1.0 cannot carry (its ``Char`` production excludes them).
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


@st.composite
def element_trees(draw, depth=2):
    element = XmlElement(draw(_names))
    element.text = draw(_hostile_text)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        element.attributes[draw(_names)] = draw(_hostile_text)
    if depth > 0:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            element.children.append(draw(element_trees(depth=depth - 1)))
    return element


def _strings(element):
    for node in element.iter():
        yield node.name
        yield node.text
        for key, value in node.attributes.items():
            yield key
            yield value


def _holds_non_xml(element):
    return any(_NOT_XML.search(text) for text in _strings(element))


def _same_as_etree(element, node):
    """``element`` (ours) and ``node`` (ElementTree's) read the same document."""
    text = "".join(
        [node.text or ""] + [child.tail or "" for child in node]
    )
    return (
        element.name == node.tag
        and element.attributes == node.attrib
        and element.text == text
        and len(element.children) == len(node)
        and all(_same_as_etree(mine, theirs) for mine, theirs in zip(element.children, node))
    )


class TestWriterConformance:
    @settings(max_examples=150, deadline=None)
    @given(element=element_trees())
    def test_to_xml_rejects_non_xml_or_round_trips(self, element):
        """Either the tree holds a non-XML 1.0 character and the writer
        refuses it, or the parser reads back exactly the tree written."""
        try:
            document = to_xml(element)
        except ValueError:
            assert _holds_non_xml(element)
        else:
            assert not _holds_non_xml(element)
            assert parse_xml(document) == element

    @settings(max_examples=150, deadline=None)
    @given(element=element_trees())
    def test_elementtree_reads_the_same_tree(self, element):
        """An independent parser agrees on every emitted document (names
        with ``:`` excluded: ElementTree rejects unbound prefixes)."""
        if _holds_non_xml(element) or any(":" in node.name for node in element.iter()):
            return
        if any(":" in key for node in element.iter() for key in node.attributes):
            return
        assert _same_as_etree(element, ElementTree.fromstring(to_xml(element)))

    @pytest.mark.parametrize(
        "value", ["\n", "\t", "\r", "a\r\nb", " \t\n "], ids=repr
    )
    def test_attribute_whitespace_round_trips(self, value):
        """Raw tab/newline in an attribute value used to read back as a
        space (XML 1.0 attribute-value normalisation)."""
        element = XmlElement("E", attributes={"a": value})
        assert parse_xml(to_xml(element)).attributes["a"] == value
        assert ElementTree.fromstring(to_xml(element)).attrib["a"] == value

    @pytest.mark.parametrize("text", ["x\ry", "\r", "a\r\nb"], ids=repr)
    def test_carriage_return_in_text_round_trips(self, text):
        """A raw CR in text used to read back as a newline (XML 1.0
        end-of-line handling)."""
        element = XmlElement("E", text=text)
        assert parse_xml(to_xml(element)).text == text
        assert ElementTree.fromstring(to_xml(element)).text == text

    @pytest.mark.parametrize(
        "char", ["\x00", "\x08", "\x0b", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"],
        ids=repr,
    )
    def test_non_xml_characters_are_refused_by_the_writer(self, char):
        """A C0 control in text used to be written raw, giving a document
        every conforming parser rejects."""
        with pytest.raises(ValueError):
            to_xml(XmlElement("E", text=f"a{char}b"))
        with pytest.raises(ValueError):
            to_xml(XmlElement("E", attributes={"a": char}))
        with pytest.raises(ValueError):
            escape_text(char)

    def test_allowed_whitespace_and_astral_text_is_written(self):
        element = XmlElement("E", text="\t\n\r \U0010ffffé", attributes={"a": "\U0001f600"})
        assert parse_xml(to_xml(element)) == element


class TestParserContract:
    @settings(max_examples=200, deadline=None)
    @given(document=st.text(alphabet=st.characters(exclude_categories=()), max_size=60))
    def test_any_string_gives_a_tree_or_a_parse_error(self, document):
        """Lone surrogates included: nothing but XmlParseError escapes."""
        try:
            element = parse_xml(document)
        except XmlParseError as error:
            assert 0 <= error.position <= len(document)
        else:
            assert isinstance(element, XmlElement)

    @settings(max_examples=100, deadline=None)
    @given(prefix=st.text(alphabet="<>/ a&;=\"'é中\U0001f600", max_size=20))
    def test_any_markup_fragment_gives_a_tree_or_a_parse_error(self, prefix):
        try:
            parse_xml(f"<r>{prefix}</r>")
        except XmlParseError:
            pass

    @pytest.mark.parametrize(
        "document, position",
        [
            ("<a>éé&bogus;</a>", 5),
            ("<é>é</x>", 6),
            ("<a>\U0001f600</b>", 6),
            ("<a>x\ud800</a>", 4),
        ],
        ids=repr,
    )
    def test_position_is_a_str_index(self, document, position):
        """Expat counts UTF-8 bytes; the error carries the ``str`` index."""
        with pytest.raises(XmlParseError) as info:
            parse_xml(document)
        assert info.value.position == position

    @pytest.mark.parametrize(
        "document",
        [
            '<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>',
            '<!DOCTYPE a [<!ENTITY a "aaaaaaaaaa"><!ENTITY b "&a;&a;&a;">]><a>&b;</a>',
            '<?xml version="1.0"?><!DOCTYPE a SYSTEM "http://example.invalid/a.dtd"><a/>',
            "<!DOCTYPE a><a/>",
        ],
    )
    def test_doctype_is_rejected(self, document):
        with pytest.raises(XmlParseError) as info:
            parse_xml(document)
        assert "DOCTYPE" in str(info.value)

    def test_mixed_content_parses_in_linear_time(self):
        """Remote documents carry no size limit: an element with k runs of
        character data between children must not cost k copies of its text
        (8 000 runs of 1 000 characters took ~3 s that way, ~0.05 s joined)."""
        runs = 8000
        document = "<a>" + ("x" * 1000 + "<b/>") * runs + "</a>"
        started = time.perf_counter()
        element = parse_xml(document)
        elapsed = time.perf_counter() - started
        assert len(element.text) == 1000 * runs and len(element.children) == runs
        assert elapsed < 1.0, f"{runs} mixed-content runs took {elapsed:.2f} s"

    @pytest.mark.parametrize(
        "document, expected",
        [
            (
                '<?xml version="1.0"?><!-- pre --><Root a="1" b=\'2\'><!-- in -->'
                "<Child kind='x'>text</Child> tail <Empty/></Root><!-- post -->",
                XmlElement(
                    "Root", {"a": "1", "b": "2"}, " tail ",
                    [XmlElement("Child", {"kind": "x"}, "text"), XmlElement("Empty")],
                ),
            ),
            (
                "<a>one<b/>two<?pi x?>three</a>",
                XmlElement("a", {}, "onetwothree", [XmlElement("b")]),
            ),
            ('<a x="a&lt;b&amp;c">&#x41;&#66;</a>', XmlElement("a", {"x": "a<b&c"}, "AB")),
            ("<long.name-with:colons _a='1'/>", XmlElement("long.name-with:colons", {"_a": "1"})),
            ("<a  spaced = '1'  ></a >", XmlElement("a", {"spaced": "1"})),
            ("<a><![CDATA[<x>&]]></a>", XmlElement("a", text="<x>&")),
            ('<a v="x\ny\tz">l1\r\nl2</a>', XmlElement("a", {"v": "x y z"}, "l1\nl2")),
        ],
    )
    def test_handwritten_documents(self, document, expected):
        assert parse_xml(document) == expected

    @pytest.mark.parametrize(
        "document",
        [
            "<a>&#xZZ;</a>",       # invalid hex digits
            "<a>&#1114112;</a>",   # beyond the Unicode range
            "<a>&#x110000;</a>",   # same, hex spelling
            "<a>&#-5;</a>",        # negative code point
            "<a>&#x;</a>",         # empty digits
            "<a>&#99999999999999999999;</a>",
            "<a attr='&#xQQ;'/>",  # same, in an attribute value
            "<a>&#2_0;</a>",       # no int()-style underscore leniency
            "<a>&# 65;</a>",       # nor surrounding whitespace
            "<a>&#+65;</a>",       # nor an explicit sign
            "<a>&#x+41;</a>",
            "<a>&#X43;</a>",       # XML 1.0 spells the hex prefix lowercase only
            "<a>&#xD800;</a>",     # surrogate: not an XML character
            "<a>&#57343;</a>",
            "<a>&#1;</a>",         # C0 control: not an XML 1.0 character
            "<a>\x08</a>",
        ],
    )
    def test_malformed_references_raise_parse_errors(self, document):
        with pytest.raises(XmlParseError):
            parse_xml(document)

    def test_valid_references_decode(self):
        assert parse_xml("<a>&#65;&#x42;</a>").text == "AB"
        # Maximum valid code point stays accepted.
        assert parse_xml("<a>&#1114111;</a>").text == chr(0x10FFFF)


class TestVerbatimText:
    def test_boundary_whitespace_is_written_raw(self):
        element = XmlElement("a", text=" x ")
        assert to_xml(element, declaration=False) == "<a> x </a>"

    @pytest.mark.parametrize(
        "text", [" x ", "x ", " x", "\tx\n", "  ", " ", "a b", "a\nb", " "]
    )
    def test_text_round_trips_exactly(self, text):
        element = XmlElement("a", text=text)
        assert parse_xml(to_xml(element, declaration=False)).text == text

    def test_text_with_children_round_trips(self):
        element = XmlElement("r", text=" padded ")
        element.add("c", "  inner  ")
        assert parse_xml(to_xml(element)) == element

    def test_indentation_is_text(self):
        """A hand-indented document keeps its whitespace: text is the
        element's character data, verbatim."""
        parsed = parse_xml("<r>\n  <c>x</c>\n</r>")
        assert parsed.text == "\n  \n"
        assert parsed.child_text("c") == "x"

    def test_wire_documents_without_boundary_whitespace_are_unchanged(self):
        """The Fig 18-20 documents hold none of the newly escaped characters:
        their bytes must not move."""
        element = XmlElement("Adv", attributes={"type": "jxta:PA"})
        element.add("Name", "peer-0")
        assert (
            to_xml(element, declaration=False)
            == "<Adv type=\"jxta:PA\"><Name>peer-0</Name></Adv>"
        )

    @settings(max_examples=150, deadline=None)
    @given(text=st.text(max_size=50))
    def test_escape_text_round_trips_any_xml_string(self, text):
        if _NOT_XML.search(text):
            with pytest.raises(ValueError):
                escape_text(text)
        else:
            assert parse_xml(f"<a>{escape_text(text)}</a>").text == text


class TestEmbeddedDocuments:
    def test_embedded_document_round_trips(self):
        inner = to_xml(XmlElement("Inner", attributes={"q": 'a"b'}))
        outer = XmlElement("Outer", text=inner)
        assert parse_xml(to_xml(outer)).text == inner

    def test_amp_entities_are_not_reinterpreted(self):
        # "&amp;lt;" is an escaped "&lt;", not a "<".
        assert parse_xml("<a>&amp;lt;</a>").text == "&lt;"
        assert parse_xml("<a>&amp;amp;</a>").text == "&amp;"

    @settings(max_examples=150, deadline=None)
    @given(text=st.text(alphabet='&<>"\'; ax#3\r\t\n', max_size=30))
    def test_entity_heavy_text_round_trips(self, text):
        element = XmlElement("a", attributes={"v": text}, text=text)
        assert parse_xml(to_xml(element)) == element
