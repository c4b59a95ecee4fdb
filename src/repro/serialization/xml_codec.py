"""A minimal XML document model, writer and parser.

JXTA represents every advertisement as an XML document and every message as a
bag of named (possibly XML) elements.  The reproduction does not need the full
XML specification -- only elements, attributes, text content and nesting --
so this module implements exactly that, from scratch, with strict escaping.

Two parsers share the same recursive-descent grammar over the writer's
output:

* :class:`_ScanningParser` (the default) tokenises with precompiled regexes
  and ``str.find`` span jumps -- names, whole attribute runs, whitespace and
  text chunks are each consumed in a single C-level match instead of
  per-character ``isspace``/``isalnum`` loops.  Every advertisement,
  resolver body, discovery response and decoded XML event funnels through it.
* :class:`_Parser` is the original character-at-a-time implementation, kept
  reachable via ``parse_xml(document, fast=False)`` as the behavioural
  reference; the property tests in ``tests/test_xml_parser_properties.py``
  pin tree-equality between the two on generated documents.

Both accept the documents this package produces (and reasonable hand-written
ones), and raise :class:`XmlParseError` with a position on malformed input.
Comments and processing instructions are skipped.

Whitespace is significant: the writer entity-encodes leading/trailing
whitespace in element text (``escape_element_text``), so the parsers' strip
of raw pretty-printing whitespace never eats content and text round-trips
exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

_ESCAPES = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
    '"': "&quot;",
    "'": "&apos;",
}
_UNESCAPES = {v: k for k, v in _ESCAPES.items()}

#: One-pass translation table for :func:`escape_text` (ordinal -> entity).
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
#: Matches any character that needs escaping; most strings contain none, so
#: a single failed scan is the whole cost of escaping them.
_NEEDS_ESCAPE = re.compile(r"[&<>\"']").search


class XmlParseError(ValueError):
    """Raised when a document cannot be parsed; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def escape_text(text: str) -> str:
    """Escape the five XML special characters in ``text``.

    Strings containing no specials (the overwhelmingly common case on the
    publish hot path) are returned unchanged after one regex scan; the rest
    are rewritten in one pass with :meth:`str.translate`.
    """
    if _NEEDS_ESCAPE(text) is None:
        return text
    return text.translate(_ESCAPE_TABLE)


def escape_element_text(text: str) -> str:
    """Escape ``text`` for use as element content, preserving boundary whitespace.

    In addition to :func:`escape_text`, any leading/trailing whitespace is
    entity-encoded (``" x "`` becomes ``&#32;x&#32;``) so that the parser's
    strip of raw pretty-printing whitespace cannot eat it: write and parse
    stay symmetric for every string.  Text with no boundary whitespace (the
    normal case on the wire) is returned byte-identical to
    :func:`escape_text`.
    """
    escaped = escape_text(text)
    if not escaped or (not escaped[0].isspace() and not escaped[-1].isspace()):
        return escaped
    head = 0
    while head < len(escaped) and escaped[head].isspace():
        head += 1
    tail = len(escaped)
    while tail > head and escaped[tail - 1].isspace():
        tail -= 1
    return (
        "".join(f"&#{ord(c)};" for c in escaped[:head])
        + escaped[head:tail]
        + "".join(f"&#{ord(c)};" for c in escaped[tail:])
    )


#: Exactly the digit runs XML allows in character references -- ``int()``
#: alone is too lenient (it accepts ``2_0``, ``+65`` and surrounding space).
_DEC_DIGITS = re.compile(r"[0-9]+\Z").match
_HEX_DIGITS = re.compile(r"[0-9A-Fa-f]+\Z").match


def _decode_char_reference(entity: str, position: int) -> str:
    """Decode a ``&#...;`` / ``&#x...;`` reference, raising :class:`XmlParseError`.

    Malformed digits (``&#xZZ;``, ``&#2_0;``) and out-of-range code points
    (``&#1114112;``) must surface as parse errors carrying the entity's
    offset, not as bare ``ValueError``/``OverflowError`` from ``int``/``chr``
    -- nor be silently accepted through ``int()``'s lenient parsing.
    """
    if entity[2] in "xX":
        digits, base, valid = entity[3:-1], 16, _HEX_DIGITS
    else:
        digits, base, valid = entity[2:-1], 10, _DEC_DIGITS
    if valid(digits) is None:
        raise XmlParseError(f"invalid character reference {entity!r}", position)
    try:
        char = chr(int(digits, base))
    except (ValueError, OverflowError):
        raise XmlParseError(f"invalid character reference {entity!r}", position) from None
    if "\ud800" <= char <= "\udfff":
        # Surrogate code points are not XML characters, and accepting one
        # plants a string that explodes with UnicodeEncodeError at the next
        # UTF-8 encode -- far from any parse-error guard.
        raise XmlParseError(f"invalid character reference {entity!r}", position)
    return char


#: Finds an ``&`` that does *not* begin one of the five named entities.  When
#: this fails to match, the whole string can be unescaped with five chained
#: C-level ``str.replace`` passes (replacing ``&amp;`` last, so entity names
#: freed by it are never re-interpreted).
_NOT_NAMED_ENTITY = re.compile(r"&(?!(?:amp|lt|gt|quot|apos);)").search


def unescape_text(text: str) -> str:
    """Reverse :func:`escape_text` (also handles numeric character references).

    Text without ``&`` is returned unchanged.  Text whose every ``&`` starts
    a named entity -- e.g. a whole escaped XML document embedded as element
    text, the single heaviest unescape workload on the discovery path -- is
    rewritten with bulk ``str.replace`` passes.  Only text with numeric
    character references or errors walks the entity-by-entity loop.
    """
    amp = text.find("&")
    if amp == -1:
        return text
    if _NOT_NAMED_ENTITY(text, amp) is None:
        return (
            text.replace("&lt;", "<")
            .replace("&gt;", ">")
            .replace("&quot;", '"')
            .replace("&apos;", "'")
            .replace("&amp;", "&")
        )
    result: List[str] = []
    i = 0
    while amp != -1:
        result.append(text[i:amp])
        end = text.find(";", amp)
        if end == -1:
            raise XmlParseError("unterminated entity reference", amp)
        entity = text[amp : end + 1]
        if entity in _UNESCAPES:
            result.append(_UNESCAPES[entity])
        elif entity.startswith("&#") and len(entity) > 3:
            result.append(_decode_char_reference(entity, amp))
        else:
            raise XmlParseError(f"unknown entity {entity!r}", amp)
        i = end + 1
        amp = text.find("&", i)
    result.append(text[i:])
    return "".join(result)


@dataclass
class XmlElement:
    """One XML element: a name, attributes, text content and child elements."""

    name: str
    attributes: Dict[str, str] = field(default_factory=dict)
    text: str = ""
    children: List["XmlElement"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise ValueError(f"invalid element name {self.name!r}")

    # -------------------------------------------------------------- building

    def add_child(self, child: "XmlElement") -> "XmlElement":
        """Append a child element and return it (for chaining)."""
        self.children.append(child)
        return child

    def add(self, tag: str, text: str = "", **attributes: str) -> "XmlElement":
        """Create a child element with the given tag/text/attributes and return it.

        Keyword arguments become XML attributes (e.g. ``parent.add("Service",
        name="wire")`` produces ``<Service name="wire"/>``).
        """
        return self.add_child(XmlElement(name=tag, attributes=dict(attributes), text=text))

    def set_attribute(self, key: str, value: str) -> None:
        """Set an attribute on this element."""
        self.attributes[key] = value

    # -------------------------------------------------------------- querying

    def find(self, name: str) -> Optional["XmlElement"]:
        """Return the first direct child with the given name, or None."""
        for child in self.children:
            if child.name == name:
                return child
        return None

    def find_all(self, name: str) -> List["XmlElement"]:
        """Return every direct child with the given name."""
        return [child for child in self.children if child.name == name]

    def child_text(self, name: str, default: str = "") -> str:
        """Return the text of the first child with the given name, or ``default``."""
        child = self.find(name)
        return child.text if child is not None else default

    def iter(self) -> Iterator["XmlElement"]:
        """Depth-first iteration over this element and all descendants."""
        yield self
        for child in self.children:
            yield from child.iter()

    # ------------------------------------------------------------- rendering

    def to_string(self, *, indent: Optional[int] = None, _level: int = 0) -> str:
        """Serialise the element (and subtree) to a string.

        ``indent`` of None produces a compact single-line document; an integer
        pretty-prints with that many spaces per level.
        """
        pad = "" if indent is None else "\n" + " " * (indent * _level)
        child_pad = "" if indent is None else "\n" + " " * (indent * (_level + 1))
        attrs = "".join(
            f' {key}="{escape_text(str(value))}"' for key, value in self.attributes.items()
        )
        inner = escape_element_text(self.text)
        if not self.children and not inner:
            return f"<{self.name}{attrs}/>"
        parts = [f"<{self.name}{attrs}>"]
        if inner:
            parts.append(inner)
        for child in self.children:
            if indent is not None:
                parts.append(child_pad)
            parts.append(child.to_string(indent=indent, _level=_level + 1))
        if self.children and indent is not None:
            parts.append(pad if _level else "\n")
        parts.append(f"</{self.name}>")
        return "".join(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XmlElement):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self.text == other.text
            and self.children == other.children
        )


def to_xml(element: XmlElement, *, declaration: bool = True, indent: Optional[int] = None) -> str:
    """Serialise an element tree to a full document string."""
    body = element.to_string(indent=indent)
    if declaration:
        return f'<?xml version="1.0" encoding="UTF-8"?>{body}'
    return body


# Scanning tokenizer: each regex consumes one whole token (a name, a complete
# attribute, a tag tail) in a single C-level match.  The name classes mirror
# the legacy parser: ``[^\W\d]`` is "word char that is not a digit"
# (``str.isalpha`` plus underscore) and the continuation class is
# ``str.isalnum`` plus ``._-:`` (which is ``\w`` plus ``.-:``).  Sole
# (deliberate) leniency: non-decimal Unicode numerals (``Ⅻ``, ``²``) are
# word chars, so they are accepted as name *starts* where the legacy
# ``isalpha`` check is not -- unreachable from this package's writers and
# not worth a per-name Python check on the hot path.
_NAME_PATTERN = r"[^\W\d][\w.\-:]*"
_WS = re.compile(r"\s*").match
_NAME = re.compile(_NAME_PATTERN).match
#: The attribute-free open tag -- the dominant shape on the wire -- in one hit.
_SIMPLE_OPEN_TAG = re.compile(rf"<({_NAME_PATTERN})\s*(/?)>").match
#: One complete ``name="value"`` / ``name='value'`` attribute, quotes included.
_ATTRIBUTE = re.compile(rf"""\s*({_NAME_PATTERN})\s*=\s*("[^"]*"|'[^']*')""").match
_TAG_END = re.compile(r"\s*(/?)>").match
_CLOSE_TAG = re.compile(rf"</({_NAME_PATTERN})\s*>").match


def _new_element(name: str, attributes: Dict[str, str]) -> XmlElement:
    """Build an :class:`XmlElement` for parser output, skipping validation.

    The scanning parser's names come straight off the name regex, so the
    ``__post_init__`` whitespace re-scan (a per-character loop) would be pure
    overhead on the hot path.
    """
    element = XmlElement.__new__(XmlElement)
    element.name = name
    element.attributes = attributes
    element.text = ""
    element.children = []
    return element


class _ScanningParser:
    """The default parser: bulk regex scans instead of per-character loops.

    Grammar and semantics match :class:`_Parser` (the legacy reference
    implementation); only the tokenisation strategy differs.  Error messages
    on malformed input are produced by a slow diagnostic replay of the legacy
    steps, so the happy path pays nothing for them.
    """

    __slots__ = ("text", "pos")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def parse_document(self) -> XmlElement:
        self._skip_prolog()
        element = self._parse_element()
        self._skip_misc()
        if self.pos != len(self.text):
            raise XmlParseError("trailing content after document element", self.pos)
        return element

    # ------------------------------------------------------------- low level

    def _skip_prolog(self) -> None:
        self._skip_misc()
        if self.text.startswith("<?xml", self.pos):
            end = self.text.find("?>", self.pos)
            if end == -1:
                raise XmlParseError("unterminated XML declaration", self.pos)
            self.pos = end + 2
        self._skip_misc()

    def _skip_misc(self) -> None:
        text = self.text
        while True:
            self.pos = _WS(text, self.pos).end()
            if text.startswith("<!--", self.pos):
                end = text.find("-->", self.pos)
                if end == -1:
                    raise XmlParseError("unterminated comment", self.pos)
                self.pos = end + 3
            elif text.startswith("<?", self.pos) and not text.startswith("<?xml", self.pos):
                end = text.find("?>", self.pos)
                if end == -1:
                    raise XmlParseError("unterminated processing instruction", self.pos)
                self.pos = end + 2
            else:
                return

    # ------------------------------------------------------------------ tags

    def _parse_open_tag(self) -> "tuple[str, Dict[str, str], bool]":
        """Consume an open tag with attributes; returns (name, attrs, closed).

        Only reached when the attribute-free fast match in
        :meth:`_parse_element` failed, so this handles attributes and all the
        malformed-tag diagnostics.
        """
        text = self.text
        if not text.startswith("<", self.pos):
            raise XmlParseError("expected '<'", self.pos)
        name_match = _NAME(text, self.pos + 1)
        if name_match is None:
            raise XmlParseError("names must start with a letter or underscore", self.pos + 1)
        self.pos = name_match.end()
        attributes: Dict[str, str] = {}
        while True:
            attr = _ATTRIBUTE(text, self.pos)
            if attr is None:
                break
            value = attr.group(2)[1:-1]
            attributes[attr.group(1)] = unescape_text(value) if "&" in value else value
            self.pos = attr.end()
        end_match = _TAG_END(text, self.pos)
        if end_match is None:
            self._fail_in_tag()
        self.pos = end_match.end()
        return name_match.group(), attributes, end_match.group(1) == "/"

    def _fail_in_tag(self) -> None:
        """Replay the legacy attribute steps at the failure point for the error."""
        text = self.text
        pos = _WS(text, self.pos).end()
        if pos >= len(text):
            raise XmlParseError("expected '>'", pos)
        if text[pos] == "/":
            raise XmlParseError("expected '/>'", pos)
        name_match = _NAME(text, pos)
        if name_match is None:
            raise XmlParseError("names must start with a letter or underscore", pos)
        pos = _WS(text, name_match.end()).end()
        if not text.startswith("=", pos):
            raise XmlParseError("expected '='", pos)
        pos = _WS(text, pos + 1).end()
        if pos >= len(text) or text[pos] not in ('"', "'"):
            raise XmlParseError("attribute value must be quoted", pos)
        raise XmlParseError("unterminated attribute value", pos + 1)

    # -------------------------------------------------------------- elements

    def _parse_element(self) -> XmlElement:
        text = self.text
        match = _SIMPLE_OPEN_TAG(text, self.pos)
        if match is not None:  # attribute-free tag: the dominant wire shape
            self.pos = match.end()
            name = match.group(1)
            element = _new_element(name, {})
            if match.group(2):
                return element
        else:
            name, attributes, closed = self._parse_open_tag()
            element = _new_element(name, attributes)
            if closed:
                return element
        children = element.children
        text_chunks: Optional[List[str]] = None
        chunk = ""
        while True:
            lt = text.find("<", self.pos)
            if lt == -1:
                raise XmlParseError(f"unterminated element <{name}>", self.pos)
            if lt > self.pos:
                piece = text[self.pos : lt]
                if not chunk:
                    chunk = piece
                elif text_chunks is None:
                    text_chunks = [chunk, piece]
                else:
                    text_chunks.append(piece)
                self.pos = lt
            if text.startswith("</", lt):
                # Exact ``</name>`` (the only form the writer emits) in two
                # substring checks; anything else drops to the regex.
                after = lt + 2 + len(name)
                if text.startswith(name, lt + 2) and text.startswith(">", after):
                    self.pos = after + 1
                else:
                    close = _CLOSE_TAG(text, lt)
                    if close is None:
                        name_match = _NAME(text, lt + 2)
                        if name_match is None:
                            raise XmlParseError(
                                "names must start with a letter or underscore", lt + 2
                            )
                        raise XmlParseError("expected '>'", _WS(text, name_match.end()).end())
                    if close.group(1) != name:
                        raise XmlParseError(
                            f"mismatched closing tag </{close.group(1)}> for <{name}>",
                            close.end(1),
                        )
                    self.pos = close.end()
                if text_chunks is not None:
                    chunk = "".join(text_chunks)
                chunk = chunk.strip()
                element.text = unescape_text(chunk) if "&" in chunk else chunk
                return element
            if text.startswith("<!--", lt):
                end = text.find("-->", lt)
                if end == -1:
                    raise XmlParseError("unterminated comment", lt)
                self.pos = end + 3
                continue
            children.append(self._parse_element())


class _Parser:
    """The legacy character-at-a-time parser (``parse_xml(..., fast=False)``).

    Kept as the behavioural reference for :class:`_ScanningParser`; the
    property suite pins tree-equality between the two."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def parse_document(self) -> XmlElement:
        self._skip_prolog()
        element = self._parse_element()
        self._skip_whitespace_and_misc()
        if self.pos != len(self.text):
            raise XmlParseError("trailing content after document element", self.pos)
        return element

    # ------------------------------------------------------------- low level

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _expect(self, literal: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise XmlParseError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)

    def _skip_whitespace(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _skip_prolog(self) -> None:
        self._skip_whitespace_and_misc()
        if self.text.startswith("<?xml", self.pos):
            end = self.text.find("?>", self.pos)
            if end == -1:
                raise XmlParseError("unterminated XML declaration", self.pos)
            self.pos = end + 2
        self._skip_whitespace_and_misc()

    def _skip_whitespace_and_misc(self) -> None:
        while True:
            self._skip_whitespace()
            if self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos)
                if end == -1:
                    raise XmlParseError("unterminated comment", self.pos)
                self.pos = end + 3
            elif self.text.startswith("<?", self.pos) and not self.text.startswith(
                "<?xml", self.pos
            ):
                end = self.text.find("?>", self.pos)
                if end == -1:
                    raise XmlParseError("unterminated processing instruction", self.pos)
                self.pos = end + 2
            else:
                return

    def _parse_name(self) -> str:
        start = self.pos
        first = self._peek()
        if not (first.isalpha() or first == "_"):
            raise XmlParseError("names must start with a letter or underscore", self.pos)
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "._-:"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def _parse_attributes(self) -> Dict[str, str]:
        attributes: Dict[str, str] = {}
        while True:
            self._skip_whitespace()
            ch = self._peek()
            if ch in (">", "/", ""):
                return attributes
            key = self._parse_name()
            self._skip_whitespace()
            self._expect("=")
            self._skip_whitespace()
            quote = self._peek()
            if quote not in ('"', "'"):
                raise XmlParseError("attribute value must be quoted", self.pos)
            self.pos += 1
            end = self.text.find(quote, self.pos)
            if end == -1:
                raise XmlParseError("unterminated attribute value", self.pos)
            attributes[key] = unescape_text(self.text[self.pos : end])
            self.pos = end + 1

    def _parse_element(self) -> XmlElement:
        self._expect("<")
        name = self._parse_name()
        attributes = self._parse_attributes()
        if self._peek() == "/":
            self._expect("/>")
            return XmlElement(name=name, attributes=attributes)
        self._expect(">")
        element = XmlElement(name=name, attributes=attributes)
        text_chunks: List[str] = []
        while True:
            if self.pos >= len(self.text):
                raise XmlParseError(f"unterminated element <{name}>", self.pos)
            if self.text.startswith("</", self.pos):
                self._expect("</")
                closing = self._parse_name()
                if closing != name:
                    raise XmlParseError(
                        f"mismatched closing tag </{closing}> for <{name}>", self.pos
                    )
                self._skip_whitespace()
                self._expect(">")
                element.text = unescape_text("".join(text_chunks).strip())
                return element
            if self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos)
                if end == -1:
                    raise XmlParseError("unterminated comment", self.pos)
                self.pos = end + 3
                continue
            if self._peek() == "<":
                element.children.append(self._parse_element())
                continue
            next_tag = self.text.find("<", self.pos)
            if next_tag == -1:
                raise XmlParseError(f"unterminated element <{name}>", self.pos)
            text_chunks.append(self.text[self.pos : next_tag])
            self.pos = next_tag


def parse_xml(document: str, *, fast: bool = True) -> XmlElement:
    """Parse a document string produced by :func:`to_xml` back into an element tree.

    ``fast=False`` routes through the legacy character-at-a-time parser; the
    two produce identical trees on every document both accept, which the
    property suite in ``tests/test_xml_parser_properties.py`` enforces.  (The
    scanning parser is lenient in exactly one place: non-decimal Unicode
    numerals as name starts -- see the note at ``_NAME_PATTERN``.)
    """
    if fast:
        return _ScanningParser(document).parse_document()
    return _Parser(document).parse_document()


__all__ = [
    "XmlElement",
    "XmlParseError",
    "escape_element_text",
    "escape_text",
    "parse_xml",
    "to_xml",
    "unescape_text",
]
