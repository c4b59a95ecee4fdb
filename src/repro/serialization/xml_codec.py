"""A minimal XML document model, an XML 1.0 writer and an expat-backed parser.

JXTA represents every advertisement as an XML document and every message as a
bag of named (possibly XML) elements.  The reproduction needs only part of
XML, and this module states exactly which part:

* **Model.** A document is one tree of :class:`XmlElement`: a name,
  attributes, text and child elements.  An element's text is all of its
  character data, verbatim and concatenated in document order (character
  data around and between child elements included); nothing is stripped.
  Comments and processing instructions are skipped.  Names are read the way
  expat reads them without namespace processing, so ``jxta:PA`` is one name.
* **Writer.** :func:`to_xml` emits XML 1.0.  The five specials are written
  as named entities; ``\\r`` in text, and ``\\t``, ``\\n`` and ``\\r`` in
  attribute values, as character references, so a conforming parser reads
  back the exact string.  A character outside XML 1.0's ``Char`` production
  (C0 controls other than tab, LF and CR; lone surrogates; U+FFFE and
  U+FFFF) cannot be written at all: the writer raises :class:`ValueError`,
  the error :class:`XmlElement` raises for a bad name.
* **Parser.** :func:`parse_xml` is the stdlib's expat.  It raises
  :class:`XmlParseError` on every malformed document (a character reference
  outside XML 1.0, such as ``&#1;`` or the uppercase ``&#X41;``, included),
  and on any ``DOCTYPE``, so a remote document cannot declare entities.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pyexpat import ExpatError, ErrorString, ParserCreate
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: The characters XML 1.0's ``Char`` production excludes, as a regex class body.
_NOT_CHAR = r"\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
_find_not_char = re.compile(f"[{_NOT_CHAR}]").search

_TEXT_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&apos;", "\r": "&#13;"}
)
_ATTRIBUTE_ESCAPES = {**_TEXT_ESCAPES, ord("\t"): "&#9;", ord("\n"): "&#10;"}
#: Any character the text / attribute writer must touch.  Most strings hold
#: none, so one failed scan is the whole cost of escaping them.
_TEXT_SPECIAL = re.compile(f"[&<>\"'\\r{_NOT_CHAR}]").search
_ATTRIBUTE_SPECIAL = re.compile(f"[&<>\"'\\t\\n\\r{_NOT_CHAR}]").search


class XmlParseError(ValueError):
    """Raised when a document cannot be parsed; ``position`` is a ``str`` index."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def _escape(text: str, special: Callable[[str], object], table: Dict[int, str]) -> str:
    if special(text) is None:
        return text
    bad = _find_not_char(text)
    if bad is not None:
        raise ValueError(f"{bad.group()!r} at index {bad.start()} is not an XML 1.0 character")
    return text.translate(table)


def escape_text(text: str) -> str:
    """Escape ``text`` as element content; raise ``ValueError`` on a non-XML character."""
    return _escape(text, _TEXT_SPECIAL, _TEXT_ESCAPES)


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

    def to_string(self) -> str:
        """Serialise the element (and subtree) to one line of XML 1.0."""
        attrs = "".join(
            f' {key}="{_escape(str(value), _ATTRIBUTE_SPECIAL, _ATTRIBUTE_ESCAPES)}"'
            for key, value in self.attributes.items()
        )
        inner = escape_text(self.text)
        if not self.children and not inner:
            return f"<{self.name}{attrs}/>"
        children = "".join(child.to_string() for child in self.children)
        return f"<{self.name}{attrs}>{inner}{children}</{self.name}>"


def to_xml(element: XmlElement, *, declaration: bool = True) -> str:
    """Serialise an element tree to a full document string."""
    body = element.to_string()
    if declaration:
        return f'<?xml version="1.0" encoding="UTF-8"?>{body}'
    return body


def _new_element(name: str, attributes: Dict[str, str]) -> XmlElement:
    """Build an :class:`XmlElement` for parser output, skipping validation.

    Expat has already checked the name, so the ``__post_init__`` whitespace
    re-scan (a per-character loop) would be pure overhead on the hot path.
    """
    element = XmlElement.__new__(XmlElement)
    element.name = name
    element.attributes = attributes
    element.text = ""
    element.children = []
    return element


def _char_index(document: str, byte_index: int) -> int:
    """Map expat's UTF-8 byte offset to an index into ``document``."""
    return len(document.encode("utf-8")[: max(byte_index, 0)].decode("utf-8", "ignore"))


def parse_xml(document: str) -> XmlElement:
    """Parse an XML document into an element tree (see the module docstring)."""
    top: List[XmlElement] = []
    stack: List[XmlElement] = []
    #: id -> (element, runs) for elements with more than one run of character
    #: data (mixed content, or text past expat's buffer); joined once at the
    #: end, so k runs cost O(total) rather than O(k * total).
    mixed: Dict[int, Tuple[XmlElement, List[str]]] = {}

    def start(name: str, attributes: Dict[str, str]) -> None:
        element = _new_element(name, attributes)
        (stack[-1].children if stack else top).append(element)
        stack.append(element)

    def text(data: str) -> None:
        element = stack[-1]
        if not element.text:
            element.text = data
        elif id(element) in mixed:
            mixed[id(element)][1].append(data)
        else:
            mixed[id(element)] = (element, [element.text, data])

    def doctype(*_: object) -> None:
        position = _char_index(document, parser.CurrentByteIndex)
        raise XmlParseError("DOCTYPE declarations are not accepted", position)

    parser = ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = start
    parser.EndElementHandler = lambda _name: stack.pop()
    parser.CharacterDataHandler = text
    if "<!DOCTYPE" in document:
        # Only when one may be present: the handler alone costs ~5 us per
        # document on expat's prolog path.
        parser.StartDoctypeDeclHandler = doctype
    try:
        parser.Parse(document, True)
    except ExpatError as error:
        position = _char_index(document, parser.ErrorByteIndex)
        raise XmlParseError(ErrorString(error.code), position) from None
    except UnicodeEncodeError as error:
        raise XmlParseError("lone surrogate is not an XML character", error.start) from None
    for element, runs in mixed.values():
        element.text = "".join(runs)
    return top[0]


__all__ = [
    "XmlElement",
    "XmlParseError",
    "escape_text",
    "parse_xml",
    "to_xml",
]
