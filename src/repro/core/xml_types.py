"""Loose, run-time type knowledge through XML type descriptions.

The paper's concluding remarks point at the main flexibility loss of TPS:
"our assumption that the different peers must a priori agree on the Java type
system [...].  Figuring out 'loose' ways of achieving such common knowledge
at run-time (e.g., by representing types through XML data structures) is the
subject of ongoing investigations."

This module implements that investigation for the reproduction:

* :func:`describe_type` introspects an event class and produces an
  :class:`XmlTypeDescription` -- the type's name, its ancestor chain (so
  subtype matching still works) and its field names/kinds;
* :class:`XmlEventCodec` serialises events as self-describing XML documents
  that embed the type description next to the field values;
* a receiving peer that *has* the class gets a normal typed instance back;
  a peer that does *not* have the class gets a :class:`DynamicEvent` -- a
  read-only, attribute-accessible view that still knows its place in the
  hierarchy (:meth:`DynamicEvent.conforms_to`), so loosely-coupled
  subscribers can filter by type name without sharing code.

The codec is a drop-in alternative to the binary
:class:`~repro.serialization.object_codec.ObjectCodec`; it deliberately does
not require both sides to import the same Python classes, trading
compactness for interoperability -- exactly the XML-versus-Java-types
trade-off the paper discusses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type

from repro.core.exceptions import PSException
from repro.core.type_registry import type_name
from repro.serialization.xml_codec import XmlElement, escape_text, parse_xml, to_xml

#: Field kinds the XML representation distinguishes.
_KINDS = ("str", "int", "float", "bool", "null")


def _kind_of(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    raise PSException(
        f"XML type descriptions only support scalar fields; got {type(value).__name__}"
    )


def _parse_value(kind: str, text: str) -> Any:
    if kind == "null":
        return None
    if kind == "bool":
        return text == "true"
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    return text


@dataclass
class XmlTypeDescription:
    """A language-neutral description of one event type."""

    name: str
    #: Ancestor type names, nearest first (excluding ``object``).
    parents: List[str] = field(default_factory=list)
    #: Field name -> kind (one of ``str``/``int``/``float``/``bool``/``null``).
    fields: Dict[str, str] = field(default_factory=dict)

    def lineage(self) -> List[str]:
        """The type's own name followed by its ancestors."""
        return [self.name, *self.parents]

    def to_xml_element(self) -> XmlElement:
        """Render the description as an XML element."""
        element = XmlElement("TypeDescription")
        element.add("Name", self.name)
        parents = element.add("Parents")
        for parent in self.parents:
            parents.add("Parent", parent)
        fields_el = element.add("Fields")
        for field_name, kind in sorted(self.fields.items()):
            fields_el.add("Field", field_name, kind=kind)
        return element

    @classmethod
    def from_xml_element(cls, element: XmlElement) -> "XmlTypeDescription":
        """Parse a description rendered by :meth:`to_xml_element`."""
        parents_el = element.find("Parents")
        fields_el = element.find("Fields")
        fields: Dict[str, str] = {}
        if fields_el is not None:
            for child in fields_el.find_all("Field"):
                fields[child.text] = child.attributes.get("kind", "str")
        return cls(
            name=element.child_text("Name"),
            parents=[p.text for p in parents_el.find_all("Parent")] if parents_el else [],
            fields=fields,
        )


def describe_type(cls: Type[Any], sample: Optional[Any] = None) -> XmlTypeDescription:
    """Build an :class:`XmlTypeDescription` for ``cls``.

    Field kinds are taken from a ``sample`` instance when given, otherwise
    from the class's ``__init__`` annotations (falling back to ``str``).
    """
    parents = [
        type_name(base)
        for base in cls.__mro__[1:]
        if base is not object
    ]
    fields: Dict[str, str] = {}
    if sample is not None:
        if not isinstance(sample, cls):
            raise PSException("the sample instance does not match the described class")
        for field_name, value in vars(sample).items():
            fields[field_name] = _kind_of(value)
    else:
        annotations = getattr(cls.__init__, "__annotations__", {})
        for field_name, annotation in annotations.items():
            if field_name in ("self", "return"):
                continue
            mapping = {str: "str", int: "int", float: "float", bool: "bool"}
            fields[field_name] = mapping.get(annotation, "str")
    return XmlTypeDescription(name=type_name(cls), parents=parents, fields=fields)


class DynamicEvent(Mapping[str, Any]):
    """A typed-but-classless event received from a peer we share no code with.

    Field values are available both as mapping items (``event["price"]``) and
    as attributes (``event.price``).  :meth:`conforms_to` answers the
    subtype-matching question using the embedded lineage.
    """

    def __init__(self, description: XmlTypeDescription, values: Dict[str, Any]) -> None:
        self._description = description
        self._values = dict(values)

    # ------------------------------------------------------------- identity

    @property
    def type_name(self) -> str:
        """The concrete type name the publisher used."""
        return self._description.name

    @property
    def description(self) -> XmlTypeDescription:
        """The embedded type description."""
        return self._description

    def conforms_to(self, name: str) -> bool:
        """Whether this event's type is ``name`` or one of its descendants.

        ``name`` may be a fully-qualified type name or a bare class name.
        """
        for candidate in self._description.lineage():
            if candidate == name or candidate.rsplit(".", 1)[-1] == name:
                return True
        return False

    # -------------------------------------------------------------- mapping

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __getattr__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(name) from None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        short = self.type_name.rsplit(".", 1)[-1]
        return f"DynamicEvent<{short}>({self._values!r})"


class XmlEventCodec:
    """Serialises events as self-describing XML documents.

    ``decode`` reconstructs a real instance when the concrete class has been
    registered (or passed via ``known_types``), and a :class:`DynamicEvent`
    otherwise.

    Because the embedded type description depends only on the event's class
    and its field kinds -- not on the field *values* -- the codec caches the
    pre-rendered ``<TypeDescription>`` fragment per ``(class, field-kinds)``
    signature and splices it into each document, instead of re-introspecting
    the class and re-rendering an element tree on every publish.  Pass
    ``cache_descriptions=False`` to force the original tree-building path;
    both produce byte-identical documents (enforced by the property tests in
    ``tests/test_codec_fastpath_properties.py``).  ``decode`` always parses
    the whole document, so this codec's documents and a foreign writer's
    are read by the one XML parser.
    """

    def __init__(
        self,
        known_types: Optional[Dict[str, Type[Any]]] = None,
        *,
        cache_descriptions: bool = True,
    ) -> None:
        self._known: Dict[str, Type[Any]] = dict(known_types or {})
        self.cache_descriptions = cache_descriptions
        #: (class, ((field, kind), ...)) -> pre-rendered TypeDescription XML and
        #: one ``<Value`` open tag per field.
        self._description_fragments: Dict[Any, Tuple[str, List[str]]] = {}

    # ------------------------------------------------------------- registry

    def register(self, cls: Type[Any], name: Optional[str] = None) -> Type[Any]:
        """Register a class so :meth:`decode` can rebuild real instances of it."""
        self._known[name or type_name(cls)] = cls
        return cls

    def known_type_names(self) -> List[str]:
        """Names of every registered class."""
        return sorted(self._known)

    # ------------------------------------------------------------- encoding

    def encode(self, event: Any) -> bytes:
        """Serialise an event (scalar fields only) to XML bytes.

        Raises :class:`PSException` for a field XML cannot carry: a
        non-scalar value, or a string holding a character outside XML 1.0.
        """
        try:
            if not self.cache_descriptions:
                return self._encode_tree(event)
            return self._encode_cached(event)
        except ValueError as error:
            raise PSException(f"cannot write {type_name(type(event))} as XML: {error}") from None

    def _encode_cached(self, event: Any) -> bytes:
        cls = type(event)
        state = vars(event)
        # _kind_of also validates that every field is scalar, exactly like
        # describe_type does first on the uncached path.
        pairs = tuple((field_name, _kind_of(value)) for field_name, value in state.items())
        cache_key = (cls, pairs)
        entry = self._description_fragments.get(cache_key)
        if entry is None:
            # The fragment, and each field's ``<Value ...`` open tag, rendered
            # once by the tree writer (so with its attribute escapes).
            entry = (
                describe_type(cls, sample=event).to_xml_element().to_string(),
                [XmlElement("Value", {"name": n, "kind": k}).to_string()[:-2] for n, k in pairs],
            )
            self._description_fragments[cache_key] = entry
        fragment, open_tags = entry
        parts = ["<XmlEvent>", fragment]
        if pairs:
            parts.append("<Values>")
            for open_tag, value in zip(open_tags, state.values()):
                text = "" if value is None else escape_text(_render(value))
                parts.append(f"{open_tag}>{text}</Value>" if text else f"{open_tag}/>")
            parts.append("</Values>")
        else:
            parts.append("<Values/>")
        parts.append("</XmlEvent>")
        return "".join(parts).encode("utf-8")

    def _encode_tree(self, event: Any) -> bytes:
        """The original, uncached encoder: introspect and build an element tree."""
        description = describe_type(type(event), sample=event)
        root = XmlElement("XmlEvent")
        root.add_child(description.to_xml_element())
        values = root.add("Values")
        for field_name, value in vars(event).items():
            values.add("Value", "" if value is None else _render(value), name=field_name,
                       kind=_kind_of(value))
        return to_xml(root, declaration=False).encode("utf-8")

    def decode(self, payload: bytes) -> Any:
        """Rebuild a typed instance (if the class is known) or a :class:`DynamicEvent`."""
        root = parse_xml(payload.decode("utf-8"))
        description_el = root.find("TypeDescription")
        if description_el is None:
            raise PSException("not an XML event: missing TypeDescription")
        description = XmlTypeDescription.from_xml_element(description_el)
        values: Dict[str, Any] = {}
        values_el = root.find("Values")
        if values_el is not None:
            for child in values_el.find_all("Value"):
                values[child.attributes["name"]] = _parse_value(
                    child.attributes.get("kind", "str"), child.text
                )
        return self._build_event(description, values)

    def _build_event(self, description: XmlTypeDescription, values: Dict[str, Any]) -> Any:
        # lineage() always starts with the concrete type name, so walking it
        # reduces to one lookup: a known concrete class yields an instance,
        # anything else (known ancestor or not) yields a DynamicEvent.
        cls = self._known.get(description.name)
        if cls is not None:
            instance = object.__new__(cls)
            instance.__dict__.update(values)
            return instance
        return DynamicEvent(description, values)


def _render(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


__all__ = [
    "DynamicEvent",
    "XmlEventCodec",
    "XmlTypeDescription",
    "describe_type",
]
