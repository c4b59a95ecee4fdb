"""Serialisation codecs used by the JXTA substrate and the TPS layer.

Two codecs are provided, mirroring the two representations in the paper's
system:

* :mod:`repro.serialization.xml_codec` -- a small XML document model:
  elements, attributes and verbatim text.  The writer emits XML 1.0 and
  rejects characters outside its ``Char`` production; the parser is the
  stdlib's expat, without namespace processing (``jxta:PA`` is one name),
  skipping comments and processing instructions and rejecting any
  ``DOCTYPE``.  JXTA advertisements are XML documents, and JXTA messages
  carry XML elements.
* :mod:`repro.serialization.object_codec` -- a compact, deterministic binary
  codec for application-defined event objects, standing in for the Java
  object serialisation the paper relies on (``SkiRental implements
  Serializable``).  Types must be registered (explicitly or implicitly via
  the TPS type registry), which is what lets the subscriber reconstruct a
  *typed* event and what makes type safety checkable.
"""

from __future__ import annotations

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "object_codec": ("ObjectCodec", "SerializationError", "UnregisteredTypeError"),
        "xml_codec": (
            "XmlElement",
            "XmlParseError",
            "escape_text",
            "parse_xml",
            "to_xml",
        ),
    },
)
