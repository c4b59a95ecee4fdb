"""JXTA messages.

A JXTA message is an ordered bag of named elements, each with an optional
namespace and a MIME type, carrying either text or bytes.  Services
communicate by adding elements to a message, handing it to the endpoint (or a
pipe), and reading elements back out on the receiving side.

Messages serialise to a fixed-layout binary frame (all integers big-endian)::

    u32 element count
    per element:
        u8 kind (0 = text, 1 = bytes)
        u16 name length, u16 namespace length, u16 MIME type length,
        u32 content length
        name, namespace, MIME type, content   (strings and text as UTF-8)

Content bytes are copied into the frame as they are; nothing walks them (a
name, namespace or MIME type is a header field, at most 65 535 bytes).
:meth:`Message.from_bytes` accepts exactly the frames :meth:`Message.to_bytes`
produces -- a length that overruns the buffer, trailing bytes, an unknown
kind or invalid UTF-8 raise :class:`ValueError`.  The frame is computed once
per message and kept until the message is edited, so sending one message to
many peers, and re-sending it, shares one ``bytes`` object.  The content size
is kept beside it (edits update it; a parsed frame reads it off the length
headers), and lookups by name go through an index built on the first one.

The serialised size is what the network and the cost model account, so padding
a message (as the benchmarks do to reach the paper's 1910-byte message size)
genuinely affects simulated transmission and serialisation costs.
"""

from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

_COUNT = struct.Struct(">I")
#: kind, then the byte lengths of name, namespace, MIME type and content.
_ELEMENT = struct.Struct(">BHHHI")

_message_counter = itertools.count(1)

#: Distinct element headers (name, namespace, MIME type) whose conversion
#: each direction remembers: frames repeat a few, so each is converted once.
_HEADER_CACHE = 512

_new_element = object.__new__


@dataclass(frozen=True)
class MessageElement:
    """One named, immutable element inside a message.

    Attributes
    ----------
    name:
        Element name (unique per namespace by convention, not enforced --
        JXTA allows repeated elements).
    content:
        Either text (``str``) or raw bytes.
    namespace:
        Namespace string; the empty string is the default namespace.
    mime_type:
        Informational MIME type (``text/plain``, ``application/octet-stream``...).
    """

    name: str
    content: Union[str, bytes]
    namespace: str = ""
    mime_type: str = "text/plain"

    @property
    def qualified_name(self) -> str:
        """``namespace:name`` (or just ``name`` for the default namespace)."""
        return f"{self.namespace}:{self.name}" if self.namespace else self.name

    @property
    def as_bytes(self) -> bytes:
        """The content as bytes (text is UTF-8 encoded)."""
        if isinstance(self.content, bytes):
            return self.content
        return self.content.encode("utf-8")

    @property
    def as_text(self) -> str:
        """The content as text (bytes are UTF-8 decoded)."""
        if isinstance(self.content, str):
            return self.content
        return self.content.decode("utf-8")

    @property
    def size(self) -> int:
        """Size of the content in bytes."""
        return len(self.as_bytes)


@functools.lru_cache(maxsize=_HEADER_CACHE)
def _encode_header(name: str, namespace: str, mime_type: str) -> Tuple[int, int, int, bytes]:
    """The byte lengths of an element's name, namespace and MIME type, then
    their UTF-8 encodings joined."""
    name_raw, namespace_raw, mime_raw = name.encode(), namespace.encode(), mime_type.encode()
    return len(name_raw), len(namespace_raw), len(mime_raw), name_raw + namespace_raw + mime_raw


@functools.lru_cache(maxsize=_HEADER_CACHE)
def _decode_header(n_name: int, n_namespace: int, raw: bytes) -> Dict[str, object]:
    """The inverse of :func:`_encode_header`: a field dict in ``MessageElement``
    field order, the content left to fill in.  Never mutated: copy it.  Bad
    UTF-8 raises (ValueError) and is not remembered."""
    end = n_name + n_namespace
    name, namespace, mime_type = raw[:n_name].decode(), raw[n_name:end].decode(), raw[end:].decode()
    return {"name": name, "content": None, "namespace": namespace, "mime_type": mime_type}


class Message:
    """An ordered collection of :class:`MessageElement` objects.

    The class mirrors the small API surface the paper's code uses: adding
    elements, reading them back, duplicating a message before re-sending it
    (``msg.dup()`` in Figure 17), and serialising it for the wire.
    """

    def __init__(self, elements: Optional[List[MessageElement]] = None) -> None:
        self._elements: List[MessageElement] = list(elements or [])
        #: The frame of the current elements; every edit drops it.
        self._encoded: Optional[bytes] = None
        #: Total content bytes, computed on demand and kept up to date by edits.
        self._size: Optional[int] = None if self._elements else 0
        #: (name, namespace) -> first such element, built on the first lookup.
        self._index: Optional[Dict[Tuple[str, str], MessageElement]] = None
        self.message_number = next(_message_counter)

    # --------------------------------------------------------------- editing

    def add_element(self, element: MessageElement) -> None:
        """Append an element to the message."""
        self._elements.append(element)
        self._encoded = self._index = None
        if self._size is not None:
            self._size += element.size

    def add(
        self,
        name: str,
        content: Union[str, bytes],
        *,
        namespace: str = "",
        mime_type: Optional[str] = None,
    ) -> MessageElement:
        """Create, append and return an element."""
        if mime_type is None:
            mime_type = "text/plain" if isinstance(content, str) else "application/octet-stream"
        # The frozen __init__ sets each field through object.__setattr__;
        # filling the instance dict in field order builds the same object.
        element = _new_element(MessageElement)
        fields = element.__dict__
        fields.update(name=name, content=content, namespace=namespace, mime_type=mime_type)
        self.add_element(element)
        return element

    def remove(self, name: str, *, namespace: str = "") -> bool:
        """Remove the first element with the given name; return whether one was removed."""
        for index, element in enumerate(self._elements):
            if element.name == name and element.namespace == namespace:
                del self._elements[index]
                self._encoded = self._index = self._size = None
                return True
        return False

    # -------------------------------------------------------------- querying

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[MessageElement]:
        return iter(self._elements)

    def element(self, name: str, *, namespace: str = "") -> Optional[MessageElement]:
        """Return the first element with the given name (and namespace), or None."""
        index = self._index
        if index is None:
            index = self._index = {
                (element.name, element.namespace): element for element in reversed(self._elements)
            }
        return index.get((name, namespace))

    def elements(self, name: Optional[str] = None, *, namespace: str = "") -> List[MessageElement]:
        """Return every element, optionally filtered by name and namespace."""
        if name is None:
            return list(self._elements)
        return [e for e in self._elements if e.name == name and e.namespace == namespace]

    def get_text(self, name: str, default: str = "", *, namespace: str = "") -> str:
        """Text content of the first matching element, or ``default``."""
        element = self.element(name, namespace=namespace)
        return element.as_text if element is not None else default

    def get_bytes(self, name: str, default: bytes = b"", *, namespace: str = "") -> bytes:
        """Byte content of the first matching element, or ``default``."""
        element = self.element(name, namespace=namespace)
        return element.as_bytes if element is not None else default

    def has(self, name: str, *, namespace: str = "") -> bool:
        """Whether an element with the given name exists."""
        return self.element(name, namespace=namespace) is not None

    @property
    def size(self) -> int:
        """Total content size of all elements, in bytes."""
        size = self._size
        if size is None:
            size = self._size = sum(element.size for element in self._elements)
        return size

    # ------------------------------------------------------------ duplication

    def dup(self) -> "Message":
        """Return an independent copy (as JXTA requires before re-sending).

        Elements are immutable, so the copy shares them; it never shares the
        source's frame.
        """
        copy = Message(self._elements)
        copy._size = self._size
        return copy

    # ----------------------------------------------------------- wire format

    def to_bytes(self) -> bytes:
        """The message's frame (element order is preserved); see the module docstring."""
        encoded = self._encoded
        if encoded is None:
            pack = _ELEMENT.pack
            parts = [_COUNT.pack(len(self._elements))]
            for element in self._elements:
                content = element.content
                kind = isinstance(content, bytes)
                if not kind:
                    content = content.encode("utf-8")
                n_name, n_namespace, n_mime, raw = _encode_header(
                    element.name, element.namespace, element.mime_type
                )
                parts += (pack(kind, n_name, n_namespace, n_mime, len(content)), raw, content)
            encoded = self._encoded = b"".join(parts)
        return encoded

    @classmethod
    def from_bytes(cls, data: bytes) -> "Message":
        """Reconstruct a message from a frame; raises ValueError on a malformed one."""
        size = len(data)
        unpack = _ELEMENT.unpack_from
        try:
            (count,) = _COUNT.unpack_from(data, 0)
            offset = _COUNT.size
            elements = []
            content_bytes = 0
            for _ in range(count):
                kind, n_name, n_namespace, n_mime, n_content = unpack(data, offset)
                content_bytes += n_content
                name_at = offset + _ELEMENT.size
                content_at = name_at + n_name + n_namespace + n_mime
                offset = content_at + n_content
                if kind > 1 or offset > size:
                    raise ValueError(f"unknown element kind {kind} or a length overruns the frame")
                header = _decode_header(n_name, n_namespace, data[name_at:content_at])
                content = data[content_at:offset]
                element = _new_element(MessageElement)  # as in add()
                fields = element.__dict__
                fields.update(header)
                fields["content"] = content if kind else content.decode()
                elements.append(element)
        except struct.error as error:
            raise ValueError(f"truncated message frame: {error}") from error
        if offset != size:
            raise ValueError(f"{size - offset} trailing bytes after the message frame")
        message = cls(elements)
        message._size = content_bytes
        return message

    def pad_to(self, target_size: int, *, name: str = "padding") -> None:
        """Add a filler element so the serialised content reaches ``target_size`` bytes.

        The paper's measurements use 1910-byte messages; the benchmark harness
        pads every published event to that size so serialisation and
        transmission costs match the paper's setting.
        """
        deficit = target_size - self.size
        if deficit > 0:
            self.add(name, b"\x00" * deficit, mime_type="application/octet-stream")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = ",".join(e.qualified_name for e in self._elements)
        return f"Message(#{self.message_number} [{names}])"


__all__ = ["Message", "MessageElement"]
