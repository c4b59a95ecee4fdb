"""A compact binary codec for application-defined event objects.

The paper's event types are plain serialisable Java classes
(``public class SkiRental implements Serializable``).  When a publisher calls
``publish(new SkiRental(...))`` the instance is serialised, carried inside a
JXTA message across the wire service, and reconstructed on each subscriber so
the typed callback (``handle(SkiRental skiR)``) receives a real object of the
right type.

:class:`ObjectCodec` plays the role of Java serialisation here.  It is a
deterministic, self-describing tagged binary format supporting the usual
scalar types, lists, tuples, dicts and *registered classes*.  Classes are
encoded by their registered name plus their instance ``__dict__`` (or the
value returned by an optional ``__getstate__``), and decoded by instantiating
the class without calling ``__init__`` and restoring the state -- the same
contract Java serialisation provides.

Requiring registration is what gives the TPS layer its type-safety story:
only event types the engine knows about can cross the wire, and the decoded
object is an instance of the exact registered class (so ``isinstance`` checks
and subtype matching are meaningful on the subscriber side).

Fast path
---------

Serialisation sits on the hot path of every publish (the paper's Figures
18-20 measure exactly this), so the codec *compiles a plan* per registered
class the first time an instance is encoded or decoded:

* the encode plan precomputes the object header (type tag + registered name)
  and, per observed ``__dict__`` *shape* (tuple of attribute names), the
  sorted field order with each key's full wire encoding, so steady-state
  encoding is one dict lookup plus a scalar append per field;
* the decode plan caches the resolved class and its ``__setstate__`` and
  learns the byte pattern of the encoded field keys, so steady-state decoding
  memcmp-skips the keys and writes values straight into the new instance's
  ``__dict__``.

Plans are only compiled for classes without custom ``__getstate__`` or
``__slots__``; everything else (and every container/scalar combination the
plans do not cover) falls back to the generic recursive codec.  The compiled
output is byte-for-byte identical to the generic path -- property tests in
``tests/test_codec_fastpath_properties.py`` enforce this -- so peers running
either path interoperate.  Pass ``compiled=False`` to force the generic path
(those tests' oracle).
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Tuple, Type


class SerializationError(ValueError):
    """Raised when a value cannot be encoded or bytes cannot be decoded."""


class UnregisteredTypeError(SerializationError):
    """Raised when encoding or decoding an object whose class is not registered."""


# One-byte type tags of the wire format.
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"I"
_T_FLOAT = b"D"
_T_STR = b"S"
_T_BYTES = b"B"
_T_LIST = b"L"
_T_TUPLE = b"U"
_T_DICT = b"M"
_T_OBJECT = b"O"

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
_pack_u32 = _U32.pack
_pack_f64 = _F64.pack
_unpack_u32 = _U32.unpack_from
_unpack_f64 = _F64.unpack_from

#: ``object.__getstate__`` exists from Python 3.11 on; a class whose
#: ``__getstate__`` is exactly this default serialises its plain ``__dict__``.
_DEFAULT_GETSTATE = getattr(object, "__getstate__", None)


def _has_slots(cls: Type[Any]) -> bool:
    return any("__slots__" in vars(base) for base in cls.__mro__ if base is not object)


def _set_attributes(instance: Any, state: Dict[str, Any]) -> None:
    """Restore a ``__slots__`` instance: a slot cannot live in ``__dict__``."""
    for key, value in state.items():
        object.__setattr__(instance, key, value)


def _state_setter(cls: Type[Any]) -> Optional[Callable[[Any, Any], None]]:
    """How a decoded instance of ``cls`` takes its state; None: ``__dict__.update``."""
    setstate = getattr(cls, "__setstate__", None)
    if setstate is None and _has_slots(cls):
        return _set_attributes
    return setstate


# --------------------------------------------------------------- fast scalars
#
# Encode handlers keyed by *exact* type: subclasses of builtins fall through
# to the generic path so their bytes stay identical to the seed codec.


def _encode_none(value: Any, out: bytearray) -> None:
    out += _T_NONE


def _encode_bool(value: Any, out: bytearray) -> None:
    out += _T_TRUE if value else _T_FALSE


def _encode_int(value: Any, out: bytearray) -> None:
    payload = str(value).encode("ascii")
    out += _T_INT
    out += _pack_u32(len(payload))
    out += payload


def _encode_float(value: Any, out: bytearray) -> None:
    out += _T_FLOAT
    out += _pack_f64(value)


def _encode_str(value: Any, out: bytearray) -> None:
    payload = value.encode("utf-8")
    out += _T_STR
    out += _pack_u32(len(payload))
    out += payload


def _encode_bytes(value: Any, out: bytearray) -> None:
    out += _T_BYTES
    out += _pack_u32(len(value))
    out += value


_SCALAR_ENCODERS: Dict[type, Callable[[Any, bytearray], None]] = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
}

#: Builtin bases a plan-encoded class must not inherit from: the generic
#: codec encodes such instances as the builtin (losing the class), so the
#: compiled path must do the same -- which it achieves by refusing the plan.
_BUILTIN_BASES = (bool, int, float, str, bytes, bytearray, list, tuple, dict)


class _EncodePlan:
    """Compiled per-class encode state: header bytes + per-shape field plans.

    ``shapes`` maps a ``__dict__`` key tuple (in instance insertion order) to
    either ``None`` (shape not plannable, e.g. non-string keys) or a pair of
    the dict-header bytes and the ``(key, encoded_key_bytes)`` sequence in
    the canonical sorted-by-repr order of the generic codec.
    """

    __slots__ = ("header", "shapes")

    def __init__(self, header: bytes) -> None:
        self.header = header
        self.shapes: Dict[Tuple[str, ...], Optional[Tuple[bytes, Tuple[Tuple[str, bytes], ...]]]] = {}


class _DecodePlan:
    """Compiled per-type decode state: class, ``__setstate__`` and key pattern.

    ``keys`` is learned from the first decoded payload: the exact wire bytes
    of each encoded field key, in stream order.  Subsequent payloads of the
    same shape skip key decoding entirely with a ``startswith`` check.
    """

    __slots__ = ("cls", "setstate", "keys")

    def __init__(self, cls: Type[Any], setstate: Optional[Callable[..., None]]) -> None:
        self.cls = cls
        self.setstate = setstate
        self.keys: Optional[Tuple[Tuple[Any, bytes], ...]] = None


class ObjectCodec:
    """Encodes and decodes Python objects to a deterministic binary format.

    Parameters
    ----------
    strict:
        When True (the default), encountering an unregistered class raises
        :class:`UnregisteredTypeError`.  When False, unregistered objects are
        encoded as plain dictionaries of their attributes (useful for the raw
        JXTA-WIRE baseline, which has no type knowledge and therefore no type
        safety -- exactly the paper's point).
    compiled:
        When True (the default), use compiled per-type encode/decode plans on
        the hot path.  When False, always run the generic recursive codec --
        the two produce byte-identical output; the flag exists for the
        property tests, whose oracle the generic path is.
    """

    def __init__(self, *, strict: bool = True, compiled: bool = True) -> None:
        self.strict = strict
        self.compiled = compiled
        self._classes_by_name: Dict[str, Type[Any]] = {}
        self._names_by_class: Dict[Type[Any], str] = {}
        self._encode_plans: Dict[Type[Any], Optional[_EncodePlan]] = {}
        self._decode_plans: Dict[bytes, _DecodePlan] = {}

    # ------------------------------------------------------------ registry

    def register(self, cls: Type[Any], name: Optional[str] = None) -> Type[Any]:
        """Register a class for encoding/decoding under ``name``.

        The default name is ``module.QualifiedName``.  Registering the same
        class twice under the same name is a no-op; re-registering a name for
        a different class raises, because silently swapping types would break
        the decoder on in-flight messages.
        """
        label = name or f"{cls.__module__}.{cls.__qualname__}"
        existing = self._classes_by_name.get(label)
        if existing is not None and existing is not cls:
            raise SerializationError(
                f"type name {label!r} is already registered for {existing!r}"
            )
        self._classes_by_name[label] = cls
        self._names_by_class[cls] = label
        # The wire name feeds the compiled encode header; recompile lazily.
        self._encode_plans.pop(cls, None)
        return cls

    def is_registered(self, cls: Type[Any]) -> bool:
        """Whether the given class has been registered."""
        return cls in self._names_by_class

    def registered_name(self, cls: Type[Any]) -> Optional[str]:
        """The wire name of a registered class, or None."""
        return self._names_by_class.get(cls)

    def class_for(self, name: str) -> Optional[Type[Any]]:
        """The class registered under ``name``, or None."""
        return self._classes_by_name.get(name)

    # ------------------------------------------------------------- encoding

    def encode(self, value: Any) -> bytes:
        """Encode ``value`` to bytes."""
        out = bytearray()
        if self.compiled:
            cls = type(value)
            handler = _SCALAR_ENCODERS.get(cls)
            if handler is not None:
                handler(value, out)
                return bytes(out)
            # A plan only exists after a first generic pass compiled it, so
            # this lookup cannot bypass strict-mode registration checks.
            plan = self._encode_plans.get(cls)
            if plan is not None and self._encode_planned(value, out, plan):
                return bytes(out)
        self._encode_value(value, out)
        return bytes(out)

    def _encode_value(self, value: Any, out: bytearray) -> None:
        if value is None:
            out += _T_NONE
        elif value is True:
            out += _T_TRUE
        elif value is False:
            out += _T_FALSE
        elif isinstance(value, int):
            payload = str(value).encode("ascii")
            out += _T_INT + _pack_u32(len(payload)) + payload
        elif isinstance(value, float):
            out += _T_FLOAT + _pack_f64(value)
        elif isinstance(value, str):
            payload = value.encode("utf-8")
            out += _T_STR + _pack_u32(len(payload)) + payload
        elif isinstance(value, (bytes, bytearray)):
            out += _T_BYTES + _pack_u32(len(value)) + bytes(value)
        elif isinstance(value, list):
            out += _T_LIST + _pack_u32(len(value))
            for item in value:
                self._encode_value(item, out)
        elif isinstance(value, tuple):
            out += _T_TUPLE + _pack_u32(len(value))
            for item in value:
                self._encode_value(item, out)
        elif isinstance(value, dict):
            out += _T_DICT + _pack_u32(len(value))
            for key in sorted(value, key=repr):
                self._encode_value(key, out)
                self._encode_value(value[key], out)
        else:
            self._encode_object(value, out)

    def _object_state(self, value: Any) -> Dict[str, Any]:
        getstate = getattr(value, "__getstate__", None)
        if callable(getstate):
            state = getstate()
            if isinstance(state, dict):
                return state
            if getattr(type(value), "__getstate__", None) is _DEFAULT_GETSTATE:
                # object.__getstate__ gives None for an empty instance, and
                # (__dict__ or None, {slot: value}) for a __slots__ class.
                if state is None:
                    return {}
                instance_dict, slots = state
                return {**(instance_dict or {}), **slots}
        if hasattr(value, "__dict__"):
            return dict(vars(value))
        raise SerializationError(
            f"cannot extract a serialisable state from {type(value).__name__}"
        )

    def _compile_encode_plan(self, cls: Type[Any]) -> Optional[_EncodePlan]:
        """Build the encode plan for ``cls``, or None when it must stay generic."""
        name = self._names_by_class.get(cls)
        if name is None:
            return None
        if issubclass(cls, _BUILTIN_BASES):
            return None
        getstate = getattr(cls, "__getstate__", None)
        if getstate is not None and getstate is not _DEFAULT_GETSTATE:
            return None
        if _has_slots(cls):
            return None
        name_bytes = name.encode("utf-8")
        return _EncodePlan(_T_OBJECT + _pack_u32(len(name_bytes)) + name_bytes)

    @staticmethod
    def _compile_shape(
        shape: Tuple[str, ...]
    ) -> Optional[Tuple[bytes, Tuple[Tuple[str, bytes], ...]]]:
        """Precompute the dict header and sorted key encodings for one shape."""
        if not all(type(key) is str for key in shape):
            return None
        fields = []
        for key in sorted(shape, key=repr):
            key_payload = key.encode("utf-8")
            fields.append((key, _T_STR + _pack_u32(len(key_payload)) + key_payload))
        return _T_DICT + _pack_u32(len(shape)), tuple(fields)

    def _encode_planned(self, value: Any, out: bytearray, plan: _EncodePlan) -> bool:
        """Encode ``value`` through its compiled plan; False if the instance's
        ``__dict__`` shape is not plannable (nothing is written then)."""
        state = value.__dict__
        shape = tuple(state)
        entry = plan.shapes.get(shape, False)
        if entry is False:
            entry = self._compile_shape(shape)
            plan.shapes[shape] = entry
        if entry is None:
            return False
        dict_header, fields = entry
        out += plan.header
        out += dict_header
        encoders = _SCALAR_ENCODERS
        generic = self._encode_value
        for key, key_bytes in fields:
            field_value = state[key]
            out += key_bytes
            handler = encoders.get(type(field_value))
            if handler is not None:
                handler(field_value, out)
            else:
                generic(field_value, out)
        return True

    def _encode_object(self, value: Any, out: bytearray) -> None:
        cls = type(value)
        if self.compiled:
            plan = self._encode_plans.get(cls, False)
            if plan is False:
                plan = self._compile_encode_plan(cls)
                self._encode_plans[cls] = plan
            if plan is not None and self._encode_planned(value, out, plan):
                return
        name = self._names_by_class.get(cls)
        if name is None:
            if self.strict:
                raise UnregisteredTypeError(
                    f"type {cls.__module__}.{cls.__qualname__} is not registered with this codec"
                )
            # Lenient mode: degrade to a plain dict (losing the type, exactly
            # like hand-rolled XML payloads over raw JXTA would).
            self._encode_value(self._object_state(value), out)
            return
        state = self._object_state(value)
        name_bytes = name.encode("utf-8")
        out += _T_OBJECT + _pack_u32(len(name_bytes)) + name_bytes
        self._encode_value(state, out)

    # ------------------------------------------------------------- decoding

    def decode(self, data: bytes) -> Any:
        """Decode bytes produced by :meth:`encode` back into a value.

        Corrupt bytes raise :class:`SerializationError`, whichever decoder
        step they break: a bad UTF-8 or integer literal, an unhashable key, a
        state of the wrong shape, or nesting deeper than the stack.
        """
        try:
            if self.compiled:
                value, offset = self._decode_fast(data, 0)
            else:
                value, offset = self._decode_value(data, 0)
        except (ValueError, TypeError, LookupError, AttributeError, RecursionError) as error:
            if isinstance(error, SerializationError):
                raise
            raise SerializationError(f"corrupt payload: {error!r}") from error
        if offset != len(data):
            raise SerializationError(
                f"trailing bytes after decoded value ({len(data) - offset} left)"
            )
        return value

    def _decode_fast(self, data: bytes, offset: int) -> Tuple[Any, int]:
        """Tag-indexed decoder with per-type plans; byte-equivalent to
        :meth:`_decode_value` (which it falls back to for rare tags)."""
        size = len(data)
        if offset >= size:
            raise SerializationError("truncated input")
        tag = data[offset]
        offset += 1
        if tag == 83:  # S -- str
            if offset + 4 > size:
                raise SerializationError("truncated length prefix")
            (length,) = _unpack_u32(data, offset)
            offset += 4
            end = offset + length
            if end > size:
                raise SerializationError("declared length exceeds available bytes")
            return data[offset:end].decode("utf-8"), end
        if tag == 68:  # D -- float
            if offset + 8 > size:
                raise SerializationError("truncated float")
            (value,) = _unpack_f64(data, offset)
            return value, offset + 8
        if tag == 73:  # I -- int
            if offset + 4 > size:
                raise SerializationError("truncated length prefix")
            (length,) = _unpack_u32(data, offset)
            offset += 4
            end = offset + length
            if end > size:
                raise SerializationError("declared length exceeds available bytes")
            return int(data[offset:end].decode("ascii")), end
        if tag == 79:  # O -- registered object
            return self._decode_object_fast(data, offset)
        if tag == 77:  # M -- dict
            if offset + 4 > size:
                raise SerializationError("truncated length prefix")
            (count,) = _unpack_u32(data, offset)
            offset += 4
            if offset + count > size:
                raise SerializationError("declared length exceeds available bytes")
            result: Dict[Any, Any] = {}
            decode = self._decode_fast
            for _ in range(count):
                key, offset = decode(data, offset)
                value, offset = decode(data, offset)
                result[key] = value
            return result, offset
        if tag == 78:  # N
            return None, offset
        if tag == 84:  # T
            return True, offset
        if tag == 70:  # F
            return False, offset
        if tag == 76 or tag == 85:  # L / U -- list / tuple
            if offset + 4 > size:
                raise SerializationError("truncated length prefix")
            (count,) = _unpack_u32(data, offset)
            offset += 4
            if offset + count > size:
                raise SerializationError("declared length exceeds available bytes")
            items: List[Any] = []
            decode = self._decode_fast
            for _ in range(count):
                item, offset = decode(data, offset)
                items.append(item)
            return (items if tag == 76 else tuple(items)), offset
        # Rare tags (bytes) and unknown-tag errors share the generic decoder.
        return self._decode_value(data, offset - 1)

    def _decode_object_fast(self, data: bytes, offset: int) -> Tuple[Any, int]:
        """Decode one object using (and lazily learning) its decode plan."""
        size = len(data)
        if offset + 4 > size:
            raise SerializationError("truncated length prefix")
        (length,) = _unpack_u32(data, offset)
        offset += 4
        end = offset + length
        if end > size:
            raise SerializationError("declared length exceeds available bytes")
        name_bytes = data[offset:end]
        offset = end
        plan = self._decode_plans.get(name_bytes)
        if plan is None:
            name = name_bytes.decode("utf-8")
            cls = self._classes_by_name.get(name)
            if cls is None:
                raise UnregisteredTypeError(
                    f"cannot decode object of unregistered type {name!r}"
                )
            plan = _DecodePlan(cls, _state_setter(cls))
            self._decode_plans[bytes(name_bytes)] = plan
        if plan.setstate is not None or offset >= size or data[offset] != 77:
            # Custom __setstate__, __slots__ or a non-dict state: decode generically.
            state, offset = self._decode_fast(data, offset)
            instance = object.__new__(plan.cls)
            if plan.setstate is not None:
                plan.setstate(instance, state)
            else:
                instance.__dict__.update(state)
            return instance, offset
        if offset + 5 > size:
            raise SerializationError("truncated length prefix")
        (count,) = _unpack_u32(data, offset + 1)
        offset += 5
        if offset + count > size:
            raise SerializationError("declared length exceeds available bytes")
        instance = object.__new__(plan.cls)
        target = instance.__dict__
        decode = self._decode_fast
        keys = plan.keys
        if keys is not None and len(keys) == count:
            entries_start = offset
            matched = True
            for key, key_bytes in keys:
                if data.startswith(key_bytes, offset):
                    offset += len(key_bytes)
                    target[key], offset = decode(data, offset)
                else:
                    matched = False
                    break
            if matched:
                return instance, offset
            # Shape drifted: rewind and relearn below.
            target.clear()
            offset = entries_start
        learned = []
        for _ in range(count):
            key_start = offset
            key, offset = decode(data, offset)
            learned.append((key, data[key_start:offset]))
            target[key], offset = decode(data, offset)
        plan.keys = tuple(learned)
        return instance, offset

    def _decode_value(self, data: bytes, offset: int) -> Tuple[Any, int]:
        if offset >= len(data):
            raise SerializationError("truncated input")
        tag = data[offset : offset + 1]
        offset += 1
        if tag == _T_NONE:
            return None, offset
        if tag == _T_TRUE:
            return True, offset
        if tag == _T_FALSE:
            return False, offset
        if tag == _T_INT:
            length, offset = self._read_length(data, offset)
            return int(data[offset : offset + length].decode("ascii")), offset + length
        if tag == _T_FLOAT:
            if offset + 8 > len(data):
                raise SerializationError("truncated float")
            (value,) = struct.unpack(">d", data[offset : offset + 8])
            return value, offset + 8
        if tag == _T_STR:
            length, offset = self._read_length(data, offset)
            return data[offset : offset + length].decode("utf-8"), offset + length
        if tag == _T_BYTES:
            length, offset = self._read_length(data, offset)
            return data[offset : offset + length], offset + length
        if tag == _T_LIST:
            count, offset = self._read_length(data, offset)
            items = []
            for _ in range(count):
                item, offset = self._decode_value(data, offset)
                items.append(item)
            return items, offset
        if tag == _T_TUPLE:
            count, offset = self._read_length(data, offset)
            items = []
            for _ in range(count):
                item, offset = self._decode_value(data, offset)
                items.append(item)
            return tuple(items), offset
        if tag == _T_DICT:
            count, offset = self._read_length(data, offset)
            result: Dict[Any, Any] = {}
            for _ in range(count):
                key, offset = self._decode_value(data, offset)
                value, offset = self._decode_value(data, offset)
                result[key] = value
            return result, offset
        if tag == _T_OBJECT:
            length, offset = self._read_length(data, offset)
            name = data[offset : offset + length].decode("utf-8")
            offset += length
            state, offset = self._decode_value(data, offset)
            cls = self._classes_by_name.get(name)
            if cls is None:
                raise UnregisteredTypeError(
                    f"cannot decode object of unregistered type {name!r}"
                )
            instance = object.__new__(cls)
            setstate = _state_setter(cls)
            if setstate is not None:
                setstate(instance, state)
            else:
                instance.__dict__.update(state)
            return instance, offset
        raise SerializationError(f"unknown type tag {tag!r} at offset {offset - 1}")

    @staticmethod
    def _read_length(data: bytes, offset: int) -> Tuple[int, int]:
        if offset + 4 > len(data):
            raise SerializationError("truncated length prefix")
        (length,) = struct.unpack(">I", data[offset : offset + 4])
        if offset + 4 + length > len(data):
            raise SerializationError("declared length exceeds available bytes")
        return length, offset + 4

    # ---------------------------------------------------------------- sizing

    def encoded_size(self, value: Any) -> int:
        """Return the number of bytes :meth:`encode` would produce."""
        return len(self.encode(value))


__all__ = ["ObjectCodec", "SerializationError", "UnregisteredTypeError"]
