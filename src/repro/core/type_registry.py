"""Runtime type information for Type-based Publish/Subscribe.

The paper's implementation is built on Generic Java (GJ), whose erasure
semantics force the programmer to pass an *instance* of the type parameter at
initialisation ("We must provide this instance because GJ does not provide
runtime information about (actual) type parameters").  Python's runtime types
give us strictly more information, so the reproduction keeps the type object
itself and derives everything from it:

* the *hierarchy root* of an event type -- in TPS one publish/subscribe
  engine covers one type hierarchy (paper, Section 4.2), so the JXTA
  advertisement is named after the root type and subtype filtering happens at
  the subscriber;
* the set of *conforming* types (Figure 7: a subscriber to type ``A``
  receives instances of ``A`` and of every subtype of ``A``);
* registration of the whole hierarchy with the
  :class:`~repro.serialization.object_codec.ObjectCodec`, so typed events can
  be reconstructed as real instances on the subscriber side (the "common Java
  type model" assumption of the paper becomes "both peers import the same
  Python classes").

The type model, the same on every binding:

* **Subtypes.** A subscriber of ``T`` receives every published instance of
  ``T`` and of its subtypes (Figure 7); a hierarchy has one advertisement,
  named after its root.
* **Late subtypes.** A subclass defined after an engine exists is delivered
  too.  The publishing registry registers it when it first encodes one; a
  receiving registry that meets its name on the wire runs :meth:`refresh`
  once and decodes again.  A name still unknown after that refresh (a type
  this process never defined) reaches the subscription's exception handler
  as :class:`~repro.serialization.object_codec.UnregisteredTypeError`.
* **Mixins.** With ``class C(A, B)`` the first base decides: ``C`` belongs
  to ``A``'s hierarchy only, and ``B`` is a mixin.  ``TPSEngine(B)`` works
  while ``C`` exists (``B``'s registry skips it), and publishing a ``C`` on
  ``B``'s interface raises :class:`~repro.core.exceptions.PSException`:
  the instance passes ``B``'s ``isinstance`` check, but ``B``'s registry
  refuses to register a type of another hierarchy, so ``B`` subscribers
  never see a ``C``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Set, Type

from repro.core.exceptions import PSException
from repro.serialization.object_codec import ObjectCodec, UnregisteredTypeError


def type_name(cls: Type[Any]) -> str:
    """The fully qualified, stable name of an event type."""
    return f"{cls.__module__}.{cls.__qualname__}"


def hierarchy_root(cls: Type[Any]) -> Type[Any]:
    """The topmost user-defined ancestor of ``cls`` (excluding ``object``).

    TPS associates one engine -- and therefore one advertisement -- with one
    type *hierarchy*; publishing or subscribing anywhere in the hierarchy goes
    through the root's advertisement and events are filtered by subtype on
    delivery (Figure 7 of the paper).
    """
    root = cls
    current = cls
    while True:
        bases = [base for base in current.__bases__ if base is not object]
        if not bases:
            return root
        # Follow the first (primary) base; multiple inheritance across
        # unrelated hierarchies is rejected by validate_event_type.
        current = bases[0]
        root = current


def all_subtypes(cls: Type[Any]) -> List[Type[Any]]:
    """``cls`` plus every (transitively) known subclass, in deterministic order."""
    seen: Set[Type[Any]] = set()
    ordered: List[Type[Any]] = []

    def visit(current: Type[Any]) -> None:
        if current in seen:
            return
        seen.add(current)
        ordered.append(current)
        for sub in current.__subclasses__():
            visit(sub)

    visit(cls)
    return ordered


def validate_event_type(cls: Type[Any]) -> Type[Any]:
    """Check that ``cls`` is usable as a TPS event type.

    Event types must be classes (not instances) and must not be built-in
    primitives.  Multiple inheritance is allowed: the event's hierarchy (and
    therefore its advertisement) is determined by the *primary* (first) base
    chain, and any further bases are treated as mixins that do not affect
    matching.
    """
    if not isinstance(cls, type):
        raise PSException(f"event type must be a class, got {cls!r}")
    if cls.__module__ == "builtins":
        raise PSException(
            f"built-in type {cls.__name__!r} cannot be used as a TPS event type; "
            "define an application event class instead"
        )
    return cls


class TypeRegistry:
    """Tracks one engine's event type hierarchy and its wire names.

    The registry owns the :class:`ObjectCodec` used to serialise events, and
    registers the root type plus every currently known subclass with it.
    Types defined after the engine was created are registered on first
    encode or decode (see the module docstring's type model).
    """

    def __init__(self, event_type: Type[Any], *, codec: Optional[ObjectCodec] = None) -> None:
        validate_event_type(event_type)
        self.event_type = event_type
        self.root = hierarchy_root(event_type)
        self.codec = codec or ObjectCodec(strict=True)
        self._registered: Set[Type[Any]] = set()
        self.refresh()

    # ------------------------------------------------------------- registry

    def refresh(self) -> None:
        """(Re)register the root type and every currently known subtype.

        A subclass whose first base leads to another root (``class C(A, B)``
        seen from ``B``'s registry) belongs to ``A``'s hierarchy, where ``B``
        is a mixin: it is skipped here, and :meth:`register` refuses it.
        """
        for cls in all_subtypes(self.root):
            if hierarchy_root(cls) is self.root:
                self.register(cls)

    def register(self, cls: Type[Any]) -> Type[Any]:
        """Register one type of the hierarchy with the codec."""
        validate_event_type(cls)
        if hierarchy_root(cls) is not self.root:
            raise PSException(
                f"type {type_name(cls)} does not belong to the {type_name(self.root)} hierarchy"
            )
        self.codec.register(cls, type_name(cls))
        self._registered.add(cls)
        return cls

    def registered_types(self) -> List[Type[Any]]:
        """Every type registered so far, sorted by name."""
        return sorted(self._registered, key=type_name)

    # ------------------------------------------------------------- matching

    def conforms(self, event: Any) -> bool:
        """Whether ``event`` should be delivered to subscribers of ``event_type``.

        Figure 7 semantics: an event conforms when it is an instance of the
        interface's type (i.e. of the type or any of its subtypes).
        """
        return isinstance(event, self.event_type)

    def in_hierarchy(self, event: Any) -> bool:
        """Whether ``event`` belongs to the engine's hierarchy at all."""
        return isinstance(event, self.root)

    def check_publishable(self, event: Any) -> None:
        """Raise :class:`PSException` unless ``event`` can be published on this interface."""
        if event is None:
            raise PSException("cannot publish None")
        if isinstance(event, type):
            raise PSException("publish expects an instance, not a class")
        if not self.conforms(event):
            from repro.core.exceptions import TypeMismatchError

            raise TypeMismatchError(
                f"cannot publish {type_name(type(event))} on an interface of type "
                f"{type_name(self.event_type)}"
            )

    # -------------------------------------------------------------- codec

    def encode(self, event: Any) -> bytes:
        """Serialise an event (registering its concrete type on the fly if needed)."""
        cls = type(event)
        if cls not in self._registered and isinstance(event, self.root):
            self.register(cls)
        return self.codec.encode(event)

    def decode(self, payload: bytes) -> Any:
        """Reconstruct a typed event from its serialised form; a subtype
        defined since the last :meth:`refresh` costs one refresh and a retry."""
        try:
            return self.codec.decode(payload)
        except UnregisteredTypeError:
            self.refresh()
            return self.codec.decode(payload)

    @property
    def advertised_name(self) -> str:
        """The name under which this hierarchy is advertised (the root type's name)."""
        return type_name(self.root)

    @property
    def interface_name(self) -> str:
        """The name of the interface's own type (may be deeper than the root)."""
        return type_name(self.event_type)


class Criteria:
    """Filtering criteria passed to ``TPSEngine.new_interface`` (paper, 4.3.2).

    The paper's second ``newInterface`` parameter "specifies a criteria we
    want for filtering advertisements (may be null)".  The reproduction keeps
    that meaning -- :meth:`matches_advertisement` filters which discovered
    advertisements the engine attaches to -- and additionally supports
    content-based event filtering (:meth:`matches_event`), which the paper
    points out is easy to layer on TPS because subscribers receive typed,
    encapsulated objects.

    Parameters
    ----------
    name_contains:
        Only attach to advertisements whose name contains this substring.
    advertisement_predicate:
        Arbitrary predicate over the peer-group advertisement.
    event_predicate:
        Arbitrary predicate over decoded events; events failing it are
        silently dropped before reaching callbacks.

    Criteria filter at the *interface* level: an event they reject is not
    recorded in ``objects_received`` and reaches none of the interface's
    callbacks.  The v2 fluent builder
    (``tps.subscription(cb).where(pred).start()``) adds *per-subscription*
    predicates, pushed down into the dispatch rows: the event still counts as
    received by the interface, but filtered subscriptions never see it.
    """

    def __init__(
        self,
        *,
        name_contains: Optional[str] = None,
        advertisement_predicate: Optional[Callable[[Any], bool]] = None,
        event_predicate: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self.name_contains = name_contains
        self.advertisement_predicate = advertisement_predicate
        self.event_predicate = event_predicate

    def matches_advertisement(self, advertisement: Any) -> bool:
        """Whether the engine should attach to ``advertisement``."""
        if self.name_contains is not None:
            name = getattr(advertisement, "name", "")
            if self.name_contains not in name:
                return False
        if self.advertisement_predicate is not None:
            return bool(self.advertisement_predicate(advertisement))
        return True

    def matches_event(self, event: Any) -> bool:
        """Whether a decoded event should be delivered to subscribers."""
        if self.event_predicate is None:
            return True
        return bool(self.event_predicate(event))


__all__ = [
    "Criteria",
    "TypeRegistry",
    "all_subtypes",
    "hierarchy_root",
    "type_name",
    "validate_event_type",
]
