"""The TPS binding registry: how infrastructures plug into ``newInterface``.

The paper's ``TPSEngine.newInterface(String name, ...)`` selects the
underlying infrastructure by *name* ("JXTA" in every listing of the paper).
The layering argument of Section 4 -- TPS is a thin typed layer that can sit
on top of any substrate offering propagation and discovery -- applies to the
reproduction's own code too: a new substrate should plug in by registering a
binding, not by editing ``TPSEngine``.

This module is that plug point:

* :class:`TPSBinding` -- the structural protocol a binding's interfaces must
  satisfy (the seven Figure 8 operations plus the v2 ``close`` lifecycle);
* :class:`BindingRequest` -- everything ``new_interface`` knows when it asks
  a binding for an interface (event type, criteria, peer, codec, config,
  local bus, the paper's ``instance``/``argv`` arguments, and the validated
  binding *parameters*);
* :class:`BindingParam` -- one declared parameter of a binding: its name,
  the accepted value types and a one-line description.  A binding registers
  its parameter schema alongside its factory, and every ``new_interface``
  call is validated against it *before* the factory runs: unknown keys and
  type mismatches raise :class:`PSException` messages that name the
  offending key and enumerate the accepted schema, uniformly for built-in
  and application-registered bindings alike;
* :func:`register_binding` / :func:`get_binding` /
  :func:`registered_bindings` / :func:`binding_params` -- the process-wide
  name -> factory registry and its introspection surface;
* :func:`not_bool` / :func:`positive` / :func:`one_of` -- the value checks
  the built-in schemas share, and :class:`SharedBusCache` -- the
  registry-built shared-bus cache behind SHARDED, SHARDED+JXTA and ASYNC.

The built-in bindings self-register when their modules are imported, and
the registry imports a built-in's module the first time the binding is
asked for, so a program pays only for the bindings it uses: ``"LOCAL"``
(:mod:`repro.core.local_engine`, no parameters), ``"JXTA"``
(:mod:`repro.core.jxta_engine`, per-interface :class:`TPSConfig` field
overrides such as ``search_timeout``), ``"SHARDED"``
(:mod:`repro.core.sharded_engine`, ``shards``/``partition``/``content_key``),
``"SHARDED+JXTA"`` (:mod:`repro.core.composite_engine`, the sharded
in-process bus fanned out over the JXTA wire) and ``"ASYNC"``
(:mod:`repro.core.async_engine`).  ``TPSEngine.new_interface``
resolves purely through :func:`get_binding`, so third-party bindings
registered by application code are first-class citizens -- parameters
included.
"""

from __future__ import annotations

import importlib
import threading
import weakref
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    Union,
    runtime_checkable,
)

from repro.core.exceptions import PSException


@runtime_checkable
class TPSBinding(Protocol):
    """What a binding-produced interface must offer (structural typing).

    The seven operations of the paper's Figure 8 -- ``publish``,
    ``subscribe`` (single or list form), ``unsubscribe`` (one or all),
    ``objects_received``/``objects_sent`` -- plus the v2 ``close`` lifecycle.
    :class:`~repro.core.interface.TPSInterface` implements all of these, so
    subclassing it is the easiest way to satisfy the protocol; any
    structurally conforming object is accepted just the same.
    """

    def publish(self, event: Any) -> Any: ...

    def subscribe(self, callback: Any, exception_handler: Any = None) -> Any: ...

    def unsubscribe(self, callback: Any = None, exception_handler: Any = None) -> int: ...

    def objects_received(self) -> List[Any]: ...

    def objects_sent(self) -> List[Any]: ...

    def close(self) -> None: ...


@dataclass(frozen=True)
class BindingParam:
    """One declared parameter of a binding.

    ``types`` is the tuple of accepted value classes (empty accepts any
    value); ``check`` is an optional extra validator returning a problem
    string (or None when the value is fine), for constraints a type check
    cannot express (``shards >= 1``, "string or callable", ...); ``default``
    is the *effective* value when the parameter is omitted (None both for
    "no default" and for a genuine None default -- introspection only,
    factories still resolve their own fallbacks).
    """

    name: str
    types: Tuple[type, ...] = ()
    description: str = ""
    check: Optional[Callable[[Any], Optional[str]]] = None
    default: Any = None

    def describe(self) -> str:
        """``name (type, type) [=default]`` -- the schema line used in error
        messages and introspection."""
        line = self.name
        if self.types:
            accepted = "|".join(cls.__name__ for cls in self.types)
            line = f"{line} ({accepted})"
        if self.default is not None:
            line = f"{line} [={self.default!r}]"
        return line

    def problem_with(self, value: Any) -> Optional[str]:
        """Why ``value`` is unacceptable for this parameter, or None."""
        if self.types and not isinstance(value, self.types):
            accepted = " or ".join(cls.__name__ for cls in self.types)
            return (
                f"parameter {self.name!r} must be {accepted}, "
                f"got {type(value).__name__}: {value!r}"
            )
        if self.check is not None:
            complaint = self.check(value)
            if complaint:
                return f"parameter {self.name!r}: {complaint}"
        return None


def not_bool(value: Any) -> Optional[str]:
    """Reject ``bool`` for a numeric parameter: ``bool`` subclasses ``int``,
    so the type check alone would let ``search_timeout=True`` through as 1."""
    if isinstance(value, bool):
        return f"must be a number, got {value!r}"
    return None


def positive(value: Any) -> Optional[str]:
    """Accept numbers above zero only (and no ``bool``, see :func:`not_bool`)."""
    if isinstance(value, bool) or value <= 0:
        return f"must be a positive number, got {value!r}"
    return None


def one_of(choices: Tuple[str, ...]) -> Callable[[Any], Optional[str]]:
    """A check accepting exactly the values in ``choices``."""

    def check(value: Any) -> Optional[str]:
        if value in choices:
            return None
        return f"must be one of {choices}, got {value!r}"

    return check


@dataclass(frozen=True)
class BindingRequest:
    """One ``new_interface`` call, as seen by a binding factory.

    Mirrors the paper's ``newInterface(String name, Criteria c, Type t,
    String[] arg)`` plus the engine-level construction arguments the Python
    rendering adds (``peer``, ``codec``, ``config``, ``local_bus``) and the
    v2 binding parameters (``params``, already validated against the
    binding's declared schema by the time the factory sees them).  A factory
    picks what it needs and must raise :class:`PSException` when a required
    argument is missing (e.g. the JXTA binding without a peer).
    """

    event_type: Type[Any]
    criteria: Optional[Any] = None
    instance: Optional[Any] = None
    argv: Optional[Tuple[str, ...]] = None
    peer: Optional[Any] = None
    codec: Optional[Any] = None
    config: Optional[Any] = None
    local_bus: Optional[Any] = None
    #: Validated binding parameters of this call (never None; empty when the
    #: caller passed none).
    params: Mapping[str, Any] = field(default_factory=dict)

    def param(self, name: str, default: Any = None) -> Any:
        """The value of one binding parameter, or ``default``."""
        return self.params.get(name, default)


#: A binding factory: takes one :class:`BindingRequest`, returns an interface.
BindingFactory = Callable[[BindingRequest], Any]


@dataclass(frozen=True)
class BindingSpec:
    """One registered binding: name, factory, capability tags, param schema."""

    name: str
    factory: BindingFactory
    #: Free-form capability tags ("in-process", "distributed", "sharded", ...)
    #: for applications that pick a binding by feature rather than by name.
    capabilities: frozenset = field(default_factory=frozenset)
    #: The declared parameters, in declaration order.
    params: Tuple[BindingParam, ...] = ()
    #: Invoked (with no arguments) when the binding is unregistered.  A
    #: binding whose factory caches shared state keyed on parameter sets --
    #: the sharded bindings' registry-built bus cache, the ASYNC binding's
    #: per-loop buses -- registers its cache reset here, so an
    #: ``unregister_binding``/``register_binding`` cycle starts from a clean
    #: slate instead of resolving interfaces onto buses built by the
    #: previous, possibly different, factory.
    on_unregister: Optional[Callable[[], None]] = None

    @property
    def param_names(self) -> Tuple[str, ...]:
        """The declared parameter names, in declaration order."""
        return tuple(param.name for param in self.params)

    def describe_params(self) -> str:
        """Human-readable schema: ``a (int), b (str|float)`` or ``(none)``."""
        if not self.params:
            return "(none)"
        return ", ".join(param.describe() for param in self.params)

    def validate_params(self, params: Mapping[str, Any]) -> None:
        """Check a ``new_interface`` params mapping against the schema.

        Unknown keys raise :class:`PSException` naming the key and listing
        the accepted schema; declared keys with unacceptable values raise
        naming the key and the expectation.  Bindings with an empty schema
        reject every parameter ("accepts no parameters").
        """
        if not params:
            return
        by_name = {param.name: param for param in self.params}
        for key in params:
            if key not in by_name:
                if not self.params:
                    raise PSException(
                        f"binding {self.name!r} accepts no parameters, "
                        f"got {key!r}"
                    )
                raise PSException(
                    f"unknown parameter {key!r} for binding {self.name!r}; "
                    f"accepted parameters: {self.describe_params()}"
                )
        for key, value in params.items():
            complaint = by_name[key].problem_with(value)
            if complaint:
                raise PSException(
                    f"binding {self.name!r}: {complaint} "
                    f"(accepted parameters: {self.describe_params()})"
                )

    def create(self, request: BindingRequest) -> Any:
        """Validate ``request.params`` and build an interface via the factory."""
        self.validate_params(request.params)
        return self.factory(request)


class SharedBusCache:
    """The registry-built buses of one bus family, one per (scope, params).

    Interfaces created with equal bus-describing parameters inside one
    *scope* share one bus, so they can talk to each other; different scopes
    never share.  The scope is whatever owns the bus -- a peer for the
    composite binding (a peer models a process), the running event loop for
    ASYNC (a bus cannot outlive loop ownership), nothing for plain SHARDED
    (process-wide) -- and is held weakly, so caching a bus never pins a peer
    or a finished loop in memory.  The lock covers the rare cache mutation;
    distinct threads may resolve concurrently.

    ``defaults`` maps each bus-describing parameter name to its default, in
    the order that forms the cache key, so ``shards=8`` and no ``shards`` at
    all name the same bus.
    """

    def __init__(self, bus_type: type, defaults: Mapping[str, Any]) -> None:
        self.bus_type = bus_type
        self.defaults = dict(defaults)
        self._lock = threading.Lock()
        self._buses: "weakref.WeakKeyDictionary[Any, Dict[Tuple[Any, ...], Any]]" = (
            weakref.WeakKeyDictionary()
        )

    def described(self, request: BindingRequest) -> Dict[str, Any]:
        """The bus-describing parameters ``request`` actually passed."""
        return {
            name: request.params[name]
            for name in self.defaults
            if name in request.params
        }

    def resolve(
        self,
        request: BindingRequest,
        described: Mapping[str, Any],
        build: Callable[[], Any],
        *,
        scope: Any = None,
    ) -> Any:
        """The bus of ``request``: its explicit ``local_bus``, or the cached
        bus that ``described`` (the request's bus-describing parameters)
        names within ``scope``, built with ``build()`` on first use.

        Parameters describe a registry-built bus, so passing them together
        with an explicit ``local_bus`` is rejected, as is an explicit bus of
        the wrong family.
        """
        bus = request.local_bus
        if bus is not None:
            if not isinstance(bus, self.bus_type):
                raise PSException(
                    f"this binding needs a {self.bus_type.__name__} (or no bus "
                    f"at all); got {type(bus).__name__}: construct the engine "
                    f"with TPSEngine(EventType, local_bus={self.bus_type.__name__}(...))"
                )
            if described:
                raise PSException(
                    f"the parameters {'/'.join(self.defaults)} describe a "
                    "registry-built shared bus; pass either binding params or "
                    "an explicit local_bus, not both"
                )
            return bus
        key = tuple(described.get(name, default) for name, default in self.defaults.items())
        with self._lock:
            buses = self._buses.setdefault(self if scope is None else scope, {})
            bus = buses.get(key)
            if bus is None:
                bus = buses[key] = build()
            return bus

    def reset(self) -> None:
        """Drop every cached bus (the bindings' ``on_unregister`` hook).

        Without it an ``unregister_binding``/``register_binding`` cycle would
        keep resolving requests onto buses built under the previous, possibly
        different, registration.  Interfaces already created keep the bus
        they hold; only the cache is cleared.
        """
        with self._lock:
            self._buses.clear()


_REGISTRY: Dict[str, BindingSpec] = {}

#: The built-in bindings and the modules that register them when imported.
_BUILTINS = {
    "ASYNC": "repro.core.async_engine",
    "JXTA": "repro.core.jxta_engine",
    "LOCAL": "repro.core.local_engine",
    "SHARDED": "repro.core.sharded_engine",
    "SHARDED+JXTA": "repro.core.composite_engine",
}

#: Built-ins whose module the registry has not imported yet.
_UNLOADED = set(_BUILTINS)


def _load(key: str) -> None:
    """Import the built-in binding ``key``'s module if it is still unloaded.

    Every registry operation on a name goes through here first, so a
    built-in that was never imported behaves exactly as if it had been
    registered at ``import repro.core``: an application's own
    ``register_binding`` or ``unregister_binding`` acts on the registered
    built-in, and a later first use cannot bring it back.  The name leaves
    the unloaded set only after the import, so a concurrent first use waits
    on the import lock instead of finding the registry empty.
    """
    if key in _UNLOADED:
        importlib.import_module(_BUILTINS[key])
        _UNLOADED.discard(key)


def _normalize(name: str) -> str:
    if not isinstance(name, str) or not name.strip():
        raise PSException(f"binding name must be a non-empty string, got {name!r}")
    return name.strip().upper()


def _normalize_params(
    name: str, params: Sequence[Union[BindingParam, str]]
) -> Tuple[BindingParam, ...]:
    normalized: List[BindingParam] = []
    seen: set = set()
    for param in params:
        if isinstance(param, str):
            param = BindingParam(param)
        if not isinstance(param, BindingParam):
            raise PSException(
                f"binding {name!r}: parameter declarations must be BindingParam "
                f"instances or names, got {param!r}"
            )
        if param.name in seen:
            raise PSException(
                f"binding {name!r}: duplicate parameter declaration {param.name!r}"
            )
        seen.add(param.name)
        normalized.append(param)
    return tuple(normalized)


def register_binding(
    name: str,
    factory: BindingFactory,
    *,
    capabilities: Sequence[str] = (),
    params: Sequence[Union[BindingParam, str]] = (),
    replace: bool = False,
    on_unregister: Optional[Callable[[], None]] = None,
) -> BindingSpec:
    """Register a binding factory under ``name`` (case-insensitive).

    ``params`` declares the binding's parameter schema (a sequence of
    :class:`BindingParam`, or bare names for untyped parameters); every
    ``new_interface(name, ..., **params)`` call is validated against it
    before the factory runs.  ``on_unregister`` (optional) is the binding's
    cache-invalidation hook, run by :func:`unregister_binding` -- see
    :attr:`BindingSpec.on_unregister`.  Returns the stored
    :class:`BindingSpec`.  Re-registering an existing name raises
    :class:`PSException` unless ``replace=True`` (the built-in bindings
    register with ``replace=True`` so module reloads stay safe).
    """
    key = _normalize(name)
    _load(key)
    if not callable(factory):
        raise PSException(f"binding factory for {key!r} must be callable, got {factory!r}")
    if on_unregister is not None and not callable(on_unregister):
        raise PSException(
            f"on_unregister for binding {key!r} must be callable, got {on_unregister!r}"
        )
    if key in _REGISTRY and not replace:
        raise PSException(
            f"a TPS binding named {key!r} is already registered; "
            "pass replace=True to override it"
        )
    spec = BindingSpec(
        name=key,
        factory=factory,
        capabilities=frozenset(capabilities),
        params=_normalize_params(key, params),
        on_unregister=on_unregister,
    )
    _REGISTRY[key] = spec
    return spec


def unregister_binding(name: str) -> bool:
    """Remove a binding from the registry; True if it was registered.

    Runs the spec's :attr:`~BindingSpec.on_unregister` hook (when declared)
    *after* the registry entry is gone, so any shared caches the factory
    built -- e.g. the sharded bindings' same-parameter bus cache -- are
    dropped with it and a later re-registration starts clean.  Interfaces
    already created keep the bus they resolved to; only the *cache* is
    reset.
    """
    key = _normalize(name)
    _load(key)
    spec = _REGISTRY.pop(key, None)
    if spec is None:
        return False
    if spec.on_unregister is not None:
        spec.on_unregister()
    return True


def get_binding(name: str) -> BindingSpec:
    """Look up a registered binding, or raise listing what *is* registered."""
    key = _normalize(name)
    _load(key)
    spec = _REGISTRY.get(key)
    if spec is None:
        registered = ", ".join(repr(known) for known in registered_bindings())
        raise PSException(
            f"unknown TPS binding {name!r}; registered bindings: {registered or '(none)'}"
        )
    return spec


def registered_bindings(with_params: bool = False):
    """The registered binding names, sorted.

    With ``with_params=True`` returns a sorted mapping of binding name to
    its declared parameter names, so callers can discover what each binding
    accepts without resolving the spec themselves.  Lists the built-ins too,
    importing the ones not used yet.
    """
    for key in _BUILTINS:
        _load(key)
    if with_params:
        return {name: _REGISTRY[name].param_names for name in sorted(_REGISTRY)}
    return tuple(sorted(_REGISTRY))


def binding_params(name: str) -> Tuple[BindingParam, ...]:
    """The declared parameter schema of a registered binding."""
    return get_binding(name).params


def binding_capabilities(name: str) -> frozenset:
    """The capability tags of a registered binding."""
    return get_binding(name).capabilities


__all__ = [
    "BindingFactory",
    "BindingParam",
    "BindingRequest",
    "BindingSpec",
    "SharedBusCache",
    "TPSBinding",
    "binding_capabilities",
    "binding_params",
    "get_binding",
    "not_bool",
    "one_of",
    "positive",
    "register_binding",
    "registered_bindings",
    "unregister_binding",
]
