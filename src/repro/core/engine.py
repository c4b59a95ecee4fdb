"""``TPSEngine``: the entry point of the TPS API.

The paper's initialisation phase (Section 4.3.2) is two lines::

    TPSEngine<SkiRental> tpse = new TPSEngine<SkiRental>();
    TPSInterface tpsInt = tpse.newInterface("JXTA", null, new SkiRental(), argv);

The Python rendering keeps the same two steps::

    tpse = TPSEngine(SkiRental, peer=peer)
    tps_int = tpse.new_interface("JXTA")

Differences, and why:

* Generic Java erases type parameters, so the paper must pass a *dummy
  instance* of the type; Python keeps the class object itself, so the
  instance argument is optional (it is still accepted -- and type-checked --
  for fidelity with the paper's listings).
* The JXTA binding needs to know which simulated peer it runs on, hence the
  explicit ``peer`` argument (real JXTA bootstraps a process-global platform
  from a configuration file).
* ``new_interface("LOCAL")`` returns an in-process binding with identical
  semantics, useful for tests and prototypes.

The v2 API keeps the two-line initialisation and the Figure 8 surface
byte-for-byte (pinned by ``tests/test_api_surface.py``) while opening both
ends of the factory:

* the binding *name* resolves through the pluggable registry of
  :mod:`repro.core.bindings` -- ``"JXTA"``, ``"LOCAL"`` and ``"SHARDED"``
  (an N-shard in-process bus, :mod:`repro.core.sharded_engine`) self-register
  there, and applications may :func:`~repro.core.bindings.register_binding`
  their own without touching this module;
* the engine has a lifecycle: :meth:`TPSEngine.close` closes every interface
  it created (idempotently), the engine is a context manager, and
  ``new_interface`` after close raises :class:`PSException`.

Locking model: ``new_interface`` and ``close`` serialise their flag checks
and ``interfaces`` bookkeeping on a per-engine lock, so a close racing an
interface creation either sees the new interface (and closes it) or makes
the creation fail with the uniform post-close error -- never a leaked open
interface.  The lock is not held while binding factories or interface
teardown run.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Generic, Optional, Sequence, Type, TypeVar

from repro.core.bindings import BindingRequest, get_binding
from repro.core.exceptions import PSException
from repro.core.interface import TPSInterface
from repro.core.type_registry import Criteria, type_name, validate_event_type
from repro.serialization.object_codec import ObjectCodec

if TYPE_CHECKING:
    # Annotations only: a binding's modules load when the binding is first
    # asked for (repro.core.bindings), so a LOCAL program never imports the
    # JXTA substrate.
    from repro.core.jxta_engine import TPSConfig
    from repro.core.local_engine import LocalBus
    from repro.jxta.peer import Peer

EventT = TypeVar("EventT")


class TPSEngine(Generic[EventT]):
    """Factory of :class:`~repro.core.interface.TPSInterface` instances for one type.

    One engine covers one event type (and, through subtype matching, its
    hierarchy).  "If a publisher (or a subscriber) is interested in several
    'unrelated' types [...] several instances of the publish/subscribe engine
    for each type of interest must be created."  (paper, Section 4.2)
    """

    #: Names of the built-in bindings (any registered name is accepted).
    JXTA = "JXTA"
    LOCAL = "LOCAL"

    def __init__(
        self,
        event_type: Type[EventT],
        *,
        peer: Optional[Peer] = None,
        codec: Optional[ObjectCodec] = None,
        config: Optional[TPSConfig] = None,
        local_bus: Optional[LocalBus] = None,
    ) -> None:
        validate_event_type(event_type)
        self.event_type = event_type
        self.peer = peer
        self.codec = codec
        self.config = config
        self.local_bus = local_bus
        self.interfaces: list[TPSInterface[EventT]] = []
        self._closed = False
        self._lock = threading.Lock()

    def new_interface(
        self,
        name: str = JXTA,
        criteria: Optional[Criteria] = None,
        instance: Optional[EventT] = None,
        argv: Optional[Sequence[str]] = None,
        **params: Any,
    ) -> TPSInterface[EventT]:
        """Create a TPS interface bound to the named infrastructure.

        Parameters mirror the paper's ``newInterface(String name, Criteria c,
        Type t, String[] arg)``: the binding name (resolved through the
        registry of :mod:`repro.core.bindings` -- ``"JXTA"``, ``"LOCAL"``,
        ``"SHARDED"``, the composite bindings or anything the application
        registered), optional advertisement/content filtering criteria, an
        optional instance of the event type (checked, then ignored -- Python
        does not need it) and the application's command-line arguments
        (passed through to the binding factory).

        Any further keyword arguments are *binding parameters*, validated
        against the binding's declared schema before its factory runs --
        e.g. ``new_interface("JXTA", search_timeout=2.0)``, or ``shards=16``
        for the sharded bindings.  Unknown or ill-typed parameters raise
        :class:`PSException` naming the offending key and the accepted
        schema.
        """
        self._check_open()
        if instance is not None and not isinstance(instance, self.event_type):
            raise PSException(
                f"the instance passed to new_interface is a "
                f"{type_name(type(instance))}, not a {type_name(self.event_type)}"
            )
        spec = get_binding(name)
        request = BindingRequest(
            event_type=self.event_type,
            criteria=criteria,
            instance=instance,
            argv=tuple(argv) if argv is not None else None,
            peer=self.peer,
            codec=self.codec,
            config=self.config,
            local_bus=self.local_bus,
            params=params,
        )
        interface: TPSInterface[EventT] = spec.create(request)
        with self._lock:
            if not self._closed:
                self.interfaces.append(interface)
                return interface
        # The engine closed while the factory ran: don't leak an open
        # interface past close() -- tear it down (best-effort: a teardown
        # error must not mask the uniform engine-closed report) and raise
        # directly, not via _check_open, because a failing concurrent
        # close() may already have reverted the flag.
        try:
            interface.close()
        except BaseException:  # noqa: BLE001  # repro-lint: disable=RL005 - best-effort cleanup before the closed-engine report
            pass
        raise PSException(
            f"the TPS engine for {type_name(self.event_type)} is closed; "
            "new_interface is no longer available"
        )

    # Paper-compatible camelCase alias.
    def newInterface(  # noqa: N802 - paper-compatible alias
        self,
        name: str = JXTA,
        criteria: Optional[Criteria] = None,
        instance: Optional[EventT] = None,
        argv: Optional[Sequence[str]] = None,
        **params: Any,
    ) -> TPSInterface[EventT]:
        """Alias of :meth:`new_interface` matching the paper's listing."""
        return self.new_interface(name, criteria, instance, argv, **params)

    # -------------------------------------------------------------- lifecycle

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Close every interface this engine created (idempotent).

        Afterwards :meth:`new_interface` raises :class:`PSException`; the
        already-closed interfaces keep answering their history queries.
        Every interface is attempted even when one fails to close; in that
        case the first error is re-raised and the engine reverts to open so
        a retry re-attempts the stragglers (closing an interface twice is a
        no-op).  As with :meth:`TPSInterface.close`, exactly one concurrent
        caller runs the teardown, and a teardown failure (plus the revert)
        is visible only to that caller -- racing losers have already
        returned, so the winner owns the retry.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            interfaces = list(self.interfaces)
        first_error: Optional[BaseException] = None
        for interface in interfaces:
            try:
                interface.close()
            except BaseException as error:  # noqa: BLE001 - re-raised after the loop
                if first_error is None:
                    first_error = error
        if first_error is not None:
            with self._lock:
                self._closed = False
            raise first_error

    def _check_open(self) -> None:
        if self._closed:
            raise PSException(
                f"the TPS engine for {type_name(self.event_type)} is closed; "
                "new_interface is no longer available"
            )

    def __enter__(self) -> "TPSEngine[EventT]":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TPSEngine({type_name(self.event_type)}, interfaces={len(self.interfaces)})"


__all__ = ["TPSEngine"]
