"""An in-process TPS binding.

The paper's ``TPSEngine.newInterface`` takes a *name* selecting the
underlying infrastructure ("JXTA" in all of the paper's listings).  The
reproduction adds a second binding, ``"LOCAL"``: a purely in-process bus with
the same Figure 7 semantics (type hierarchy matching, duplicate-free
delivery, callback/exception-handler dispatch) but no simulated network.

The local binding is useful on its own (unit-testing application callbacks,
prototyping event types before deploying on the P2P substrate) and doubles as
a semantic reference implementation: property-based tests check that the
JXTA binding delivers exactly what the local binding would.

Locking model: the bus is safe under concurrent publishers, subscribers and
attach/detach/close churn without slowing the single-threaded hot path.
Lifecycle mutations (``attach``/``detach`` and route-row rebuilds) serialise
on the per-bus ``_lock`` and only ever *replace* immutable values -- the
per-root engine tuples and the per-class route-row tuples -- while
``publish`` reads those snapshots with no lock at all: a publish racing an
attach/detach simply delivers against the previous attachment snapshot, the
same way a publish racing a subscribe sees the previous
:class:`~repro.core.subscriber.TPSSubscriberManager` handler snapshot.
Route rows resolved before an engine closed are made harmless by the
delivery loop itself, which skips rows whose engine reports closed.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple, Type

from repro.core.bindings import BindingRequest, register_binding
from repro.core.history import HISTORY_BINDING_PARAMS, RingHistory, history_kwargs
from repro.core.interface import PublishReceipt, TPSInterface, TPSInterfaceCore


class LocalBus:
    """A process-local event bus connecting :class:`LocalTPSEngine` instances.

    Engines attach under the *root* of their type hierarchy; publishing walks
    every engine attached to the same hierarchy and delivers to those whose
    interface type the event conforms to.  A route row reads only what
    :class:`~repro.core.interface.TPSInterfaceCore` builds for every binding
    (``registry``, ``criteria``, ``subscriber_manager``, the received store,
    the closed flag), so any engine can attach -- the ``"SHARDED+JXTA"``
    engine does, beside its wire readers.

    Publishing is served from a *type-indexed routing table*: per hierarchy
    root, the tuple of engines whose interface type a given concrete event
    class conforms to, computed once per event class and invalidated whenever
    an engine attaches or detaches.  Event classes first seen at publish time
    (e.g. subclasses defined after the engines were built) simply miss the
    table once and get their row computed on the spot, so late subclass
    registration needs no explicit invalidation hook.  The per-class rows
    replace the seed's per-publish list copy and per-engine ``isinstance``
    re-check.

    Thread safety: ``attach``/``detach`` and row rebuilds hold the per-bus
    ``_lock``; ``publish`` reads the immutable snapshots lock-free (see the
    module docstring).
    """

    def __init__(self) -> None:
        #: Serialises attach/detach and route-row rebuilds.  ``publish``
        #: never takes it: delivery reads immutable snapshots only.
        self._lock = threading.Lock()
        self._engines: Dict[str, Tuple["LocalTPSEngine", ...]] = {}
        #: root name -> {concrete event class -> delivery rows}.  Each row is
        #: (engine, subscriber manager, criteria, received.record): everything
        #: the delivery loop needs, resolved once per (root, class) so the
        #: per-subscriber work is free of attribute lookups.  Criteria and
        #: the history store are fixed at engine construction, which is what
        #: makes caching them (and the store's recorder -- for a ring, its
        #: entries list's C ``append``) here safe.
        #: Rows are installed and invalidated
        #: only under ``_lock`` (double-checked on miss), so a row can never
        #: be built from a half-applied attachment change.
        self._routes: Dict[str, Dict[Type[Any], Tuple[Tuple[Any, ...], ...]]] = {}
        #: ((attached bounded rings, rings checked per publish), ...), one
        #: pair per :attr:`~repro.core.history.RingHistory.sweep_every`;
        #: rebound under ``_lock`` on attach/detach and read lock-free by
        #: :meth:`_sweep`; ``_tick`` numbers the publishes (``next()`` on an
        #: ``itertools.count`` is GIL-atomic, so concurrent lanes need no lock).
        self._sweep_plan: Tuple[Tuple[Tuple[RingHistory, ...], int], ...] = ()
        self._tick = itertools.count()

    def _plan_sweep(self) -> None:
        """Rebuild the sweep plan from the attachment snapshot (under ``_lock``).

        Rings are grouped by ``sweep_every``, and each publish checks
        ``ceil(group / sweep_every)`` rings of every group, round-robin, so a
        ring is checked at least once per its own ``sweep_every`` publishes
        and the checks spread evenly over the publishes.  A rebuild moves
        rings to new positions against the tick, so it first trims every
        ring past its mark: each one then has ``sweep_every`` records of room
        until its first check under the new plan.
        """
        groups: Dict[int, List[RingHistory]] = {}
        for engines in self._engines.values():
            for engine in engines:
                ring = engine._received
                if isinstance(ring, RingHistory) and ring.sweep_every:
                    ring.trim()
                    groups.setdefault(ring.sweep_every, []).append(ring)
        self._sweep_plan = tuple(
            (tuple(rings), -(-len(rings) // every)) for every, rings in groups.items()
        )

    def _sweep(self) -> None:
        """Check this publish's share of the attached rings (see ``_plan_sweep``).

        The route rows record through each ring's C-level ``record``, which
        never trims; this step bounds their memory instead.  A checked ring
        trims only once past its own mark, so no publish trims more than its
        share and each ring trims about once per ``slack // 2`` records.
        """
        plan = self._sweep_plan
        if plan:
            tick = next(self._tick)
            for rings, share in plan:
                first = tick * share
                for index in range(first, first + share):
                    rings[index % len(rings)].trim()

    def attach(self, engine: "LocalTPSEngine") -> None:
        """Attach an engine to its hierarchy's topic."""
        root = engine.registry.advertised_name
        with self._lock:
            self._engines[root] = self._engines.get(root, ()) + (engine,)
            self._routes.pop(root, None)
            self._plan_sweep()

    def detach(self, engine: "LocalTPSEngine") -> None:
        """Detach an engine (missing engines are ignored)."""
        root = engine.registry.advertised_name
        with self._lock:
            engines = self._engines.get(root, ())
            if engine in engines:
                self._engines[root] = tuple(e for e in engines if e is not engine)
                self._routes.pop(root, None)
                self._plan_sweep()

    def _route(self, root: str, event_class: Type[Any]) -> Tuple[Tuple[Any, ...], ...]:
        """The delivery rows a ``root``-hierarchy event of ``event_class`` reaches.

        The hit path is two lock-free dict reads.  A miss takes ``_lock`` and
        re-checks (another publisher may have built the row while we waited)
        before computing the row against the current attachment snapshot;
        holding the lock for the rebuild means an attach/detach can never
        interleave with it and leave a permanently stale row installed.
        """
        routes = self._routes.get(root)
        if routes is not None:
            targets = routes.get(event_class)
            if targets is not None:
                return targets
        with self._lock:
            routes = self._routes.get(root)
            if routes is None:
                routes = self._routes[root] = {}
            targets = routes.get(event_class)
            if targets is None:
                targets = routes[event_class] = tuple(
                    (engine, engine.subscriber_manager, engine.criteria, engine._received.record)
                    for engine in self._engines.get(root, ())
                    if issubclass(event_class, engine.registry.event_type)
                )
            return targets

    def publish(self, publisher: "LocalTPSEngine", event: Any) -> int:
        """Deliver ``event`` to every conforming engine except the publisher.

        Returns the number of engines the event was delivered to.

        This loop is the single home of local delivery semantics: skip the
        publisher, skip closed engines, skip engines with no subscriptions,
        apply content criteria, record the event, dispatch to the bound
        handlers (errors routed to the paired exception handler); first,
        :meth:`_sweep` checks this publish's share of the rings.  The
        subtype check lives in the routing row, and dispatch is inlined
        rather than delegated to the engine/manager because at high fan-out
        the two extra Python calls per subscriber were the largest remaining
        per-delivery cost.

        The closed check guards against *stale rows*: the row tuple was
        resolved before the loop started, so a callback that closes another
        engine mid-dispatch (or a concurrent ``close()`` on another thread)
        would otherwise still get that engine's ``record(event)`` and handler
        dispatch.  ``close()`` flips the flag before detaching, so a closed
        engine stops receiving even from rows resolved before it left the
        routing table.
        """
        self._sweep()
        targets = self._route(publisher.registry.advertised_name, type(event))
        delivered = 0
        for engine, manager, criteria, record in targets:
            if engine is publisher or engine._tps_closed:
                continue
            handlers = manager._handlers
            if not handlers:
                continue
            if criteria is not None and not criteria.matches_event(event):
                continue
            record(event)
            for handle, handle_error, predicate, breaker in handlers:
                # The pushed-down predicate runs inside the dispatch guard:
                # a rejected event skips the callback entirely, and a
                # *raising* predicate is routed to the paired exception
                # handler exactly like a raising callback (so push-down
                # keeps FilteringCallback's error semantics and a broken
                # predicate cannot crash the publisher).  The breaker slot
                # quarantines persistently-raising rows (see CircuitBreaker);
                # it is None unless a breaker policy was configured.
                try:
                    if predicate is not None and not predicate(event):
                        continue
                    if breaker is not None and not breaker.allow():
                        continue
                    handle(event)
                    if breaker is not None:
                        breaker.record_success()
                except BaseException as error:  # noqa: BLE001 - routed to the handler
                    if breaker is not None:
                        breaker.record_failure()
                    try:
                        handle_error(error)
                    except BaseException:  # noqa: BLE001  # repro-lint: disable=RL005 - a broken error handler must not stop dispatch
                        pass
            delivered += 1
        return delivered


#: Default process-wide bus used when no explicit bus is supplied.
DEFAULT_BUS = LocalBus()


class LocalEngineCore(TPSInterfaceCore):
    """What every purely bus-attached engine shares, whatever its front end.

    Bus attachment, the front half of a publish (open/affinity checks,
    validation, codec round-trip), the back half (sent history, receipt) and
    teardown.  :class:`LocalTPSEngine` calls the bus between the two halves;
    the asyncio front end awaits it there instead.  ``**options`` are the
    :class:`~repro.core.interface.TPSInterfaceCore` constructor's
    (``criteria``, ``codec``, ``history``, ``history_size``,
    ``history_path``).
    """

    def __init__(
        self, event_type: Type[Any], *, bus: Optional[Any] = None, **options: Any
    ) -> None:
        super().__init__(event_type, **options)
        self.bus = bus or DEFAULT_BUS
        self.bus.attach(self)

    # ------------------------------------------------------------ publishing

    def _begin_batch(self, events: Iterable[Any]) -> Tuple[List[Any], List[Any]]:
        """``(batch, copies)`` of a ``publish_many`` call.

        Every event is validated and round-tripped up front, so a batch with
        a non-publishable event fails before anything is delivered.
        """
        self._check_open()
        self._check_affinity("publish_many")
        batch = list(events)
        return batch, [self._isolated_copy(event) for event in batch]

    def _finish_publish(self, event: Any, delivered: int) -> PublishReceipt:
        """Record ``event`` as sent; the receipt of its local delivery."""
        self._sent.append(event)
        return PublishReceipt(
            cpu_time=0.0, completion_time=0.0, pipes=1, wire_receipts=[delivered]
        )

    def _do_close(self) -> None:
        """Detach from the bus, then the shared teardown."""
        self._check_affinity("close")
        self.bus.detach(self)
        super()._do_close()


class LocalTPSEngine(LocalEngineCore, TPSInterface):
    """The TPS interface implemented over an in-process :class:`LocalBus`."""

    def publish(self, event: Any) -> PublishReceipt:
        """Publish an event to every conforming local subscriber."""
        copy = self._begin_publish(event)
        return self._finish_publish(event, self.bus.publish(self, copy))

    def publish_many(self, events: Iterable[Any]) -> List[PublishReceipt]:
        """Publish a batch of events; returns one receipt per event, in order.

        The whole batch is validated first (see :meth:`_begin_batch`), then
        handed to the bus in one call when the bus offers a batch path
        (:meth:`ShardedLocalBus.publish_all
        <repro.core.sharded_engine.ShardedLocalBus.publish_all>`, which runs
        independent hierarchies on its executor).  One interface covers one
        hierarchy, so *this* engine's batch stays in publish order on its own
        shard; the batch API pays off when several interfaces' batches meet
        in the bus, or simply by amortising the per-call bookkeeping.
        """
        batch, copies = self._begin_batch(events)
        publish_all = getattr(self.bus, "publish_all", None)
        if publish_all is not None:
            counts = publish_all([(self, copy) for copy in copies])
        else:
            counts = [self.bus.publish(self, copy) for copy in copies]
        return [
            self._finish_publish(event, delivered)
            for event, delivered in zip(batch, counts)
        ]


def _local_binding(request: BindingRequest) -> LocalTPSEngine:
    """The ``"LOCAL"`` binding factory: an in-process interface."""
    return LocalTPSEngine(
        request.event_type,
        bus=request.local_bus,
        criteria=request.criteria,
        codec=request.codec,
        **history_kwargs(request),
    )


# Beyond the history parameters shared by every binding, LOCAL accepts no
# parameters: everything else it needs (bus, codec, criteria) arrives through
# the engine-level construction arguments, so any other
# ``new_interface("LOCAL", key=...)`` parameter is rejected with the uniform
# schema error instead of being silently dropped.
register_binding(
    "LOCAL",
    _local_binding,
    capabilities=("in-process", "synchronous"),
    params=HISTORY_BINDING_PARAMS,
    replace=True,
)


__all__ = ["DEFAULT_BUS", "LocalBus", "LocalEngineCore", "LocalTPSEngine"]
