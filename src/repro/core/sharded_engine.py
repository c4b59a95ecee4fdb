"""The ``"SHARDED"`` binding: an elastic N-shard in-process bus.

The ROADMAP's sharding direction, taken through the public binding registry
(no special case anywhere in :mod:`repro.core.engine`): a
:class:`ShardedLocalBus` is the one :class:`~repro.core.local_engine.LocalBus`
route table plus a *placement* -- a consistent-hash ring that assigns every
publish to one of N shards -- and the shard set is *elastic*:
:meth:`ShardedLocalBus.add_shard` / :meth:`ShardedLocalBus.remove_shard`
resize a **running** bus without dropping, duplicating or reordering a
single delivery.

A shard is a *lane* of :meth:`ShardedLocalBus.publish_all` (backing
``tps.publish_many``): the events of one batch that the placement assigns to
the same shard run serially in job order, distinct shards run in parallel on
the bus executor.  A plain ``publish`` delivers on the calling thread,
lock-free, whatever its shard -- ``LocalBus.publish`` reads immutable
snapshots only, so concurrent publishers never serialise on a shard.

Partition contract (the ``partition`` constructor argument and binding
parameter):

* ``"root"`` (the default) -- *inter*-hierarchy sharding.  The placement
  key of a publish is the hierarchy-root name, so a hierarchy's events all
  share one lane while unrelated hierarchies' batches run in parallel.
* ``"content"`` -- *intra*-hierarchy sharding by event content.  Requires
  ``content_key``, the name of an event attribute; the placement key is
  ``"<root name>:<key value>"``, so one hot hierarchy spreads across the
  shards.  Each event is still delivered exactly once, and per-key ordering
  is preserved: a given key always maps to the same shard, and a shard's
  lane runs serially in job order.  An event *missing* the declared
  attribute raises :class:`PSException` from the publish call (the API's
  normal error path) instead of crashing with ``AttributeError``; the bus
  stays fully usable afterwards.
* a callable ``partition(event) -> key`` -- like ``"content"`` but with an
  application-supplied key function; the returned key is stringified and
  hashed.  A raising key function is wrapped in :class:`PSException` the
  same way.

*Where* a key lives is delegated to :mod:`repro.core.placement`: one policy,
a consistent-hash ring with ``DEFAULT_VIRTUAL_NODES`` points per stable
shard id, so resizing moves only ~``1/(N+1)`` of the keys and never moves a
key between two surviving shards.  :attr:`ShardedLocalBus.placement` is the
current ring.

Binding parameters (v2 registry schema): ``new_interface("SHARDED",
shards=16)`` or ``new_interface("SHARDED", shards=8, content_key="symbol")``
(``content_key`` implies ``partition="content"``).  Interfaces created with
the *same* parameter set share one registry-built bus (so they can talk to
each other); passing parameters together with an explicit engine-level
``local_bus`` is rejected -- the parameters describe a bus, so supply one or
the other.

:class:`~repro.core.local_engine.LocalTPSEngine` runs over the sharded bus
unchanged -- the bus *is* a ``LocalBus``
(``attach``/``detach``/``engines_for`` and the delivery loop are inherited)
-- which is the point of the exercise: a binding built purely from public
pieces.

Locking and migration model (PR 4's snapshot discipline, nothing more):

* The *topology* is one immutable ``(epoch number, Placement)`` pair on
  ``bus._topology``, swapped whole by ``add_shard``/``remove_shard`` under
  ``_topology_lock`` -- exactly like the PR 1 route rows and PR 4 handler
  snapshots.  ``publish_all`` reads it **once** per batch and never takes a
  bus-level lock, so a batch can never straddle a reshard: every job of the
  batch is grouped against the same ring, and a reshard that lands
  mid-batch only shapes the *next* batch's lanes.
* A reshard is that one swap; there is nothing to drain and nothing to
  move.  Attachment lives in the single route table, which no placement
  change touches, so at every instant exactly one table delivers any event
  (exactly-once), and a delivery already running under the old ring simply
  finishes -- it reads no topology after its lane was chosen.  Per-key
  order needs no help either: a publisher's ``publish`` calls run
  synchronously on its own thread, and within a batch equal keys share a
  lane whichever snapshot the batch read.
* After the swap the bus retires its executor (``shutdown()``), so the next
  batch builds one sized to the new shard count; a batch already submitted
  runs to completion first.  The one rule this leaves: **do not call
  ``add_shard``/``remove_shard`` from inside a subscriber callback** --
  ``shutdown(wait=True)`` reached from a pool worker would join the very
  thread it is running on.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.bindings import (
    BindingParam,
    BindingRequest,
    SharedBusCache,
    one_of,
    positive,
    register_binding,
)
from repro.core.exceptions import PSException
from repro.core.history import HISTORY_BINDING_PARAMS, history_kwargs
from repro.core.local_engine import LocalBus, LocalTPSEngine
from repro.core.placement import Placement

#: Shard count of a sharded bus built without ``shards``.
DEFAULT_SHARD_COUNT = 8

#: The partition modes a bus accepts besides a callable key function.
PARTITION_MODES = ("root", "content")

_bus_counter = itertools.count(1)


class ShardedLocalBus(LocalBus):
    """A :class:`LocalBus` with a pluggable partition over a consistent-hash
    placement, resizable while publishing
    (:meth:`add_shard`/:meth:`remove_shard`).

    The route table, ``attach``/``detach``/``engines_for`` and the delivery
    loop are ``LocalBus``'s; this class adds the topology snapshot, the
    partition key function and :meth:`publish_all`'s per-shard lanes.  See
    the module docstring for the partition contract and the reshard model.
    """

    def __init__(
        self,
        shards: int = DEFAULT_SHARD_COUNT,
        *,
        partition: Union[str, Callable[[Any], Any]] = "root",
        content_key: Optional[str] = None,
    ) -> None:
        super().__init__()
        if shards < 1:
            raise PSException(f"a sharded bus needs at least 1 shard, got {shards}")
        if not callable(partition) and partition not in PARTITION_MODES:
            raise PSException(
                f"unknown partition mode {partition!r}; expected one of "
                f"{PARTITION_MODES} or a callable key function"
            )
        self.partition: Union[str, Callable[[Any], Any]] = partition
        if self.partition == "content":
            if not isinstance(content_key, str) or not content_key:
                raise PSException(
                    "partition='content' needs content_key, the name of the "
                    "event attribute to shard by"
                )
        elif content_key is not None:
            raise PSException(
                "content_key only applies to partition='content', "
                f"got content_key={content_key!r} with partition={partition!r}"
            )
        self.content_key = content_key
        ordinal = next(_bus_counter)
        #: Process-unique token identifying this bus; composite bindings tag
        #: wire messages with it to filter same-bus echoes.  Fixed width, so
        #: a tagged message's size (and simulated cost) does not depend on
        #: how many buses this process built before.
        self.bus_id = f"shardedbus-{ordinal:08x}"
        self._ordinal = ordinal
        #: The immutable ``(epoch number, placement)`` snapshot: rebound
        #: whole under ``_topology_lock``, read lock-free.
        self._topology: Tuple[int, Placement] = (0, Placement(range(shards)))
        #: Next stable shard id add_shard() hands out (ids are never reused,
        #: which is what keeps surviving shards' ring points fixed).
        self._next_shard_id = shards
        #: Serializes add_shard/remove_shard; never touched by the publish
        #: path.
        self._topology_lock = threading.Lock()
        #: Executor of the cross-shard batch path, created on first use (a
        #: bus that never sees :meth:`publish_all` never starts a thread)
        #: and guarded by ``_executor_lock`` so two racing batches cannot
        #: each build one.
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        #: Thread-local re-entrancy state: ``in_worker`` is set while a
        #: thread runs a lane, so a nested ``publish_all`` (e.g. from a
        #: subscriber callback) runs inline instead of submitting to -- and
        #: then waiting on -- the very pool it is occupying.
        self._local = threading.local()

    # ------------------------------------------------------------ partition

    @property
    def shards(self) -> Tuple[int, ...]:
        """The current shards' stable ids (an immutable snapshot)."""
        return self._topology[1].shard_ids

    @property
    def placement(self) -> Placement:
        """The current key→shard ring (an immutable snapshot)."""
        return self._topology[1]

    @property
    def epoch_number(self) -> int:
        """The current ring epoch; bumps once per completed reshard."""
        return self._topology[0]

    @property
    def intra_hierarchy(self) -> bool:
        """Whether events of one hierarchy can spread across shards."""
        return self.partition != "root"

    def shard_index(self, root_name: str) -> int:
        """The shard owning the hierarchy advertised as ``root_name``.

        Only meaningful under ``"root"`` partitioning; intra-hierarchy
        buses place per event (see :meth:`partition_index`).
        """
        return self.placement.index_for(root_name)

    def partition_key(self, event: Any) -> str:
        """The content key of ``event`` under this bus's partition.

        Raises :class:`PSException` (never ``AttributeError``) when the
        declared ``content_key`` attribute is missing or the callable
        partition function fails -- the publish-side error path.
        """
        if self.partition == "content":
            try:
                value = getattr(event, self.content_key)  # type: ignore[arg-type]
            except AttributeError:
                raise PSException(
                    f"content-keyed sharding: event {type(event).__name__!r} has "
                    f"no attribute {self.content_key!r} (declared as this bus's "
                    "content_key); publish an event carrying the attribute or "
                    "re-partition the bus"
                ) from None
        else:
            try:
                value = self.partition(event)  # type: ignore[operator]
            except PSException:
                raise
            except BaseException as error:
                raise PSException(
                    f"partition key function {self.partition!r} failed on "
                    f"{type(event).__name__!r}: {error}"
                ) from error
        return str(value)

    def placement_key(self, root_name: str, event: Any) -> str:
        """The placement-layer key of one publish: the root name, or
        ``"<root>:<content key>"`` under intra-hierarchy partitioning (two
        hierarchies sharing key values still spread independently)."""
        if not self.intra_hierarchy:
            return root_name
        return f"{root_name}:{self.partition_key(event)}"

    def partition_index(self, root_name: str, event: Any) -> int:
        """The shard of ``event`` published on ``root_name``.

        Under ``"root"`` partitioning this is the hierarchy's home shard;
        under content/callable partitioning the key is hashed together with
        the root name.
        """
        return self.placement.index_for(self.placement_key(root_name, event))

    # ------------------------------------------------------------ publishing

    def publish(self, publisher: "LocalTPSEngine", event: Any) -> int:
        """Deliver ``event`` on the calling thread (``LocalBus`` semantics).

        The shard of a single publish decides nothing about its delivery --
        one route table serves every shard -- but an event the partition
        cannot key is still refused here, before anything is delivered.
        The SHARDED+JXTA binding keys its copy itself and then calls
        ``LocalBus.publish`` directly, skipping this override: anything
        added here beyond the key check must be added there too.
        """
        if self.intra_hierarchy:
            self.partition_key(event)
        return super().publish(publisher, event)

    def publish_all(
        self, jobs: Iterable[Tuple["LocalTPSEngine", Any]]
    ) -> List[int]:
        """Publish a batch of ``(publisher, event)`` jobs, shards in parallel.

        Jobs are grouped into one lane per shard (the publisher's home
        shard under ``"root"`` partitioning, the event's content shard
        under intra-hierarchy partitioning); every lane runs *serially in
        job order* -- so per-hierarchy (respectively per-key) ordering
        matches a plain publish loop -- while distinct lanes run
        concurrently: the calling thread takes one lane itself and the rest
        go to the bus executor.  Returns the per-job delivery counts in job
        order.  A single-lane batch runs inline on the calling thread: no
        executor, no handoff, identical cost to looping ``publish``.  A
        *nested* ``publish_all`` (reached from a subscriber callback already
        running on a pool worker) also runs fully inline -- workers never
        wait on the pool they occupy, so re-entrant batches cannot deadlock
        it.  The whole batch is grouped against **one** topology snapshot,
        read once: it can never straddle a reshard.
        """
        ordered = list(jobs)
        placement = self.placement
        # Every key resolves before any delivery, so a bad key fails the
        # batch closed.
        lanes: Dict[int, List[int]] = {}
        for position, (publisher, event) in enumerate(ordered):
            key = self.placement_key(publisher.registry.advertised_name, event)
            lanes.setdefault(placement.index_for(key), []).append(position)
        results: List[int] = [0] * len(ordered)
        deliver = super().publish

        def run_lane(positions: Sequence[int]) -> None:
            previous = getattr(self._local, "in_worker", False)
            self._local.in_worker = True
            try:
                for position in positions:
                    publisher, event = ordered[position]
                    results[position] = deliver(publisher, event)
            finally:
                self._local.in_worker = previous

        grouped = list(lanes.values())
        if len(grouped) <= 1 or getattr(self._local, "in_worker", False):
            for positions in grouped:
                run_lane(positions)
            return results
        # Executor creation and the submits share one critical section so a
        # concurrent shutdown() cannot retire the executor between them (a
        # shutdown arriving after the submits merely waits for the batch).
        with self._executor_lock:
            executor = self._executor
            if executor is None:
                executor = self._executor = ThreadPoolExecutor(
                    max_workers=len(placement),
                    thread_name_prefix=f"repro-shard-{self._ordinal}",
                )
            futures = [
                # Deliberate (RL002 exception): submits must happen under
                # _executor_lock so shutdown() cannot retire the executor
                # between its creation above and the submits; run_lane is
                # our own worker shim, not user code.
                executor.submit(run_lane, positions)  # repro-lint: disable=RL002 - run_lane is our worker shim, not user code
                for positions in grouped[1:]
            ]
        # The caller works one lane instead of idling in result(); it is
        # also the only thread that ever waits on the pool.
        caller_error: Optional[BaseException] = None
        try:
            run_lane(grouped[0])
        except BaseException as error:  # noqa: BLE001 - re-raised below
            caller_error = error
        # Await every lane before raising: a failing lane must not leave
        # the others delivering in the background (or their exceptions
        # unretrieved) while the caller already unwound.
        errors: List[BaseException] = []
        for future in futures:
            try:
                future.result()
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)
        if caller_error is not None:
            raise caller_error
        if errors:
            raise errors[0]
        return results

    def shutdown(self) -> None:
        """Stop the batch executor, if one was ever started (idempotent).

        Only the executor is affected: the route table, its engines and the
        plain ``publish`` path keep working, and a later ``publish_all``
        lazily builds a fresh executor.  A batch already submitted when the
        shutdown arrives runs to completion (``wait=True``); the executor
        swap is an atomic flip under the per-bus executor lock (shared with
        ``publish_all``'s submits), so a batch can never be caught between
        obtaining the executor and submitting to it -- and two concurrent
        ``shutdown`` calls (say, a reshard retiring a stale-sized pool
        racing a user ``close()``) each take a *different* value out of the
        slot, at most one of them non-None, so neither can double-stop or
        resurrect the other's executor.
        """
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    # --------------------------------------------------- live resharding

    def add_shard(self) -> int:
        """Grow the running bus by one shard; returns its position.

        One snapshot swap (see the module docstring): the new shard's ring
        points capture ~``1/(N+1)`` of the keys, nothing else moves.  Must
        not be called from inside a subscriber callback.
        """
        with self._topology_lock:
            number, placement = self._topology
            shard_ids = placement.shard_ids + (self._next_shard_id,)
            self._next_shard_id += 1
            self._topology = (number + 1, placement.with_shards(shard_ids))
        # Outside the lock: retire the executor so the next batch builds one
        # sized to the new shard count (a running batch finishes first).
        self.shutdown()
        return len(shard_ids) - 1

    def remove_shard(self, index: Optional[int] = None) -> int:
        """Shrink the running bus by one shard (the last, or ``index``);
        returns the removed position.  The removed shard's keys fall to the
        survivors; under ring placement nothing else moves.  Must not be
        called from inside a subscriber callback.
        """
        with self._topology_lock:
            number, placement = self._topology
            ids = placement.shard_ids
            if len(ids) <= 1:
                raise PSException(
                    "a sharded bus cannot drop below 1 shard; "
                    f"remove_shard on a {len(ids)}-shard bus"
                )
            position = len(ids) - 1 if index is None else index
            if not 0 <= position < len(ids):
                raise PSException(
                    f"remove_shard index {index!r} out of range for "
                    f"{len(ids)} shards"
                )
            self._topology = (
                number + 1,
                placement.with_shards(ids[:position] + ids[position + 1 :]),
            )
        self.shutdown()
        return position

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        number, placement = self._topology
        attached = sum(len(engines) for engines in self._engines.values())
        part = self.partition if isinstance(self.partition, str) else "callable"
        return (
            f"ShardedLocalBus(shards={len(placement)}, partition={part!r}, "
            f"epoch={number}, engines={attached})"
        )


def _partition_value(value: Any) -> Optional[str]:
    # Callable partitions are deliberately *not* accepted as binding params:
    # registry-built buses are shared by parameter equality, and two
    # identical-looking lambdas compare unequal -- call sites would silently
    # land on disjoint buses and never hear each other.  A callable partition
    # needs an explicitly constructed ShardedLocalBus passed as the engine's
    # local_bus, which makes the sharing decision the application's.
    if callable(value):
        return (
            "callable partitions cannot describe a shared registry-built bus "
            "(two equal-looking callables compare unequal); construct "
            "ShardedLocalBus(partition=fn) yourself and pass it as local_bus"
        )
    return one_of(PARTITION_MODES)(value)


#: The parameters that describe a bus (and so key the shared-bus cache).
_BUS_PARAMS = (
    BindingParam(
        "shards",
        (int,),
        "number of shards (parallel batch lanes)",
        positive,
        default=DEFAULT_SHARD_COUNT,
    ),
    BindingParam(
        "partition",
        (),  # untyped: the check above explains the callable rejection
        "'root' (per-hierarchy) or 'content' (per event attribute)",
        _partition_value,
        default="root",
    ),
    BindingParam(
        "content_key",
        (str,),
        "event attribute to shard by (partition='content')",
    ),
)

#: The parameter schema shared by the SHARDED and SHARDED+JXTA bindings.
SHARDED_BINDING_PARAMS = _BUS_PARAMS + HISTORY_BINDING_PARAMS

#: Registry-built buses of the SHARDED and SHARDED+JXTA bindings, keyed by
#: the parameter set that described them.
SHARED_BUSES = SharedBusCache(
    ShardedLocalBus, {param.name: param.default for param in _BUS_PARAMS}
)


def request_bus(request: BindingRequest, *, scope: Any = None) -> ShardedLocalBus:
    """Resolve the bus of a SHARDED(-composite) request: explicit or built.

    Identical parameter sets (within one ``scope``; composite bindings scope
    by peer) share one cached bus, built on first use -- no parameters at
    all and every default spelled out name the same one.  ``content_key``
    alone implies ``partition="content"`` (the common case needs one
    parameter, not two).
    """
    kwargs = SHARED_BUSES.described(request)
    if "content_key" in kwargs:
        kwargs.setdefault("partition", "content")
    return SHARED_BUSES.resolve(
        request, kwargs, lambda: ShardedLocalBus(**kwargs), scope=scope
    )


def _sharded_binding(request: BindingRequest) -> LocalTPSEngine:
    """The ``"SHARDED"`` binding factory.

    Uses the engine's ``local_bus`` when it already is a
    :class:`ShardedLocalBus`, builds (and caches) a bus from the binding
    parameters (all defaults when none are given) otherwise, and rejects a
    plain ``LocalBus`` (silently unsharding would betray the binding's name).
    """
    return LocalTPSEngine(
        request.event_type,
        bus=request_bus(request),
        criteria=request.criteria,
        codec=request.codec,
        **history_kwargs(request),
    )


def register_sharded_binding() -> None:
    """(Re-)register the ``"SHARDED"`` binding with its canonical spec.

    Module import calls this once; tests that exercise the
    ``unregister_binding`` cache-reset path call it again to restore the
    built-in registration.
    """
    register_binding(
        "SHARDED",
        _sharded_binding,
        capabilities=("in-process", "sharded", "elastic"),
        params=SHARDED_BINDING_PARAMS,
        replace=True,
        on_unregister=SHARED_BUSES.reset,
    )


register_sharded_binding()


__all__ = [
    "DEFAULT_SHARD_COUNT",
    "PARTITION_MODES",
    "SHARDED_BINDING_PARAMS",
    "SHARED_BUSES",
    "ShardedLocalBus",
    "register_sharded_binding",
    "request_bus",
]
