"""The ``"SHARDED"`` binding: an elastic N-shard in-process bus.

The ROADMAP's sharding direction, taken through the public binding registry
(no special case anywhere in :mod:`repro.core.engine`): a
:class:`ShardedLocalBus` partitions delivery across N independent
:class:`~repro.core.local_engine.LocalBus` shards — and, since PR 7, the
shard set is *elastic*: :meth:`ShardedLocalBus.add_shard` /
:meth:`ShardedLocalBus.remove_shard` resize a **running** bus without
dropping, duplicating or reordering a single delivery.

Partition contract (the ``partition`` constructor argument and binding
parameter):

* ``"root"`` (the default) -- *inter*-hierarchy sharding.  Every engine of a
  hierarchy lands on the shard its placement selects for the hierarchy-root
  name, so delivery semantics are identical to a single bus while unrelated
  hierarchies stop sharing routing tables and locks.
* ``"content"`` -- *intra*-hierarchy sharding by event content.  Requires
  ``content_key``, the name of an event attribute; each published event is
  routed through the shard its placement selects for
  ``"<root name>:<key value>"``.  Engines attach to **every** shard (the
  partition-aware routing path: whichever shard an event hashes to must know
  the hierarchy's subscribers), each event is still delivered exactly once
  (only its own shard delivers it), and per-key ordering is preserved: a
  given key always maps to the same shard, and a shard's deliveries run
  serially in publish order -- including under
  :meth:`ShardedLocalBus.publish_all`, where each shard group runs serially
  in job order while distinct shards run in parallel.  An event *missing*
  the declared attribute raises :class:`PSException` from the publish call
  (the API's normal error path) instead of crashing with ``AttributeError``;
  the bus stays fully usable afterwards.
* a callable ``partition(event) -> key`` -- like ``"content"`` but with an
  application-supplied key function; the returned key is stringified and
  hashed.  A raising key function is wrapped in :class:`PSException` the
  same way.

*Where* a key lives is delegated to :mod:`repro.core.placement`: one policy,
a consistent-hash ring with ``virtual_nodes`` points per stable shard id, so
resizing moves only ~``1/(N+1)`` of the keys and never moves a key between
two surviving shards.  :attr:`ShardedLocalBus.placement` is the current
epoch's ring.

Binding parameters (v2 registry schema): ``new_interface("SHARDED",
shards=16)`` or ``new_interface("SHARDED", shards=8, partition="content",
content_key="symbol", virtual_nodes=128)``.  Interfaces created with the
*same* parameter set share one registry-built bus (so they can talk to each
other); passing parameters together with an explicit engine-level
``local_bus`` is rejected -- the parameters describe a bus, so supply one or
the other.

:class:`~repro.core.local_engine.LocalTPSEngine` runs over the sharded bus
unchanged -- the bus is a drop-in facade with the same
``attach``/``detach``/``publish``/``engines_for`` surface -- which is the
point of the exercise: a binding built purely from public pieces.

Locking and migration model (PR 4's snapshot discipline, extended to PR 7's
ring epochs -- no new locking scheme):

* All *routing state* lives in one immutable ``_Epoch`` object -- the shard
  tuple, the placement, an optional pause gate -- swapped atomically as a
  whole, exactly like the PR 1 route rows and PR 4 handler snapshots.  The
  publish path reads ``self._epoch`` once and never takes a bus-level lock;
  two publishers on *different* shards share no lock at all.  The parallel
  cross-shard path (:meth:`ShardedLocalBus.publish_all`, backing
  ``tps.publish_many``) leans on exactly that independence, fanning
  per-shard batches out to a lazily created executor while keeping each
  shard's events in job order.
* Publishers *register* in the epoch they read (a CPython-atomic
  ``list.append`` token, re-checked against ``self._epoch`` so a token can
  never land in an epoch that was already retired) and deregister when the
  delivery returns -- giving migrations an exact "who is still delivering
  under the old placement" signal with zero cost on the steady-state path.
* Live resharding is **drain-then-switch per key range**, serialized under
  ``_topology_lock`` (shared with ``attach``/``detach``):

  1. install a *paused* epoch: same shards/placement, plus a gate that
     blocks exactly the keys whose owner differs between the old and new
     placement (everything else keeps publishing at full speed);
  2. drain the previous epoch's in-flight registrations -- after this, no
     thread is delivering an affected key anywhere;
  3. attach moved hierarchies' engines to their new owner shards (delivery
     for those keys is still gated, so double-attachment is unobservable);
  4. swap in the final epoch (new shard tuple + placement) -- the atomic
     commit point;
  5. detach moved engines from their old shards and open the gate; blocked
     publishers re-read the epoch and deliver to the new owner.

  Per-key order is preserved because an affected key's deliveries are
  strictly partitioned in time around the commit point (drained before,
  gated until after); exactly-once because at every instant exactly one
  shard delivers any given key.  ``publish_all`` registers once for the
  whole batch, so a batch can never straddle an epoch change -- it either
  drains before the switch or waits for it.  Nested publishes from
  subscriber callbacks reuse the thread's already-registered epoch instead
  of re-entering the gate, so delivery work can never deadlock a migration
  that is waiting on its own drain.  The one rule this buys: **do not call
  ``add_shard``/``remove_shard`` from inside a subscriber callback** -- the
  migration would wait for a drain that includes itself.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type, Union

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
from repro.core.placement import DEFAULT_VIRTUAL_NODES, Placement
from repro.core.type_registry import type_name
from repro.net.entropy import brief_pause

#: Shard count of a sharded bus built without ``shards``.
DEFAULT_SHARD_COUNT = 8

#: The partition modes a bus accepts besides a callable key function.
PARTITION_MODES = ("root", "content")

_bus_counter = itertools.count(1)

#: Seconds between drain polls while a migration waits out in-flight
#: deliveries (they are typically microseconds long).
_DRAIN_POLL_S = 0.00005


class _PauseGate:
    """Blocks publishers of exactly the keys a migration is moving.

    ``affects`` compares the *stable shard id* a key maps to under the old
    vs the new placement; unaffected keys never wait.  ``event`` opens once
    the final epoch is installed.
    """

    __slots__ = ("old_placement", "new_placement", "event")

    def __init__(self, old_placement: Placement, new_placement: Placement) -> None:
        self.old_placement = old_placement
        self.new_placement = new_placement
        self.event = threading.Event()

    def affects(self, key: str) -> bool:
        return self.old_placement.shard_id_for(key) != self.new_placement.shard_id_for(key)


class _Epoch:
    """One immutable routing snapshot: shards + placement (+ pause gate).

    Swapped whole on ``bus._epoch`` (the PR 1/PR 4 snapshot template).
    ``inflight`` is the registration list publishers enter tokens into;
    a paused epoch and the final epoch that commits it share one list, so
    the *next* migration's drain covers both.
    """

    __slots__ = ("number", "shards", "placement", "pause", "inflight")

    def __init__(
        self,
        number: int,
        shards: Tuple[LocalBus, ...],
        placement: Placement,
        pause: Optional[_PauseGate],
        inflight: List[Any],
    ) -> None:
        self.number = number
        self.shards = shards
        self.placement = placement
        self.pause = pause
        self.inflight = inflight


class ShardedLocalBus:
    """N independent :class:`LocalBus` shards with a pluggable partition
    over a consistent-hash placement, resizable while publishing
    (:meth:`add_shard`/:meth:`remove_shard`).

    Presents the exact ``LocalBus`` surface
    (``attach``/``detach``/``publish``/``engines_for``), delegating each call
    to the owning shard.  See the module docstring for the partition
    contract and the epoch/migration model.
    """

    def __init__(
        self,
        shards: int = DEFAULT_SHARD_COUNT,
        *,
        partition: Union[str, Callable[[Any], Any]] = "root",
        content_key: Optional[str] = None,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
    ) -> None:
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
        #: wire messages with it to filter same-bus echoes.
        self.bus_id = f"shardedbus-{ordinal}"
        self._ordinal = ordinal
        initial = Placement(range(shards), virtual_nodes)
        self._epoch = _Epoch(0, tuple(LocalBus() for _ in range(shards)), initial, None, [])
        #: Next stable shard id add_shard() hands out (ids are never reused,
        #: which is what keeps surviving shards' ring points fixed).
        self._next_shard_id = shards
        #: Serializes attach/detach/add_shard/remove_shard; never touched by
        #: the publish path.
        self._topology_lock = threading.Lock()
        #: Every attached engine -> its hierarchy-root name, so a migration
        #: knows which engines to re-home.  Guarded by ``_topology_lock``.
        self._attached: Dict["LocalTPSEngine", str] = {}
        #: Executor of the cross-shard batch path, created on first use (a
        #: bus that never sees :meth:`publish_all` never starts a thread)
        #: and guarded by ``_executor_lock`` so two racing batches cannot
        #: each build one.
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        #: Thread-local re-entrancy state: ``in_worker`` is set while a
        #: thread runs a shard group, so a nested ``publish_all`` (e.g. from
        #: a subscriber callback) runs inline instead of submitting to --
        #: and then waiting on -- the very pool it is occupying; ``epoch``
        #: is the epoch the thread is already registered in, so nested
        #: publishes reuse it instead of re-entering the pause gate.
        self._local = threading.local()

    # ------------------------------------------------------------ partition

    @property
    def shards(self) -> Tuple[LocalBus, ...]:
        """The current epoch's shard tuple (an immutable snapshot)."""
        return self._epoch.shards

    @property
    def placement(self) -> Placement:
        """The current epoch's key→shard ring (an immutable snapshot)."""
        return self._epoch.placement

    @property
    def epoch_number(self) -> int:
        """The current ring epoch; bumps once per completed reshard."""
        return self._epoch.number

    @property
    def intra_hierarchy(self) -> bool:
        """Whether events of one hierarchy can spread across shards."""
        return self.partition != "root"

    def shard_index(self, root_name: str) -> int:
        """The shard owning the hierarchy advertised as ``root_name``.

        Only meaningful under ``"root"`` partitioning; intra-hierarchy
        buses attach every hierarchy to every shard and route per event
        (see :meth:`partition_index`).
        """
        epoch = self._epoch
        return epoch.placement.index_for(root_name)

    def shard_for(self, root_name: str) -> LocalBus:
        """The :class:`LocalBus` shard owning ``root_name``'s hierarchy."""
        epoch = self._epoch
        return epoch.shards[epoch.placement.index_for(root_name)]

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
        """The shard that delivers ``event`` published on ``root_name``.

        Under ``"root"`` partitioning this is the hierarchy's home shard;
        under content/callable partitioning the key is hashed together with
        the root name.
        """
        epoch = self._epoch
        return epoch.placement.index_for(self.placement_key(root_name, event))

    # ----------------------------------------------------- epoch entry/exit

    def _enter_epoch(self, keys: Sequence[str]) -> Tuple[_Epoch, bool]:
        """Register this thread as delivering ``keys``; returns the epoch to
        route by and whether a token was taken (False when nested inside a
        delivery already registered on this thread).

        Blocks while any of the keys is paused by a live migration.  The
        append/re-check/pop dance makes registration atomic against the
        epoch swap: a token that lands after its epoch was retired is backed
        out and the loop re-reads.
        """
        held: Optional[_Epoch] = getattr(self._local, "epoch", None)
        if held is not None:
            return held, False
        while True:
            epoch = self._epoch
            gate = epoch.pause
            if gate is not None and any(gate.affects(key) for key in keys):
                gate.event.wait()
                continue
            epoch.inflight.append(None)
            if self._epoch is not epoch:
                epoch.inflight.pop()
                continue
            self._local.epoch = epoch
            return epoch, True

    def _exit_epoch(self, epoch: _Epoch, token: bool) -> None:
        if token:
            self._local.epoch = None
            epoch.inflight.pop()

    # ------------------------------------------------- LocalBus facade

    def attach(self, engine: "LocalTPSEngine") -> None:
        """Attach an engine: its home shard, or every shard (intra mode)."""
        root = engine.registry.advertised_name
        with self._topology_lock:
            epoch = self._epoch
            if self.intra_hierarchy:
                for shard in epoch.shards:
                    shard.attach(engine)
            else:
                epoch.shards[epoch.placement.index_for(root)].attach(engine)
            self._attached[engine] = root

    def detach(self, engine: "LocalTPSEngine") -> None:
        """Detach an engine from every shard it was attached to."""
        root = engine.registry.advertised_name
        with self._topology_lock:
            epoch = self._epoch
            if self.intra_hierarchy:
                for shard in epoch.shards:
                    shard.detach(engine)
            else:
                epoch.shards[epoch.placement.index_for(root)].detach(engine)
            self._attached.pop(engine, None)

    def engines_for(self, root: Type[Any]) -> Tuple["LocalTPSEngine", ...]:
        """Every engine attached to the hierarchy rooted at ``root``.

        Intra-hierarchy buses keep identical attachment sets on every shard,
        so the first shard's snapshot is the answer.
        """
        epoch = self._epoch
        if self.intra_hierarchy:
            return epoch.shards[0].engines_for(root)
        name = type_name(root)
        return epoch.shards[epoch.placement.index_for(name)].engines_for(root)

    def publish(self, publisher: "LocalTPSEngine", event: Any) -> int:
        """Deliver through the event's shard (same semantics as LocalBus).

        Under ``"root"`` partitioning the shard is the publisher's home
        shard; under content/callable partitioning it is the event's --
        exactly one shard delivers each event, so delivery stays
        exactly-once and per-key ordering follows from per-shard seriality.
        Registers in the current epoch (and waits out a migration that is
        moving this very key) before touching any shard.
        """
        key = self.placement_key(publisher.registry.advertised_name, event)
        epoch, token = self._enter_epoch((key,))
        try:
            return epoch.shards[epoch.placement.index_for(key)].publish(
                publisher, event
            )
        finally:
            self._exit_epoch(epoch, token)

    # ------------------------------------------------- cross-shard batches

    def publish_all(
        self, jobs: Iterable[Tuple["LocalTPSEngine", Any]]
    ) -> List[int]:
        """Publish a batch of ``(publisher, event)`` jobs, shards in parallel.

        Jobs are grouped by the shard that delivers each event (the
        publisher's home shard under ``"root"`` partitioning, the event's
        content shard under intra-hierarchy partitioning); every group runs
        *serially in job order* -- so per-hierarchy (respectively per-key)
        ordering matches a plain publish loop -- while distinct groups run
        concurrently: the calling thread takes one group itself and the rest
        go to the bus executor.  Returns the per-job delivery counts in job
        order.  A single-shard batch runs inline on the calling thread: no
        executor, no handoff, identical cost to looping ``publish``.  A
        *nested* ``publish_all`` (reached from a subscriber callback already
        running on a pool worker) also runs fully inline -- workers never
        wait on the pool they occupy, so re-entrant batches cannot deadlock
        it.  The whole batch registers in **one** epoch: it can never
        straddle a reshard -- either it drains before the switch or it waits
        for the new placement and groups against that.
        """
        ordered = list(jobs)
        # Key resolution happens before any delivery, so a bad key fails the
        # batch closed -- and before epoch entry, so the pause gate sees the
        # full key set.
        keys = [
            self.placement_key(publisher.registry.advertised_name, event)
            for publisher, event in ordered
        ]
        epoch, token = self._enter_epoch(keys)
        try:
            results: List[int] = [0] * len(ordered)
            groups: Dict[int, List[int]] = {}
            for position, key in enumerate(keys):
                groups.setdefault(epoch.placement.index_for(key), []).append(position)

            def run_group(index: int, positions: Sequence[int]) -> None:
                previous_worker = getattr(self._local, "in_worker", False)
                previous_epoch = getattr(self._local, "epoch", None)
                self._local.in_worker = True
                # Pool workers inherit the batch's registration: a nested
                # publish from a subscriber callback must not re-enter the
                # pause gate while this batch blocks a migration's drain.
                self._local.epoch = epoch
                try:
                    shard = epoch.shards[index]
                    for position in positions:
                        publisher, event = ordered[position]
                        results[position] = shard.publish(publisher, event)
                finally:
                    self._local.in_worker = previous_worker
                    self._local.epoch = previous_epoch

            if len(groups) <= 1 or getattr(self._local, "in_worker", False):
                for index, positions in groups.items():
                    run_group(index, positions)
                return results
            # Executor creation and the submits share one critical section
            # so a concurrent shutdown() cannot retire the executor between
            # them (a shutdown arriving after the submits merely waits for
            # the batch).
            grouped = list(groups.items())
            with self._executor_lock:
                executor = self._executor
                if executor is None:
                    executor = self._executor = ThreadPoolExecutor(
                        max_workers=len(epoch.shards),
                        thread_name_prefix=f"repro-shard-{self._ordinal}",
                    )
                futures = [
                    # Deliberate (RL002 exception): submits must happen under
                    # _executor_lock so shutdown() cannot retire the executor
                    # between its creation above and the submits; run_group is
                    # our own worker shim, not user code.
                    executor.submit(run_group, index, positions)  # repro-lint: disable=RL002
                    for index, positions in grouped[1:]
                ]
            # The caller works one group instead of idling in result(); it
            # is also the only thread that ever waits on the pool.
            caller_error: Optional[BaseException] = None
            try:
                run_group(*grouped[0])
            except BaseException as error:  # noqa: BLE001 - re-raised below
                caller_error = error
            # Await every group before raising: a failing shard must not
            # leave the other shards delivering in the background (or their
            # exceptions unretrieved) while the caller already unwound.
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
        finally:
            self._exit_epoch(epoch, token)

    def shutdown(self) -> None:
        """Stop the batch executor, if one was ever started (idempotent).

        Only the executor is affected: the shards, their engines and the
        plain ``publish`` path keep working, and a later ``publish_all``
        lazily builds a fresh executor.  A batch already submitted when the
        shutdown arrives runs to completion (``wait=True``); the executor
        swap is an atomic flip under the per-bus executor lock (shared with
        ``publish_all``'s submits), so a batch can never be caught between
        obtaining the executor and submitting to it -- and two concurrent
        ``shutdown`` calls (say, a migration retiring a stale-sized pool
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
        """Grow the running bus by one shard; returns its tuple position.

        Drain-then-switch (see the module docstring): only the keys the new
        shard captures pause, everything else keeps publishing.  Must not be
        called from inside a subscriber callback.
        """
        with self._topology_lock:
            old = self._epoch
            shard_id = self._next_shard_id
            self._next_shard_id += 1
            new_placement = old.placement.with_shards(
                old.placement.shard_ids + (shard_id,)
            )
            new_shard = LocalBus()
            new_shards = old.shards + (new_shard,)
            prepare: List[Tuple[LocalBus, "LocalTPSEngine"]] = []
            cleanup: List[Tuple[LocalBus, "LocalTPSEngine"]] = []
            if self.intra_hierarchy:
                prepare = [(new_shard, engine) for engine in self._attached]
            else:
                for engine, root in self._attached.items():
                    old_position = old.placement.index_for(root)
                    if (
                        old.placement.shard_ids[old_position]
                        != new_placement.shard_id_for(root)
                    ):
                        prepare.append(
                            (new_shards[new_placement.index_for(root)], engine)
                        )
                        cleanup.append((old.shards[old_position], engine))
            self._migrate(old, new_shards, new_placement, prepare, cleanup)
            position = len(new_shards) - 1
        # Outside the lock: retire the executor so the next batch builds one
        # sized to the new shard count (a running batch finishes first).
        self.shutdown()
        return position

    def remove_shard(self, index: Optional[int] = None) -> int:
        """Shrink the running bus by one shard (the last, or ``index``);
        returns the removed tuple position.  The removed shard's keys are
        re-homed onto the survivors; under ring placement nothing else
        moves.  Must not be called from inside a subscriber callback.
        """
        with self._topology_lock:
            old = self._epoch
            if len(old.shards) <= 1:
                raise PSException(
                    "a sharded bus cannot drop below 1 shard; "
                    f"remove_shard on a {len(old.shards)}-shard bus"
                )
            position = len(old.shards) - 1 if index is None else index
            if not 0 <= position < len(old.shards):
                raise PSException(
                    f"remove_shard index {index!r} out of range for "
                    f"{len(old.shards)} shards"
                )
            removed = old.shards[position]
            ids = old.placement.shard_ids
            new_placement = old.placement.with_shards(
                ids[:position] + ids[position + 1 :]
            )
            new_shards = old.shards[:position] + old.shards[position + 1 :]
            prepare: List[Tuple[LocalBus, "LocalTPSEngine"]] = []
            cleanup: List[Tuple[LocalBus, "LocalTPSEngine"]] = []
            if self.intra_hierarchy:
                cleanup = [(removed, engine) for engine in self._attached]
            else:
                for engine, root in self._attached.items():
                    if old.placement.index_for(root) == position:
                        prepare.append(
                            (new_shards[new_placement.index_for(root)], engine)
                        )
                        cleanup.append((removed, engine))
            self._migrate(old, new_shards, new_placement, prepare, cleanup)
        self.shutdown()
        return position

    def _migrate(
        self,
        old: _Epoch,
        new_shards: Tuple[LocalBus, ...],
        new_placement: Placement,
        prepare: List[Tuple[LocalBus, "LocalTPSEngine"]],
        cleanup: List[Tuple[LocalBus, "LocalTPSEngine"]],
    ) -> None:
        """Drain-then-switch core; caller holds ``_topology_lock``.

        ``prepare`` attachments happen *before* the commit (new owners learn
        the hierarchy while its keys are gated), ``cleanup`` detachments
        *after* (old owners stop seeing it once no delivery can reach them
        there).  The paused and final epochs share one in-flight list, so
        the next migration's drain covers stragglers from both.
        """
        gate = _PauseGate(old.placement, new_placement)
        shared_inflight: List[Any] = []
        self._epoch = _Epoch(
            old.number, old.shards, old.placement, gate, shared_inflight
        )
        try:
            # Drain: every token in the pre-pause epoch was taken by a
            # thread delivering under the old placement; affected keys must
            # all be out before anything moves.  (New publishers are either
            # gated, or unaffected and registering in the shared list.)
            while old.inflight:
                brief_pause(_DRAIN_POLL_S)
            for shard, engine in prepare:
                shard.attach(engine)
            self._epoch = _Epoch(
                old.number + 1, new_shards, new_placement, None, shared_inflight
            )
        except BaseException:
            # Restore a gate-free old epoch so the bus stays usable; tokens
            # already in the shared list stay valid for the next migration.
            self._epoch = _Epoch(
                old.number, old.shards, old.placement, None, shared_inflight
            )
            raise
        finally:
            gate.event.set()
        for shard, engine in cleanup:
            shard.detach(engine)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        epoch = self._epoch
        attached = sum(
            len(engines) for shard in epoch.shards for engines in shard._engines.values()
        )
        part = self.partition if isinstance(self.partition, str) else "callable"
        return (
            f"ShardedLocalBus(shards={len(epoch.shards)}, partition={part!r}, "
            f"epoch={epoch.number}, engines={attached})"
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
        "number of independent LocalBus shards",
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
    BindingParam(
        "virtual_nodes",
        (int,),
        "consistent-hash ring points per shard",
        positive,
        default=DEFAULT_VIRTUAL_NODES,
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
    parameters (all defaults when none are given) otherwise, and rejects a plain ``LocalBus`` (silently unsharding would betray the
    binding's name).
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
