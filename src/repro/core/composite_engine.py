"""The ``"SHARDED+JXTA"`` composite binding: sharded bus + JXTA wire.

The paper's layering claim (Section 4) is that TPS is a thin typed layer
over *any* substrate.  This module takes it one step further: a binding
whose substrate is itself two bindings --

* an in-process :class:`~repro.core.sharded_engine.ShardedLocalBus` leg for
  intra-peer traffic (synchronous, lock-free snapshot delivery, optionally
  content-keyed so one hot hierarchy spreads across shards), and
* a :class:`~repro.core.jxta_engine.JxtaTPSEngine` wire leg that fans every
  publication out over the simulated JXTA substrate to remote peers.

The two legs complement each other exactly: the JXTA wire never delivers to
the publishing peer itself (``resolved_peers`` excludes self), so same-peer
interfaces would be deaf to each other over pure JXTA; the local bus covers
precisely that gap.  To keep delivery exactly-once even when an application
shares one :class:`ShardedLocalBus` across peers, every outgoing wire
message is tagged with the bus's process-unique ``bus_id`` (via the
:meth:`~repro.core.jxta_engine.JxtaTPSEngine._decorate_message` hook) and
the wire leg drops incoming messages carrying its own tag: whatever the
local bus already delivered never arrives twice.

Threading model (the PR 4 snapshot/locking design, reused): the local leg is
fully thread-safe -- delivery reads immutable route-row and handler
snapshots lock-free, and the composite's bridge handle flips under its own
lock so concurrent subscribe/unsubscribe churn opens and closes the wire
bridge exactly once.  The wire leg inherits the JXTA engine's single-thread
affinity guard: it runs on the simulated network's event loop, and the
composite routes every wire-touching call (publish, bridge open/close,
teardown) through the owning thread's call stack, so cross-thread misuse
surfaces as the wire leg's clear :class:`PSException` rather than corrupted
network state.

Binding parameters: the full ``"SHARDED"`` schema (``shards``,
``partition``, ``content_key``, ``virtual_nodes``) plus the
composite-only membership knobs (``membership``, ``heartbeat_interval``,
``suspect_timeout``, ``confirm_timeout``).  Registry-built buses are scoped
**per peer** -- each simulated peer models one process, so its composite
interfaces share a bus with each other but never with another peer's; remote
traffic goes over the wire, exactly as it would between real processes.

Membership (PR 7): with ``membership=True`` the peer runs one shared
:class:`~repro.net.membership.MembershipMonitor` (first engine to enable it
fixes the timing -- later engines on the same peer reuse it).  Each publish
syncs the wire leg's resolved peers into the monitor's watch list, and the
monitor's mutual-discovery heartbeats spread the watching to subscribe-only
peers from there.  When the detector *confirms* a peer dead, the composite
closes that peer's wire leg: every reliable delivery still pending towards
it is failed immediately through :meth:`WireService.fail_target` (reported
via the PR 6 ``delivery_failure_handler`` path instead of retrying the full
backoff ladder) and the peer is dropped from the pipe binding tables so new
publishes stop targeting it.  The detector keeps *probing* the dead peer,
so a rejoin flips it back to ``alive`` and the next resolve re-records it.
Enable membership on every participating peer -- heartbeats are mutual, and
a peer that never heartbeats back is (correctly) convicted.
"""

from __future__ import annotations

import dataclasses
import os.path
import threading
import weakref
from typing import Any, Dict, Iterable, List, Optional

from repro.core.bindings import BindingParam, BindingRequest, positive, register_binding
from repro.core.exceptions import PSException
from repro.core.history import history_kwargs
from repro.core.interface import PublishReceipt, Subscription
from repro.core.jxta_engine import JxtaTPSEngine, TPSConfig
from repro.core.local_engine import LocalTPSEngine
from repro.core.sharded_engine import (
    SHARDED_BINDING_PARAMS,
    SHARED_BUSES,
    ShardedLocalBus,
    request_bus,
)
from repro.core.type_registry import Criteria
from repro.jxta.ids import PeerID
from repro.jxta.message import Message
from repro.jxta.peer import Peer
from repro.net.membership import MembershipConfig, MembershipMonitor
from repro.serialization.object_codec import ObjectCodec

#: Message element carrying the publishing bus's id (same-bus echo filter).
TPS_ORIGIN_ELEMENT = "TPSOrigin"

#: One failure detector per peer (a peer models a process; its composite
#: interfaces share one view of who is alive).  Held weakly so caching a
#: monitor never pins a peer -- and through it a simulated network.
_MONITORS: "weakref.WeakKeyDictionary[Peer, MembershipMonitor]" = (
    weakref.WeakKeyDictionary()
)
_MONITORS_LOCK = threading.Lock()

#: The membership timing parameter names (floats, virtual seconds).
_MEMBERSHIP_TIMING_PARAMS = (
    "heartbeat_interval",
    "suspect_timeout",
    "confirm_timeout",
)


def _monitor_for(peer: Peer, timing: Dict[str, float]) -> MembershipMonitor:
    """The peer's shared failure detector, created on first request.

    First configuration wins: the monitor is one per peer, so a second
    engine asking for different timing silently reuses the existing one
    (the alternative -- two detectors with two clocks disagreeing about the
    same peers -- is strictly worse).
    """
    with _MONITORS_LOCK:
        monitor = _MONITORS.get(peer)
        if monitor is None:
            try:
                monitor = MembershipMonitor(peer, MembershipConfig(**timing))
            except ValueError as error:
                raise PSException(
                    f"invalid membership timing for the SHARDED+JXTA binding: {error}"
                ) from error
            _MONITORS[peer] = monitor
        return monitor


#: The composite's parameter schema: everything SHARDED takes, plus the
#: membership failure-detector knobs (which need a peer, hence live here).
COMPOSITE_BINDING_PARAMS = SHARDED_BINDING_PARAMS + (
    BindingParam(
        "membership",
        (bool,),
        "run a heartbeat failure detector on this peer",
        default=False,
    ),
    BindingParam(
        "heartbeat_interval",
        (int, float),
        "virtual seconds between heartbeats (membership=True)",
        positive,
        default=MembershipConfig.heartbeat_interval,
    ),
    BindingParam(
        "suspect_timeout",
        (int, float),
        "silence before a peer turns SUSPECT (membership=True)",
        positive,
        default=MembershipConfig.suspect_timeout,
    ),
    BindingParam(
        "confirm_timeout",
        (int, float),
        "further silence before SUSPECT is confirmed DEAD (membership=True)",
        positive,
        default=MembershipConfig.confirm_timeout,
    ),
)


class _CompositeWireLeg(JxtaTPSEngine):
    """The composite's JXTA leg: tags outgoing messages, drops own echoes."""

    def __init__(self, origin: str, *args: Any, **kwargs: Any) -> None:
        self._origin = origin
        super().__init__(*args, **kwargs)

    def _decorate_message(self, message: Message) -> None:
        message.add(TPS_ORIGIN_ELEMENT, self._origin)

    def _on_wire_message(self, message: Message, source: PeerID) -> None:
        if message.get_text(TPS_ORIGIN_ELEMENT) == self._origin:
            # Published through our own local bus: the sharded leg already
            # delivered it to every same-bus subscriber.
            self.peer.metrics.counter("tps_same_bus_filtered").increment()
            return
        super()._on_wire_message(message, source)


class ShardedJxtaTPSEngine(LocalTPSEngine):
    """The ``"SHARDED+JXTA"`` composite TPS interface.

    Subclasses :class:`LocalTPSEngine` (the sharded leg *is* a local engine
    on a :class:`ShardedLocalBus`) and adds a wire leg plus the bridge that
    feeds remote events into this interface's own subscriber manager.  The
    bridge is lazy: it subscribes to the wire leg when this interface gains
    its first subscription and cancels when the last one goes, so an
    unsubscribed composite -- like every other binding -- receives nothing
    ("after this call, no event is received anymore").  ``**history`` are
    the local leg's ``history``/``history_size``/``history_path`` options
    (the wire leg takes its own from ``config``).
    """

    def __init__(
        self,
        event_type: type,
        peer: Peer,
        *,
        bus: ShardedLocalBus,
        criteria: Optional[Criteria] = None,
        codec: Optional[ObjectCodec] = None,
        config: Optional[TPSConfig] = None,
        membership: Optional[MembershipMonitor] = None,
        **history: Any,
    ) -> None:
        super().__init__(event_type, bus=bus, criteria=criteria, codec=codec, **history)
        #: Serialises bridge open/close against subscription churn.
        self._bridge_lock = threading.Lock()
        self._bridge_handle: Optional[Any] = None
        self._membership = membership
        wire_config = config or TPSConfig()
        if wire_config.history == "log" and wire_config.history_path:
            # Both legs may record durable history: keep the wire leg's
            # segment files in their own subdirectory so the composite's
            # local stores and the wire stores never share a file.
            wire_config = dataclasses.replace(
                wire_config,
                history_path=os.path.join(wire_config.history_path, "wire"),
            )
        try:
            self._wire = _CompositeWireLeg(
                bus.bus_id,
                event_type,
                peer,
                criteria=criteria,
                codec=codec,
                config=wire_config,
            )
        except BaseException:
            # The local leg already attached to the bus; don't leak it.
            self.bus.detach(self)
            raise
        if membership is not None:
            membership.add_listener(self._on_membership_event)
        # Crash containment covers *this* interface's subscribers (the wire
        # leg's bridge subscription must never be quarantined -- it is the
        # composite's only remote inlet), so the breaker policy is installed
        # on the composite's own manager, on the wire leg's virtual clock.
        wire_config = self._wire.config
        if wire_config.breaker_threshold > 0:
            self.subscriber_manager.set_breaker_policy(
                wire_config.breaker_threshold,
                wire_config.breaker_cooldown,
                clock=lambda: self._wire.peer.now,
                listener=self._wire._on_breaker_transition,
            )

    # ------------------------------------------------------------ properties

    @property
    def wire(self) -> JxtaTPSEngine:
        """The JXTA wire leg (read-only introspection)."""
        return self._wire

    @property
    def ready(self) -> bool:
        """Whether the wire leg can publish (an advertisement is attached)."""
        return self._wire.ready

    @property
    def attachment_count(self) -> int:
        """Number of advertisements the wire leg is attached to."""
        return self._wire.attachment_count

    @property
    def membership(self) -> Optional[MembershipMonitor]:
        """The peer's shared failure detector (None when membership is off)."""
        return self._membership

    # ------------------------------------------------------------ membership

    def _sync_membership_watches(self) -> None:
        """Put every currently resolved wire target under the detector's watch.

        Runs on each publish (the moment resolved peers matter); watching is
        idempotent, and the monitor's mutual discovery spreads it to
        subscribe-only peers that never publish themselves.
        """
        monitor = self._membership
        if monitor is None:
            return
        for attachment in self._wire.manager.attachments:
            output_pipe = attachment.output_pipe
            if output_pipe is None:
                continue
            for peer_id in output_pipe.pipe.resolved_peers():
                monitor.watch(peer_id)

    def _on_membership_event(self, event: str, urn: str) -> None:
        """Close the wire leg towards a peer the detector confirmed dead.

        Pending reliable deliveries to the departed peer are failed at once
        (each surfaces through ``delivery_failure_handler`` exactly like a
        retry-exhausted delivery) and the peer leaves the pipe binding
        tables so new publishes stop targeting it.  The monitor keeps
        probing the peer; on ``recover`` the next binding resolve re-records
        the peer as a target, and this engine broadcasts one catch-up
        request (see :meth:`JxtaTPSEngine.request_history
        <repro.core.jxta_engine.JxtaTPSEngine.request_history>`) so events
        published while the peer was convicted are replayed exactly-once.
        """
        if event == "recover":
            # A peer the detector convicted came back: ask the group to
            # replay whatever retained sent history we missed while the
            # wire towards it was closed (receivers' duplicate filtering
            # keeps the catch-up exactly-once).
            try:
                self._wire.request_history()
            except PSException:
                # Not attached/resolved yet; the recovered peer's own
                # publishes will still reach us through normal delivery.
                pass
            return
        if event != "confirm":
            return
        for attachment in self._wire.manager.attachments:
            wire_service = attachment.finder.wire_service
            if wire_service is None:
                continue
            wire_service.fail_target(urn)
            wire_service.group.pipe_service.forget_peer(urn)

    # ------------------------------------------------------------ publishing

    def publish(self, event: Any) -> PublishReceipt:
        """Publish locally through the sharded bus *and* remotely over JXTA.

        The placement key is resolved first, so a content-keyed event
        missing its declared attribute fails before anything is sent; the
        wire send runs next (it can refuse with ``NotInitializedError``
        before the network settles), and local shard delivery last -- via
        the bus's own epoch-registered publish path, so a concurrent
        ``add_shard``/``remove_shard`` either waits this delivery out or
        this delivery routes through one consistent placement snapshot
        (never a stale pre-computed shard index).  The receipt is the wire
        receipt with the local delivery prepended: one extra "pipe" (the
        bus) and its delivered-count as the first wire receipt entry.
        """
        copy = self._begin_publish(event)
        self.bus.placement_key(self.registry.advertised_name, copy)
        self._sync_membership_watches()
        wire_receipt = self._wire.publish(event)
        local_receipt = self._finish_publish(event, self.bus.publish(self, copy))
        return PublishReceipt(
            cpu_time=wire_receipt.cpu_time,
            completion_time=wire_receipt.completion_time,
            pipes=wire_receipt.pipes + local_receipt.pipes,
            wire_receipts=local_receipt.wire_receipts + wire_receipt.wire_receipts,
        )

    def publish_many(self, events: Iterable[Any]) -> List[PublishReceipt]:
        """Publish a batch; the wire leg is single-threaded, so loop.

        Validates the whole batch up front (batch atomicity matches the
        other bindings), then publishes serially on the calling thread:
        wire sends must stay on the owning thread, and one interface's
        local batch is one hierarchy whose per-key order a serial loop
        trivially preserves.
        """
        self._check_open()
        batch = list(events)
        for event in batch:
            self.registry.check_publishable(event)
        return [self.publish(event) for event in batch]

    # ----------------------------------------------------------- subscribing

    def _sync_bridge(self) -> None:
        """Open/close the wire bridge to match having subscriptions at all.

        The handle swap is atomic under ``_bridge_lock`` (exactly-once under
        concurrent churn); the wire calls run outside the composite's
        dispatch path, on the caller's thread -- which the wire leg's
        affinity guard requires to be the owning thread.
        """
        with self._bridge_lock:
            if self.subscriber_manager.empty:
                handle, self._bridge_handle = self._bridge_handle, None
                if handle is None:
                    return
                action = "close"
            else:
                if self._bridge_handle is not None:
                    return
                action = "open"
                handle = None
        if action == "close":
            handle.cancel()
        else:
            opened = self._wire.subscribe(self._deliver_remote)
            with self._bridge_lock:
                if self._bridge_handle is None and not self.subscriber_manager.empty:
                    self._bridge_handle = opened
                    opened = None
            if opened is not None:
                # Lost the race (another open won, or everyone unsubscribed
                # meanwhile): retire the redundant wire subscription.
                opened.cancel()

    def _deliver_remote(self, event: Any) -> None:
        """Bridge callback: a remote event reaches this interface's subscribers.

        The wire leg has already duplicate-filtered, type-checked and
        criteria-filtered the event; dispatch through the subscriber
        manager's snapshot applies the pushed-down predicates and routes
        callback errors to the paired handlers, exactly as local delivery
        does.
        """
        self._received.append(event)
        self.subscriber_manager.dispatch(event)

    # Subscription mutations may need to open or close the wire bridge, and
    # the wire leg is single-threaded: its thread affinity is this engine's,
    # checked *before* touching any state, so a cross-thread call fails
    # atomically (clear PSException, nothing half-registered, no bridge
    # handle burned) instead of mutating the local leg and then raising from
    # the wire leg.

    def _check_affinity(self, operation: str) -> None:
        self._wire._check_affinity(operation)

    def _add_subscription(self, subscription: Subscription) -> None:
        super()._add_subscription(subscription)
        self._sync_bridge()

    def _remove_subscriptions(
        self, callback: Optional[Any] = None, handler: Optional[Any] = None
    ) -> int:
        removed = super()._remove_subscriptions(callback, handler)
        self._sync_bridge()
        return removed

    def _discard_subscription(self, subscription: Subscription) -> int:
        removed = super()._discard_subscription(subscription)
        self._sync_bridge()
        return removed

    # ----------------------------------------------------------------- close

    def _do_close(self) -> None:
        """Tear down both legs: local detach first, then the wire engine.

        The shared teardown checks the (wire leg's) thread affinity up front,
        so a cross-thread close fails before the irreversible local detach
        -- ``close()``'s revert-to-open contract then leaves a genuinely
        still-open interface.
        """
        super()._do_close()
        with self._bridge_lock:
            self._bridge_handle = None
        if self._membership is not None:
            # The monitor is the peer's, not this engine's: stop feeding this
            # engine's departed-peer handler but leave the detector running
            # for the peer's other composite interfaces.
            self._membership.remove_listener(self._on_membership_event)
        self._wire.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedJxtaTPSEngine(type={self.registry.interface_name}, "
            f"peer={self._wire.peer.name!r}, shards={len(self.bus.shards)}, "
            f"attachments={self.attachment_count})"
        )


def _sharded_jxta_binding(request: BindingRequest) -> ShardedJxtaTPSEngine:
    """The ``"SHARDED+JXTA"`` binding factory.

    Needs a peer (for the wire leg).  The local leg's bus comes from the
    engine's ``local_bus`` when given (must be a :class:`ShardedLocalBus`),
    else from the binding parameters -- cached per (peer, parameter set), so
    one peer's same-parameter interfaces share a bus and different peers
    never do (a peer models a process).
    """
    if request.peer is None:
        raise PSException(
            "the SHARDED+JXTA binding needs a peer for its wire leg: "
            "construct the engine with TPSEngine(EventType, peer=some_peer)"
        )
    bus = request_bus(request, scope=request.peer)
    timing = {
        name: request.param(name)
        for name in _MEMBERSHIP_TIMING_PARAMS
        if name in request.params
    }
    monitor = None
    if request.param("membership"):
        monitor = _monitor_for(request.peer, timing)
    elif timing:
        raise PSException(
            f"membership timing parameters {sorted(timing)} have no effect "
            "without membership=True; enable the failure detector or drop them"
        )
    history = history_kwargs(request)
    config = request.config
    if any(name in request.params for name in history):
        # History binding params configure *both* legs: the constructor
        # keeps the wire leg's durable files apart (a "wire/" subdirectory).
        config = dataclasses.replace(
            config or TPSConfig(),
            **{**history, "history_path": history["history_path"] or ""},
        )
    return ShardedJxtaTPSEngine(
        request.event_type,
        request.peer,
        bus=bus,
        criteria=request.criteria,
        codec=request.codec,
        config=config,
        membership=monitor,
        **history,
    )


register_binding(
    "SHARDED+JXTA",
    _sharded_jxta_binding,
    capabilities=(
        "in-process",
        "sharded",
        "elastic",
        "distributed",
        "simulated-network",
        "composite",
        "membership",
    ),
    params=COMPOSITE_BINDING_PARAMS,
    replace=True,
    # The composite resolves its per-peer (scoped) buses through the same
    # registry-built cache as SHARDED; unregistering it must drop that cache
    # for the same stale-spec reason (see SharedBusCache.reset).
    on_unregister=SHARED_BUSES.reset,
)


__all__ = [
    "COMPOSITE_BINDING_PARAMS",
    "ShardedJxtaTPSEngine",
    "TPS_ORIGIN_ELEMENT",
]
