"""The ``"SHARDED+JXTA"`` composite binding: sharded bus + JXTA wire.

The paper's layering claim (Section 4) is that TPS is a thin typed layer
over *any* substrate.  This module takes it one step further: a binding
whose substrate is two substrates at once --

* an in-process :class:`~repro.core.sharded_engine.ShardedLocalBus` for
  intra-peer traffic (synchronous, lock-free snapshot delivery, optionally
  content-keyed so one hot hierarchy spreads across shards), and
* the simulated JXTA wire, which fans every publication out to remote peers.

It is still **one engine per interface** (Section 3.4, Figure 10):
:class:`ShardedJxtaTPSEngine` is a
:class:`~repro.core.jxta_engine.JxtaTPSEngine` that is *also* attached to
its bus.  There is no second engine and no bridge between two -- the bus's
route rows and the wire reader feed the same Interface Repository
(``subscriber_manager``) and the same ``objectsReceived`` store, and a
publish is recorded once in the one ``objectsSent`` store (by the wire
publish, with the message id catch-up replay needs).

The two inlets complement each other exactly: the JXTA wire never delivers
to the publishing peer itself (``resolved_peers`` excludes self), so
same-peer interfaces would be deaf to each other over pure JXTA; the local
bus covers precisely that gap.  To keep delivery exactly-once even when an
application shares one :class:`ShardedLocalBus` across peers, every outgoing
wire message is tagged with the bus's process-unique ``bus_id`` (via the
:meth:`~repro.core.jxta_engine.JxtaTPSEngine._decorate_message` hook) and
incoming messages carrying the engine's own tag are dropped: whatever the
local bus already delivered never arrives twice.

Threading model: bus delivery *into* this engine is fully thread-safe
(route rows and handler snapshots are immutable, the history append is
lock-free), exactly as for a plain ``"SHARDED"`` interface.  Everything the
engine *does* -- publish, subscribe/unsubscribe, close -- inherits the JXTA
engine's single-thread affinity guard, checked before any state mutates, so
cross-thread misuse surfaces as a clear :class:`PSException` rather than
corrupted network state or a half-registered subscription.

Binding parameters: the full ``"SHARDED"`` schema (``shards``,
``partition``, ``content_key``, the history parameters) plus the
composite-only ``membership`` switch.
Registry-built buses are scoped **per peer** -- each simulated peer models
one process, so its composite interfaces share a bus with each other but
never with another peer's; remote traffic goes over the wire, exactly as it
would between real processes.

Membership: with ``membership=True`` the peer runs one shared
:class:`~repro.net.membership.MembershipMonitor`, whose timing is the
constants of :mod:`repro.net.membership`.  Each publish syncs the engine's
resolved peers into the monitor's watch list, and the monitor's
mutual-discovery heartbeats spread the watching to subscribe-only peers from
there.  When the detector *confirms* a peer dead, the composite
closes the wire towards that peer: every reliable delivery still pending
towards it is failed immediately through :meth:`WireService.fail_target`
(reported via the PR 6 ``delivery_failure_handler`` path instead of retrying
the full backoff ladder) and the peer is dropped from the pipe binding
tables so new publishes stop targeting it.  The detector keeps *probing*
the dead peer, so a rejoin flips it back to ``alive`` and the next resolve
re-records it.  Enable membership on every participating peer -- heartbeats
are mutual, and a peer that never heartbeats back is (correctly) convicted.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Iterable, List, Optional

from repro.core.bindings import BindingParam, BindingRequest, register_binding
from repro.core.exceptions import PSException
from repro.core.interface import PublishReceipt
from repro.core.jxta_engine import JxtaTPSEngine, resolve_jxta_config
from repro.core.local_engine import LocalBus
from repro.core.sharded_engine import (
    SHARDED_BINDING_PARAMS,
    SHARED_BUSES,
    ShardedLocalBus,
    request_bus,
)
from repro.jxta.ids import PeerID
from repro.jxta.message import Message
from repro.jxta.peer import Peer
from repro.net.membership import MembershipMonitor

#: Message element carrying the publishing bus's id (same-bus echo filter).
TPS_ORIGIN_ELEMENT = "TPSOrigin"

#: One failure detector per peer (a peer models a process; its composite
#: interfaces share one view of who is alive).  Held weakly so caching a
#: monitor never pins a peer -- and through it a simulated network.
_MONITORS: "weakref.WeakKeyDictionary[Peer, MembershipMonitor]" = (
    weakref.WeakKeyDictionary()
)
_MONITORS_LOCK = threading.Lock()


def _monitor_for(peer: Peer) -> MembershipMonitor:
    """The peer's shared failure detector, created on first request."""
    with _MONITORS_LOCK:
        monitor = _MONITORS.get(peer)
        if monitor is None:
            monitor = _MONITORS[peer] = MembershipMonitor(peer)
        return monitor


#: The composite's parameter schema: everything SHARDED takes, plus the
#: membership switch (a failure detector needs a peer, hence it lives here).
COMPOSITE_BINDING_PARAMS = SHARDED_BINDING_PARAMS + (
    BindingParam(
        "membership",
        (bool,),
        "run a heartbeat failure detector on this peer",
        default=False,
    ),
)


class ShardedJxtaTPSEngine(JxtaTPSEngine):
    """The ``"SHARDED+JXTA"`` composite TPS interface: one engine, two inlets.

    A :class:`JxtaTPSEngine` that is also attached to a
    :class:`ShardedLocalBus`: same-peer events arrive through the bus's
    route rows, remote ones through the wire readers, and both land in this
    engine's one subscriber manager and one received store.  Like every
    other binding, an unsubscribed composite receives nothing -- the bus
    skips engines without handlers and the wire readers close with the last
    subscription.  ``**options`` are the JXTA engine's (``criteria``,
    ``codec``, ``config``).
    """

    def __init__(
        self,
        event_type: type,
        peer: Peer,
        *,
        bus: ShardedLocalBus,
        membership: Optional[MembershipMonitor] = None,
        **options: Any,
    ) -> None:
        self.bus = bus
        #: The peer's shared failure detector (None when membership is off).
        self.membership = membership
        super().__init__(event_type, peer, **options)
        if membership is not None:
            membership.add_listener(self._on_membership_event)
        # Last, so a failing constructor leaves nothing attached to the bus.
        bus.attach(self)

    # --------------------------------------------------------- same-bus echo

    def _decorate_message(self, message: Message) -> None:
        message.add(TPS_ORIGIN_ELEMENT, self.bus.bus_id)

    def _on_wire_message(self, message: Message, source: PeerID) -> None:
        if message.get_text(TPS_ORIGIN_ELEMENT) == self.bus.bus_id:
            # Published through our own local bus, which already delivered
            # it to every same-bus subscriber.
            self.peer.metrics.counter("tps_same_bus_filtered").increment()
            return
        super()._on_wire_message(message, source)

    # ------------------------------------------------------------ membership

    def _sync_membership_watches(self) -> None:
        """Put every currently resolved wire target under the detector's watch.

        Runs on each publish (the moment resolved peers matter); watching is
        idempotent, and the monitor's mutual discovery spreads it to
        subscribe-only peers that never publish themselves.
        """
        monitor = self.membership
        if monitor is None:
            return
        for attachment in self.manager.attachments:
            for peer_id in attachment.output_pipe.resolved_peers():
                monitor.watch(peer_id)

    def _on_membership_event(self, event: str, urn: str) -> None:
        """Close the wire towards a peer the detector confirmed dead.

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
                self.request_history()
            except PSException:
                # Not attached/resolved yet; the recovered peer's own
                # publishes will still reach us through normal delivery.
                pass
            return
        if event != "confirm":
            return
        for attachment in self.manager.attachments:
            wire_service = attachment.wire_service
            wire_service.fail_target(urn)
            wire_service.group.pipe_service.forget_peer(urn)

    # ------------------------------------------------------------ publishing

    def publish(self, event: Any) -> PublishReceipt:
        """Publish locally through the sharded bus *and* remotely over JXTA.

        The copy and its placement key are resolved first, so a
        content-keyed event missing its declared attribute fails before
        anything is sent; the wire send runs next (it can refuse with
        ``NotInitializedError`` before the network settles, and it records
        the event as sent), and local delivery last, through the bus's route
        table without keying the event again -- one table whatever the
        shard count, so a concurrent ``add_shard``/``remove_shard`` changes
        nothing about who receives it.  The receipt is the wire receipt with the local
        delivery prepended: one extra "pipe" (the bus) and its
        delivered-count as the first wire receipt entry.
        """
        return self._publish_copy(event, self._keyed_copy(event))

    def _keyed_copy(self, event: Any) -> Any:
        """The bus-side copy of ``event``, refused unless the bus can key it."""
        copy = self._begin_publish(event)
        self.bus.placement_key(self.registry.advertised_name, copy)
        return copy

    def _publish_copy(self, event: Any, copy: Any) -> PublishReceipt:
        """Send ``event`` over the wire, then deliver ``copy`` through the bus."""
        self._sync_membership_watches()
        receipt = super().publish(event)
        receipt.pipes += 1
        # _keyed_copy already refused an unkeyable event: deliver through the
        # one route table without the sharded bus keying it a second time.
        receipt.wire_receipts.insert(0, LocalBus.publish(self.bus, self, copy))
        return receipt

    def publish_many(self, events: Iterable[Any]) -> List[PublishReceipt]:
        """Publish a batch; the wire is single-threaded, so loop.

        Every event's copy and placement key are resolved before the first
        publish (batch atomicity matches the other bindings: a
        non-publishable or unkeyable event fails the batch before anything
        is delivered or sent), then the batch publishes serially on the
        calling thread: wire sends must stay on the owning thread, and one
        interface's local batch is one hierarchy whose per-key order a
        serial loop trivially preserves.
        """
        self._check_open()
        batch = list(events)
        copies = [self._keyed_copy(event) for event in batch]
        return [self._publish_copy(event, copy) for event, copy in zip(batch, copies)]

    # ----------------------------------------------------------------- close

    def _do_close(self) -> None:
        """Leave the bus and the detector's listeners, then the wire teardown.

        The thread affinity is checked up front, so a cross-thread close
        fails before the bus detach -- ``close()``'s revert-to-open contract
        then leaves a genuinely still-open interface.
        """
        self._check_affinity("close")
        self.bus.detach(self)
        if self.membership is not None:
            # The monitor is the peer's, not this engine's: stop feeding this
            # engine's departed-peer handler but leave the detector running
            # for the peer's other composite interfaces.
            self.membership.remove_listener(self._on_membership_event)
        super()._do_close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedJxtaTPSEngine(type={self.registry.interface_name}, "
            f"peer={self.peer.name!r}, shards={len(self.bus.shards)}, "
            f"attachments={self.attachment_count})"
        )


def _sharded_jxta_binding(request: BindingRequest) -> ShardedJxtaTPSEngine:
    """The ``"SHARDED+JXTA"`` binding factory.

    Needs a peer (for the wire).  The bus comes from the engine's
    ``local_bus`` when given (must be a :class:`ShardedLocalBus`), else from
    the binding parameters -- cached per (peer, parameter set), so one
    peer's same-parameter interfaces share a bus and different peers never
    do (a peer models a process).  The history parameters override the
    engine-level :class:`~repro.core.jxta_engine.TPSConfig`'s.
    """
    if request.peer is None:
        raise PSException(
            "the SHARDED+JXTA binding needs a peer for its wire: "
            "construct the engine with TPSEngine(EventType, peer=some_peer)"
        )
    return ShardedJxtaTPSEngine(
        request.event_type,
        request.peer,
        bus=request_bus(request, scope=request.peer),
        criteria=request.criteria,
        codec=request.codec,
        config=resolve_jxta_config(request),
        membership=_monitor_for(request.peer) if request.param("membership") else None,
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
