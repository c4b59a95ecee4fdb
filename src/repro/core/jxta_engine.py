"""The TPS engine over JXTA: ``JxtaTPSEngine`` and its advertisement manager.

This module assembles the four building blocks of the paper's architecture
(Figure 10) into the concrete implementation of the
:class:`~repro.core.interface.TPSInterface`:

* **TPSEngine** (the block) -- :class:`JxtaTPSEngine` collects publications
  and subscriptions and dispatches them to the advertisements manager;
* **Advs** -- :class:`TPSAdvertisementsManager`, which owns a
  :class:`~repro.core.advertisements.TPSAdvertisementsCreator` and a
  :class:`~repro.core.advertisements.TPSAdvertisementsFinder`;
* **IR** (interface repository) --
  :class:`~repro.core.subscriber.TPSSubscriberManager`;
* **Connections** -- one
  :class:`~repro.core.wire_finder.TPSWireServiceFinder` per attached
  advertisement, holding that advertisement's wire output pipe and, while
  somebody is subscribed, its wire input pipe; the reader on each input
  pipe is the engine's own :meth:`JxtaTPSEngine._on_wire_message`.

The engine provides the three functional guarantees the paper lists for the
SR layers (Section 4.4, footnote 1): (1) it minimises the number of
advertisements for a type by searching before creating, (2) it manages
multiple advertisements for the same type simultaneously (attaching pipes to
each), and (3) it filters duplicate messages (which arise precisely when the
same event is published on several advertisements) by an application-level
message id.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.advertisements import (
    PS_PREFIX,
    TPSAdvertisementsCreator,
    TPSAdvertisementsFinder,
)
from repro.core.bindings import BindingParam, BindingRequest, not_bool, register_binding
from repro.core.exceptions import DeliveryFailedError, NotInitializedError, PSException
from repro.core.history import DEFAULT_HISTORY_SIZE
from repro.core.interface import PublishReceipt, TPSInterface
from repro.core.type_registry import Criteria, type_name
from repro.core.wire_finder import TPSWireServiceFinder
from repro.jxta.advertisement import PeerGroupAdvertisement
from repro.jxta.ids import BoundedIdSet, PeerID
from repro.jxta.message import Message
from repro.jxta.peer import Peer
from repro.jxta.wire import DeliveryFailure, WireOutputPipe
from repro.serialization.object_codec import ObjectCodec

#: How many recently seen application-level message ids the duplicate filter
#: remembers (functionality (3) of the paper's Section 4.4 footnote).
#: Duplicates arise when one event reaches the engine through several
#: attached advertisements, i.e. within a short window, so a bounded LRU
#: window filters them all at constant memory.  The wire layer's reliable
#: channels need no such filter: their sequence window drops duplicates.
DUPLICATE_WINDOW = 8192

#: Message element carrying the serialised typed event.
TPS_EVENT_ELEMENT = "TPSEvent"
#: Message element carrying the event's concrete type name.
TPS_TYPE_ELEMENT = "TPSType"
#: Message element carrying the application-level message id (duplicate filtering).
TPS_MSG_ID_ELEMENT = "TPSMsgId"
#: Message element carrying the publisher's sent-history offset for the event,
#: letting receivers track a per-source high-water mark for catch-up requests.
TPS_SENT_OFFSET_ELEMENT = "TPSSentOffset"
#: Message element marking a history catch-up request (see
#: :meth:`JxtaTPSEngine.request_history`); its text payload is the
#: requester's per-source offset map, one ``urn offset`` pair per line.
TPS_HISTORY_REQUEST_ELEMENT = "TPSHistoryRequest"


@dataclass
class TPSConfig:
    """Tunable behaviour of a :class:`JxtaTPSEngine`.

    Attributes
    ----------
    search_timeout:
        How long (virtual seconds) to search for an existing advertisement of
        the type before creating our own ("If the application does not find
        such advertisement in a specific amount of time, it creates its own
        one" -- paper, Section 4.1).
    create_if_missing:
        Whether to create an advertisement at all when none is found (pure
        subscribers may prefer to wait instead).
    message_padding:
        When positive, pad published messages to this many bytes (the paper's
        measurements use 1910-byte messages).
    reliable_delivery:
        Whether the engine's output pipes run the wire layer's at-least-once
        protocol (per-message acks, retries with capped exponential backoff,
        a per-source sequence window on the receiver).  Off by default: the
        clean-network cost profile of the paper's measurements stays
        untouched unless asked for.  The retry schedule and the give-up
        point are constants of :mod:`repro.jxta.wire`; a delivery that
        exhausts them is routed to
        :attr:`JxtaTPSEngine.delivery_failure_handler` (or every
        subscription's exception handler), never silently dropped.
    history:
        Which :class:`~repro.core.history.HistoryStore` backs
        ``objects_received``/``objects_sent``: ``"ring"`` (bounded
        in-memory, the paper-faithful default) or ``"log"`` (append-only
        durable files under ``history_path``; a restarted engine recovers
        its history, re-seeds the duplicate filter from it and can catch up
        on missed events via :meth:`JxtaTPSEngine.request_history`).
    history_size:
        Retention bound of the ring store, events per direction; zero or
        negative means unbounded.
    history_path:
        Directory for the ``"log"`` store's files (required with
        ``history="log"``).
    serve_history:
        Keep a wire reader open even with no subscriptions, so this engine
        answers peers' history catch-up requests (and retains delivered
        events) as a durable endpoint.  Off by default: the paper's "no
        event is received anymore" unsubscribe semantics stay untouched.
    """

    search_timeout: float = 3.0
    create_if_missing: bool = True
    message_padding: int = 0
    reliable_delivery: bool = False
    history: str = "ring"
    history_size: int = DEFAULT_HISTORY_SIZE
    history_path: str = ""
    serve_history: bool = False


class TPSAdvertisementsManager:
    """Finds/creates the type's advertisements and manages the attachments.

    An attachment is the :class:`TPSWireServiceFinder` of one advertisement;
    it joins ``attachments`` only once its output pipe is open, so every
    attachment can publish.
    """

    def __init__(self, engine: "JxtaTPSEngine") -> None:
        self.engine = engine
        group = engine.peer.world_group
        self.creator = TPSAdvertisementsCreator(group)
        self.finder = TPSAdvertisementsFinder(
            group, PS_PREFIX + engine.registry.advertised_name
        )
        self.attachments: List[TPSWireServiceFinder] = []
        self.created_own = False
        self._started = False

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Start the finder and arm the create-if-missing timeout."""
        if self._started:
            return
        self._started = True
        self.finder.add_advertisements_listener(self.handle_new_advertisements)
        self.finder.start()
        if self.engine.config.create_if_missing:
            self.engine.peer.simulator.schedule(
                self.engine.config.search_timeout,
                self._create_if_needed,
                label=f"tps-create:{self.engine.registry.advertised_name}",
            )

    def stop(self) -> None:
        """Stop searching and close every pipe."""
        self.finder.stop()
        self.close_readers()
        for attachment in self.attachments:
            attachment.output_pipe.close()

    def _create_if_needed(self) -> None:
        if self.attachments or not self.engine.config.create_if_missing:
            return
        advertisement = self.creator.create_peer_group_advertisement(
            self.engine.registry.advertised_name
        )
        self.creator.publish_advertisement(advertisement)
        self.created_own = True
        self.handle_new_advertisements(advertisement)

    # ---------------------------------------------------------- attachments

    def handle_new_advertisements(self, advertisement: PeerGroupAdvertisement) -> None:
        """Attach to a newly discovered (or newly created) advertisement."""
        criteria = self.engine.criteria
        if criteria is not None and not criteria.matches_advertisement(advertisement):
            return
        gid = advertisement.get_gid()
        if any(a.pg_advertisement.get_gid() == gid for a in self.attachments):
            return
        attachment = TPSWireServiceFinder(self.engine.peer.world_group, advertisement)
        attachment.lookup_wire_service()
        output_pipe = attachment.create_output_pipe(
            extra_send_cost=self.engine.send_overhead,
            reliable=self.engine.config.reliable_delivery,
        )
        if self.engine.config.reliable_delivery:
            output_pipe.add_failure_listener(self.engine._on_delivery_failure)
        self.attachments.append(attachment)
        # serve_history keeps a reader open even with no subscriptions, so a
        # publisher-only engine can still hear (and answer) catch-up
        # requests from returning peers.
        if not self.engine.subscriber_manager.empty or self.engine.config.serve_history:
            self._open_reader(attachment)
        self.engine.peer.metrics.counter("tps_attachments").increment()
        if self.engine._needs_catchup:
            # Reopened with durable history: ask the group once, after the
            # pipes have had a chance to resolve, for what we missed.
            self.engine._needs_catchup = False
            self.engine.peer.simulator.schedule(
                self.engine.config.search_timeout,
                self.engine._auto_catchup,
                label=f"tps-catchup:{self.engine.registry.advertised_name}",
            )

    def ensure_readers(self) -> None:
        """Open an input pipe (reader) on every attachment that lacks one."""
        for attachment in self.attachments:
            if attachment.input_pipe is None:
                self._open_reader(attachment)

    def close_readers(self) -> None:
        """Close every reader (called when the last subscription is removed)."""
        for attachment in self.attachments:
            if attachment.input_pipe is not None:
                attachment.input_pipe.close()
                attachment.input_pipe = None

    def _open_reader(self, attachment: TPSWireServiceFinder) -> None:
        attachment.create_input_pipe(
            self.engine._on_wire_message, processing_cost=self.engine.receive_overhead
        )

    def output_pipes(self, operation: str) -> List[WireOutputPipe]:
        """Every attachment's output pipe, refusing ``operation`` before the first."""
        if not self.attachments:
            raise NotInitializedError(
                f"the TPS interface for {self.engine.registry.interface_name} has no "
                f"attached advertisement yet; run the network (settle) before {operation}"
            )
        return [attachment.output_pipe for attachment in self.attachments]


class JxtaTPSEngine(TPSInterface):
    """The TPS interface implemented over the JXTA substrate.

    Thread affinity: the engine is **single-threaded by design** -- it runs
    on (and mutates) the simulated network's event loop, whose pipes,
    finders and queues have no locks.  The engine records the thread that
    created it and every operation that touches the simulated network
    (``publish``, the subscribe/unsubscribe mutations, wire receive,
    teardown) raises :class:`PSException` when called from any other
    thread, instead of silently corrupting network state.  History queries
    (``objects_received``/``objects_sent``) stay callable from anywhere.  A
    threaded wire path would need the PR 4 snapshot treatment; until then
    the guard makes the constraint explicit.
    """

    def __init__(
        self,
        event_type: type,
        peer: Peer,
        *,
        criteria: Optional[Criteria] = None,
        codec: Optional[ObjectCodec] = None,
        config: Optional[TPSConfig] = None,
    ) -> None:
        #: The simulated-network thread this engine belongs to (see the
        #: class docstring's thread-affinity contract).
        self._owner_ident = threading.get_ident()
        self.peer = peer
        self.config = config or TPSConfig()
        super().__init__(
            event_type,
            criteria=criteria,
            codec=codec,
            history=self.config.history,
            history_size=self.config.history_size,
            history_path=self.config.history_path or None,
        )
        self._seen_message_ids = BoundedIdSet(DUPLICATE_WINDOW)
        #: Per-source high-water marks: origin peer URN -> highest sent-store
        #: offset observed from that origin (drives catch-up requests).
        self._source_offsets: Dict[str, int] = {}
        #: Set when a durable store reopened with prior records (a restart):
        #: the advertisements manager schedules one automatic catch-up
        #: request once the engine is attached.
        self._needs_catchup = self._recover_wire_state()
        #: Optional application hook for terminal delivery failures.  Called
        #: with a :class:`DeliveryFailedError`; when unset, failures are
        #: routed to every subscription's exception handler instead.
        self.delivery_failure_handler: Optional[Callable[[DeliveryFailedError], None]] = None
        cost_model = peer.cost_model
        #: The SR application-layer work (duplicate ids, multi-advertisement
        #: bookkeeping) plus the TPS-specific work (typed serialisation,
        #: registry lookups) charged per published message.
        self.send_overhead = cost_model.app_layer_send + cost_model.tps_layer_send
        #: The receive-side equivalent, charged per delivered message.
        self.receive_overhead = cost_model.app_layer_receive + cost_model.tps_layer_receive
        self.manager = TPSAdvertisementsManager(self)
        self.manager.start()

    def _recover_wire_state(self) -> bool:
        """Re-seed wire dedup state from a reopened durable received store.

        Replayed wire messages carry their *original* message ids, so
        re-adding every persisted id to the duplicate filter makes replay
        after a crash exactly-once: events this engine already delivered in
        a previous life are recognised and dropped, only the genuinely
        missed ones get through.  The per-source offset map is rebuilt the
        same way, so the catch-up request asks each source only for what
        came after its last persisted event.
        """
        if self._received.kind != "log" or not len(self._received):
            return False
        for _, _, meta in self._received.since(0):
            if not (isinstance(meta, tuple) and len(meta) == 3):
                continue
            message_id, origin, source_offset = meta
            if message_id:
                self._seen_message_ids.seen(message_id)
            if origin and isinstance(source_offset, int) and source_offset >= 0:
                known = self._source_offsets.get(origin, -1)
                if source_offset > known:
                    self._source_offsets[origin] = source_offset
        return True

    def _check_affinity(self, operation: str) -> None:
        """Raise unless the caller is the engine's owning thread."""
        ident = threading.get_ident()
        if ident != self._owner_ident:
            raise PSException(
                f"JxtaTPSEngine for {self.registry.interface_name} is "
                f"single-threaded (it runs on the simulated network's event "
                f"loop, owned by thread {self._owner_ident}); {operation} was "
                f"called from thread {ident}.  Use the LOCAL/SHARDED bindings "
                "for cross-thread traffic, or marshal calls onto the owning "
                "thread."
            )

    # ------------------------------------------------------------ properties

    @property
    def event_type(self) -> type:
        """The interface's event type."""
        return self.registry.event_type

    @property
    def ready(self) -> bool:
        """Whether at least one advertisement is attached (publishing will work)."""
        return bool(self.manager.attachments)

    @property
    def attachment_count(self) -> int:
        """Number of advertisements currently attached."""
        return len(self.manager.attachments)

    # ------------------------------------------------------------ publishing

    def publish(self, event: Any) -> PublishReceipt:
        """Publish a typed event to every subscriber of the type (Figure 8, (1))."""
        self._check_open()
        self._check_affinity("publish")
        self.registry.check_publishable(event)
        output_pipes = self.manager.output_pipes("publishing")
        message_id = self.peer.next_id("t")
        # Record before sending so the stamped offset matches the store: a
        # catch-up replay of ``sent.since(offset)`` re-produces exactly the
        # messages (same ids, same offsets) that went on the wire.
        sent_offset = self._sent.append(event, meta=message_id)
        message = self._event_message(event, message_id, sent_offset)
        receipts = [output_pipe.send(message) for output_pipe in output_pipes]
        self.peer.metrics.counter("tps_published").increment()
        cpu_time = sum(receipt.cpu_time for receipt in receipts)
        completion = max(receipt.completion_time for receipt in receipts)
        return PublishReceipt(
            cpu_time=cpu_time,
            completion_time=completion,
            pipes=len(receipts),
            wire_receipts=receipts,
        )

    def _event_message(self, event: Any, message_id: str, sent_offset: int) -> Message:
        """Build the wire message for ``event``.

        Shared by first-time publishing and catch-up replay: a replayed
        message carries its **original** id and sent-store offset, so the
        receivers' duplicate filter makes replay exactly-once and their
        per-source offset map stays consistent either way.
        """
        message = Message()
        message.add(TPS_TYPE_ELEMENT, type_name(type(event)))
        message.add(TPS_MSG_ID_ELEMENT, message_id)
        message.add(TPS_SENT_OFFSET_ELEMENT, str(sent_offset))
        message.add(TPS_EVENT_ELEMENT, self.registry.encode(event))
        self._decorate_message(message)
        if self.config.message_padding:
            message.pad_to(self.config.message_padding)
        return message

    def _decorate_message(self, message: Message) -> None:
        """Hook: add binding-specific elements to an outgoing message.

        The base engine adds nothing; composite bindings tag messages here
        (e.g. the SHARDED+JXTA origin element that filters same-bus echoes).
        Runs before padding, so decorations count toward the padded size.
        """

    # ----------------------------------------------------------- subscribing

    def _subscriptions_changed(self) -> None:
        """Keep wire readers open exactly while somebody is subscribed."""
        if not self.subscriber_manager.empty:
            self.manager.ensure_readers()
        elif not self.config.serve_history:
            # "After this call, no event is received anymore."  (With
            # serve_history the readers stay open for catch-up requests.)
            self.manager.close_readers()

    # -------------------------------------------------------------- catch-up

    def request_history(self, since: Optional[int] = None) -> int:
        """Broadcast a catch-up request to every attached advertisement.

        Peers that retain sent history (and have an open reader -- i.e.
        subscribers, or publishers running with ``serve_history=True``)
        answer by replaying their retained events **with the original
        message ids**, so the duplicate filter keeps observed delivery
        exactly-once: only events this engine never saw get through.

        ``since=None`` (the default) asks each known source for everything
        after its last observed sent-offset -- plus everything any unknown
        source retains -- which is the right request after a restart or a
        membership ``recover``.  An explicit ``since`` asks every source
        for its history from that sent-offset onward.

        Returns the number of pipes the request went out on.
        """
        self._check_open()
        self._check_affinity("request_history")
        output_pipes = self.manager.output_pipes("requesting history")
        if since is None:
            lines = [
                f"{urn} {offset + 1}"
                for urn, offset in sorted(self._source_offsets.items())
            ]
            # Unknown sources (never heard from) replay from the beginning
            # of whatever they retain; known ones resume past the high-water
            # mark above, which takes precedence over the wildcard.
            lines.append("* 0")
        else:
            lines = [f"* {max(0, since)}"]
        message = Message()
        message.add(TPS_HISTORY_REQUEST_ELEMENT, "\n".join(lines))
        for output_pipe in output_pipes:
            output_pipe.send(message)
        self.peer.metrics.counter("tps_history_requests").increment()
        return len(output_pipes)

    def _serve_history_request(self, text: str, source: Optional[PeerID]) -> None:
        """Replay retained sent history to answer a peer's catch-up request."""
        my_urn = self.peer.peer_id.to_urn()
        if source is not None and source.to_urn() == my_urn:
            return  # our own broadcast echoed back
        since: Optional[int] = None
        for line in text.splitlines():
            parts = line.split()
            if len(parts) != 2:
                continue
            urn, raw = parts
            try:
                offset = int(raw)
            except ValueError:
                continue
            if urn == my_urn:
                since = offset
                break  # a per-source entry beats the wildcard
            if urn == "*" and since is None:
                since = offset
        if since is None:
            return  # the request names other sources only
        # A request arrives on a reader, and a reader opens only on an attachment.
        output_pipes = self.manager.output_pipes("serving history")
        replayed = 0
        for offset, event, meta in self._sent.since(max(0, since)):
            if not (isinstance(meta, str) and meta):
                continue  # no recorded message id: cannot replay exactly-once
            message = self._event_message(event, meta, offset)
            for output_pipe in output_pipes:
                output_pipe.send(message)
            replayed += 1
        if replayed:
            self.peer.metrics.counter("tps_history_replays").increment()

    def _auto_catchup(self) -> None:
        """One automatic catch-up request after a durable-store restart."""
        if self._tps_closed:
            return
        try:
            self.request_history()
        except PSException:
            # Not attached/resolved yet; the application can still call
            # request_history() itself once the network settles.
            pass

    # ------------------------------------------------------------ reliability

    def _on_delivery_failure(self, failure: DeliveryFailure) -> None:
        """Route a terminal wire-delivery failure to the application.

        Never silent: the failure is counted, then handed to the engine's
        ``delivery_failure_handler`` when one is set, else to every
        subscription's exception handler (the same channel callback errors
        use), so a publish that gave up after the wire layer's ``MAX_ATTEMPTS``
        is always observable.
        """
        self.peer.metrics.counter("tps_delivery_failed").increment()
        error = DeliveryFailedError(failure)
        handler = self.delivery_failure_handler
        if handler is not None:
            handler(error)
            return
        self.subscriber_manager.report(error)

    def _clock(self) -> float:
        """Breaker cooldowns run on the simulated network's virtual clock."""
        return self.peer.now

    def _on_breaker_transition(self, state: str, breaker: Any) -> None:
        """Count breaker state changes (``tps_breaker_open`` etc.)."""
        self.peer.metrics.counter(f"tps_breaker_{state}").increment()

    # --------------------------------------------------------------- receive

    def _on_wire_message(self, message: Message, source: PeerID) -> None:
        """Handle one raw wire message: decode, filter, dispatch."""
        self._check_affinity("wire receive")
        if self._tps_closed:
            # A message can arrive between close() and the settle that drains
            # in-flight deliveries; count it instead of losing it silently.
            self.peer.metrics.counter("tps_closed_engine_drops").increment()
            return
        if message.has(TPS_HISTORY_REQUEST_ELEMENT):
            # A control message, not an event: replay retained sent history
            # for the requesting peer and stop (nothing to deliver locally).
            self._serve_history_request(
                message.get_text(TPS_HISTORY_REQUEST_ELEMENT), source
            )
            return
        message_id = message.get_text(TPS_MSG_ID_ELEMENT)
        # seen() refreshes recency on a hit, keeping actively-duplicated ids
        # away from the LRU eviction boundary.
        if message_id and self._seen_message_ids.seen(message_id):
            self.peer.metrics.counter("tps_duplicates_filtered").increment()
            return
        payload = message.get_bytes(TPS_EVENT_ELEMENT)
        if not payload:
            self.peer.metrics.counter("tps_malformed").increment()
            return
        try:
            event = self.registry.decode(payload)
        except Exception as error:  # noqa: BLE001 - surfaced to the application handlers
            self.peer.metrics.counter("tps_decode_errors").increment()
            self.subscriber_manager.report(error)
            return
        if not self.registry.conforms(event):
            # The event belongs to another branch of the hierarchy: this is
            # normal subtype filtering (Figure 7), not an error.
            self.peer.metrics.counter("tps_filtered_by_type").increment()
            return
        if self.criteria is not None and not self.criteria.matches_event(event):
            self.peer.metrics.counter("tps_filtered_by_content").increment()
            return
        origin = message_id.rsplit("/t", 1)[0] if message_id else ""
        offset_text = message.get_text(TPS_SENT_OFFSET_ELEMENT)
        try:
            source_offset = int(offset_text) if offset_text else -1
        except ValueError:
            source_offset = -1
        # Provenance rides along as store metadata so a durable store can
        # re-seed the duplicate filter and per-source offsets on restart.
        self._received.append(event, meta=(message_id, origin, source_offset))
        if origin and source_offset > self._source_offsets.get(origin, -1):
            self._source_offsets[origin] = source_offset
        self.peer.metrics.counter("tps_delivered").increment()
        self.subscriber_manager.dispatch(event)

    # ----------------------------------------------------------------- close

    def _do_close(self) -> None:
        """Stop the finder and close all pipes, then the shared teardown."""
        self._check_affinity("close")
        self.manager.stop()
        super()._do_close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"JxtaTPSEngine(type={self.registry.interface_name}, peer={self.peer.name!r}, "
            f"attachments={self.attachment_count})"
        )


#: Accepted value types per TPSConfig field annotation (the float fields
#: accept ints; the int fields reject bools via the extra check below).
_CONFIG_FIELD_TYPES = {
    "float": (int, float),
    "int": (int,),
    "bool": (bool,),
    "str": (str,),
}


#: The JXTA binding's parameter schema: every :class:`TPSConfig` field is a
#: per-interface override, so ``new_interface("JXTA", search_timeout=2.0)``
#: tunes one interface without constructing and threading a whole config.
JXTA_BINDING_PARAMS = tuple(
    BindingParam(
        config_field.name,
        _CONFIG_FIELD_TYPES.get(str(config_field.type), ()),
        f"TPSConfig.{config_field.name} override (default {config_field.default!r})",
        None if str(config_field.type) in ("bool", "str") else not_bool,
        default=config_field.default,
    )
    for config_field in dataclasses.fields(TPSConfig)
)


def resolve_jxta_config(request: BindingRequest) -> Optional[TPSConfig]:
    """The request's effective :class:`TPSConfig`: the engine config plus the
    binding parameters that name one of its fields (all of them for
    ``"JXTA"``; the shared history parameters for ``"SHARDED+JXTA"``)."""
    overrides = {
        name: value
        for name, value in request.params.items()
        if name in TPSConfig.__dataclass_fields__
    }
    if not overrides:
        return request.config
    return dataclasses.replace(request.config or TPSConfig(), **overrides)


def _jxta_binding(request: BindingRequest) -> JxtaTPSEngine:
    """The ``"JXTA"`` binding factory: an interface over the P2P substrate."""
    if request.peer is None:
        raise PSException(
            "the JXTA binding needs a peer: construct the engine with "
            "TPSEngine(EventType, peer=some_peer)"
        )
    return JxtaTPSEngine(
        request.event_type,
        request.peer,
        criteria=request.criteria,
        codec=request.codec,
        config=resolve_jxta_config(request),
    )


register_binding(
    "JXTA",
    _jxta_binding,
    capabilities=("distributed", "simulated-network"),
    params=JXTA_BINDING_PARAMS,
    replace=True,
)


__all__ = [
    "BoundedIdSet",
    "DUPLICATE_WINDOW",
    "JXTA_BINDING_PARAMS",
    "JxtaTPSEngine",
    "resolve_jxta_config",
    "TPSAdvertisementsManager",
    "TPSConfig",
    "TPS_EVENT_ELEMENT",
    "TPS_HISTORY_REQUEST_ELEMENT",
    "TPS_MSG_ID_ELEMENT",
    "TPS_SENT_OFFSET_ELEMENT",
    "TPS_TYPE_ELEMENT",
]
