"""The WIRE service: many-to-many pipes, with an optional reliable mode.

"The best known [services] are the monitoring service, the cms service and
the wire service (responsible for providing many-to-many communication)."
(paper, Section 2)

Both the TPS layer and the paper's hand-written SR-JXTA application sit on
top of the wire service: a publisher creates a wire *output* pipe and every
subscriber creates a wire *input* pipe on the same pipe advertisement; a
message sent on the output pipe is delivered to every bound input pipe.

The wire service is also where the reproduction charges the substrate costs
that shape the paper's figures:

* sending charges a base cost plus a per-resolved-connection cost (this is
  what makes four subscribers roughly three times as expensive as one,
  Figures 18-19);
* receiving charges a base cost plus a per-connected-publisher cost and is
  serialised through a bounded queue (this is what makes the subscriber
  saturate around 6-8 events/second in Figure 20, and drop messages when
  flooded -- the August-2001 JXTA release "was not able to handle
  connections between more than 5 peers sending a lot of messages");
* every cost is perturbed by lognormal noise, giving the large standard
  deviations the paper reports.

The layers above (SR-JXTA, SR-TPS) add their own per-message costs through
``extra_send_cost`` and the input pipes' ``processing_cost``, so the relative
ordering JXTA-WIRE < SR-JXTA <= SR-TPS emerges from the layering itself.

Reliability model (at-least-once + a sequence window = exactly-once observed)
----------------------------------------------------------------------------

An output pipe created with ``reliable=True`` runs an at-least-once protocol
per resolved target, on top of a network that may drop, duplicate, reorder
or delay packets (see :mod:`repro.net.faults`):

* **sender**: each target gets its own copy of the message stamped with an
  ack request, a channel id unique to the output pipe and a per-(pipe,
  target) sequence number.  An unacked copy is retransmitted after
  ``ACK_TIMEOUT * BACKOFF**(attempt-1)`` seconds, capped at ``BACKOFF_CAP``
  and jittered by ``RETRY_JITTER``, driven entirely off the virtual clock:
  nominally at 0.25, 0.75, 1.75, 3.75 and 5.75 s after the first send.  When
  the timer after transmission ``MAX_ATTEMPTS`` expires (7.75 s) the delivery
  is declared failed: the ``wire_delivery_failed`` counter is bumped, the
  :class:`DeliveryTracker` on the :class:`SendReceipt` records the terminal
  state and the pipe's failure listeners fire with a
  :class:`DeliveryFailure` -- a give-up is *reported*, never silent.
* **receiver**: one window per sender channel -- ``next_seq``, the sequence
  it will deliver next, plus a hold-back buffer of later ones -- decides
  every arrival.  ``seq == next_seq`` is delivered (and whatever it unblocks
  is released in order, restoring per-source FIFO under reordering); a later
  ``seq`` is held; ``seq < next_seq`` (already released, or abandoned:
  ``wire_stale_retransmits``) and a ``seq`` already in the buffer
  (``wire_duplicates_suppressed``) are copies of something the window has
  decided: re-acked (the previous ack may have been the lost packet) and
  dropped.  **The window is the duplicate filter.**  Every reliable message
  is sequenced, and a wire id reaches a given receiver on exactly one
  (channel, sequence), so remembering wire ids as well would only repeat the
  window's answer -- with an eviction bound the window does not need.  (The
  layer above still filters by *application* message id, which is what
  catches one event published on several advertisements: the paper's
  Section 4.4 footnote puts that filter in the SR/TPS layers, not here.)
* **gaps**: a sequence gap that does not fill within ``GAP_TIMEOUT`` is
  abandoned -- counted in ``wire_order_gaps_abandoned`` -- and delivery
  resumes at the next held sequence, so one lost message cannot wedge the
  channel.  ``GAP_TIMEOUT`` (6 s) exceeds the last retransmission (5.75 s):
  a message held behind a gap waits out every attempt the sender will make
  at the missing one before giving up on it.  The buffer is also bounded
  (``HOLDBACK_LIMIT``); an arrival that would overflow it abandons the gap
  early.
* **acks happen after acceptance**: a receiver only acks a message it has
  delivered, held or already decided; a message bounced off the full receive
  queue is *not* acked, so sender retransmission doubles as flow control.

The protocol's schedule is the module constants below, not options: nothing
ever set them to anything else.  The result is the exactly-once-observed,
per-source-FIFO contract pinned by ``tests/test_binding_conformance.py``,
which the chaos matrix re-runs over a faulty network.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.jxta.advertisement import PipeAdvertisement
from repro.jxta.endpoint import EndpointEnvelope
from repro.jxta.errors import AdvertisementError, PipeError
from repro.jxta.ids import PeerID, PipeID
from repro.jxta.message import Message
from repro.jxta.pipes import InputPipe, PipeMessageListener
from repro.net.simclock import EventHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.jxta.peergroup import PeerGroup

#: Name of the message element carrying the wire-level message id.
WIRE_MSG_ID_ELEMENT = "JxtaWireMsgId"
#: Name of the message element carrying the original wire source peer.
WIRE_SRC_ELEMENT = "JxtaWireSrc"
#: Element marking a message whose delivery must be acknowledged.
WIRE_ACK_REQ_ELEMENT = "JxtaWireAckReq"
#: Element carrying the per-(pipe, target) sequence number of a reliable send.
WIRE_SEQ_ELEMENT = "JxtaWireSeq"
#: Element carrying the sender-side channel id (unique per output pipe).
WIRE_CHANNEL_ELEMENT = "JxtaWireChan"
#: Element of an ack message naming the wire id being acknowledged.
WIRE_ACK_ID_ELEMENT = "JxtaWireAckId"
#: Endpoint param prefix under which a sender listens for acks.
WIRE_ACK_PARAM_PREFIX = "jxta-wire-ack:"


#: Seconds a reliable sender waits for the first ack before retransmitting.
ACK_TIMEOUT = 0.25
#: Transmissions of one (message, target), the first included, before the
#: delivery is declared failed.
MAX_ATTEMPTS = 6
#: Multiplier applied to the retry delay after each attempt.
BACKOFF = 2.0
#: Upper bound (seconds) on the retry delay.
BACKOFF_CAP = 2.0
#: Relative sigma of the lognormal noise on each retry delay, decorrelating
#: the retransmission bursts of concurrent senders.
RETRY_JITTER = 0.2
#: Seconds a receiver waits for a sequence gap to fill before abandoning it;
#: longer than the sender's last retransmission (module docstring).
GAP_TIMEOUT = 6.0

#: One received message on its way to the input pipes: (pipe URN, message,
#: wire source -- parsed once, on entry).
_Arrival = Tuple[str, Message, PeerID]


@dataclass(frozen=True)
class DeliveryFailure:
    """A terminal "gave up after N attempts" event for one (message, target)."""

    wire_message_id: str
    pipe_urn: str
    target_urn: str
    attempts: int


class DeliveryTracker:
    """Per-target delivery state of one reliable send, exposed on the receipt.

    States progress ``pending`` -> ``acked`` | ``failed`` | ``abandoned``
    (abandoned = the pipe was closed with the delivery still in flight).
    """

    __slots__ = ("wire_message_id", "states", "attempts", "retries")

    def __init__(self, wire_message_id: str, target_urns: List[str]) -> None:
        self.wire_message_id = wire_message_id
        self.states: Dict[str, str] = {urn: "pending" for urn in target_urns}
        self.attempts: Dict[str, int] = {urn: 1 for urn in target_urns}
        self.retries = 0

    def record_retry(self, target_urn: str) -> None:
        """Count one retransmission to ``target_urn``."""
        self.attempts[target_urn] = self.attempts.get(target_urn, 0) + 1
        self.retries += 1

    def mark(self, target_urn: str, state: str) -> None:
        """Move ``target_urn`` to a terminal ``state``."""
        self.states[target_urn] = state

    def _in_state(self, state: str) -> List[str]:
        return [urn for urn, s in self.states.items() if s == state]

    @property
    def pending(self) -> List[str]:
        """Targets still awaiting an ack."""
        return self._in_state("pending")

    @property
    def acked(self) -> List[str]:
        """Targets that acknowledged the message."""
        return self._in_state("acked")

    @property
    def failed(self) -> List[str]:
        """Targets for which delivery terminally failed."""
        return self._in_state("failed")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DeliveryTracker({self.wire_message_id}, acked={len(self.acked)}, "
            f"failed={len(self.failed)}, pending={len(self.pending)}, "
            f"retries={self.retries})"
        )


@dataclass
class SendReceipt:
    """Returned by :meth:`WireOutputPipe.send`.

    Attributes
    ----------
    cpu_time:
        Virtual CPU time charged to the sending peer for this call -- the
        "invocation time" of the paper's Figure 18.
    completion_time:
        Virtual time at which the send call completes (messages hit the
        network at this instant).
    targets:
        Number of resolved connections the message was sent to.
    wire_message_id:
        The wire-level message id stamped on the message.
    tracker:
        Per-target ack/retry state for reliable sends (None otherwise).
        The tracker keeps updating as the simulation advances.
    """

    cpu_time: float
    completion_time: float
    targets: int
    wire_message_id: str
    tracker: Optional[DeliveryTracker] = None


class WireInputPipe(InputPipe):
    """A wire (many-to-many) input pipe; deliveries arrive via the wire service.

    :meth:`close` is the one close path: the pipe leaves the wire service's
    delivery table (the last pipe of an id also drops the endpoint listener),
    so its ``processing_cost`` stops being charged and late traffic for the
    id is refused (``endpoint_unhandled``, or ``wire_unbound_deliveries`` at
    the service) instead of queued for a closed pipe; then, like any input
    pipe, it removes its PBP binding.
    """

    def __init__(
        self, advertisement: PipeAdvertisement, wire_service: "WireService", **options: Any
    ) -> None:
        super().__init__(advertisement, wire_service.group.pipe_service, **options)
        self._wire = wire_service

    def close(self) -> None:
        """Leave the wire service's delivery table, then unbind.  Idempotent."""
        urn = self.pipe_id.to_urn()
        inputs = self._wire._inputs
        if self in inputs.get(urn, ()):
            inputs[urn].remove(self)
            if not inputs[urn]:
                del inputs[urn]
                self._wire.peer.endpoint.unregister_listener(WireService.WireName, urn)
        super().close()


class WireOutputPipe:
    """A wire (many-to-many) output pipe with cost-accounted sends.

    A send goes to every peer the Pipe Binding Protocol has resolved as bound
    to the pipe.  A ``reliable`` pipe runs the at-least-once protocol of the
    module docstring: each send is tracked per target, retransmitted with
    capped exponential backoff and eventually acked or reported failed to
    the registered failure listeners.
    """

    def __init__(
        self,
        advertisement: PipeAdvertisement,
        wire_service: "WireService",
        *,
        extra_send_cost: float = 0.0,
        reliable: bool = False,
    ) -> None:
        self.advertisement = advertisement
        self._binding_service = wire_service.group.pipe_service
        self._wire = wire_service
        self.closed = False
        self.sent_count = 0
        #: Extra virtual CPU charged per send on top of the wire cost,
        #: representing the work done by the layer above (SR-JXTA / SR-TPS).
        self.extra_send_cost = extra_send_cost
        self.reliable = reliable
        #: Called with a :class:`DeliveryFailure` when a reliable delivery
        #: exhausts its attempts.
        self.failure_listeners: List[Callable[[DeliveryFailure], None]] = []
        #: Sender-side channel id; globally unique per output pipe so the
        #: receiver's sequencing state can never collide across pipes.
        self.channel_id = wire_service.peer.next_id("c")
        self._next_seq: Dict[str, int] = {}

    @property
    def pipe_id(self) -> PipeID:
        """The pipe's stable identifier."""
        return self.advertisement.pipe_id

    def resolved_peers(self) -> List[PeerID]:
        """Peers currently known to have a bound input pipe for this pipe."""
        return self._binding_service.resolved_peers(self.pipe_id)

    def add_failure_listener(self, listener: Callable[[DeliveryFailure], None]) -> None:
        """Register a listener for terminal delivery failures on this pipe."""
        self.failure_listeners.append(listener)

    def next_sequence(self, target_urn: str) -> int:
        """The next per-target sequence number (starts at 1)."""
        value = self._next_seq.get(target_urn, 0) + 1
        self._next_seq[target_urn] = value
        return value

    def send(self, message: Message) -> SendReceipt:
        """Send a message to every bound input pipe; returns a :class:`SendReceipt`."""
        if self.closed:
            raise PipeError("cannot send on a closed wire output pipe")
        receipt = self._wire.send(self, message, extra_cpu=self.extra_send_cost)
        self.sent_count += 1
        return receipt

    def close(self) -> None:
        """Close the pipe and abandon its in-flight reliable deliveries."""
        if self.closed:
            return
        self.closed = True
        self._wire.abandon_pending(self)


@dataclass
class _PendingDelivery:
    """Sender-side state of one unacked (message, target) pair."""

    wire_id: str
    target: PeerID
    message: Message
    pipe: WireOutputPipe
    tracker: DeliveryTracker
    attempts: int = 1
    handle: Optional[EventHandle] = None


class _ChannelState:
    """Receiver-side window of one sender channel (module docstring)."""

    __slots__ = ("next_seq", "buffer", "gap_handle")

    def __init__(self) -> None:
        self.next_seq = 1
        #: seq -> arrival held until the gap before it fills.
        self.buffer: Dict[int, _Arrival] = {}
        self.gap_handle: Optional[EventHandle] = None


class WireService:
    """Per-group many-to-many message propagation."""

    #: Well-known service constants, as used in the paper's Figure 15
    #: (``WireService.WireName``, ``WireVersion``, ``WireUri``, ``WireCode``,
    #: ``WireSecurity``).
    WireName = "jxta.service.wire"
    WireVersion = "1.0"
    WireUri = "urn:jxta:wire"
    WireCode = "net.jxta.impl.wire.WireService"
    WireSecurity = "none"

    #: Hold-back buffer bound per channel: beyond this many out-of-order
    #: messages the gap is abandoned early to keep memory constant.
    HOLDBACK_LIMIT = 64

    def __init__(self, group: "PeerGroup") -> None:
        self.group = group
        self.peer = group.peer
        self.cost_model = self.peer.cost_model
        self.noise = self.peer.noise
        #: pipe URN -> wire input pipes opened locally.
        self._inputs: Dict[str, List[WireInputPipe]] = {}
        #: pipe URN -> set of source peer URNs seen (connected publishers).
        self._sources: Dict[str, set] = {}
        self._queue: Deque[_Arrival] = deque()
        self._busy = False
        #: (wire id, target urn) -> in-flight reliable delivery.
        self._pending: Dict[Tuple[str, str], _PendingDelivery] = {}
        #: channel id -> the receiver window of that sender channel; only the
        #: ack/retry protocol filters duplicates here (the real JXTA-WIRE did
        #: not: the paper lists duplicate handling among what the SR layers add).
        self._channels: Dict[str, _ChannelState] = {}
        #: ack params this service already listens on.
        self._ack_params: set[str] = set()

    # ----------------------------------------------------------- pipe setup

    def create_input_pipe(
        self,
        advertisement: PipeAdvertisement,
        listener: Optional[PipeMessageListener] = None,
        *,
        processing_cost: float = 0.0,
    ) -> WireInputPipe:
        """Open a wire input pipe: messages sent on this pipe id will be delivered here.

        Whether a message is acked and sequenced is the *sender's* choice
        (its output pipe's ``reliable``); an input pipe serves both kinds.
        """
        pipe = WireInputPipe(
            advertisement, self, listener=listener, processing_cost=processing_cost
        )
        urn = advertisement.pipe_id.to_urn()
        if urn not in self._inputs:
            self._inputs[urn] = []
            self.peer.endpoint.register_listener(self.WireName, urn, self._on_wire_envelope)
        self._inputs[urn].append(pipe)
        # Bind with the PBP (and announce it) so remote output pipes resolve us.
        self.group.pipe_service.bind(pipe)
        self.peer.metrics.counter("wire_input_pipes").increment()
        return pipe

    def create_output_pipe(
        self,
        advertisement: PipeAdvertisement,
        *,
        extra_send_cost: float = 0.0,
        resolve: bool = True,
        reliable: bool = False,
    ) -> WireOutputPipe:
        """Open a wire output pipe (and resolve the current set of bound peers)."""
        pipe = WireOutputPipe(
            advertisement, self, extra_send_cost=extra_send_cost, reliable=reliable
        )
        if reliable:
            ack_param = WIRE_ACK_PARAM_PREFIX + advertisement.pipe_id.to_urn()
            if ack_param not in self._ack_params:
                self._ack_params.add(ack_param)
                self.peer.endpoint.register_listener(
                    self.WireName, ack_param, self._on_ack_envelope
                )
        if resolve:
            self.group.pipe_service.resolve(advertisement.pipe_id)
        self.peer.metrics.counter("wire_output_pipes").increment()
        return pipe

    def input_pipes(self, pipe_id: PipeID) -> List[WireInputPipe]:
        """Wire input pipes this peer has open for ``pipe_id``."""
        return list(self._inputs.get(pipe_id.to_urn(), []))

    def connected_publishers(self, pipe_id: PipeID) -> int:
        """Number of distinct remote publishers seen on ``pipe_id``."""
        return len(self._sources.get(pipe_id.to_urn(), set()))

    # ----------------------------------------------------------------- send

    def send(
        self, pipe: WireOutputPipe, message: Message, *, extra_cpu: float = 0.0
    ) -> SendReceipt:
        """Send ``message`` on ``pipe`` to every resolved bound peer.

        The call charges the sending peer's virtual CPU (base + per-connection
        + serialisation + the caller's ``extra_cpu``), schedules the actual
        network transmissions at the completion instant and returns a
        :class:`SendReceipt` describing the cost.  Reliable pipes additionally
        stamp per-target sequence/ack elements and arm the retry machinery.
        """
        wire_message = message.dup()
        wire_id = self.peer.next_id("w")
        wire_message.add(WIRE_MSG_ID_ELEMENT, wire_id)
        wire_message.add(WIRE_SRC_ELEMENT, self.peer.peer_id.to_urn())
        targets = pipe.resolved_peers()
        size = wire_message.size
        wire_cost = self.noise.jittered(
            self.cost_model.send_cost(len(targets), size), self.cost_model.wire_jitter
        )
        total_cost = wire_cost + extra_cpu
        simulator = self.peer.simulator
        completion = simulator.now + total_cost
        pipe_urn = pipe.pipe_id.to_urn()
        tracker: Optional[DeliveryTracker] = None
        sequences: Dict[str, int] = {}
        if pipe.reliable and targets:
            tracker = DeliveryTracker(wire_id, [t.to_urn() for t in targets])
            # Sequence numbers are claimed *now*, synchronously, in
            # publish-call order: the transmit event below fires at a
            # jittered CPU-completion instant, so stamping there would
            # scramble the sequences of same-instant publishes and break
            # the per-source ordering the channel exists to provide.
            sequences = {
                target.to_urn(): pipe.next_sequence(target.to_urn())
                for target in targets
            }

        def _transmit() -> None:
            if targets:
                for target in targets:
                    if tracker is not None:
                        self._send_reliable(
                            pipe, target, wire_message, wire_id, tracker,
                            sequences[target.to_urn()],
                        )
                    else:
                        self.peer.endpoint.send(
                            target, wire_message, self.WireName, pipe_urn
                        )
            else:
                # No resolved bindings yet: fall back to propagation so early
                # messages still have a chance to reach late-resolving peers.
                # Propagated copies carry no ack/seq elements -- they take the
                # legacy unreliable path on the receiver.
                self.peer.endpoint.propagate(wire_message, self.WireName, pipe_urn)

        simulator.schedule(total_cost, _transmit, label=f"wire-send:{self.peer.name}")
        self.peer.metrics.counter("wire_messages_sent").increment()
        return SendReceipt(
            cpu_time=total_cost,
            completion_time=completion,
            targets=len(targets),
            wire_message_id=wire_id,
            tracker=tracker,
        )

    def _send_reliable(
        self,
        pipe: WireOutputPipe,
        target: PeerID,
        wire_message: Message,
        wire_id: str,
        tracker: DeliveryTracker,
        sequence: int,
    ) -> None:
        """First transmission of one per-target copy; arms the retry timer."""
        copy = wire_message.dup()
        copy.add(WIRE_ACK_REQ_ELEMENT, "1")
        copy.add(WIRE_CHANNEL_ELEMENT, pipe.channel_id)
        copy.add(WIRE_SEQ_ELEMENT, str(sequence))
        pending = _PendingDelivery(wire_id, target, copy, pipe, tracker)
        self._pending[(wire_id, target.to_urn())] = pending
        self.peer.endpoint.send(target, copy, self.WireName, pipe.pipe_id.to_urn())
        self._arm_retry(pending)

    def _arm_retry(self, pending: _PendingDelivery) -> None:
        delay = min(BACKOFF_CAP, ACK_TIMEOUT * BACKOFF ** (pending.attempts - 1))
        pending.handle = self.peer.simulator.schedule(
            self.noise.jittered(delay, RETRY_JITTER),
            lambda: self._retry(pending),
            label=f"wire-retry:{self.peer.name}",
        )

    def _retry(self, pending: _PendingDelivery) -> None:
        target_urn = pending.target.to_urn()
        key = (pending.wire_id, target_urn)
        if self._pending.get(key) is not pending:
            return  # acked or abandoned while the timer was in flight
        if pending.pipe.closed:
            del self._pending[key]
            pending.tracker.mark(target_urn, "abandoned")
            return
        if pending.attempts >= MAX_ATTEMPTS:
            self._fail(pending)
            return
        pending.attempts += 1
        pending.tracker.record_retry(target_urn)
        self.peer.metrics.counter("wire_retries").increment()
        self.peer.endpoint.send(
            pending.target, pending.message, self.WireName, pending.pipe.pipe_id.to_urn()
        )
        self._arm_retry(pending)

    def _fail(self, pending: _PendingDelivery) -> None:
        """Terminal failure of one in-flight delivery: the single reported
        path (tracker state, ``wire_delivery_failed``, failure listeners)."""
        target_urn = pending.target.to_urn()
        del self._pending[(pending.wire_id, target_urn)]
        pending.tracker.mark(target_urn, "failed")
        self.peer.metrics.counter("wire_delivery_failed").increment()
        failure = DeliveryFailure(
            wire_message_id=pending.wire_id,
            pipe_urn=pending.pipe.pipe_id.to_urn(),
            target_urn=target_urn,
            attempts=pending.attempts,
        )
        for listener in list(pending.pipe.failure_listeners):
            try:
                listener(failure)
            except Exception:  # noqa: BLE001 - listeners must not break the service
                self.peer.metrics.counter("wire_failure_listener_errors").increment()

    def abandon_pending(self, pipe: WireOutputPipe) -> None:
        """Cancel the in-flight reliable deliveries of a closing pipe."""
        for key, pending in list(self._pending.items()):
            if pending.pipe is pipe:
                if pending.handle is not None:
                    pending.handle.cancel()
                pending.tracker.mark(pending.target.to_urn(), "abandoned")
                del self._pending[key]

    def fail_target(self, target_urn: str) -> int:
        """Terminally fail every in-flight reliable delivery towards one peer.

        Called by the membership integration when a peer is *confirmed*
        dead: instead of letting each pending message burn through its
        remaining retry budget against a corpse, the deliveries fail now,
        once, through the exact same reported path a retry exhaustion takes
        (``wire_delivery_failed`` counter + pipe failure listeners) -- a
        departed peer ends in a report, never in silent queue growth.
        Returns the number of deliveries failed.
        """
        failed = 0
        for pending in list(self._pending.values()):
            if pending.target.to_urn() != target_urn:
                continue
            if pending.handle is not None:
                pending.handle.cancel()
            self.peer.metrics.counter("wire_peer_departed").increment()
            self._fail(pending)
            failed += 1
        return failed

    # ----------------------------------------------------------------- acks

    def _on_ack_envelope(self, envelope: EndpointEnvelope, message: Message) -> None:
        wire_id = message.get_text(WIRE_ACK_ID_ELEMENT)
        pending = self._pending.pop((wire_id, envelope.src_peer), None)
        if pending is None:
            # Duplicate ack, ack of an abandoned delivery, or chaos echo.
            self.peer.metrics.counter("wire_acks_ignored").increment()
            return
        if pending.handle is not None:
            pending.handle.cancel()
        pending.tracker.mark(envelope.src_peer, "acked")
        self.peer.metrics.counter("wire_acks_received").increment()

    def _send_ack(self, source: PeerID, pipe_urn: str, wire_id: str) -> None:
        """Acknowledge a reliable message back to its wire source.

        Acks are tiny control messages; they charge network time but no wire
        CPU cost, like the protocol chatter of the other JXTA services.
        """
        ack = Message()
        ack.add(WIRE_ACK_ID_ELEMENT, wire_id)
        self.peer.endpoint.send(source, ack, self.WireName, WIRE_ACK_PARAM_PREFIX + pipe_urn)
        self.peer.metrics.counter("wire_acks_sent").increment()

    # -------------------------------------------------------------- receive

    def _on_wire_envelope(self, envelope: EndpointEnvelope, message: Message) -> None:
        pipe_urn = envelope.param
        if pipe_urn not in self._inputs:
            self.peer.metrics.counter("wire_unbound_deliveries").increment()
            return
        try:
            # The source URN comes off the network: it is parsed here, once,
            # into the PeerID the rest of the receive path (queue, ack, input
            # pipes) hands on.
            source = PeerID.from_urn(message.get_text(WIRE_SRC_ELEMENT) or envelope.src_peer)
        except AdvertisementError:
            self.peer.metrics.counter("wire_malformed").increment()
            return
        arrival = (pipe_urn, message, source)
        wire_id = message.get_text(WIRE_MSG_ID_ELEMENT)
        if not (wire_id and message.has(WIRE_ACK_REQ_ELEMENT)):
            self._enqueue(arrival)
            return
        channel = message.get_text(WIRE_CHANNEL_ELEMENT)
        seq_text = message.get_text(WIRE_SEQ_ELEMENT)
        if not channel or not seq_text.isdigit():
            # Every reliable send is sequenced; an ack request without a
            # channel/sequence did not come from a WireOutputPipe.  Count
            # it and drop it un-acked.
            self.peer.metrics.counter("wire_malformed").increment()
            return
        self._accept(arrival, wire_id, channel, int(seq_text))

    def _accept(self, arrival: _Arrival, wire_id: str, channel: str, seq: int) -> None:
        """Put one reliable arrival to its channel's window: the single place
        that decides deliver / hold / duplicate, and so what is acked."""
        state = self._channels.setdefault(channel, _ChannelState())
        held = state.buffer
        if seq > state.next_seq and seq not in held and len(held) >= self.HOLDBACK_LIMIT:
            # No room to hold another: give up on the gap now.  That moves
            # the window, so the arrival is judged against where it ends up.
            self._abandon_gap(channel, state)
        if seq < state.next_seq:
            # Already released, or abandoned with its gap: not delivered
            # (again), but acked so the sender stops.
            self.peer.metrics.counter("wire_stale_retransmits").increment()
        elif seq in held:
            self.peer.metrics.counter("wire_duplicates_suppressed").increment()
        elif seq > state.next_seq:
            held[seq] = arrival
            self.peer.metrics.counter("wire_out_of_order_held").increment()
            self._arm_gap_timer(channel, state)
        elif self._enqueue(arrival):
            state.next_seq += 1
            self._flush_channel(channel, state)
        else:
            return  # refused by the bounded queue: no ack, the sender retransmits
        pipe_urn, _message, source = arrival
        self._send_ack(source, pipe_urn, wire_id)

    def _flush_channel(self, channel: str, state: _ChannelState) -> None:
        """Release consecutively-sequenced held messages, manage the gap timer."""
        while state.next_seq in state.buffer:
            # Acked when it was held; under overload the bounded receive
            # queue still wins (counted in wire_messages_dropped).
            self._enqueue(state.buffer.pop(state.next_seq))
            state.next_seq += 1
        if state.gap_handle is not None:
            state.gap_handle.cancel()
            state.gap_handle = None
        if state.buffer:
            self._arm_gap_timer(channel, state)

    def _arm_gap_timer(self, channel: str, state: _ChannelState) -> None:
        if state.gap_handle is not None and not state.gap_handle.cancelled:
            return
        state.gap_handle = self.peer.simulator.schedule(
            GAP_TIMEOUT,
            lambda: self._on_gap_timeout(channel),
            label=f"wire-gap:{self.peer.name}",
        )

    def _on_gap_timeout(self, channel: str) -> None:
        state = self._channels.get(channel)
        if state is None:
            return
        state.gap_handle = None
        if state.buffer:
            self._abandon_gap(channel, state)

    def _abandon_gap(self, channel: str, state: _ChannelState) -> None:
        """Skip a sequence gap that will never fill (sender gave up) and resume.

        The missing message's loss is already reported on the *sender* side
        (``wire_delivery_failed`` + failure listeners); the receiver counts
        the abandonment and releases everything it was holding back.
        """
        if not state.buffer:
            return
        state.next_seq = min(state.buffer)
        self.peer.metrics.counter("wire_order_gaps_abandoned").increment()
        self._flush_channel(channel, state)

    def _enqueue(self, arrival: _Arrival) -> bool:
        """Admit one message into the bounded service queue; False when full."""
        pipe_urn, _message, source = arrival
        self._sources.setdefault(pipe_urn, set()).add(source.to_urn())
        if len(self._queue) >= self.cost_model.receive_queue_limit:
            self.peer.metrics.counter("wire_messages_dropped").increment()
            return False
        self._queue.append(arrival)
        self.peer.metrics.counter("wire_messages_enqueued").increment()
        if not self._busy:
            self._process_next()
        return True

    def _process_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        pipe_urn, message, source = self._queue.popleft()
        pipes = self._inputs.get(pipe_urn, [])
        connections = max(1, len(self._sources.get(pipe_urn, set())))
        service_time = self.noise.jittered(
            self.cost_model.receive_cost(connections, message.size),
            self.cost_model.wire_jitter,
        )
        service_time += sum(pipe.processing_cost for pipe in pipes)

        def _finish() -> None:
            for pipe in list(pipes):
                if pipe.closed:
                    # The pipe closed while the message was queued: count the
                    # drop instead of letting InputPipe.receive eat it.
                    self.peer.metrics.counter("wire_closed_pipe_drops").increment()
                    continue
                pipe.receive(message, source)
            self.peer.metrics.counter("wire_messages_delivered").increment()
            self.peer.metrics.series("wire_received").record(self.peer.simulator.now)
            self._process_next()

        self.peer.simulator.schedule(
            service_time, _finish, label=f"wire-recv:{self.peer.name}"
        )


__all__ = [
    "ACK_TIMEOUT",
    "BACKOFF",
    "BACKOFF_CAP",
    "DeliveryFailure",
    "DeliveryTracker",
    "GAP_TIMEOUT",
    "MAX_ATTEMPTS",
    "RETRY_JITTER",
    "SendReceipt",
    "WIRE_ACK_ID_ELEMENT",
    "WIRE_ACK_PARAM_PREFIX",
    "WIRE_ACK_REQ_ELEMENT",
    "WIRE_CHANNEL_ELEMENT",
    "WIRE_MSG_ID_ELEMENT",
    "WIRE_SEQ_ELEMENT",
    "WIRE_SRC_ELEMENT",
    "WireInputPipe",
    "WireOutputPipe",
    "WireService",
]
