"""The endpoint service: peer-to-peer message delivery.

The endpoint service is the lowest layer of the JXTA substrate.  It turns
"send this :class:`~repro.jxta.message.Message` to that peer (or to everyone)
for that service" into packets on the simulated network, picking a transport
both ends share, relaying through router peers when no direct route exists
(the Endpoint Routing Protocol, Figure 6 of the paper) and re-propagating
broadcast traffic through rendez-vous peers (which "are mainly used to
dispatch information and discovery queries between peers").

Services register listeners keyed by a service name and an optional service
parameter; incoming envelopes are dispatched to the most specific listener.

An envelope travels as a fixed-layout frame (all integers big-endian)::

    i32 ttl, u8 propagate (0 / 1), u16 hop count, u32 body length
    source peer, source address, destination peer, service, param,
        envelope id, then each hop: u16 byte length + UTF-8 text
        (so each at most 65 535 bytes)
    body

The body is the carried message's own frame (:mod:`repro.jxta.message`): it
is copied in and out as opaque bytes, and a relaying peer forwards the bytes
it received -- the body is carried, never re-encoded.
:meth:`EndpointEnvelope.from_bytes` raises :class:`ValueError` on anything
but a frame :meth:`EndpointEnvelope.to_bytes` can produce; the endpoint
counts such packets in ``endpoint_malformed`` and drops them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.jxta.ids import BoundedIdSet, PeerID
from repro.jxta.message import Message
from repro.net.network import NetworkError
from repro.net.packet import Packet
from repro.net.transport import TransportKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.jxta.peer import Peer

#: ttl, propagate, hop count, body length.
_HEADER = struct.Struct(">iBHI")
_STRING_LENGTH = struct.Struct(">H")

#: Address used for propagated (broadcast) envelopes.
PROPAGATE_DESTINATION = "*"

#: Destination used when the sender only knows a network address, not a peer
#: ID (e.g. the first rendez-vous lease request): whichever peer answers at
#: that address accepts the envelope.
ANY_PEER = "urn:jxta:any"

#: Default number of rendez-vous re-propagation hops.
DEFAULT_PROPAGATE_TTL = 4

#: Wire names of the direct transports, in the order a unicast send tries them.
_UNICAST_TRANSPORTS = (TransportKind.TCP.value, TransportKind.HTTP.value)


@dataclass
class EndpointEnvelope:
    """The wire-level envelope wrapping a JXTA message.

    Attributes mirror what a real JXTA endpoint header carries: source and
    destination peer IDs, the addressed service and parameter, a unique
    envelope id for duplicate suppression during propagation, a TTL and the
    list of relay peers traversed.
    """

    src_peer: str
    src_address: str
    dst_peer: str
    service: str
    param: str
    envelope_id: str
    ttl: int
    propagate: bool
    hops: List[str] = field(default_factory=list)
    body: bytes = b""

    def to_bytes(self) -> bytes:
        """Serialise the envelope for the network (layout in the module docstring)."""
        parts = [_HEADER.pack(self.ttl, self.propagate, len(self.hops), len(self.body))]
        for text in (
            self.src_peer, self.src_address, self.dst_peer,
            self.service, self.param, self.envelope_id, *self.hops,
        ):
            raw = text.encode("utf-8")
            parts += (_STRING_LENGTH.pack(len(raw)), raw)
        parts.append(self.body)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "EndpointEnvelope":
        """Decode a frame written by :meth:`to_bytes`; ValueError on a malformed one."""
        try:
            ttl, propagate, hop_count, body_length = _HEADER.unpack_from(data, 0)
            offset = _HEADER.size
            strings = []  # the six addressing fields, then the hops
            for _ in range(6 + hop_count):
                (length,) = _STRING_LENGTH.unpack_from(data, offset)
                offset += _STRING_LENGTH.size + length
                strings.append(data[offset - length : offset].decode())
        except struct.error as error:
            raise ValueError(f"truncated envelope frame: {error}") from error
        # Offsets advance by the *declared* lengths, so one comparison rejects
        # both a length that overruns the buffer and trailing bytes.
        if propagate > 1 or offset + body_length != len(data):
            raise ValueError("envelope frame lengths do not add up to the packet")
        return cls(*strings[:6], ttl, bool(propagate), strings[6:], data[offset:])

    @property
    def source_peer_id(self) -> PeerID:
        """The sender's :class:`PeerID`."""
        return PeerID.from_urn(self.src_peer)

    def message(self) -> Message:
        """Deserialise the carried JXTA message."""
        return Message.from_bytes(self.body)


#: Listener signature: ``listener(envelope, message)``.
EndpointListener = Callable[[EndpointEnvelope, Message], None]


def _urn(peer_id: PeerID | str) -> str:
    return peer_id.to_urn() if isinstance(peer_id, PeerID) else peer_id


class EndpointService:
    """Per-peer message delivery service.

    Parameters
    ----------
    peer:
        The owning :class:`~repro.jxta.peer.Peer`; the endpoint uses its node,
        simulator, noise source and metrics registry.
    """

    SERVICE_NAME = "jxta.service.endpoint"

    def __init__(self, peer: "Peer") -> None:
        self.peer = peer
        self.node = peer.node
        self._listeners: Dict[Tuple[str, str], EndpointListener] = {}
        #: peer URN -> network address, learned from advertisements and traffic.
        self._address_book: Dict[str, str] = {peer.peer_id.to_urn(): peer.node.address}
        #: peer URN -> network address of rendez-vous peers this peer is connected to.
        self._rendezvous: Dict[str, str] = {}
        #: peer URN -> network address of connected clients (when *this* peer is a rdv).
        self._clients: Dict[str, str] = {}
        #: Recently seen envelope ids (duplicate suppression).
        self._seen = BoundedIdSet(4096)
        self.metrics = peer.metrics
        self.node.add_handler(self._on_packet)

    # ----------------------------------------------------------- listeners

    def register_listener(
        self, service: str, param: str, listener: EndpointListener
    ) -> None:
        """Register ``listener`` for envelopes addressed to (service, param)."""
        self._listeners[(service, param)] = listener

    def unregister_listener(self, service: str, param: str) -> None:
        """Remove a listener (missing registrations are ignored)."""
        self._listeners.pop((service, param), None)

    # --------------------------------------------------------- address book

    def learn_address(self, peer_id: PeerID | str, address: str) -> None:
        """Record that ``peer_id`` currently lives at network address ``address``.

        Addresses are learned from peer advertisements and refreshed from the
        source address of every received envelope, which is how pipes keep
        working when a peer's IP changes (the Pipe Binding Protocol relies on
        the stable peer UUID, not the address).
        """
        self._address_book[_urn(peer_id)] = address

    def known_address(self, peer_id: PeerID | str) -> Optional[str]:
        """The last known network address of a peer, or None."""
        return self._address_book.get(_urn(peer_id))

    def forget_address(self, peer_id: PeerID | str) -> None:
        """Drop a peer from the address book (used by failure-injection tests)."""
        self._address_book.pop(_urn(peer_id), None)

    # ------------------------------------------------------- rendezvous book

    def add_rendezvous(self, peer_id: PeerID | str, address: str) -> None:
        """Record a rendez-vous peer this peer is connected to."""
        self._rendezvous[_urn(peer_id)] = address
        self.learn_address(peer_id, address)

    def remove_rendezvous(self, peer_id: PeerID | str) -> None:
        """Drop a rendez-vous connection."""
        self._rendezvous.pop(_urn(peer_id), None)

    def rendezvous_connections(self) -> Dict[str, str]:
        """The rendez-vous peers this peer is connected to (URN -> address)."""
        return dict(self._rendezvous)

    def add_client(self, peer_id: PeerID | str, address: str) -> None:
        """Record a client peer connected to this rendez-vous."""
        self._clients[_urn(peer_id)] = address
        self.learn_address(peer_id, address)

    def remove_client(self, peer_id: PeerID | str) -> None:
        """Drop a connected client."""
        self._clients.pop(_urn(peer_id), None)

    def client_connections(self) -> Dict[str, str]:
        """The clients connected to this rendez-vous (URN -> address)."""
        return dict(self._clients)

    # ----------------------------------------------------------------- send

    def send(
        self,
        dest_peer: PeerID,
        message: Message,
        service: str,
        param: str = "",
        *,
        ttl: int = DEFAULT_PROPAGATE_TTL,
    ) -> bool:
        """Send a message to one peer for the given service.

        Tries a direct transport first (TCP then HTTP); if neither endpoint
        can reach the other directly, relays through a known router peer
        (the Endpoint Routing Protocol).  Returns True when the envelope was
        handed to the network, False when no route exists.
        """
        envelope = self._make_envelope(
            dest_peer.to_urn(), message, service, param, propagate=False, ttl=ttl
        )
        return self._dispatch_unicast(envelope)

    def send_to_address(
        self,
        address: str,
        message: Message,
        service: str,
        param: str = "",
        *,
        ttl: int = DEFAULT_PROPAGATE_TTL,
    ) -> bool:
        """Send a message to whatever peer answers at a known network address.

        Used during bootstrap, before the destination's :class:`PeerID` is
        known -- typically the first lease request a peer sends to a
        configured rendez-vous address.  Returns True when the envelope was
        handed to the network.
        """
        envelope = self._make_envelope(ANY_PEER, message, service, param, propagate=False, ttl=ttl)
        if address == self.node.address:
            self._deliver_local(envelope)
            return True
        return self._send_packet(address, envelope)

    def propagate(
        self,
        message: Message,
        service: str,
        param: str = "",
        *,
        ttl: int = DEFAULT_PROPAGATE_TTL,
    ) -> int:
        """Broadcast a message for the given service to every peer propagation reaches.

        Propagation combines IP multicast on the local segment with unicast
        re-propagation through connected rendez-vous peers; duplicate
        envelopes are suppressed by id on every hop.  Returns the number of
        outbound sends performed.
        """
        envelope = self._make_envelope(
            PROPAGATE_DESTINATION, message, service, param, propagate=True, ttl=ttl
        )
        # Mark our own envelope as seen so a multicast echo is not re-handled.
        self._seen.seen(envelope.envelope_id)
        return self._dispatch_propagate(envelope, exclude_address=None)

    def _make_envelope(
        self,
        dst_peer: str,
        message: Message,
        service: str,
        param: str,
        *,
        propagate: bool,
        ttl: int,
    ) -> EndpointEnvelope:
        return EndpointEnvelope(
            src_peer=self.peer.peer_id.to_urn(),
            src_address=self.node.address,
            dst_peer=dst_peer,
            service=service,
            param=param,
            envelope_id=self.peer.next_id(""),
            ttl=ttl,
            propagate=propagate,
            body=message.to_bytes(),
        )

    def _next_hop(self, envelope: EndpointEnvelope) -> EndpointEnvelope:
        """``envelope`` as this peer relays it: same id, addressing and mode
        (unicast stays unicast, propagated stays propagated), one TTL hop
        spent, this peer appended to the path.  The body is carried, never
        re-encoded."""
        return replace(
            envelope, ttl=envelope.ttl - 1, hops=[*envelope.hops, self.peer.peer_id.to_urn()]
        )

    # --------------------------------------------------------- unicast path

    def _dispatch_unicast(self, envelope: EndpointEnvelope) -> bool:
        if envelope.dst_peer == self.peer.peer_id.to_urn():
            # Loopback: deliver locally without touching the network.
            self._deliver_local(envelope)
            return True
        address = self._address_book.get(envelope.dst_peer)
        if address is not None and self._send_packet(address, envelope):
            return True
        return self._relay_through_router(envelope)

    def _send_packet(self, address: str, envelope: EndpointEnvelope) -> bool:
        """Send directly to ``address`` over TCP, then HTTP.

        Whether a transport can carry the packet is the network's decision,
        taken once, on the packet itself: a refused attempt raises and counts
        as sent nowhere (the network counts the refusal).
        """
        node = self.node
        payload = envelope.to_bytes()
        for transport in _UNICAST_TRANSPORTS:
            try:
                node.send(Packet(node.address, address, payload, transport=transport))
            except NetworkError:
                continue
            self.metrics.counter("endpoint_sent").increment()
            return True
        self.metrics.counter("endpoint_unroutable").increment()
        return False

    def _relay_through_router(self, envelope: EndpointEnvelope) -> bool:
        """Endpoint Routing Protocol: hand the envelope to a router peer."""
        if envelope.ttl <= 0:
            self.metrics.counter("endpoint_ttl_expired").increment()
            return False
        relayed = self._next_hop(envelope)
        for address in self._router_candidates():
            if address == self.node.address:
                continue
            if self._send_packet(address, relayed):
                self.metrics.counter("endpoint_relayed").increment()
                return True
        self.metrics.counter("endpoint_no_route").increment()
        return False

    def _router_candidates(self) -> List[str]:
        """The connected rendez-vous peers, which also route."""
        return list(self._rendezvous.values())

    # -------------------------------------------------------- propagate path

    def _dispatch_propagate(
        self, envelope: EndpointEnvelope, *, exclude_address: Optional[str]
    ) -> int:
        sends = 0
        network = self.node.network
        if network is None:
            return 0
        # 1. IP multicast on the local segment (if we have the interface).
        if self.node.supports(TransportKind.MULTICAST):
            packet = Packet(
                self.node.address,
                Packet.MULTICAST_ADDRESS,
                envelope.to_bytes(),
                transport=TransportKind.MULTICAST.value,
            )
            try:
                self.node.send(packet)
                sends += 1
            except NetworkError:
                pass
        # 2. Unicast to connected rendez-vous peers (and, when we are the
        #    rendez-vous, to our connected clients).
        for address in {**self._rendezvous, **self._clients}.values():
            if address in (self.node.address, exclude_address):
                continue
            if self._send_packet(address, envelope):
                sends += 1
        self.metrics.counter("endpoint_propagated").increment(sends if sends else 0)
        return sends

    # --------------------------------------------------------------- receive

    def _on_packet(self, packet: Packet) -> None:
        try:
            envelope = EndpointEnvelope.from_bytes(packet.payload)
        except Exception:  # malformed payloads are counted and dropped
            self.metrics.counter("endpoint_malformed").increment()
            return
        # Refresh the sender's address from live traffic.
        self._address_book[envelope.src_peer] = envelope.src_address
        if envelope.propagate:
            self._receive_propagated(envelope)
        else:
            self._receive_unicast(envelope)

    def _receive_unicast(self, envelope: EndpointEnvelope) -> None:
        if envelope.dst_peer in (self.peer.peer_id.to_urn(), ANY_PEER):
            self._deliver_local(envelope)
            return
        # Not for us: we are acting as a relay (router/rendez-vous peer).
        if not (self.peer.config.router or self.peer.config.rendezvous):
            self.metrics.counter("endpoint_misdelivered").increment()
            return
        if envelope.ttl <= 0:
            self.metrics.counter("endpoint_ttl_expired").increment()
            return
        forwarded = self._next_hop(envelope)
        address = self._address_book.get(envelope.dst_peer)
        if address is not None and self._send_packet(address, forwarded):
            self.metrics.counter("endpoint_forwarded").increment()
            return
        # Last resort: try another router that is not already on the path.
        for candidate in self._router_candidates():
            if candidate in (self.node.address, envelope.src_address):
                continue
            if self._send_packet(candidate, forwarded):
                self.metrics.counter("endpoint_forwarded").increment()
                return
        self.metrics.counter("endpoint_undeliverable").increment()

    def _receive_propagated(self, envelope: EndpointEnvelope) -> None:
        if self._seen.seen(envelope.envelope_id):
            self.metrics.counter("endpoint_duplicate_suppressed").increment()
            return
        self._deliver_local(envelope)
        # Rendez-vous peers re-propagate towards their other clients/rdvs.
        if (self.peer.config.rendezvous or self.peer.config.router) and envelope.ttl > 0:
            self._dispatch_propagate(
                self._next_hop(envelope), exclude_address=envelope.src_address
            )

    def _deliver_local(self, envelope: EndpointEnvelope) -> None:
        listener = self._listeners.get((envelope.service, envelope.param))
        if listener is None:
            listener = self._listeners.get((envelope.service, ""))
        if listener is None:
            self.metrics.counter("endpoint_unhandled").increment()
            return
        self.metrics.counter("endpoint_delivered").increment()
        try:
            listener(envelope, envelope.message())
        except Exception:
            # A misbehaving service must not take the whole endpoint down.
            self.metrics.counter("endpoint_listener_errors").increment()


__all__ = [
    "DEFAULT_PROPAGATE_TTL",
    "EndpointEnvelope",
    "EndpointListener",
    "EndpointService",
    "PROPAGATE_DESTINATION",
]
