"""Pipe Binding Protocol (PBP).

"The PBP is responsible for keeping the different peers of a pipe bound
together.  Even if the peers are moving in the network (i.e., if their IP
addresses do not remain the same), they can continue to use the same pipes to
send/receive messages. [...] instead of counting upon a fixed IP address, the
protocol relies on a fixed Universal Unique IDentifier (UUID) for each peer."
(paper, Section 2.2, Figure 5)

The binding service keeps two tables:

* *local bindings*: pipe ID -> the input pipes this peer has opened;
* *remote bindings*: pipe ID -> the peers known to have opened input pipes.

When an input pipe is created the binding is announced (propagated) so
existing output pipes learn about it; when an output pipe is created a
binding query is propagated and peers with local bindings respond.  Because
the tables are keyed by :class:`PeerID` (not by network address), a peer that
crashes and comes back at a new address keeps receiving messages -- the
endpoint simply refreshes the address from new traffic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.jxta.advertisement import PipeAdvertisement
from repro.jxta.endpoint import EndpointEnvelope
from repro.jxta.errors import AdvertisementError
from repro.jxta.ids import PeerID, PipeID
from repro.jxta.message import Message
from repro.jxta.pipes import InputPipe, PipeMessageListener
from repro.jxta.resolver import ResolverQuery, ResolverResponse
from repro.serialization.xml_codec import XmlElement, XmlParseError, parse_xml, to_xml

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.jxta.peergroup import PeerGroup


class PipeBindingService:
    """Per-group input pipes, binding resolution and plain-pipe data receipt."""

    SERVICE_NAME = "jxta.service.pipe"
    DATA_SERVICE_NAME = "jxta.service.pipedata"
    HANDLER_NAME = "urn:jxta:pbp"

    def __init__(self, group: "PeerGroup") -> None:
        self.group = group
        self.peer = group.peer
        #: pipe URN -> input pipes opened locally.
        self._local: Dict[str, List[InputPipe]] = {}
        #: pipe URN -> {peer URN -> that peer's ID, parsed when the binding
        #: was learned} for remote bindings.
        self._remote: Dict[str, Dict[str, PeerID]] = {}
        group.resolver.register_handler(self.HANDLER_NAME, self)

    # --------------------------------------------------------- pipe creation

    def create_input_pipe(
        self,
        advertisement: PipeAdvertisement,
        listener: Optional[PipeMessageListener] = None,
        *,
        processing_cost: float = 0.0,
        announce: bool = True,
    ) -> InputPipe:
        """Open an input pipe for ``advertisement`` and announce the binding."""
        pipe = InputPipe(
            advertisement,
            self,
            listener=listener,
            processing_cost=processing_cost,
        )
        urn = advertisement.pipe_id.to_urn()
        if urn not in self._local:
            # First local input pipe for this pipe: listen for data envelopes.
            self.peer.endpoint.register_listener(
                self.DATA_SERVICE_NAME, urn, self._on_data_envelope
            )
        self.peer.metrics.counter("pipes_input_created").increment()
        self.bind(pipe, announce=announce)
        return pipe

    def bind(self, pipe: InputPipe, *, announce: bool = True) -> None:
        """Record ``pipe`` as a local binding and announce it (``PipeBind``)."""
        self._local.setdefault(pipe.pipe_id.to_urn(), []).append(pipe)
        if announce:
            self._announce(pipe.pipe_id, bind=True)

    def unbind(self, pipe: InputPipe) -> None:
        """Remove a local binding (called by :meth:`InputPipe.close`)."""
        urn = pipe.pipe_id.to_urn()
        pipes = self._local.get(urn, [])
        if pipe in pipes:
            pipes.remove(pipe)
        if not pipes and urn in self._local:
            del self._local[urn]
            self.peer.endpoint.unregister_listener(self.DATA_SERVICE_NAME, urn)
            self._announce(pipe.pipe_id, bind=False)

    # ------------------------------------------------------------ resolution

    def resolve(self, pipe_id: PipeID) -> str:
        """Propagate a binding query for ``pipe_id``; returns the query id."""
        query = XmlElement("PipeResolve")
        query.add("Pipe", pipe_id.to_urn())
        query.add("Peer", self.peer.peer_id.to_urn())
        self.peer.metrics.counter("pbp_resolve_queries").increment()
        return self.group.resolver.send_query(
            self.HANDLER_NAME, to_xml(query, declaration=False)
        )

    def resolved_peers(self, pipe_id: PipeID) -> List[PeerID]:
        """Peers known to have an input pipe bound for ``pipe_id`` (never self), in URN order."""
        bindings = self._remote.get(pipe_id.to_urn(), {})
        return [bindings[peer_urn] for peer_urn in sorted(bindings)]

    def forget_peer(self, peer_id: PeerID | str) -> int:
        """Drop every remote binding of one peer; returns bindings removed.

        The membership layer calls this when a peer is *confirmed* dead, so
        ``resolved_peers`` stops offering it as a wire target immediately --
        the symmetric operation to a ``PipeUnbind`` announcement the dead
        peer can no longer send.  A peer that later rejoins re-announces (or
        answers the next ``PipeResolve``) and is re-recorded normally.
        """
        urn = peer_id.to_urn() if isinstance(peer_id, PeerID) else peer_id
        removed = 0
        for bindings in self._remote.values():
            if bindings.pop(urn, None) is not None:
                removed += 1
        if removed:
            self.peer.metrics.counter("pbp_bindings_forgotten").increment(removed)
        return removed

    def local_pipes(self, pipe_id: PipeID) -> List[InputPipe]:
        """Input pipes this peer has open for ``pipe_id``."""
        return list(self._local.get(pipe_id.to_urn(), []))

    def has_local_binding(self, pipe_id: PipeID) -> bool:
        """Whether this peer has at least one open input pipe for ``pipe_id``."""
        return bool(self._local.get(pipe_id.to_urn()))

    def _announce(self, pipe_id: PipeID, *, bind: bool) -> None:
        announcement = XmlElement("PipeBind" if bind else "PipeUnbind")
        announcement.add("Pipe", pipe_id.to_urn())
        announcement.add("Peer", self.peer.peer_id.to_urn())
        announcement.add("Address", self.peer.node.address)
        self.peer.metrics.counter("pbp_announcements").increment()
        self.group.resolver.send_query(
            self.HANDLER_NAME, to_xml(announcement, declaration=False)
        )

    # ------------------------------------------------------ resolver handler

    def process_query(self, query: ResolverQuery) -> Optional[str]:
        """Handle binding announcements and resolution queries.

        Malformed bodies are counted and dropped, not raised into the
        resolver dispatch loop.
        """
        try:
            element = parse_xml(query.body)
        except XmlParseError:
            self.peer.metrics.counter("pbp_malformed").increment()
            return None
        if element.name == "PipeBind":
            self._record_remote(
                element.child_text("Pipe"),
                element.child_text("Peer"),
                element.child_text("Address"),
            )
            return None
        if element.name == "PipeUnbind":
            pipe_urn = element.child_text("Pipe")
            peer_urn = element.child_text("Peer")
            self._remote.get(pipe_urn, {}).pop(peer_urn, None)
            return None
        if element.name == "PipeResolve":
            pipe_urn = element.child_text("Pipe")
            if not self._local.get(pipe_urn):
                return None
            response = XmlElement("PipeBound")
            response.add("Pipe", pipe_urn)
            response.add("Peer", self.peer.peer_id.to_urn())
            response.add("Address", self.peer.node.address)
            return to_xml(response, declaration=False)
        return None

    def process_response(self, response: ResolverResponse) -> None:
        """Record a ``PipeBound`` response to one of our resolution queries."""
        try:
            element = parse_xml(response.body)
        except XmlParseError:
            self.peer.metrics.counter("pbp_malformed").increment()
            return
        if element.name == "PipeBound":
            self._record_remote(
                element.child_text("Pipe"),
                element.child_text("Peer"),
                element.child_text("Address"),
            )

    def _record_remote(self, pipe_urn: str, peer_urn: str, address: str) -> None:
        if not pipe_urn or not peer_urn:
            return
        if peer_urn == self.peer.peer_id.to_urn():
            return
        try:
            # The URN comes off the network: parsed here, once, so a malformed
            # one is dropped on entry instead of failing every later send.
            peer_id = PeerID.from_urn(peer_urn)
        except AdvertisementError:
            self.peer.metrics.counter("pbp_malformed").increment()
            return
        self._remote.setdefault(pipe_urn, {})[peer_urn] = peer_id
        if address:
            self.peer.endpoint.learn_address(peer_urn, address)
        self.peer.metrics.counter("pbp_bindings_learned").increment()

    # ------------------------------------------------------------ data plane

    def _on_data_envelope(self, envelope: EndpointEnvelope, message: Message) -> None:
        pipes = self._local.get(envelope.param, [])
        if not pipes:
            self.peer.metrics.counter("pipes_unbound_deliveries").increment()
            return
        source = envelope.source_peer_id
        self.peer.metrics.counter("pipes_messages_received").increment()
        for pipe in list(pipes):
            pipe.receive(message, source)


__all__ = ["PipeBindingService"]
