"""Wire-service lookup: the "Connections" block of the TPS architecture.

"This block creates readers, input pipes and output pipes from an
advertisement.  It sends and receives new messages with the underlying
JXTA-WIRE service."  (paper, Section 3.4)

Mirroring the paper's ``WireServiceFinder`` (Figure 17), a
:class:`TPSWireServiceFinder` takes a peer-group advertisement that hosts the
WIRE service, instantiates the group locally, looks the wire service up and
hands out :class:`TPSMyInputPipe` / :class:`TPSMyOutputPipe` wrappers around
the wire pipes.
"""

from __future__ import annotations

from typing import Optional

from repro.core.exceptions import PSException
from repro.jxta.advertisement import PeerGroupAdvertisement, PipeAdvertisement
from repro.jxta.errors import JxtaError
from repro.jxta.message import Message
from repro.jxta.peergroup import PeerGroup
from repro.jxta.pipes import PipeMessageListener
from repro.jxta.wire import SendReceipt, WireInputPipe, WireOutputPipe, WireService


class WireServiceFinderException(PSException):
    """Raised when the wire service (or its pipe) cannot be found or created."""


class TPSMyInputPipe:
    """TPS-side wrapper around a wire input pipe plus its source advertisement."""

    def __init__(
        self,
        pipe: WireInputPipe,
        advertisement: PeerGroupAdvertisement,
        wire_service: Optional[WireService] = None,
    ) -> None:
        self.pipe = pipe
        self.advertisement = advertisement
        self._wire_service = wire_service

    @property
    def pipe_id(self):
        """The underlying pipe's ID."""
        return self.pipe.pipe_id

    @property
    def received_count(self) -> int:
        """Number of messages delivered to this pipe."""
        return self.pipe.received_count

    def add_listener(self, listener: PipeMessageListener) -> None:
        """Register a message listener on the underlying pipe."""
        self.pipe.add_listener(listener)

    def close(self) -> None:
        """Close the underlying pipe, deregistering it from the wire service.

        Routing the close through :meth:`WireService.close_input_pipe` (when
        the service is known) removes the pipe from the service's delivery
        table, so late messages count as ``wire_unbound_deliveries`` instead
        of being silently eaten by a closed ``InputPipe.receive``.
        """
        if self._wire_service is not None:
            self._wire_service.close_input_pipe(self.pipe)
        else:
            self.pipe.close()


class TPSMyOutputPipe:
    """TPS-side wrapper around a wire output pipe plus its source advertisement."""

    def __init__(self, pipe: WireOutputPipe, advertisement: PeerGroupAdvertisement) -> None:
        self.pipe = pipe
        self.advertisement = advertisement

    @property
    def pipe_id(self):
        """The underlying pipe's ID."""
        return self.pipe.pipe_id

    def send(self, message: Message) -> SendReceipt:
        """Send a message on the underlying wire pipe (``msg.dup()`` is handled there)."""
        return self.pipe.send(message)

    def add_failure_listener(self, listener) -> None:
        """Register a terminal-delivery-failure listener on the wire pipe."""
        self.pipe.add_failure_listener(listener)

    def resolved_targets(self) -> int:
        """Number of remote peers currently resolved for this pipe."""
        return len(self.pipe.resolved_peers())

    def close(self) -> None:
        """Close the underlying pipe."""
        self.pipe.close()


class TPSWireServiceFinder:
    """Finds the WIRE service advertised by a TPS peer-group advertisement.

    Usage (mirroring Figure 17)::

        finder = TPSWireServiceFinder(world_group, pg_advertisement)
        finder.lookup_wire_service()
        input_pipe = finder.create_input_pipe(listener)
        output_pipe = finder.create_output_pipe()
    """

    def __init__(self, peer_group: PeerGroup, pg_advertisement: PeerGroupAdvertisement) -> None:
        self.peer_group = peer_group
        self.pg_advertisement = pg_advertisement
        self.wire_group: Optional[PeerGroup] = None
        self.wire_service: Optional[WireService] = None
        self.my_input_pipe: Optional[TPSMyInputPipe] = None
        self.my_output_pipe: Optional[TPSMyOutputPipe] = None

    # ---------------------------------------------------------------- lookup

    def lookup_wire_service(self) -> WireService:
        """Instantiate the advertised group and look up its wire service."""
        if self.peer_group is None or self.pg_advertisement is None:
            raise WireServiceFinderException("Unable to lookup the wire service")
        try:
            self.wire_group = self.peer_group.new_group(self.pg_advertisement)
            self.wire_service = self.wire_group.lookup_service(WireService.WireName)
        except JxtaError as exc:
            raise WireServiceFinderException("Unable to lookup the wire service") from exc
        return self.wire_service

    def get_pipe_advertisement(self) -> PipeAdvertisement:
        """The pipe advertisement carried by the group's wire service advertisement."""
        service = self.pg_advertisement.service(WireService.WireName)
        if service is None or service.get_pipe() is None:
            raise WireServiceFinderException(
                "the peer-group advertisement does not carry a wire service pipe"
            )
        return service.get_pipe()

    # ----------------------------------------------------------------- pipes

    def create_input_pipe(
        self,
        listener: Optional[PipeMessageListener] = None,
        *,
        processing_cost: float = 0.0,
    ) -> TPSMyInputPipe:
        """Create the wire input pipe used to receive events for this type."""
        wire = self._require_wire()
        pipe_advertisement = self.get_pipe_advertisement()
        try:
            pipe = wire.create_input_pipe(
                pipe_advertisement, listener, processing_cost=processing_cost
            )
        except JxtaError as exc:
            raise WireServiceFinderException("Unable to create the input pipe.") from exc
        self.my_input_pipe = TPSMyInputPipe(pipe, self.pg_advertisement, wire)
        return self.my_input_pipe

    def create_output_pipe(
        self,
        *,
        extra_send_cost: float = 0.0,
        reliable: bool = False,
    ) -> TPSMyOutputPipe:
        """Create the wire output pipe used to publish events for this type."""
        wire = self._require_wire()
        pipe_advertisement = self.get_pipe_advertisement()
        try:
            pipe = wire.create_output_pipe(
                pipe_advertisement, extra_send_cost=extra_send_cost, reliable=reliable
            )
        except JxtaError as exc:
            raise WireServiceFinderException("Unable to create the output pipe.") from exc
        self.my_output_pipe = TPSMyOutputPipe(pipe, self.pg_advertisement)
        return self.my_output_pipe

    def publish(self, message: Message) -> SendReceipt:
        """Send a message on the output pipe (Figure 17's ``publish``)."""
        if self.my_output_pipe is None:
            raise WireServiceFinderException("no output pipe has been created")
        return self.my_output_pipe.send(message.dup())

    def _require_wire(self) -> WireService:
        if self.wire_service is None:
            self.lookup_wire_service()
        assert self.wire_service is not None
        return self.wire_service


__all__ = [
    "TPSMyInputPipe",
    "TPSMyOutputPipe",
    "TPSWireServiceFinder",
    "WireServiceFinderException",
]
