"""Wire-service lookup: the "Connections" block of the TPS architecture.

"This block creates readers, input pipes and output pipes from an
advertisement.  It sends and receives new messages with the underlying
JXTA-WIRE service."  (paper, Section 3.4)

Mirroring the paper's ``WireServiceFinder`` (Figure 17), a
:class:`TPSWireServiceFinder` takes a peer-group advertisement that hosts the
WIRE service, instantiates the group locally, looks the wire service up and
opens the wire pipes on it.  The finder *is* the engine's attachment to that
advertisement: it keeps the :class:`~repro.jxta.wire.WireOutputPipe` it
publishes on and, while somebody is subscribed, the
:class:`~repro.jxta.wire.WireInputPipe` whose listener is the engine's
reader.  Closing a wire input pipe is its own business (it leaves the wire
service's delivery table and its PBP binding), so nothing here wraps it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.exceptions import PSException
from repro.jxta.advertisement import PeerGroupAdvertisement, PipeAdvertisement
from repro.jxta.errors import JxtaError
from repro.jxta.peergroup import PeerGroup
from repro.jxta.pipes import PipeMessageListener
from repro.jxta.wire import WireInputPipe, WireOutputPipe, WireService


class WireServiceFinderException(PSException):
    """Raised when the wire service (or its pipe) cannot be found or created."""


class TPSWireServiceFinder:
    """Finds the WIRE service advertised by a TPS peer-group advertisement.

    Usage (mirroring Figure 17)::

        finder = TPSWireServiceFinder(world_group, pg_advertisement)
        finder.lookup_wire_service()
        finder.create_input_pipe(listener)   # -> finder.input_pipe
        finder.create_output_pipe()          # -> finder.output_pipe
    """

    def __init__(self, peer_group: PeerGroup, pg_advertisement: PeerGroupAdvertisement) -> None:
        self.peer_group = peer_group
        self.pg_advertisement = pg_advertisement
        self.wire_group: Optional[PeerGroup] = None
        self.wire_service: Optional[WireService] = None
        self.input_pipe: Optional[WireInputPipe] = None
        self.output_pipe: Optional[WireOutputPipe] = None

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
    ) -> WireInputPipe:
        """Open the wire input pipe used to receive events for this type."""
        wire = self._require_wire()
        pipe_advertisement = self.get_pipe_advertisement()
        try:
            self.input_pipe = wire.create_input_pipe(
                pipe_advertisement, listener, processing_cost=processing_cost
            )
        except JxtaError as exc:
            raise WireServiceFinderException("Unable to create the input pipe.") from exc
        return self.input_pipe

    def create_output_pipe(
        self,
        *,
        extra_send_cost: float = 0.0,
        reliable: bool = False,
    ) -> WireOutputPipe:
        """Open the wire output pipe used to publish events for this type."""
        wire = self._require_wire()
        pipe_advertisement = self.get_pipe_advertisement()
        try:
            self.output_pipe = wire.create_output_pipe(
                pipe_advertisement, extra_send_cost=extra_send_cost, reliable=reliable
            )
        except JxtaError as exc:
            raise WireServiceFinderException("Unable to create the output pipe.") from exc
        return self.output_pipe

    def _require_wire(self) -> WireService:
        if self.wire_service is None:
            self.lookup_wire_service()
        assert self.wire_service is not None
        return self.wire_service


__all__ = ["TPSWireServiceFinder", "WireServiceFinderException"]
