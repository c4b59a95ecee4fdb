"""Pipes: virtual communication channels between peers.

"In order for the peers to communicate, they need a mechanism that does not
depend on their network.  This mechanism is the pipe.  A pipe is a virtual
communication channel used to send messages.  The basic pipes are
asynchronous and uni-directionnal but some other variants are available
(e.g., the very new bi-directional pipes or the many-to-many pipes (called
wire)).  Pipes are not bound to any physical address (like IP ones)."
(paper, Section 2.1)

This module defines the pipe kinds and the :class:`InputPipe` receiving end.
Binding (which peers listen on which pipe) is managed by the Pipe Binding
Protocol in :mod:`repro.jxta.pipe_binding`; the sending end is the
many-to-many wire output pipe of :mod:`repro.jxta.wire`, the one TPS uses.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.jxta.advertisement import PipeAdvertisement
from repro.jxta.errors import PipeError
from repro.jxta.ids import PeerID, PipeID
from repro.jxta.message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.jxta.pipe_binding import PipeBindingService


class PipeKind(str, enum.Enum):
    """The pipe variants the substrate supports."""

    #: One sender, one receiver, asynchronous and unidirectional.
    UNICAST = "JxtaUnicast"
    #: Many-to-many pipe provided by the WIRE service.
    WIRE = "JxtaWire"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Input-pipe listeners receive ``(message, source_peer_id)``.
PipeMessageListener = Callable[[Message, PeerID], None]


class InputPipe:
    """The receiving end of a pipe on one peer.

    Messages delivered to the pipe are handed to every registered listener.
    Closing the pipe removes its binding (so remote output pipes stop
    resolving this peer) and drops its listeners.
    """

    def __init__(
        self,
        advertisement: PipeAdvertisement,
        binding_service: "PipeBindingService",
        *,
        listener: Optional[PipeMessageListener] = None,
        processing_cost: float = 0.0,
    ) -> None:
        self.advertisement = advertisement
        self._binding_service = binding_service
        self._listeners: List[PipeMessageListener] = []
        #: Extra virtual CPU time charged per delivered message, representing
        #: the work the layer above does in its receive callback.  The wire
        #: service adds this to its per-message service time.
        self.processing_cost = processing_cost
        self.closed = False
        self.received_count = 0
        if listener is not None:
            self.add_listener(listener)

    @property
    def pipe_id(self) -> PipeID:
        """The pipe's stable identifier."""
        return self.advertisement.pipe_id

    @property
    def name(self) -> str:
        """The pipe's advertised name."""
        return self.advertisement.name

    def add_listener(self, listener: PipeMessageListener) -> None:
        """Register a listener invoked for every delivered message."""
        if self.closed:
            raise PipeError("cannot add a listener to a closed input pipe")
        self._listeners.append(listener)

    def remove_listener(self, listener: PipeMessageListener) -> None:
        """Unregister a listener (missing listeners are ignored)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def listener_count(self) -> int:
        """Number of registered listeners."""
        return len(self._listeners)

    def receive(self, message: Message, source: PeerID) -> None:
        """Deliver a message to every listener (called by the pipe/wire service)."""
        if self.closed:
            return
        self.received_count += 1
        for listener in list(self._listeners):
            listener(message, source)

    def close(self) -> None:
        """Close the pipe and remove its binding.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        self._binding_service.unbind(self)
        self._listeners.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InputPipe({self.name!r}, {self.pipe_id!r})"


__all__ = ["InputPipe", "PipeKind", "PipeMessageListener"]
