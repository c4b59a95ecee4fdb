"""JXTA-WIRE: the bare wire service, used as the lower-bound reference point.

"Even if JXTA-WIRE alone is not comparable with SR-TPS and SR-JXTA (since it
does not insure the properties described in Section 4.4), we use it here as a
(lower bound) reference point."  (paper, Section 5)

The wire-only publisher and subscriber therefore provide *none* of the SR
functionality: no advertisement search/minimisation (both sides are handed
the same pre-agreed advertisement out of band), no multi-advertisement
management, no duplicate filtering and no typed payloads -- just raw bytes on
a wire pipe.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.jxta.advertisement import (
    PeerGroupAdvertisement,
    PipeAdvertisement,
    ServiceAdvertisement,
)
from repro.jxta.ids import PeerGroupID, PipeID
from repro.jxta.message import Message
from repro.jxta.peer import Peer
from repro.jxta.pipes import PipeKind
from repro.jxta.wire import SendReceipt, WireService


def shared_wire_advertisement(name: str = "JXTA-WIRE") -> PeerGroupAdvertisement:
    """Build the pre-agreed advertisement both sides of a wire-only run share.

    In a real deployment this corresponds to hard-coding the pipe
    advertisement in both programs (the typical JXTA-WIRE demo); in the
    simulation the benchmark harness creates it once and passes it to every
    participant.
    """
    pipe_advertisement = PipeAdvertisement(
        pipe_id=PipeID(), name=name, pipe_kind=PipeKind.WIRE.value
    )
    advertisement = PeerGroupAdvertisement(group_id=PeerGroupID(), name=f"WIRE${name}")
    advertisement.add_service(
        WireService.WireName,
        ServiceAdvertisement(
            name=WireService.WireName,
            version=WireService.WireVersion,
            uri=WireService.WireUri,
            code=WireService.WireCode,
            security=WireService.WireSecurity,
            keywords=name,
            pipe=pipe_advertisement,
        ),
    )
    return advertisement


class WirePublisher:
    """Publishes raw payloads on a wire pipe (no SR functionality)."""

    def __init__(self, peer: Peer, advertisement: PeerGroupAdvertisement) -> None:
        self.peer = peer
        self.advertisement = advertisement
        self.group = peer.world_group.new_group(advertisement)
        self.wire: WireService = self.group.lookup_service(WireService.WireName)
        pipe_advertisement = advertisement.service(WireService.WireName).get_pipe()
        self.output_pipe = self.wire.create_output_pipe(pipe_advertisement)
        self.messages_sent = 0

    @property
    def ready(self) -> bool:
        """Wire-only publishers are ready as soon as they are constructed."""
        return True

    def publish_bytes(self, payload: bytes) -> SendReceipt:
        """Send one raw payload to every bound subscriber."""
        message = Message()
        message.add("payload", payload)
        receipt = self.output_pipe.send(message)
        self.messages_sent += 1
        return receipt

    def publish_offer(self, offer) -> SendReceipt:
        """Benchmark-compatible entry point: send the offer's string form as bytes."""
        return self.publish_bytes(str(offer).encode("utf-8"))


class WireSubscriber:
    """Receives raw payloads from a wire pipe (no SR functionality)."""

    def __init__(
        self,
        peer: Peer,
        advertisement: PeerGroupAdvertisement,
        *,
        listener: Optional[Callable[[bytes], None]] = None,
    ) -> None:
        self.peer = peer
        self.advertisement = advertisement
        self.group = peer.world_group.new_group(advertisement)
        self.wire: WireService = self.group.lookup_service(WireService.WireName)
        pipe_advertisement = advertisement.service(WireService.WireName).get_pipe()
        self.payloads: List[bytes] = []
        self._listener = listener
        self.input_pipe = self.wire.create_input_pipe(pipe_advertisement, self._on_message)

    @property
    def ready(self) -> bool:
        """Wire-only subscribers are ready as soon as they are constructed."""
        return True

    def _on_message(self, message: Message, source) -> None:
        payload = message.get_bytes("payload")
        self.payloads.append(payload)
        if self._listener is not None:
            self._listener(payload)

    def received_count(self) -> int:
        """Number of payloads received so far (duplicates included -- no filtering)."""
        return len(self.payloads)

    def received_offers(self) -> List[bytes]:
        """The raw payloads received so far."""
        return list(self.payloads)

    def close(self) -> None:
        """Close the input pipe."""
        self.input_pipe.close()


__all__ = ["WirePublisher", "WireSubscriber", "shared_wire_advertisement"]
