"""Network packets exchanged between simulated nodes.

A :class:`Packet` is the unit the simulated network moves around.  The JXTA
substrate serialises its messages to bytes before handing them to the network,
so packets carry opaque payloads plus the addressing metadata the transports
and firewalls need.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(eq=False)
class Packet:
    """A single datagram travelling through the simulated network.

    A packet is its own identity (``eq=False``): two packets with the same
    fields are still two datagrams.  Relay hops and their TTL live in the
    JXTA endpoint envelope inside ``payload``, not here.

    Attributes
    ----------
    source:
        Network address (node name) of the sender.
    destination:
        Network address of the receiver, or ``"*"`` for multicast.
    payload:
        Opaque serialised bytes (a JXTA message, usually).
    protocol:
        Name of the logical protocol carried (``"jxta"`` by default); used by
        firewalls to apply protocol-specific rules.
    transport:
        Transport kind used for this hop (``"tcp"``, ``"http"``, ``"multicast"``).
    """

    source: str
    destination: str
    payload: bytes
    protocol: str = "jxta"
    transport: str = "tcp"

    MULTICAST_ADDRESS = "*"

    @property
    def size(self) -> int:
        """Size of the payload in bytes."""
        return len(self.payload)

    @property
    def is_multicast(self) -> bool:
        """True when the packet targets every reachable node."""
        return self.destination == self.MULTICAST_ADDRESS

    def retargeted(self, destination: str) -> "Packet":
        """Return a copy of the packet addressed to ``destination``.

        Used when expanding a multicast packet into per-receiver deliveries.
        """
        return Packet(
            source=self.source,
            destination=destination,
            payload=self.payload,
            protocol=self.protocol,
            transport=self.transport,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Packet({self.source}->{self.destination} "
            f"{self.size}B via {self.transport})"
        )


__all__ = ["Packet"]
