"""Transport models: TCP, HTTP relays and IP multicast.

JXTA peers may carry several network interfaces (the paper's footnote lists
TCP, IP-multicast, HTTP, Bluetooth, BEEP...).  Two peers can talk directly
only if they share a transport that is not blocked by a firewall; otherwise
the Endpoint Routing Protocol relays the message through a rendez-vous/router
peer, typically over HTTP (Figure 6 of the paper).

Each transport model contributes a fixed per-packet overhead (connection and
framing costs) and a reliability flag.  Multicast is unreliable and reaches
every node attached to the same network segment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TransportKind(str, enum.Enum):
    """The transports the simulated peers may expose."""

    TCP = "tcp"
    HTTP = "http"
    MULTICAST = "multicast"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Transport:
    """Static properties of one transport kind.

    Attributes
    ----------
    kind:
        Which transport this describes.
    per_packet_overhead:
        Extra one-way delay (seconds) added to every packet sent over this
        transport, modelling connection setup amortisation and framing.
    reliable:
        Whether the transport retransmits lost packets.  The simulated network
        only applies random loss to unreliable transports.
    point_to_point:
        Whether the transport addresses a single destination (TCP/HTTP) or the
        whole segment (multicast).
    """

    kind: TransportKind
    per_packet_overhead: float
    reliable: bool
    point_to_point: bool


#: Plain TCP between two peers on the same LAN.
TcpTransport = Transport(
    kind=TransportKind.TCP,
    per_packet_overhead=0.0004,
    reliable=True,
    point_to_point=True,
)

#: HTTP used for firewall traversal and relaying; noticeably more per-packet
#: overhead than raw TCP (request/response framing, relay hop).
HttpTransport = Transport(
    kind=TransportKind.HTTP,
    per_packet_overhead=0.0035,
    reliable=True,
    point_to_point=True,
)

#: IP multicast used by discovery on the local segment; unreliable.
MulticastTransport = Transport(
    kind=TransportKind.MULTICAST,
    per_packet_overhead=0.0002,
    reliable=False,
    point_to_point=False,
)

_BY_KIND = {
    TransportKind.TCP: TcpTransport,
    TransportKind.HTTP: HttpTransport,
    TransportKind.MULTICAST: MulticastTransport,
}


def transport_for(kind: TransportKind | str) -> Transport:
    """Look up the :class:`Transport` description for a kind or its wire name.

    A member hashes and compares as its wire name (the enum subclasses
    ``str``), so both find the entry; only a miss converts, which raises
    ``ValueError`` for an unknown name.
    """
    transport = _BY_KIND.get(kind)
    return transport if transport is not None else _BY_KIND[TransportKind(kind)]


__all__ = [
    "HttpTransport",
    "MulticastTransport",
    "TcpTransport",
    "Transport",
    "TransportKind",
    "transport_for",
]
