"""Endpoint Routing Protocol (ERP) -- route inspection helpers.

"The ERP is used to route the different messages between the different peers.
This allows different peers to exchange messages even when they do not know
how to connect to each other (because of a firewall for example)."
(paper, Section 2.2, Figure 6)

The actual relaying behaviour is implemented inside the endpoint service
(:meth:`~repro.jxta.endpoint.EndpointService._relay_through_router` and the
forwarding logic in ``_receive_unicast``): when a peer cannot reach a
destination over any shared transport it hands the envelope to a router or
rendez-vous peer, which forwards it.

This module provides the protocol-level view: :class:`EndpointRouter` answers
"how would I reach that peer right now?" with a :class:`Route`, which tests
and ``examples/firewalled_peers.py`` use to inspect the topology without
sending traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

from repro.jxta.ids import PeerID
from repro.net.transport import TransportKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.jxta.peer import Peer


@dataclass
class Route:
    """A route from the local peer to a destination peer.

    ``hops`` lists the network addresses traversed after leaving the local
    peer (empty for a direct route); ``transport`` is the transport used for
    the first hop.
    """

    destination: str
    direct: bool
    transport: Optional[TransportKind]
    hops: List[str] = field(default_factory=list)

    @property
    def reachable(self) -> bool:
        """Whether any path (direct or relayed) was found."""
        return self.transport is not None or bool(self.hops)

    @property
    def hop_count(self) -> int:
        """Number of intermediate relays (0 for a direct route)."""
        return len(self.hops)


class EndpointRouter:
    """Answers route queries against the current address book and topology."""

    def __init__(self, peer: "Peer") -> None:
        self.peer = peer

    def find_route(self, destination: PeerID | str) -> Route:
        """Compute how the local peer would reach ``destination`` right now.

        The answer mirrors the endpoint's send logic: try a direct transport
        (TCP then HTTP), then a single relay through a known router or
        rendez-vous peer that can itself reach the destination directly.
        """
        dest_urn = destination.to_urn() if isinstance(destination, PeerID) else destination
        endpoint = self.peer.endpoint
        network = self.peer.node.network
        address = endpoint.known_address(dest_urn)
        if network is None or address is None:
            return Route(destination=dest_urn, direct=False, transport=None)
        for kind in (TransportKind.TCP, TransportKind.HTTP):
            if network.reachable(self.peer.node.address, address, kind):
                return Route(destination=dest_urn, direct=True, transport=kind)
        # Relayed: find a router we can reach that can reach the destination.
        for relay_address in endpoint._router_candidates():
            if relay_address == self.peer.node.address:
                continue
            for first_hop in (TransportKind.TCP, TransportKind.HTTP):
                if not network.reachable(self.peer.node.address, relay_address, first_hop):
                    continue
                for second_hop in (TransportKind.TCP, TransportKind.HTTP):
                    if network.reachable(relay_address, address, second_hop):
                        return Route(
                            destination=dest_urn,
                            direct=False,
                            transport=first_hop,
                            hops=[relay_address],
                        )
        return Route(destination=dest_urn, direct=False, transport=None)

    def can_reach(self, destination: PeerID | str) -> bool:
        """Whether any direct or single-relay path to ``destination`` exists."""
        return self.find_route(destination).reachable


__all__ = ["EndpointRouter", "Route"]
