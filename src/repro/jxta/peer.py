"""Peers: the runtime identity of one participant.

"The peer concept points out all networked devices using JXTA.  Any device
with an electronic pulse is a JXTA peer."  (paper, Section 2.1)

A :class:`Peer` ties together a simulated network node, a stable
:class:`~repro.jxta.ids.PeerID`, the endpoint service and the world peer
group with its standard services.  Special peers are flagged through
:class:`PeerConfig`: rendez-vous peers keep track of connected peers and
re-dispatch discovery queries and propagated messages; router peers relay
traffic between peers that cannot talk directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

from repro.jxta.advertisement import PeerAdvertisement
from repro.jxta.endpoint import EndpointService
from repro.jxta.ids import PeerID, WORLD_GROUP_ID
from repro.net.cost import CostModel, NoiseSource, PAPER_TESTBED
from repro.net.metrics import MetricsRegistry
from repro.net.node import Node
from repro.net.simclock import SimClock, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.jxta.peergroup import PeerGroup


@dataclass
class PeerConfig:
    """Static configuration of a peer.

    Attributes
    ----------
    name:
        Human-readable peer name (also used in advertisements).
    rendezvous:
        Whether this peer acts as a rendez-vous (keeps client connections and
        re-propagates discovery queries and messages).
    router:
        Whether this peer relays unicast traffic for peers that cannot reach
        each other directly (Endpoint Routing Protocol).
    rendezvous_addresses:
        Network addresses of rendez-vous peers this peer should connect to at
        start-up.
    """

    name: str
    rendezvous: bool = False
    router: bool = False
    rendezvous_addresses: List[str] = field(default_factory=list)


class Peer:
    """One running peer: node + ID + endpoint + world peer group.

    Instances are normally created through
    :func:`repro.jxta.platform.create_peer`, which also attaches the node to
    the network, boots the world group and publishes the peer advertisement.
    """

    def __init__(
        self,
        node: Node,
        simulator: Simulator,
        config: PeerConfig,
        *,
        peer_id: Optional[PeerID] = None,
        cost_model: CostModel = PAPER_TESTBED,
        noise: Optional[NoiseSource] = None,
    ) -> None:
        self.node = node
        self.simulator = simulator
        self.config = config
        self.peer_id = peer_id or PeerID()
        self.cost_model = cost_model
        self.noise = noise or NoiseSource()
        self.metrics: MetricsRegistry = node.metrics
        #: Sequence behind every id this peer mints (see :meth:`next_id`).
        self._id_sequence = itertools.count(1)
        self.endpoint = EndpointService(self)
        self._world_group: Optional["PeerGroup"] = None
        self._joined_groups: List["PeerGroup"] = []

    def next_id(self, kind: str) -> str:
        """A fresh ``<peer urn>/<kind><n>`` id (TPS messages, wire messages
        and channels, envelopes, resolver queries, reply addresses).

        The number is per peer, not per interpreter: a peer models a process,
        so its ids -- and the message sizes they feed into the cost model --
        must not depend on which simulations ran earlier in this process.
        """
        return f"{self.peer_id.to_urn()}/{kind}{next(self._id_sequence)}"

    # ------------------------------------------------------------ properties

    @property
    def name(self) -> str:
        """The peer's human-readable name."""
        return self.config.name

    @property
    def clock(self) -> SimClock:
        """The simulation clock this peer lives on."""
        return self.simulator.clock

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.simulator.now

    @property
    def is_rendezvous(self) -> bool:
        """Whether the peer acts as a rendez-vous."""
        return self.config.rendezvous

    @property
    def is_router(self) -> bool:
        """Whether the peer acts as a router."""
        return self.config.router

    @property
    def world_group(self) -> "PeerGroup":
        """The world (net) peer group this peer booted into."""
        if self._world_group is None:
            raise RuntimeError(
                f"peer {self.name!r} has no world group yet; create it via "
                "repro.jxta.platform.create_peer"
            )
        return self._world_group

    def _set_world_group(self, group: "PeerGroup") -> None:
        self._world_group = group

    @property
    def joined_groups(self) -> List["PeerGroup"]:
        """Every peer group this peer has instantiated locally (world group first)."""
        groups: List["PeerGroup"] = []
        if self._world_group is not None:
            groups.append(self._world_group)
        groups.extend(self._joined_groups)
        return groups

    def _register_group(self, group: "PeerGroup") -> None:
        if group is not self._world_group and group not in self._joined_groups:
            self._joined_groups.append(group)

    # ------------------------------------------------------------- lifecycle

    def restart_at_address(self, new_address: str) -> None:
        """Simulate the peer coming back online at a different network address.

        The peer keeps its :class:`PeerID` (the whole point of the Pipe
        Binding Protocol is that pipes survive such address changes), but its
        node moves to a fresh address on the same network segment.
        """
        network = self.node.network
        if network is None:
            raise RuntimeError("peer is not attached to a network")
        segment = network.segment_of(self.node.address)
        old_node = self.node
        old_node.go_offline()
        new_node = Node(
            new_address,
            transports=[k for k, i in old_node.interfaces.items() if i.enabled],
            firewall=old_node.firewall,
        )
        network.attach(new_node, segment=segment)
        self.node = new_node
        self.metrics = new_node.metrics
        # Re-wire the endpoint onto the new node.
        self.endpoint.node = new_node
        new_node.add_handler(self.endpoint._on_packet)
        self.endpoint.learn_address(self.peer_id, new_address)

    # --------------------------------------------------------- advertisement

    def advertisement(self) -> PeerAdvertisement:
        """Build this peer's advertisement (ID, name, endpoints, roles)."""
        endpoints = [
            f"{kind.value}://{self.node.address}"
            for kind, interface in self.node.interfaces.items()
            if interface.enabled
        ]
        return PeerAdvertisement(
            peer_id=self.peer_id,
            group_id=WORLD_GROUP_ID,
            name=self.name,
            endpoints=sorted(endpoints),
            is_rendezvous=self.is_rendezvous,
            is_router=self.is_router,
            created_at=self.now,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        roles = []
        if self.is_rendezvous:
            roles.append("rdv")
        if self.is_router:
            roles.append("router")
        suffix = f" [{','.join(roles)}]" if roles else ""
        return f"Peer({self.name!r}, {self.peer_id!r}{suffix})"


__all__ = ["Peer", "PeerConfig"]
