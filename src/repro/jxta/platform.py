"""Bootstrapping peers and whole networks.

:func:`create_peer` builds one peer on a network: it attaches a node, creates
the :class:`~repro.jxta.peer.Peer`, boots the world (net) peer group with all
standard services, publishes the peer advertisement and connects to any
configured rendez-vous peers.

:class:`JxtaNetworkBuilder` assembles whole topologies (the paper's LAN of
workstations, multi-segment setups with firewalls and routers) with a few
calls; the TPS test-bed helper in :mod:`repro.testbed` and the benchmark
harness build on it.

:class:`PeerGroupFactory` mirrors the JXTA API used in the paper's Figure 17
(``PeerGroupFactory.newPeerGroup()`` followed by ``init(parent, adv)``) for
code transliterated from the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.jxta.advertisement import PeerGroupAdvertisement
from repro.jxta.cache import DiscoveryKind
from repro.jxta.errors import JxtaError
from repro.jxta.ids import PeerID, WORLD_GROUP_ID
from repro.jxta.peer import Peer, PeerConfig
from repro.jxta.peergroup import PeerGroup
from repro.net.cost import CostModel, NoiseSource, PAPER_TESTBED
from repro.net.firewall import Firewall
from repro.net.network import LinkSpec, Network
from repro.net.node import Node
from repro.net.simclock import Simulator
from repro.net.transport import TransportKind

#: Name of the world (net) peer group.
WORLD_GROUP_NAME = "NetPeerGroup"


def world_group_advertisement(created_at: float = 0.0) -> PeerGroupAdvertisement:
    """The advertisement of the world peer group every peer boots into."""
    return PeerGroupAdvertisement(
        group_id=WORLD_GROUP_ID,
        name=WORLD_GROUP_NAME,
        description="The world peer group",
        group_impl="repro.jxta.peergroup.PeerGroup",
        created_at=created_at,
    )


def create_peer(
    network: Network,
    name: str,
    *,
    rendezvous: bool = False,
    router: bool = False,
    rendezvous_addresses: Sequence[str] = (),
    segment: str = Network.DEFAULT_SEGMENT,
    transports: Optional[List[TransportKind | str]] = None,
    firewall: Optional[Firewall] = None,
    peer_id: Optional[PeerID] = None,
    address: Optional[str] = None,
    publish_advertisement: bool = True,
) -> Peer:
    """Create, attach and boot one peer on ``network``.

    Parameters mirror a JXTA platform configuration file: the peer's name and
    roles, which rendez-vous to connect to, which transports it exposes and
    whether a firewall protects it.  The returned peer has its world group
    ready and (by default) its peer advertisement published locally and
    pushed to the network.
    """
    node = Node(address or name, transports=transports, firewall=firewall)
    network.attach(node, segment=segment)
    salt = len(network.nodes)
    peer = Peer(
        node,
        network.simulator,
        PeerConfig(
            name=name,
            rendezvous=rendezvous,
            router=router,
            rendezvous_addresses=list(rendezvous_addresses),
        ),
        peer_id=peer_id,
        cost_model=network.cost_model,
        noise=network.noise.fork(salt),
    )
    world = PeerGroup(peer, world_group_advertisement(created_at=peer.now))
    peer._set_world_group(world)
    # Publish our own advertisements locally so discovery queries can be answered.
    advertisement = peer.advertisement()
    world.discovery.publish(advertisement, DiscoveryKind.PEER)
    world.discovery.publish(world.advertisement, DiscoveryKind.GROUP)
    if publish_advertisement:
        world.discovery.remote_publish(advertisement, DiscoveryKind.PEER)
    # Connect to the configured rendez-vous peers (lease requests).
    for rdv_address in rendezvous_addresses:
        world.rendezvous.connect(rdv_address)
    return peer


class PeerGroupFactory:
    """JXTA-style two-step group instantiation (Figure 17, lines 10-11)."""

    @staticmethod
    def new_peer_group() -> "UninitializedPeerGroup":
        """Return an uninitialised group; call :meth:`UninitializedPeerGroup.init`."""
        return UninitializedPeerGroup()


class UninitializedPeerGroup:
    """Placeholder returned by :meth:`PeerGroupFactory.new_peer_group`."""

    def __init__(self) -> None:
        self._group: Optional[PeerGroup] = None

    def init(self, parent: PeerGroup, advertisement: PeerGroupAdvertisement) -> PeerGroup:
        """Initialise the group from its advertisement inside ``parent``."""
        self._group = parent.new_group(advertisement)
        return self._group

    def lookup_service(self, name: str):
        """Delegate to the initialised group (raises if :meth:`init` was not called)."""
        if self._group is None:
            raise JxtaError("peer group used before init(parent, advertisement)")
        return self._group.lookup_service(name)


@dataclass
class JxtaNetworkBuilder:
    """Assembles a simulated network of peers.

    Example -- the paper's testbed (a handful of workstations on one LAN,
    one of them acting as rendez-vous)::

        builder = JxtaNetworkBuilder(seed=7)
        rdv = builder.add_rendezvous("rdv-0")
        publisher = builder.add_peer("publisher")
        subscribers = [builder.add_peer(f"subscriber-{i}") for i in range(4)]
        network = builder.network
        network.settle()          # let leases and discovery settle
    """

    seed: int = 2002
    cost_model: CostModel = PAPER_TESTBED
    default_link: Optional[LinkSpec] = None
    simulator: Simulator = field(default_factory=Simulator)

    def __post_init__(self) -> None:
        self.network = Network(
            self.simulator,
            default_link=self.default_link,
            cost_model=self.cost_model,
            noise=NoiseSource(self.seed),
        )
        self.peers: List[Peer] = []
        self._rendezvous_addresses: List[str] = []

    # ------------------------------------------------------------- building

    def add_rendezvous(
        self, name: str, *, segment: str = Network.DEFAULT_SEGMENT
    ) -> Peer:
        """Add a rendez-vous (and router) peer; later peers connect to it."""
        peer = create_peer(
            self.network,
            name,
            rendezvous=True,
            router=True,
            segment=segment,
        )
        self.peers.append(peer)
        self._rendezvous_addresses.append(peer.node.address)
        return peer

    def add_peer(
        self,
        name: str,
        *,
        segment: str = Network.DEFAULT_SEGMENT,
        transports: Optional[List[TransportKind | str]] = None,
        firewall: Optional[Firewall] = None,
        connect_rendezvous: bool = True,
    ) -> Peer:
        """Add an ordinary (edge) peer, connected to every known rendez-vous."""
        peer = create_peer(
            self.network,
            name,
            rendezvous_addresses=self._rendezvous_addresses if connect_rendezvous else (),
            segment=segment,
            transports=transports,
            firewall=firewall,
        )
        self.peers.append(peer)
        return peer

    def connect_segments(self, address_a: str, address_b: str, spec: Optional[LinkSpec] = None):
        """Add an explicit link between two nodes (typically on different segments)."""
        return self.network.connect(address_a, address_b, spec)

    # -------------------------------------------------------------- running

    def settle(self, rounds: int = 16, quantum: float = 1.0) -> int:
        """Let discovery, leases and binding announcements quiesce."""
        return self.network.settle(rounds=rounds, quantum=quantum)

    def peer_named(self, name: str) -> Peer:
        """Look up a built peer by name."""
        for peer in self.peers:
            if peer.name == name:
                return peer
        raise JxtaError(f"no peer named {name!r} was built")


def lan_of(
    count: int,
    *,
    seed: int = 2002,
    with_rendezvous: bool = True,
    cost_model: CostModel = PAPER_TESTBED,
) -> JxtaNetworkBuilder:
    """Convenience: a LAN of ``count`` peers (plus an optional rendez-vous).

    Peers are named ``peer-0`` ... ``peer-N``; the rendez-vous (if any) is
    ``rdv-0``.  The builder is returned so callers can keep adding topology.
    """
    builder = JxtaNetworkBuilder(seed=seed, cost_model=cost_model)
    if with_rendezvous:
        builder.add_rendezvous("rdv-0")
    for index in range(count):
        builder.add_peer(f"peer-{index}")
    return builder


__all__ = [
    "JxtaNetworkBuilder",
    "PeerGroupFactory",
    "UninitializedPeerGroup",
    "WORLD_GROUP_NAME",
    "create_peer",
    "lan_of",
    "world_group_advertisement",
]
