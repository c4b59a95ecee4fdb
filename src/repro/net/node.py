"""Simulated network nodes and their network interfaces.

A :class:`Node` is the substrate-level identity of a machine: it has a network
address, one or more :class:`NetworkInterface` objects (TCP, HTTP,
multicast...), an optional firewall, and a receive handler that the JXTA
endpoint service registers.  Nodes never touch the scheduler directly; they
hand packets to the :class:`~repro.net.network.Network`, which charges
latency, bandwidth and loss and schedules delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.net.firewall import Firewall
from repro.net.metrics import MetricsRegistry
from repro.net.packet import Packet
from repro.net.transport import Transport, TransportKind, transport_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network

PacketHandler = Callable[[Packet], None]


@dataclass
class NetworkInterface:
    """One attachment point of a node to the network.

    A node with both a TCP and an HTTP interface can talk directly to peers
    sharing either; a node with only HTTP behind a firewall must be reached
    through a relay.
    """

    transport: Transport
    enabled: bool = True

    @property
    def kind(self) -> TransportKind:
        """The transport kind this interface speaks."""
        return self.transport.kind


class Node:
    """A machine attached to the simulated network.

    Parameters
    ----------
    address:
        Unique string address (hostname) of the node.
    transports:
        Transport kinds the node exposes.  Defaults to TCP + HTTP + multicast,
        matching a LAN workstation of the paper's testbed.
    firewall:
        Optional firewall filtering this node's traffic.
    """

    def __init__(
        self,
        address: str,
        *,
        transports: Optional[List[TransportKind | str]] = None,
        firewall: Optional[Firewall] = None,
    ) -> None:
        if not address:
            raise ValueError("a node needs a non-empty address")
        self.address = address
        kinds = transports if transports is not None else [
            TransportKind.TCP,
            TransportKind.HTTP,
            TransportKind.MULTICAST,
        ]
        self.interfaces: Dict[TransportKind, NetworkInterface] = {}
        for kind in kinds:
            transport = transport_for(kind)
            self.interfaces[transport.kind] = NetworkInterface(transport=transport)
        self.firewall = firewall or Firewall.open()
        self.metrics = MetricsRegistry(name=f"node:{address}")
        self.network: Optional["Network"] = None
        # Immutable snapshot (RL003): deliver() iterates this without any
        # synchronisation, so registration rebinds a fresh tuple instead of
        # mutating in place.
        self._handlers: Tuple[PacketHandler, ...] = ()
        self.online = True

    # ----------------------------------------------------------- interfaces

    def supports(self, kind: TransportKind | str) -> bool:
        """Whether the node has an enabled interface of the given kind."""
        if isinstance(kind, str):
            kind = TransportKind(kind)
        interface = self.interfaces.get(kind)
        return interface is not None and interface.enabled

    # ------------------------------------------------------------- lifecycle

    def go_offline(self) -> None:
        """Simulate the machine crashing or being unplugged."""
        self.online = False

    def go_online(self) -> None:
        """Bring the machine back; its address (UUID at the JXTA layer) is unchanged."""
        self.online = True

    # ------------------------------------------------------------- handlers

    def add_handler(self, handler: PacketHandler) -> None:
        """Register a callback invoked for every delivered packet."""
        self._handlers = self._handlers + (handler,)

    # ----------------------------------------------------------------- I/O

    def send(self, packet: Packet) -> None:
        """Hand a packet to the network for delivery.

        Raises :class:`~repro.net.network.NetworkError` if the node is not
        attached to a network or the network refuses the packet (no route, a
        firewall); a refused packet is not counted as sent.
        """
        if self.network is None:
            from repro.net.network import NetworkError

            raise NetworkError(f"node {self.address!r} is not attached to a network")
        self.network.transmit(self, packet)
        self.metrics.counter("packets_sent").increment()
        self.metrics.counter("bytes_sent").increment(packet.size)

    def deliver(self, packet: Packet) -> None:
        """Called by the network when a packet arrives at this node."""
        if not self.online:
            return
        self.metrics.counter("packets_received").increment()
        self.metrics.counter("bytes_received").increment(packet.size)
        for handler in self._handlers:
            handler(packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = ",".join(sorted(k.value for k, i in self.interfaces.items() if i.enabled))
        return f"Node({self.address!r}, transports=[{kinds}])"


__all__ = ["NetworkInterface", "Node", "PacketHandler"]
