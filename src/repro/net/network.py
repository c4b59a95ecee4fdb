"""The simulated network: topology, links and packet delivery.

The :class:`Network` connects :class:`~repro.net.node.Node` objects through
:class:`Link` objects carrying latency, bandwidth, jitter and loss parameters.
The default topology is a single LAN segment (full mesh with one shared
:class:`LinkSpec`), matching the paper's FastEthernet testbed; experiments
exercising the Endpoint Routing Protocol build multi-segment topologies with
firewalled nodes instead.

Delivery is asynchronous: ``transmit`` charges the delay to the simulator and
schedules ``Node.deliver`` at the future instant.  Unreliable transports may
drop packets according to the link's loss rate; reliable transports (TCP,
HTTP) never lose packets but pay their per-packet overhead.

Chaos testing installs a :class:`~repro.net.faults.FaultPlan` on the network
(``network.fault_plan = FaultPlan.chaos(...)``): every scheduled delivery --
including ones on nominally "reliable" transports, since the point is to
exercise the retry/ack/dedup layers above -- is then subject to the plan's
seeded drop/duplicate/reorder/delay decisions.  Injected faults are counted
in the network metrics (``faults_dropped``, ``faults_duplicated``,
``faults_delayed``, ``faults_scripted``), as are routing failures
(``packets_no_route`` for unreachable unicast destinations and
``packets_blocked`` for firewall rejections), so no packet ever vanishes
without a counter.

Whether a unicast packet can travel is decided once, in
:meth:`Network._route`, from the packet's own transport and protocol:
senders do not pre-flight (they hand the packet over and the network refuses
it with :class:`NoRouteError`), and :meth:`Network.reachable` is the same
decision asked as a question -- it builds no packet and counts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.cost import CostModel, NoiseSource, PAPER_TESTBED
from repro.net.faults import FaultPlan
from repro.net.firewall import Direction, Firewall
from repro.net.metrics import MetricsRegistry
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.simclock import Simulator
from repro.net.transport import TransportKind, transport_for


class NetworkError(RuntimeError):
    """Base class for network-level failures."""


class NoRouteError(NetworkError):
    """Raised when no enabled, firewall-permitted path exists between two nodes."""


class UnknownNodeError(NetworkError):
    """Raised when addressing a node the network has never seen."""


@dataclass(frozen=True)
class LinkSpec:
    """Static parameters of a link (or of a whole LAN segment).

    Attributes
    ----------
    latency:
        One-way propagation delay in seconds.
    bandwidth:
        Capacity in bytes/second used for the serialisation delay.
    jitter:
        Relative sigma of lognormal noise applied to the latency.
    loss_rate:
        Probability of dropping a packet carried by an *unreliable* transport.
    """

    latency: float = 0.0006
    bandwidth: float = 100e6 / 8
    jitter: float = 0.05
    loss_rate: float = 0.0

    @classmethod
    def lan(cls, cost_model: CostModel = PAPER_TESTBED) -> "LinkSpec":
        """The paper's 100 Mbit/s FastEthernet segment."""
        return cls(latency=cost_model.lan_latency, bandwidth=cost_model.lan_bandwidth)

    @classmethod
    def wan(cls) -> "LinkSpec":
        """A rough wide-area link for multi-site experiments."""
        return cls(latency=0.045, bandwidth=1.5e6 / 8, jitter=0.2, loss_rate=0.01)


@dataclass
class Link:
    """A concrete (directed-pair) link between two attached nodes."""

    a: str
    b: str
    spec: LinkSpec

    def connects(self, x: str, y: str) -> bool:
        """Whether this link joins addresses ``x`` and ``y`` (in either order)."""
        return {self.a, self.b} == {x, y}


class Network:
    """A collection of nodes, links and segments driven by one simulator.

    Parameters
    ----------
    simulator:
        The discrete-event scheduler charging all delays.
    default_link:
        Link parameters used for any pair of nodes on the same segment that
        has no explicit link.
    cost_model:
        The calibrated cost model shared with the JXTA substrate.
    noise:
        Deterministic noise source (seeded) used for jitter and loss.
    fault_plan:
        Optional seeded :class:`~repro.net.faults.FaultPlan` consulted for
        every scheduled delivery (chaos testing).  May also be installed
        later by assigning ``network.fault_plan``.  The plan owns its own
        RNG, so installing one does not perturb the ``noise`` sequence.
    """

    DEFAULT_SEGMENT = "lan0"

    def __init__(
        self,
        simulator: Optional[Simulator] = None,
        *,
        default_link: Optional[LinkSpec] = None,
        cost_model: CostModel = PAPER_TESTBED,
        noise: Optional[NoiseSource] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.simulator = simulator or Simulator()
        self.cost_model = cost_model
        self.noise = noise or NoiseSource()
        self.fault_plan = fault_plan
        self.default_link = default_link or LinkSpec.lan(cost_model)
        self.metrics = MetricsRegistry(name="network")
        self._nodes: Dict[str, Node] = {}
        #: address -> name of the segment the node is attached to.
        self._segment_of: Dict[str, str] = {}
        self._links: List[Link] = []
        self._partitions: set[frozenset[str]] = set()

    # --------------------------------------------------------------- topology

    @property
    def nodes(self) -> List[Node]:
        """All attached nodes, in attachment order."""
        return list(self._nodes.values())

    def node(self, address: str) -> Node:
        """Look up a node by address, raising :class:`UnknownNodeError` if absent."""
        try:
            return self._nodes[address]
        except KeyError:
            raise UnknownNodeError(f"unknown node address {address!r}") from None

    def has_node(self, address: str) -> bool:
        """Whether a node with the given address is attached."""
        return address in self._nodes

    def attach(self, node: Node, *, segment: str = DEFAULT_SEGMENT) -> Node:
        """Attach a node to the network on the given segment.

        Attaching the same address twice is an error; segments are created on
        first use.
        """
        if node.address in self._nodes:
            raise NetworkError(f"a node with address {node.address!r} is already attached")
        node.network = self
        self._nodes[node.address] = node
        self._segment_of[node.address] = segment
        return node

    def create_node(
        self,
        address: str,
        *,
        segment: str = DEFAULT_SEGMENT,
        transports: Optional[List[TransportKind | str]] = None,
        firewall=None,
    ) -> Node:
        """Convenience: construct a node and attach it in one call."""
        node = Node(address, transports=transports, firewall=firewall)
        return self.attach(node, segment=segment)

    def segment_of(self, address: str) -> str:
        """Return the name of the segment the node lives on."""
        try:
            return self._segment_of[address]
        except KeyError:
            raise UnknownNodeError(f"node {address!r} is not on any segment") from None

    def segment_members(self, segment: str) -> List[str]:
        """Addresses of every node attached to the given segment."""
        return sorted(a for a, name in self._segment_of.items() if name == segment)

    def connect(self, a: str, b: str, spec: Optional[LinkSpec] = None) -> Link:
        """Add an explicit link between two nodes (possibly on different segments)."""
        self.node(a)
        self.node(b)
        link = Link(a=a, b=b, spec=spec or self.default_link)
        self._links.append(link)
        return link

    def partition(self, a: str, b: str) -> None:
        """Cut all communication between two nodes (fault injection)."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        """Undo a previous :meth:`partition` between two nodes."""
        self._partitions.discard(frozenset((a, b)))

    def partitioned(self, a: str, b: str) -> bool:
        """Whether a partition currently separates the two addresses."""
        return frozenset((a, b)) in self._partitions

    def _link_between(self, a: str, b: str) -> Optional[LinkSpec]:
        """The link spec to use between two attached addresses, or None if unlinked."""
        for link in self._links:
            if link.connects(a, b):
                return link.spec
        if self._segment_of[a] == self._segment_of[b]:
            return self.default_link
        return None

    def _route(
        self, a: str, b: str, kind: TransportKind, ask: Callable[[Firewall, Direction], bool]
    ) -> LinkSpec | str:
        """The one unicast routing decision, behind :meth:`reachable` and :meth:`transmit`.

        Returns the :class:`LinkSpec` that carries ``kind`` traffic from ``a``
        to ``b``, or why nothing does: ``"route"`` (an unknown node, a
        partition, no link, the interface missing at either end) or
        ``"firewall"`` (policy; asked last, so a firewall only ever sees
        traffic the topology could carry).  ``ask(firewall, direction)`` puts
        the traffic to one firewall -- the sender's outbound, then the
        receiver's inbound -- and is the only place a query and a
        transmission differ: the query asks about a kind of traffic and
        counts nothing, the transmission asks about its packet and a refusal
        is counted.
        """
        sender, receiver = self._nodes.get(a), self._nodes.get(b)
        if sender is None or receiver is None:
            return "route"
        if a == b:
            return self.default_link
        if self.partitioned(a, b):
            return "route"
        spec = self._link_between(a, b)
        if spec is None or not (sender.supports(kind) and receiver.supports(kind)):
            return "route"
        if not (
            ask(sender.firewall, Direction.OUTBOUND) and ask(receiver.firewall, Direction.INBOUND)
        ):
            return "firewall"
        return spec

    def reachable(self, a: str, b: str, transport: TransportKind | str = TransportKind.TCP) -> bool:
        """Whether ``a`` could send a ``"jxta"`` packet of the given transport directly to ``b``.

        A query: it takes the decision a transmission would (:meth:`_route`)
        but builds no packet and counts nothing -- no network metric, no
        firewall's ``blocked_count``.
        """
        kind = TransportKind(transport)
        route = self._route(
            a, b, kind, lambda firewall, way: firewall.allows(kind.value, "jxta", way)
        )
        return isinstance(route, LinkSpec)

    # --------------------------------------------------------------- delivery

    def transmit(self, sender: Node, packet: Packet) -> None:
        """Deliver a packet from ``sender`` according to its destination and transport.

        Point-to-point packets go to ``packet.destination``; multicast packets
        are expanded to every multicast-capable node on the sender's segment.
        Raises :class:`NoRouteError` when a unicast destination is unreachable;
        a refused packet is counted in ``packets_no_route`` (and
        ``packets_blocked`` when a firewall refused it), never in
        ``packets_offered``.
        """
        if packet.is_multicast:
            self._transmit_multicast(sender, packet)
        else:
            self._transmit_unicast(sender, packet)
        self.metrics.counter("packets_offered").increment()

    def _transmit_unicast(self, sender: Node, packet: Packet) -> None:
        destination = packet.destination
        kind = TransportKind(packet.transport)
        route = self._route(
            sender.address, destination, kind, lambda firewall, way: firewall.permits(packet, way)
        )
        if isinstance(route, LinkSpec):
            self._schedule_delivery(sender, self._nodes[destination], packet, route)
            return
        # Discriminate firewall rejections (policy) from missing routes
        # (topology); either way the packet lands in a counter.
        if route == "firewall":
            self.metrics.counter("packets_blocked").increment()
        self.metrics.counter("packets_no_route").increment()
        if destination not in self._nodes:
            raise UnknownNodeError(f"unknown destination {destination!r}")
        raise NoRouteError(
            f"no {packet.transport} route from {sender.address!r} to {destination!r}"
        )

    def _transmit_multicast(self, sender: Node, packet: Packet) -> None:
        segment = self.segment_of(sender.address)
        probe_kind = TransportKind.MULTICAST
        if not sender.supports(probe_kind):
            raise NoRouteError(f"node {sender.address!r} has no multicast interface")
        outbound_ok = sender.firewall.permits(packet, Direction.OUTBOUND)
        if not outbound_ok:
            self.metrics.counter("packets_blocked").increment()
            return
        for address in self.segment_members(segment):
            if address == sender.address:
                continue
            receiver = self.node(address)
            if not receiver.supports(probe_kind):
                continue
            if self.partitioned(sender.address, address):
                continue
            copy = packet.retargeted(address)
            if not receiver.firewall.permits(copy, Direction.INBOUND):
                self.metrics.counter("packets_blocked").increment()
                continue
            spec = self._link_between(sender.address, address) or self.default_link
            self._schedule_delivery(sender, receiver, copy, spec)

    def _schedule_delivery(
        self, sender: Node, receiver: Node, packet: Packet, spec: LinkSpec
    ) -> None:
        transport = transport_for(packet.transport)
        if not transport.reliable and self.noise.chance(spec.loss_rate):
            self.metrics.counter("packets_lost").increment()
            return
        # The fault plan is consulted *after* the legacy loss draw so that
        # installing a plan never shifts the noise source's RNG sequence, and
        # applies to every transport -- chaos deliberately breaks the "TCP
        # never loses" idealisation to exercise the retry layers above.
        extra_delays: Tuple[float, ...] = (0.0,)
        plan = self.fault_plan
        if plan is not None:
            decision = plan.decide(sender.address, receiver.address)
            if decision.scripted:
                self.metrics.counter("faults_scripted").increment()
            if decision.drop:
                self.metrics.counter("faults_dropped").increment()
                self.metrics.counter("packets_lost").increment()
                return
            extra_delays = decision.deliveries
            if len(extra_delays) > 1:
                self.metrics.counter("faults_duplicated").increment(len(extra_delays) - 1)
            if any(extra > 0.0 for extra in extra_delays):
                self.metrics.counter("faults_delayed").increment()
        delay = (
            self.noise.jittered(spec.latency, spec.jitter)
            + packet.size / spec.bandwidth
            + transport.per_packet_overhead
        )
        for extra in extra_delays:
            self.metrics.counter("packets_delivered").increment()
            self.metrics.counter("bytes_carried").increment(packet.size)
            self.simulator.schedule(
                delay + extra,
                lambda: receiver.deliver(packet),
                label="deliver",
            )

    # ------------------------------------------------------------------ misc

    def settle(self, rounds: int = 64, quantum: float = 1.0) -> int:
        """Let in-flight traffic and periodic tasks quiesce (see ``Simulator.drain``)."""
        return self.simulator.drain(rounds=rounds, quantum=quantum)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        segments = len(set(self._segment_of.values()))
        return f"Network(nodes={len(self._nodes)}, segments={segments})"


__all__ = [
    "Link",
    "LinkSpec",
    "Network",
    "NetworkError",
    "NoRouteError",
    "UnknownNodeError",
]
