"""Measurement scenarios: N publishers, M subscribers, one application variant.

A scenario reproduces the paper's experimental setup (Section 5): a handful
of workstations on one FastEthernet LAN, one of them acting as rendez-vous,
running the ski-rental application either directly on the wire service
(JXTA-WIRE), hand-written on JXTA (SR-JXTA) or on the TPS layer (SR-TPS).
Messages are padded to the paper's 1910 bytes.

The publishers are initialised first and the network is allowed to settle
before the subscribers start, mirroring the paper's deployment where the shop
(publisher) is already advertising when shoppers arrive; this also keeps the
number of advertisements for the type at one, which is the configuration the
paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.apps.skirental.jxta_app import SkiRentalJxtaPublisher, SkiRentalJxtaSubscriber
from repro.apps.skirental.tps_app import SkiRentalTPSPublisher, SkiRentalTPSSubscriber
from repro.apps.skirental.types import SkiRental
from repro.apps.skirental.wire_app import (
    WirePublisher,
    WireSubscriber,
    shared_wire_advertisement,
)
from repro.core import TPSConfig
from repro.jxta.peer import Peer
from repro.jxta.platform import JxtaNetworkBuilder
from repro.net.cost import CostModel, PAPER_TESTBED
from repro.net.simclock import Simulator

#: Variant labels, matching the paper's figure legends.
JXTA_WIRE = "JXTA-WIRE"
SR_JXTA = "SR-JXTA"
SR_TPS = "SR-TPS"
VARIANTS = (JXTA_WIRE, SR_JXTA, SR_TPS)

#: The message size used throughout the paper's measurements.
PAPER_MESSAGE_SIZE = 1910


@dataclass
class ScenarioConfig:
    """Parameters of one measurement scenario."""

    variant: str = SR_TPS
    publishers: int = 1
    subscribers: int = 1
    seed: int = 2002
    message_size: int = PAPER_MESSAGE_SIZE
    cost_model: CostModel = PAPER_TESTBED
    #: Virtual seconds granted to the publishers' initialisation phase before
    #: the subscribers start.
    publisher_settle: float = 8.0
    #: Virtual seconds granted to the subscribers' initialisation phase before
    #: measurements begin.
    subscriber_settle: float = 12.0

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.publishers < 1 or self.subscribers < 1:
            raise ValueError("a scenario needs at least one publisher and one subscriber")


class PublisherHandle:
    """Uniform publishing surface over the three application variants."""

    def __init__(self, peer: Peer, publish: Callable[[SkiRental], Any], app: Any) -> None:
        self.peer = peer
        self._publish = publish
        self.app = app
        self.published = 0

    def publish(self, offer: Optional[SkiRental] = None) -> Any:
        """Publish one offer; returns the variant's receipt (with ``cpu_time``)."""
        if offer is None:
            offer = SkiRental(
                shop=f"shop-{self.peer.name}",
                price=99.0 + self.published,
                brand="Salomon",
                number_of_days=7,
            )
        receipt = self._publish(offer)
        self.published += 1
        return receipt


class SubscriberHandle:
    """Uniform receiving surface over the three application variants."""

    def __init__(self, peer: Peer, received_count: Callable[[], int], app: Any) -> None:
        self.peer = peer
        self._received_count = received_count
        self.app = app

    def received_count(self) -> int:
        """Number of application-level events received so far."""
        return self._received_count()

    def receive_times(self) -> List[float]:
        """Virtual timestamps at which the wire service delivered messages here."""
        return list(self.peer.metrics.series("wire_received").times)


@dataclass
class Scenario:
    """A built scenario, ready for a measurement run."""

    config: ScenarioConfig
    builder: JxtaNetworkBuilder
    publishers: List[PublisherHandle]
    subscribers: List[SubscriberHandle]
    setup_time: float = 0.0

    @property
    def simulator(self) -> Simulator:
        """The discrete-event simulator driving the scenario."""
        return self.builder.simulator

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.simulator.now

    def settle(self, rounds: int = 32, quantum: float = 1.0) -> int:
        """Let in-flight traffic quiesce."""
        return self.builder.network.settle(rounds=rounds, quantum=quantum)

    def run_for(self, seconds: float) -> int:
        """Advance virtual time by ``seconds``."""
        return self.simulator.run_for(seconds)

    def run_until(self, time: float) -> int:
        """Advance virtual time to the absolute instant ``time``."""
        return self.simulator.run_until(time)

    def total_received(self) -> int:
        """Sum of application-level events received across all subscribers."""
        return sum(subscriber.received_count() for subscriber in self.subscribers)


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Build the network, the peers and the application variant of ``config``."""
    builder = JxtaNetworkBuilder(seed=config.seed, cost_model=config.cost_model)
    builder.add_rendezvous("rdv-0")
    publisher_peers = [builder.add_peer(f"pub-{i}") for i in range(config.publishers)]
    subscriber_peers = [builder.add_peer(f"sub-{i}") for i in range(config.subscribers)]
    builder.settle(rounds=4)

    if config.variant == JXTA_WIRE:
        publishers, subscribers = _build_wire(config, publisher_peers, subscriber_peers)
    elif config.variant == SR_JXTA:
        publishers, subscribers = _build_sr_jxta(
            config, builder, publisher_peers, subscriber_peers
        )
    else:
        publishers, subscribers = _build_sr_tps(
            config, builder, publisher_peers, subscriber_peers
        )

    scenario = Scenario(
        config=config,
        builder=builder,
        publishers=publishers,
        subscribers=subscribers,
    )
    scenario.settle(rounds=int(config.subscriber_settle), quantum=1.0)
    scenario.setup_time = scenario.now
    return scenario


# --------------------------------------------------------------------------- wire


def _build_wire(
    config: ScenarioConfig,
    publisher_peers: Sequence[Peer],
    subscriber_peers: Sequence[Peer],
) -> tuple[List[PublisherHandle], List[SubscriberHandle]]:
    advertisement = shared_wire_advertisement("SkiRental")
    publishers: List[PublisherHandle] = []
    subscribers: List[SubscriberHandle] = []
    for peer in subscriber_peers:
        app = WireSubscriber(peer, advertisement)
        subscribers.append(SubscriberHandle(peer, app.received_count, app))
    for peer in publisher_peers:
        app = WirePublisher(peer, advertisement)

        def publish(offer: SkiRental, app: WirePublisher = app) -> Any:
            payload = str(offer).encode("utf-8")
            if len(payload) < config.message_size:
                payload = payload + b"\x00" * (config.message_size - len(payload))
            return app.publish_bytes(payload)

        publishers.append(PublisherHandle(peer, publish, app))
    return publishers, subscribers


# ------------------------------------------------------------------------ SR-JXTA


def _build_sr_jxta(
    config: ScenarioConfig,
    builder: JxtaNetworkBuilder,
    publisher_peers: Sequence[Peer],
    subscriber_peers: Sequence[Peer],
) -> tuple[List[PublisherHandle], List[SubscriberHandle]]:
    publishers: List[PublisherHandle] = []
    subscribers: List[SubscriberHandle] = []
    lead = SkiRentalJxtaPublisher(
        publisher_peers[0], message_padding=config.message_size, search_timeout=2.0
    )
    publishers.append(PublisherHandle(publisher_peers[0], lead.publish_offer, lead))
    builder.network.settle(rounds=int(config.publisher_settle))
    for peer in publisher_peers[1:]:
        app = SkiRentalJxtaPublisher(
            peer, message_padding=config.message_size, search_timeout=6.0
        )
        publishers.append(PublisherHandle(peer, app.publish_offer, app))
    for peer in subscriber_peers:
        app = SkiRentalJxtaSubscriber(peer, search_timeout=6.0, create_if_missing=False)
        subscribers.append(SubscriberHandle(peer, app.received_count, app))
    return publishers, subscribers


# ------------------------------------------------------------------------- SR-TPS


def _build_sr_tps(
    config: ScenarioConfig,
    builder: JxtaNetworkBuilder,
    publisher_peers: Sequence[Peer],
    subscriber_peers: Sequence[Peer],
) -> tuple[List[PublisherHandle], List[SubscriberHandle]]:
    publishers: List[PublisherHandle] = []
    subscribers: List[SubscriberHandle] = []
    lead_config = TPSConfig(search_timeout=2.0, message_padding=config.message_size)
    lead = SkiRentalTPSPublisher(publisher_peers[0], config=lead_config)
    publishers.append(PublisherHandle(publisher_peers[0], lead.publish_offer, lead))
    builder.network.settle(rounds=int(config.publisher_settle))
    follower_config = TPSConfig(search_timeout=6.0, message_padding=config.message_size)
    for peer in publisher_peers[1:]:
        app = SkiRentalTPSPublisher(peer, config=follower_config)
        publishers.append(PublisherHandle(peer, app.publish_offer, app))
    subscriber_config = TPSConfig(search_timeout=6.0, create_if_missing=False)
    for peer in subscriber_peers:
        app = SkiRentalTPSSubscriber(peer, config=subscriber_config)
        subscribers.append(SubscriberHandle(peer, app.received_count, app))
    return publishers, subscribers


__all__ = [
    "JXTA_WIRE",
    "PAPER_MESSAGE_SIZE",
    "PublisherHandle",
    "SR_JXTA",
    "SR_TPS",
    "Scenario",
    "ScenarioConfig",
    "SubscriberHandle",
    "VARIANTS",
    "build_scenario",
]
