"""Ablation benches for the design choices called out in DESIGN.md (Section 5).

Each ablation flips one mechanism and measures its effect on the headline
quantities, documenting *why* the system is built the way it is:

* wire-level duplicate suppression on/off (the real JXTA-WIRE leaves it to the
  application; the SR layers add it);
* what application-level duplicate filtering absorbs when two advertisements
  exist for the same type;
* subtype-hierarchy matching vs. publishing the exact type only;
* substrate speed scaling (does the SR-TPS vs SR-JXTA gap stay ~1 % on faster
  hardware?);
* rendez-vous-mediated discovery vs. multicast-only discovery.
"""

from __future__ import annotations

import pytest

from repro.apps.skirental.types import PremiumSkiRental, SkiRental
from repro.bench.figures import run_invocation_time
from repro.bench.scenario import SR_JXTA, SR_TPS
from repro.core import TPSConfig, TPSEngine
from repro.jxta.platform import JxtaNetworkBuilder
from repro.net.cost import PAPER_TESTBED


def _tps_pair(builder, *, padding=1910):
    """A publisher/subscriber TPS pair where *both* sides create advertisements.

    Starting both engines simultaneously makes each create its own
    advertisement for the type, so every event is published on two pipes and
    duplicates reach the subscriber -- the situation the application-level
    duplicate filter exists for.
    """
    pub_peer = builder.add_peer("ablation-pub")
    sub_peer = builder.add_peer("ablation-sub")
    config = TPSConfig(search_timeout=2.0, message_padding=padding)
    publisher = TPSEngine(SkiRental, peer=pub_peer, config=config).new_interface("JXTA")
    subscriber = TPSEngine(SkiRental, peer=sub_peer, config=config).new_interface("JXTA")
    received = []
    subscriber.subscribe(received.append)
    builder.settle(rounds=24)
    return publisher, subscriber, received


def test_ablation_duplicate_filtering(once):
    """Multi-advertisement delivery duplicates events; the app-level filter absorbs them.

    The filter has no off switch (it is functionality (3) of the paper's
    footnote, not an option), so the ablation reads what delivery would have
    been without it from the filter's own counter.
    """

    def run() -> tuple[int, int]:
        builder = JxtaNetworkBuilder(seed=31)
        builder.add_rendezvous("rdv-0")
        publisher, subscriber, received = _tps_pair(builder)
        for index in range(5):
            receipt = publisher.publish(SkiRental("shop", 50.0 + index, "Salomon", 7))
            builder.simulator.run_until(
                max(builder.simulator.now, receipt.completion_time)
            )
        builder.settle(rounds=16)
        filtered = subscriber.peer.metrics.counters().get("tps_duplicates_filtered", 0)
        return len(received), filtered

    with_filter, filtered = once(run)
    assert with_filter == 5
    # Both engines created an advertisement, so every event arrives roughly
    # twice: unfiltered delivery would have seen the filtered copies too.
    assert filtered > 0


def test_ablation_subtype_vs_exact_matching(once):
    """Hierarchy-based delivery: a SkiRental subscriber sees premium offers too."""

    def run() -> tuple[int, int]:
        builder = JxtaNetworkBuilder(seed=32)
        builder.add_rendezvous("rdv-0")
        pub_peer = builder.add_peer("pub")
        ski_peer = builder.add_peer("sub-ski")
        premium_peer = builder.add_peer("sub-premium")
        config = TPSConfig(search_timeout=2.0)
        publisher = TPSEngine(SkiRental, peer=pub_peer, config=config).new_interface("JXTA")
        builder.settle(rounds=8)
        sub_config = TPSConfig(search_timeout=6.0, create_if_missing=False)
        ski_sub = TPSEngine(SkiRental, peer=ski_peer, config=sub_config).new_interface("JXTA")
        premium_sub = TPSEngine(
            PremiumSkiRental, peer=premium_peer, config=sub_config
        ).new_interface("JXTA")
        ski_received, premium_received = [], []
        ski_sub.subscribe(ski_received.append)
        premium_sub.subscribe(premium_received.append)
        builder.settle(rounds=16)
        events = [
            SkiRental("shop", 60.0, "Head", 7),
            PremiumSkiRental("shop", 160.0, "Atomic", 7, extras=("boots",)),
        ]
        for event in events:
            receipt = publisher.publish(event)
            builder.simulator.run_until(
                max(builder.simulator.now, receipt.completion_time)
            )
        builder.settle(rounds=16)
        return len(ski_received), len(premium_received)

    ski_count, premium_count = once(run)
    # The SkiRental subscriber receives both (Figure 7: type + subtypes);
    # the PremiumSkiRental subscriber only receives the premium offer.
    assert ski_count == 2
    assert premium_count == 1


@pytest.mark.parametrize("speedup", [1.0, 4.0])
def test_ablation_substrate_speed(once, speedup):
    """The SR-TPS vs SR-JXTA ordering survives a faster substrate.

    Scaling every substrate CPU cost down by ``speedup`` models running the
    same JXTA stack on faster hardware: everything gets proportionally
    quicker, and the layered variants remain within a few percent of each
    other, which is the paper's argument that the TPS abstraction's overhead
    is negligible rather than testbed-specific.
    """
    from repro.bench.scenario import ScenarioConfig, build_scenario

    def run():
        cost_model = PAPER_TESTBED.scaled(1.0 / speedup)
        means = {}
        for variant in (SR_TPS, SR_JXTA):
            scenario = build_scenario(
                ScenarioConfig(
                    variant=variant, publishers=1, subscribers=1, seed=5, cost_model=cost_model
                )
            )
            publisher = scenario.publishers[0]
            samples = []
            for _ in range(20):
                receipt = publisher.publish()
                samples.append(receipt.cpu_time * 1000.0)
                scenario.run_until(max(scenario.now, receipt.completion_time))
            means[variant] = sum(samples) / len(samples)
        return means

    means = once(run)
    tps_ms, jxta_ms = means[SR_TPS], means[SR_JXTA]
    assert abs(tps_ms - jxta_ms) / jxta_ms < 0.08
    if speedup > 1.0:
        # Sanity: the scaled substrate really is faster than the paper's.
        assert tps_ms < 80.0


def test_ablation_multicast_only_discovery(once):
    """On a single LAN segment, discovery works without any rendez-vous peer."""

    def run() -> int:
        builder = JxtaNetworkBuilder(seed=33)
        # No rendez-vous at all: peers rely on IP multicast for discovery.
        pub_peer = builder.add_peer("pub", connect_rendezvous=False)
        sub_peer = builder.add_peer("sub", connect_rendezvous=False)
        config = TPSConfig(search_timeout=2.0)
        publisher = TPSEngine(SkiRental, peer=pub_peer, config=config).new_interface("JXTA")
        builder.settle(rounds=8)
        subscriber = TPSEngine(
            SkiRental, peer=sub_peer, config=TPSConfig(search_timeout=6.0, create_if_missing=False)
        ).new_interface("JXTA")
        received = []
        subscriber.subscribe(received.append)
        builder.settle(rounds=12)
        receipt = publisher.publish(SkiRental("shop", 75.0, "Rossignol", 2))
        builder.simulator.run_until(max(builder.simulator.now, receipt.completion_time))
        builder.settle(rounds=8)
        return len(received)

    assert once(run) == 1
