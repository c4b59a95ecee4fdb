"""Failure-injection tests: partitions, crashes, faults, firewalls, floods.

The paper's setting (JXTA 1.0 in 2001) is explicitly unreliable; the
reproduction's substrate exposes the corresponding failure hooks, and these
tests check that the layers above degrade the way the paper's system would:
lost peers stop receiving, healed partitions resume delivery, a peer that
comes back under a new address keeps its subscriptions (stable UUIDs), and a
flooded subscriber drops messages instead of falling over.

The reliability scenarios drive the wire layer's at-least-once protocol over
a fault-injected network (:class:`~repro.net.faults.FaultPlan`): duplicated
packets deliver exactly once, reordered packets deliver in per-source
publish order, dropped first transmissions are healed by retries, a total-loss link ends
in a *reported* terminal failure (never silence), and a persistently-raising
callback is quarantined -- and later rehabilitated -- by its circuit
breaker.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps.skirental.types import SkiRental
from repro.core import TPSConfig, TPSEngine
from repro.core.exceptions import DeliveryFailedError
from repro.core.subscriptions import CircuitBreaker
from repro.jxta.advertisement import PipeAdvertisement
from repro.jxta.pipes import PipeKind
from repro.jxta.platform import JxtaNetworkBuilder
from repro.jxta.wire import MAX_ATTEMPTS, WireService
from repro.net.faults import FaultPlan, LinkFaults
from repro.net.firewall import Firewall
from repro.net.network import LinkSpec


def _heal(network, a, b):
    """Undo ``network.partition(a, b)`` (the network has no public heal)."""
    network._partitions.discard(frozenset((a, b)))


def _pub_sub(
    builder,
    pub_name="f-pub",
    sub_name="f-sub",
    pub_config=None,
    sub_config=None,
    **sub_kwargs,
):
    pub_peer = builder.add_peer(pub_name)
    publisher = TPSEngine(
        SkiRental,
        peer=pub_peer,
        config=TPSConfig(search_timeout=2.0, **(pub_config or {})),
    ).new_interface("JXTA")
    builder.settle(rounds=8)
    sub_peer = builder.add_peer(sub_name, **sub_kwargs)
    subscriber = TPSEngine(
        SkiRental,
        peer=sub_peer,
        config=TPSConfig(
            search_timeout=6.0, create_if_missing=False, **(sub_config or {})
        ),
    ).new_interface("JXTA")
    inbox = []
    subscriber.subscribe(inbox.append)
    builder.settle(rounds=12)
    return publisher, subscriber, inbox, pub_peer, sub_peer


def _publish(builder, publisher, count=1, price=10.0):
    receipts = []
    for index in range(count):
        receipt = publisher.publish(SkiRental("shop", price + index, "b", 1))
        builder.simulator.run_until(max(builder.simulator.now, receipt.completion_time))
        receipts.append(receipt)
    builder.settle(rounds=8)
    return receipts


class TestPartitions:
    def test_partition_blocks_then_heals(self, builder):
        builder.add_rendezvous("rdv-0")
        publisher, _subscriber, inbox, pub_peer, sub_peer = _pub_sub(builder)
        _publish(builder, publisher)
        assert len(inbox) == 1
        # Partition the publisher from both the subscriber and the rendez-vous
        # relay: nothing can get through any more.
        builder.network.partition(pub_peer.node.address, sub_peer.node.address)
        builder.network.partition(pub_peer.node.address, "rdv-0")
        _publish(builder, publisher, price=20.0)
        assert len(inbox) == 1
        # Healing restores delivery for subsequent events.
        _heal(builder.network, pub_peer.node.address, sub_peer.node.address)
        _heal(builder.network, pub_peer.node.address, "rdv-0")
        _publish(builder, publisher, price=30.0)
        assert len(inbox) == 2

    def test_offline_subscriber_misses_events(self, builder):
        builder.add_rendezvous("rdv-0")
        publisher, _subscriber, inbox, _pub_peer, sub_peer = _pub_sub(builder)
        sub_peer.node.go_offline()
        _publish(builder, publisher)
        assert inbox == []
        sub_peer.node.go_online()
        _publish(builder, publisher, price=42.0)
        assert len(inbox) == 1
        assert inbox[0].price == 42.0


class TestCrashRecovery:
    def test_subscriber_survives_address_change(self, builder):
        """Stable peer UUIDs (PBP): a peer that moves keeps its pipe bindings."""
        builder.add_rendezvous("rdv-0")
        publisher, _subscriber, inbox, pub_peer, sub_peer = _pub_sub(builder)
        _publish(builder, publisher)
        assert len(inbox) == 1
        sub_peer.restart_at_address("moved-subscriber")
        # The publisher's endpoint learns the new address (refreshed peer
        # advertisement / resolver traffic in real JXTA).
        pub_peer.endpoint.learn_address(sub_peer.peer_id, "moved-subscriber")
        _publish(builder, publisher, price=77.0)
        assert len(inbox) == 2
        assert inbox[-1].price == 77.0

    def test_rendezvous_loss_on_single_lan_is_tolerated(self, builder):
        """On one multicast segment, losing the rendez-vous does not stop delivery."""
        rendezvous = builder.add_rendezvous("rdv-0")
        publisher, _subscriber, inbox, _pub, _sub = _pub_sub(builder)
        rendezvous.node.go_offline()
        _publish(builder, publisher)
        assert len(inbox) == 1


class TestFirewallsAndSegments:
    def test_subscriber_behind_firewall_still_served(self, builder):
        builder.add_rendezvous("rdv-0")
        publisher, _subscriber, inbox, _pub_peer, _sub_peer = _pub_sub(
            builder, sub_name="guarded", firewall=Firewall.corporate_default()
        )
        _publish(builder, publisher)
        assert len(inbox) == 1

    def test_cross_segment_subscriber_via_router(self, builder):
        rendezvous = builder.add_rendezvous("rdv-0")
        pub_peer = builder.add_peer("seg-pub")
        publisher = TPSEngine(
            SkiRental, peer=pub_peer, config=TPSConfig(search_timeout=2.0)
        ).new_interface("JXTA")
        builder.settle(rounds=8)
        sub_peer = builder.add_peer("seg-sub", segment="lan1", connect_rendezvous=False)
        builder.connect_segments("seg-sub", "rdv-0", LinkSpec.lan())
        sub_peer.world_group.rendezvous.connect("rdv-0")
        subscriber = TPSEngine(
            SkiRental,
            peer=sub_peer,
            config=TPSConfig(search_timeout=8.0, create_if_missing=False),
        ).new_interface("JXTA")
        inbox = []
        subscriber.subscribe(inbox.append)
        builder.settle(rounds=16)
        _publish(builder, publisher)
        assert len(inbox) == 1
        assert rendezvous.metrics.counters().get("endpoint_forwarded", 0) >= 1


_RELIABLE = {"reliable_delivery": True}


def _reliable_pair(builder, **kwargs):
    """A publisher/subscriber pair with the at-least-once wire protocol on."""
    return _pub_sub(builder, pub_config=dict(_RELIABLE), sub_config=dict(_RELIABLE), **kwargs)


class TestReliableDeliveryUnderFaults:
    def test_duplicated_packets_deliver_exactly_once(self, builder):
        builder.add_rendezvous("rdv-0")
        publisher, _subscriber, inbox, _pub_peer, sub_peer = _reliable_pair(builder)
        builder.network.fault_plan = FaultPlan(
            seed=77, default=LinkFaults(duplicate=1.0)
        )
        _publish(builder, publisher, count=5)
        prices = [offer.price for offer in inbox]
        assert sorted(prices) == [10.0, 11.0, 12.0, 13.0, 14.0]
        assert len(set(prices)) == 5
        counters = sub_peer.metrics.counters()
        suppressed = counters.get("wire_duplicates_suppressed", 0) + counters.get(
            "wire_stale_retransmits", 0
        )
        assert suppressed > 0
        assert builder.network.fault_plan.duplicated > 0

    def test_reordered_packets_deliver_in_publish_order(self, builder):
        builder.add_rendezvous("rdv-0")
        publisher, _subscriber, inbox, _pub_peer, sub_peer = _reliable_pair(builder)
        builder.network.fault_plan = FaultPlan(
            seed=42, default=LinkFaults(reorder=0.6, reorder_window=1.5)
        )
        # A burst with nothing settled in between keeps many messages in
        # flight at once, so the reorder delays genuinely shuffle arrivals.
        for index in range(10):
            publisher.publish(SkiRental("shop", 10.0 + index, "b", 1))
        builder.settle(rounds=16)
        assert [offer.price for offer in inbox] == [10.0 + i for i in range(10)]
        assert sub_peer.metrics.counters().get("wire_out_of_order_held", 0) > 0

    def test_holdback_overflow_delivers_the_unblocked_arrival_at_once(
        self, two_peers, reliable_arrival
    ):
        """Overflowing the hold-back buffer abandons the gap; an arrival that
        is then exactly the next sequence is delivered like any other (it
        used to be parked behind a fresh gap timer and count a second
        abandonment ``GAP_TIMEOUT`` later)."""
        alpha, beta, builder = two_peers
        advertisement = PipeAdvertisement(name="held", pipe_kind=PipeKind.WIRE.value)
        wire = beta.world_group.wire
        inbox = []
        wire.create_input_pipe(advertisement, lambda m, s: inbox.append(m.get_text("body")))
        # Room for everything the overflow releases at once.
        wire.cost_model = dataclasses.replace(wire.cost_model, receive_queue_limit=1000)

        def arrive(seq):
            wire._on_wire_envelope(
                *reliable_arrival(alpha, beta, advertisement.pipe_id.to_urn(), seq)
            )

        held = range(3, 3 + WireService.HOLDBACK_LIMIT)
        for seq in (1, *held):
            arrive(seq)
        overflow = held[-1] + 1
        arrive(overflow)
        state = wire._channels["test/c1"]
        assert (state.next_seq, state.buffer, state.gap_handle) == (overflow + 1, {}, None)
        builder.settle(rounds=64)
        assert inbox == [str(seq) for seq in (1, *held, overflow)]
        counters = beta.metrics.counters()
        assert counters["wire_order_gaps_abandoned"] == 1
        assert counters["wire_out_of_order_held"] == WireService.HOLDBACK_LIMIT

    def test_retries_heal_dropped_transmissions(self, builder, drop_first):
        builder.add_rendezvous("rdv-0")
        publisher, _subscriber, inbox, pub_peer, sub_peer = _reliable_pair(builder)
        plan = drop_first(pub_peer.node.address, sub_peer.node.address, count=2)
        builder.network.fault_plan = plan
        _publish(builder, publisher, price=55.0)
        builder.settle(rounds=8)
        assert [offer.price for offer in inbox] == [55.0]
        assert pub_peer.metrics.counters().get("wire_retries", 0) >= 1
        assert plan.remaining == 0

    def test_total_loss_link_reports_terminal_failure(self, builder):
        builder.add_rendezvous("rdv-0")
        publisher, _subscriber, inbox, pub_peer, sub_peer = _reliable_pair(builder)
        builder.network.fault_plan = FaultPlan(seed=5).set_link(
            pub_peer.node.address, sub_peer.node.address, LinkFaults(drop=1.0)
        )
        failures = []
        publisher.delivery_failure_handler = failures.append
        publisher.publish(SkiRental("shop", 66.0, "b", 1))
        builder.settle(rounds=16)
        assert inbox == []
        assert len(failures) == 1
        error = failures[0]
        assert isinstance(error, DeliveryFailedError)
        assert error.failure.attempts == MAX_ATTEMPTS
        counters = pub_peer.metrics.counters()
        assert counters.get("tps_delivery_failed", 0) == 1
        assert counters.get("wire_delivery_failed", 0) == 1

    def test_closed_engine_mid_flight_counts_drops(self, builder):
        builder.add_rendezvous("rdv-0")
        publisher, subscriber, inbox, _pub_peer, sub_peer = _pub_sub(builder)
        # Publish, then close the subscriber before letting delivery settle:
        # the in-flight message must land in a counter, not disappear.
        publisher.publish(SkiRental("shop", 10.0, "b", 1))
        subscriber.close()
        builder.settle(rounds=12)
        assert inbox == []
        counters = sub_peer.metrics.counters()
        # Depending on how far teardown got before the message landed, it is
        # refused at the endpoint (listener unregistered by the close), at
        # the wire service (pipe unbound), at the pipe (closed mid-queue) or
        # at the engine (closed flag) -- but always *counted*, never silent.
        accounted = (
            counters.get("endpoint_unhandled", 0)
            + counters.get("wire_unbound_deliveries", 0)
            + counters.get("wire_closed_pipe_drops", 0)
            + counters.get("tps_closed_engine_drops", 0)
        )
        assert accounted >= 1


class TestCircuitBreaker:
    def test_breaker_trips_cools_down_and_recovers(self, builder):
        builder.add_rendezvous("rdv-0")
        pub_peer = builder.add_peer("cb-pub")
        publisher = TPSEngine(
            SkiRental, peer=pub_peer, config=TPSConfig(search_timeout=2.0)
        ).new_interface("JXTA")
        builder.settle(rounds=8)
        sub_peer = builder.add_peer("cb-sub")
        subscriber = TPSEngine(
            SkiRental,
            peer=sub_peer,
            config=TPSConfig(search_timeout=6.0, create_if_missing=False),
        ).new_interface("JXTA")
        # A cooldown longer than a publish pump (8 settle rounds = 8 virtual
        # seconds), so the while-open publish below genuinely lands inside
        # the cooldown window.
        subscriber.set_breaker_policy(2, 30.0)
        failing = [True]
        inbox = []

        def flaky(offer):
            if failing[0]:
                raise RuntimeError("subscriber crash")
            inbox.append(offer)

        subscriber.subscribe(flaky)
        builder.settle(rounds=12)
        (subscription,) = subscriber.subscriber_manager.subscriptions()
        breaker = subscription.breaker
        assert breaker is not None

        # Two consecutive failures reach the threshold: the breaker opens.
        _publish(builder, publisher, count=2)
        assert breaker.state == "open"
        assert breaker.trips == 1

        # While open, deliveries are skipped (quarantine), not raised.
        _publish(builder, publisher, price=30.0)
        assert inbox == []
        assert breaker.skipped >= 1

        # After the cooldown (virtual time), the next event is a half-open
        # probe; the callback now succeeds, so the breaker closes again.
        failing[0] = False
        builder.simulator.run_until(builder.simulator.now + 31.0)
        _publish(builder, publisher, price=40.0)
        assert [offer.price for offer in inbox] == [40.0]
        assert breaker.state == "closed"
        assert breaker.resets == 1
        assert [state for state, _ in breaker.events] == ["open", "half_open", "closed"]
        counters = sub_peer.metrics.counters()
        assert counters.get("tps_breaker_open", 0) == 1
        assert counters.get("tps_breaker_half_open", 0) == 1
        assert counters.get("tps_breaker_closed", 0) == 1


    def test_transition_log_keeps_the_newest_entries_only(self):
        """A callback that flaps for the life of a subscription must not grow
        the breaker's ``events`` log without bound."""
        now = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown=1.0, clock=lambda: now[0])
        flaps = CircuitBreaker.EVENT_LOG_SIZE * 2
        for _ in range(flaps):
            breaker.record_failure()  # -> open
            now[0] += 2.0
            assert breaker.allow()  # cooled down -> half_open
        assert breaker.trips == flaps
        assert len(breaker.events) == CircuitBreaker.EVENT_LOG_SIZE
        assert breaker.events[-1] == ("half_open", now[0])


class TestOverload:
    def test_flooded_subscriber_drops_rather_than_stalls(self, builder):
        builder.add_rendezvous("rdv-0")
        publisher, _subscriber, inbox, _pub_peer, sub_peer = _pub_sub(builder)
        # Publish a burst far beyond the receive queue limit without letting
        # the subscriber drain.
        limit = sub_peer.cost_model.receive_queue_limit
        for _ in range(limit * 2):
            publisher.publish(SkiRental("shop", 10.0, "b", 1))
        builder.settle(rounds=64)
        dropped = sub_peer.metrics.counters().get("wire_messages_dropped", 0)
        assert dropped > 0
        assert 0 < len(inbox) <= limit * 2 - dropped + 1
        # The subscriber keeps working afterwards.
        _publish(builder, publisher, price=99.0)
        assert inbox[-1].price == 99.0
