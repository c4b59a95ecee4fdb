"""The membership layer: heartbeat failure detection and its composite wiring.

Three layers under test:

* :class:`~repro.net.membership.MembershipMonitor` alone -- the ALIVE ->
  SUSPECT -> DEAD state machine driven by simulated partitions and
  ``FaultPlan`` packet loss, plus recovery when the network heals (the
  detector keeps probing confirmed-dead peers; that asymmetry is the rejoin
  path);
* the wire-layer reactions -- :meth:`WireService.fail_target` failing
  pending reliable deliveries through the ``DeliveryFailure`` path and
  :meth:`PipeBindingService.forget_peer` dropping a dead peer from the
  binding tables;
* the ``SHARDED+JXTA`` binding's integration -- ``membership=True`` runs
  one detector per peer, publishes watch resolved peers, and a *confirmed*
  departure closes the wire leg: queued deliveries surface through the PR 6
  ``delivery_failure_handler`` instead of burning the whole retry ladder.

The detector's timing is module constants; :class:`TestDetectorTiming` pins
that a departed peer is convicted before the wire's retry ladder gives up.
"""

from __future__ import annotations

import math
from typing import Any, List, Tuple

import pytest

from repro.apps.skirental.types import SkiRental
from repro.core import TPSConfig, TPSEngine
from repro.core.exceptions import PSException
from repro.jxta import wire
from repro.jxta.platform import JxtaNetworkBuilder
from repro.net.faults import FaultPlan, LinkFaults
from repro.net.membership import (
    ALIVE,
    CONFIRM_TIMEOUT,
    DEAD,
    HEARTBEAT_INTERVAL,
    HEARTBEAT_JITTER,
    SUSPECT,
    SUSPECT_TIMEOUT,
    MembershipMonitor,
)


def _heal(network, a, b):
    """Undo ``network.partition(a, b)`` (the network has no public heal)."""
    network._partitions.discard(frozenset((a, b)))


def _network(*names: str, seed: int = 20020713):
    builder = JxtaNetworkBuilder(seed=seed)
    builder.add_rendezvous("rdv-0")
    peers = [builder.add_peer(name) for name in names]
    builder.settle(rounds=6)
    return builder, peers


class TestDetectorTiming:
    #: The longest gap between two ticks (the period plus its jitter).
    TICK = HEARTBEAT_INTERVAL * (1 + HEARTBEAT_JITTER)

    def test_one_lost_heartbeat_raises_no_suspicion(self):
        assert HEARTBEAT_INTERVAL > 0 and CONFIRM_TIMEOUT > 0
        assert SUSPECT_TIMEOUT > 2 * self.TICK

    def test_worst_case_conviction_beats_the_shortest_retry_ladder(self):
        # Suspicion and confirmation are each checked on a tick, so each can
        # land one full tick late: this bounds the time from the last
        # heartbeat heard (never later than the send) to the conviction.
        conviction = SUSPECT_TIMEOUT + self.TICK + CONFIRM_TIMEOUT + self.TICK
        # The reliable sender gives up when the timer after its last
        # transmission expires; every timer is lognormally jittered, so take
        # each one four sigma short at once.
        nominal = sum(
            min(wire.BACKOFF_CAP, wire.ACK_TIMEOUT * wire.BACKOFF**attempt)
            for attempt in range(wire.MAX_ATTEMPTS)
        )
        assert nominal == pytest.approx(7.75)
        shortest = nominal * math.exp(-4 * wire.RETRY_JITTER)
        assert conviction < shortest, (conviction, shortest)


class TestFailureDetector:
    def test_mutual_heartbeats_keep_both_alive(self):
        builder, (alice, bob) = _network("alice", "bob")
        a = MembershipMonitor(alice)
        b = MembershipMonitor(bob)
        a.watch(bob)
        builder.simulator.run_until(builder.simulator.now + 3.0)
        assert a.state_of(bob) == ALIVE
        # Mutual discovery: bob never called watch, yet monitors alice now.
        assert b.state_of(alice) == ALIVE
        assert alice.metrics.gauge("membership_alive").value == 1
        a.stop()
        b.stop()

    def test_partition_escalates_suspect_then_dead_then_recovers(self):
        builder, (alice, bob) = _network("alice", "bob")
        a = MembershipMonitor(alice)
        b = MembershipMonitor(bob)
        a.watch(bob)
        events: List[Tuple[str, str]] = []
        a.add_listener(lambda event, urn: events.append((event, urn)))
        builder.simulator.run_until(builder.simulator.now + 1.0)
        assert a.state_of(bob) == ALIVE
        # Cut bob off entirely (unicast can relay through the rendezvous, so
        # both links must go).
        builder.network.partition("bob", "alice")
        builder.network.partition("bob", "rdv-0")
        builder.simulator.run_until(builder.simulator.now + 0.7)
        assert a.state_of(bob) == SUSPECT
        builder.simulator.run_until(builder.simulator.now + 1.0)
        assert a.state_of(bob) == DEAD
        assert alice.metrics.counter("membership_confirmed_dead").value == 1
        # Heal: the detector kept probing, so bob comes back by itself.
        _heal(builder.network, "bob", "alice")
        _heal(builder.network, "bob", "rdv-0")
        builder.simulator.run_until(builder.simulator.now + 1.5)
        assert a.state_of(bob) == ALIVE
        bob_urn = bob.peer_id.to_urn()
        assert [event for event, urn in events if urn == bob_urn] == [
            "suspect",
            "confirm",
            "recover",
        ]
        a.stop()
        b.stop()

    def test_fault_plan_loss_gives_asymmetric_verdicts(self):
        # Drop everything *from* bob: alice convicts bob, bob still hears
        # alice -- suspicion is a verdict about communication, per direction.
        builder, (alice, bob) = _network("alice", "bob")
        a = MembershipMonitor(alice)
        b = MembershipMonitor(bob)
        a.watch(bob)
        builder.simulator.run_until(builder.simulator.now + 1.0)
        plan = FaultPlan()
        plan.set_link("bob", "alice", LinkFaults(drop=1.0))
        plan.set_link("bob", "rdv-0", LinkFaults(drop=1.0))
        builder.network.fault_plan = plan
        builder.simulator.run_until(builder.simulator.now + 2.5)
        assert a.state_of(bob) == DEAD
        assert b.state_of(alice) == ALIVE
        a.stop()
        b.stop()

    def test_watch_is_idempotent_and_skips_self(self):
        builder, (alice, bob) = _network("alice", "bob")
        a = MembershipMonitor(alice)
        a.watch(bob)
        a.watch(bob)
        a.watch(bob.peer_id)
        a.watch(alice)  # never watches itself
        assert list(a.members()) == [bob.peer_id.to_urn()]
        assert alice.metrics.counter("membership_joined").value == 1
        a.forget(bob)
        assert a.members() == {}
        a.stop()

    def test_listener_errors_are_contained(self):
        builder, (alice, bob) = _network("alice", "bob")
        a = MembershipMonitor(alice)

        def explode(event: str, urn: str) -> None:
            raise RuntimeError("listener boom")

        seen: List[str] = []
        a.add_listener(explode)
        a.add_listener(lambda event, urn: seen.append(event))
        a.watch(bob)
        assert seen == ["join"]
        assert alice.metrics.counter("membership_listener_errors").value == 1
        a.stop()

    def test_stop_is_idempotent(self):
        builder, (alice,) = _network("alice")
        a = MembershipMonitor(alice)
        a.stop()
        a.stop()
        sent = alice.metrics.counter("membership_heartbeats_sent").value
        builder.simulator.run_until(builder.simulator.now + 2.0)
        assert alice.metrics.counter("membership_heartbeats_sent").value == sent


def _composite_pair(builder, pub_peer, sub_peer, **extra):
    params = dict(membership=True, **extra)
    pub_engine = TPSEngine(
        SkiRental,
        peer=pub_peer,
        config=TPSConfig(
            search_timeout=2.0, create_if_missing=True, reliable_delivery=True
        ),
    )
    publisher = pub_engine.new_interface("SHARDED+JXTA", **params)
    builder.settle(rounds=10)
    sub_engine = TPSEngine(
        SkiRental,
        peer=sub_peer,
        config=TPSConfig(
            search_timeout=6.0, create_if_missing=False, reliable_delivery=True
        ),
    )
    subscriber = sub_engine.new_interface("SHARDED+JXTA", **params)
    builder.settle(rounds=10)
    return pub_engine, publisher, sub_engine, subscriber


@pytest.mark.slow
class TestCompositeMembership:
    def test_departed_peer_reported_through_delivery_failure_handler(self):
        builder, (pub, sub) = _network("pub", "sub")
        pub_engine, publisher, sub_engine, subscriber = _composite_pair(
            builder, pub, sub
        )
        inbox: List[Any] = []
        subscriber.subscribe(inbox.append)
        builder.settle(rounds=10)
        publisher.publish(SkiRental("shop", 10.0, "Salomon", 7))
        builder.simulator.run_until(builder.simulator.now + 3.0)
        assert [e.shop for e in inbox] == ["shop"]
        # Publishing put the resolved subscriber under watch.
        monitor = publisher.membership
        assert monitor is not None
        assert monitor.state_of(sub.peer_id) == ALIVE

        failures: List[Any] = []
        publisher.delivery_failure_handler = failures.append
        builder.network.partition("sub", "pub")
        builder.network.partition("sub", "rdv-0")
        publisher.publish(SkiRental("lost", 20.0, "Atomic", 5))
        builder.simulator.run_until(builder.simulator.now + 5.0)
        # Confirmed dead; the pending reliable delivery was failed through
        # the application handler instead of retrying forever.
        assert monitor.state_of(sub.peer_id) == DEAD
        assert len(failures) == 1
        assert pub.metrics.counter("wire_peer_departed").value >= 1
        # ... and the peer left the binding tables.
        assert pub.metrics.counter("pbp_bindings_forgotten").value >= 1

        # Rejoin: heal, recover, and delivery works again.
        _heal(builder.network, "sub", "pub")
        _heal(builder.network, "sub", "rdv-0")
        builder.simulator.run_until(builder.simulator.now + 3.0)
        assert monitor.state_of(sub.peer_id) == ALIVE
        publisher.publish(SkiRental("back", 40.0, "Volkl", 2))
        builder.simulator.run_until(builder.simulator.now + 3.0)
        assert [e.shop for e in inbox] == ["shop", "back"]
        pub_engine.close()
        sub_engine.close()

    def test_monitor_is_shared_per_peer(self):
        builder, (pub, sub) = _network("pub", "sub")
        pub_engine, publisher, sub_engine, subscriber = _composite_pair(
            builder, pub, sub
        )
        second = TPSEngine(
            SkiRental,
            peer=pub,
            config=TPSConfig(search_timeout=2.0, create_if_missing=True),
        ).new_interface("SHARDED+JXTA", membership=True)
        # Same peer -> same monitor; the other peer has its own.
        assert second.membership is publisher.membership
        assert subscriber.membership is not publisher.membership
        pub_engine.close()
        sub_engine.close()

    def test_membership_off_by_default(self):
        builder, (pub, sub) = _network("pub", "sub")
        engine = TPSEngine(
            SkiRental,
            peer=pub,
            config=TPSConfig(search_timeout=2.0, create_if_missing=True),
        )
        interface = engine.new_interface("SHARDED+JXTA")
        assert interface.membership is None
        engine.close()


class TestCompositeMembershipParams:
    def test_ill_typed_membership_params_name_the_key(self):
        builder, (pub,) = _network("solo")
        engine = TPSEngine(
            SkiRental,
            peer=pub,
            config=TPSConfig(search_timeout=2.0, create_if_missing=True),
        )
        with pytest.raises(PSException) as excinfo:
            engine.new_interface("SHARDED+JXTA", membership="yes")
        assert "membership" in str(excinfo.value)
