"""PR 10 replay tests: resumable streams, ring/log conformance, catch-up.

Three layers of the durable-history story:

* **Resumable streams** -- ``tps.stream(from_offset=...)`` replays retained
  history, then follows live events, exactly-once and in offset order;
  ``resume(offset)`` repositions the cursor.  Threaded and asyncio flavours.
* **Conformance** -- every binding (LOCAL, SHARDED, JXTA, SHARDED+JXTA,
  ASYNC) answers its history queries identically with ``history="ring"``
  and ``history="log"``.
* **Catch-up** -- a killed-and-restarted peer with a ``LogHistory``-backed
  engine re-seeds its duplicate filter and per-source offsets from disk,
  requests the sent history since an offset over the wire, and observes exactly
  the missed events exactly once (the acceptance-criterion integration
  test); under :meth:`FaultPlan.chaos` the JXTA received history records
  exactly what the subscriber observed -- no duplicates, no phantom order.
"""

from __future__ import annotations

import asyncio
import os
import threading

import pytest

from repro.apps.skirental.types import SkiRental
from repro.core import TPSConfig, TPSEngine
from repro.core.exceptions import PSException
from repro.core.local_engine import LocalBus, LocalTPSEngine
from repro.core.sharded_engine import ShardedLocalBus
from repro.jxta.platform import JxtaNetworkBuilder
from repro.net.faults import FaultPlan

pytestmark = [pytest.mark.durability]


def _offer(index: int) -> SkiRental:
    return SkiRental(f"shop-{index}", float(index), "Salomon", 7)


def _shops(events) -> list:
    return [event.shop for event in events]


class TestResumableStreams:
    def test_from_offset_replays_then_follows_live(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(SkiRental, bus=bus)
        subscriber = LocalTPSEngine(SkiRental, bus=bus)
        subscriber.subscribe(lambda event: None)  # populate received history
        for index in range(5):
            publisher.publish(_offer(index))
        stream = subscriber.stream(from_offset=2)
        assert _shops(stream.drain()) == ["shop-2", "shop-3", "shop-4"]
        publisher.publish(_offer(5))
        assert _shops(stream.drain()) == ["shop-5"]
        assert stream.offset == subscriber.history_offset == 6
        stream.close()
        publisher.close()
        subscriber.close()

    def test_from_current_offset_skips_the_backlog(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(SkiRental, bus=bus)
        subscriber = LocalTPSEngine(SkiRental, bus=bus)
        subscriber.subscribe(lambda event: None)
        for index in range(3):
            publisher.publish(_offer(index))
        stream = subscriber.stream(from_offset=subscriber.history_offset)
        assert stream.drain() == []
        publisher.publish(_offer(9))
        assert _shops(stream.drain()) == ["shop-9"]
        publisher.close()
        subscriber.close()

    def test_resume_rewinds_and_redelivers(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(SkiRental, bus=bus)
        subscriber = LocalTPSEngine(SkiRental, bus=bus)
        subscriber.subscribe(lambda event: None)
        for index in range(4):
            publisher.publish(_offer(index))
        stream = subscriber.stream(from_offset=0)
        assert len(stream.drain()) == 4
        stream.resume(1)
        assert _shops(stream.drain()) == ["shop-1", "shop-2", "shop-3"]
        # resume discards anything buffered (no duplication on re-pull).
        publisher.publish(_offer(4))
        stream.resume(3)
        assert _shops(stream.drain()) == ["shop-3", "shop-4"]
        publisher.close()
        subscriber.close()

    def test_resume_discards_a_pump_blocked_on_a_full_buffer(self):
        """A publisher-thread pump blocked on a full ``"block"`` buffer must
        not deliver its pre-resume entry (nor rewind the cursor) once the
        consumer has resumed past it."""
        bus = LocalBus()
        publisher = LocalTPSEngine(SkiRental, bus=bus)
        subscriber = LocalTPSEngine(SkiRental, bus=bus)
        subscriber.subscribe(lambda event: None)
        stream = subscriber.stream(from_offset=0, maxsize=1, policy="block")
        # Signal when the pump starts waiting for room in the buffer.
        blocked = threading.Event()
        real_wait = stream._not_full.wait

        def wait(*args, **kwargs):
            blocked.set()
            return real_wait(*args, **kwargs)

        stream._not_full.wait = wait
        producer = threading.Thread(
            target=lambda: [publisher.publish(_offer(i)) for i in range(2)]
        )
        producer.start()
        # Offset 0 fills the buffer; the pump then blocks holding offset 1.
        assert blocked.wait(timeout=5), "the pump never blocked"
        stream.resume(2)
        producer.join(timeout=5)
        received = _shops(stream.drain())
        publisher.publish(_offer(2))
        received += _shops(stream.drain())
        assert received == ["shop-2"]
        assert stream.offset == 3
        publisher.close()
        subscriber.close()

    def test_live_streams_are_not_resumable(self):
        subscriber = LocalTPSEngine(SkiRental, bus=LocalBus())
        stream = subscriber.stream()
        with pytest.raises(PSException, match="from_offset"):
            stream.resume(0)
        subscriber.close()

    def test_bounded_retention_gap_is_skipped(self):
        """Evicted offsets are silently absent -- documented contract."""
        bus = LocalBus()
        publisher = LocalTPSEngine(SkiRental, bus=bus)
        subscriber = LocalTPSEngine(SkiRental, bus=bus, history_size=3)
        subscriber.subscribe(lambda event: None)
        for index in range(10):
            publisher.publish(_offer(index))
        stream = subscriber.stream(from_offset=0)
        assert _shops(stream.drain()) == ["shop-7", "shop-8", "shop-9"]
        publisher.close()
        subscriber.close()

    def test_pull_predicate_filters_at_replay_time(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(SkiRental, bus=bus)
        subscriber = LocalTPSEngine(SkiRental, bus=bus)
        subscriber.subscribe(lambda event: None)
        for index in range(6):
            publisher.publish(_offer(index))
        stream = (
            subscriber.subscription()
            .where(lambda offer: offer.price >= 3.0)
            .stream(from_offset=0)
        )
        assert _shops(stream.drain()) == ["shop-3", "shop-4", "shop-5"]
        publisher.publish(_offer(1))  # filtered out live too
        publisher.publish(_offer(7))
        assert _shops(stream.drain()) == ["shop-7"]
        # The cursor consumed the filtered entries as well.
        assert stream.offset == subscriber.history_offset
        publisher.close()
        subscriber.close()

    def test_log_backed_stream_replays_across_engine_restart(self, tmp_path):
        """The stream resumes from durable history written by a previous
        engine life (same store directory, fresh engine)."""
        bus = LocalBus()
        path = str(tmp_path / "sub")
        publisher = LocalTPSEngine(SkiRental, bus=bus)
        subscriber = LocalTPSEngine(
            SkiRental, bus=bus, history="log", history_path=path
        )
        subscriber.subscribe(lambda event: None)
        for index in range(4):
            publisher.publish(_offer(index))
        subscriber.close()
        reborn = LocalTPSEngine(SkiRental, bus=bus, history="log", history_path=path)
        assert reborn.history_offset == 4
        stream = reborn.stream(from_offset=1)
        assert _shops(stream.drain()) == ["shop-1", "shop-2", "shop-3"]
        reborn.subscribe(lambda event: None)
        publisher.publish(_offer(4))
        assert _shops(stream.drain()) == ["shop-4"]
        publisher.close()
        reborn.close()

    @pytest.mark.asyncio
    def test_async_stream_from_offset_and_resume(self):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher = engine.new_interface("ASYNC")
            subscriber = engine.new_interface("ASYNC")
            subscriber.subscribe(lambda event: None)
            for index in range(5):
                await publisher.publish(_offer(index))
            stream = subscriber.stream(from_offset=2)
            await asyncio.sleep(0)  # let the prefill task pump
            assert _shops(stream.drain()) == ["shop-2", "shop-3", "shop-4"]
            await publisher.publish(_offer(5))
            assert _shops(stream.drain()) == ["shop-5"]
            await stream.resume(4)
            assert _shops(stream.drain()) == ["shop-4", "shop-5"]
            live = subscriber.stream()
            with pytest.raises(PSException, match="from_offset"):
                await live.resume(0)
            await publisher.close()
            await subscriber.close()
            return True

        loop = asyncio.new_event_loop()
        try:
            assert loop.run_until_complete(main())
        finally:
            loop.close()

    @pytest.mark.asyncio
    def test_async_resume_discards_a_pump_suspended_on_a_full_buffer(self):
        """The asyncio twin: a pump suspended in ``_wait_for_room`` must not
        deliver its pre-resume entry after ``await stream.resume``."""

        async def main():
            engine = TPSEngine(SkiRental)
            publisher = engine.new_interface("ASYNC")
            subscriber = engine.new_interface("ASYNC")
            subscriber.subscribe(lambda event: None)
            stream = subscriber.stream(from_offset=0, maxsize=1, policy="block")

            async def produce():
                for index in range(2):
                    await publisher.publish(_offer(index))

            producer = asyncio.get_running_loop().create_task(produce())
            # Offset 0 fills the buffer; the pump then suspends on offset 1,
            # parking its waiter future in the stream's own _not_full deque.
            for _ in range(1000):
                if stream._not_full:
                    break
                await asyncio.sleep(0)
            assert stream._not_full, "the pump never suspended"
            await stream.resume(2)
            await producer
            assert stream.drain() == []
            await publisher.publish(_offer(2))
            assert _shops(stream.drain()) == ["shop-2"]
            assert stream.offset == 3
            await publisher.close()
            await subscriber.close()
            return True

        loop = asyncio.new_event_loop()
        try:
            assert loop.run_until_complete(main())
        finally:
            loop.close()


def _raises_on_shop_1(offer: SkiRental) -> bool:
    if offer.shop == "shop-1":
        raise ValueError("bad predicate on shop-1")
    return True


class TestReplayPredicateErrors:
    """A pull predicate that raises while a cursor-mode stream replays (at
    construction) or re-pulls (``resume``) is routed to the stream's paired
    exception handler, consumes its entry, and the pull continues -- the
    same outcome a live wake already had."""

    @staticmethod
    def _local_backlog():
        bus = LocalBus()
        publisher = LocalTPSEngine(SkiRental, bus=bus)
        subscriber = LocalTPSEngine(SkiRental, bus=bus)
        subscriber.subscribe(lambda event: None)
        for index in range(3):
            publisher.publish(_offer(index))
        return publisher, subscriber

    def _assert_routed(self, stream, subscriber, errors, drained):
        assert _shops(drained) == ["shop-0", "shop-2"]
        assert [str(error) for error in errors] == ["bad predicate on shop-1"]
        assert stream.offset == subscriber.history_offset == 3

    def test_threaded_replay_routes_a_raising_predicate(self):
        publisher, subscriber = self._local_backlog()
        errors = []
        stream = (
            subscriber.subscription()
            .where(_raises_on_shop_1)
            .on_error(errors.append)
            .stream(from_offset=0)
        )
        self._assert_routed(stream, subscriber, errors, stream.drain())
        publisher.close()
        subscriber.close()

    def test_threaded_resume_routes_a_raising_predicate(self):
        publisher, subscriber = self._local_backlog()
        errors = []
        stream = (
            subscriber.subscription()
            .where(_raises_on_shop_1)
            .on_error(errors.append)
            .stream(from_offset=subscriber.history_offset)
        )
        assert stream.resume(0) is stream
        self._assert_routed(stream, subscriber, errors, stream.drain())
        publisher.close()
        subscriber.close()

    def _run_async(self, body):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher = engine.new_interface("ASYNC")
            subscriber = engine.new_interface("ASYNC")
            subscriber.subscribe(lambda event: None)
            for index in range(3):
                await publisher.publish(_offer(index))
            errors = []
            stream, drained = await body(subscriber, errors)
            self._assert_routed(stream, subscriber, errors, drained)
            engine.close()
            return True

        loop = asyncio.new_event_loop()
        try:
            assert loop.run_until_complete(main())
        finally:
            loop.close()

    @pytest.mark.asyncio
    def test_async_replay_routes_a_raising_predicate(self):
        async def body(subscriber, errors):
            stream = (
                subscriber.subscription()
                .where(_raises_on_shop_1)
                .on_error(errors.append)
                .stream(from_offset=0)
            )
            await asyncio.sleep(0)  # let the prefill task pump
            return stream, stream.drain()

        self._run_async(body)

    @pytest.mark.asyncio
    def test_async_resume_routes_a_raising_predicate(self):
        async def body(subscriber, errors):
            stream = (
                subscriber.subscription()
                .where(_raises_on_shop_1)
                .on_error(errors.append)
                .stream(from_offset=subscriber.history_offset)
            )
            assert await stream.resume(0) is stream
            return stream, stream.drain()

        self._run_async(body)

    @pytest.mark.asyncio
    def test_async_coroutine_handler_runs_on_the_loop(self):
        async def body(subscriber, errors):
            async def handler(error):
                await asyncio.sleep(0)
                errors.append(error)

            stream = (
                subscriber.subscription()
                .where(_raises_on_shop_1)
                .on_error(handler)
                .stream(from_offset=subscriber.history_offset)
            )
            await stream.resume(0)
            for _ in range(3):
                await asyncio.sleep(0)  # let the handler task finish
            return stream, stream.drain()

        self._run_async(body)


class _HistoryReport:
    """What one pub/sub run looked like through the history queries."""

    def __init__(self, publisher, subscriber):
        self.sent = _shops(publisher.objects_sent())
        self.received = _shops(subscriber.objects_received())
        self.sent_since = [
            (offset, event.shop) for offset, event, _ in publisher._sent.since(0)
        ]
        self.received_since = [
            (offset, event.shop) for offset, event, _ in subscriber._received.since(2)
        ]
        self.offsets = (publisher.sent_offset, subscriber.history_offset)

    def as_tuple(self):
        return (
            self.sent,
            self.received,
            self.sent_since,
            self.received_since,
            self.offsets,
        )


@pytest.mark.slow
class TestRingLogConformance:
    """All five bindings answer history queries identically for ring/log."""

    EVENTS = 6

    def _publish_all(self, publisher, pump=None):
        for index in range(self.EVENTS):
            publisher.publish(_offer(index))
            if pump is not None:
                pump()

    def _run_local(self, history, tmp_path):
        bus = LocalBus()
        kwargs = {"history": history}
        if history == "log":
            kwargs["history_path"] = str(tmp_path / "local")
        publisher = LocalTPSEngine(SkiRental, bus=bus, **kwargs)
        subscriber = LocalTPSEngine(
            SkiRental,
            bus=bus,
            history=history,
            history_path=str(tmp_path / "local-sub") if history == "log" else None,
        )
        subscriber.subscribe(lambda event: None)
        self._publish_all(publisher)
        report = _HistoryReport(publisher, subscriber)
        publisher.close()
        subscriber.close()
        return report

    def _run_sharded(self, history, tmp_path):
        bus = ShardedLocalBus(shards=2)
        params = {"history": history}
        if history == "log":
            params["history_path"] = str(tmp_path / "shard-pub")
        publisher = TPSEngine(SkiRental, local_bus=bus).new_interface(
            "SHARDED", **params
        )
        sub_params = {"history": history}
        if history == "log":
            sub_params["history_path"] = str(tmp_path / "shard-sub")
        subscriber = TPSEngine(SkiRental, local_bus=bus).new_interface(
            "SHARDED", **sub_params
        )
        subscriber.subscribe(lambda event: None)
        self._publish_all(publisher)
        report = _HistoryReport(publisher, subscriber)
        publisher.close()
        subscriber.close()
        bus.shutdown()
        return report

    def _run_async(self, history, tmp_path):
        async def main():
            params = {"history": history}
            if history == "log":
                params["history_path"] = str(tmp_path / "async-pub")
            publisher = TPSEngine(SkiRental).new_interface("ASYNC", **params)
            sub_params = {"history": history}
            if history == "log":
                sub_params["history_path"] = str(tmp_path / "async-sub")
            subscriber = TPSEngine(SkiRental).new_interface("ASYNC", **sub_params)
            subscriber.subscribe(lambda event: None)
            for index in range(self.EVENTS):
                await publisher.publish(_offer(index))
            report = _HistoryReport(publisher, subscriber)
            await publisher.close()
            await subscriber.close()
            return report

        loop = asyncio.new_event_loop()
        try:
            return loop.run_until_complete(main())
        finally:
            loop.close()

    def _run_wire(self, binding, history, tmp_path):
        builder = JxtaNetworkBuilder(seed=20021013)
        builder.add_rendezvous("rdv-0")
        pub_peer = builder.add_peer("hist-pub")
        sub_peer = builder.add_peer("hist-sub")
        builder.settle(rounds=6)
        pub_config = TPSConfig(
            search_timeout=2.0,
            history=history,
            history_path=str(tmp_path / "wire-pub") if history == "log" else "",
        )
        sub_config = TPSConfig(
            search_timeout=4.0,
            create_if_missing=False,
            history=history,
            history_path=str(tmp_path / "wire-sub") if history == "log" else "",
        )
        publisher = TPSEngine(SkiRental, peer=pub_peer, config=pub_config).new_interface(
            binding
        )
        builder.settle(rounds=8)
        subscriber = TPSEngine(SkiRental, peer=sub_peer, config=sub_config).new_interface(
            binding
        )
        subscriber.subscribe(lambda event: None)
        builder.settle(rounds=14)
        self._publish_all(publisher, pump=lambda: builder.settle(rounds=2))
        builder.settle(rounds=6)
        report = _HistoryReport(publisher, subscriber)
        publisher.close()
        subscriber.close()
        return report

    @pytest.mark.parametrize(
        "binding", ["LOCAL", "SHARDED", "ASYNC", "JXTA", "SHARDED+JXTA"]
    )
    def test_ring_and_log_answer_identically(self, binding, tmp_path):
        runners = {
            "LOCAL": self._run_local,
            "SHARDED": self._run_sharded,
            "ASYNC": self._run_async,
            "JXTA": lambda history, path: self._run_wire("JXTA", history, path),
            "SHARDED+JXTA": lambda history, path: self._run_wire(
                "SHARDED+JXTA", history, path
            ),
        }
        ring = runners[binding]("ring", tmp_path / "ring")
        log = runners[binding]("log", tmp_path / "log")
        assert ring.as_tuple() == log.as_tuple()
        # And both actually saw the traffic.
        assert ring.sent == [f"shop-{i}" for i in range(self.EVENTS)]
        assert sorted(ring.received) == sorted(ring.sent)


@pytest.mark.slow
@pytest.mark.chaos
class TestChaosHistoryIntegrity:
    """Satellite 3: JXTA history records exactly what the subscriber saw."""

    def test_history_matches_observed_delivery_under_chaos(self):
        builder = JxtaNetworkBuilder(seed=20020713)
        builder.add_rendezvous("rdv-0")
        pub_peer = builder.add_peer("chaos-pub")
        sub_peer = builder.add_peer("chaos-sub")
        builder.settle(rounds=6)
        builder.network.fault_plan = FaultPlan.chaos(seed=20020713)
        publisher = TPSEngine(
            SkiRental,
            peer=pub_peer,
            config=TPSConfig(search_timeout=2.0, reliable_delivery=True),
        ).new_interface("JXTA")
        subscriber = TPSEngine(
            SkiRental,
            peer=sub_peer,
            config=TPSConfig(
                search_timeout=4.0, create_if_missing=False, reliable_delivery=True
            ),
        ).new_interface("JXTA")
        observed = []
        subscriber.subscribe(observed.append)
        builder.settle(rounds=14)
        for index in range(25):
            publisher.publish(_offer(index))
            builder.settle(rounds=3)
        builder.settle(rounds=30)
        history = subscriber.objects_received()
        # The history is exactly the observed delivery sequence: an event
        # appears in the history iff the subscriber's callback saw it, in
        # the same order (append happens immediately before dispatch, after
        # the duplicate filter).
        assert _shops(history) == _shops(observed)
        # And chaos duplication never leaked through: each event at most once.
        assert len(set(_shops(history))) == len(history)
        # Reliable delivery got everything through despite the drops.
        assert sorted(_shops(history)) == sorted(f"shop-{i}" for i in range(25))
        publisher.close()
        subscriber.close()


@pytest.mark.slow
class TestWireCatchUp:
    """The acceptance-criterion integration test: kill, restart, replay."""

    def _network(self):
        builder = JxtaNetworkBuilder(seed=19991224)
        builder.add_rendezvous("rdv-0")
        pub_peer = builder.add_peer("durable-pub")
        sub_peer = builder.add_peer("durable-sub")
        builder.settle(rounds=6)
        return builder, pub_peer, sub_peer

    def _subscriber(self, sub_peer, path, binding="JXTA"):
        config = TPSConfig(
            search_timeout=2.0,
            create_if_missing=False,
            reliable_delivery=True,
            history="log",
            history_path=path,
        )
        interface = TPSEngine(SkiRental, peer=sub_peer, config=config).new_interface(
            binding
        )
        inbox = []
        interface.subscribe(inbox.append)
        return interface, inbox

    def test_restarted_peer_replays_missed_events_exactly_once(self, tmp_path):
        self._kill_restart_catch_up("JXTA", tmp_path)

    def test_restarted_composite_replays_missed_events_exactly_once(self, tmp_path):
        """The composite is one engine with one received.log: the replayed
        events are recognised by the message ids persisted there."""
        self._kill_restart_catch_up("SHARDED+JXTA", tmp_path)
        assert sorted(os.listdir(tmp_path / "sub")) == ["received.log", "sent.log"]

    def _kill_restart_catch_up(self, binding, tmp_path):
        builder, pub_peer, sub_peer = self._network()
        pub_config = TPSConfig(
            search_timeout=2.0,
            serve_history=True,
            reliable_delivery=True,
            history="log",
            history_path=str(tmp_path / "pub"),
        )
        publisher = TPSEngine(SkiRental, peer=pub_peer, config=pub_config).new_interface(
            binding
        )
        builder.settle(rounds=8)
        sub_path = str(tmp_path / "sub")
        subscriber, inbox = self._subscriber(sub_peer, sub_path, binding)
        builder.settle(rounds=14)

        publisher.publish(_offer(0))
        builder.settle(rounds=4)
        publisher.publish(_offer(1))
        builder.settle(rounds=8)
        assert _shops(inbox) == ["shop-0", "shop-1"]

        # Kill the subscriber (flushes its durable stores)...
        subscriber.close()
        # ...and publish what it will miss.
        publisher.publish(_offer(2))
        builder.settle(rounds=4)
        publisher.publish(_offer(3))
        builder.settle(rounds=8)

        # Restart: same store directory, fresh engine.  Construction
        # re-seeds the duplicate filter and per-source offsets from disk
        # and schedules one automatic catch-up request.
        reborn, inbox2 = self._subscriber(sub_peer, sub_path, binding)
        assert reborn.history_offset == 2  # the persisted prefix
        builder.settle(rounds=20)

        # Exactly the missed events arrived, exactly once, in order.
        assert _shops(inbox2) == ["shop-2", "shop-3"]
        # The durable history now holds the complete stream across both
        # engine lives, resumable by offset.
        assert _shops(reborn.objects_received()) == [
            "shop-0",
            "shop-1",
            "shop-2",
            "shop-3",
        ]
        assert [
            event.shop for _, event, _ in reborn._received.since(2)
        ] == ["shop-2", "shop-3"]
        publisher.close()
        reborn.close()

    def test_explicit_request_history_is_idempotent(self, tmp_path):
        """A second catch-up request replays nothing new (dedup holds)."""
        builder, pub_peer, sub_peer = self._network()
        pub_config = TPSConfig(
            search_timeout=2.0,
            serve_history=True,
            reliable_delivery=True,
            history="log",
            history_path=str(tmp_path / "pub"),
        )
        publisher = TPSEngine(SkiRental, peer=pub_peer, config=pub_config).new_interface(
            "JXTA"
        )
        builder.settle(rounds=8)
        subscriber, inbox = self._subscriber(sub_peer, str(tmp_path / "sub"))
        builder.settle(rounds=14)
        for index in range(3):
            publisher.publish(_offer(index))
        builder.settle(rounds=8)
        assert len(inbox) == 3
        pipes = subscriber.request_history(since=0)
        assert pipes >= 1
        builder.settle(rounds=10)
        # Replay happened (the publisher served the request) but every
        # replayed message was recognised by its original id and dropped.
        assert _shops(inbox) == ["shop-0", "shop-1", "shop-2"]
        assert len(subscriber.objects_received()) == 3
        publisher.close()
        subscriber.close()

    def test_composite_recover_hook_survives_unattached_wire(self):
        """The membership 'recover' branch must not raise before the wire
        is attached (catch-up is best-effort there)."""
        builder = JxtaNetworkBuilder(seed=7)
        peer = builder.add_peer("solo", connect_rendezvous=False)
        engine = TPSEngine(SkiRental, peer=peer).new_interface(
            "SHARDED+JXTA", shards=2
        )
        engine._on_membership_event("recover", "urn:jxta:nowhere")  # no raise
        engine._on_membership_event("suspect", "urn:jxta:nowhere")
        engine.close()
