"""Threaded stress tests for the concurrent TPS bus (PR 4).

Every test that starts threads joins them against a hard wall-clock
deadline: a regression that deadlocks (a producer sleeping on a cancelled
subscription, a lost condition wake, a lock-ordering cycle) fails the test
with a named-thread diagnostic instead of hanging CI.

Covered surfaces:

* ``LocalBus`` -- concurrent publish x subscribe/cancel churn x
  attach/detach/close churn: no lost or duplicated deliveries to a resident
  subscriber, no exceptions escaping any thread;
* ``ShardedLocalBus`` -- concurrent publishers on independent hierarchies,
  the ``publish_all`` cross-shard batch path, and the ``publish_many``
  batch API;
* ``SubscriptionHandle.cancel`` -- exactly-once under concurrent callers;
* ``EventStream`` -- producer/consumer handoff with ``"block"``
  backpressure, concurrent close, and the re-entrant
  publisher-is-the-only-consumer deadlock detection;
* mid-dispatch engine close -- a callback closing another engine keeps that
  engine from receiving the in-flight event (the stale-row fix);
* ``RingHistory`` -- the lock-free per-delivery ``append`` against
  concurrent readers, trims and ``clear()``: dense offsets in every read,
  nothing lost or duplicated, no offset skipped.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time
from typing import Any, Callable, List

import pytest

from repro.core.callbacks import CollectingExceptionHandler
from repro.core.exceptions import PSException
from repro.core.history import RingHistory
from repro.core.local_engine import LocalBus, LocalTPSEngine
from repro.core.sharded_engine import ShardedLocalBus

#: The whole module is wall-clock stress testing: marked so a fast local
#: loop can deselect it (``-m "not slow"``) while tier-1 runs everything.
pytestmark = [pytest.mark.slow, pytest.mark.stress]

#: Hard wall-clock ceiling for any single test's thread group.
DEADLINE_S = 20.0


@dataclasses.dataclass
class Offer:
    price: float = 0.0
    sequence: int = 0


@dataclasses.dataclass
class AlphaEvent:
    value: int = 0


@dataclasses.dataclass
class BetaEvent:
    value: int = 0


@dataclasses.dataclass
class GammaEvent:
    value: int = 0


@dataclasses.dataclass
class DeltaEvent:
    value: int = 0


HIERARCHIES = (AlphaEvent, BetaEvent, GammaEvent, DeltaEvent)


class ThreadGroup:
    """Runs callables on named daemon threads; join() enforces the deadline
    and re-raises the first exception any worker hit."""

    def __init__(self) -> None:
        self.threads: List[threading.Thread] = []
        self.errors: List[BaseException] = []

    def spawn(self, fn: Callable[[], None], name: str) -> None:
        def run() -> None:
            try:
                fn()
            except BaseException as error:  # noqa: BLE001 - re-raised in join
                self.errors.append(error)

        thread = threading.Thread(target=run, name=name, daemon=True)
        self.threads.append(thread)

    def start(self) -> None:
        for thread in self.threads:
            thread.start()

    def join(self, deadline: float = DEADLINE_S) -> None:
        end = time.monotonic() + deadline
        for thread in self.threads:
            thread.join(max(0.05, end - time.monotonic()))
        stuck = [thread.name for thread in self.threads if thread.is_alive()]
        assert not stuck, f"threads still running after {deadline}s: {stuck}"
        if self.errors:
            raise self.errors[0]


class TestLocalBusUnderContention:
    def test_publish_with_subscribe_cancel_churn_loses_nothing(self):
        bus = LocalBus()
        publishers = [LocalTPSEngine(Offer, bus=bus) for _ in range(2)]
        resident = LocalTPSEngine(Offer, bus=bus)
        received: List[Any] = []
        resident.subscribe(received.append)
        churn_engine = LocalTPSEngine(Offer, bus=bus)
        events_per_publisher = 300
        stop_churn = threading.Event()

        def publish_loop(publisher: LocalTPSEngine) -> None:
            for sequence in range(events_per_publisher):
                publisher.publish(Offer(10.0, sequence))

        def churn_loop() -> None:
            while not stop_churn.is_set():
                handle = churn_engine.subscribe(lambda event: None)
                handle.cancel()

        group = ThreadGroup()
        for index, publisher in enumerate(publishers):
            group.spawn(lambda p=publisher: publish_loop(p), f"publisher-{index}")
        group.spawn(churn_loop, "churn")
        group.start()
        for thread in group.threads:
            if thread.name != "churn":
                thread.join(DEADLINE_S)
        stop_churn.set()
        group.join()
        # Every publish delivers to the resident subscriber exactly once:
        # churn on other subscriptions must not lose or duplicate events.
        assert len(received) == len(publishers) * events_per_publisher

    def test_publish_with_attach_detach_close_churn(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(Offer, bus=bus)
        resident = LocalTPSEngine(Offer, bus=bus)
        received: List[Any] = []
        resident.subscribe(received.append)
        events = 400
        stop_churn = threading.Event()

        def publish_loop() -> None:
            for sequence in range(events):
                publisher.publish(Offer(10.0, sequence))

        def lifecycle_churn() -> None:
            while not stop_churn.is_set():
                transient = LocalTPSEngine(Offer, bus=bus)
                transient.subscribe(lambda event: None)
                transient.close()

        group = ThreadGroup()
        group.spawn(publish_loop, "publisher")
        group.spawn(lifecycle_churn, "lifecycle-churn")
        group.spawn(lifecycle_churn, "lifecycle-churn-2")
        group.start()
        group.threads[0].join(DEADLINE_S)
        stop_churn.set()
        group.join()
        assert len(received) == events
        # Route tables settled: one more publish still reaches the resident.
        publisher.publish(Offer(1.0, events))
        assert len(received) == events + 1

    def test_callback_closing_another_engine_mid_dispatch_skips_it(self):
        # The stale-row fix, single-threaded and deterministic: the route row
        # is resolved before dispatch starts, so without the closed check the
        # victim would still receive the in-flight event.
        bus = LocalBus()
        publisher = LocalTPSEngine(Offer, bus=bus)
        closer = LocalTPSEngine(Offer, bus=bus)
        victim = LocalTPSEngine(Offer, bus=bus)
        victim_received: List[Any] = []
        victim.subscribe(victim_received.append)
        closer.subscribe(lambda event: victim.close())
        receipt = publisher.publish(Offer(99.0, 0))
        assert victim.closed
        assert victim_received == []
        assert victim.objects_received() == []
        assert receipt.wire_receipts == [1]  # only the closer engine


class TestShardedBusConcurrency:
    def test_independent_hierarchies_deliver_exact_counts(self):
        bus = ShardedLocalBus(shards=len(HIERARCHIES))
        events_per_hierarchy = 300
        publishers = []
        counters: List[List[Any]] = []
        for event_type in HIERARCHIES:
            publisher = LocalTPSEngine(event_type, bus=bus)
            subscriber = LocalTPSEngine(event_type, bus=bus)
            received: List[Any] = []
            subscriber.subscribe(received.append)
            publishers.append(publisher)
            counters.append(received)

        def publish_loop(publisher: LocalTPSEngine, event_type: type) -> None:
            for sequence in range(events_per_hierarchy):
                publisher.publish(event_type(sequence))

        group = ThreadGroup()
        for index, (publisher, event_type) in enumerate(zip(publishers, HIERARCHIES)):
            group.spawn(
                lambda p=publisher, t=event_type: publish_loop(p, t),
                f"publisher-{index}",
            )
        group.start()
        group.join()
        for event_type, received in zip(HIERARCHIES, counters):
            assert len(received) == events_per_hierarchy
            assert all(isinstance(event, event_type) for event in received)
            # Per-hierarchy publish order is preserved.
            assert [event.value for event in received] == list(range(events_per_hierarchy))

    def test_publish_all_fans_out_across_shards_in_job_order(self):
        bus = ShardedLocalBus(shards=len(HIERARCHIES))
        publishers = {}
        received = {}
        for event_type in HIERARCHIES:
            publishers[event_type] = LocalTPSEngine(event_type, bus=bus)
            subscriber = LocalTPSEngine(event_type, bus=bus)
            received[event_type] = []
            subscriber.subscribe(received[event_type].append)
        jobs = []
        for sequence in range(50):
            for event_type in HIERARCHIES:
                jobs.append((publishers[event_type], event_type(sequence)))
        counts = bus.publish_all(jobs)
        assert counts == [1] * len(jobs)
        for event_type in HIERARCHIES:
            assert [event.value for event in received[event_type]] == list(range(50))
        bus.shutdown()
        bus.shutdown()  # idempotent

    def test_nested_publish_all_from_callbacks_does_not_deadlock(self):
        # A subscriber callback that itself publishes a cross-shard batch
        # runs on a pool worker; submitting to (and waiting on) the same
        # saturated pool would deadlock, so nested batches must run inline.
        bus = ShardedLocalBus(shards=2)
        alpha_pub = LocalTPSEngine(AlphaEvent, bus=bus)
        beta_pub = LocalTPSEngine(BetaEvent, bus=bus)
        inner_alpha: List[Any] = []
        inner_beta: List[Any] = []

        def republish(event: Any) -> None:
            if getattr(event, "value", 0) == 0:  # only the outer batch fans out
                bus.publish_all(
                    [(alpha_pub, AlphaEvent(1)), (beta_pub, BetaEvent(1))]
                )

        for event_type, sink in ((AlphaEvent, inner_alpha), (BetaEvent, inner_beta)):
            subscriber = LocalTPSEngine(event_type, bus=bus)
            subscriber.subscribe(sink.append)
            subscriber.subscribe(republish)

        def outer_batch() -> None:
            bus.publish_all([(alpha_pub, AlphaEvent(0)), (beta_pub, BetaEvent(0))])

        group = ThreadGroup()
        group.spawn(outer_batch, "outer-batch")
        group.start()
        group.join()  # a regression deadlocks the pool and fails here
        # Outer event + one re-published event per hierarchy's republisher
        # (arrival order races between the caller-inline and worker groups).
        assert sorted(event.value for event in inner_alpha) == [0, 1, 1]
        assert sorted(event.value for event in inner_beta) == [0, 1, 1]
        bus.shutdown()

    def test_publish_all_single_shard_runs_inline_without_executor(self):
        bus = ShardedLocalBus(shards=4)
        publisher = LocalTPSEngine(Offer, bus=bus)
        subscriber = LocalTPSEngine(Offer, bus=bus)
        received: List[Any] = []
        subscriber.subscribe(received.append)
        counts = bus.publish_all([(publisher, Offer(1.0, i)) for i in range(10)])
        assert counts == [1] * 10
        assert len(received) == 10
        assert bus._executor is None  # no threads for a single-shard batch

    def test_publish_many_batch_api(self):
        bus = ShardedLocalBus(shards=4)
        publisher = LocalTPSEngine(Offer, bus=bus)
        subscriber = LocalTPSEngine(Offer, bus=bus)
        received: List[Any] = []
        subscriber.subscribe(received.append)
        batch = [Offer(float(i), i) for i in range(20)]
        receipts = publisher.publish_many(batch)
        assert len(receipts) == 20
        assert all(receipt.wire_receipts == [1] for receipt in receipts)
        assert [event.sequence for event in received] == list(range(20))
        assert publisher.objects_sent() == batch

    def test_publish_many_on_plain_local_bus_falls_back_to_loop(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(Offer, bus=bus)
        subscriber = LocalTPSEngine(Offer, bus=bus)
        received: List[Any] = []
        subscriber.subscribe(received.append)
        receipts = publisher.publish_many([Offer(1.0, 0), Offer(2.0, 1)])
        assert len(receipts) == 2
        assert [event.sequence for event in received] == [0, 1]

    def test_publish_many_validates_whole_batch_before_delivering(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(Offer, bus=bus)
        subscriber = LocalTPSEngine(Offer, bus=bus)
        received: List[Any] = []
        subscriber.subscribe(received.append)
        with pytest.raises(PSException):
            publisher.publish_many([Offer(1.0, 0), "not an offer"])
        assert received == []  # nothing delivered from the bad batch

    def test_publish_many_after_close_raises(self):
        publisher = LocalTPSEngine(Offer, bus=LocalBus())
        publisher.close()
        with pytest.raises(PSException):
            publisher.publish_many([Offer(1.0, 0)])


@pytest.fixture
def eager_thread_switches():
    """Switch threads ~500x more often than the default 5 ms, so the windows
    between a lock-free append and a locked trim/read actually get hit."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _assert_dense(offsets: List[int]) -> None:
    """Strictly increasing with no gaps (an empty read is trivially dense)."""
    if offsets:
        assert offsets == list(range(offsets[0], offsets[0] + len(offsets)))


@pytest.mark.usefixtures("eager_thread_switches")
class TestRingHistoryHammer:
    PUBLISHERS = 4
    EVENTS_PER_PUBLISHER = 5_000
    TOTAL = PUBLISHERS * EVENTS_PER_PUBLISHER

    def _hammer(
        self,
        work: Callable[[int], None],
        observe: Callable[[threading.Event], None],
    ) -> None:
        """Run ``work(source)`` on PUBLISHERS threads beside one ``observe``
        thread, which is told (``done``) once the workers have finished."""
        done = threading.Event()
        group = ThreadGroup()
        for source in range(self.PUBLISHERS):
            group.spawn(lambda s=source: work(s), f"worker-{source}")
        group.spawn(lambda: observe(done), "observer")
        group.start()
        for thread in group.threads[: self.PUBLISHERS]:
            thread.join(DEADLINE_S)
        done.set()
        group.join()

    @pytest.mark.parametrize("history_size", [0, 64])
    def test_concurrent_publishers_and_a_reader(self, history_size):
        bus = LocalBus()
        publishers = [LocalTPSEngine(Offer, bus=bus) for _ in range(self.PUBLISHERS)]
        subscriber = LocalTPSEngine(Offer, bus=bus, history_size=history_size)
        delivered: List[Offer] = []
        subscriber.subscribe(delivered.append)
        reads: List[int] = []

        def publish_loop(source: int) -> None:
            publisher = publishers[source]
            for sequence in range(self.EVENTS_PER_PUBLISHER):
                publisher.publish(Offer(float(source), sequence))

        def read_loop(done: threading.Event) -> None:
            at_offset: dict = {}
            finishing = False
            while not finishing:
                finishing = done.is_set()  # one more full pass after the end
                head = subscriber.history_offset
                assert head >= (reads[-1] if reads else 0)
                reads.append(head)
                cursor = max(0, head - 200)
                entries = subscriber.history_since(cursor)
                offsets = [offset for offset, _ in entries]
                _assert_dense(offsets)
                if offsets:
                    assert offsets[0] >= cursor and offsets[-1] >= head - 1
                for offset, event in entries:
                    # An offset, once handed out, names one event for good.
                    assert at_offset.setdefault(offset, event) is event
                snapshot = subscriber.objects_received()
                if history_size:
                    assert len(snapshot) <= history_size
                    assert len(entries) <= history_size

        self._hammer(publish_loop, read_loop)

        total = self.TOTAL
        assert reads and reads[-1] == total
        assert len(delivered) == total
        assert subscriber.history_offset == total  # no offset lost to a trim
        history = subscriber.history_since(0)
        retained = history_size or total  # unbounded: everything published
        assert [offset for offset, _ in history] == list(range(total - retained, total))
        events = [event for _, event in history]
        assert events == subscriber.objects_received()
        assert {id(event) for event in events} <= {id(event) for event in delivered}
        assert len({id(event) for event in events}) == retained  # none duplicated
        for source in range(self.PUBLISHERS):
            # A contiguous window of the history holds a contiguous run of
            # each publisher's sequence, in publish order.
            _assert_dense([e.sequence for e in events if e.price == float(source)])

    @pytest.mark.parametrize("capacity", [0, 64])
    def test_clear_and_trim_never_skip_an_offset(self, capacity):
        # clear() and the trim delete exactly the prefix they measured: an
        # append landing in between keeps its slot.  Deleting "everything"
        # instead drops that entry after its offset was counted, which shows
        # here as next_offset falling short of the number of appends.  (The
        # window is two bytecodes wide; tests/test_history.py pins it
        # deterministically.)
        ring = RingHistory(capacity)

        def append_loop(source: int) -> None:
            for sequence in range(self.EVENTS_PER_PUBLISHER):
                ring.append((source, sequence))

        def clear_loop(done: threading.Event) -> None:
            while not done.is_set():
                ring.clear()
                _assert_dense([offset for offset, _, _ in ring.since(0)])

        self._hammer(append_loop, clear_loop)
        assert ring.next_offset == self.TOTAL
        assert ring.append("one more") == self.TOTAL


class TestSubscriptionHandleRace:
    def test_concurrent_cancel_runs_discards_exactly_once(self):
        for _ in range(20):
            engine = LocalTPSEngine(Offer, bus=LocalBus())
            handle = engine.subscribe(lambda event: None)
            results: List[int] = []
            barrier = threading.Barrier(8)

            def cancel() -> None:
                barrier.wait()
                results.append(handle.cancel())

            group = ThreadGroup()
            for index in range(8):
                group.spawn(cancel, f"cancel-{index}")
            group.start()
            group.join()
            # Exactly one caller observed the removal; the rest were no-ops.
            assert sorted(results, reverse=True) == [1, 0, 0, 0, 0, 0, 0, 0]
            assert len(engine.subscriber_manager) == 0


class TestEventStreamConcurrency:
    def test_blocking_producer_consumer_handoff(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(Offer, bus=bus)
        subscriber = LocalTPSEngine(Offer, bus=bus)
        stream = subscriber.stream(maxsize=4, policy="block")
        events = 200

        def produce() -> None:
            for sequence in range(events):
                publisher.publish(Offer(10.0, sequence))

        group = ThreadGroup()
        group.spawn(produce, "producer")
        group.start()
        consumed = [stream.get(timeout=DEADLINE_S) for _ in range(events)]
        group.join()
        assert [event.sequence for event in consumed] == list(range(events))
        stream.close()

    def test_concurrent_close_wakes_blocked_producer_exactly_once(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(Offer, bus=bus)
        subscriber = LocalTPSEngine(Offer, bus=bus)
        stream = subscriber.stream(maxsize=1, policy="block")
        publisher.publish(Offer(1.0, 0))  # fills the buffer
        producer_blocked = threading.Event()

        def produce_blocked() -> None:
            producer_blocked.set()
            publisher.publish(Offer(2.0, 1))  # blocks on _not_full until close

        group = ThreadGroup()
        group.spawn(produce_blocked, "blocked-producer")
        for index in range(4):
            group.spawn(stream.close, f"closer-{index}")
        group.threads[0].start()
        producer_blocked.wait(DEADLINE_S)
        time.sleep(0.05)  # let the producer reach the wait
        for thread in group.threads[1:]:
            thread.start()
        group.join()
        assert stream.closed
        # The stream unregistered exactly once (a double unregister would
        # have raised ValueError inside a closer thread and failed join()).
        assert stream not in getattr(subscriber, "_open_streams", [])

    def test_interface_close_wakes_blocked_consumer(self):
        bus = LocalBus()
        subscriber = LocalTPSEngine(Offer, bus=bus)
        stream = subscriber.stream(maxsize=0, policy="block")
        consumer_started = threading.Event()
        outcome: List[str] = []

        def consume() -> None:
            consumer_started.set()
            try:
                stream.get(timeout=DEADLINE_S)
                outcome.append("event")
            except PSException:
                outcome.append("closed")

        group = ThreadGroup()
        group.spawn(consume, "consumer")
        group.start()
        consumer_started.wait(DEADLINE_S)
        time.sleep(0.05)
        subscriber.close()
        group.join()
        assert outcome == ["closed"]

    def test_block_policy_reentrant_self_deadlock_raises(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(Offer, bus=bus)
        subscriber = LocalTPSEngine(Offer, bus=bus)
        errors = CollectingExceptionHandler()
        stream = subscriber.subscription().on_error(errors).stream(maxsize=1)

        def consume_then_publish_into_full_buffer() -> None:
            publisher.publish(Offer(1.0, 0))
            assert stream.get(timeout=5.0).sequence == 0  # registers consumer
            publisher.publish(Offer(2.0, 1))  # refills the buffer
            # Publishing from the stream's only consumer thread with a full
            # buffer: must raise into the error route, not hang.
            publisher.publish(Offer(3.0, 2))

        group = ThreadGroup()
        group.spawn(consume_then_publish_into_full_buffer, "self-consumer")
        group.start()
        group.join()  # a regression deadlocks here, not forever
        assert len(errors.errors) == 1
        assert isinstance(errors.errors[0], PSException)
        assert "deadlock" in str(errors.errors[0])
        # The buffered event is still readable and the stream still works.
        assert stream.get(timeout=1.0).sequence == 1
        stream.close()

    def test_block_policy_still_blocks_with_a_real_consumer_thread(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(Offer, bus=bus)
        subscriber = LocalTPSEngine(Offer, bus=bus)
        stream = subscriber.stream(maxsize=1, policy="block")
        consumed: List[Any] = []

        def consume() -> None:
            for _ in range(3):
                consumed.append(stream.get(timeout=DEADLINE_S))

        group = ThreadGroup()
        group.spawn(consume, "consumer")
        group.start()
        for sequence in range(3):  # publisher thread != consumer: blocking ok
            publisher.publish(Offer(1.0, sequence))
        group.join()
        assert [event.sequence for event in consumed] == [0, 1, 2]
        stream.close()


class TestEngineLifecycleRaces:
    def test_concurrent_interface_close_is_idempotent(self):
        engine = LocalTPSEngine(Offer, bus=LocalBus())
        engine.subscribe(lambda event: None)
        group = ThreadGroup()
        for index in range(8):
            group.spawn(engine.close, f"closer-{index}")
        group.start()
        group.join()
        assert engine.closed
        assert len(engine.subscriber_manager) == 0

    def test_tps_engine_close_races_new_interface_without_leaks(self):
        from repro.core.engine import TPSEngine

        for _ in range(10):
            engine = TPSEngine(Offer, local_bus=LocalBus())
            created: List[Any] = []

            def open_interfaces() -> None:
                try:
                    while True:
                        created.append(engine.new_interface("LOCAL"))
                except PSException:
                    return  # the engine closed under us: expected

            group = ThreadGroup()
            group.spawn(open_interfaces, "opener")
            group.start()
            time.sleep(0.002)
            engine.close()
            group.join()
            # No interface leaked open past close(): everything the opener
            # got back is either tracked (and closed) or was refused.
            assert all(interface.closed for interface in engine.interfaces)
            assert all(
                interface.closed or interface in engine.interfaces
                for interface in created
            )
