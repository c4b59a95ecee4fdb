"""The delivery loops record through a ring's C-level ``record``; the bus bounds it.

A route row caches the received store's ``record`` -- for a
:class:`~repro.core.history.RingHistory`, its entries list's own bound
``append`` -- so recording a delivery runs no Python frame and never trims.
The bus keeps the resident bound instead: each publish checks a round-robin
share of the attached rings (``LocalBus._sweep``), so every ring is checked
at least once per ``sweep_every = max(1, ring_slack(capacity) // 2)``
publishes, trims only once past its own mark and stays within
``capacity + slack`` references; no publish trims more than its share.
These tests pin that bound on LOCAL, ASYNC and SHARDED (worker lanes) and
under attach/detach churn, the stagger, the per-ring trim rate, the
observable equivalence with the reference model of ``tests/test_history.py``
across the sweeps, and the row's recorder type.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import types

import pytest

from repro.core.async_engine import AsyncLocalBus, AsyncTPSEngine
from repro.core.history import DEFAULT_HISTORY_SIZE, RingHistory, ring_slack
from repro.core.local_engine import LocalBus, LocalTPSEngine
from repro.core.sharded_engine import ShardedLocalBus
from repro.storage.log import LogHistory
from test_history import _ModelRing

pytestmark = [pytest.mark.durability]


@dataclasses.dataclass
class Tick:
    serial: int = 0


@dataclasses.dataclass
class Alpha:
    serial: int = 0


@dataclasses.dataclass
class Beta:
    serial: int = 0


@dataclasses.dataclass
class Gamma:
    serial: int = 0


@dataclasses.dataclass
class Delta:
    serial: int = 0


def _bound(capacity: int) -> int:
    return capacity + ring_slack(capacity)


class TestSlackPolicy:
    def test_small_rings_keep_twice_their_capacity(self):
        for capacity in (1, 2, 7, 64):
            assert _bound(capacity) == 2 * capacity

    def test_the_default_ring_holds_at_most_4224_references(self):
        assert _bound(DEFAULT_HISTORY_SIZE) == 4224
        assert RingHistory(DEFAULT_HISTORY_SIZE).sweep_every == 64
        assert RingHistory(1).sweep_every == 1
        assert RingHistory(0).sweep_every == 0

    def test_unbounded_rings_and_logs_are_never_swept(self, tmp_path):
        bus = LocalBus()
        bounded = LocalTPSEngine(Tick, bus=bus, history_size=8)
        unbounded = LocalTPSEngine(Tick, bus=bus, history_size=0)
        logged = LocalTPSEngine(
            Tick, bus=bus, history="log", history_path=str(tmp_path / "log")
        )
        assert bus._sweep_plan == (((bounded._received,), 1),)
        logged.close()
        unbounded.close()
        bounded.close()
        assert bus._sweep_plan == ()


class TestResidentBound:
    """A 4 096-slot subscriber ring never holds more than capacity + slack."""

    CAPACITY = DEFAULT_HISTORY_SIZE
    PUBLISHES = 3 * DEFAULT_HISTORY_SIZE + 100

    def test_local(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(Tick, bus=bus)
        subscriber = LocalTPSEngine(Tick, bus=bus)
        subscriber.subscribe(lambda event: None)
        store, peak = subscriber._received, 0
        for serial in range(self.PUBLISHES):
            publisher.publish(Tick(serial))
            peak = max(peak, len(store._entries))
            assert len(store._entries) <= _bound(self.CAPACITY)
        assert peak > self.CAPACITY
        assert len(subscriber.objects_received()) == self.CAPACITY
        assert subscriber.history_offset == self.PUBLISHES
        publisher.close()
        subscriber.close()

    def test_async(self):
        async def run() -> int:
            bus = AsyncLocalBus()
            publisher = AsyncTPSEngine(Tick, bus=bus)
            subscriber = AsyncTPSEngine(Tick, bus=bus)

            async def consume(event: Tick) -> None:
                return None

            subscriber.subscribe(consume)
            store, peak = subscriber._received, 0
            for serial in range(self.PUBLISHES):
                await publisher.publish(Tick(serial))
                peak = max(peak, len(store._entries))
                assert len(store._entries) <= _bound(self.CAPACITY)
            assert len(subscriber.objects_received()) == self.CAPACITY
            publisher.close()
            subscriber.close()
            return peak

        assert asyncio.run(run()) > self.CAPACITY

    def test_sharded_publish_all_with_worker_lanes(self):
        bus = ShardedLocalBus(shards=8)
        hierarchies = (Alpha, Beta, Gamma, Delta)
        assert len({bus.shard_index(kind.__name__) for kind in hierarchies}) > 1
        pairs, peaks = [], {}
        for kind in hierarchies:
            publisher = LocalTPSEngine(kind, bus=bus)
            subscriber = LocalTPSEngine(kind, bus=bus)
            store = subscriber._received

            def observe(event, _store=store) -> None:
                # Runs on the lane's thread, right after the row recorded.
                peaks[id(_store)] = max(peaks.get(id(_store), 0), len(_store._entries))

            subscriber.subscribe(observe)
            pairs.append((publisher, subscriber))
        try:
            for serial in range(0, self.PUBLISHES, 8):
                jobs = [
                    (publisher, publisher.registry.event_type(serial + offset))
                    for offset in range(8)
                    for publisher, _ in pairs
                ]
                bus.publish_all(jobs)
                for _, subscriber in pairs:
                    assert len(subscriber._received._entries) <= _bound(self.CAPACITY)
            assert bus._executor is not None  # the lanes really ran on workers
            for _, subscriber in pairs:
                store = subscriber._received
                assert self.CAPACITY < peaks[id(store)] <= _bound(self.CAPACITY)
                assert len(subscriber.objects_received()) == self.CAPACITY
        finally:
            for publisher, subscriber in pairs:
                publisher.close()
                subscriber.close()
            bus.shutdown()


    def test_attach_detach_churn_between_publishes(self):
        # Each step attaches an engine under a root ordered before the
        # subscriber's and closes one ordered after it: the subscriber's
        # position in the sweep plan moves in step with the tick, so without
        # the trim at each plan rebuild it would never be checked again.
        capacity = 256
        bus = LocalBus()
        earlier = [LocalTPSEngine(Alpha, bus=bus, history_size=capacity)]
        publisher = LocalTPSEngine(Tick, bus=bus, history_size=capacity)
        subscriber = LocalTPSEngine(Tick, bus=bus, history_size=capacity)
        subscriber.subscribe(lambda event: None)
        store = subscriber._received
        later = [
            LocalTPSEngine(Delta, bus=bus, history_size=capacity)
            for _ in range(store.sweep_every - 4)
        ]
        assert [share for _, share in bus._sweep_plan] == [1]
        serial = 0
        while len(store._entries) < capacity + ring_slack(capacity) // 2 + 8:
            publisher.publish(Tick(serial))
            serial += 1
        for engine in later:
            earlier.append(LocalTPSEngine(Alpha, bus=bus, history_size=capacity))
            engine.close()
            publisher.publish(Tick(serial))
            serial += 1
            assert len(store._entries) <= _bound(capacity)
        assert subscriber.history_offset == serial
        for engine in (*earlier, publisher, subscriber):
            engine.close()


class TestStaggeredSweep:
    def test_no_publish_trims_more_than_its_share(self, monkeypatch):
        bus = LocalBus()
        publisher = LocalTPSEngine(Tick, bus=bus)
        subscribers = [LocalTPSEngine(Tick, bus=bus) for _ in range(100)]
        for subscriber in subscribers:
            subscriber.subscribe(lambda event: None)
        received = {id(engine._received) for engine in [publisher, *subscribers]}
        rings = len(received)
        share = math.ceil(rings / (ring_slack(DEFAULT_HISTORY_SIZE) // 2))
        assert (rings, share) == (101, 2)
        trims = []
        drop_prefix = RingHistory._drop_prefix

        def counting(self, keep):
            if id(self) in received:
                trims.append(1)
            drop_prefix(self, keep)

        monkeypatch.setattr(RingHistory, "_drop_prefix", counting)
        per_publish = []
        for serial in range(3 * DEFAULT_HISTORY_SIZE):
            trims.clear()
            publisher.publish(Tick(serial))
            per_publish.append(len(trims))
        assert max(per_publish) <= share
        assert sum(per_publish) > 0
        for engine in subscribers:
            assert len(engine._received._entries) <= _bound(DEFAULT_HISTORY_SIZE)
            engine.close()
        publisher.close()

    def test_a_ring_trims_once_per_half_slack_of_its_records(self, monkeypatch):
        # A 1:1 pair: two rings, so each is checked every other publish, but
        # trims only past its mark -- not at every check.
        bus = LocalBus()
        publisher = LocalTPSEngine(Tick, bus=bus)
        subscriber = LocalTPSEngine(Tick, bus=bus)
        subscriber.subscribe(lambda event: None)
        store = subscriber._received
        trims = []
        drop_prefix = RingHistory._drop_prefix

        def counting(self, keep):
            if self is store:
                trims.append(len(self._entries) - keep)
            drop_prefix(self, keep)

        monkeypatch.setattr(RingHistory, "_drop_prefix", counting)
        publishes = 3 * DEFAULT_HISTORY_SIZE
        for serial in range(publishes):
            publisher.publish(Tick(serial))
        excess = publishes - DEFAULT_HISTORY_SIZE
        assert 0 < len(trims) <= excess // (store.sweep_every + 1) + 1
        assert min(trims) > store.sweep_every
        publisher.close()
        subscriber.close()

    def test_a_small_ring_does_not_speed_up_the_default_rings(self, monkeypatch):
        bus = LocalBus()
        publisher = LocalTPSEngine(Tick, bus=bus)
        subscribers = [LocalTPSEngine(Tick, bus=bus) for _ in range(100)]
        small = LocalTPSEngine(Tick, bus=bus, history_size=1)
        for subscriber in (*subscribers, small):
            subscriber.subscribe(lambda event: None)
        default = {id(engine._received) for engine in [publisher, *subscribers]}
        assert sorted(share for _, share in bus._sweep_plan) == [1, 2]
        checks, trims = [], []
        trim, drop_prefix = RingHistory.trim, RingHistory._drop_prefix

        def counting_trim(self):
            if id(self) in default:
                checks.append(1)
            trim(self)

        def counting_drop(self, keep):
            if id(self) in default:
                trims.append(1)
            drop_prefix(self, keep)

        monkeypatch.setattr(RingHistory, "trim", counting_trim)
        monkeypatch.setattr(RingHistory, "_drop_prefix", counting_drop)
        for serial in range(3 * DEFAULT_HISTORY_SIZE):
            checks.clear()
            trims.clear()
            publisher.publish(Tick(serial))
            assert len(checks) <= 2 and len(trims) <= 2
            assert len(small._received._entries) <= 2
        for engine in (publisher, *subscribers, small):
            engine.close()


def _check_against_model(subscriber: LocalTPSEngine, model: _ModelRing, full: bool) -> None:
    assert subscriber.history_offset == model.next_offset
    assert len(subscriber._received) == len(model.entries)
    assert subscriber._received.start_offset == (
        model.entries[0][0] if model.entries else model.next_offset
    )
    newest = model.next_offset - 2
    assert subscriber.history_since(newest) == [
        (offset, event) for offset, event, _ in model.entries[-2:] if offset >= newest
    ]
    if full:
        assert subscriber.objects_received() == [event for _, event, _ in model.entries]
        middle = model.next_offset - max(1, model.capacity // 2)
        for offset in (0, middle):
            assert subscriber.history_since(offset) == [
                (at, event) for at, event, _ in model.since(offset)
            ]


class TestObservableHistoryMatchesTheModel:
    @pytest.mark.parametrize("capacity", [1, 2, 7, 64, DEFAULT_HISTORY_SIZE])
    def test_every_step_across_sweeps_and_a_clear(self, capacity):
        bus = LocalBus()
        publishers = [LocalTPSEngine(Tick, bus=bus, history_size=capacity) for _ in range(2)]
        subscriber = LocalTPSEngine(Tick, bus=bus, history_size=capacity)
        subscriber.subscribe(lambda event: None)
        model = _ModelRing(capacity)
        store = subscriber._received
        steps = capacity + 4 * ring_slack(capacity) + 50
        resident = [0]
        for step in range(2 * steps):
            if step == steps:
                store.clear()
                model.clear()
                _check_against_model(subscriber, model, full=True)
            event = Tick(step)
            publishers[step % 2].publish(event)
            model.append(event)
            resident.append(len(store._entries))
            # Offsets, length and the newest entries at every step; the whole
            # window (a copy of up to 4 096 entries) at every step of the
            # small rings, and for 4 096 at each sweep trim, around the first
            # eviction and every 97th step.
            full = (
                capacity <= 64
                or resident[-1] < resident[-2]
                or abs(step % steps - capacity) <= 2
                or step % 97 == 0
            )
            _check_against_model(subscriber, model, full)
        assert max(resident) <= _bound(capacity)
        # The sweeps really trimmed mid-run: the resident list fell back.
        assert any(later < earlier for earlier, later in zip(resident, resident[1:]))
        for engine in (*publishers, subscriber):
            engine.close()


class TestRouteRowRecorder:
    def test_a_ring_records_through_a_builtin_method(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(Tick, bus=bus)
        subscriber = LocalTPSEngine(Tick, bus=bus)
        rows = bus._route(publisher.registry.advertised_name, Tick)
        records = {id(row[0]): row[3] for row in rows}
        for engine in (publisher, subscriber):
            record = records[id(engine)]
            assert type(record) is types.BuiltinMethodType
            assert record.__self__ is engine._received._entries
        publisher.close()
        subscriber.close()

    def test_record_survives_trims_and_clear(self):
        ring = RingHistory(4)
        record = ring.record
        for serial in range(40):
            record(serial)
            ring.trim()
        ring.clear()
        record("after")
        assert ring.snapshot() == ["after"] and ring.next_offset == 41
        unbounded = RingHistory(0)
        for serial in range(10):
            unbounded.record(serial)
        unbounded.trim()
        assert len(unbounded) == 10

    def test_a_log_store_records_through_its_own_append(self, tmp_path):
        bus = LocalBus()
        engine = LocalTPSEngine(
            Tick, bus=bus, history="log", history_path=str(tmp_path / "log")
        )
        assert isinstance(engine._received, LogHistory)
        assert engine._received.record == engine._received.append
        engine.close()
