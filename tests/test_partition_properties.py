"""Property tests for the sharded bus's partition function.

The partition contract (module docstring of :mod:`repro.core.sharded_engine`)
promises four things this file pins with hypothesis and deterministic
corpora:

* *stability*: a key's shard assignment never changes -- across repeated
  calls, and across independently built buses with the same parameters
  (CRC-32, not Python's randomised ``hash``);
* *coverage*: every shard is reachable (no dead shards that would silently
  halve a deployment's capacity);
* *ordering*: per-key delivery order is preserved under ``publish_many``,
  even though distinct keys' shards run concurrently on the executor;
* *error path*: content-keyed mode with the declared attribute missing (or
  a raising callable partition) surfaces as :class:`PSException` from the
  publish call -- never a raw ``AttributeError`` crash -- and the bus stays
  fully usable afterwards.

PR 7 adds the placement layer's contract on top:

* *ring stability*: consistent-hash assignment is content-defined, across
  calls, buses and processes (CRC-32 again);
* *ring coverage*: every shard owns keys (virtual nodes smooth the ring);
* *bounded movement*: growing N -> N+1 shards moves roughly 1/(N+1) of the
  keys and **never** moves a key between two surviving shards;
* *one placement*: there is no ``placement=`` knob (PR 15 retired the
  CRC-32-mod-N compatibility mode with its last caller);
* *live resharding* (``migration`` marker): publishing concurrently with
  ``add_shard``/``remove_shard`` churn loses, duplicates and reorders
  nothing, and a reshard (one snapshot swap) never waits for a delivery.
"""

from __future__ import annotations

import dataclasses
import threading
import zlib
from typing import Any, Dict, List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import TPSConfig, TPSEngine
from repro.core.exceptions import PSException
from repro.core.local_engine import LocalTPSEngine
from repro.core.placement import (
    DEFAULT_VIRTUAL_NODES,
    Placement,
    RingPlacement,
    moved_keys,
    stable_hash,
)
from repro.core.sharded_engine import ShardedLocalBus
from repro.jxta.platform import JxtaNetworkBuilder


@dataclasses.dataclass
class Tick:
    symbol: str = ""
    price: float = 0.0
    sequence: int = 0


class SparseTick:
    """A codec-friendly event whose ``symbol`` attribute may be absent."""

    def __init__(self, symbol: Any = None, sequence: int = 0) -> None:
        if symbol is not None:
            self.symbol = symbol
        self.sequence = sequence


_ROOT = f"{Tick.__module__}.{Tick.__qualname__}"

_keys = st.text(min_size=0, max_size=24)
_shard_counts = st.integers(min_value=1, max_value=16)


class TestStability:
    @settings(max_examples=60, deadline=None)
    @given(key=_keys, shards=_shard_counts)
    def test_assignment_is_stable_across_calls_and_buses(self, key, shards):
        bus = ShardedLocalBus(shards, partition="content", content_key="symbol")
        twin = ShardedLocalBus(shards, partition="content", content_key="symbol")
        event = Tick(symbol=key)
        first = bus.partition_index(_ROOT, event)
        assert 0 <= first < shards
        assert all(bus.partition_index(_ROOT, event) == first for _ in range(5))
        # An independently built bus with the same parameters agrees: the
        # hash is content-defined, not instance- or process-defined.
        assert twin.partition_index(_ROOT, Tick(symbol=key)) == first

    @settings(max_examples=30, deadline=None)
    @given(key=_keys, shards=_shard_counts)
    def test_callable_partition_agrees_with_its_key(self, key, shards):
        bus = ShardedLocalBus(shards, partition=lambda event: event.symbol)
        content = ShardedLocalBus(shards, partition="content", content_key="symbol")
        event = Tick(symbol=key)
        # A callable returning the same key lands on the same shard as the
        # content mode: both hash str(key) against the root name.
        assert bus.partition_index(_ROOT, event) == content.partition_index(
            _ROOT, event
        )


class TestCoverage:
    @pytest.mark.parametrize("shards", [2, 3, 4, 8, 16])
    def test_every_shard_reachable_over_a_key_corpus(self, shards):
        bus = ShardedLocalBus(shards, partition="content", content_key="symbol")
        hit = {
            bus.partition_index(_ROOT, Tick(symbol=f"symbol-{index}"))
            for index in range(64 * shards)
        }
        assert hit == set(range(shards))

    def test_distinct_hierarchies_spread_independently(self):
        # The root name participates in the hash: two hierarchies sharing
        # key values must not be forced onto identical shard sequences.
        bus = ShardedLocalBus(8, partition="content", content_key="symbol")
        keys = [f"symbol-{index}" for index in range(64)]
        a = [bus.partition_index("pkg.RootA", Tick(symbol=key)) for key in keys]
        b = [bus.partition_index("pkg.RootB", Tick(symbol=key)) for key in keys]
        assert a != b


class TestOrdering:
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        sequence=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40),
        shards=st.integers(min_value=2, max_value=6),
    )
    def test_per_key_order_preserved_under_publish_many(self, sequence, shards):
        bus = ShardedLocalBus(shards, partition="content", content_key="symbol")
        publisher = LocalTPSEngine(Tick, bus=bus)
        subscriber = LocalTPSEngine(Tick, bus=bus)
        inbox: List[Tick] = []
        subscriber.subscribe(inbox.append)
        events = [
            Tick(symbol=f"symbol-{key}", sequence=position)
            for position, key in enumerate(sequence)
        ]
        try:
            receipts = publisher.publish_many(events)
        finally:
            bus.shutdown()
        # Exactly-once: one delivery per job, every event in the inbox once.
        assert [receipt.wire_receipts[0] for receipt in receipts] == [1] * len(events)
        assert sorted(event.sequence for event in inbox) == list(range(len(events)))
        # Per-key ordering: each key's events arrive in publish order even
        # though distinct keys' shard groups ran concurrently.
        arrived: Dict[str, List[int]] = {}
        for event in inbox:
            arrived.setdefault(event.symbol, []).append(event.sequence)
        for symbol, sequences in arrived.items():
            expected = [
                event.sequence for event in events if event.symbol == symbol
            ]
            assert sequences == expected, symbol


class TestContentKeyErrorPath:
    def test_missing_attribute_raises_psexception_not_attributeerror(self):
        bus = ShardedLocalBus(4, partition="content", content_key="symbol")
        publisher = LocalTPSEngine(Tick, bus=bus)
        subscriber = LocalTPSEngine(Tick, bus=bus)
        inbox: List[Any] = []
        subscriber.subscribe(inbox.append)
        event = Tick(symbol="ok", sequence=1)

        class KeylessTick(Tick):
            def __getattribute__(self, name: str) -> Any:
                if name == "symbol":
                    raise AttributeError(name)
                return super().__getattribute__(name)

        with pytest.raises(PSException) as excinfo:
            bus.partition_key(KeylessTick())
        message = str(excinfo.value)
        assert "symbol" in message and "content" in message
        # The bus remains fully usable: the error path is a report, not a
        # corruption.
        publisher.publish(event)
        assert [e.sequence for e in inbox] == [1]

    def test_publish_surfaces_the_error_from_the_publish_call(self):
        bus = ShardedLocalBus(4, partition="content", content_key="missing_attr")
        publisher = LocalTPSEngine(Tick, bus=bus)
        with pytest.raises(PSException) as excinfo:
            publisher.publish(Tick(symbol="x"))
        assert "missing_attr" in str(excinfo.value)

    def test_raising_callable_partition_wrapped_in_psexception(self):
        def broken(event: Any) -> str:
            raise RuntimeError("partition exploded")

        bus = ShardedLocalBus(4, partition=broken)
        publisher = LocalTPSEngine(Tick, bus=bus)
        with pytest.raises(PSException) as excinfo:
            publisher.publish(Tick(symbol="x"))
        assert "partition exploded" in str(excinfo.value)

    def test_publish_many_fails_closed_on_a_bad_key(self):
        bus = ShardedLocalBus(4, partition="content", content_key="symbol")
        publisher = LocalTPSEngine(Tick, bus=bus)
        subscriber = LocalTPSEngine(Tick, bus=bus)
        inbox: List[Any] = []
        subscriber.subscribe(inbox.append)

        class KeylessTick(Tick):
            def __getattribute__(self, name: str) -> Any:
                if name == "symbol":
                    raise AttributeError(name)
                return super().__getattribute__(name)

        batch: List[Any] = [Tick(symbol="a"), KeylessTick(), Tick(symbol="b")]
        with pytest.raises(PSException):
            bus.publish_all([(publisher, event) for event in batch])
        # Grouping failed before any delivery: nothing was half-published.
        assert inbox == []

    @pytest.mark.parametrize("binding", ["SHARDED", "SHARDED+JXTA"])
    def test_publish_many_is_batch_atomic_on_a_bad_key(self, binding):
        # An event that survives the codec round trip but lacks the declared
        # content key, in the middle of a batch: nothing of the batch may be
        # delivered, wire-sent or recorded as sent, on either sharded binding.
        options: Dict[str, Any] = {}
        builder = None
        if binding == "SHARDED+JXTA":
            builder = JxtaNetworkBuilder(seed=20020713)
            builder.add_rendezvous("rdv-0")
            options = {
                "peer": builder.add_peer("batch-peer"),
                "config": TPSConfig(search_timeout=2.0),
            }
            builder.settle(rounds=6)
        publisher, subscriber = (
            TPSEngine(SparseTick, **options).new_interface(
                binding, shards=3, content_key="symbol"
            )
            for _ in range(2)
        )
        if builder is not None:
            builder.settle(rounds=10)
        inbox: List[SparseTick] = []
        subscriber.subscribe(inbox.append)
        try:
            with pytest.raises(PSException, match="symbol"):
                publisher.publish_many(
                    [SparseTick("a", 0), SparseTick(None, 1), SparseTick("c", 2)]
                )
            assert inbox == []
            assert publisher.objects_sent() == []
            # The refused batch left the interface fully usable.
            publisher.publish_many([SparseTick("a", 3), SparseTick("c", 4)])
            # (distinct keys may run on parallel lanes: compare as a set)
            assert sorted(event.sequence for event in inbox) == [3, 4]
            assert [event.sequence for event in publisher.objects_sent()] == [3, 4]
        finally:
            publisher.bus.shutdown()
            publisher.close()
            subscriber.close()


class TestConstructorValidation:
    def test_content_mode_requires_content_key(self):
        with pytest.raises(PSException):
            ShardedLocalBus(4, partition="content")

    def test_content_key_requires_content_mode(self):
        with pytest.raises(PSException):
            ShardedLocalBus(4, partition="root", content_key="symbol")

    @pytest.mark.parametrize("mode", ["bogus", "ring", "modn"])
    def test_unknown_partition_mode_rejected(self, mode):
        # Placement names never were partition modes.
        with pytest.raises(PSException, match="unknown partition mode"):
            ShardedLocalBus(4, partition=mode)

    def test_root_mode_keeps_hierarchy_on_one_shard(self):
        bus = ShardedLocalBus(4)
        assert not bus.intra_hierarchy
        home = bus.shard_index(_ROOT)
        for index in range(16):
            assert bus.partition_index(_ROOT, Tick(symbol=f"s{index}")) == home

    @pytest.mark.parametrize("mode", ["ring", "modn"])
    def test_placement_argument_is_unknown(self, mode):
        # One placement policy, so nothing to select: the retired knob is an
        # unknown keyword, not a silently ignored one.
        with pytest.raises(TypeError, match="placement"):
            ShardedLocalBus(4, placement=mode)

    @pytest.mark.parametrize(
        "build",
        [lambda: ShardedLocalBus(4, virtual_nodes=16),
         lambda: Placement(range(4), virtual_nodes=16)],
        ids=["bus", "placement"],
    )
    def test_virtual_nodes_argument_is_unknown(self, build):
        # The ring density is the constant DEFAULT_VIRTUAL_NODES.
        with pytest.raises(TypeError, match="virtual_nodes"):
            build()

    def test_bus_exposes_its_current_placement(self):
        bus = ShardedLocalBus(3)
        assert isinstance(bus.placement, Placement)
        assert bus.placement.shard_ids == (0, 1, 2)
        bus.add_shard()
        assert bus.placement.shard_ids == (0, 1, 2, 3)
        assert len(bus.placement._points) == 4 * DEFAULT_VIRTUAL_NODES


_corpus = [f"{prefix}-{index}" for prefix in ("alpha", "beta", "r:k") for index in range(400)]


class TestRingPlacement:
    @settings(max_examples=60, deadline=None)
    @given(key=_keys, shards=_shard_counts)
    def test_ring_assignment_stable_across_instances(self, key, shards):
        ids = tuple(range(shards))
        one = RingPlacement(ids)
        two = RingPlacement(ids)
        assert one.index_for(key) == two.index_for(key)
        assert one.shard_id_for(key) == ids[one.index_for(key)]
        # And through a bus built with the same parameters.
        bus = ShardedLocalBus(shards, partition="content", content_key="symbol")
        twin = ShardedLocalBus(shards, partition="content", content_key="symbol")
        event = Tick(symbol=key)
        assert bus.partition_index(_ROOT, event) == twin.partition_index(_ROOT, event)

    @pytest.mark.parametrize("shards", [2, 3, 4, 8, 16])
    def test_every_shard_owns_keys(self, shards):
        placement = RingPlacement(tuple(range(shards)))
        hit = {placement.index_for(key) for key in _corpus}
        assert hit == set(range(shards))

    @pytest.mark.parametrize("shards", [2, 4, 8, 12])
    def test_growth_moves_a_bounded_fraction_and_only_to_the_new_shard(self, shards):
        old = RingPlacement(tuple(range(shards)))
        new = old.with_shards(tuple(range(shards + 1)))
        moved = moved_keys(old, new, _corpus)
        # Expect ~1/(N+1); virtual nodes leave variance, so allow slack but
        # stay far below what naive mod-N rehashing would move (~N/(N+1)).
        fraction = len(moved) / len(_corpus)
        assert fraction <= 1.8 / (shards + 1), fraction
        # Every moved key lands on the *new* shard: survivors never trade
        # keys among themselves (the whole point of consistent hashing).
        for key in moved:
            assert new.shard_id_for(key) == shards

    @pytest.mark.parametrize("shards", [3, 8])
    def test_removal_moves_only_the_removed_shards_keys(self, shards):
        old = RingPlacement(tuple(range(shards)))
        removed = shards - 1
        new = old.with_shards(tuple(range(removed)))
        for key in _corpus:
            if old.shard_id_for(key) == removed:
                continue
            assert new.shard_id_for(key) == old.shard_id_for(key)

    def test_ring_is_the_only_placement(self):
        import repro.core.placement as placement_module

        assert RingPlacement is Placement
        for retired in ("ModNPlacement", "make_placement", "PLACEMENT_MODES"):
            assert not hasattr(placement_module, retired)

    def test_stable_hash_is_crc32(self):
        assert stable_hash("abc") == zlib.crc32(b"abc")

    def test_default_virtual_nodes_exported(self):
        placement = RingPlacement((0, 1))
        assert len(placement._points) == 2 * DEFAULT_VIRTUAL_NODES


@pytest.mark.migration
class TestLiveResharding:
    def test_add_shard_bumps_epoch_and_rebalances(self):
        bus = ShardedLocalBus(2, partition="content", content_key="symbol")
        publisher = LocalTPSEngine(Tick, bus=bus)
        subscriber = LocalTPSEngine(Tick, bus=bus)
        inbox: List[Tick] = []
        subscriber.subscribe(inbox.append)
        before = bus.epoch_number
        new_index = bus.add_shard()
        assert bus.epoch_number == before + 1
        assert len(bus.shards) == 3 and new_index == 2
        # The rebalanced bus still delivers exactly once to every key.
        for index in range(32):
            publisher.publish(Tick(symbol=f"s{index}", sequence=index))
        assert sorted(e.sequence for e in inbox) == list(range(32))
        bus.shutdown()

    def test_remove_shard_validation(self):
        bus = ShardedLocalBus(1)
        with pytest.raises(PSException):
            bus.remove_shard()
        grown = ShardedLocalBus(2)
        with pytest.raises(PSException):
            grown.remove_shard(index=5)

    @pytest.mark.slow
    def test_publish_churn_loses_duplicates_reorders_nothing(self):
        """The migration stress test: publishers race add/remove churn.

        Four publisher threads stream sequenced events over 28 keys while
        the main thread grows the bus 2 -> 6 and shrinks it back to 3.
        Drain-then-switch must make the churn invisible: every event
        delivered exactly once, every key's sequence numbers in order.
        """
        bus = ShardedLocalBus(2, partition="content", content_key="symbol")
        publisher = LocalTPSEngine(Tick, bus=bus)
        subscriber = LocalTPSEngine(Tick, bus=bus)
        inbox: List[Tick] = []
        inbox_lock = threading.Lock()

        def collect(event: Tick) -> None:
            with inbox_lock:
                inbox.append(event)

        subscriber.subscribe(collect)
        keys = [f"key-{index}" for index in range(28)]
        per_thread = 250
        errors: List[BaseException] = []

        def pump(worker: int) -> None:
            try:
                for sequence in range(per_thread):
                    key = keys[(worker * 7 + sequence) % len(keys)]
                    publisher.publish(
                        Tick(symbol=key, sequence=worker * per_thread + sequence)
                    )
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=pump, args=(worker,), name=f"pub-{worker}")
            for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        for _ in range(4):
            bus.add_shard()
        for _ in range(3):
            bus.remove_shard()
        for thread in threads:
            thread.join()
        bus.shutdown()
        assert not errors
        assert bus.epoch_number == 7
        assert len(bus.shards) == 3
        # Exactly once: nothing lost, nothing duplicated.
        assert sorted(e.sequence for e in inbox) == list(range(4 * per_thread))
        # Per-key order: each publisher's sequences on one key ascend.  The
        # publisher picks keys so that (worker, key) determines a strictly
        # increasing sequence subsequence.
        arrived: Dict[tuple, List[int]] = {}
        for event in inbox:
            worker = event.sequence // per_thread
            arrived.setdefault((worker, event.symbol), []).append(event.sequence)
        for run in arrived.values():
            assert run == sorted(run)

    @pytest.mark.slow
    def test_publish_all_batches_never_straddle_a_migration(self):
        bus = ShardedLocalBus(2, partition="content", content_key="symbol")
        publisher = LocalTPSEngine(Tick, bus=bus)
        subscriber = LocalTPSEngine(Tick, bus=bus)
        inbox: List[Tick] = []
        inbox_lock = threading.Lock()

        def collect(event: Tick) -> None:
            with inbox_lock:
                inbox.append(event)

        subscriber.subscribe(collect)
        batches = 40
        width = 25
        errors: List[BaseException] = []

        def pump() -> None:
            try:
                for batch in range(batches):
                    publisher.publish_many(
                        [
                            Tick(symbol=f"key-{index % 10}", sequence=batch * width + index)
                            for index in range(width)
                        ]
                    )
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        thread = threading.Thread(target=pump, name="batcher")
        thread.start()
        bus.add_shard()
        bus.add_shard()
        bus.remove_shard()
        thread.join()
        bus.shutdown()
        assert not errors
        assert sorted(e.sequence for e in inbox) == list(range(batches * width))

    def test_reshard_does_not_wait_for_in_flight_delivery(self):
        # A reshard is one snapshot swap: it must complete while a delivery
        # is parked inside a subscriber callback, and that delivery must
        # still finish exactly once afterwards.
        bus = ShardedLocalBus(2, partition="content", content_key="symbol")
        publisher = LocalTPSEngine(Tick, bus=bus)
        subscriber = LocalTPSEngine(Tick, bus=bus)
        inbox: List[Tick] = []
        parked = threading.Event()
        release = threading.Event()

        def park(event: Tick) -> None:
            parked.set()
            release.wait(timeout=10.0)
            inbox.append(event)

        subscriber.subscribe(park)
        pump = threading.Thread(
            target=publisher.publish,
            args=(Tick(symbol="parked", sequence=1),),
            name="parked-publisher",
            daemon=True,
        )
        resharded = threading.Event()

        def reshard() -> None:
            bus.add_shard()
            bus.remove_shard()
            resharded.set()

        churn = threading.Thread(target=reshard, name="resharder", daemon=True)
        try:
            pump.start()
            assert parked.wait(timeout=5.0)
            churn.start()
            # The hard wall-clock guard: both reshards return although the
            # delivery above is still inside its callback.
            assert resharded.wait(timeout=5.0), "reshard waited on an in-flight delivery"
            assert inbox == [] and bus.epoch_number == 2 and len(bus.shards) == 2
        finally:
            release.set()
            pump.join(timeout=10.0)
            churn.join(timeout=10.0)
            bus.shutdown()
        assert [event.sequence for event in inbox] == [1]

    def test_root_mode_rehomes_attached_engines(self):
        # Engines attached under "root" partitioning must follow their
        # hierarchy's key when the ring changes ownership.
        bus = ShardedLocalBus(2)
        publisher = LocalTPSEngine(Tick, bus=bus)
        subscriber = LocalTPSEngine(Tick, bus=bus)
        inbox: List[Tick] = []
        subscriber.subscribe(inbox.append)
        for _ in range(4):
            bus.add_shard()
        for _ in range(4):
            bus.remove_shard()
        publisher.publish(Tick(symbol="after", sequence=99))
        assert [e.sequence for e in inbox] == [99]
        bus.shutdown()


class TestExecutorHygiene:
    def test_worker_threads_are_named_after_the_bus(self):
        bus = ShardedLocalBus(3, partition="content", content_key="symbol")
        publisher = LocalTPSEngine(Tick, bus=bus)
        subscriber = LocalTPSEngine(Tick, bus=bus)
        names: List[str] = []
        names_lock = threading.Lock()

        def collect(event: Tick) -> None:
            with names_lock:
                names.append(threading.current_thread().name)

        subscriber.subscribe(collect)
        publisher.publish_many(
            [Tick(symbol=f"key-{index}", sequence=index) for index in range(24)]
        )
        bus.shutdown()
        pool_names = [name for name in names if name.startswith("repro-shard-")]
        # The caller delivers one group inline; every pooled delivery runs on
        # a clearly labelled worker.
        assert pool_names, names

    def test_shutdown_is_safe_under_concurrent_double_call(self):
        bus = ShardedLocalBus(4, partition="content", content_key="symbol")
        publisher = LocalTPSEngine(Tick, bus=bus)
        publisher.publish_many(
            [Tick(symbol=f"key-{index}", sequence=index) for index in range(8)]
        )
        errors: List[BaseException] = []

        def shut() -> None:
            try:
                bus.shutdown()
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=shut) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # And the bus is still usable: the next batch rebuilds the pool.
        publisher.publish_many(
            [Tick(symbol=f"key-{index}", sequence=index) for index in range(8)]
        )
        bus.shutdown()
