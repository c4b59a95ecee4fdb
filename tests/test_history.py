"""Unit and regression tests of the PR 10 history stores.

Covers the :class:`~repro.core.history.RingHistory` offset/eviction
contract, the :class:`~repro.storage.log.LogHistory` durable format
(including crash-recovery truncation of torn tails and cross-restart offset
continuity), the ``make_history`` factory validation, and the satellite-1
regression: no engine's in-memory history may grow beyond its configured
bound under a sustained publish loop.

PR 13 rebuilt the ring store (lock-free append, positional offsets,
amortised trim); :class:`TestRingHistoryModel` drives it against a
reference model across the trim threshold, and the two structural tests at
the end of :class:`TestEngineHistoryBounds` pin what the rebuild is for: no
per-delivery object, and a resident bound of ``2 * history_size``.
"""

from __future__ import annotations

import asyncio
import gc
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.skirental.types import SkiRental
from repro.core import TPSConfig, TPSEngine
from repro.core.exceptions import PSException
from repro.core.history import (
    DEFAULT_HISTORY_SIZE,
    RingHistory,
    make_history,
    make_history_pair,
)
from repro.core.local_engine import LocalBus, LocalTPSEngine
from repro.core.type_registry import TypeRegistry
from repro.storage.log import LogHistory

pytestmark = [pytest.mark.durability]


def _offer(index: int) -> SkiRental:
    return SkiRental(f"shop-{index}", float(index), "Salomon", 7)


def _codec():
    return TypeRegistry(SkiRental).codec


def _log(path, **kwargs) -> LogHistory:
    codec = _codec()
    return LogHistory(str(path), encode=codec.encode, decode=codec.decode, **kwargs)


class TestRingHistory:
    def test_offsets_are_dense_and_monotonic(self):
        ring = RingHistory(8)
        offsets = [ring.append(_offer(i)) for i in range(5)]
        assert offsets == [0, 1, 2, 3, 4]
        assert ring.next_offset == 5
        assert ring.start_offset == 0
        assert len(ring) == 5

    def test_eviction_advances_start_offset_but_never_reuses_offsets(self):
        ring = RingHistory(3)
        for i in range(10):
            assert ring.append(i) == i
        assert len(ring) == 3
        assert ring.start_offset == 7
        assert ring.next_offset == 10
        assert [entry[0] for entry in ring.since(0)] == [7, 8, 9]
        assert ring.snapshot() == [7, 8, 9]

    def test_since_filters_by_offset(self):
        ring = RingHistory(16)
        for i in range(6):
            ring.append(i * 10, meta=f"m{i}")
        entries = ring.since(4)
        assert entries == [(4, 40, "m4"), (5, 50, "m5")]
        assert ring.since(6) == []

    def test_clear_keeps_the_offset_counter_monotone(self):
        ring = RingHistory(4)
        for i in range(4):
            ring.append(i)
        ring.clear()
        assert len(ring) == 0
        assert ring.start_offset == ring.next_offset == 4
        assert ring.append("next") == 4

    def test_unbounded_when_capacity_nonpositive(self):
        ring = RingHistory(0)
        for i in range(5000):
            ring.append(i)
        assert len(ring) == 5000
        assert ring.start_offset == 0

    def test_bool_capacity_rejected(self):
        with pytest.raises(PSException):
            RingHistory(True)


class _ModelRing:
    """The ring contract, spelled out: stored offsets, eager eviction."""

    def __init__(self, capacity: int) -> None:
        self.capacity, self.entries, self.next_offset = capacity, [], 0

    def append(self, event, meta=None) -> int:
        self.entries.append((self.next_offset, event, meta))
        self.next_offset += 1
        if self.capacity > 0:
            del self.entries[: -self.capacity]
        return self.next_offset - 1

    def clear(self) -> None:
        self.entries = []

    def since(self, offset: int):
        return [entry for entry in self.entries if entry[0] >= offset]


def _assert_matches_model(ring: RingHistory, model: _ModelRing) -> None:
    assert ring.since(0) == model.entries
    assert ring.snapshot() == [event for _, event, _ in model.entries]
    assert len(ring) == len(model.entries)
    assert ring.next_offset == model.next_offset
    assert ring.start_offset == (
        model.entries[0][0] if model.entries else model.next_offset
    )
    if ring.capacity > 0:
        # The documented resident bound: trimmed back once past 2x.
        assert len(ring._entries) <= 2 * ring.capacity


MODEL_CAPACITIES = (0, 1, 2, 7, 64)

#: One step of the model test.  Appends come in bursts (up to past the
#: ``2 * capacity`` trim threshold of the largest ring) so a sequence crosses
#: the threshold several times; ``since`` offsets are relative to
#: ``next_offset`` so they land in, before and after the retained window.
_ring_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 150), st.booleans()),
        st.tuples(st.just("since"), st.integers(-140, 3)),
        st.tuples(st.just("clear")),
    ),
    min_size=1,
    max_size=24,
)


class TestRingHistoryModel:
    @pytest.mark.parametrize("capacity", MODEL_CAPACITIES)
    @settings(max_examples=60, deadline=None)
    @given(ops=_ring_ops)
    def test_random_op_sequences_match_the_reference_model(self, capacity, ops):
        ring, model = RingHistory(capacity), _ModelRing(capacity)
        serial = 0
        for op in ops:
            if op[0] == "append":
                for _ in range(op[1]):
                    # Tuple and None events: an entry without meta is stored
                    # as the bare event, which must never read back as a pair.
                    event = (serial, "payload") if serial % 3 else None
                    meta = f"m{serial}" if op[2] else None
                    assert ring.append(event, meta) == model.append(event, meta)
                    serial += 1
            elif op[0] == "since":
                offset = model.next_offset + op[1]
                assert ring.since(offset) == model.since(offset)
            else:
                ring.clear()
                model.clear()
            _assert_matches_model(ring, model)

    @pytest.mark.parametrize("capacity", [c for c in MODEL_CAPACITIES if c > 0])
    def test_every_step_across_two_trims_matches_the_model(self, capacity):
        # Explicit walk over the boundaries: capacity (eviction starts),
        # 2 * capacity - 1 / 2 * capacity (resident bound reached),
        # 2 * capacity + 1 (the trim), and the same again one cycle later.
        ring, model = RingHistory(capacity), _ModelRing(capacity)
        resident = []
        for index in range(4 * capacity + 2):
            assert ring.append(index, meta=index % 2 or None) == index
            model.append(index, meta=index % 2 or None)
            _assert_matches_model(ring, model)
            middle = index - capacity // 2
            assert ring.since(middle) == model.since(middle)
            resident.append(len(ring._entries))
        assert resident[capacity - 1] == capacity
        assert resident[2 * capacity - 1] == 2 * capacity
        assert resident[2 * capacity] == capacity  # trimmed on passing 2x
        assert max(resident) == 2 * capacity
        ring.clear()
        model.clear()
        _assert_matches_model(ring, model)
        assert ring.append("after") == model.append("after") == 4 * capacity + 2

    @pytest.mark.parametrize("capacity", [0, 4])
    def test_append_landing_between_measure_and_delete_is_kept(self, capacity):
        # The race the threaded hammer can only hit by luck, made
        # deterministic: another publisher's lock-free append lands right
        # after clear() / the trim measured the list.  Deleting exactly the
        # measured prefix keeps the late entry and its offset.
        class RacingList(list):
            late = None  # appended right after the (skip + 1)-th measurement
            skip = 0

            def __len__(self):
                size = super().__len__()
                if self.late is not None:
                    if self.skip:
                        self.skip -= 1
                    else:
                        list.append(self, self.late)
                        self.late = None
                return size

        ring = RingHistory(capacity)
        ring._entries = entries = RacingList()
        for index in range(6):
            ring.append(index)
        entries.late = "late"
        ring.clear()
        assert ring.since(0) == [(6, "late", None)]
        assert ring.next_offset == 7
        if capacity:
            while len(entries) < 2 * capacity:
                ring.append("filler")
            head = ring.next_offset
            # append measures first (skipped), then the trim it triggers.
            entries.late, entries.skip = "late again", 1
            assert ring.append("trigger") == head
            assert ring.since(head) == [
                (head, "trigger", None),
                (head + 1, "late again", None),
            ]
            assert ring.next_offset == head + 2
            assert len(ring) == capacity


class TestLogHistory:
    def test_round_trip_and_offsets(self, tmp_path):
        log = _log(tmp_path / "sent.log")
        offsets = [log.append(_offer(i), meta=f"id-{i}") for i in range(6)]
        assert offsets == list(range(6))
        entries = log.since(3)
        assert [offset for offset, _, _ in entries] == [3, 4, 5]
        assert [meta for _, _, meta in entries] == ["id-3", "id-4", "id-5"]
        assert [event.shop for _, event, _ in entries] == ["shop-3", "shop-4", "shop-5"]
        assert len(log.snapshot()) == 6
        assert log.start_offset == 0
        log.close()

    def test_offsets_continue_across_reopen(self, tmp_path):
        path = tmp_path / "sent.log"
        log = _log(path)
        for i in range(4):
            log.append(_offer(i))
        log.close()
        reopened = _log(path)
        assert reopened.recovered_records == 4
        assert reopened.truncated_bytes == 0
        assert reopened.next_offset == 4
        assert reopened.append(_offer(4)) == 4
        assert [o for o, _, _ in reopened.since(3)] == [3, 4]
        reopened.close()

    def test_reads_keep_working_after_close_appends_raise(self, tmp_path):
        log = _log(tmp_path / "sent.log")
        log.append(_offer(0))
        log.close()
        assert len(log.snapshot()) == 1
        assert log.since(0)[0][0] == 0
        with pytest.raises(PSException):
            log.append(_offer(1))
        log.close()  # idempotent

    @pytest.mark.parametrize("torn_bytes", [1, 2, 3, 5])
    def test_crash_recovery_truncates_torn_tail(self, tmp_path, torn_bytes):
        """Write N records, chop the tail mid-record, reopen: the complete
        prefix survives and ``since(offset)`` resumes from it."""
        path = tmp_path / "sent.log"
        log = _log(path)
        for i in range(5):
            log.append(_offer(i), meta=f"id-{i}")
        log.close()
        intact = os.path.getsize(path)
        with open(path, "r+b") as segment:
            segment.truncate(intact - torn_bytes)
        recovered = _log(path)
        assert recovered.recovered_records == 4
        assert recovered.truncated_bytes > 0
        assert recovered.next_offset == 4
        resumed = recovered.since(2)
        assert [offset for offset, _, _ in resumed] == [2, 3]
        assert [event.shop for _, event, _ in resumed] == ["shop-2", "shop-3"]
        # New appends continue the offset sequence past the dropped record.
        assert recovered.append(_offer(99)) == 4
        recovered.close()
        reread = _log(path)
        assert reread.recovered_records == 5
        assert [event.shop for _, event, _ in reread.since(4)] == ["shop-99"]
        reread.close()

    def test_recovery_drops_zeroed_header_tail(self, tmp_path):
        path = tmp_path / "sent.log"
        log = _log(path)
        log.append(_offer(0))
        log.close()
        with open(path, "ab") as segment:
            segment.write(b"\x00\x00\x00\x00garbage")
        recovered = _log(path)
        assert recovered.recovered_records == 1
        assert recovered.next_offset == 1
        recovered.close()

    def test_recovery_drops_undecodable_last_record(self, tmp_path):
        path = tmp_path / "sent.log"
        log = _log(path)
        log.append(_offer(0))
        log.close()
        junk = b"not a codec payload"
        with open(path, "ab") as segment:
            segment.write(len(junk).to_bytes(4, "big"))
            segment.write(junk)
        recovered = _log(path)
        assert recovered.recovered_records == 1
        assert recovered.truncated_bytes == 4 + len(junk)
        assert len(recovered.snapshot()) == 1
        recovered.close()

    def test_empty_and_missing_files_recover_to_zero(self, tmp_path):
        log = _log(tmp_path / "fresh.log")
        assert log.recovered_records == 0
        assert log.next_offset == 0
        assert log.snapshot() == []
        log.close()

    def test_group_commit_sync_batches(self, tmp_path):
        log = _log(tmp_path / "sent.log", fsync_every=4)
        for i in range(3):
            log.append(_offer(i))
        # Unsynced appends are still visible to same-process reads (the
        # reader flushes the writer first).
        assert len(log.snapshot()) == 3
        log.sync()
        log.append(_offer(3))
        log.close()
        assert len(log.snapshot()) == 4

    def test_clear_is_a_destructive_offset_reset(self, tmp_path):
        path = tmp_path / "sent.log"
        log = _log(path)
        for i in range(3):
            log.append(_offer(i))
        log.clear()
        assert len(log) == 0
        assert log.next_offset == 0
        assert log.append(_offer(9)) == 0
        log.close()
        assert _log(path).recovered_records == 1


class TestHistoryFactories:
    def test_unknown_kind_rejected(self):
        with pytest.raises(PSException, match="unknown history kind"):
            make_history("parquet")
        with pytest.raises(PSException, match="unknown history kind"):
            make_history_pair("parquet", 10, None)

    def test_log_without_path_rejected(self):
        with pytest.raises(PSException, match="history_path"):
            make_history("log")
        with pytest.raises(PSException, match="history_path"):
            make_history_pair("log", 10, None, codec=_codec())

    def test_pair_creates_directory_with_both_files(self, tmp_path):
        root = tmp_path / "nested" / "stores"
        received, sent = make_history_pair("log", 10, str(root), codec=_codec())
        received.append(_offer(0))
        sent.append(_offer(1))
        received.close()
        sent.close()
        assert (root / "received.log").exists()
        assert (root / "sent.log").exists()


class TestEngineHistoryBounds:
    """Satellite 1: the in-memory history of every engine stays bounded."""

    def test_local_engine_history_never_exceeds_bound_under_10k_publishes(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(SkiRental, bus=bus, history_size=64)
        subscriber = LocalTPSEngine(SkiRental, bus=bus, history_size=64)
        subscriber.subscribe(lambda event: None)
        offer = _offer(0)
        for index in range(10_000):
            publisher.publish(offer)
            if index % 997 == 0:
                assert len(subscriber.objects_received()) <= 64
                assert len(publisher.objects_sent()) <= 64
        assert len(subscriber.objects_received()) == 64
        assert len(publisher.objects_sent()) == 64
        # Offsets kept counting even though retention is bounded.
        assert publisher.sent_offset == 10_000
        assert subscriber.history_offset == 10_000
        publisher.close()
        subscriber.close()

    def test_unread_store_holds_at_most_twice_its_bound(self):
        # Nobody reads, so only append's own amortised trim bounds memory:
        # up to 2 * history_size references resident, never more than
        # history_size of them observable.
        size = 64
        bus = LocalBus()
        publisher = LocalTPSEngine(SkiRental, bus=bus, history_size=size)
        subscriber = LocalTPSEngine(SkiRental, bus=bus, history_size=size)
        subscriber.subscribe(lambda event: None)
        offer = _offer(0)
        peak = 0
        for _ in range(10 * size):
            publisher.publish(offer)
            for store in (subscriber._received, publisher._sent):
                peak = max(peak, len(store._entries))
                assert len(store._entries) <= 2 * size
                assert len(store) <= size
        assert peak > size  # the trim is amortised, not per-append
        assert len(subscriber._received.snapshot()) == size
        assert subscriber._received.start_offset == 9 * size
        publisher.close()
        subscriber.close()

    def test_fanout_history_costs_no_object_per_delivery(self):
        # Structural, not timing: each of the N subscribers retains the
        # *shared* event reference, so K publishes grow the collector's
        # tracked set by O(K) (the events), not O(K * N) (an entry each).
        subscribers, events = 50, 400
        bus = LocalBus()
        publisher = LocalTPSEngine(SkiRental, bus=bus)
        engines = [LocalTPSEngine(SkiRental, bus=bus) for _ in range(subscribers)]
        for engine in engines:
            engine.subscribe(lambda event: None)
        publisher.publish(_offer(0))  # route rows, first list growth
        gc.collect()
        before = len(gc.get_objects())
        for index in range(events):
            publisher.publish(_offer(index))
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert all(len(engine.objects_received()) == events + 1 for engine in engines)
        assert grown <= 5 * events, f"{grown} new tracked objects for {events} events"
        for engine in [publisher, *engines]:
            engine.close()

    def test_default_bound_is_the_documented_constant(self):
        engine = LocalTPSEngine(SkiRental, bus=LocalBus())
        assert engine._received.capacity == DEFAULT_HISTORY_SIZE
        assert engine._sent.capacity == DEFAULT_HISTORY_SIZE
        engine.close()

    @pytest.mark.slow
    def test_jxta_engine_history_bounded(self, lan):
        builder = lan
        config = TPSConfig(search_timeout=2.0, history_size=16)
        publisher = TPSEngine(
            SkiRental, peer=builder.peer_named("peer-0"), config=config
        ).new_interface("JXTA")
        subscriber = TPSEngine(
            SkiRental,
            peer=builder.peer_named("peer-1"),
            config=TPSConfig(
                search_timeout=4.0, create_if_missing=False, history_size=16
            ),
        ).new_interface("JXTA")
        subscriber.subscribe(lambda event: None)
        builder.settle(rounds=12)
        for index in range(80):
            publisher.publish(_offer(index))
            builder.settle(rounds=2)
        assert len(publisher.objects_sent()) == 16
        assert len(subscriber.objects_received()) <= 16
        assert publisher.sent_offset == 80

    @pytest.mark.asyncio
    def test_async_engine_history_bounded(self):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher = engine.new_interface("ASYNC", history_size=32)
            subscriber = engine.new_interface("ASYNC", history_size=32)
            subscriber.subscribe(lambda event: None)
            for index in range(500):
                await publisher.publish(_offer(index))
            assert len(publisher.objects_sent()) == 32
            assert len(subscriber.objects_received()) == 32
            assert publisher.sent_offset == 500
            await publisher.close()
            await subscriber.close()
            return True

        loop = asyncio.new_event_loop()
        try:
            assert loop.run_until_complete(main())
        finally:
            loop.close()

    def test_history_binding_params_validated(self):
        engine = TPSEngine(SkiRental, local_bus=LocalBus())
        with pytest.raises(PSException, match="'history'"):
            engine.new_interface("LOCAL", history="parquet")
        with pytest.raises(PSException, match="'history_size'"):
            engine.new_interface("LOCAL", history_size=True)
        with pytest.raises(PSException, match="history_path"):
            engine.new_interface("LOCAL", history="log")
