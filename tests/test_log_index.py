"""Tests of :class:`~repro.storage.log.LogHistory` reads through its sparse
offset index.

``since(offset)`` seeks to the indexed record at or before ``offset`` (one
file position per ``_STRIDE`` records) or straight to the tail record, so a
read costs O(returned) instead of a scan from record 0.  Three things pin
that down:

* **Equivalence** -- a hypothesis property drives random ``append`` /
  ``sync`` / ``close`` / reopen / ``clear`` / torn-tail sequences and checks
  ``since(k)`` for every class of ``k`` against a reference full-file scan
  that lives here, not in ``src``.
* **Cost by count** -- on a 20 000-record log every read is one positional
  read that starts at most one stride before the first returned record
  (counted, not timed), a tailing read touches exactly one record, and no
  file descriptor outlives a call.
* **Format compatibility** -- log files built byte-by-byte in the record
  format (``length(4, big-endian) || codec payload``), torn tails included,
  reopen with the same recovery counters and replay the same entries.
"""

from __future__ import annotations

import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.skirental.types import SkiRental
from repro.core.type_registry import TypeRegistry
from repro.storage import log as log_module
from repro.storage.log import LogHistory

pytestmark = [pytest.mark.durability]

_CODEC = TypeRegistry(SkiRental).codec


def _offer(index: int) -> SkiRental:
    return SkiRental(f"shop-{index}", float(index), "Salomon", 7)


def _open(path, **kwargs) -> LogHistory:
    return LogHistory(str(path), encode=_CODEC.encode, decode=_CODEC.decode, **kwargs)


def _record(index: int) -> bytes:
    payload = _CODEC.encode((_offer(index), f"id-{index}"))
    return len(payload).to_bytes(4, "big") + payload


def _reference_scan(path):
    """Every complete record of the file as ``(start, offset, event, meta)``,
    scanning header by header from byte 0."""
    with open(path, "rb") as segment:
        data = segment.read()
    records, cursor = [], 0
    while cursor + 4 <= len(data):
        length = int.from_bytes(data[cursor : cursor + 4], "big")
        payload = data[cursor + 4 : cursor + 4 + length]
        if length <= 0 or len(payload) < length:
            break
        event, meta = _CODEC.decode(payload)
        records.append((cursor, len(records), event, meta))
        cursor += 4 + length
    return records


def _probe_offsets(end: int, stride: int):
    """One ``k`` of every class: negative, inside a stride, on and around
    the first and last few stride boundaries, the tail, and at or past
    ``next_offset``."""
    probes = {-5, -1, 0, 1, end - 2, end - 1, end, end + 1, end + 50}
    last = end - end % stride
    for boundary in (stride, 2 * stride, last - stride, last, last + stride):
        probes.update((boundary - 1, boundary, boundary + 1, boundary + stride // 2))
    return sorted(probes)


def _assert_equivalent(log: LogHistory, path, stride: int) -> None:
    end = log.next_offset
    log.since(0)  # flushes buffered appends before the scan below
    reference = [entry[1:] for entry in _reference_scan(path)][:end]
    for k in _probe_offsets(end, stride):
        assert log.since(k) == reference[max(k, 0) :], f"since({k}), next_offset={end}"


#: Small enough that the sequences cross group-commit batches.
_FSYNC_EVERY = 64

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 100)),
        st.tuples(st.sampled_from(["sync", "close", "reopen", "clear", "junk"])),
        st.tuples(st.just("tear"), st.integers(1, 7)),
    ),
    max_size=12,
)


class TestSinceMatchesReferenceScan:
    @settings(max_examples=30, deadline=None)
    @given(stride=st.sampled_from([3, 64]), ops=_OPS)
    def test_since_equals_full_scan(self, tmp_path_factory, stride, ops):
        path = tmp_path_factory.mktemp("log") / "sent.log"
        with mock.patch.object(log_module, "_STRIDE", stride):
            log = _open(path, fsync_every=_FSYNC_EVERY)
            written = 0
            for op, *args in ops:
                if op in ("append", "clear", "tear", "junk") and log._closed:
                    log = _open(path, fsync_every=_FSYNC_EVERY)
                if op in ("tear", "junk"):
                    # Both damage a record that sits on a stride boundary.
                    while log.next_offset % stride:
                        log.append(_offer(written), f"id-{written}")
                        written += 1
                    boundary = log.next_offset
                if op == "append":
                    for _ in range(args[0]):
                        offset = log.append(_offer(written), f"id-{written}")
                        assert offset == log.next_offset - 1
                        written += 1
                elif op == "sync":
                    log.sync()
                elif op == "close":
                    log.close()
                elif op == "reopen":
                    log.close()
                    log = _open(path, fsync_every=_FSYNC_EVERY)
                    assert log.truncated_bytes == 0
                elif op == "clear":
                    log.clear()
                elif op == "tear":
                    # Cut 1..7 bytes into it (4 header bytes, then payload).
                    log.append(_offer(written), f"id-{written}")
                    written += 1
                    log.close()
                    start = _reference_scan(path)[boundary][0]
                    os.truncate(path, start + args[0])
                    log = _open(path, fsync_every=_FSYNC_EVERY)
                    assert log.recovered_records == boundary
                    assert log.truncated_bytes == args[0]
                    assert log.next_offset == boundary
                elif op == "junk":
                    # Make it structurally complete but undecodable.
                    log.close()
                    with open(path, "ab") as segment:
                        segment.write(b"\x00\x00\x00\x03abc")
                    log = _open(path, fsync_every=_FSYNC_EVERY)
                    assert log.recovered_records == boundary
                    assert log.truncated_bytes == 7
                _assert_equivalent(log, path, stride)
            # Appends after every sequence keep the index consistent.
            for _ in range(2 * stride + 2):
                if log._closed:
                    log = _open(path, fsync_every=_FSYNC_EVERY)
                log.append(_offer(written), f"id-{written}")
                written += 1
            _assert_equivalent(log, path, stride)
            log.close()
            _assert_equivalent(log, path, stride)


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


_RECORDS = 20_000


@pytest.fixture(scope="module")
def big_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("big") / "big.log"
    with open(path, "wb") as segment:
        segment.write(b"".join(_record(index) for index in range(_RECORDS)))
    return path


class TestReadCostIsFlat:
    @pytest.fixture
    def big_log(self, big_file):
        log = _open(big_file)
        assert log.recovered_records == _RECORDS
        yield log
        log.close()

    @pytest.fixture
    def counted_reads(self, monkeypatch):
        reads = {"calls": 0, "bytes": 0}
        real_pread = os.pread

        def pread(fd, length, position):
            data = real_pread(fd, length, position)
            reads["calls"] += 1
            reads["bytes"] += len(data)
            return data

        monkeypatch.setattr(os, "pread", pread)
        return reads

    def test_tail_read_touches_one_record(self, big_log, counted_reads):
        decoded = []
        real_decode = big_log._decode
        big_log._decode = lambda payload: decoded.append(payload) or real_decode(payload)
        end = big_log.next_offset
        entries = big_log.since(end - 1)
        assert [offset for offset, _, _ in entries] == [end - 1]
        assert counted_reads == {"calls": 1, "bytes": len(_record(end - 1))}
        assert len(decoded) == 1

    @pytest.mark.parametrize("back", [2, 63, 64, 65, 200])
    def test_reads_at_most_one_stride_beyond_the_returned(
        self, big_log, counted_reads, back
    ):
        stride = log_module._STRIDE
        end = big_log.next_offset
        k = end - back
        entries = big_log.since(k)
        assert [offset for offset, _, _ in entries] == list(range(k, end))
        first = k - k % stride  # the indexed record at or before k
        assert counted_reads["calls"] == 1
        assert counted_reads["bytes"] == sum(len(_record(i)) for i in range(first, end))

    def test_full_replay_is_one_read(self, big_log, big_file, counted_reads):
        entries = big_log.since(0)
        assert len(entries) == _RECORDS
        assert entries[-1] == (_RECORDS - 1, _offer(_RECORDS - 1), f"id-{_RECORDS - 1}")
        assert counted_reads == {"calls": 1, "bytes": os.path.getsize(big_file)}

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_no_descriptor_per_call(self, big_file):
        before_open = _open_fds()
        log = _open(big_file)
        opened = _open_fds()
        for call in range(1000):
            assert len(log.since(log.next_offset - 1 - call % 130)) == 1 + call % 130
        assert _open_fds() == opened
        log.close()
        assert _open_fds() == before_open
        assert len(log.since(_RECORDS - 3)) == 3  # reads work after close
        assert _open_fds() == before_open


class TestRecordFormatFilesLoad:
    """Files built byte-by-byte in the on-disk record format."""

    COUNT = 130  # crosses two stride boundaries

    def _write(self, path, records: bytes) -> None:
        with open(path, "wb") as segment:
            segment.write(records)

    def _expected(self, count):
        return [(i, _offer(i), f"id-{i}") for i in range(count)]

    def test_intact_file_replays(self, tmp_path):
        path = tmp_path / "sent.log"
        self._write(path, b"".join(_record(i) for i in range(self.COUNT)))
        log = _open(path)
        assert (log.recovered_records, log.truncated_bytes) == (self.COUNT, 0)
        assert log.since(0) == self._expected(self.COUNT)
        assert log.since(self.COUNT - 1) == self._expected(self.COUNT)[-1:]
        log.close()

    @pytest.mark.parametrize("cut", [1, 3, 4, 6])
    def test_torn_tail_on_a_stride_boundary(self, tmp_path, cut):
        path = tmp_path / "sent.log"
        boundary = 2 * log_module._STRIDE
        intact = b"".join(_record(i) for i in range(boundary))
        self._write(path, intact + _record(boundary)[:cut])
        log = _open(path)
        assert (log.recovered_records, log.truncated_bytes) == (boundary, cut)
        assert os.path.getsize(path) == len(intact)
        assert log.since(0) == self._expected(boundary)
        assert log.since(boundary - 1) == self._expected(boundary)[-1:]
        assert log.append(_offer(boundary), f"id-{boundary}") == boundary
        assert log.since(boundary - 1) == self._expected(boundary + 1)[-2:]
        log.close()

    def test_undecodable_tail_record(self, tmp_path):
        path = tmp_path / "sent.log"
        boundary = log_module._STRIDE
        junk = b"not a codec payload"
        records = b"".join(_record(i) for i in range(boundary))
        self._write(path, records + len(junk).to_bytes(4, "big") + junk)
        log = _open(path)
        assert (log.recovered_records, log.truncated_bytes) == (boundary, 4 + len(junk))
        assert log.since(boundary - 2) == self._expected(boundary)[-2:]
        for index in range(boundary, 3 * boundary + 1):
            assert log.append(_offer(index), f"id-{index}") == index
        expected = self._expected(3 * boundary + 1)
        for k in (0, boundary - 1, boundary, 2 * boundary - 1, 2 * boundary + 1):
            assert log.since(k) == expected[k:]
        log.close()
