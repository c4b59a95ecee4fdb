"""``LogHistory``: the append-only, crash-recoverable history store.

File format (one flat segment file per store direction)::

    record := length(4 bytes, big-endian, > 0) || payload(length bytes)
    payload := codec.encode((event, meta))

Offsets are the record's index in the file, so they are dense, start at 0
and -- unlike the bounded ring -- never evict: ``start_offset`` stays 0 and
``since(offset)`` can replay the complete history of the engine across
process restarts.

Durability model: appends go through one buffered writer and are
fsync-batched (every ``fsync_every`` records, plus on ``close``), the
classic group-commit trade-off -- a crash can lose at most the last
unsynced batch, never corrupt what was synced before it.  On open the store
scans the file and **truncates the torn tail**: a record whose length header
or payload is incomplete (the crash happened mid-write), or whose payload no
longer decodes, is dropped along with everything after it, so the store
always reopens to a prefix of complete records (``recovered_records`` /
``truncated_bytes`` report what recovery found).

Reads (``snapshot``/``since``) cost O(returned): the store keeps a sparse
index of one file position per ``_STRIDE`` records plus the position of the
last record, so ``since(offset)`` seeks to the nearest indexed record at or
before ``offset`` (or straight to the tail, the common case of a reader that
follows live appends) and reads only from there, in one positional read
of the writer's descriptor (of a briefly opened one after ``close()``),
taken under the store's lock and decoded after it.  Reads keep working
after ``close()`` -- the paper's contract that a closed interface still
answers its history queries extends to the durable store.

In-memory footprint is an index of one int per ``_STRIDE`` records, never
the records themselves, so a ``history="log"`` engine honours the "no
engine's in-memory history grows beyond its configured bound" guarantee
with ~1/``_STRIDE`` of an int per event.
"""

from __future__ import annotations

import io
import os
import threading
from typing import Any, Callable, List, Tuple

from repro.core.exceptions import PSException
from repro.core.history import HistoryStore

#: Bytes of the per-record big-endian length prefix.
_HEADER_SIZE = 4

#: Records per sparse-index entry: ``since`` reads at most this many
#: records it does not return.
_STRIDE = 64

#: Default group-commit batch: fsync once per this many appends.
DEFAULT_FSYNC_EVERY = 64


class LogHistory(HistoryStore):
    """Append-only history store over length-prefixed codec records."""

    kind = "log"

    def __init__(
        self,
        path: str,
        *,
        encode: Callable[[Any], bytes],
        decode: Callable[[bytes], Any],
        fsync_every: int = DEFAULT_FSYNC_EVERY,
    ) -> None:
        self.path = path
        self._encode = encode
        self._decode = decode
        self.fsync_every = max(1, int(fsync_every))
        self._lock = threading.Lock()
        self._closed = False
        #: Appends buffered since the last fsync (group commit).
        self._pending = 0
        #: Complete records found by crash recovery on open.
        self.recovered_records = 0
        #: Torn-tail bytes dropped by crash recovery on open.
        self.truncated_bytes = 0
        #: File position of every ``_STRIDE``-th record (record ``k * _STRIDE``).
        self._index: List[int] = []
        #: File positions of the last record and of the end of the last record.
        self._tail = 0
        self._size = 0
        self._next = self._recover()
        # Readable too: ``since`` preads from this descriptor instead of
        # opening the file; O_APPEND still appends every write.
        self._writer = open(self.path, "a+b")

    # ------------------------------------------------------------- recovery

    def _recover(self) -> int:
        """Scan the file, truncate any torn tail, return the record count."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return 0
        records = 0
        good_end = 0
        last_start = previous_start = 0
        last_payload = b""
        with open(self.path, "rb") as segment:
            while True:
                start = segment.tell()
                header = segment.read(_HEADER_SIZE)
                if len(header) < _HEADER_SIZE:
                    break  # clean EOF, or a torn length prefix
                length = int.from_bytes(header, "big")
                if length <= 0:
                    break  # a zeroed/corrupt header can only be a torn write
                payload = segment.read(length)
                if len(payload) < length:
                    break  # torn payload
                if records % _STRIDE == 0:
                    self._index.append(start)
                records += 1
                good_end = segment.tell()
                previous_start, last_start = last_start, start
                last_payload = payload
        if records:
            # A tail record can be structurally complete yet undecodable
            # (its bytes were only partially flushed before an old tail was
            # overwritten); verify the last record round-trips and drop it
            # too when it does not.
            try:
                self._decode(last_payload)
            except Exception:  # noqa: BLE001 - any decode failure means a torn tail
                records -= 1
                good_end, last_start = last_start, previous_start
                del self._index[(records + _STRIDE - 1) // _STRIDE :]
        self._tail, self._size = last_start, good_end
        self.recovered_records = records
        self.truncated_bytes = size - good_end
        if good_end < size:
            with open(self.path, "r+b") as segment:
                segment.truncate(good_end)
        return records

    # -------------------------------------------------------------- writing

    def append(self, event: Any, meta: Any = None) -> int:
        payload = self._encode((event, meta))
        record = len(payload).to_bytes(_HEADER_SIZE, "big") + payload
        with self._lock:
            if self._closed:
                raise PSException(f"the history log {self.path!r} is closed")
            self._writer.write(record)
            # Account for the record before the group commit, so a failed
            # fsync cannot leave the index behind the bytes written.
            offset = self._next
            position = self._tail = self._size
            if offset % _STRIDE == 0:
                self._index.append(position)
            self._size = position + len(record)
            self._next = offset + 1
            self._pending += 1
            if self._pending >= self.fsync_every:
                self._sync_locked()
            return offset

    def _sync_locked(self) -> None:
        self._writer.flush()
        os.fsync(self._writer.fileno())
        self._pending = 0

    def sync(self) -> None:
        """Force the group-commit fsync now (crash loses nothing before it)."""
        with self._lock:
            if not self._closed and self._pending:
                self._sync_locked()

    # -------------------------------------------------------------- reading

    def since(self, offset: int) -> List[Tuple[int, Any, Any]]:
        offset = max(0, offset)
        with self._lock:
            end = self._next
            if offset >= end:
                return []
            if offset == end - 1:
                index, position = offset, self._tail
            else:
                index = offset - offset % _STRIDE
                position = self._index[index // _STRIDE]
            # Take the bytes while still holding the lock, so a concurrent
            # clear() cannot leave ``position`` pointing mid-record.
            span = self._size - position
            if self._closed:
                with open(self.path, "rb") as closed:
                    data = os.pread(closed.fileno(), span, position)
            else:
                # Make buffered appends visible; no fsync needed for
                # same-process reads.
                self._writer.flush()
                data = os.pread(self._writer.fileno(), span, position)
        # Decode outside the lock: the codec is a call-out.
        entries: List[Tuple[int, Any, Any]] = []
        segment = io.BytesIO(data)
        while index < end:
            header = segment.read(_HEADER_SIZE)
            if len(header) < _HEADER_SIZE:
                break
            length = int.from_bytes(header, "big")
            if index < offset:
                segment.seek(length, os.SEEK_CUR)
            else:
                payload = segment.read(length)
                if len(payload) < length:
                    break
                event, meta = self._decode(payload)
                entries.append((index, event, meta))
            index += 1
        return entries

    def snapshot(self) -> List[Any]:
        return [event for _, event, _ in self.since(0)]

    def __len__(self) -> int:
        with self._lock:
            return self._next

    @property
    def next_offset(self) -> int:
        with self._lock:
            return self._next

    @property
    def start_offset(self) -> int:
        return 0

    # ------------------------------------------------------------ lifecycle

    def clear(self) -> None:
        """Destructive reset: truncate the file and restart offsets at 0.

        Unlike :meth:`RingHistory.clear <repro.core.history.RingHistory.clear>`
        this resets the offset counter too -- a reopened store recounts the
        file, so keeping a phantom in-memory base would desync them.
        """
        with self._lock:
            if self._closed:
                raise PSException(f"the history log {self.path!r} is closed")
            self._writer.flush()
            self._writer.truncate(0)
            self._writer.seek(0)
            self._pending = 0
            self._next = 0
            self._index = []
            self._tail = self._size = 0

    def close(self) -> None:
        """Flush, fsync and close the writer; reads keep working."""
        with self._lock:
            if self._closed:
                return
            self._sync_locked()
            self._writer.close()
            self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LogHistory({self.path!r}, records={len(self)})"


__all__ = ["DEFAULT_FSYNC_EVERY", "LogHistory"]
