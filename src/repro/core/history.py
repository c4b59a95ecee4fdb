"""History stores backing ``objects_received()`` / ``objects_sent()``.

The paper's Figure 8 exposes ``objectsReceived``/``objectsSent`` as the way a
peer inspects -- and catches up on -- the events that flowed through an
interface.  The seed backed them with *unbounded* plain lists, which is a
memory-growth bug on any long-running engine and a dead end for crash
recovery.  This module replaces the lists with a small storage abstraction:

* :class:`HistoryStore` -- the contract every engine's ``_received``/``_sent``
  slot satisfies: ``append`` assigns a **monotonically increasing offset**
  per store, ``snapshot`` renders the retained events as the paper's Vector,
  and ``since(offset)`` is the replay primitive consumed by resumable
  streams (``tps.stream(from_offset=...)``) and the wire catch-up protocol.
* :class:`RingHistory` -- the paper-faithful default: a bounded in-memory
  ring (``history_size`` events per direction).  Eviction advances
  ``start_offset``; offsets already handed out never change.
* :class:`~repro.storage.log.LogHistory` -- the durable flavour
  (``history="log"``): an append-only file of length-prefixed codec records
  with crash-safe truncated-tail recovery, living in :mod:`repro.storage`.

Every binding accepts the same three parameters (``history=``,
``history_size=``, ``history_path=``; the JXTA binding carries them as
:class:`~repro.core.jxta_engine.TPSConfig` fields) and builds its pair of
stores through :func:`make_history_pair`.

Thread safety: the :class:`LocalBus` delivery loops record on arbitrary
publisher threads, once per delivery, through a ring's :attr:`RingHistory.record`
-- the entries list's own bound ``append``, so a delivery runs no Python frame
for it, takes **no lock** and allocates nothing the collector tracks: its one
shared-state operation is a GIL-atomic ``list.append`` of the event reference,
and offsets are positional (``base + index``) rather than stored.  Everything
else -- the trims, ``clear()`` and every read -- holds the store's one small
lock, which is also the only place ``base`` moves; reads copy a slice under it
and build their result after releasing it.  No store method ever calls out
into user code under its lock.  ``record`` never trims: the bus checks a share
of its attached rings on each publish (:meth:`RingHistory.trim`), and
``RingHistory.append`` trims for itself.  The price is a *resident* bound of
``capacity + slack`` references (:func:`ring_slack`; ``2 * capacity`` for
rings of up to 64 slots) behind an *observable* bound of ``capacity``
(``docs/DURABILITY.md``, ``docs/CONCURRENCY.md``).
"""

from __future__ import annotations

import abc
import os
import sys
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.bindings import BindingParam, BindingRequest, not_bool, one_of
from repro.core.exceptions import PSException

#: Default retention bound (events per direction) of the ring store.  Big
#: enough that the paper's measurement runs never evict; small enough that a
#: long-running engine's memory stays constant.
DEFAULT_HISTORY_SIZE = 4096

#: The recognised ``history=`` kinds.
HISTORY_KINDS = ("ring", "log")


def ring_slack(capacity: int) -> int:
    """How many references past ``capacity`` a ring may hold between trims.

    The whole capacity for rings of up to 64 slots (a ``2 * capacity``
    resident bound), 1/32 of it -- but at least 64 -- beyond: a 4 096-slot
    ring holds at most 4 224 references.  A constant policy, not an option.
    """
    return min(capacity, max(64, capacity // 32))


class HistoryStore(abc.ABC):
    """One direction (received or sent) of an interface's event history.

    Offsets are assigned densely from 0 by ``append`` and are monotonically
    increasing for the lifetime of the store; ``since(offset)`` returns the
    retained entries at or after ``offset``, so a consumer that remembers
    the last offset it processed can resume exactly where it stopped
    (entries evicted from a bounded store are simply absent -- bounded
    retention is part of the contract, see ``start_offset``).
    """

    #: The ``history=`` kind this store implements (``"ring"`` or ``"log"``).
    kind: str = ""

    @abc.abstractmethod
    def append(self, event: Any, meta: Any = None) -> int:
        """Retain ``event`` (with optional codec-encodable ``meta``); returns
        the offset assigned to it."""

    @property
    def record(self) -> Callable[[Any], Any]:
        """The one-argument recorder the delivery loops cache in route rows."""
        return self.append

    @abc.abstractmethod
    def snapshot(self) -> List[Any]:
        """The retained events, oldest first (the paper's Vector copy)."""

    @abc.abstractmethod
    def since(self, offset: int) -> List[Tuple[int, Any, Any]]:
        """Retained ``(offset, event, meta)`` entries at or after ``offset``."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """How many events are retained right now."""

    @property
    @abc.abstractmethod
    def next_offset(self) -> int:
        """The offset the next ``append`` will assign."""

    @property
    @abc.abstractmethod
    def start_offset(self) -> int:
        """The oldest retained offset (== ``next_offset`` when empty).

        ``since(offset)`` with ``offset < start_offset`` cannot return the
        evicted entries; resuming consumers observe the gap as silently
        skipped offsets.
        """

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop every retained event (bench/test housekeeping)."""

    def close(self) -> None:
        """Release resources; reads stay valid, further appends raise."""


class _WithMeta(tuple):
    """A retained ``(event, meta)`` pair.

    A private subclass rather than a bare tuple so an entry with metadata can
    never be confused with an event that happens to *be* a tuple: entries
    without metadata are stored as the event reference itself.
    """

    __slots__ = ()


class RingHistory(HistoryStore):
    """Bounded in-memory history: the ``capacity`` newest events.

    ``capacity <= 0`` means unbounded (the seed's behaviour, kept reachable
    for tests that inspect complete histories).  Eviction advances
    :attr:`start_offset`; :meth:`clear` empties the store but keeps the offset
    counter monotone, so offsets never repeat within one engine's life.

    Offsets are *positional*: the entry at ``_entries[i]`` has offset
    ``_base + i``, so nothing is stored per entry beyond the event reference
    (or one :class:`_WithMeta` pair when ``meta`` is given).  The list is
    trimmed back to ``capacity`` only once it has grown past ``capacity +
    slack`` (:func:`ring_slack`) -- an amortised O(1) step per append -- so
    up to ``capacity + slack`` references may be *resident* while every read
    observes at most the ``capacity`` newest.

    :attr:`record` is the entries list's bound ``append`` (a C call, no
    trim); whoever records through it keeps the bound by calling
    :meth:`trim` at least once per :attr:`sweep_every` records, as the
    :class:`~repro.core.local_engine.LocalBus` sweep does.  :meth:`trim`
    only acts past the ring's own mark, so a ring trims about once per
    ``slack // 2`` of its records however often it is checked.
    """

    kind = "ring"

    __slots__ = ("capacity", "record", "sweep_every", "_entries", "_base", "_trim_at", "_lock")

    def __init__(self, capacity: int = DEFAULT_HISTORY_SIZE) -> None:
        if isinstance(capacity, bool) or not isinstance(capacity, int):
            raise PSException(f"history_size must be an int, got {capacity!r}")
        self.capacity = capacity
        self._entries: List[Any] = []
        #: The C-level recorder; stays valid because trims and ``clear()``
        #: delete a prefix in place and never replace the list.
        self.record = self._entries.append
        #: Offset of ``_entries[0]``; only ever changed under ``_lock``.
        self._base = 0
        slack = ring_slack(capacity) if capacity > 0 else 0
        #: Records allowed between two :meth:`trim` calls (0: unbounded ring,
        #: never swept).
        self.sweep_every = max(1, slack // 2) if slack else 0
        self._trim_at = capacity + slack if slack else sys.maxsize
        self._lock = threading.Lock()

    def append(self, event: Any, meta: Any = None) -> int:
        """Retain ``event``; lock-free (one GIL-atomic ``list.append``).

        The returned offset is exact unless another thread appends to (or
        trims) this store at the same moment; the delivery loops record
        through :attr:`record` instead, and the one caller that keeps it
        (the JXTA engine's ``_sent``) runs on the single simulator thread.
        """
        entries = self._entries
        entries.append(event if meta is None else _WithMeta((event, meta)))
        size = len(entries)
        offset = self._base + size - 1
        if size > self._trim_at:
            self._drop_prefix(keep=self.capacity)
        return offset

    def trim(self) -> None:
        """Trim back to ``capacity`` once past ``capacity + slack - sweep_every``.

        Called at least once per :attr:`sweep_every` records, this keeps the
        resident list within ``capacity + slack``; a call that finds the ring
        below the mark costs one length check, and an unbounded ring is never
        past it.
        """
        # Past this mark, ``sweep_every`` more records would leave the bound.
        if len(self._entries) > self._trim_at - self.sweep_every:
            self._drop_prefix(keep=self.capacity)

    def _drop_prefix(self, keep: int) -> None:
        """Forget all but the ``keep`` newest entries.

        Deletes exactly the prefix it measured, so an append landing between
        the measurement and the delete stays retained and keeps its offset.
        """
        with self._lock:
            entries = self._entries
            excess = len(entries) - keep
            if excess > 0:
                del entries[:excess]
                self._base += excess

    def _hidden(self, size: int) -> int:
        """How many of ``size`` resident entries are already evicted from
        view (resident only until the next trim)."""
        capacity = self.capacity
        return size - capacity if 0 < capacity < size else 0

    def _window(self, offset: int = 0) -> Tuple[int, List[Any]]:
        """``(first_offset, entries)`` of the observable window at or after
        ``offset``: a slice copy, O(returned)."""
        with self._lock:
            entries = self._entries
            size = len(entries)
            first = max(offset - self._base, self._hidden(size))
            return self._base + first, entries[first:size]

    def snapshot(self) -> List[Any]:
        _, window = self._window()
        return [entry[0] if type(entry) is _WithMeta else entry for entry in window]

    def since(self, offset: int) -> List[Tuple[int, Any, Any]]:
        first, window = self._window(offset)
        return [
            (position, entry[0], entry[1])
            if type(entry) is _WithMeta
            else (position, entry, None)
            for position, entry in enumerate(window, first)
        ]

    def __len__(self) -> int:
        with self._lock:
            size = len(self._entries)
            return size - self._hidden(size)

    @property
    def next_offset(self) -> int:
        with self._lock:
            return self._base + len(self._entries)

    @property
    def start_offset(self) -> int:
        with self._lock:
            return self._base + self._hidden(len(self._entries))

    def clear(self) -> None:
        self._drop_prefix(keep=0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RingHistory(capacity={self.capacity}, retained={len(self)}, "
            f"next_offset={self.next_offset})"
        )


#: The shared history parameter schema: every binding (LOCAL, SHARDED,
#: SHARDED+JXTA, ASYNC; the JXTA binding derives the same three from its
#: TPSConfig fields) accepts these and routes them to
#: :func:`make_history_pair`.
HISTORY_BINDING_PARAMS = (
    BindingParam(
        "history",
        (str,),
        "history store kind: 'ring' (bounded in-memory, the default) or "
        "'log' (append-only durable file, needs history_path)",
        one_of(HISTORY_KINDS),
        default="ring",
    ),
    BindingParam(
        "history_size",
        (int,),
        "ring retention bound, events per direction; <= 0 means unbounded "
        f"(default {DEFAULT_HISTORY_SIZE})",
        not_bool,
        default=DEFAULT_HISTORY_SIZE,
    ),
    BindingParam(
        "history_path",
        (str,),
        "directory holding the 'log' store's received.log/sent.log files "
        "(required when history='log')",
        None,
        default="",
    ),
)


def make_history(
    kind: str,
    *,
    size: int = DEFAULT_HISTORY_SIZE,
    path: Optional[str] = None,
    encode: Optional[Callable[[Any], bytes]] = None,
    decode: Optional[Callable[[bytes], Any]] = None,
) -> HistoryStore:
    """Build one history store of the requested ``kind``.

    ``"ring"`` ignores ``path``/``encode``/``decode``; ``"log"`` requires all
    three (``path`` is the file the records are appended to).
    """
    if kind == "ring":
        return RingHistory(size)
    if kind == "log":
        if not path:
            raise PSException(
                "history='log' needs history_path= (the directory the "
                "append-only store writes to)"
            )
        if encode is None or decode is None:
            raise PSException("the 'log' history store needs encode/decode callables")
        from repro.storage.log import LogHistory

        return LogHistory(path, encode=encode, decode=decode)
    raise PSException(f"unknown history kind {kind!r}; expected one of {HISTORY_KINDS}")


def make_history_pair(
    kind: str,
    size: int,
    path: Optional[str],
    *,
    codec: Any = None,
) -> Tuple[HistoryStore, HistoryStore]:
    """The (received, sent) store pair an engine installs at construction.

    For ``kind="log"``, ``path`` names a directory (created if missing) that
    gets one ``received.log`` and one ``sent.log`` file; ``codec`` is the
    engine's :class:`~repro.serialization.object_codec.ObjectCodec`, used to
    serialise ``(event, meta)`` records.
    """
    if kind != "log" or not path:
        # Also the error path: make_history names the unknown kind or the
        # missing history_path.
        return make_history(kind, size=size), make_history(kind, size=size)
    if codec is None:
        raise PSException("the 'log' history store needs the engine's codec")
    os.makedirs(path, exist_ok=True)
    received, sent = (
        make_history(
            "log",
            path=os.path.join(path, name),
            encode=codec.encode,
            decode=codec.decode,
        )
        for name in ("received.log", "sent.log")
    )
    return received, sent


def history_kwargs(request: BindingRequest) -> Dict[str, Any]:
    """The ``history=``/``history_size=``/``history_path=`` constructor
    arguments a binding request asks for (see :data:`HISTORY_BINDING_PARAMS`)."""
    return {
        "history": request.param("history", "ring"),
        "history_size": request.param("history_size", DEFAULT_HISTORY_SIZE),
        "history_path": request.param("history_path", "") or None,
    }


__all__ = [
    "DEFAULT_HISTORY_SIZE",
    "HISTORY_BINDING_PARAMS",
    "HISTORY_KINDS",
    "HistoryStore",
    "RingHistory",
    "history_kwargs",
    "make_history",
    "make_history_pair",
    "ring_slack",
]
