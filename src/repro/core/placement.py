"""Placement layer: which shard owns a partition key.

Extracted from :mod:`repro.core.sharded_engine` (which used to hard-code
``zlib.crc32(key) % shards``) so that *where a key lives* is a first-class,
swappable policy instead of an arithmetic detail of the bus.  A placement is
a pure, immutable value:

* it maps a partition key (a hierarchy-root name, or ``"<root>:<key>"``
  under content-keyed sharding) to a **position** in a tuple of shards;
* it carries the *stable shard ids* backing those positions, so that two
  placements over different shard sets can be compared key-by-key ("did this
  key move?") -- the primitive live resharding is built on;
* deriving a placement for a grown/shrunk shard set (:meth:`Placement.
  with_shards`) returns a new object; nothing is ever mutated in place.
  The sharded bus swaps whole placements atomically, one per ring epoch,
  exactly like the PR 1/PR 4 immutable route-row snapshots.

There is one placement policy, :class:`Placement` (also importable as
``RingPlacement``): a consistent-hash ring with virtual nodes.  Every shard
id projects ``virtual_nodes`` points onto the 2**32 CRC-32 ring; a key is
owned by the first point at or after its own hash (wrapping).  Assignment is
a pure function of ``(shard_ids, virtual_nodes, key)`` -- stable across
calls, buses and processes -- and adding one shard to N only captures the
key ranges that fall to the new shard's points: in expectation ``1/(N+1)``
of the keyspace moves (modulo virtual-node variance), and no key ever moves
*between two surviving shards* (plain ``crc32(key) % N`` would reshuffle
almost every key on a resize, which is why an elastic bus cannot use it).

Hashing is CRC-32 throughout (:func:`stable_hash`), not Python's ``hash()``:
the interpreter randomises string hashes per process, and placement must
agree across processes and runs (the property the PR 5 tests pin).
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from typing import Iterable, List, Sequence, Tuple

from repro.core.exceptions import PSException

#: Ring points projected per shard id.  64 keeps the per-shard load within
#: a few percent of uniform for the shard counts this bus targets (2..64)
#: while a full ring rebuild stays microseconds.
DEFAULT_VIRTUAL_NODES = 64


def stable_hash(key: str) -> int:
    """CRC-32 of ``key`` -- the stable, cross-process hash placement uses."""
    return zlib.crc32(key.encode("utf-8"))


class Placement:
    """Immutable key→shard mapping: a consistent-hash ring with virtual
    nodes over a tuple of stable shard ids.

    Shard id ``s`` projects points ``crc32("shard-{s}#vnode-{v}")`` for
    ``v`` in ``range(virtual_nodes)``; a key belongs to the first point
    clockwise from its hash.  Because points depend only on the shard *id*
    (never on the shard count or tuple position), growing or shrinking the
    shard set leaves every surviving shard's points exactly where they were
    -- the bounded-movement property.

    ``index_for`` answers in *positions* (indexes into ``shard_ids``, the
    numbering of the bus's batch lanes); ``shard_id_for`` answers in
    *stable ids* (what movement comparisons need, because positions shift
    when the tuple shrinks).
    """

    def __init__(
        self,
        shard_ids: Sequence[int],
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
    ) -> None:
        ids = tuple(int(shard_id) for shard_id in shard_ids)
        if not ids:
            raise PSException("a placement needs at least one shard id")
        if len(set(ids)) != len(ids):
            raise PSException(f"duplicate shard ids in placement: {ids!r}")
        if (
            isinstance(virtual_nodes, bool)
            or not isinstance(virtual_nodes, int)
            or virtual_nodes < 1
        ):
            raise PSException(
                f"virtual_nodes must be an int >= 1, got {virtual_nodes!r}"
            )
        self.shard_ids: Tuple[int, ...] = ids
        self.virtual_nodes = virtual_nodes
        # Sort by (point, position): the tie-break makes point collisions
        # (possible: CRC-32 is 32 bits) deterministic across builds.
        ring: List[Tuple[int, int]] = sorted(
            (stable_hash(f"shard-{shard_id}#vnode-{vnode}"), position)
            for position, shard_id in enumerate(ids)
            for vnode in range(virtual_nodes)
        )
        self._points: Tuple[int, ...] = tuple(point for point, _ in ring)
        self._owners: Tuple[int, ...] = tuple(owner for _, owner in ring)

    def index_for(self, key: str) -> int:
        """Position (into ``shard_ids``) owning ``key``."""
        points = self._points
        cursor = bisect_left(points, stable_hash(key))
        if cursor == len(points):  # wrap past the last point
            cursor = 0
        return self._owners[cursor]

    def shard_id_for(self, key: str) -> int:
        """Stable shard id owning ``key`` (position-independent)."""
        return self.shard_ids[self.index_for(key)]

    def with_shards(self, shard_ids: Sequence[int]) -> "Placement":
        """The same ring parameters over a different shard-id tuple."""
        return Placement(shard_ids, self.virtual_nodes)

    def __len__(self) -> int:
        return len(self.shard_ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Placement(shard_ids={self.shard_ids!r})"


#: Alias naming the algorithm; the two names are one class.
RingPlacement = Placement


def moved_keys(old: Placement, new: Placement, keys: Iterable[str]) -> List[str]:
    """The subset of ``keys`` whose owning *shard id* differs between
    ``old`` and ``new`` -- the keys a reshard re-homes.
    Compared by stable id, not position: a tuple shrink renumbers positions
    without moving the keys of surviving shards.
    """
    return [
        key for key in keys if old.shard_id_for(key) != new.shard_id_for(key)
    ]


__all__ = [
    "DEFAULT_VIRTUAL_NODES",
    "Placement",
    "RingPlacement",
    "moved_keys",
    "stable_hash",
]
