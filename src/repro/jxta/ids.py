"""JXTA identifiers.

"An ID identifies any JXTA resource, which can be a peer, a pipe, a peergroup
or a codat (code and data)."  (paper, Section 2.1)

IDs are UUID-based and rendered in the JXTA URN style
(``urn:jxta:uuid-<32 hex digits><2-digit kind code>``).  Crucially for the
Pipe Binding Protocol, IDs are stable: a peer that crashes and comes back with
a different network address keeps its PeerID, which is what lets pipes survive
address changes (paper, Section 2.2 footnote on the PBP).

ID generation is deterministic when a seed is supplied, so simulations and
tests are reproducible.
"""

from __future__ import annotations

import uuid
from collections import OrderedDict
from typing import ClassVar, Optional, Type

from repro.jxta.errors import AdvertisementError
from repro.net.entropy import seeded_rng

_URN_PREFIX = "urn:jxta:uuid-"


class IDFactory:
    """Generates UUIDs, deterministically when seeded."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = seeded_rng(seed) if seed is not None else None

    def new_uuid(self) -> uuid.UUID:
        """Return a fresh UUID (random, or derived from the seeded RNG)."""
        if self._rng is None:
            # The unseeded default factory mirrors real JXTA, where IDs are
            # OS-random; every simulation seeds it via seed_ids().
            return uuid.uuid4()  # repro-lint: disable=RL004 - documented OS-random default
        return uuid.UUID(int=self._rng.getrandbits(128), version=4)


#: Process-wide default factory; :func:`seed_ids` replaces it for reproducible runs.
_default_factory = IDFactory()


def seed_ids(seed: Optional[int]) -> None:
    """Make subsequently generated IDs deterministic (or random again with ``None``)."""
    global _default_factory
    _default_factory = IDFactory(seed)


class JxtaID:
    """Base class of all JXTA identifiers.

    Subclasses declare a two-character ``kind_code`` which is appended to the
    URN so that the resource kind can be recovered from the string form, as in
    real JXTA IDs.
    """

    kind_code: ClassVar[str] = "00"
    kind_name: ClassVar[str] = "generic"

    __slots__ = ("_uuid", "_urn")

    def __init__(self, value: Optional[uuid.UUID] = None) -> None:
        self._uuid = value if value is not None else _default_factory.new_uuid()
        #: IDs are immutable, so the URN form is rendered once.
        self._urn = f"{_URN_PREFIX}{self._uuid.hex.upper()}{self.kind_code}"

    @property
    def uuid(self) -> uuid.UUID:
        """The underlying UUID."""
        return self._uuid

    def to_urn(self) -> str:
        """Render as ``urn:jxta:uuid-<hex><kind code>``."""
        return self._urn

    @classmethod
    def from_urn(cls, urn: str) -> "JxtaID":
        """Parse a URN back into the appropriate :class:`JxtaID` subclass.

        The subclass is chosen from the kind code; calling ``PeerID.from_urn``
        on a pipe URN raises :class:`AdvertisementError`.
        """
        if not urn.startswith(_URN_PREFIX):
            raise AdvertisementError(f"not a JXTA URN: {urn!r}")
        body = urn[len(_URN_PREFIX) :]
        if len(body) != 34:
            raise AdvertisementError(f"malformed JXTA URN body: {urn!r}")
        hex_part, kind = body[:32], body[32:]
        target = _KIND_REGISTRY.get(kind)
        if target is None:
            raise AdvertisementError(f"unknown JXTA ID kind code {kind!r} in {urn!r}")
        if cls is not JxtaID and not issubclass(target, cls):
            raise AdvertisementError(
                f"URN {urn!r} identifies a {target.kind_name}, not a {cls.kind_name}"
            )
        try:
            value = uuid.UUID(hex=hex_part)
        except ValueError as exc:
            raise AdvertisementError(f"malformed UUID in {urn!r}") from exc
        return target(value)

    # Equality and hashing are by (type, uuid) so a PeerID never compares
    # equal to a PipeID even if the UUIDs collide.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JxtaID):
            return NotImplemented
        return type(self) is type(other) and self._uuid == other._uuid

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._uuid))

    def __lt__(self, other: "JxtaID") -> bool:
        if not isinstance(other, JxtaID):
            return NotImplemented
        return (type(self).__name__, self._uuid.int) < (type(other).__name__, other._uuid.int)

    def __str__(self) -> str:
        return self.to_urn()

    def __repr__(self) -> str:
        short = self._uuid.hex[:6] + ".." + self._uuid.hex[-3:]
        return f"{type(self).__name__}({short})"


class PeerID(JxtaID):
    """Identifies a peer (any networked device running the substrate)."""

    kind_code = "03"
    kind_name = "peer"


class PeerGroupID(JxtaID):
    """Identifies a peer group."""

    kind_code = "02"
    kind_name = "peergroup"


class PipeID(JxtaID):
    """Identifies a pipe (virtual communication channel)."""

    kind_code = "04"
    kind_name = "pipe"


class ModuleID(JxtaID):
    """Identifies a module/service implementation."""

    kind_code = "05"
    kind_name = "module"


_KIND_REGISTRY: dict[str, Type[JxtaID]] = {
    cls.kind_code: cls for cls in (JxtaID, PeerID, PeerGroupID, PipeID, ModuleID)
}

#: The well-known ID of the world (net) peer group every peer boots into.
WORLD_GROUP_ID = PeerGroupID(uuid.UUID(int=0x4A585441_57524C44_00000000_00000001))


class BoundedIdSet:
    """An LRU-bounded set of message/envelope ids for duplicate filtering.

    Membership and insertion are O(1); once ``capacity`` ids are held, adding
    a new id evicts the least recently seen one, so a duplicate filter's
    memory stays constant under sustained traffic.

    Used both by the TPS engine (application-level message ids) and by the
    endpoint service (propagated envelope ids), which is why it lives here
    in the id layer rather than in either consumer.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"a BoundedIdSet needs a positive capacity, got {capacity!r}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, None]" = OrderedDict()

    def __contains__(self, item: str) -> bool:
        return item in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, item: str) -> None:
        """Record ``item`` as seen, evicting the oldest id beyond capacity."""
        self.seen(item)

    def seen(self, item: str) -> bool:
        """Record ``item``; True if it was already present (a duplicate).

        A hit refreshes the id's recency, so ids that keep producing
        duplicates stay protected from eviction (LRU, not FIFO).
        """
        entries = self._entries
        if item in entries:
            entries.move_to_end(item)
            return True
        entries[item] = None
        if len(entries) > self.capacity:
            entries.popitem(last=False)
        return False


__all__ = [
    "BoundedIdSet",
    "IDFactory",
    "JxtaID",
    "ModuleID",
    "PeerGroupID",
    "PeerID",
    "PipeID",
    "WORLD_GROUP_ID",
    "seed_ids",
]
