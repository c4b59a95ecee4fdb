"""Local advertisement cache (JXTA's "cm" -- cache manager).

Every peer keeps discovered and locally published advertisements in a local
cache, organised by discovery kind (peer / group / generic advertisement).
The Peer Discovery Protocol answers remote queries out of this cache and the
paper's ``AdvertisementsFinder`` flushes it at startup
(``discoveryService.flushAdvertisements(null, Discovery.ADV)`` -- Figure 16,
lines 9-11) to avoid acting on stale advertisements.

Entries carry the insertion time and a lifetime, so the cache can drop
advertisements whose age exceeds their lifetime ("each advertisement
encompasses an age to distinguish stale advertisements from new ones").

An entry also keeps the advertisement's XML document -- what JXTA's cm writes
to stable storage -- so answering a discovery query does not render an
unchanged advertisement again.  The document belongs to one publication:
every (re-)publish makes a fresh entry, so code that edits a cached
advertisement publishes it again, as it already must to refresh its lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.jxta.advertisement import Advertisement
from repro.net.simclock import SimClock


class DiscoveryKind:
    """The three discovery kinds, matching JXTA's ``Discovery.PEER/GROUP/ADV``."""

    PEER = 0
    GROUP = 1
    ADV = 2

    ALL = (PEER, GROUP, ADV)

    @classmethod
    def validate(cls, kind: int) -> int:
        """Check that ``kind`` is one of the three valid discovery kinds."""
        if kind not in cls.ALL:
            raise ValueError(f"invalid discovery kind {kind!r} (expected 0, 1 or 2)")
        return kind


@dataclass
class CacheEntry:
    """One cached advertisement with its bookkeeping."""

    advertisement: Advertisement
    inserted_at: float
    lifetime: float
    #: Whether the advertisement was published locally (vs. learned remotely).
    local: bool = True
    #: The advertisement's XML document: the text that arrived for a remotely
    #: learned entry, otherwise rendered on first use.
    document: Optional[str] = None

    def expired(self, now: float) -> bool:
        """Whether the entry has outlived its lifetime."""
        return (now - self.inserted_at) > self.lifetime

    def rendered(self) -> str:
        """The advertisement's XML document as of this publication."""
        if self.document is None:
            self.document = self.advertisement.to_document()
        return self.document


class CacheManager:
    """An in-memory advertisement cache indexed by discovery kind and unique key."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._entries: Dict[int, Dict[str, CacheEntry]] = {kind: {} for kind in DiscoveryKind.ALL}

    # ------------------------------------------------------------- mutation

    def publish(
        self,
        advertisement: Advertisement,
        kind: int,
        *,
        lifetime: Optional[float] = None,
        local: bool = True,
        document: Optional[str] = None,
    ) -> CacheEntry:
        """Insert (or refresh) an advertisement in the cache.

        Re-publishing an advertisement with the same unique key refreshes its
        insertion time and lifetime -- this is how remote republications keep
        advertisements alive.  ``document`` is the advertisement's XML text
        when the caller already holds it (it arrived from another peer).
        """
        DiscoveryKind.validate(kind)
        entry = CacheEntry(
            advertisement=advertisement,
            inserted_at=self._clock.now,
            lifetime=lifetime if lifetime is not None else advertisement.lifetime,
            local=local,
            document=document,
        )
        self._entries[kind][advertisement.unique_key()] = entry
        return entry

    def remove(self, advertisement: Advertisement, kind: int) -> bool:
        """Remove one advertisement; returns whether it was present."""
        DiscoveryKind.validate(kind)
        return self._entries[kind].pop(advertisement.unique_key(), None) is not None

    def rendering_changed(self, advertisement: Advertisement, kind: int) -> None:
        """Forget the kept document of ``advertisement``: a rendered field was edited."""
        entry = self._entries[DiscoveryKind.validate(kind)].get(advertisement.unique_key())
        if entry is not None:
            entry.document = None

    def flush(self, kind: Optional[int] = None, *, remote_only: bool = False) -> int:
        """Drop cached advertisements.

        ``kind`` of None flushes every kind.  With ``remote_only`` only
        advertisements learned from other peers are dropped, which is what a
        restarting application wants (its own published advertisements stay).
        Returns the number of entries removed.
        """
        kinds = DiscoveryKind.ALL if kind is None else (DiscoveryKind.validate(kind),)
        return sum(
            self._drop(self._entries[k], lambda entry: not (remote_only and entry.local))
            for k in kinds
        )

    @staticmethod
    def _drop(table: Dict[str, CacheEntry], doomed: Callable[[CacheEntry], bool]) -> int:
        keys = [key for key, entry in table.items() if doomed(entry)]
        for key in keys:
            del table[key]
        return len(keys)

    # -------------------------------------------------------------- queries

    def matching(
        self,
        kind: int,
        attribute: Optional[str] = None,
        value: Optional[str] = None,
        *,
        limit: Optional[int] = None,
    ) -> List[CacheEntry]:
        """Return the entries of ``kind`` whose advertisement matches the attribute query.

        Expired entries of that kind are removed first.  ``limit`` bounds the
        number of results, mirroring the discovery threshold.
        """
        table = self._entries[DiscoveryKind.validate(kind)]
        now = self._clock.now
        self._drop(table, lambda entry: entry.expired(now))
        results: List[CacheEntry] = []
        for entry in table.values():
            if entry.advertisement.matches(attribute, value):
                results.append(entry)
                if limit is not None and len(results) >= limit:
                    break
        return results

    def search(
        self,
        kind: int,
        attribute: Optional[str] = None,
        value: Optional[str] = None,
        *,
        limit: Optional[int] = None,
    ) -> List[Advertisement]:
        """The advertisements of :meth:`matching`'s entries."""
        return [entry.advertisement for entry in self.matching(kind, attribute, value, limit=limit)]

    def count(self, kind: Optional[int] = None) -> int:
        """Number of cached entries (of one kind, or overall)."""
        if kind is None:
            return sum(len(table) for table in self._entries.values())
        return len(self._entries[DiscoveryKind.validate(kind)])

    def entries(self, kind: int) -> List[CacheEntry]:
        """All entries of one kind (including expired ones, for inspection)."""
        DiscoveryKind.validate(kind)
        return list(self._entries[kind].values())


__all__ = ["CacheEntry", "CacheManager", "DiscoveryKind"]
