"""Peer Discovery Protocol (PDP).

"The PDP allows different peers to find each other.  In fact, this protocol
allows to find any kind of published advertisements.  Without this protocol,
a peer remains alone unless it knows in advance the peers it wants to connect
to."  (paper, Section 2.2, Figure 1)

The discovery service exposes the JXTA API surface the paper's code uses in
Figures 15 and 16:

* ``publish`` / ``remote_publish`` -- store an advertisement locally and push
  it to other peers;
* ``get_remote_advertisements`` -- send a discovery query (optionally scoped
  to one peer) for advertisements matching an attribute/value pattern;
* ``get_local_advertisements`` -- search the local cache;
* ``flush_advertisements`` -- drop cached advertisements;
* ``add_discovery_listener`` -- be notified when responses arrive.

Queries and responses travel over the Peer Resolver Protocol.

A response body is a pure function of its kind and of the XML documents of
the advertisements it carries, and finders re-ask every few virtual seconds
about advertisements that have not changed.  So the service keeps two small
bounded memos, both keyed by content (never by object identity): rendered
bodies by ``(kind, documents)`` -- the documents themselves live on the cache
entries (:mod:`repro.jxta.cache`) -- and parsed advertisements by body text.
A body seen before is absorbed without parsing it again: the same
advertisement objects are re-published (fresh ``created_at`` and cache
lifetime) and handed to the listeners, which therefore treat received
advertisements as read-only.  Only a body that parsed without a single
malformed part is remembered, so ``discovery_malformed`` counts every arrival.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING, Union

from repro.jxta.advertisement import (
    Advertisement,
    AdvertisementFactory,
    DEFAULT_REMOTE_LIFETIME,
)
from repro.jxta.cache import CacheManager, DiscoveryKind
from repro.jxta.ids import PeerID
from repro.jxta.resolver import ResolverQuery, ResolverResponse
from repro.serialization.xml_codec import XmlElement, XmlParseError, parse_xml, to_xml

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.jxta.peergroup import PeerGroup

#: Entries each memo of a :class:`DiscoveryService` keeps; the oldest goes first.
_MEMO_LIMIT = 32


def _remember(memo: dict, key: object, value: object) -> None:
    memo[key] = value
    if len(memo) > _MEMO_LIMIT:
        del memo[next(iter(memo))]


@dataclass
class DiscoveryEvent:
    """Delivered to discovery listeners when remote advertisements arrive."""

    kind: int
    advertisements: List[Advertisement]
    src_peer: Optional[PeerID] = None
    query_id: str = ""


#: Listeners are callables taking a :class:`DiscoveryEvent` (objects with a
#: ``discovery_event`` method are also accepted).
DiscoveryListener = Union[Callable[[DiscoveryEvent], None], object]


class DiscoveryService:
    """Per-group advertisement discovery, caching and publication."""

    SERVICE_NAME = "jxta.service.discovery"
    HANDLER_NAME = "urn:jxta:pdp"

    #: Discovery kinds, mirroring JXTA's ``Discovery.PEER/GROUP/ADV``.
    PEER = DiscoveryKind.PEER
    GROUP = DiscoveryKind.GROUP
    ADV = DiscoveryKind.ADV

    #: Default maximum number of advertisements returned per responding peer.
    DEFAULT_THRESHOLD = 10

    def __init__(self, group: "PeerGroup") -> None:
        self.group = group
        self.peer = group.peer
        self.cache = CacheManager(self.peer.clock)
        self._listeners: List[DiscoveryListener] = []
        #: (kind, advertisement documents) -> rendered response body.
        self._bodies: Dict[Tuple[int, Tuple[str, ...]], str] = {}
        #: Cleanly parsed response body -> (kind, ((advertisement, its document), ...)).
        self._absorbed: Dict[str, Tuple[int, tuple]] = {}
        group.resolver.register_handler(self.HANDLER_NAME, self)

    # ------------------------------------------------------------ listeners

    def add_discovery_listener(self, listener: DiscoveryListener) -> None:
        """Register a listener for incoming discovery responses."""
        self._listeners.append(listener)

    def remove_discovery_listener(self, listener: DiscoveryListener) -> None:
        """Unregister a listener (missing listeners are ignored)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _notify(self, event: DiscoveryEvent) -> None:
        for listener in list(self._listeners):
            callback = getattr(listener, "discovery_event", listener)
            callback(event)

    # ----------------------------------------------------------- publishing

    def publish(
        self,
        advertisement: Advertisement,
        kind: int,
        *,
        lifetime: Optional[float] = None,
    ) -> None:
        """Store an advertisement in the local cache.

        "The first call writes the advertisement to the stable storage of the
        peer [...] in order for the peers that are looking for advertisements
        to find that peer." (paper, Section 4.4.1)
        """
        if advertisement.created_at == 0.0:
            advertisement.created_at = self.peer.now
        self.cache.publish(advertisement, kind, lifetime=lifetime, local=True)
        self.peer.metrics.counter("discovery_published").increment()

    def remote_publish(
        self,
        advertisement: Advertisement,
        kind: int,
        *,
        expiration: float = DEFAULT_REMOTE_LIFETIME,
    ) -> None:
        """Push an advertisement to other peers (unsolicited discovery response).

        "The second call sends the advertisements to the other peers via the
        standard used protocols (e.g, IP-Multicast, TCP or HTTP)."
        (paper, Section 4.4.1)
        """
        advertisement.expiration = expiration
        self.cache.rendering_changed(advertisement, kind)
        body = self._response_body(kind, (advertisement.to_document(),))
        self.group.resolver.send_query(self.HANDLER_NAME, body)
        self.peer.metrics.counter("discovery_remote_published").increment()

    # -------------------------------------------------------------- queries

    def get_local_advertisements(
        self,
        kind: int,
        attribute: Optional[str] = None,
        value: Optional[str] = None,
    ) -> List[Advertisement]:
        """Search the local cache (``getLocalAdvertisements`` in Figure 16)."""
        self.peer.metrics.counter("discovery_local_queries").increment()
        return self.cache.search(kind, attribute, value)

    def get_remote_advertisements(
        self,
        peer: Optional[PeerID],
        kind: int,
        attribute: Optional[str] = None,
        value: Optional[str] = None,
        threshold: int = DEFAULT_THRESHOLD,
    ) -> str:
        """Send a remote discovery query; returns the resolver query id.

        With ``peer`` set the query goes to that peer only, otherwise it is
        propagated (multicast + rendez-vous).  Responses arrive asynchronously:
        they are added to the local cache and delivered to discovery
        listeners.
        """
        DiscoveryKind.validate(kind)
        query = XmlElement("DiscoveryQuery")
        query.add("Kind", str(kind))
        query.add("Attribute", attribute or "")
        query.add("Value", value or "")
        query.add("Threshold", str(threshold))
        self.peer.metrics.counter("discovery_remote_queries").increment()
        return self.group.resolver.send_query(
            self.HANDLER_NAME, to_xml(query, declaration=False), dest_peer=peer
        )

    def flush_advertisements(self, ident: Optional[str], kind: int) -> int:
        """Drop cached advertisements of one kind (Figure 16, lines 9-11).

        ``ident`` of None flushes every advertisement of that kind; otherwise
        only the advertisement whose resource ID matches is dropped.  Returns
        the number of entries removed.
        """
        DiscoveryKind.validate(kind)
        if ident is None:
            return self.cache.flush(kind)
        removed = 0
        for entry in self.cache.entries(kind):
            rid = entry.advertisement.resource_id()
            if rid is not None and rid.to_urn() == ident:
                if self.cache.remove(entry.advertisement, kind):
                    removed += 1
        return removed

    # ----------------------------------------------------- resolver handler

    def process_query(self, query: ResolverQuery) -> Optional[str]:
        """Answer a discovery query (or absorb a pushed advertisement).

        Malformed bodies (a remote peer's bug, or hostile input) are counted
        and dropped instead of crashing the resolver dispatch loop.
        """
        seen_before = query.body in self._absorbed  # only response bodies are
        if not seen_before:
            try:
                element = parse_xml(query.body)
            except XmlParseError:
                self.peer.metrics.counter("discovery_malformed").increment()
                return None
        if seen_before or element.name == "DiscoveryResponse":
            # remote_publish pushes advertisements as unsolicited "queries"
            # carrying a response payload; absorb them without replying.
            self.process_response(query)
            return None
        try:
            kind = int(element.child_text("Kind", str(self.ADV)))
            threshold = int(element.child_text("Threshold", str(self.DEFAULT_THRESHOLD)))
        except ValueError:
            self.peer.metrics.counter("discovery_malformed").increment()
            return None
        attribute = element.child_text("Attribute") or None
        value = element.child_text("Value") or None
        matches = self.cache.matching(kind, attribute, value, limit=threshold)
        self.peer.metrics.counter("discovery_queries_served").increment()
        if not matches:
            return None
        return self._response_body(kind, tuple(entry.rendered() for entry in matches))

    def process_response(self, response: Union[ResolverResponse, ResolverQuery]) -> None:
        """Handle a discovery response (or a pushed one, which arrives as a
        query): cache the advertisements, notify listeners."""
        if response.src_peer == self.peer.peer_id:
            return
        body = response.body
        parsed = self._absorbed.get(body)
        if parsed is None:
            parsed = self._parse_response(body)
        kind, carried = parsed
        now = self.peer.now
        for advertisement, document in carried:
            advertisement.created_at = now
            self.cache.publish(
                advertisement,
                kind,
                lifetime=advertisement.expiration,
                local=False,
                document=document,
            )
        if carried:
            self.peer.metrics.counter("discovery_responses_received").increment()
            self._notify(
                DiscoveryEvent(
                    kind=kind,
                    advertisements=[advertisement for advertisement, _ in carried],
                    src_peer=response.src_peer,
                    query_id=response.query_id,
                )
            )

    def _parse_response(self, body: str) -> Tuple[int, tuple]:
        """Parse a response body: malformed parts are counted and skipped; a
        body without any is remembered, so its next arrival is a dictionary
        lookup."""
        try:
            element = parse_xml(body)
            kind = int(element.child_text("Kind", str(self.ADV)))
        except ValueError:  # XmlParseError is one
            self.peer.metrics.counter("discovery_malformed").increment()
            return self.ADV, ()
        carried = []
        # The root check keeps a query document some peer sent as a
        # "response" from ever short-cutting process_query.
        clean = element.name == "DiscoveryResponse"
        for child in element.find_all("Adv"):
            try:
                carried.append((AdvertisementFactory.from_document(child.text), child.text))
            except Exception:
                self.peer.metrics.counter("discovery_malformed").increment()
                clean = False
        parsed = (kind, tuple(carried))
        if clean:
            _remember(self._absorbed, body, parsed)
        return parsed

    def _response_body(self, kind: int, documents: Tuple[str, ...]) -> str:
        body = self._bodies.get((kind, documents))
        if body is None:
            response = XmlElement("DiscoveryResponse")
            response.add("Kind", str(kind))
            for document in documents:
                response.add("Adv", document)
            body = to_xml(response, declaration=False)
            _remember(self._bodies, (kind, documents), body)
        return body


__all__ = ["DiscoveryEvent", "DiscoveryListener", "DiscoveryService"]
