"""Advertisement management of the TPS layer.

In the paper's architecture (Figures 10 and 11) the "Advs" block "is
responsible for creating a new advertisement for the type we are interested
in as well as for finding and collecting the multiple advertisements that are
in relation with our type".  One TPS type (hierarchy) is represented by one
peer-group advertisement whose name is ``PS_PREFIX`` + the type name and
which hosts the WIRE service over a pipe named after the type.

Two classes implement the block, mirroring the paper's
``AdvertisementsCreator`` (Figure 15) and ``AdvertisementsFinder``
(Figure 16), plus the listener interface finders notify.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, Union

from repro.jxta.advertisement import (
    PeerGroupAdvertisement,
    PipeAdvertisement,
    ServiceAdvertisement,
)
from repro.jxta.cache import DiscoveryKind
from repro.jxta.discovery import DiscoveryEvent, DiscoveryService
from repro.jxta.ids import PeerGroupID, PipeID
from repro.jxta.peergroup import PeerGroup
from repro.jxta.pipes import PipeKind
from repro.jxta.wire import WireService
from repro.net.simclock import PeriodicTask

#: Prefix of TPS peer-group advertisement names (``PS_PREFIX`` in Figure 15).
PS_PREFIX = "PS$"


class TPSAdvertisementsListener(Protocol):
    """Notified by a finder for every *new* matching advertisement."""

    def handle_new_advertisements(self, advertisement: PeerGroupAdvertisement) -> None:
        """Called once per newly discovered peer-group advertisement."""


#: Plain callables are accepted wherever a listener is expected.
ListenerLike = Union[TPSAdvertisementsListener, Callable[[PeerGroupAdvertisement], None]]


class TPSAdvertisementsCreator:
    """Creates and publishes the peer-group advertisement for one TPS type.

    Mirrors the paper's Figure 15: build a pipe advertisement named after the
    type, wrap it in a WIRE service advertisement, attach that service (plus
    the resolver parameters) to a new peer-group advertisement named
    ``PS_PREFIX + type name``, and publish the result both locally and
    remotely.
    """

    def __init__(self, root_group: PeerGroup, discovery: Optional[DiscoveryService] = None) -> None:
        self.root_group = root_group
        self.discovery = discovery or root_group.discovery
        self.advertisement: Optional[PeerGroupAdvertisement] = None

    def create_peer_group_advertisement(self, name: str) -> PeerGroupAdvertisement:
        """Build the peer-group advertisement for the type called ``name``."""
        local_peer_id = self.root_group.get_peer_id()
        pipe_advertisement = PipeAdvertisement(
            pipe_id=PipeID(),
            name=name,
            pipe_kind=PipeKind.WIRE.value,
            created_at=self.root_group.peer.now,
        )
        advertisement = PeerGroupAdvertisement(
            group_id=PeerGroupID(),
            name=PS_PREFIX + pipe_advertisement.name,
            creator_peer_id=local_peer_id,
            app=self.root_group.advertisement.get_app(),
            group_impl=self.root_group.advertisement.get_group_impl(),
            is_rendezvous=True,
            created_at=self.root_group.peer.now,
        )
        services = self.root_group.advertisement.get_service_advertisements()

        wire_advertisement = ServiceAdvertisement(
            name=WireService.WireName,
            version=WireService.WireVersion,
            uri=WireService.WireUri,
            code=WireService.WireCode,
            security=WireService.WireSecurity,
            keywords=pipe_advertisement.name,
            pipe=pipe_advertisement,
        )

        resolver = services.get("jxta.service.resolver", ServiceAdvertisement(
            name="jxta.service.resolver"
        ))
        params = resolver.get_params()
        params.append(local_peer_id.to_urn())
        resolver.set_params(params)
        services["jxta.service.resolver"] = resolver

        services[WireService.WireName] = wire_advertisement
        advertisement.set_service_advertisements(services)

        self.advertisement = advertisement
        return advertisement

    def publish_advertisement(
        self, advertisement: PeerGroupAdvertisement, kind: int = DiscoveryKind.GROUP
    ) -> None:
        """Publish the advertisement locally and push it to remote peers."""
        self.discovery.publish(advertisement, kind)
        self.discovery.remote_publish(advertisement, kind)


class TPSAdvertisementsFinder:
    """Searches, collects and de-duplicates advertisements for one TPS type.

    Mirrors the paper's Figure 16: flush stale advertisements, periodically
    issue a remote discovery query for peer-group advertisements whose name
    starts with the prefix, harvest the local cache, and dispatch every *new*
    advertisement (new group ID) to the registered listeners.  Instead of a
    Java thread with ``sleep``, the periodic work is scheduled on the
    simulation clock.

    Unlike Figure 16's fixed ``sleep(SLEEPING_TIME)``, the rounds back off
    while discovery is quiet (Trickle's rule).  ``SLEEPING_TIME`` is the base
    and the first delay after :meth:`start`.  After a round that learned
    nothing -- no new advertisement pulled by it or pushed by a discovery
    event since the round before -- the delay doubles, up to
    ``MAX_BACKOFF`` times the base; after a round that learned one, it is
    the base again.  Advertisements a peer publishes are also pushed to its
    neighbours, so a backed-off finder still hears a new type's publisher
    at once, and otherwise within one capped delay.
    """

    #: How many advertisements we accept per responding peer.
    NUMBER_OF_ADV_PER_PEER = 10
    #: Default re-query interval (seconds of virtual time), the Java thread's
    #: ``SLEEPING_TIME``.
    SLEEPING_TIME = 5.0
    #: Quiet rounds double the delay up to this multiple of the base interval.
    MAX_BACKOFF = 8

    def __init__(
        self,
        group: PeerGroup,
        prefix: str,
        *,
        kind: int = DiscoveryKind.GROUP,
    ) -> None:
        self.group = group
        self.discovery = group.discovery
        self.prefix = prefix
        self.kind = kind
        self.advertisements: List[PeerGroupAdvertisement] = []
        self._listeners: List[ListenerLike] = []
        self._task: Optional[PeriodicTask] = None
        self._running = False

    # ------------------------------------------------------------ listeners

    def add_advertisements_listener(self, listener: ListenerLike) -> None:
        """Register a listener notified of every new advertisement."""
        self._listeners.append(listener)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin searching: flush stale caches, query now, then again after
        ``SLEEPING_TIME``, backing off while quiet."""
        if self._running:
            return
        self._running = True
        # The paper's finder flushes the whole cache at startup (Figure 16,
        # lines 9-11).  We flush only remotely learned advertisements:
        # locally published ones (our own peer advertisement, or another
        # engine's type advertisement on the same peer) must stay so this
        # peer keeps answering discovery queries for them.
        self.discovery.cache.flush(DiscoveryKind.ADV, remote_only=True)
        self.discovery.cache.flush(DiscoveryKind.PEER, remote_only=True)
        self.discovery.cache.flush(DiscoveryKind.GROUP, remote_only=True)
        self.discovery.add_discovery_listener(self._on_discovery_event)
        self._poll()
        # -1: the first round counts as news, so the next is one base later.
        self._known = -1
        self._task = self.group.peer.simulator.schedule_periodic(
            self.SLEEPING_TIME, self._poll, label=f"tps-finder:{self.prefix}", jitter=self._backoff
        )

    def stop(self) -> None:
        """Stop searching.  Idempotent."""
        if not self._running:
            return
        self._running = False
        if self._task is not None:
            self._task.stop()
        self.discovery.remove_discovery_listener(self._on_discovery_event)

    @property
    def running(self) -> bool:
        """Whether the finder is currently searching."""
        return self._running

    # -------------------------------------------------------------- internal

    def _poll(self) -> None:
        """One search round: remote query plus a harvest of the local cache."""
        self.discovery.get_remote_advertisements(
            None,
            self.kind,
            "Name",
            self.prefix + "*",
            self.NUMBER_OF_ADV_PER_PEER,
        )
        for advertisement in self.discovery.get_local_advertisements(
            self.kind, "Name", self.prefix + "*"
        ):
            self._handle_new_advertisement(advertisement)

    def _backoff(self) -> float:
        """The next round's delay beyond the base interval (the task's jitter)."""
        quiet = len(self.advertisements) == self._known
        self._known = len(self.advertisements)
        self._factor = min(2 * self._factor, self.MAX_BACKOFF) if quiet else 1
        return (self._factor - 1) * self.SLEEPING_TIME

    def _on_discovery_event(self, event: DiscoveryEvent) -> None:
        if event.kind != self.kind:
            return
        for advertisement in event.advertisements:
            if isinstance(advertisement, PeerGroupAdvertisement) and advertisement.matches(
                "Name", self.prefix + "*"
            ):
                self._handle_new_advertisement(advertisement)

    def find_advertisement(
        self, advertisements: List[PeerGroupAdvertisement], advertisement: PeerGroupAdvertisement
    ) -> bool:
        """Whether an advertisement with the same group ID is already known.

        This is the duplicate check of Figure 16 (lines 42-60): peer-group
        advertisements are considered the same when their group IDs match.
        """
        if not isinstance(advertisement, PeerGroupAdvertisement):
            return True
        gid = advertisement.get_gid()
        return any(existing.get_gid() == gid for existing in advertisements)

    def _handle_new_advertisement(self, advertisement: PeerGroupAdvertisement) -> None:
        if not isinstance(advertisement, PeerGroupAdvertisement):
            return
        if self.find_advertisement(self.advertisements, advertisement):
            return
        self.advertisements.append(advertisement)
        for listener in list(self._listeners):
            callback = getattr(listener, "handle_new_advertisements", listener)
            callback(advertisement)


__all__ = [
    "PS_PREFIX",
    "TPSAdvertisementsCreator",
    "TPSAdvertisementsFinder",
    "TPSAdvertisementsListener",
]
