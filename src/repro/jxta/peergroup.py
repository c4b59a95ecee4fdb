"""Peer groups and their hosted services.

"PeerGroups are collections of peers.  A peer may join multiple peergroups
to share different resources and services.  There is no hierarchy inside the
groups.  A peergroup creates a scoped and monitored environment."
(paper, Section 2.1)

A :class:`PeerGroup` is a *local* view: each participating peer instantiates
the group (from its advertisement) and thereby gets its own set of group
services -- resolver, discovery, pipe binding, rendez-vous and wire, the ones
TPS runs on.  Traffic is scoped per group: the services register endpoint
listeners and resolver handlers parameterised by the group ID, so two groups
never see each other's queries or messages.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.jxta.advertisement import PeerGroupAdvertisement
from repro.jxta.discovery import DiscoveryService
from repro.jxta.errors import ServiceNotFoundError
from repro.jxta.ids import PeerGroupID
from repro.jxta.pipe_binding import PipeBindingService
from repro.jxta.rendezvous import RendezvousService
from repro.jxta.resolver import ResolverService
from repro.jxta.routing import EndpointRouter
from repro.jxta.wire import WireService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.jxta.peer import Peer


class PeerGroup:
    """One peer's instantiation of a peer group and its services."""

    #: Well-known service names usable with :meth:`lookup_service`.
    RESOLVER = ResolverService.SERVICE_NAME
    DISCOVERY = DiscoveryService.SERVICE_NAME
    PIPE = PipeBindingService.SERVICE_NAME
    RENDEZVOUS = RendezvousService.SERVICE_NAME
    WIRE = WireService.WireName

    def __init__(
        self,
        peer: "Peer",
        advertisement: PeerGroupAdvertisement,
        *,
        parent: Optional["PeerGroup"] = None,
    ) -> None:
        self.peer = peer
        self.advertisement = advertisement
        self.parent = parent
        # Service construction order matters: the resolver first (everything
        # registers handlers with it), then the rest.
        self.resolver = ResolverService(self)
        self.discovery = DiscoveryService(self)
        self.pipe_service = PipeBindingService(self)
        self.rendezvous = RendezvousService(self)
        self.wire = WireService(self)
        self.router = EndpointRouter(peer)
        self._services: Dict[str, object] = {
            self.RESOLVER: self.resolver,
            self.DISCOVERY: self.discovery,
            self.PIPE: self.pipe_service,
            self.RENDEZVOUS: self.rendezvous,
            self.WIRE: self.wire,
        }
        peer._register_group(self)

    # ------------------------------------------------------------ properties

    @property
    def group_id(self) -> PeerGroupID:
        """The group's stable identifier."""
        return self.advertisement.group_id

    @property
    def name(self) -> str:
        """The group's advertised name."""
        return self.advertisement.name

    def get_peer_id(self):
        """The local peer's ID (``rootGroup.getPeerID()`` in Figure 15)."""
        return self.peer.peer_id

    def get_id(self) -> PeerGroupID:
        """The group's ID (``rootGroup.getID()`` in Figure 15)."""
        return self.group_id

    def get_advertisement(self) -> PeerGroupAdvertisement:
        """The group's advertisement (``par.getAdvertisement()`` in Figure 15)."""
        return self.advertisement

    # -------------------------------------------------------------- services

    def lookup_service(self, name: str):
        """Return the hosted service registered under ``name``.

        This is the ``wireGroup.lookupService(WireService.WireName)`` call of
        the paper's Figure 17.  Raises :class:`ServiceNotFoundError` for
        unknown names.
        """
        service = self._services.get(name)
        if service is None:
            raise ServiceNotFoundError(
                f"group {self.name!r} hosts no service named {name!r}"
            )
        return service

    def service_names(self) -> list[str]:
        """Names of all hosted services."""
        return sorted(self._services)

    # ----------------------------------------------------------- sub-groups

    def new_group(self, advertisement: PeerGroupAdvertisement) -> "PeerGroup":
        """Instantiate a child peer group from its advertisement.

        This is ``PeerGroupFactory.newPeerGroup(); wireGroup.init(parent,
        adv)`` from Figure 17 collapsed into one call.  The child group gets
        its own scoped services; the advertisement is published in this
        group's discovery cache so other local lookups find it.
        """
        child = PeerGroup(self.peer, advertisement, parent=self)
        self.discovery.publish(advertisement, DiscoveryService.GROUP)
        return child

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PeerGroup({self.name!r}, {self.group_id!r}, peer={self.peer.name!r})"


__all__ = ["PeerGroup"]
