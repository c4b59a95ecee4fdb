"""A JXTA-like peer-to-peer substrate, built from scratch.

The paper layers TPS on top of Sun's JXTA 1.0, "an analogous to the sockets
for P2P infrastructures".  This package reimplements the JXTA machinery the
paper's TPS layer relies on:

Concepts (Section 2.1 of the paper)
    :mod:`repro.jxta.ids` (IDs), :mod:`repro.jxta.peer` (peers, rendez-vous
    and router peers), :mod:`repro.jxta.pipes` (pipes),
    :mod:`repro.jxta.peergroup` (peer groups),
    :mod:`repro.jxta.advertisement` (advertisements) and
    :mod:`repro.jxta.message` (messages).

Protocols (Section 2.2)
    * Peer Discovery Protocol (PDP) -- :mod:`repro.jxta.discovery`
    * Peer Resolver Protocol (PRP) -- :mod:`repro.jxta.resolver`
    * Pipe Binding Protocol (PBP) -- :mod:`repro.jxta.pipe_binding`
    * Endpoint Routing Protocol (ERP) -- :mod:`repro.jxta.routing`

Services (Section 2 "service layer")
    * the many-to-many WIRE service -- :mod:`repro.jxta.wire`

The paper's other JXTA protocols and services (peer information, membership,
monitoring, cms, bi-directional pipes) are out of scope: TPS does not use them.

:mod:`repro.jxta.platform` bootstraps a peer (endpoint, world peer group and
all standard services) on top of a :class:`repro.net.Node`.
"""

from __future__ import annotations

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "advertisement": (
            "Advertisement",
            "AdvertisementFactory",
            "ModuleAdvertisement",
            "PeerAdvertisement",
            "PeerGroupAdvertisement",
            "PipeAdvertisement",
            "ServiceAdvertisement",
        ),
        "errors": ("JxtaError", "PipeError", "ResolverError", "ServiceNotFoundError"),
        "ids": ("JxtaID", "ModuleID", "PeerGroupID", "PeerID", "PipeID"),
        "message": ("Message", "MessageElement"),
        "peer": ("Peer", "PeerConfig"),
        "peergroup": ("PeerGroup",),
        "pipes": ("InputPipe", "PipeKind"),
        "platform": ("JxtaNetworkBuilder", "create_peer"),
        "wire": ("WireService",),
    },
)
