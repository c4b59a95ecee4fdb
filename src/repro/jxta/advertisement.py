"""JXTA advertisements.

"When a new resource (peer, pipe, peergroup, service) is available, a new
advertisement is published in order for the other peers to know this
resource.  An advertisement is a XML message that provides information about
the resource.  Each advertisement encompasses an age to distinguish stale
advertisements from new ones."  (paper, Section 2.1)

This module provides the advertisement classes the paper's code manipulates
(Figures 15-17): :class:`PipeAdvertisement`, :class:`PeerGroupAdvertisement`,
:class:`ServiceAdvertisement`, plus :class:`PeerAdvertisement` and
:class:`ModuleAdvertisement` used by the substrate itself, and the
:class:`AdvertisementFactory` used to instantiate them by type name.

Every advertisement serialises to and parses from XML through the codec in
:mod:`repro.serialization.xml_codec`.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, List, Optional, Type

from repro.jxta.errors import AdvertisementError
from repro.jxta.ids import JxtaID, ModuleID, PeerGroupID, PeerID, PipeID
from repro.serialization.xml_codec import XmlElement, XmlParseError, parse_xml, to_xml

#: Default advertisement lifetime (seconds of virtual time) in the local cache.
DEFAULT_LIFETIME = 7 * 24 * 3600.0
#: Default lifetime advertised to remote peers.
DEFAULT_REMOTE_LIFETIME = 2 * 3600.0


class Advertisement:
    """Base class of all advertisements.

    Subclasses override :meth:`to_xml_element` / :meth:`populate_from_xml` and
    declare their ``advertisement_type`` (the JXTA-style ``jxta:XXX`` string
    used by the factory and by discovery queries).
    """

    advertisement_type: ClassVar[str] = "jxta:Adv"

    def __init__(self, *, name: str = "", created_at: float = 0.0) -> None:
        self.name = name
        #: Virtual time at which the advertisement was created; the cache uses
        #: it to compute ages and expire stale advertisements.
        self.created_at = created_at
        #: Lifetime (seconds) in the publisher's local cache.
        self.lifetime = DEFAULT_LIFETIME
        #: Lifetime (seconds) granted to remote caches.
        self.expiration = DEFAULT_REMOTE_LIFETIME

    # ------------------------------------------------------------------ age

    def age(self, now: float) -> float:
        """Age in seconds at virtual time ``now``."""
        return max(0.0, now - self.created_at)

    def expired(self, now: float, *, remote: bool = False) -> bool:
        """Whether the advertisement has outlived its (local or remote) lifetime."""
        limit = self.expiration if remote else self.lifetime
        return self.age(now) > limit

    # ------------------------------------------------------------------ id

    def resource_id(self) -> Optional[JxtaID]:
        """The ID of the resource this advertisement describes (None if unset)."""
        return None

    def unique_key(self) -> str:
        """Key used by caches to de-duplicate advertisements.

        Defaults to the resource ID URN when available, otherwise the
        advertisement type plus name.
        """
        rid = self.resource_id()
        if rid is not None:
            return rid.to_urn()
        return f"{self.advertisement_type}:{self.name}"

    # ------------------------------------------------------------------ xml

    def to_xml_element(self) -> XmlElement:
        """Render the advertisement as an XML element tree."""
        element = XmlElement(self.advertisement_type.replace(":", "."))
        element.set_attribute("type", self.advertisement_type)
        if self.name:
            element.add("Name", self.name)
        element.add("Expiration", str(self.expiration))
        return element

    def populate_from_xml(self, element: XmlElement) -> None:
        """Fill this advertisement's fields from a parsed XML element."""
        self.name = element.child_text("Name", self.name)
        expiration = element.child_text("Expiration")
        if expiration:
            self.expiration = float(expiration)

    def to_document(self) -> str:
        """Serialise to a full XML document string."""
        return to_xml(self.to_xml_element())

    @property
    def document_size(self) -> int:
        """Size in bytes of the XML document form (used for cost accounting)."""
        return len(self.to_document().encode("utf-8"))

    def matches(self, attribute: Optional[str], value: Optional[str]) -> bool:
        """Whether the advertisement matches a discovery query.

        Discovery queries carry an attribute name and a value; the value may
        end with ``*`` for prefix matching, as used by the paper's
        ``AdvertisementsFinder`` (``"Name", prefix + "*"``).  A query with no
        attribute matches everything.
        """
        if not attribute:
            return True
        actual = self._attribute_value(attribute)
        if actual is None:
            return False
        if value is None:
            return True
        if value.endswith("*"):
            return actual.startswith(value[:-1])
        return actual == value

    def _attribute_value(self, attribute: str) -> Optional[str]:
        """The string value of a queryable attribute (subclasses may extend)."""
        if attribute.lower() == "name":
            return self.name
        rid = self.resource_id()
        if attribute.lower() in ("id", "gid", "pid") and rid is not None:
            return rid.to_urn()
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class PeerAdvertisement(Advertisement):
    """Describes a peer: its ID, name, group and network endpoints."""

    advertisement_type = "jxta:PA"

    def __init__(
        self,
        *,
        peer_id: Optional[PeerID] = None,
        group_id: Optional[PeerGroupID] = None,
        name: str = "",
        endpoints: Optional[List[str]] = None,
        is_rendezvous: bool = False,
        is_router: bool = False,
        created_at: float = 0.0,
    ) -> None:
        super().__init__(name=name, created_at=created_at)
        self.peer_id = peer_id or PeerID()
        self.group_id = group_id or PeerGroupID()
        #: Network endpoint descriptors, e.g. ``"tcp://host-3"``.
        self.endpoints: List[str] = list(endpoints or [])
        self.is_rendezvous = is_rendezvous
        self.is_router = is_router

    def resource_id(self) -> PeerID:
        return self.peer_id

    def to_xml_element(self) -> XmlElement:
        element = super().to_xml_element()
        element.add("PID", self.peer_id.to_urn())
        element.add("GID", self.group_id.to_urn())
        element.add("Rdv", "true" if self.is_rendezvous else "false")
        element.add("Router", "true" if self.is_router else "false")
        endpoints = element.add("Endpoints")
        for endpoint in self.endpoints:
            endpoints.add("Endpoint", endpoint)
        return element

    def populate_from_xml(self, element: XmlElement) -> None:
        super().populate_from_xml(element)
        self.peer_id = PeerID.from_urn(element.child_text("PID"))
        self.group_id = PeerGroupID.from_urn(element.child_text("GID"))
        self.is_rendezvous = element.child_text("Rdv") == "true"
        self.is_router = element.child_text("Router") == "true"
        endpoints = element.find("Endpoints")
        self.endpoints = (
            [child.text for child in endpoints.find_all("Endpoint")] if endpoints else []
        )

    def _attribute_value(self, attribute: str) -> Optional[str]:
        if attribute.lower() == "pid":
            return self.peer_id.to_urn()
        if attribute.lower() == "gid":
            return self.group_id.to_urn()
        return super()._attribute_value(attribute)


class PipeAdvertisement(Advertisement):
    """Describes a pipe: its ID, name and kind (unicast / propagate / wire)."""

    advertisement_type = "jxta:PipeAdvertisement"

    def __init__(
        self,
        *,
        pipe_id: Optional[PipeID] = None,
        name: str = "",
        pipe_kind: str = "JxtaUnicast",
        created_at: float = 0.0,
    ) -> None:
        super().__init__(name=name, created_at=created_at)
        self.pipe_id = pipe_id or PipeID()
        self.pipe_kind = pipe_kind

    def resource_id(self) -> PipeID:
        return self.pipe_id

    # JXTA's setters, kept with pythonic names plus thin aliases used by code
    # transliterated from the paper's figures.
    def set_pipe_id(self, pipe_id: PipeID) -> None:
        """Set the pipe ID (``pipeAdv.setPipeID(...)`` in Figure 15)."""
        self.pipe_id = pipe_id

    def set_name(self, name: str) -> None:
        """Set the pipe name (``pipeAdv.setName(...)`` in Figure 15)."""
        self.name = name

    def to_xml_element(self) -> XmlElement:
        element = super().to_xml_element()
        element.add("Id", self.pipe_id.to_urn())
        element.add("Type", self.pipe_kind)
        return element

    def populate_from_xml(self, element: XmlElement) -> None:
        super().populate_from_xml(element)
        self.pipe_id = PipeID.from_urn(element.child_text("Id"))
        self.pipe_kind = element.child_text("Type", self.pipe_kind)


class ServiceAdvertisement(Advertisement):
    """Describes a service hosted inside a peer group (Figure 15, lines 27-44).

    The paper's code configures the WIRE service advertisement with a name,
    version, URI, code, security level, keywords, parameters and the pipe
    advertisement the service communicates over; all of those fields exist
    here.
    """

    advertisement_type = "jxta:ServiceAdvertisement"

    def __init__(
        self,
        *,
        name: str = "",
        version: str = "1.0",
        uri: str = "",
        code: str = "",
        security: str = "none",
        keywords: str = "",
        pipe: Optional[PipeAdvertisement] = None,
        params: Optional[List[str]] = None,
        created_at: float = 0.0,
    ) -> None:
        super().__init__(name=name, created_at=created_at)
        self.version = version
        self.uri = uri
        self.code = code
        self.security = security
        self.keywords = keywords
        self.pipe = pipe
        self.params: List[str] = list(params or [])

    # JXTA-style setters used by transliterations of Figure 15.
    def set_name(self, name: str) -> None:
        """Set the service name."""
        self.name = name

    def set_version(self, version: str) -> None:
        """Set the service version string."""
        self.version = version

    def set_uri(self, uri: str) -> None:
        """Set the service URI."""
        self.uri = uri

    def set_code(self, code: str) -> None:
        """Set the service implementation code reference."""
        self.code = code

    def set_security(self, security: str) -> None:
        """Set the service security descriptor."""
        self.security = security

    def set_keywords(self, keywords: str) -> None:
        """Set the service keywords."""
        self.keywords = keywords

    def set_pipe(self, pipe: PipeAdvertisement) -> None:
        """Attach the pipe advertisement the service communicates over."""
        self.pipe = pipe

    def get_pipe(self) -> Optional[PipeAdvertisement]:
        """The attached pipe advertisement, if any."""
        return self.pipe

    def get_params(self) -> List[str]:
        """The service parameter list (``r.getParams()`` in Figure 15)."""
        return self.params

    def set_params(self, params: List[str]) -> None:
        """Replace the service parameter list."""
        self.params = list(params)

    def unique_key(self) -> str:
        return f"{self.advertisement_type}:{self.name}:{self.version}"

    def to_xml_element(self) -> XmlElement:
        element = super().to_xml_element()
        element.add("Version", self.version)
        element.add("Uri", self.uri)
        element.add("Code", self.code)
        element.add("Security", self.security)
        element.add("Keywords", self.keywords)
        params = element.add("Params")
        for param in self.params:
            params.add("Param", param)
        if self.pipe is not None:
            element.add_child(self.pipe.to_xml_element())
        return element

    def populate_from_xml(self, element: XmlElement) -> None:
        super().populate_from_xml(element)
        self.version = element.child_text("Version", self.version)
        self.uri = element.child_text("Uri", self.uri)
        self.code = element.child_text("Code", self.code)
        self.security = element.child_text("Security", self.security)
        self.keywords = element.child_text("Keywords", self.keywords)
        params = element.find("Params")
        self.params = [child.text for child in params.find_all("Param")] if params else []
        pipe_xml = element.find(PipeAdvertisement.advertisement_type.replace(":", "."))
        if pipe_xml is not None:
            pipe = PipeAdvertisement()
            pipe.populate_from_xml(pipe_xml)
            self.pipe = pipe


class PeerGroupAdvertisement(Advertisement):
    """Describes a peer group and the services it hosts (Figure 15, lines 16-44)."""

    advertisement_type = "jxta:PGA"

    def __init__(
        self,
        *,
        group_id: Optional[PeerGroupID] = None,
        creator_peer_id: Optional[PeerID] = None,
        name: str = "",
        description: str = "",
        app: str = "",
        group_impl: str = "",
        is_rendezvous: bool = False,
        created_at: float = 0.0,
    ) -> None:
        super().__init__(name=name, created_at=created_at)
        self.group_id = group_id or PeerGroupID()
        self.creator_peer_id = creator_peer_id
        self.description = description
        self.app = app
        self.group_impl = group_impl
        self.is_rendezvous = is_rendezvous
        self._services: Dict[str, ServiceAdvertisement] = {}

    def resource_id(self) -> PeerGroupID:
        return self.group_id

    # JXTA-style accessors used by the paper's AdvertisementsCreator (Fig. 15).
    def set_pid(self, peer_id: PeerID | str) -> None:
        """Record the creating peer's ID."""
        if isinstance(peer_id, str):
            peer_id = PeerID.from_urn(peer_id)
        self.creator_peer_id = peer_id

    def get_pid(self) -> Optional[PeerID]:
        """The creating peer's ID."""
        return self.creator_peer_id

    def set_gid(self, group_id: PeerGroupID | str) -> None:
        """Set the group's ID."""
        if isinstance(group_id, str):
            group_id = PeerGroupID.from_urn(group_id)
        self.group_id = group_id

    def get_gid(self) -> PeerGroupID:
        """The group's ID (``peerGAdv.getGid()`` in Figure 16)."""
        return self.group_id

    def set_name(self, name: str) -> None:
        """Set the group's name."""
        self.name = name

    def set_app(self, app: str) -> None:
        """Set the group's application descriptor."""
        self.app = app

    def get_app(self) -> str:
        """The group's application descriptor."""
        return self.app

    def set_group_impl(self, group_impl: str) -> None:
        """Set the group implementation descriptor."""
        self.group_impl = group_impl

    def get_group_impl(self) -> str:
        """The group implementation descriptor."""
        return self.group_impl

    def set_is_rendezvous(self, value: bool) -> None:
        """Mark whether members should act as rendez-vous for this group."""
        self.is_rendezvous = value

    def get_service_advertisements(self) -> Dict[str, ServiceAdvertisement]:
        """The services hosted by the group, keyed by service name."""
        return dict(self._services)

    def set_service_advertisements(self, services: Dict[str, ServiceAdvertisement]) -> None:
        """Replace the group's service advertisement table."""
        self._services = dict(services)

    def add_service(self, name: str, service: ServiceAdvertisement) -> None:
        """Add one service advertisement under ``name``."""
        self._services[name] = service

    def service(self, name: str) -> Optional[ServiceAdvertisement]:
        """Look up a hosted service advertisement by name."""
        return self._services.get(name)

    def _attribute_value(self, attribute: str) -> Optional[str]:
        if attribute.lower() == "gid":
            return self.group_id.to_urn()
        if attribute.lower() == "desc":
            return self.description
        return super()._attribute_value(attribute)

    def to_xml_element(self) -> XmlElement:
        element = super().to_xml_element()
        element.add("GID", self.group_id.to_urn())
        if self.creator_peer_id is not None:
            element.add("PID", self.creator_peer_id.to_urn())
        element.add("Desc", self.description)
        element.add("App", self.app)
        element.add("GroupImpl", self.group_impl)
        element.add("Rdv", "true" if self.is_rendezvous else "false")
        services = element.add("Services")
        for name, service in sorted(self._services.items()):
            wrapper = services.add("Service", name=name)
            wrapper.add_child(service.to_xml_element())
        return element

    def populate_from_xml(self, element: XmlElement) -> None:
        super().populate_from_xml(element)
        self.group_id = PeerGroupID.from_urn(element.child_text("GID"))
        pid = element.child_text("PID")
        self.creator_peer_id = PeerID.from_urn(pid) if pid else None
        self.description = element.child_text("Desc", self.description)
        self.app = element.child_text("App", self.app)
        self.group_impl = element.child_text("GroupImpl", self.group_impl)
        self.is_rendezvous = element.child_text("Rdv") == "true"
        services_xml = element.find("Services")
        self._services = {}
        if services_xml is not None:
            for wrapper in services_xml.find_all("Service"):
                if not wrapper.children:
                    continue
                service = ServiceAdvertisement()
                service.populate_from_xml(wrapper.children[0])
                self._services[wrapper.attributes.get("name", service.name)] = service


class ModuleAdvertisement(Advertisement):
    """Describes a loadable module (service implementation)."""

    advertisement_type = "jxta:MIA"

    def __init__(
        self,
        *,
        module_id: Optional[ModuleID] = None,
        name: str = "",
        description: str = "",
        provider: str = "",
        created_at: float = 0.0,
    ) -> None:
        super().__init__(name=name, created_at=created_at)
        self.module_id = module_id or ModuleID()
        self.description = description
        self.provider = provider

    def resource_id(self) -> ModuleID:
        return self.module_id

    def to_xml_element(self) -> XmlElement:
        element = super().to_xml_element()
        element.add("MID", self.module_id.to_urn())
        element.add("Desc", self.description)
        element.add("Provider", self.provider)
        return element

    def populate_from_xml(self, element: XmlElement) -> None:
        super().populate_from_xml(element)
        self.module_id = ModuleID.from_urn(element.child_text("MID"))
        self.description = element.child_text("Desc", self.description)
        self.provider = element.child_text("Provider", self.provider)


class AdvertisementFactory:
    """Creates advertisements by type name and parses XML documents.

    Mirrors JXTA's ``AdvertisementFactory.newAdvertisement(type)`` used
    throughout Figure 15.
    """

    _registry: ClassVar[Dict[str, Type[Advertisement]]] = {}

    @classmethod
    def register(cls, advertisement_class: Type[Advertisement]) -> Type[Advertisement]:
        """Register an advertisement class under its ``advertisement_type``."""
        cls._registry[advertisement_class.advertisement_type] = advertisement_class
        return advertisement_class

    @classmethod
    def new_advertisement(cls, advertisement_type: str, **kwargs: Any) -> Advertisement:
        """Instantiate an empty advertisement of the given type."""
        target = cls._registry.get(advertisement_type)
        if target is None:
            raise AdvertisementError(f"unknown advertisement type {advertisement_type!r}")
        return target(**kwargs)

    @classmethod
    def known_types(cls) -> List[str]:
        """All registered advertisement type names."""
        return sorted(cls._registry)

    @classmethod
    def from_document(cls, document: str) -> Advertisement:
        """Parse an XML document into the corresponding advertisement object.

        Raises :class:`AdvertisementError` for malformed XML as well as for
        unknown types, so callers on the receive path have a single error
        contract for untrusted documents.
        """
        try:
            element = parse_xml(document)
        except XmlParseError as error:
            raise AdvertisementError(f"malformed advertisement document: {error}") from error
        type_name = element.attributes.get("type", "")
        target = cls._registry.get(type_name)
        if target is None:
            raise AdvertisementError(f"document advertises unknown type {type_name!r}")
        advertisement = target()
        advertisement.populate_from_xml(element)
        return advertisement


for _cls in (
    Advertisement,
    PeerAdvertisement,
    PipeAdvertisement,
    ServiceAdvertisement,
    PeerGroupAdvertisement,
    ModuleAdvertisement,
):
    AdvertisementFactory.register(_cls)


__all__ = [
    "Advertisement",
    "AdvertisementFactory",
    "DEFAULT_LIFETIME",
    "DEFAULT_REMOTE_LIFETIME",
    "ModuleAdvertisement",
    "PeerAdvertisement",
    "PeerGroupAdvertisement",
    "PipeAdvertisement",
    "ServiceAdvertisement",
]
