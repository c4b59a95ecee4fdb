"""Exception hierarchy of the JXTA substrate."""

from __future__ import annotations


class JxtaError(RuntimeError):
    """Base class for every error raised by the JXTA substrate."""


class ServiceNotFoundError(JxtaError):
    """Raised when a peer group does not host the requested service."""


class ResolverError(JxtaError):
    """Raised by the Peer Resolver Protocol (unknown handler, undeliverable query...)."""


class PipeError(JxtaError):
    """Raised when a pipe cannot be created, bound or used."""


class AdvertisementError(JxtaError):
    """Raised when an advertisement is malformed or of an unknown type."""


__all__ = [
    "AdvertisementError",
    "JxtaError",
    "PipeError",
    "ResolverError",
    "ServiceNotFoundError",
]
