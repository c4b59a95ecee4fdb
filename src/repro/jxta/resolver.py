"""Peer Resolver Protocol (PRP).

"The PRP is a protocol just above the transport layer.  This protocol
dispatches each JXTA message to the right services.  The more handlers are
registered with PRP, the more peers a given peer is potentially able to
communicate with."  (paper, Section 2.2, Figure 2)

Services (discovery, peer information, pipe binding...) register a named
:class:`ResolverHandler`.  A query sent under that name is delivered to the
same-named handler on the receiving peer, which may return a response; the
response travels back to the querying peer and is handed to its handler's
``process_response``.  Queries can be addressed to one peer or propagated to
every reachable peer (multicast + rendez-vous re-propagation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol, TYPE_CHECKING

from repro.jxta.endpoint import EndpointEnvelope
from repro.jxta.errors import ResolverError
from repro.jxta.ids import PeerID
from repro.jxta.message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.jxta.peergroup import PeerGroup


@dataclass
class ResolverQuery:
    """A query delivered to a :class:`ResolverHandler`."""

    handler_name: str
    query_id: str
    body: str
    src_peer: PeerID


@dataclass
class ResolverResponse:
    """A response delivered back to the querying peer's handler."""

    handler_name: str
    query_id: str
    body: str
    src_peer: PeerID


class ResolverHandler(Protocol):
    """The interface resolver handlers implement."""

    def process_query(self, query: ResolverQuery) -> Optional[str]:
        """Handle an incoming query; return a response body or None for no response."""

    def process_response(self, response: ResolverResponse) -> None:
        """Handle a response to a query this peer sent earlier."""


class ResolverService:
    """Per-group query/response dispatch service."""

    SERVICE_NAME = "jxta.service.resolver"

    _KIND_QUERY = "query"
    _KIND_RESPONSE = "response"

    def __init__(self, group: "PeerGroup") -> None:
        self.group = group
        self.peer = group.peer
        self._handler_table: Dict[str, ResolverHandler] = {}
        self._param = group.group_id.to_urn()
        self.peer.endpoint.register_listener(self.SERVICE_NAME, self._param, self._on_envelope)

    # ------------------------------------------------------------- handlers

    def register_handler(self, name: str, handler: ResolverHandler) -> None:
        """Register ``handler`` under ``name`` (replacing any previous one)."""
        self._handler_table[name] = handler

    def unregister_handler(self, name: str) -> None:
        """Remove the handler registered under ``name`` (missing names are ignored)."""
        self._handler_table.pop(name, None)

    def handler_names(self) -> list[str]:
        """Names of all registered handlers."""
        return sorted(self._handler_table)

    # --------------------------------------------------------------- queries

    def send_query(
        self,
        handler_name: str,
        body: str,
        *,
        dest_peer: Optional[PeerID] = None,
    ) -> str:
        """Send a query under ``handler_name``.

        With ``dest_peer`` the query goes to that peer only; otherwise it is
        propagated to every reachable peer.  Returns the query id, which the
        handler will see again on any responses.
        """
        if handler_name not in self._handler_table:
            # A handler must exist locally to receive the responses.
            raise ResolverError(
                f"cannot send a query for unregistered handler {handler_name!r}"
            )
        query_id = self.peer.next_id("q")
        message = self._build(self._KIND_QUERY, handler_name, query_id, body)
        self.peer.metrics.counter("resolver_queries_sent").increment()
        if dest_peer is None:
            self.peer.endpoint.propagate(message, self.SERVICE_NAME, self._param)
        else:
            self.peer.endpoint.send(dest_peer, message, self.SERVICE_NAME, self._param)
        return query_id

    def send_response(
        self, handler_name: str, query_id: str, body: str, dest_peer: PeerID
    ) -> bool:
        """Send a response for ``query_id`` back to ``dest_peer``."""
        message = self._build(self._KIND_RESPONSE, handler_name, query_id, body)
        self.peer.metrics.counter("resolver_responses_sent").increment()
        return self.peer.endpoint.send(dest_peer, message, self.SERVICE_NAME, self._param)

    def _build(self, kind: str, handler_name: str, query_id: str, body: str) -> Message:
        message = Message()
        message.add("kind", kind)
        message.add("handler", handler_name)
        message.add("query_id", query_id)
        message.add("body", body)
        return message

    # --------------------------------------------------------------- receive

    def _on_envelope(self, envelope: EndpointEnvelope, message: Message) -> None:
        kind = message.get_text("kind")
        handler_name = message.get_text("handler")
        query_id = message.get_text("query_id")
        body = message.get_text("body")
        handler = self._handler_table.get(handler_name)
        if handler is None:
            self.peer.metrics.counter("resolver_unhandled").increment()
            return
        src_peer = envelope.source_peer_id
        if kind == self._KIND_QUERY:
            self.peer.metrics.counter("resolver_queries_received").increment()
            if src_peer == self.peer.peer_id:
                # Our own propagated query echoed back; nothing to answer.
                return
            response_body = handler.process_query(
                ResolverQuery(
                    handler_name=handler_name,
                    query_id=query_id,
                    body=body,
                    src_peer=src_peer,
                )
            )
            if response_body is not None:
                self.send_response(handler_name, query_id, response_body, src_peer)
        elif kind == self._KIND_RESPONSE:
            self.peer.metrics.counter("resolver_responses_received").increment()
            handler.process_response(
                ResolverResponse(
                    handler_name=handler_name,
                    query_id=query_id,
                    body=body,
                    src_peer=src_peer,
                )
            )
        else:
            self.peer.metrics.counter("resolver_malformed").increment()


__all__ = [
    "ResolverHandler",
    "ResolverQuery",
    "ResolverResponse",
    "ResolverService",
]
