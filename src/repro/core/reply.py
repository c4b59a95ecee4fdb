"""Replying to publishers: combining TPS with point-to-point interaction.

The paper's concluding remarks note a deliberate limitation of the pure TPS
abstraction: "our TPS API does not enable a subscriber to immediately reply
to a publisher that posted an interesting event.  This would require a
combination with a more traditional RPC kind of interaction or directly using
the underlying P2P library."

This module provides that combination.  The publisher opens a
:class:`ReplyEndpoint` (a unicast JXTA pipe dedicated to responses) and stamps
its coordinates onto outgoing events through the :class:`Replyable` mixin.
Any subscriber that finds an event interesting calls :func:`reply`, which
sends the response straight back to the publisher over the underlying pipe --
a point-to-point interaction layered beside (not through) the decoupled
publish/subscribe flow, exactly as the paper suggests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.exceptions import PSException
from repro.serialization.object_codec import ObjectCodec

if TYPE_CHECKING:
    from repro.jxta.ids import PeerID
    from repro.jxta.message import Message
    from repro.jxta.peer import Peer

# The JXTA substrate is imported where a pipe is opened or a reply sent, not
# here: ``repro.core`` exports ``reply`` eagerly, and the in-process bindings
# must not pay for the wire stack at import.

#: Message element names used on the reply pipe.
_REPLY_BODY = "TPSReplyBody"
_REPLY_SENDER = "TPSReplySender"
_REPLY_EVENT_ID = "TPSReplyEventId"


class Replyable:
    """Mixin for event types whose publisher accepts direct replies.

    The publisher's :class:`ReplyEndpoint` stamps ``reply_address`` before the
    event is published; subscribers pass the received event to :func:`reply`.
    The attribute is plain data (strings), so it serialises through any codec.
    """

    reply_address: Optional[Dict[str, str]] = None

    def accepts_replies(self) -> bool:
        """Whether a reply endpoint has been attached to this event."""
        return bool(getattr(self, "reply_address", None))


@dataclass
class Reply:
    """One response received by a publisher's reply endpoint."""

    responder: PeerID
    event_id: str
    body: Any
    received_at: float = 0.0


class ReplyEndpoint:
    """A publisher-side unicast pipe collecting replies to published events."""

    def __init__(self, peer: Peer, *, name: Optional[str] = None) -> None:
        from repro.jxta.advertisement import PipeAdvertisement
        from repro.jxta.ids import PipeID
        from repro.jxta.pipes import PipeKind

        self.peer = peer
        self.name = name or f"reply:{peer.name}"
        self._codec = ObjectCodec(strict=False)
        self.advertisement = PipeAdvertisement(
            pipe_id=PipeID(), name=self.name, pipe_kind=PipeKind.UNICAST.value
        )
        self.replies: List[Reply] = []
        self._input_pipe = peer.world_group.pipe_service.create_input_pipe(
            self.advertisement, self._on_message
        )

    # ------------------------------------------------------------- stamping

    def attach(self, event: Replyable) -> Replyable:
        """Stamp the reply coordinates onto an outgoing event and return it."""
        if not isinstance(event, Replyable):
            raise PSException(
                f"{type(event).__name__} does not mix in Replyable; "
                "only replyable events can carry a reply address"
            )
        event.reply_address = {
            "peer": self.peer.peer_id.to_urn(),
            "pipe": self.advertisement.pipe_id.to_urn(),
            "event_id": self.peer.next_id("r"),
        }
        return event

    # ------------------------------------------------------------- receiving

    def _on_message(self, message: Message, source: PeerID) -> None:
        from repro.jxta.ids import PeerID

        try:
            body = self._codec.decode(message.get_bytes(_REPLY_BODY))
            responder = PeerID.from_urn(message.get_text(_REPLY_SENDER))
        except Exception:
            self.peer.metrics.counter("reply_malformed").increment()
            return
        self.replies.append(
            Reply(
                responder=responder,
                event_id=message.get_text(_REPLY_EVENT_ID),
                body=body,
                received_at=self.peer.now,
            )
        )
        self.peer.metrics.counter("replies_received").increment()

    def replies_for(self, event: Replyable) -> List[Reply]:
        """The replies received so far for one specific published event."""
        if not event.accepts_replies():
            return []
        event_id = event.reply_address.get("event_id", "")
        return [reply for reply in self.replies if reply.event_id == event_id]

    def close(self) -> None:
        """Stop accepting replies."""
        self._input_pipe.close()


def reply(peer: Peer, event: Replyable, body: Any) -> bool:
    """Send ``body`` straight back to the publisher of ``event``.

    ``body`` may be any plain value (strings, numbers, lists, dicts...).
    Returns True when the response was handed to the network; raises
    :class:`PSException` when the event carries no reply address, or one
    whose ``peer`` or ``pipe`` is missing or not a URN of that kind.
    """
    from repro.jxta.errors import AdvertisementError
    from repro.jxta.ids import PeerID, PipeID
    from repro.jxta.message import Message

    if not isinstance(event, Replyable) or not event.accepts_replies():
        raise PSException("this event does not accept replies (no reply address attached)")
    address = event.reply_address
    try:
        # The address travelled inside a remote event: outside input.
        publisher = PeerID.from_urn(address["peer"])
        pipe_urn = PipeID.from_urn(address["pipe"]).to_urn()
    except (AdvertisementError, AttributeError, KeyError, TypeError) as exc:
        raise PSException(f"malformed reply address {address!r}") from exc
    message = Message()
    message.add(_REPLY_BODY, ObjectCodec(strict=False).encode(body))
    message.add(_REPLY_SENDER, peer.peer_id.to_urn())
    message.add(_REPLY_EVENT_ID, address.get("event_id", ""))
    sent = peer.endpoint.send(publisher, message, "jxta.service.pipedata", pipe_urn)
    if sent:
        peer.metrics.counter("replies_sent").increment()
    return sent


__all__ = ["Reply", "ReplyEndpoint", "Replyable", "reply"]
