"""Exceptions of the TPS layer.

The paper's API methods "could throw a publish/subscribe exception
(PSException)" and typed callbacks may throw a ``CallBackException`` which is
routed to the subscription's exception handler rather than propagated to the
middleware.
"""

from __future__ import annotations


class PSException(RuntimeError):
    """Raised by the publish/subscribe operations of the TPS API.

    Typical causes: publishing an object that is not an instance of the
    interface's event type, using an interface before its initialisation
    phase completed, or subscribing with a malformed callback.
    """


class CallBackException(RuntimeError):
    """May be raised by application callbacks while handling an event.

    The TPS layer catches it (and any other exception raised by a callback)
    and hands it to the :class:`~repro.core.callbacks.TPSExceptionHandler`
    registered with the subscription, so one misbehaving subscriber cannot
    break event dispatch for the others.
    """


class NotInitializedError(PSException):
    """Raised when publishing before the initialisation phase completed.

    The TPS initialisation phase (searching for -- or creating -- the type's
    advertisement and looking up the wire service) happens asynchronously in
    virtual time; run the simulation (``network.settle()``) before publishing.
    """


class TypeMismatchError(PSException):
    """Raised when an object of the wrong type is published on a typed interface."""


class DeliveryFailedError(PSException):
    """A reliable publish terminally failed for at least one target.

    Raised *asynchronously*: the wire layer retries with backoff and only
    gives up after ``repro.jxta.wire.MAX_ATTEMPTS``, so the failure is routed
    to the engine's ``delivery_failure_handler`` (or, absent one, to every
    subscription's exception handler) instead of the original ``publish()``
    call, which returned long ago in virtual time.  Carries the wire-level
    :class:`~repro.jxta.wire.DeliveryFailure` describing the message, target
    and attempt count.
    """

    def __init__(self, failure) -> None:
        super().__init__(
            f"delivery of {failure.wire_message_id} to {failure.target_urn} "
            f"failed after {failure.attempts} attempts"
        )
        self.failure = failure


__all__ = [
    "CallBackException",
    "DeliveryFailedError",
    "NotInitializedError",
    "PSException",
    "TypeMismatchError",
]
