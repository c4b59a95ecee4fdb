"""Subscription management: the "Interface Repository" block.

"This block stores all the call-back interfaces and exception handlers.  It
also starts and stops the subscriptions."  (paper, Section 3.4)

:class:`TPSSubscriberManager` is the interface repository.  The reader the
paper attaches to each wire input pipe "in order to receive the events" is
the engine's :meth:`~repro.core.jxta_engine.JxtaTPSEngine._on_wire_message`
itself, registered as the pipe's listener: it decodes, type-checks and
de-duplicates each raw wire message, then hands the event to
:meth:`TPSSubscriberManager.dispatch`.

Locking model: every mutation (``add``/``discard``/``remove``) serialises on
the manager's private lock and ends by swapping in a freshly built, immutable
``_handlers`` tuple.  Dispatch -- through :meth:`dispatch`, or inlined in
:meth:`repro.core.local_engine.LocalBus.publish` and in
:meth:`repro.core.async_engine.AsyncLocalBus.publish` -- reads that tuple
with *no* lock: a single attribute load observes either the old or the new
snapshot, never a half-built one, so concurrent publishers are never slowed
by subscription churn and a subscription mutated mid-dispatch takes effect
from the next event on (the same isolation the seed's per-dispatch copy
provided, now also thread-safe).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional, Tuple, TYPE_CHECKING

from repro.core.subscriptions import CircuitBreaker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.interface import Subscription


class TPSSubscriberManager:
    """Stores the (callback, exception handler) pairs of one TPS interface.

    Dispatch iterates an immutable snapshot that is rebuilt only when a
    subscription is added or removed, instead of copying the subscription
    list on every single event (subscriptions change rarely; events are the
    hot path).  The snapshot holds the *bound* ``handle`` methods of each
    callback/handler pair, resolved once at (un)subscribe time, so dispatch
    performs no attribute lookups per event.  A callback that mutates the
    subscriptions mid-dispatch sees the change from the *next* event on --
    the same isolation the seed's per-dispatch copy provided.

    Thread safety: mutations hold ``_lock``; dispatch reads the immutable
    ``_handlers`` tuple lock-free (see the module docstring).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subscriptions: List[Subscription] = []
        #: Active breaker policy; when set, every current and future
        #: subscription gets its own :class:`CircuitBreaker` built from it.
        self._breaker_policy: Optional[Tuple[int, float, Any, Any]] = None
        #: (callback.handle, exception_handler.handle, predicate, breaker)
        #: rows, in order.  The predicate slot carries each subscription's
        #: pushed-down event filter (None for unfiltered subscriptions), so
        #: dispatch can skip filtered-out events before the callback frame is
        #: ever opened; the breaker slot carries the subscription's
        #: crash-containment breaker (None when no policy is configured).
        self._handlers: Tuple[
            Tuple[Callable[[Any], Any], Callable[[Any], Any], Any, Any], ...
        ] = ()

    # ------------------------------------------------------------ mutation

    def _rebuild_handlers(self) -> None:
        """Swap in a fresh dispatch snapshot; caller must hold ``_lock``."""
        self._handlers = tuple(
            (
                subscription.callback.handle,
                subscription.exception_handler.handle,
                subscription.predicate,
                subscription.breaker,
            )
            for subscription in self._subscriptions
        )

    def set_breaker_policy(
        self,
        threshold: int,
        cooldown: float,
        *,
        clock: Optional[Callable[[], float]] = None,
        listener: Optional[Callable[[str, CircuitBreaker], None]] = None,
    ) -> None:
        """Attach a :class:`CircuitBreaker` to every current and future subscription.

        ``threshold`` consecutive callback failures quarantine that
        subscription for ``cooldown`` seconds of the supplied ``clock``
        (engines pass the virtual clock; the default is wall time).  A
        non-positive ``threshold`` clears the policy for *future*
        subscriptions (existing breakers keep operating).
        """
        with self._lock:
            if threshold <= 0:
                self._breaker_policy = None
                return
            self._breaker_policy = (threshold, cooldown, clock, listener)
            for subscription in self._subscriptions:
                if subscription.breaker is None:
                    subscription.breaker = self._make_breaker()
            self._rebuild_handlers()

    def _make_breaker(self) -> CircuitBreaker:
        """Build a breaker from the active policy; caller must hold ``_lock``."""
        threshold, cooldown, clock, listener = self._breaker_policy
        return CircuitBreaker(threshold, cooldown, clock=clock, listener=listener)

    def add(self, subscription: Subscription) -> None:
        """Register one subscription."""
        with self._lock:
            if self._breaker_policy is not None and subscription.breaker is None:
                subscription.breaker = self._make_breaker()
            self._subscriptions.append(subscription)
            self._rebuild_handlers()

    def discard(self, subscription: Subscription) -> int:
        """Remove one exact subscription object (identity, not matching).

        This is the handle-cancellation path: O(n) identity scan, no
        ``Subscription.matches`` calls.  Returns 0 or 1.
        """
        with self._lock:
            before = len(self._subscriptions)
            self._subscriptions = [
                existing for existing in self._subscriptions if existing is not subscription
            ]
            removed = before - len(self._subscriptions)
            if removed:
                self._rebuild_handlers()
            return removed

    def remove(self, callback: Optional[Any] = None, handler: Optional[Any] = None) -> int:
        """Remove matching subscriptions; with no arguments remove everything.

        Returns the number of subscriptions removed.
        """
        with self._lock:
            if callback is None:
                removed = len(self._subscriptions)
                self._subscriptions.clear()
                self._handlers = ()
                return removed
            keep: List[Subscription] = []
            removed = 0
            for subscription in self._subscriptions:
                if subscription.matches(callback, handler):
                    removed += 1
                else:
                    keep.append(subscription)
            self._subscriptions = keep
            self._rebuild_handlers()
            return removed

    # ------------------------------------------------------------- queries

    def subscriptions(self) -> List[Subscription]:
        """A snapshot of the registered subscriptions."""
        return list(self._subscriptions)

    def __len__(self) -> int:
        return len(self._subscriptions)

    @property
    def empty(self) -> bool:
        """Whether no subscription is registered."""
        return not self._subscriptions

    # ------------------------------------------------------------ dispatch

    def dispatch(self, event: Any) -> int:
        """Hand an event to every callback, routing errors to the paired handler.

        Returns the number of callbacks that processed the event without
        raising.
        """
        delivered = 0
        for handle, handle_error, predicate, breaker in self._handlers:
            # Predicate errors are routed to the paired handler like callback
            # errors: a broken pushed-down filter must not stop dispatch (and
            # counts against the breaker -- a persistently-raising predicate
            # burns every publish just like a raising callback).
            try:
                if predicate is not None and not predicate(event):
                    continue
                if breaker is not None and not breaker.allow():
                    continue
                handle(event)
                delivered += 1
                if breaker is not None:
                    breaker.record_success()
            except BaseException as error:  # noqa: BLE001 - routed to the handler
                if breaker is not None:
                    breaker.record_failure()
                try:
                    handle_error(error)
                except BaseException:  # noqa: BLE001  # repro-lint: disable=RL005 - a broken handler must not stop dispatch
                    pass
        return delivered

    def report(self, error: BaseException) -> None:
        """Hand ``error`` to every subscription's exception handler.

        The channel for failures that belong to no single callback (an
        undecodable wire message, a terminal delivery failure); a raising
        handler does not keep the remaining subscriptions from hearing it.
        """
        for _, handle_error, _, _ in self._handlers:
            try:
                handle_error(error)
            except BaseException:  # noqa: BLE001  # repro-lint: disable=RL005 - a broken handler must not stop routing
                pass


__all__ = ["TPSSubscriberManager"]
