"""Callback and exception-handler interfaces of the TPS API.

The paper's subscription methods take two objects (Section 4.3.3):

* one implementing ``TPSCallBackInterface<Type>`` -- its ``handle`` method is
  invoked for every received event of the subscribed type;
* one implementing ``TPSExceptionHandler<Type>`` -- its ``handle`` method is
  invoked with any exception raised while handling an event.

Python applications may either subclass the abstract classes below or simply
pass plain callables; :func:`as_callback` and :func:`as_exception_handler`
adapt both forms to a uniform interface.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Generic, List, Optional, TypeVar, Union

EventT = TypeVar("EventT")


class TPSCallBackInterface(abc.ABC, Generic[EventT]):
    """Handles events delivered to a subscription (``handle(SkiRental skiR)``)."""

    @abc.abstractmethod
    def handle(self, event: EventT) -> None:
        """Process one received event.

        Any exception raised here is caught by the TPS layer and routed to the
        subscription's exception handler.
        """


class TPSExceptionHandler(abc.ABC, Generic[EventT]):
    """Handles exceptions raised while dispatching events to a callback."""

    @abc.abstractmethod
    def handle(self, error: BaseException) -> None:
        """Process one exception raised by the paired callback."""


class FunctionCallback(TPSCallBackInterface[EventT]):
    """Adapts a plain callable to :class:`TPSCallBackInterface`.

    ``handle`` passes the callable's return value through.  Synchronous
    dispatch loops ignore it, but it is what lets a *coroutine function*
    subscribe through the ordinary adapter path: the ASYNC binding's
    delivery loop (:meth:`AsyncLocalBus.publish
    <repro.core.async_engine.AsyncLocalBus.publish>`) tests the value
    ``handle`` returned and awaits it only when it is awaitable, with no
    async-specific adapter class and no coroutine for a plain callable.
    """

    def __init__(self, function: Callable[[EventT], Any]) -> None:
        if not callable(function):
            raise TypeError(f"callback must be callable, got {function!r}")
        self._function = function

    def handle(self, event: EventT) -> Any:
        return self._function(event)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FunctionCallback({self._function!r})"


class FunctionExceptionHandler(TPSExceptionHandler[Any]):
    """Adapts a plain callable to :class:`TPSExceptionHandler`.

    Like :class:`FunctionCallback`, ``handle`` passes the return value
    through so coroutine error handlers work over the ASYNC binding.
    """

    def __init__(self, function: Callable[[BaseException], Any]) -> None:
        if not callable(function):
            raise TypeError(f"exception handler must be callable, got {function!r}")
        self._function = function

    def handle(self, error: BaseException) -> Any:
        return self._function(error)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FunctionExceptionHandler({self._function!r})"


class FilteringCallback(TPSCallBackInterface[EventT]):
    """Post-dispatch filtering: a callback that drops events failing a predicate.

    This is the pre-v2 idiom for per-subscription filtering -- the event is
    fully dispatched (history, try/except frame, this wrapper's ``handle``)
    before the predicate rejects it.  New code should push the predicate down
    with ``tps.subscription(cb).where(pred).start()`` instead, which skips
    rejected events in the dispatch rows themselves; this class remains as
    the explicit, named form of the post-dispatch pattern.
    """

    def __init__(
        self,
        predicate: Callable[[EventT], bool],
        callback: Callable[[EventT], None],
    ) -> None:
        if not callable(predicate) or not callable(callback):
            raise TypeError(
                f"FilteringCallback needs two callables, got {predicate!r}, {callback!r}"
            )
        self._predicate = predicate
        self._callback = callback

    def handle(self, event: EventT) -> None:
        if self._predicate(event):
            self._callback(event)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FilteringCallback({self._predicate!r}, {self._callback!r})"


class CollectingCallback(TPSCallBackInterface[EventT]):
    """A callback that simply accumulates events (handy in tests and examples)."""

    def __init__(self) -> None:
        self.events: List[EventT] = []

    def handle(self, event: EventT) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


class CollectingExceptionHandler(TPSExceptionHandler[Any]):
    """An exception handler that accumulates errors (handy in tests and examples)."""

    def __init__(self) -> None:
        self.errors: List[BaseException] = []

    def handle(self, error: BaseException) -> None:
        self.errors.append(error)

    def __len__(self) -> int:
        return len(self.errors)


class PrintingExceptionHandler(TPSExceptionHandler[Any]):
    """The paper's ``MyExHandler`` behaviour: print the error and carry on."""

    def handle(self, error: BaseException) -> None:
        print(f"[TPS] callback error: {type(error).__name__}: {error}")


#: What applications may pass as a callback.
CallbackLike = Union[TPSCallBackInterface[Any], Callable[[Any], None]]
#: What applications may pass as an exception handler.
ExceptionHandlerLike = Union[TPSExceptionHandler[Any], Callable[[BaseException], None]]


def as_callback(callback: CallbackLike) -> TPSCallBackInterface[Any]:
    """Adapt a callback-like object to :class:`TPSCallBackInterface`."""
    if isinstance(callback, TPSCallBackInterface):
        return callback
    if callable(callback):
        return FunctionCallback(callback)
    raise TypeError(f"not a usable callback: {callback!r}")


def as_exception_handler(
    handler: Optional[ExceptionHandlerLike],
) -> TPSExceptionHandler[Any]:
    """Adapt a handler-like object (or None, meaning collect silently)."""
    if handler is None:
        return CollectingExceptionHandler()
    if isinstance(handler, TPSExceptionHandler):
        return handler
    if callable(handler):
        return FunctionExceptionHandler(handler)
    raise TypeError(f"not a usable exception handler: {handler!r}")


__all__ = [
    "CallbackLike",
    "CollectingCallback",
    "CollectingExceptionHandler",
    "ExceptionHandlerLike",
    "FilteringCallback",
    "FunctionCallback",
    "FunctionExceptionHandler",
    "PrintingExceptionHandler",
    "TPSCallBackInterface",
    "TPSExceptionHandler",
    "as_callback",
    "as_exception_handler",
]
