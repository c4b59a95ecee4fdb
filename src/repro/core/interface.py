"""The TPSInterface: the seven methods of the paper's Figure 8.

.. code-block:: java

    public interface TPSInterface<Type> {
        public void publish(Type type) throws PSException;                 // (1)
        public void subscribe(TPSCallBackInterface<Type> tpsCBI,
                              TPSExceptionHandler<Type> tpsExH);           // (2)
        public void subscribe(TPSCallBackInterface<Type>[] tpsCBI,
                              TPSExceptionHandler<Type>[] tpsExH);         // (3)
        public void unsubscribe(TPSCallBackInterface<Type> tpsCBI,
                                TPSExceptionHandler<Type> tpsExH);         // (4)
        public void unsubscribe();                                         // (5)
        public Vector objectsReceived();                                   // (6)
        public Vector objectsSent();                                       // (7)
    }

The Python rendering keeps the same seven operations.  Methods (2) and (3)
collapse into one ``subscribe`` that accepts either a single callback or a
sequence of callbacks; methods (4) and (5) collapse into ``unsubscribe`` with
optional arguments.  CamelCase aliases (``objectsReceived``/``objectsSent``)
are provided for readers following the paper's listings.

On top of the paper's surface, the v2 API adds (without changing any of the
seven signatures above -- ``tests/test_api_surface.py`` pins them):

* ``subscribe`` returns a
  :class:`~repro.core.subscriptions.SubscriptionHandle` -- cancel exactly
  the subscriptions one call created, or scope them with ``with``;
* :meth:`TPSInterface.subscription` opens the fluent builder
  (``tps.subscription(cb).where(pred).on_error(h).start()``) whose
  predicates are pushed down into the binding's dispatch rows;
* :meth:`TPSInterface.stream` returns an
  :class:`~repro.core.subscriptions.EventStream` for pull-style
  consumption with explicit backpressure;
* :meth:`TPSInterfaceCore.set_breaker_policy` quarantines a subscription
  whose callback keeps raising -- the one circuit-breaker spelling, on
  every binding's own clock;
* :meth:`TPSInterface.close` (idempotent; every interface is a context
  manager) ends the interface's life: ``publish``/``subscribe`` afterwards
  raise :class:`PSException` uniformly across all bindings;
* :meth:`TPSInterface.publish_many` publishes a batch of events in one call
  (bindings may override it with a genuine batch path -- the local binding
  routes it through the sharded bus's parallel cross-shard fan-out; on a
  content-keyed :class:`~repro.core.sharded_engine.ShardedLocalBus` even a
  single hot hierarchy's batch spreads across shards, with per-key order
  preserved).

Locking model: lifecycle transitions (the close flag flip, open-stream
registration) serialise on a module-level lock -- they are rare, so sharing
one lock across interfaces costs nothing.  The lock is never held while
calling out into binding teardown, stream close or application code, so no
lock-ordering cycle can form; hot-path reads (``_tps_closed`` in
``_check_open`` and in the local bus delivery loop) are plain attribute
loads with no lock at all.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Generic, List, Optional, Sequence, TypeVar, Union

from repro.core.callbacks import (
    CallbackLike,
    ExceptionHandlerLike,
    TPSCallBackInterface,
    TPSExceptionHandler,
    as_callback,
    as_exception_handler,
)
from repro.core.exceptions import PSException
from repro.core.history import DEFAULT_HISTORY_SIZE, make_history_pair
from repro.core.subscriber import TPSSubscriberManager
from repro.core.subscriptions import (
    EventStream,
    StreamCore,
    SubscriptionBuilder,
    SubscriptionHandle,
)
from repro.core.type_registry import Criteria, TypeRegistry
from repro.net.entropy import monotonic_clock
from repro.serialization.object_codec import ObjectCodec

EventT = TypeVar("EventT")

#: Serialises interface lifecycle transitions (close flag, stream registry)
#: across *all* interfaces; see the module docstring's locking model.
_LIFECYCLE_LOCK = threading.Lock()


@dataclass
class Subscription:
    """One (callback, exception handler) pair registered with an interface."""

    callback: TPSCallBackInterface[Any]
    exception_handler: TPSExceptionHandler[Any]
    #: The objects originally passed by the application, kept so unsubscribe
    #: can match on them even when they were adapted from plain callables.
    original_callback: Any = None
    original_handler: Any = None
    #: Pushed-down event filter: when set, events it rejects are skipped in
    #: the dispatch rows themselves and never reach the callback.
    predicate: Optional[Callable[[Any], bool]] = None
    #: Crash-containment circuit breaker (see
    #: :class:`repro.core.subscriptions.CircuitBreaker`); attached by the
    #: manager when a breaker policy is configured, None otherwise.
    breaker: Optional[Any] = None

    def matches(self, callback: Any, handler: Any = None) -> bool:
        """Whether this subscription was registered with the given objects."""
        cb_match = callback in (self.callback, self.original_callback)
        if handler is None:
            return cb_match
        return cb_match and handler in (self.exception_handler, self.original_handler)


@dataclass
class PublishReceipt:
    """Returned by :meth:`TPSInterface.publish`.

    Captures the virtual CPU time the publish call charged to the publishing
    peer (the paper's Figure 18 "invocation time") and the per-pipe send
    receipts from the wire service.

    When the binding publishes over the reliable wire protocol, the wire
    receipts carry live :class:`~repro.jxta.wire.DeliveryTracker` objects
    (bindings without trackers, e.g. LOCAL, carry none).
    """

    cpu_time: float
    completion_time: float
    pipes: int
    wire_receipts: List[Any] = field(default_factory=list)

class TPSInterfaceCore(abc.ABC, Generic[EventT]):
    """The front-end-agnostic half of the TPS interface.

    Everything here is shared between the synchronous front-end
    (:class:`TPSInterface`, implemented by the LOCAL/SHARDED/JXTA bindings)
    and the asyncio front-end
    (:class:`~repro.core.async_engine.AsyncTPSEngine`): the subscription
    surface and its bookkeeping, the fluent builder entry (``.where()``
    push-down included -- the builder only ever talks to ``_subscribe_one``
    and ``_make_stream``), the open-stream registry, the idempotent close
    template (:meth:`_close_impl`) and the uniform post-close
    :class:`PSException`.  What a front-end adds is *how waiting and
    publishing are expressed*: the sync front-end blocks and returns
    receipts, the async one returns awaitables.

    The constructor builds the paper's per-interface blocks (Figure 10) --
    the type registry, the one Interface Repository
    (``self.subscriber_manager``, a
    :class:`~repro.core.subscriber.TPSSubscriberManager`) and the one
    ``objectsReceived``/``objectsSent`` history pair
    (``self._received``/``self._sent``) -- for every binding.  Concrete
    bindings implement :meth:`_check_affinity` when they are confined to a
    thread or loop, :meth:`_subscriptions_changed` when the substrate cares
    whether anybody is subscribed, and extend :meth:`_do_close` with their
    own teardown.
    """

    #: The stream flavour :meth:`_make_stream` builds, set by each front-end.
    _stream_type: "type[StreamCore]"

    #: The clock breaker cooldowns run on: wall time here, the virtual clock
    #: on the wire bindings, the owning loop's clock on ASYNC.
    _clock = staticmethod(monotonic_clock)

    def __init__(
        self,
        event_type: type,
        *,
        criteria: Optional[Criteria] = None,
        codec: Optional[ObjectCodec] = None,
        history: str = "ring",
        history_size: int = DEFAULT_HISTORY_SIZE,
        history_path: Optional[str] = None,
    ) -> None:
        #: Lifecycle flag.  An instance slot: the bus delivery loop reads it
        #: once per route row per publish.
        self._tps_closed = False
        self.registry = TypeRegistry(event_type, codec=codec)
        self.criteria = criteria
        self.subscriber_manager = TPSSubscriberManager()
        self._received, self._sent = make_history_pair(
            history, history_size, history_path, codec=self.registry.codec
        )
        self._open_streams: List[StreamCore] = []

    # ------------------------------------------------------------- lifecycle

    @property
    def closed(self) -> bool:
        """Whether ``close`` has run."""
        return self._tps_closed

    def _close_impl(self) -> None:
        """End this interface's life (idempotent, same across all bindings).

        Detaches from the underlying infrastructure, drops every
        subscription via the binding's :meth:`_do_close` and closes every
        open stream (waking their blocked consumers and producers).
        Afterwards ``publish`` and ``subscribe`` raise
        :class:`PSException`; ``unsubscribe`` and the history queries keep
        working.  Should teardown itself fail, the interface reverts to open
        so ``close()`` can be retried.

        Safe against concurrent callers: the flag flip is atomic (under the
        lifecycle lock), so exactly one thread runs the teardown; the losers
        return immediately.  A publish already past its ``_check_open`` may
        still be delivering while teardown runs -- it delivers against the
        pre-close snapshots, and the bus's closed-row skip keeps any *other*
        closing engine from receiving.  The teardown failure (and the revert
        to open it triggers) is visible only to the caller that ran the
        teardown: a concurrent loser has already returned believing the
        interface closed, so the winning caller owns the retry.

        Both front-ends route their public ``close`` here; it is sync on
        purpose -- even the async front-end's teardown (detach from a
        loop-owned bus, drop subscriptions, close streams) completes without
        suspending, so ``await tps.close()`` never leaves a half-closed
        interface across a scheduling point.
        """
        with _LIFECYCLE_LOCK:
            if self._tps_closed:
                return
            self._tps_closed = True
        try:
            self._do_close()
        except BaseException:
            with _LIFECYCLE_LOCK:
                self._tps_closed = False
            raise
        self._close_streams()

    def _do_close(self) -> None:
        """Teardown, run at most once from :meth:`_close_impl`: drop every
        subscription and settle the stores (flush/fsync a durable one;
        history queries keep answering afterwards).  Bindings extend this
        with their own detach, affinity check first."""
        self.subscriber_manager.remove()
        self._received.close()
        self._sent.close()

    # -- open-stream tracking: a stream whose subscription disappears under
    # it (interface close, blanket unsubscribe) must be closed too, or its
    # blocked consumers/producers would wait forever.

    def _register_stream(self, stream: StreamCore) -> None:
        with _LIFECYCLE_LOCK:
            if not self._tps_closed:
                self._open_streams.append(stream)
                return
        # The interface closed while the stream was being built (it passed
        # _check_open before the flag flipped, but registered after
        # _close_streams took its snapshot).  Nobody would ever auto-close
        # it, so close it here: consumers see the uniform closed-stream
        # error instead of blocking on a subscription that no longer exists.
        stream.close()

    def _unregister_stream(self, stream: StreamCore) -> None:
        with _LIFECYCLE_LOCK:
            if stream in self._open_streams:
                self._open_streams.remove(stream)

    def _close_streams(self) -> None:
        # Snapshot under the lock, close outside it: stream.close() calls
        # back into _unregister_stream, which takes the lock itself.
        with _LIFECYCLE_LOCK:
            streams = list(self._open_streams)
        for stream in streams:
            stream.close()

    def _isolated_copy(self, event: Any) -> Any:
        """Validate ``event`` and round-trip it through the codec, so the
        in-process and wire paths agree on what is serialisable and local
        subscribers never share an object with the publisher."""
        self.registry.check_publishable(event)
        return self.registry.decode(self.registry.encode(event))

    def _begin_publish(self, event: Any) -> Any:
        """Check that ``event`` may be published here; returns its copy."""
        self._check_open()
        self._check_affinity("publish")
        return self._isolated_copy(event)

    def _check_open(self) -> None:
        """Raise the uniform post-close error when the interface is closed."""
        if self._tps_closed:
            raise PSException(
                f"the TPS interface for {self.registry.interface_name} is "
                "closed; publish/subscribe are no longer available"
            )

    # ---------------------------------------------------------- subscribing
    #
    # The three mutation hooks are the narrowest shared funnel under
    # subscribe()/unsubscribe()/handle.cancel()/stream teardown, so the
    # affinity check lives in them: a call from the wrong thread or loop
    # fails before the subscriber manager mutates and leaves nothing
    # half-registered.  Each then calls :meth:`_subscriptions_changed`, the
    # one place a binding reacts to the change (the JXTA engine opens or
    # closes its wire readers there).

    def _check_affinity(self, operation: str) -> None:
        """Raise :class:`PSException` when ``operation`` may not run here.

        Callable from anywhere by default; the JXTA engine confines itself
        to its owning thread, the ASYNC engine to its owning loop.
        """

    def _subscriptions_changed(self) -> None:
        """Hook: the subscription set was just mutated (no-op by default)."""

    def _add_subscription(self, subscription: Subscription) -> None:
        """Register one subscription with ``self.subscriber_manager``."""
        self._check_affinity("subscribe")
        self.subscriber_manager.add(subscription)
        self._subscriptions_changed()

    def _remove_subscriptions(
        self, callback: Optional[Any] = None, handler: Optional[Any] = None
    ) -> int:
        """Remove matching subscriptions (all of them when ``callback`` is None)."""
        self._check_affinity("unsubscribe")
        removed = self.subscriber_manager.remove(callback, handler)
        self._subscriptions_changed()
        return removed

    def _discard_subscription(self, subscription: Subscription) -> int:
        """Remove one exact subscription object (handle cancellation)."""
        self._check_affinity("subscription cancel")
        removed = self.subscriber_manager.discard(subscription)
        self._subscriptions_changed()
        return removed

    def subscribe(
        self,
        callback: Union[CallbackLike, Sequence[CallbackLike]],
        exception_handler: Union[
            ExceptionHandlerLike, Sequence[ExceptionHandlerLike], None
        ] = None,
    ) -> SubscriptionHandle:
        """(2)/(3) Subscribe one callback -- or several at once -- to the type.

        The list form mirrors the paper's second ``subscribe`` overload, used
        "to register several call-back objects to handle the events in
        different ways" (e.g. a console view and a GUI view of the same
        events).  When a list of callbacks is given, ``exception_handler``
        may be a matching list, a single handler shared by all callbacks, or
        None.

        Returns a :class:`SubscriptionHandle` covering every subscription
        this call created (the paper's ``void`` return stays compatible:
        callers that ignore it lose nothing).
        """
        if isinstance(callback, (list, tuple)):
            callbacks = list(callback)
            if isinstance(exception_handler, (list, tuple)):
                handlers = list(exception_handler)
                if len(handlers) != len(callbacks):
                    raise PSException(
                        "subscribe: the callback and exception-handler lists must have "
                        f"the same length ({len(callbacks)} != {len(handlers)})"
                    )
            else:
                handlers = [exception_handler] * len(callbacks)
            if not callbacks:
                raise PSException("subscribe: empty callback list")
            subscriptions = [self._subscribe_one(cb, eh) for cb, eh in zip(callbacks, handlers)]
        else:
            subscriptions = [self._subscribe_one(callback, exception_handler)]  # type: ignore[arg-type]
        return SubscriptionHandle(self, subscriptions)

    def _subscribe_one(
        self,
        callback: CallbackLike,
        exception_handler: Optional[ExceptionHandlerLike],
        predicate: Optional[Callable[[Any], bool]] = None,
    ) -> Subscription:
        self._check_open()
        subscription = Subscription(
            callback=as_callback(callback),
            exception_handler=as_exception_handler(exception_handler),
            original_callback=callback,
            original_handler=exception_handler,
            predicate=predicate,
        )
        self._add_subscription(subscription)
        return subscription

    def set_breaker_policy(self, threshold: int, cooldown: float) -> None:
        """Give every current and future subscription a circuit breaker.

        ``threshold`` consecutive failures of a callback (or of its pushed-down
        predicate) quarantine that subscription for ``cooldown`` seconds of
        this binding's clock; then one probe event decides between closing
        the breaker and another quarantine (see
        :class:`~repro.core.subscriptions.CircuitBreaker`).  A non-positive
        ``threshold`` stops arming future subscriptions.
        """
        self.subscriber_manager.set_breaker_policy(
            threshold, cooldown, clock=self._clock, listener=self._on_breaker_transition
        )

    def _on_breaker_transition(self, state: str, breaker: Any) -> None:
        """Hook: a subscription's breaker entered ``state`` (no-op by default)."""

    def subscription(self, callback: Optional[CallbackLike] = None) -> SubscriptionBuilder:
        """Open the fluent subscription builder (v2).

        ``tps.subscription(cb).where(pred).on_error(h).start()`` registers a
        filtered subscription whose predicate is pushed down into the
        binding's dispatch rows; ``.stream(...)`` instead of ``.start()``
        consumes it pull-style.
        """
        self._check_open()
        return SubscriptionBuilder(self, callback)

    def stream(
        self,
        maxsize: int = 0,
        policy: str = "block",
        from_offset: Optional[int] = None,
    ) -> StreamCore:
        """Consume this interface's events pull-style (v2).

        Returns the front-end's stream flavour (a context manager): the
        threaded :class:`EventStream` for sync bindings, an
        :class:`~repro.core.async_engine.AsyncEventStream` (supporting
        ``async for``) over the ASYNC binding -- same ``maxsize``/``policy``
        contract either way.  A positive ``maxsize`` bounds the buffer;
        ``policy`` picks what happens when it is full (``"block"`` the
        publisher, or ``"drop_oldest"``).

        ``from_offset`` makes the stream *resumable*: it first replays the
        retained received history at or after that offset, then follows
        live events, each history offset delivered exactly once and in
        order (the stream pulls from the engine's history store instead of
        buffering pushed events, so replay and live delivery cannot race
        into duplicates).  Offsets a bounded ring store already evicted are
        skipped; ``from_offset=tps.history_offset`` means "from now on" and
        still yields a resumable stream (see ``EventStream.resume``).
        """
        self._check_open()
        return self._make_stream(maxsize, policy, from_offset=from_offset)

    def _make_stream(
        self,
        maxsize: int,
        policy: str,
        predicate: Optional[Callable[[Any], bool]] = None,
        exception_handler: Optional[Any] = None,
        from_offset: Optional[int] = None,
    ) -> StreamCore:
        """Build this front-end's stream flavour, ``_stream_type`` (for
        :meth:`stream` and :meth:`SubscriptionBuilder.stream
        <repro.core.subscriptions.SubscriptionBuilder.stream>`)."""
        return self._stream_type(
            self,
            maxsize=maxsize,
            policy=policy,
            predicate=predicate,
            exception_handler=exception_handler,
            source=self._received if from_offset is not None else None,
            from_offset=from_offset,
        )

    def unsubscribe(
        self,
        callback: Optional[CallbackLike] = None,
        exception_handler: Optional[ExceptionHandlerLike] = None,
    ) -> int:
        """(4)/(5) Remove one subscription, or every subscription.

        With a ``callback`` (and optionally its handler) only the matching
        subscription is removed; with no arguments all call-back objects are
        removed and "no event is received anymore" -- which includes closing
        every open :class:`EventStream`, so their blocked consumers wake up
        instead of waiting on a subscription that no longer exists.  Returns
        the number of subscriptions removed.
        """
        removed = self._remove_subscriptions(callback, exception_handler)
        if callback is None:
            self._close_streams()
        return removed

    # --------------------------------------------------------------- history
    #
    # The queries below answer from the (received, sent) pair of
    # :class:`~repro.core.history.HistoryStore` objects the constructor
    # built, the same way on all five bindings.

    def objects_received(self) -> List[EventT]:
        """(6) The retained events delivered to this interface, in order.

        Retention contract: the backing store bounds what "so far" means.
        With the default ``history="ring"`` store only the newest
        ``history_size`` events per direction are retained (older ones are
        evicted, first-in first-out) so a long-running engine's memory stays
        constant; with ``history="log"`` the full history is retained on
        disk and this call materialises all of it.  Use
        ``stream(from_offset=...)`` to consume the history incrementally
        instead of re-reading the whole Vector.
        """
        return self._received.snapshot()

    def objects_sent(self) -> List[EventT]:
        """(7) The retained events published through this interface, in order.

        Same retention contract as :meth:`objects_received`: bounded to the
        newest ``history_size`` events under the default ring store,
        complete (and durable) under ``history="log"``.
        """
        return self._sent.snapshot()

    @property
    def history_offset(self) -> int:
        """The offset the next delivered event will get (monotonic per engine).

        ``stream(from_offset=tps.history_offset)`` therefore means "from
        now on"; any smaller offset replays retained history first.
        """
        return self._received.next_offset

    @property
    def sent_offset(self) -> int:
        """The offset the next published event will get in the sent history."""
        return self._sent.next_offset

    # Aliases matching the paper's method names.
    def objectsReceived(self) -> List[EventT]:  # noqa: N802 - paper-compatible alias
        """Alias of :meth:`objects_received` matching the paper's Figure 8."""
        return self.objects_received()

    def objectsSent(self) -> List[EventT]:  # noqa: N802 - paper-compatible alias
        """Alias of :meth:`objects_sent` matching the paper's Figure 8."""
        return self.objects_sent()


class TPSInterface(TPSInterfaceCore[EventT]):
    """The synchronous TPS interface; concrete bindings implement the transport.

    The shared subscription/builder/lifecycle machinery lives in
    :class:`TPSInterfaceCore`; this class binds it to the blocking
    front-end: ``publish`` returns a :class:`PublishReceipt`, ``close``
    returns when teardown is done, streams are the condition-variable
    :class:`EventStream`, and ``with tps:`` scopes the interface.  (The
    asyncio front-end, :class:`~repro.core.async_engine.AsyncTPSEngine`,
    binds the same core to awaitables instead.)
    """

    _stream_type = EventStream

    def close(self) -> None:
        """End this interface's life (idempotent; see :meth:`_close_impl`)."""
        self._close_impl()

    def __enter__(self) -> "TPSInterface[EventT]":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------ publishing

    @abc.abstractmethod
    def publish(self, event: EventT) -> PublishReceipt:
        """(1) Publish an instance of the interface's type to all subscribers.

        Raises :class:`PSException` (or a subclass) when the object is not an
        instance of the type or the interface is not initialised yet.
        """

    def publish_many(self, events: "Sequence[EventT]") -> List[PublishReceipt]:
        """Publish a batch of events; returns one receipt per event (v2).

        The default simply loops :meth:`publish`, preserving order and
        per-event error semantics; bindings with a real batch path override
        it (the local binding hands the whole batch to the bus, and over a
        :class:`~repro.core.sharded_engine.ShardedLocalBus` batches from
        independent hierarchies -- or, content-keyed, from independent keys
        of one hierarchy -- run concurrently on the shard executor).
        """
        self._check_open()
        return [self.publish(event) for event in events]


__all__ = [
    "EventStream",
    "PublishReceipt",
    "StreamCore",
    "Subscription",
    "SubscriptionBuilder",
    "SubscriptionHandle",
    "TPSInterface",
    "TPSInterfaceCore",
]
