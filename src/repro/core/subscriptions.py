"""v2 subscription ergonomics: handles, the fluent builder, event streams.

The paper's Figure 8 ``subscribe`` returns ``void``: cancelling requires the
application to re-present the very callback/handler objects it registered.
The v2 API keeps that surface working (and byte-for-byte pinned by
``tests/test_api_surface.py``) while layering three consumption styles on
top of any :class:`~repro.core.interface.TPSInterface` binding:

* :class:`SubscriptionHandle` -- returned by ``subscribe()`` and
  ``builder.start()``; ``cancel()`` removes exactly the subscriptions the
  call created (object identity, not callback matching) and the handle is a
  context manager for scoped subscriptions.
* :class:`SubscriptionBuilder` -- the fluent form
  ``tps.subscription(cb).where(pred).on_error(h).start()``.  Every
  ``where`` predicate is ANDed and *pushed down* into the binding's
  dispatch rows (:class:`~repro.core.subscriber.TPSSubscriberManager`
  handler snapshots, and through them the
  :class:`~repro.core.local_engine.LocalBus` delivery loop), so events a
  subscription filters out never reach its callback dispatch -- no wrapper
  callable, no swallowed exception frame.
* :class:`CircuitBreaker` -- subscriber crash containment: a callback that
  raises ``threshold`` consecutive times is quarantined (``closed`` ->
  ``open``), skipped for a ``cooldown`` period, then given one probational
  event (``half_open``) that either resets it or re-opens the quarantine.
  Attached per subscription once the application calls
  ``tps.set_breaker_policy(threshold, cooldown)``, the one spelling on every
  binding; cooldowns run on the binding's own clock (wall time on LOCAL and
  SHARDED, virtual time on the wire bindings, loop time on ASYNC).  Every
  dispatch path -- the manager's, the
  :class:`~repro.core.local_engine.LocalBus` inline loop and the ASYNC
  awaiting row -- honours it.
* :class:`EventStream` -- pull-style consumption:
  ``tps.stream(maxsize=..., policy=...)`` subscribes an internal enqueue
  callback and hands the application an iterator/queue hybrid with explicit
  backpressure: policy ``"block"`` makes the *publisher* wait for a slow
  consumer (threaded pipelines), ``"drop_oldest"`` bounds memory by
  discarding the stalest events (monitoring dashboards); ``dropped`` counts
  the discards.

Locking model: a handle's ``cancel()`` flips its ``_active`` flag under the
handle's own lock (exactly-once semantics under concurrent cancellation)
and runs the discards outside it.  Streams are one core and two waiting
adapters: :class:`StreamCore` makes every decision -- the next history entry
past the cursor, whether a pulled entry went stale under a ``resume``, what
``drop_oldest`` evicts, what ``get``/``drain`` return, when the re-entrant
publisher-is-the-only-consumer ``"block"`` wait is refused with a
:class:`PSException` routed to the subscription's error handler -- under
its one ``_lock``.  A flavour only says how to wait: condition variables
for :class:`EventStream`, loop futures for
:class:`~repro.core.async_engine.AsyncEventStream`.  Close flips
``_closed`` and wakes all waiters *before* cancelling the subscription.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterator, List, Optional, Tuple

from repro.core.callbacks import as_exception_handler
from repro.core.exceptions import PSException
from repro.net.entropy import monotonic_clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.interface import Subscription, TPSInterface


#: Circuit-breaker states (see :class:`CircuitBreaker`).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Crash containment for one subscription's callback.

    A callback that raises on every event does not just lose its own events:
    in a fan-out dispatch it burns CPU (and error-handler churn) on every
    single publish.  The breaker quarantines such a callback the way a
    service-mesh breaker quarantines a failing endpoint:

    * ``closed`` (normal): events flow; ``threshold`` *consecutive* failures
      trip the breaker;
    * ``open`` (quarantined): events are skipped -- counted in ``skipped`` --
      until ``cooldown`` seconds pass on the supplied clock;
    * ``half_open`` (probation): after the cool-down, events are let through
      again; the first success resets to ``closed``, the first failure
      re-opens for another cool-down.

    The clock is injectable so engines bind it to the simulated network's
    virtual clock while plain LOCAL deployments default to
    ``time.monotonic``.  Trip/reset transitions are observable through the
    optional ``listener`` (called with ``(state, breaker)`` *outside* the
    breaker's lock) and the ``events`` log of ``(state, timestamp)`` pairs
    (bounded: the newest :attr:`EVENT_LOG_SIZE` transitions).
    """

    #: Transitions the ``events`` log retains.
    EVENT_LOG_SIZE = 64

    __slots__ = (
        "threshold",
        "cooldown",
        "state",
        "failures",
        "trips",
        "resets",
        "skipped",
        "events",
        "_open_until",
        "_clock",
        "_listener",
        "_lock",
    )

    def __init__(
        self,
        threshold: int,
        cooldown: float,
        *,
        clock: Optional[Callable[[], float]] = None,
        listener: Optional[Callable[[str, "CircuitBreaker"], None]] = None,
    ) -> None:
        if threshold < 1:
            raise PSException(f"breaker threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise PSException(f"breaker cooldown must be >= 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = BREAKER_CLOSED
        self.failures = 0
        self.trips = 0
        self.resets = 0
        self.skipped = 0
        #: (state, clock timestamp) transition log, oldest first; the newest
        #: :attr:`EVENT_LOG_SIZE` entries, so a flapping callback cannot grow it.
        self.events: deque[Tuple[str, float]] = deque(maxlen=self.EVENT_LOG_SIZE)
        self._open_until = 0.0
        self._clock = clock if clock is not None else monotonic_clock
        self._listener = listener
        self._lock = threading.Lock()

    def _transition(self, state: str) -> Tuple[str, "CircuitBreaker"]:
        """Record a state change; caller holds the lock, returns the event."""
        self.state = state
        self.events.append((state, self._clock()))
        return (state, self)

    def _notify(self, event: Optional[Tuple[str, "CircuitBreaker"]]) -> None:
        if event is not None and self._listener is not None:
            try:
                self._listener(*event)
            except Exception:  # noqa: BLE001  # repro-lint: disable=RL005 - observers must not break dispatch
                pass

    def allow(self) -> bool:
        """Whether the next event may reach the callback (may move to half-open)."""
        event = None
        with self._lock:
            if self.state == BREAKER_CLOSED:
                return True
            if self.state == BREAKER_OPEN:
                if self._clock() < self._open_until:
                    self.skipped += 1
                    return False
                event = self._transition(BREAKER_HALF_OPEN)
        self._notify(event)
        return True

    def record_success(self) -> None:
        """Note a clean callback invocation (resets failures, closes from probation)."""
        event = None
        with self._lock:
            self.failures = 0
            if self.state != BREAKER_CLOSED:
                self.resets += 1
                event = self._transition(BREAKER_CLOSED)
        self._notify(event)

    def record_failure(self) -> None:
        """Note a raising callback invocation (may trip the breaker open)."""
        event = None
        with self._lock:
            self.failures += 1
            should_trip = self.state == BREAKER_HALF_OPEN or (
                self.state == BREAKER_CLOSED and self.failures >= self.threshold
            )
            if should_trip:
                self.trips += 1
                self._open_until = self._clock() + self.cooldown
                event = self._transition(BREAKER_OPEN)
        self._notify(event)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CircuitBreaker({self.state}, failures={self.failures}, "
            f"trips={self.trips}, skipped={self.skipped})"
        )


def combine_predicates(
    predicates: "Tuple[Callable[[Any], bool], ...]",
) -> Optional[Callable[[Any], bool]]:
    """AND-combine event predicates; None when there is nothing to check.

    A single predicate is returned as-is so the pushed-down row pays exactly
    one call per event in the common case.
    """
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]

    def combined(event: Any) -> bool:
        for predicate in predicates:
            if not predicate(event):
                return False
        return True

    return combined


class SubscriptionHandle:
    """The result of a ``subscribe()`` call: cancellable, scoped, inspectable.

    Holds the exact :class:`~repro.core.interface.Subscription` objects the
    call created.  ``cancel()`` removes those objects (and only those) from
    the binding, so two subscriptions sharing one callback no longer have to
    be torn down together.  Using the handle as a context manager cancels on
    exit; cancelling twice is a no-op -- including from two racing threads:
    the ``_active`` flip is atomic (under the handle's lock), so exactly one
    caller runs the discards and every other caller gets 0.
    """

    __slots__ = ("_interface", "_subscriptions", "_active", "_lock")

    def __init__(
        self, interface: "TPSInterface[Any]", subscriptions: List["Subscription"]
    ) -> None:
        self._interface = interface
        self._subscriptions = tuple(subscriptions)
        self._active = True
        self._lock = threading.Lock()

    @property
    def interface(self) -> "TPSInterface[Any]":
        """The interface the subscriptions are registered with."""
        return self._interface

    @property
    def subscriptions(self) -> Tuple["Subscription", ...]:
        """The subscription objects this handle controls."""
        return self._subscriptions

    @property
    def active(self) -> bool:
        """False once :meth:`cancel` has run (regardless of what it removed)."""
        return self._active

    def cancel(self) -> int:
        """Remove this handle's subscriptions; returns how many were removed.

        Subscriptions already gone (e.g. after a blanket ``unsubscribe()`` or
        ``close()``) simply do not count, so cancel is always safe to call.
        """
        # Atomic check-then-flip: without the lock two threads could both
        # pass the guard and each run the discards.  The discards themselves
        # run outside the lock (they take the binding's own locks).
        with self._lock:
            if not self._active:
                return 0
            self._active = False
        return sum(
            self._interface._discard_subscription(subscription)
            for subscription in self._subscriptions
        )

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __enter__(self) -> "SubscriptionHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self._active else "cancelled"
        return f"SubscriptionHandle({len(self._subscriptions)} subscription(s), {state})"


class SubscriptionBuilder:
    """Fluent construction of one filtered subscription.

    ``tps.subscription(cb).where(pred).on_error(handler).start()`` -- or
    ``.stream(...)`` instead of ``.start()`` for pull-style consumption.
    Builders are single-use: ``start``/``stream`` consume the builder.
    """

    def __init__(
        self,
        interface: "TPSInterface[Any]",
        callback: Optional[Any] = None,
    ) -> None:
        self._interface = interface
        self._callback = callback
        self._handler: Optional[Any] = None
        self._predicates: Tuple[Callable[[Any], bool], ...] = ()
        self._started = False

    def callback(self, callback: Any) -> "SubscriptionBuilder":
        """Set (or replace) the callback the subscription dispatches to."""
        self._callback = callback
        return self

    def where(self, predicate: Callable[[Any], bool]) -> "SubscriptionBuilder":
        """Add an event predicate; several ``where`` calls are ANDed.

        The combined predicate is pushed down into the binding's dispatch
        rows: events it rejects never reach the callback (and never pay the
        dispatch try/except), unlike filtering inside the callback itself.
        """
        if not callable(predicate):
            raise PSException(f"where() needs a callable predicate, got {predicate!r}")
        self._predicates = self._predicates + (predicate,)
        return self

    def on_error(self, handler: Any) -> "SubscriptionBuilder":
        """Set the exception handler paired with the callback."""
        self._handler = handler
        return self

    def _consume(self) -> None:
        if self._started:
            raise PSException("this subscription builder was already started")
        self._started = True

    def start(self) -> SubscriptionHandle:
        """Register the subscription; returns its :class:`SubscriptionHandle`."""
        self._consume()
        if self._callback is None:
            raise PSException(
                "subscription builder has no callback: pass one to subscription() "
                "or call .callback(cb) before .start()"
            )
        subscription = self._interface._subscribe_one(
            self._callback, self._handler, predicate=combine_predicates(self._predicates)
        )
        return SubscriptionHandle(self._interface, [subscription])

    def stream(
        self,
        maxsize: int = 0,
        policy: str = "block",
        from_offset: Optional[int] = None,
    ) -> "StreamCore":
        """Consume the (filtered) subscription as an event stream.

        The builder must have no callback -- a stream *is* the consumer.
        The stream flavour is the interface's ``_stream_type``:
        sync front-ends return the threaded :class:`EventStream`, the ASYNC
        binding an :class:`~repro.core.async_engine.AsyncEventStream` -- the
        builder itself (predicate push-down, error routing) is shared.
        ``from_offset`` resumes from the interface's received history (see
        :meth:`TPSInterfaceCore.stream
        <repro.core.interface.TPSInterfaceCore.stream>`); the ``where``
        predicates then filter at replay time instead of being pushed down.
        """
        self._consume()
        if self._callback is not None:
            raise PSException(
                "a stream is the subscription's consumer; build it without a callback"
            )
        return self._interface._make_stream(
            maxsize,
            policy,
            predicate=combine_predicates(self._predicates),
            exception_handler=self._handler,
            from_offset=from_offset,
        )


#: Backpressure policies accepted by every stream flavour.
STREAM_POLICIES = ("block", "drop_oldest")


class StreamCore:
    """Pull-style event consumption: every decision, for both flavours.

    Owns the ``maxsize``/``policy`` contract and its validation, the
    arrival-order buffer and :attr:`dropped` counter, the cursor of a
    resumable stream and its generation, the internal subscription
    (predicate pushed down, errors routed to the paired handler, exactly
    like any application subscription) and the close template.  Every
    decision is a plain method here, guarded by the one ``_lock`` (the
    ``*_locked`` ones expect the flavour to hold it): :meth:`_pulled` (the
    next entries a cursor-mode stream delivers), :meth:`_room_locked`
    (buffer an event, drop a stale one, or make the producer wait),
    :meth:`_take_locked` (what ``get`` returns or raises), :meth:`_rewind`
    (the synchronous half of ``resume``), ``drain``, ``pending``,
    ``dropped`` and ``_shutdown``.

    A flavour only says *how to wait*: the threaded :class:`EventStream`
    blocks on condition variables, the asyncio
    :class:`~repro.core.async_engine.AsyncEventStream` suspends on loop
    futures.  It supplies ``_init_waiters`` (the ``_not_empty`` /
    ``_not_full`` waiter sets and the ``_pump_mutex``, created before the
    subscription can deliver; the core wakes a waiter set through the
    ``notify()``/``notify_all()`` a :class:`threading.Condition` has),
    ``_ident`` (who is calling: a thread ident or the current task's id),
    and the waiting loops themselves: ``_enqueue``, ``_pump``, ``get`` and
    ``resume``.
    """

    #: Identity of the caller, for the re-entrant ``"block"`` refusal.
    _ident: Callable[[], int]

    def __init__(
        self,
        interface: "TPSInterface[Any]",
        *,
        maxsize: int = 0,
        policy: str = "block",
        predicate: Optional[Callable[[Any], bool]] = None,
        exception_handler: Optional[Any] = None,
        source: Optional[Any] = None,
        from_offset: Optional[int] = None,
    ) -> None:
        if policy not in STREAM_POLICIES:
            raise PSException(
                f"unknown stream policy {policy!r}; expected one of {STREAM_POLICIES}"
            )
        if maxsize < 0:
            raise PSException(f"stream maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self.policy = policy
        self._buffer: "deque[Any]" = deque()
        self._closed = False
        self._dropped = 0
        self._lock = threading.Lock()
        #: Idents of every caller that has consumed (get/drain), used to
        #: refuse a ``"block"`` wait that can never be woken (_room_locked).
        self._consumers: "set[int]" = set()
        # Cursor mode (``from_offset``): the stream pulls entries from the
        # interface's history store instead of buffering pushed events.  The
        # live subscription below degrades to a pure wake signal -- every
        # wake follows the event's history append, so pulling ``since``
        # delivers each offset exactly once and in order no matter how
        # replay and live publishes interleave.  The predicate then cannot
        # be pushed down (a filtered-out event must still wake the pull);
        # it filters at replay time instead.
        self._source = source
        self._cursor = max(0, from_offset or 0)
        #: Bumped by every ``resume``: an entry pulled under an older
        #: generation is stale and must neither move the cursor nor enqueue
        #: (``resume`` cannot take the pump mutex -- a pump blocked on a full
        #: ``"block"`` buffer holds it).
        self._generation = 0
        self._pull_predicate = predicate if source is not None else None
        self._handler = as_exception_handler(exception_handler)
        self._interface = interface
        self._init_waiters()
        subscription = interface._subscribe_one(
            self._on_event,
            self._handler,
            predicate=None if source is not None else predicate,
        )
        self._handle = SubscriptionHandle(interface, [subscription])
        interface._register_stream(self)
        if source is not None:
            self._replay()

    # ---------------------------------------------------------- producer

    def _on_event(self, event: Any) -> Any:
        """The internal subscription's callback.  In cursor mode the pushed
        event is only a wake signal: pull what history holds past the
        cursor.  The async flavour returns an awaitable when its row must
        wait (a cursor pull, or a full ``"block"`` buffer)."""
        if self._source is not None:
            return self._pump()
        return self._enqueue(event, self._generation)

    def _replay(self) -> None:
        """Pull the backlog of a cursor-mode stream at construction."""
        self._pump()

    def _pulled(self) -> Iterator[Tuple[Any, int]]:
        """Yield ``(event, generation)`` for each history entry past the
        cursor that passes the pull predicate, until the batch is done, the
        stream closes or a ``resume`` makes the batch stale.

        One ``since`` read per pull misses nothing: every append is
        followed by its own wake, and the flavour's ``_pump_mutex`` runs
        the pulls one at a time.  The cursor advances before the predicate
        runs, so every entry is consumed exactly once.  A raising predicate
        does not end the pull: its error goes to the stream's paired
        exception handler -- on replay and ``resume`` exactly as on a live
        wake -- and the pull continues.
        """
        lock, predicate = self._lock, self._pull_predicate
        with lock:
            if self._closed:
                return
            generation = self._generation
            entries = self._source.since(self._cursor)
        for offset, event, _ in entries:
            with lock:
                if self._closed or self._generation != generation:
                    return
                self._cursor = offset + 1
            if predicate is not None:
                try:
                    if not predicate(event):
                        continue
                except Exception as error:  # noqa: BLE001 - routed to the paired handler
                    self._route_error(error)
                    continue
            yield event, generation

    def _route_error(self, error: Exception) -> Any:
        """Hand a predicate error met while pulling to the paired handler."""
        return self._handler.handle(error)

    def _room_locked(self, event: Any, generation: int) -> bool:
        """Buffer ``event`` under the ``maxsize``/``policy`` contract, or
        drop it when the stream closed or a ``resume`` made it stale.

        Returns False when a ``"block"`` buffer is full: the caller waits on
        ``_not_full`` and calls again.  Caller holds ``_lock``.
        """
        if self._closed or generation != self._generation:
            return True
        if self.maxsize and len(self._buffer) >= self.maxsize:
            if self.policy == "block":
                if self._consumers == {self._ident()}:
                    # The publisher is this stream's only consumer so far:
                    # waiting on _not_full could never be woken -- the one
                    # who would drain the buffer is the one about to wait.
                    # Raise instead of deadlocking; like any callback error,
                    # it is routed to the subscription's exception handler.
                    # A deliberate *heuristic* on observed consumers: a
                    # stream nobody has consumed yet still blocks (a
                    # consumer may be about to start), and a past consumer
                    # publishing while a brand-new consumer has not reached
                    # its first get() raises spuriously -- the undecidable
                    # trade-off is resolved toward the re-entrant case that
                    # is a deadlock for certain.
                    raise PSException(
                        f"{type(self).__name__} deadlock: the publisher is "
                        "this stream's only consumer and the buffer is full; "
                        "drain the stream first, consume from another thread "
                        "or task, or choose policy='drop_oldest'"
                    )
                return False
            self._buffer.popleft()
            self._dropped += 1
        self._buffer.append(event)
        self._not_empty.notify()
        return True

    # ---------------------------------------------------------- consumer

    def _take_locked(self, timeout: Optional[float]) -> Any:
        """What ``get`` returns or raises once its wait ended (holds ``_lock``)."""
        if self._buffer:
            event = self._buffer.popleft()
            self._not_full.notify()
            return event
        if self._closed:
            raise PSException("the event stream is closed and empty")
        raise PSException(f"no event arrived within {timeout} seconds")

    def drain(self) -> List[Any]:
        """Remove and return everything currently buffered (never waits)."""
        with self._lock:
            self._consumers.add(self._ident())
            events = list(self._buffer)
            self._buffer.clear()
            self._not_full.notify_all()
        return events

    @property
    def pending(self) -> int:
        """How many events are buffered right now."""
        with self._lock:
            return len(self._buffer)

    @property
    def dropped(self) -> int:
        """How many events the ``drop_oldest`` policy has discarded."""
        with self._lock:
            return self._dropped

    # ------------------------------------------------------------- resuming

    @property
    def offset(self) -> int:
        """The next history offset a cursor-mode stream will pull (0 when live)."""
        return self._cursor

    def _rewind(self, offset: int) -> None:
        """The synchronous half of ``resume``: discard the buffer, release
        waiting producers and move the cursor under a new generation, so a
        pull in flight delivers nothing from before the resume."""
        if self._source is None:
            raise PSException(
                "only streams created with from_offset= are resumable; "
                "use tps.stream(from_offset=...) to make one"
            )
        with self._lock:
            if self._closed:
                raise PSException("the event stream is closed")
            self._buffer.clear()
            self._not_full.notify_all()
            self._cursor = max(0, offset)
            self._generation += 1

    # ------------------------------------------------------------ lifecycle

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Cancel the subscription and wake all blocked producers/consumers.

        Buffered events stay readable through ``get``/``drain``; iteration
        ends once they are consumed.  Idempotent.  The interface itself
        calls this for every open stream when it closes (or on a blanket
        ``unsubscribe()``), so consumers never block on a subscription that
        no longer exists.  See :meth:`_shutdown` for why the flag flips
        first.
        """
        if not self._shutdown():
            return
        self._handle.cancel()
        self._interface._unregister_stream(self)

    def _shutdown(self) -> bool:
        """Flip the closed flag and wake all waiters; False when already closed.

        The flag flips and the wake-ups happen under the lock *first*, then
        exactly one caller (the one that flipped it) runs the cancel and
        unregister in :meth:`close`.  Doing it in the other order had two
        races: two concurrent closers both ran the unregister, and a
        producer already inside ``_on_event`` could start a ``_not_full``
        wait after the cancel but before the wake -- and then sleep forever.
        """
        with self._lock:
            if self._closed:
                return False
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
        return True

    def __enter__(self) -> "StreamCore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return (
            f"{type(self).__name__}({state}, pending={len(self._buffer)}, "
            f"maxsize={self.maxsize}, policy={self.policy!r})"
        )


class EventStream(StreamCore):
    """Pull-style consumption of one interface's events, with backpressure.

    The stream subscribes an internal enqueue callback (honouring any
    pushed-down predicate) and buffers events in arrival order:

    * iterate (``for event in stream``) or call :meth:`get` to consume,
      blocking until an event arrives or the stream is closed;
    * :meth:`drain` grabs everything currently buffered without blocking --
      the natural form inside the single-threaded simulator, where publish
      delivers synchronously;
    * a bounded stream (``maxsize > 0``) applies ``policy`` when full:
      ``"block"`` suspends the *publisher's* delivery until the consumer
      catches up (only meaningful with a consumer on another thread),
      ``"drop_oldest"`` discards the stalest buffered event and counts it in
      :attr:`dropped`.

    Closing (or leaving the ``with`` block) cancels the subscription and
    wakes every blocked producer and consumer.  The decisions are
    :class:`StreamCore`'s; this class only waits, on condition variables.
    """

    _ident = staticmethod(threading.get_ident)

    def _init_waiters(self) -> None:
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        #: Serialises cursor-mode pulls end to end: entries must enter the
        #: buffer in offset order, and a wake blocked mid-batch on a full
        #: ``"block"`` buffer must not be overtaken by a later wake.  Held
        #: outside ``_lock`` only (pump -> buffer lock, never the reverse),
        #: so no ordering cycle with consumers, which take ``_lock`` alone.
        self._pump_mutex = threading.Lock()

    def _pump(self) -> None:
        with self._pump_mutex:
            for event, generation in self._pulled():
                self._enqueue(event, generation)

    def _enqueue(self, event: Any, generation: int) -> None:
        with self._lock:
            while not self._room_locked(event, generation):
                self._not_full.wait()

    def resume(self, offset: int) -> "EventStream":
        """Reposition a resumable stream's cursor and pull immediately.

        Only streams created with ``from_offset=`` are resumable.  Anything
        currently buffered is discarded (the buffer would otherwise replay
        on top of the re-pulled entries and duplicate them); the stream then
        holds exactly the retained history at or after ``offset`` and keeps
        following live events from there.  Returns the stream.
        """
        self._rewind(offset)
        self._pump()
        return self

    def get(self, timeout: Optional[float] = None) -> Any:
        """Remove and return the next event, waiting for one if necessary.

        Raises :class:`PSException` when the stream is closed and empty, or
        when ``timeout`` (seconds) elapses without an event.
        """
        with self._lock:
            self._consumers.add(threading.get_ident())
            if not self._buffer and not self._closed:
                self._not_empty.wait_for(
                    lambda: self._buffer or self._closed, timeout=timeout
                )
            return self._take_locked(timeout)

    def __iter__(self) -> Iterator[Any]:
        """Yield events until the stream is closed and drained."""
        while True:
            try:
                yield self.get()
            except PSException:
                return


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "EventStream",
    "STREAM_POLICIES",
    "StreamCore",
    "SubscriptionBuilder",
    "SubscriptionHandle",
    "combine_predicates",
]
