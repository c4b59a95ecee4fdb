"""The ``"ASYNC"`` binding: an asyncio-native TPS engine.

The PR 5 JXTA binding *guards* against cross-thread misuse: it records its
owner thread and raises when another thread calls in.  This binding replaces
the guard with a design where the misuse has no correct spelling at all --
**the loop is the thread**:

* an :class:`AsyncLocalBus` is owned by the event loop that created it;
  every route-table mutation and every delivery runs on that loop, so loop
  confinement already gives the exclusion the sync buses buy with
  ``threading.Lock`` (the route table is
  :class:`~repro.core.local_engine.LocalBus`'s, mutation lock included --
  never contended here, see ``docs/CONCURRENCY.md``), and the PR 1/PR 4
  snapshot template carries over unchanged: route rows and handler tuples
  are immutable tuples, rebound atomically, read straight off the attribute
  by the delivery loop;
* :class:`AsyncTPSEngine` is the asyncio front-end of the shared
  :class:`~repro.core.interface.TPSInterfaceCore`: the subscription
  surface, the fluent builder (``.where()`` push-down), predicate/error
  routing, circuit breakers and the idempotent close template are the very
  same objects the sync bindings use -- only publishing and waiting are
  expressed as awaitables (``await tps.publish(...)``,
  ``await tps.publish_many(...)``, ``await tps.close()``,
  ``async with tps:``);
* coroutine subscribers are first-class: subscribe an ``async def`` and the
  delivery loop awaits it (the :class:`~repro.core.callbacks.FunctionCallback`
  adapter passes the coroutine through); plain callables are still accepted
  and dispatched inline, exactly like on the sync bindings -- a row opens a
  coroutine only when its callback *returns* an awaitable.  With
  ``dispatch="serial"`` (default) that awaitable is awaited in row order --
  per-subscriber delivery order equals publish order; ``"concurrent"``
  gathers each event's awaitables once the plain rows ran inline, so their
  I/O waits overlap, still with a per-event barrier (``await publish``
  returns only when every subscriber finished, so order across events is
  preserved either way);
* :class:`AsyncEventStream` keeps the ``maxsize``/``policy="block"|
  "drop_oldest"`` contract of the threaded stream, but *backpressure is an
  awaitable*: a full ``"block"`` stream suspends the publishing coroutine
  on a future until a consumer makes room, instead of blocking a thread.
  ``async for event in stream`` consumes until the stream closes.

Every mutating or delivering operation checks the running loop first and
raises a :class:`PSException` -- never a bare ``RuntimeError`` -- when
called from a foreign thread, a foreign loop, or no loop at all.  History
queries (``objects_received``/``objects_sent``) stay callable from
anywhere, like on every other binding.

Determinism note: this binding runs on real asyncio loops and is therefore
outside the simulated-network replay domain; it imports no entropy sources
(RL004 covers this module -- the one clock read, stream ``get`` timeouts,
uses the owning loop's own ``loop.time()``), and how it composes with the
simulated wire bindings is documented in ``docs/CONCURRENCY.md``.
"""

from __future__ import annotations

import asyncio
import inspect
from collections import deque
from typing import Any, Awaitable, Iterable, List, Optional, Type

from repro.core.bindings import (
    BindingParam,
    BindingRequest,
    SharedBusCache,
    one_of,
    register_binding,
)
from repro.core.exceptions import PSException
from repro.core.history import HISTORY_BINDING_PARAMS, history_kwargs
from repro.core.interface import PublishReceipt
from repro.core.local_engine import LocalBus, LocalEngineCore
from repro.core.subscriptions import StreamCore

#: How the bus drives one event's subscriber coroutines (see module docs).
ASYNC_DISPATCH_MODES = ("serial", "concurrent")


def _task_ident() -> int:
    """Identity of the running task (0 outside a task), for the re-entrant
    backpressure heuristic -- the async analogue of a thread ident."""
    task = asyncio.current_task()
    return id(task) if task is not None else 0


async def _route_failure(error: BaseException, handle_error: Any, breaker: Any) -> None:
    """A failed row's error route: count the failure against the row's
    breaker and hand ``error`` to the paired handler, awaiting a coroutine
    handler.  Shared by the inline row body and :func:`_settle`."""
    if breaker is not None:
        breaker.record_failure()
    try:
        routed = handle_error(error)
        if inspect.isawaitable(routed):
            await routed
    except BaseException:  # noqa: BLE001  # repro-lint: disable=RL005 - a broken error handler must not stop dispatch
        pass


async def _settle(result: Awaitable[Any], handle_error: Any, breaker: Any) -> None:
    """The continuation of a ``"concurrent"`` row whose callback returned an
    awaitable: await it, then settle the row as the inline body would."""
    try:
        await result
        if breaker is not None:
            breaker.record_success()
    except BaseException as error:  # noqa: BLE001 - routed to the handler
        await _route_failure(error, handle_error, breaker)


class _Done:
    """An already-completed awaitable: ``await`` returns immediately.

    :meth:`AsyncTPSEngine.close` returns one so both spellings work --
    plain ``tps.close()`` (e.g. from the generic
    :meth:`~repro.core.engine.TPSEngine.close` loop) and the async-aware
    ``await tps.close()``.  Teardown itself ran synchronously before this
    object is returned (see :meth:`TPSInterfaceCore._close_impl
    <repro.core.interface.TPSInterfaceCore._close_impl>`).
    """

    __slots__ = ()

    def __await__(self):
        return iter(())


class _AsyncScoped:
    """``async with`` for the objects whose ``close()`` is synchronous."""

    async def __aenter__(self) -> Any:
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        self.close()


class AsyncLocalBus(LocalBus):
    """An event-loop-owned bus connecting :class:`AsyncTPSEngine` instances.

    The route table is :class:`~repro.core.local_engine.LocalBus`'s own:
    engines attach under their hierarchy root, publishing resolves a
    type-indexed route row -- ``(engine, manager, criteria, record)`` tuples,
    ``record`` being a ring's C-level list ``append`` -- and dispatches
    against the subscriber manager's immutable ``_handlers`` snapshot; the
    inherited ``_sweep`` keeps the attached rings within their resident
    bound, a share of them per publish.  What differs is the exclusion mechanism and the
    publish: this bus is *loop-confined* -- construction captures the
    running loop, every mutating or delivering call checks it is running on
    that loop (:meth:`check_loop`), and single-threaded loop execution makes
    the mutations atomic with respect to each other (the inherited mutation
    lock is never contended).  The snapshots still matter: a coroutine
    suspended mid-delivery (awaiting a subscriber) observes the route row
    and handler tuple it loaded, never a half-rebuilt hybrid, even if
    another task attaches or subscribes during the await.
    """

    def __init__(
        self,
        *,
        dispatch: str = "serial",
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        if dispatch not in ASYNC_DISPATCH_MODES:
            raise PSException(
                f"unknown async dispatch mode {dispatch!r}; "
                f"expected one of {ASYNC_DISPATCH_MODES}"
            )
        if loop is None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                raise PSException(
                    "an AsyncLocalBus is owned by the event loop that creates "
                    "it ('the loop is the thread'); construct it inside a "
                    "running loop, e.g. from a coroutine"
                ) from None
        super().__init__()
        self.dispatch = dispatch
        #: The event loop that owns this bus.
        self.loop = loop

    def check_loop(self, operation: str) -> None:
        """Raise :class:`PSException` unless the owning loop is running us.

        The async analogue of the JXTA binding's thread-affinity guard --
        except here the owning "thread" is the loop itself, so the check is
        also what makes cross-thread calls fail *before* any state mutates
        (there is no half-registered subscription to roll back).  Both
        failure shapes -- no running loop (plain call from a foreign thread
        or after the loop closed) and a *different* running loop -- raise
        :class:`PSException`, never a bare ``RuntimeError``.
        """
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            raise PSException(
                f"{operation} called with no running event loop: ASYNC "
                "interfaces are owned by their event loop ('the loop is the "
                "thread'); call from a coroutine on the owning loop, or "
                "marshal with asyncio.run_coroutine_threadsafe / "
                "loop.call_soon_threadsafe"
            ) from None
        if running is not self.loop:
            raise PSException(
                f"{operation} called on a foreign event loop: this ASYNC "
                f"interface is owned by loop {self.loop!r} but the running "
                f"loop is {running!r} ('the loop is the thread'); marshal "
                "onto the owning loop with asyncio.run_coroutine_threadsafe"
            )

    # ------------------------------------------------------------- topology

    def attach(self, engine: "AsyncTPSEngine") -> None:
        """Attach an engine to its hierarchy's topic (loop-confined)."""
        self.check_loop("attach")
        super().attach(engine)

    def detach(self, engine: "AsyncTPSEngine") -> None:
        """Detach an engine (missing engines are ignored; loop-confined)."""
        self.check_loop("detach")
        super().detach(engine)

    #: The inherited row lookup, bound on this class as well so class-level
    #: instrumentation can tell the two buses' route rebuilds apart.
    _route = LocalBus._route

    # ------------------------------------------------------------- delivery

    async def publish(self, publisher: "AsyncTPSEngine", event: Any) -> int:
        """Deliver ``event`` to every conforming engine except the publisher.

        Returns the number of engines delivered to.  The loop is
        ``LocalBus.publish``'s, ring sweep and row body included (skip
        publisher/closed/empty, criteria, record; per row predicate, breaker,
        callback, error route).  The async difference is decided on the callback's *result*,
        not on the row: a plain callback's row settles inline and opens no
        coroutine, while an awaitable result -- a coroutine callback, or a
        ``"block"``-policy stream applying backpressure -- suspends *this
        coroutine* rather than blocking a thread.  ``dispatch="serial"``
        awaits it inside the row's guard, so rows finish in row order;
        ``"concurrent"`` collects one continuation per awaitable
        (:func:`_settle`) and gathers them once after the loop, so their
        waits overlap within the event.  Plain rows run inline in row order
        in both modes (in ``"concurrent"`` mode: before the gather).
        """
        self.check_loop("publish")
        self._sweep()
        targets = self._route(publisher.registry.advertised_name, type(event))
        gathered = [] if self.dispatch == "concurrent" else None
        delivered = 0
        for engine, manager, criteria, record in targets:
            if engine is publisher or engine._tps_closed:
                continue
            handlers = manager._handlers
            if not handlers:
                continue
            if criteria is not None and not criteria.matches_event(event):
                continue
            record(event)
            for handle, handle_error, predicate, breaker in handlers:
                # LocalBus.publish's row body; only an awaitable result
                # differs (see the docstring).
                try:
                    if predicate is not None and not predicate(event):
                        continue
                    if breaker is not None and not breaker.allow():
                        continue
                    result = handle(event)
                    if result is not None and inspect.isawaitable(result):
                        if gathered is not None:
                            gathered.append(_settle(result, handle_error, breaker))
                            continue
                        await result
                    if breaker is not None:
                        breaker.record_success()
                except BaseException as error:  # noqa: BLE001 - routed to the handler
                    await _route_failure(error, handle_error, breaker)
            delivered += 1
        if gathered:
            await asyncio.gather(*gathered)
        return delivered

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        attached = sum(len(engines) for engines in self._engines.values())
        return (
            f"AsyncLocalBus(dispatch={self.dispatch!r}, engines={attached}, "
            f"loop={self.loop!r})"
        )


class _Futures(deque):
    """Futures parked on the owning loop, woken through the same
    ``notify``/``notify_all`` a :class:`threading.Condition` offers."""

    def notify(self, n: int = 1) -> None:
        # A timed-out get leaves its cancelled future behind; done futures
        # are skipped, so it never eats a wake-up meant for a live waiter.
        while self and n:
            future = self.popleft()
            if not future.done():
                future.set_result(None)
                n -= 1

    def notify_all(self) -> None:
        self.notify(len(self))


class AsyncEventStream(_AsyncScoped, StreamCore):
    """Pull-style consumption over the ASYNC binding: ``async for``-able.

    The same :class:`~repro.core.subscriptions.StreamCore` contract -- and
    the same decisions -- as the threaded
    :class:`~repro.core.subscriptions.EventStream`, with waiting expressed
    as futures on the owning loop instead of condition variables:

    * ``async for event in stream`` (or ``await stream.get(timeout=...)``)
      suspends the consuming task until an event arrives or the stream
      closes;
    * a full ``"block"`` stream suspends the *publishing coroutine* -- the
      awaitable-backpressure half of the contract -- until a consumer makes
      room; the re-entrant case (the publishing task is the stream's only
      consumer, so nobody can ever make room) raises :class:`PSException`
      into the subscription's error route;
    * :meth:`drain` stays synchronous and wakes blocked producers.

    Both ``with stream:`` (from loop context) and ``async with stream:``
    scope the stream.
    """

    _ident = staticmethod(_task_ident)

    def _init_waiters(self) -> None:
        self._loop = self._interface.bus.loop
        self._not_empty = _Futures()
        self._not_full = _Futures()
        #: Serialises cursor-mode pulls (the asyncio twin of EventStream's
        #: ``_pump_mutex``): entries enter the buffer in offset order even
        #: when a pull suspends mid-batch on ``"block"`` backpressure.
        self._pump_mutex = asyncio.Lock()
        #: The construction-time backlog pull runs as a task (StreamCore's
        #: __init__ is synchronous); tracked so close can cancel it.
        self._prefill: Optional[asyncio.Task] = None
        self._routing: "set[asyncio.Future]" = set()

    # ------------------------------------------------------------- producer

    async def _pump(self) -> None:
        async with self._pump_mutex:
            for event, generation in self._pulled():
                await self._wait_for_room(event, generation)

    def _replay(self) -> None:
        # StreamCore.__init__ is synchronous; pull the backlog as a task on
        # the owning loop (consumers created before it runs simply wait).
        self._prefill = self._loop.create_task(self._pump())

    def _route_error(self, error: Exception) -> None:
        # A pull cannot await inside StreamCore._pulled, so a coroutine
        # error handler runs as a task on the owning loop, referenced
        # until it finishes (the loop itself holds tasks only weakly).
        routed = super()._route_error(error)
        if inspect.isawaitable(routed):
            task = asyncio.ensure_future(routed, loop=self._loop)
            self._routing.add(task)
            task.add_done_callback(self._routing.discard)

    def _enqueue(self, event: Any, generation: int) -> Optional[Awaitable[None]]:
        # The first try runs on the publishing task in either dispatch mode,
        # so the re-entrant only-consumer refusal sees that task; only a
        # full "block" buffer hands the row something to await.
        with self._lock:
            if self._room_locked(event, generation):
                return None
        return self._wait_for_room(event, generation)

    async def _wait_for_room(self, event: Any, generation: int) -> None:
        while True:
            with self._lock:
                if self._room_locked(event, generation):
                    return
                waiter = self._loop.create_future()
                self._not_full.append(waiter)
            await waiter

    async def resume(self, offset: int) -> "AsyncEventStream":
        """Reposition a resumable stream's cursor and pull immediately.

        The awaitable twin of :meth:`EventStream.resume
        <repro.core.subscriptions.EventStream.resume>`: buffered events are
        discarded, the cursor moves to ``offset`` and the retained history
        from there is pulled before this coroutine returns.
        """
        self._interface._check_affinity("stream resume")
        self._rewind(offset)
        await self._pump()
        return self

    # ------------------------------------------------------------- consumer

    async def get(self, timeout: Optional[float] = None) -> Any:
        """Remove and return the next event, awaiting one if necessary.

        Raises :class:`PSException` when the stream is closed and empty, or
        when ``timeout`` (seconds, on the owning loop's clock) elapses
        without an event.
        """
        self._interface._check_affinity("stream get")
        deadline = None if timeout is None else self._loop.time() + timeout
        while True:
            with self._lock:
                self._consumers.add(_task_ident())
                if self._buffer or self._closed:
                    return self._take_locked(timeout)
                waiter = self._loop.create_future()
                self._not_empty.append(waiter)
            remaining = None if deadline is None else max(deadline - self._loop.time(), 0.0)
            try:
                await asyncio.wait_for(waiter, remaining)
            except asyncio.TimeoutError:
                with self._lock:
                    return self._take_locked(timeout)

    def drain(self) -> List[Any]:
        """Remove and return everything currently buffered (never suspends)."""
        self._interface._check_affinity("stream drain")
        return super().drain()

    def __aiter__(self) -> "AsyncEventStream":
        return self

    async def __anext__(self) -> Any:
        """Yield events until the stream is closed and drained."""
        try:
            return await self.get()
        except PSException:
            raise StopAsyncIteration from None

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Close the stream (loop-confined; see :meth:`StreamCore.close`)."""
        self._interface._check_affinity("stream close")
        if self._prefill is not None:
            self._prefill.cancel()
        super().close()


class AsyncTPSEngine(_AsyncScoped, LocalEngineCore):
    """The asyncio front-end of the TPS interface (the ``"ASYNC"`` binding).

    Shares the whole subscription surface --
    ``subscribe``/``unsubscribe``/``subscription()`` builder with ``.where``
    push-down/handles/streams/breakers -- with the sync bindings through
    :class:`~repro.core.interface.TPSInterfaceCore`, and construction, the
    publish front end and teardown with the LOCAL binding through
    :class:`~repro.core.local_engine.LocalEngineCore` (whose keyword options
    -- ``criteria``, ``codec``, ``history``, ``history_size``,
    ``history_path`` -- it accepts); only publishing, streaming and
    lifecycle are async-flavoured:

    * ``await tps.publish(event)`` / ``await tps.publish_many(events)``
      return :class:`PublishReceipt` objects once every subscriber (and any
      stream backpressure) settled;
    * ``tps.stream(...)`` returns an :class:`AsyncEventStream`;
    * ``await tps.close()`` (or ``async with tps:``) tears down; plain
      ``tps.close()`` works too -- teardown is synchronous on the loop and
      the returned awaitable is already complete;
    * every mutating operation is loop-confined: calls from foreign
      threads/loops raise :class:`PSException` before any state changes
      (see :meth:`AsyncLocalBus.check_loop`); after close they raise the
      uniform post-close :class:`PSException`, never ``RuntimeError``.
    """

    _stream_type = AsyncEventStream

    def __init__(
        self,
        event_type: Type[Any],
        *,
        bus: Optional[AsyncLocalBus] = None,
        **options: Any,
    ) -> None:
        if bus is None:
            bus = AsyncLocalBus()
        elif not isinstance(bus, AsyncLocalBus):
            raise PSException(
                "the ASYNC binding needs an AsyncLocalBus (or no bus at "
                f"all); got {type(bus).__name__}"
            )
        # Constructing from a foreign thread/loop must fail before attach.
        bus.check_loop("ASYNC interface construction")
        super().__init__(event_type, bus=bus, **options)

    def _check_affinity(self, operation: str) -> None:
        self.bus.check_loop(operation)

    def _clock(self) -> float:
        """Breaker cooldowns run on the owning loop's clock ('the loop is
        the thread')."""
        return self.bus.loop.time()

    # ------------------------------------------------------------ publishing

    async def publish(self, event: Any) -> PublishReceipt:
        """Publish to every conforming subscriber on the owning loop.

        Suspends while coroutine subscribers run (and while a full
        ``"block"`` stream applies backpressure); returns once delivery
        settled.
        """
        copy = self._begin_publish(event)
        return self._finish_publish(event, await self.bus.publish(self, copy))

    async def publish_many(self, events: Iterable[Any]) -> List[PublishReceipt]:
        """Publish a batch in per-source order; one receipt per event.

        Validation and codec round-trips run up front (a bad event fails the
        batch before anything is delivered), then events are awaited through
        the bus sequentially -- per-subscriber order across the batch equals
        batch order, the same guarantee the sync bindings give.
        """
        batch, copies = self._begin_batch(events)
        counts = [await self.bus.publish(self, copy) for copy in copies]
        return [
            self._finish_publish(event, delivered)
            for event, delivered in zip(batch, counts)
        ]

    # objects_received / objects_sent come from TPSInterfaceCore, answered
    # by the engine's history stores (loop-confined appends, thread-safe
    # reads -- history queries stay callable from anywhere).

    # ------------------------------------------------------------- lifecycle

    def close(self) -> Awaitable[None]:
        """End this interface's life; idempotent, loop-confined.

        Teardown (detach from the bus, drop subscriptions, close streams,
        waking their waiters) completes synchronously on the owning loop;
        the returned awaitable is already done, so ``await tps.close()`` and
        plain ``tps.close()`` are equivalent.  A close from a foreign
        thread/loop raises and leaves the interface open; a second close
        returns immediately without the loop check, so generic teardown
        loops (e.g. ``TPSEngine.close``) stay safe to re-run.
        """
        self._close_impl()
        return _Done()


# --------------------------------------------------------------------------
# The registry spec: validated params and the per-loop shared-bus cache.

#: The parameter schema of the ``"ASYNC"`` binding.
ASYNC_BINDING_PARAMS = (
    BindingParam(
        "dispatch",
        (str,),
        "'serial' awaits each subscriber in row order; 'concurrent' gathers "
        "one event's subscriber coroutines so their waits overlap",
        one_of(ASYNC_DISPATCH_MODES),
        default="serial",
    ),
) + HISTORY_BINDING_PARAMS

#: Registry-built buses, one per (owning loop, dispatch).  An isolated bus is
#: spelled ``TPSEngine(E, local_bus=AsyncLocalBus())``.
_SHARED_BUSES = SharedBusCache(AsyncLocalBus, {"dispatch": "serial"})


def _async_binding(request: BindingRequest) -> AsyncTPSEngine:
    """The ``"ASYNC"`` binding factory: an asyncio-native interface.

    Its bus is the explicit one, or one per (loop, dispatch).  The cache
    scope is the running loop -- a bus cannot outlive loop ownership -- so
    a parameter-less request shares the *owning loop's* all-default bus,
    and interfaces on different loops never share one (they could not talk
    safely anyway).
    """
    try:
        loop = asyncio.get_running_loop()
    except RuntimeError:
        raise PSException(
            "new_interface('ASYNC') must run inside the event loop that "
            "will own the interface ('the loop is the thread'); call it "
            "from a coroutine running on that loop"
        ) from None
    bus = _SHARED_BUSES.resolve(
        request,
        _SHARED_BUSES.described(request),
        lambda: AsyncLocalBus(dispatch=request.param("dispatch", "serial"), loop=loop),
        scope=loop,
    )
    return AsyncTPSEngine(
        request.event_type,
        bus=bus,
        criteria=request.criteria,
        codec=request.codec,
        **history_kwargs(request),
    )


def register_async_binding() -> None:
    """(Re-)register the ``"ASYNC"`` binding with its canonical spec.

    Module import calls this once; tests exercising the
    ``unregister_binding`` cache-reset path call it again to restore the
    built-in registration.
    """
    register_binding(
        "ASYNC",
        _async_binding,
        capabilities=("in-process", "asynchronous", "event-loop"),
        params=ASYNC_BINDING_PARAMS,
        replace=True,
        on_unregister=_SHARED_BUSES.reset,
    )


register_async_binding()


__all__ = [
    "ASYNC_BINDING_PARAMS",
    "ASYNC_DISPATCH_MODES",
    "AsyncEventStream",
    "AsyncLocalBus",
    "AsyncTPSEngine",
    "register_async_binding",
]
