"""Cross-binding conformance: "same API, any transport" as a pytest matrix.

The paper's central claim is that one typed publish/subscribe abstraction
runs unchanged over different infrastructures.  This suite is that claim in
executable form: every behavioral test below runs identically -- same
bodies, same assertions -- against every registered built-in binding:

* ``LOCAL``   -- the in-process bus;
* ``SHARDED`` -- the N-shard in-process bus;
* ``JXTA``    -- the simulated P2P substrate (publisher and subscriber on
  *different* peers, traffic over the wire);
* ``SHARDED+JXTA`` -- the composite (remote subscriber over the wire, and a
  same-peer local check in its dedicated test);
* ``ASYNC``   -- the asyncio-native binding, driven through a thin driver
  shim that marshals each call onto the harness-owned event loop
  (``loop.run_until_complete``) and awaits awaitable results, so the very
  same sync-shaped test bodies exercise ``await tps.publish(...)`` et al.

The only per-binding knowledge lives in the harness: how to build a
publisher/subscriber interface pair and how to *pump* in-flight deliveries
(a no-op for the synchronous in-process bindings; run-the-simulator for the
wire bindings; for ``ASYNC``, serial dispatch completes delivery inside the
awaited publish, so pumping is a no-op there too).  The test bodies never
branch on the binding name.

Covered surface: publish/subscribe with ordering and history, handle
cancellation, fluent ``.where()`` predicates, the per-row dispatch semantics
(error routing, broken handlers, mid-dispatch cancellation), streams under
both overflow policies and in cursor mode (``from_offset`` replay, live
follow, ``resume``), circuit breakers, close idempotence, and the uniform
post-close ``PSException``.

The ``+CHAOS`` variants (marked ``chaos``) re-run the wire bindings over a
fault-injected network -- every link drops, duplicates, reorders and delays
packets per :meth:`repro.net.faults.FaultPlan.chaos` -- with the wire
layer's reliable delivery switched on.  Every assertion stays byte-for-byte
identical: at-least-once retries plus receiver dedup and ordering must make
a faulty network indistinguishable from a clean one at the TPS API.

The ``+RESHARD`` variants (PR 7) additionally grow and shrink every sharded
bus *between pumps*, so each behavioral test runs across live
``add_shard``/``remove_shard`` migrations -- alone for the in-process
``SHARDED`` binding, and stacked on top of the chaos fault plan for the
composite.  Again every assertion is unchanged: elasticity, like the
network faults, must be invisible at the TPS API.
"""

from __future__ import annotations

import asyncio
import inspect
import os
from typing import Any, List, Optional, Tuple

import pytest

from repro.apps.skirental.types import SkiRental
from repro.core import TPSConfig, TPSEngine
from repro.core.async_engine import AsyncLocalBus
from repro.core.exceptions import PSException
from repro.core.interface import TPSInterface, TPSInterfaceCore
from repro.core.local_engine import LocalBus
from repro.core.sharded_engine import ShardedLocalBus
from repro.core.subscriber import TPSSubscriberManager
from repro.jxta.platform import JxtaNetworkBuilder
from repro.net.entropy import monotonic_clock
from repro.net.faults import FaultPlan

#: Suffix selecting a fault-injected network with reliable delivery on.
CHAOS_SUFFIX = "+CHAOS"

#: Suffix growing/shrinking every sharded bus between pumps (live
#: resharding while the behavioral tests run).
RESHARD_SUFFIX = "+RESHARD"

#: The behavioral matrix: every test in this module runs once per binding,
#: plus once per wire binding over the standard chaos fault plan, plus the
#: resharding variants of the sharded bindings.
BINDINGS = (
    "LOCAL",
    "SHARDED",
    "JXTA",
    "SHARDED+JXTA",
    pytest.param("ASYNC", marks=pytest.mark.asyncio),
    pytest.param("JXTA" + CHAOS_SUFFIX, marks=pytest.mark.chaos),
    pytest.param("SHARDED+JXTA" + CHAOS_SUFFIX, marks=pytest.mark.chaos),
    pytest.param("SHARDED" + RESHARD_SUFFIX, marks=pytest.mark.migration),
    pytest.param(
        "SHARDED+JXTA" + CHAOS_SUFFIX + RESHARD_SUFFIX,
        marks=[pytest.mark.chaos, pytest.mark.migration],
    ),
)

#: Conformance involves full simulated networks for the wire bindings.
pytestmark = [pytest.mark.slow]


def _offer(shop: str = "shop", price: float = 10.0) -> SkiRental:
    return SkiRental(shop, price, "Salomon", 7)


class KeyedOffer:
    """An event whose content key counts its reads (the codec only sees
    ``__dict__``, so every read is a placement-key lookup)."""

    reads = 0

    def __init__(self, region: str = "") -> None:
        self._region = region

    @property
    def region(self) -> str:
        KeyedOffer.reads += 1
        return self._region


class _LoopProxy:
    """Marshals calls onto the harness-owned event loop, awaiting results.

    The ASYNC binding's objects are loop-confined and its verbs are
    awaitables; these drivers give them the synchronous face the shared
    test bodies expect.  Each call runs *on* the owning loop (the loop is
    driven by the test thread via ``run_until_complete``), so the binding's
    loop-affinity checks pass exactly as they would for a real coroutine
    caller -- the shim translates the calling convention, never the
    behavior.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    def _run(self, fn: Any, *args: Any, **kwargs: Any) -> Any:
        async def call() -> Any:
            result = fn(*args, **kwargs)
            if inspect.isawaitable(result):
                result = await result
            return result

        return self._loop.run_until_complete(call())


class AsyncHandleDriver(_LoopProxy):
    def __init__(self, handle: Any, loop: asyncio.AbstractEventLoop) -> None:
        super().__init__(loop)
        self._handle = handle

    def cancel(self) -> int:
        return self._run(self._handle.cancel)

    @property
    def active(self) -> bool:
        return self._handle.active

    def __enter__(self) -> "AsyncHandleDriver":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.cancel()


class AsyncStreamDriver(_LoopProxy):
    def __init__(self, stream: Any, loop: asyncio.AbstractEventLoop) -> None:
        super().__init__(loop)
        self._stream = stream

    def get(self, timeout: Optional[float] = None) -> Any:
        return self._run(self._stream.get, timeout=timeout)

    def drain(self) -> List[Any]:
        return self._run(self._stream.drain)

    def close(self) -> None:
        self._run(self._stream.close)

    def resume(self, offset: int) -> "AsyncStreamDriver":
        self._run(self._stream.resume, offset)
        return self

    @property
    def offset(self) -> int:
        return self._stream.offset

    @property
    def resumable(self) -> bool:
        return self._stream.resumable

    @property
    def closed(self) -> bool:
        return self._stream.closed

    @property
    def pending(self) -> int:
        return self._stream.pending

    @property
    def dropped(self) -> int:
        return self._stream.dropped

    def __enter__(self) -> "AsyncStreamDriver":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class AsyncBuilderDriver(_LoopProxy):
    """Chains on the real SubscriptionBuilder -- the fluent surface is the
    shared one; only the terminal operations marshal onto the loop."""

    def __init__(self, builder: Any, loop: asyncio.AbstractEventLoop) -> None:
        super().__init__(loop)
        self._builder = builder

    def where(self, predicate: Any) -> "AsyncBuilderDriver":
        self._builder.where(predicate)
        return self

    def on_error(self, handler: Any) -> "AsyncBuilderDriver":
        self._builder.on_error(handler)
        return self

    def start(self) -> AsyncHandleDriver:
        return AsyncHandleDriver(self._run(self._builder.start), self._loop)

    def stream(self, *args: Any, **kwargs: Any) -> AsyncStreamDriver:
        return AsyncStreamDriver(
            self._run(self._builder.stream, *args, **kwargs), self._loop
        )


class AsyncInterfaceDriver(_LoopProxy):
    def __init__(self, interface: Any, loop: asyncio.AbstractEventLoop) -> None:
        super().__init__(loop)
        self._interface = interface

    def publish(self, event: Any) -> Any:
        return self._run(self._interface.publish, event)

    def publish_many(self, events: Any) -> Any:
        return self._run(self._interface.publish_many, events)

    def subscribe(self, *args: Any, **kwargs: Any) -> AsyncHandleDriver:
        return AsyncHandleDriver(
            self._run(self._interface.subscribe, *args, **kwargs), self._loop
        )

    def unsubscribe(self, *args: Any, **kwargs: Any) -> int:
        return self._run(self._interface.unsubscribe, *args, **kwargs)

    def set_breaker_policy(self, threshold: int, cooldown: float) -> None:
        self._run(self._interface.set_breaker_policy, threshold, cooldown)

    def subscription(self, *args: Any, **kwargs: Any) -> AsyncBuilderDriver:
        return AsyncBuilderDriver(
            self._run(self._interface.subscription, *args, **kwargs), self._loop
        )

    def stream(self, *args: Any, **kwargs: Any) -> AsyncStreamDriver:
        return AsyncStreamDriver(
            self._run(self._interface.stream, *args, **kwargs), self._loop
        )

    def objects_received(self) -> List[Any]:
        return self._interface.objects_received()

    def objects_sent(self) -> List[Any]:
        return self._interface.objects_sent()

    def close(self) -> None:
        self._run(self._interface.close)

    @property
    def closed(self) -> bool:
        return self._interface.closed

    def __enter__(self) -> "AsyncInterfaceDriver":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class BindingHarness:
    """Builds interface pairs over one binding and pumps its deliveries."""

    #: Settle rounds after a publish; generous so slow discovery converges.
    PUMP_ROUNDS = 10

    def __init__(self, binding: str, *, dispatch: Optional[str] = None) -> None:
        """``dispatch`` (ASYNC only) puts the pair on an explicit
        ``AsyncLocalBus(dispatch=...)`` instead of the registry's bus."""
        self.reshard = binding.endswith(RESHARD_SUFFIX)
        if self.reshard:
            binding = binding[: -len(RESHARD_SUFFIX)]
        self.chaos = binding.endswith(CHAOS_SUFFIX)
        if self.chaos:
            binding = binding[: -len(CHAOS_SUFFIX)]
        self.binding = binding
        self.engines: List[TPSEngine] = []
        self.builder: Optional[JxtaNetworkBuilder] = None
        self.local_bus: Optional[Any] = None
        #: The harness-owned event loop (ASYNC binding only).
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        #: Buses to grow/shrink between pumps (+RESHARD variants).
        self._reshard_buses: List[ShardedLocalBus] = []
        self._reshard_step = 0
        if binding == "LOCAL":
            self.local_bus = LocalBus()
        elif binding == "SHARDED":
            self.local_bus = ShardedLocalBus(shards=4)
        elif binding == "ASYNC":
            # The registry resolves a parameter-less ASYNC request to the
            # per-loop shared bus, so interfaces built on this loop pair up
            # exactly like the in-process bindings sharing self.local_bus.
            self.loop = asyncio.new_event_loop()
            if dispatch is not None:
                self.local_bus = AsyncLocalBus(dispatch=dispatch, loop=self.loop)
        else:
            self.builder = JxtaNetworkBuilder(seed=20020713)
            self.builder.add_rendezvous("rdv-0")
            self.publisher_peer = self.builder.add_peer("conf-pub")
            self.subscriber_peer = self.builder.add_peer("conf-sub")
            # Discovery converges on a clean network; the faults switch on
            # *before* any TPS traffic, so every publish crosses chaos.
            self.builder.settle(rounds=6)
            if self.chaos:
                self.builder.network.fault_plan = FaultPlan.chaos(seed=20020713)

    @property
    def wire(self) -> bool:
        return self.builder is not None

    def interface(
        self,
        *,
        peer: Any = None,
        create: bool = True,
        event_type: type = SkiRental,
        **params: Any,
    ) -> TPSInterface:
        """One interface over this harness's binding (wire peers explicit);
        ``params`` are binding parameters."""
        if self.wire:
            config = TPSConfig(
                search_timeout=2.0 if create else 6.0,
                create_if_missing=create,
                reliable_delivery=self.chaos,
            )
            engine = TPSEngine(
                event_type, peer=peer or self.publisher_peer, config=config
            )
        elif self.loop is not None:
            engine = TPSEngine(event_type, local_bus=self.local_bus)
            self.engines.append(engine)
            # new_interface must run on the owning loop ('the loop is the
            # thread'); the driver keeps marshaling every later call there.
            interface = self._run_on_loop(engine.new_interface, self.binding, **params)
            return AsyncInterfaceDriver(interface, self.loop)
        else:
            engine = TPSEngine(event_type, local_bus=self.local_bus)
        self.engines.append(engine)
        interface = engine.new_interface(self.binding, **params)
        if self.reshard:
            bus = getattr(interface, "bus", None) or self.local_bus
            if isinstance(bus, ShardedLocalBus) and bus not in self._reshard_buses:
                self._reshard_buses.append(bus)
        return interface

    def pair(self) -> Tuple[TPSInterface, TPSInterface]:
        """A (publisher, subscriber) pair, discovery already converged.

        For wire bindings the publisher creates the advertisement and the
        subscriber (on the other peer) discovers it; for in-process
        bindings the two interfaces simply share the bus.
        """
        publisher = self.interface(create=True)
        self.pump()
        subscriber = self.interface(
            peer=self.subscriber_peer if self.wire else None, create=False
        )
        self.pump()
        return publisher, subscriber

    def pump(self, receipt: Any = None) -> None:
        """Drive in-flight deliveries to completion (no-op in-process).

        ``+RESHARD`` variants alternate ``add_shard``/``remove_shard`` on
        every known bus here, so each behavioral test crosses several live
        migrations without the test bodies knowing.
        """
        if self.reshard:
            self._reshard_step += 1
            for bus in self._reshard_buses:
                if self._reshard_step % 2:
                    bus.add_shard()
                else:
                    bus.remove_shard()
        if self.builder is None:
            return
        simulator = self.builder.simulator
        if receipt is not None and getattr(receipt, "completion_time", 0.0):
            simulator.run_until(max(simulator.now, receipt.completion_time))
        self.builder.settle(rounds=self.PUMP_ROUNDS)

    def publish(self, interface: TPSInterface, event: Any) -> Any:
        """Publish and pump, so the event is delivered on return."""
        receipt = interface.publish(event)
        self.pump(receipt)
        return receipt

    @staticmethod
    def inline(handle: Any) -> Any:
        """``handle`` as usable from *inside* a callback, i.e. already on the
        binding's thread/loop: the ASYNC drivers marshal onto a loop that is
        busy running that very callback, so hand out the object they wrap."""
        return getattr(handle, "_handle", handle)

    def _run_on_loop(self, fn: Any, *args: Any, **kwargs: Any) -> Any:
        async def call() -> Any:
            return fn(*args, **kwargs)

        assert self.loop is not None
        return self.loop.run_until_complete(call())

    def finish(self) -> None:
        if self.loop is not None:
            # Engine close iterates interface.close(), which is
            # loop-confined; run the whole teardown on the owning loop.
            for engine in self.engines:
                self._run_on_loop(engine.close)
            self.loop.close()
            return
        for engine in self.engines:
            engine.close()


@pytest.fixture(params=BINDINGS)
def harness(request):
    built = BindingHarness(request.param)
    yield built
    built.finish()


class TestPublishSubscribeConformance:
    def test_delivery_in_publish_order_with_histories(self, harness):
        publisher, subscriber = harness.pair()
        inbox: List[Any] = []
        subscriber.subscribe(inbox.append)
        harness.pump()
        events = [_offer(f"shop-{index}", 10.0 * (index + 1)) for index in range(3)]
        for event in events:
            harness.publish(publisher, event)
        assert [(e.shop, e.price) for e in inbox] == [
            (e.shop, e.price) for e in events
        ]
        # Histories (Figure 8 operations 6 and 7) agree with delivery.
        assert [e.shop for e in publisher.objects_sent()] == [e.shop for e in events]
        assert [e.shop for e in subscriber.objects_received()] == [
            e.shop for e in events
        ]
        # Delivered objects are isolated copies of the right type.
        assert all(isinstance(e, SkiRental) for e in inbox)
        assert all(
            delivered is not published for delivered, published in zip(inbox, events)
        )

    def test_unsubscribed_interface_receives_nothing(self, harness):
        publisher, subscriber = harness.pair()
        harness.publish(publisher, _offer())
        assert subscriber.objects_received() == []

    def test_publish_rejects_foreign_type(self, harness):
        publisher, _ = harness.pair()
        with pytest.raises(PSException):
            publisher.publish(object())


class TestHandleCancelConformance:
    def test_cancel_stops_delivery_exactly_once(self, harness):
        publisher, subscriber = harness.pair()
        inbox: List[Any] = []
        handle = subscriber.subscribe(inbox.append)
        harness.pump()
        harness.publish(publisher, _offer("before"))
        assert handle.cancel() == 1
        assert not handle.active
        harness.pump()
        harness.publish(publisher, _offer("after"))
        assert [e.shop for e in inbox] == ["before"]
        # Cancelling again is a no-op, uniformly.
        assert handle.cancel() == 0

    def test_scoped_subscription_via_context_manager(self, harness):
        publisher, subscriber = harness.pair()
        inbox: List[Any] = []
        with subscriber.subscribe(inbox.append):
            harness.pump()
            harness.publish(publisher, _offer("inside"))
        harness.pump()
        harness.publish(publisher, _offer("outside"))
        assert [e.shop for e in inbox] == ["inside"]


class TestWherePredicateConformance:
    def test_pushed_down_predicate_filters_delivery(self, harness):
        publisher, subscriber = harness.pair()
        inbox: List[Any] = []
        subscriber.subscription(inbox.append).where(
            lambda offer: offer.price < 50.0
        ).start()
        harness.pump()
        harness.publish(publisher, _offer("cheap", 10.0))
        harness.publish(publisher, _offer("expensive", 500.0))
        harness.publish(publisher, _offer("bargain", 25.0))
        assert [e.shop for e in inbox] == ["cheap", "bargain"]

    def test_raising_predicate_routes_to_error_handler(self, harness):
        publisher, subscriber = harness.pair()
        inbox: List[Any] = []
        errors: List[BaseException] = []

        def broken(offer: Any) -> bool:
            raise ValueError("bad predicate")

        subscriber.subscription(inbox.append).where(broken).on_error(
            errors.append
        ).start()
        harness.pump()
        harness.publish(publisher, _offer())
        assert inbox == []
        assert len(errors) == 1 and isinstance(errors[0], ValueError)


class TestRowSemanticsConformance:
    """What one handler row does with one event.

    The row body exists three times -- inlined in ``LocalBus.publish`` (kept
    there for speed, see docs/CONCURRENCY.md), in
    ``TPSSubscriberManager.dispatch`` on the wire path and inlined in
    ``AsyncLocalBus.publish``, which adds only an ``await`` on an awaitable
    result.  Each case below is one body run against every binding (and,
    in :class:`TestConcurrentAsyncRows`, on a ``"concurrent"`` ASYNC bus),
    so the three stay in lockstep.
    """

    def test_raising_callback_reaches_only_its_paired_handler(self, harness):
        publisher, subscriber = harness.pair()
        inbox: List[Any] = []
        paired: List[BaseException] = []
        other: List[BaseException] = []

        def broken(offer: Any) -> None:
            raise ValueError(f"cannot handle {offer.shop}")

        subscriber.subscribe(broken, paired.append)
        subscriber.subscribe(inbox.append, other.append)
        harness.pump()
        harness.publish(publisher, _offer("boom"))
        assert [str(error) for error in paired] == ["cannot handle boom"]
        assert other == []
        assert [e.shop for e in inbox] == ["boom"]

    def test_raising_handler_does_not_stop_later_rows(self, harness):
        publisher, subscriber = harness.pair()
        inbox: List[Any] = []

        def broken(offer: Any) -> None:
            raise ValueError("callback is broken")

        def broken_handler(error: BaseException) -> None:
            raise RuntimeError("and so is its handler")

        subscriber.subscribe(broken, broken_handler)
        subscriber.subscribe(inbox.append)
        harness.pump()
        harness.publish(publisher, _offer("first"))
        harness.publish(publisher, _offer("second"))
        assert [e.shop for e in inbox] == ["first", "second"]

    def test_cancel_from_inside_a_callback_takes_effect_next_event(self, harness):
        publisher, subscriber = harness.pair()
        inbox: List[Any] = []
        handles: List[Any] = []

        def cancel_the_other(offer: Any) -> None:
            # Runs inside dispatch: the row snapshot for this event is
            # already loaded, so the later row still sees this event.
            harness.inline(handles[0]).cancel()

        subscriber.subscribe(cancel_the_other)
        handles.append(subscriber.subscribe(inbox.append))
        harness.pump()
        harness.publish(publisher, _offer("current"))
        harness.publish(publisher, _offer("after"))
        assert [e.shop for e in inbox] == ["current"]
        assert not handles[0].active

    def test_rejected_row_never_opens_its_callback(self, harness):
        publisher, subscriber = harness.pair()
        calls: List[Any] = []
        errors: List[BaseException] = []
        subscriber.subscription(calls.append).where(lambda offer: False).on_error(
            errors.append
        ).start()
        harness.pump()
        harness.publish(publisher, _offer("rejected"))
        assert calls == [] and errors == []
        # The interface itself did receive the event: history records what
        # reached the interface, the predicate only guards this one row.
        assert [e.shop for e in subscriber.objects_received()] == ["rejected"]


class TestStreamConformance:
    def test_stream_block_policy_fifo(self, harness):
        publisher, subscriber = harness.pair()
        with subscriber.stream(maxsize=10, policy="block") as stream:
            harness.pump()
            for index in range(3):
                harness.publish(publisher, _offer(f"shop-{index}"))
            assert [e.shop for e in stream.drain()] == [
                "shop-0",
                "shop-1",
                "shop-2",
            ]
            assert stream.dropped == 0

    def test_stream_drop_oldest_policy_bounds_buffer(self, harness):
        publisher, subscriber = harness.pair()
        with subscriber.stream(maxsize=2, policy="drop_oldest") as stream:
            harness.pump()
            for index in range(5):
                harness.publish(publisher, _offer(f"shop-{index}"))
            assert stream.dropped == 3
            # The freshest two events survive, in order.
            assert [e.shop for e in stream.drain()] == ["shop-3", "shop-4"]

    def test_closed_stream_stops_buffering(self, harness):
        publisher, subscriber = harness.pair()
        stream = subscriber.stream(maxsize=10)
        harness.pump()
        harness.publish(publisher, _offer("kept"))
        stream.close()
        harness.pump()
        harness.publish(publisher, _offer("lost"))
        assert [e.shop for e in stream.drain()] == ["kept"]
        with pytest.raises(PSException):
            stream.get(timeout=0.01)

    def test_resumable_stream_replays_follows_and_resumes(self, harness):
        publisher, subscriber = harness.pair()
        subscriber.subscribe(lambda event: None)  # the received history records
        harness.pump()
        for index in range(3):
            harness.publish(publisher, _offer(f"shop-{index}"))
        with subscriber.stream(from_offset=1) as stream:
            assert stream.resumable
            assert [e.shop for e in stream.drain()] == ["shop-1", "shop-2"]
            harness.publish(publisher, _offer("shop-3"))
            assert [e.shop for e in stream.drain()] == ["shop-3"]
            assert stream.offset == 4
            stream.resume(2)
            assert [e.shop for e in stream.drain()] == ["shop-2", "shop-3"]
            assert stream.offset == 4


class TestLifecycleConformance:
    def test_close_is_idempotent_and_observable(self, harness):
        publisher, subscriber = harness.pair()
        assert not publisher.closed
        publisher.close()
        assert publisher.closed
        publisher.close()  # idempotent, uniformly
        assert publisher.closed
        subscriber.close()
        assert subscriber.closed

    def test_context_manager_form(self, harness):
        publisher, subscriber = harness.pair()
        with publisher:
            pass
        assert publisher.closed
        subscriber.close()

    def test_closed_interface_receives_nothing(self, harness):
        publisher, subscriber = harness.pair()
        inbox: List[Any] = []
        subscriber.subscribe(inbox.append)
        harness.pump()
        subscriber.close()
        harness.pump()
        harness.publish(publisher, _offer())
        assert inbox == []

    def test_post_close_operations_raise_psexception(self, harness):
        publisher, subscriber = harness.pair()
        publisher.close()
        subscriber.close()
        with pytest.raises(PSException):
            publisher.publish(_offer())
        with pytest.raises(PSException):
            subscriber.subscribe(lambda event: None)
        with pytest.raises(PSException):
            subscriber.subscription(lambda event: None)
        with pytest.raises(PSException):
            subscriber.stream()
        with pytest.raises(PSException):
            publisher.publish_many([_offer()])
        # History queries keep answering after close, uniformly.
        assert publisher.objects_sent() == []
        assert subscriber.objects_received() == []


class TestBreakerConformance:
    """``set_breaker_policy`` is the one breaker spelling on every binding."""

    def test_breaker_trips_skips_and_lets_one_probe_through(self, harness):
        publisher, subscriber = harness.pair()
        now = [100.0]
        # The fake replaces the binding's own clock before the policy binds it.
        getattr(subscriber, "_interface", subscriber)._clock = lambda: now[0]
        subscriber.set_breaker_policy(2, 5.0)
        calls: List[str] = []
        healthy: List[str] = []

        def flaky(offer: Any) -> None:
            calls.append(offer.shop)
            raise RuntimeError("subscriber crash")

        subscriber.subscribe(flaky, lambda error: None)
        subscriber.subscribe(lambda offer: healthy.append(offer.shop))
        harness.pump()
        # Two failures trip the breaker; the third delivery is skipped.
        for shop in ("a", "b", "c"):
            harness.publish(publisher, _offer(shop))
        assert calls == ["a", "b"]
        # Past the cooldown exactly one probe gets through; it fails again.
        now[0] += 5.1
        for shop in ("d", "e"):
            harness.publish(publisher, _offer(shop))
        assert calls == ["a", "b", "d"]
        # The healthy subscription on the same interface never skipped.
        assert healthy == ["a", "b", "c", "d", "e"]


@pytest.mark.asyncio
class TestConcurrentAsyncRows(
    TestRowSemanticsConformance, TestWherePredicateConformance, TestBreakerConformance
):
    """The row rules, predicates and breakers once more on an explicit
    ``AsyncLocalBus(dispatch="concurrent")``.

    ``BINDINGS``' ASYNC entry is the serial default bus; in concurrent mode
    a plain row runs inline before the per-event gather, and a row whose
    callback returns an awaitable settles in a gathered continuation.  Only
    the row semantics differ between the two modes, so only these classes
    run again -- not a tenth ``BINDINGS`` entry.
    """

    @pytest.fixture
    def harness(self):
        built = BindingHarness("ASYNC", dispatch="concurrent")
        yield built
        built.finish()


class TestBreakerClocks:
    """Each binding's breakers default to the clock its deliveries run on."""

    @pytest.mark.parametrize("binding", ["LOCAL", "SHARDED"])
    def test_in_process_bindings_read_wall_time(self, binding):
        harness = BindingHarness(binding)
        try:
            assert harness.interface()._clock is monotonic_clock
        finally:
            harness.finish()

    @pytest.mark.parametrize("binding", ["JXTA", "SHARDED+JXTA"])
    def test_wire_bindings_read_the_peer_clock(self, binding):
        harness = BindingHarness(binding)
        try:
            interface = harness.interface()
            simulator = harness.builder.simulator
            simulator.run_until(simulator.now + 3.25)
            assert interface._clock() == interface.peer.now == simulator.now > 0
        finally:
            harness.finish()

    @pytest.mark.asyncio
    def test_async_reads_the_owning_loop_clock(self):
        harness = BindingHarness("ASYNC")
        harness.loop.time = lambda: 4321.5
        try:
            assert harness.interface()._interface._clock() == 4321.5
        finally:
            harness.finish()


def _owned_objects(interface: Any) -> List[Any]:
    """Every ``repro.core`` object reachable from ``interface`` through its
    own attributes -- not through the shared infrastructure it merely joins
    (bus, peer, failure detector), which legitimately knows other engines."""
    seen = {id(interface)}
    found: List[Any] = []
    frontier = [interface]
    while frontier:
        for value in vars(frontier.pop()).values():
            if (
                id(value) in seen
                or isinstance(value, (LocalBus, ShardedLocalBus))
                or not type(value).__module__.startswith("repro.core")
            ):
                continue
            seen.add(id(value))
            found.append(value)
            if hasattr(value, "__dict__"):
                frontier.append(value)
    return found


class TestOneEnginePerInterface:
    """Section 3.4 / Figure 10: an interface has one Interface Repository and
    one history pair -- no binding is two engines glued together."""

    def test_no_second_engine_or_repository_behind_the_interface(self, harness):
        for interface in harness.pair():
            interface = getattr(interface, "_interface", interface)  # ASYNC driver
            owned = _owned_objects(interface)
            assert not [o for o in owned if isinstance(o, TPSInterfaceCore)]
            managers = [o for o in owned if isinstance(o, TPSSubscriberManager)]
            assert managers == [interface.subscriber_manager]


class TestCompositeSpecifics:
    """The composite's distinguishing behavior, on top of the shared matrix."""

    @pytest.mark.parametrize("history", ["ring", "log"])
    def test_bus_and_wire_deliveries_share_one_history_pair(self, history, tmp_path):
        harness = BindingHarness("SHARDED+JXTA")
        try:
            remote_publisher = harness.interface(create=True)
            harness.pump()
            params = {"history": history}
            if history == "log":
                params["history_path"] = str(tmp_path / "sub")
            subscriber = harness.interface(
                peer=harness.subscriber_peer, create=False, **params
            )
            if history == "log":
                params["history_path"] = str(tmp_path / "local-pub")
            local_publisher = harness.interface(
                peer=harness.subscriber_peer, create=False, **params
            )
            inbox: List[Any] = []
            subscriber.subscribe(inbox.append)
            harness.pump()
            # N = 3 deliveries through the local bus, M = 2 over the wire.
            publishers = [
                local_publisher,
                remote_publisher,
                local_publisher,
                local_publisher,
                remote_publisher,
            ]
            for index, publisher in enumerate(publishers):
                harness.publish(publisher, _offer(f"shop-{index}"))
            assert sorted(e.shop for e in inbox) == [f"shop-{i}" for i in range(5)]
            # One received store: every delivery appended once, in dispatch
            # order, whichever inlet it came through.
            assert [e.shop for e in subscriber.objects_received()] == [
                e.shop for e in inbox
            ]
            assert len(subscriber.history_since(0)) == 5
            # One sent store: each publish recorded once.
            assert [e.shop for e in local_publisher.objects_sent()] == [
                "shop-0", "shop-2", "shop-3"
            ]
            assert len(local_publisher.sent_history_since(0)) == 3
            if history == "log":
                subscriber.close()
                local_publisher.close()
                for directory in ("sub", "local-pub"):
                    assert sorted(os.listdir(tmp_path / directory)) == [
                        "received.log",
                        "sent.log",
                    ]
        finally:
            harness.finish()

    @pytest.mark.parametrize(
        "params",
        [
            {"history": "log", "history_path": "<under-a-file>"},
            {"membership": True, "history": "log", "history_path": "<under-a-file>"},
        ],
        ids=["history-path", "membership-history-path"],
    )
    def test_failing_constructor_leaves_nothing_attached_to_the_bus(
        self, params, tmp_path
    ):
        harness = BindingHarness("SHARDED+JXTA")
        try:
            if "history_path" in params:
                blocker = tmp_path / "blocker"
                blocker.write_text("a file where the directory should go")
                params = dict(params, history_path=str(blocker / "sub"))
            engine = TPSEngine(SkiRental, peer=harness.publisher_peer)
            with pytest.raises((PSException, OSError)):
                engine.new_interface("SHARDED+JXTA", **params)
            # The same (peer, default parameter set) bus a working request gets.
            survivor = harness.interface(create=True)
            assert survivor.bus.engines_for(survivor.registry.root) == (survivor,)
        finally:
            harness.finish()

    def test_each_publish_keys_its_event_once(self):
        harness = BindingHarness("SHARDED+JXTA")
        try:
            publisher = harness.interface(event_type=KeyedOffer, content_key="region")
            harness.pump()
            KeyedOffer.reads = 0
            publisher.publish(KeyedOffer("north"))
            assert KeyedOffer.reads == 1
            publisher.publish_many([KeyedOffer(region) for region in ("a", "b", "c")])
            assert KeyedOffer.reads == 4
        finally:
            harness.finish()

    def test_same_peer_interfaces_deliver_locally_without_settling(self):
        harness = BindingHarness("SHARDED+JXTA")
        try:
            publisher = harness.interface(create=True)
            harness.pump()
            local_subscriber = harness.interface(
                peer=harness.publisher_peer, create=False
            )
            inbox: List[Any] = []
            local_subscriber.subscribe(inbox.append)
            # No pump after publish: same-peer delivery is the synchronous
            # sharded leg, so the event is in the inbox on return.
            publisher.publish(_offer("local"))
            assert [e.shop for e in inbox] == ["local"]
        finally:
            harness.finish()

    def test_remote_and_local_subscribers_each_get_exactly_one_copy(self):
        harness = BindingHarness("SHARDED+JXTA")
        try:
            publisher, remote_subscriber = harness.pair()
            local_subscriber = harness.interface(
                peer=harness.publisher_peer, create=False
            )
            remote_inbox: List[Any] = []
            local_inbox: List[Any] = []
            remote_subscriber.subscribe(remote_inbox.append)
            local_subscriber.subscribe(local_inbox.append)
            harness.pump()
            harness.publish(publisher, _offer("fanout"))
            # The same-bus origin filter keeps the wire echo from doubling
            # the local delivery; the wire carries it to the remote peer.
            assert [e.shop for e in local_inbox] == ["fanout"]
            assert [e.shop for e in remote_inbox] == ["fanout"]
        finally:
            harness.finish()


class TestCompositeThreadAffinity:
    """Cross-thread misuse of the composite must fail atomically: the wire
    leg is single-threaded, so the check runs before any state mutates."""

    def _cross_thread(self, fn):
        import threading

        caught: List[BaseException] = []

        def run() -> None:
            try:
                fn()
            except BaseException as error:  # noqa: BLE001 - collected for assert
                caught.append(error)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        return caught[0] if caught else None

    def test_cross_thread_subscribe_leaves_no_half_registration(self):
        harness = BindingHarness("SHARDED+JXTA")
        try:
            publisher, subscriber = harness.pair()
            error = self._cross_thread(
                lambda: subscriber.subscribe(lambda event: None)
            )
            assert isinstance(error, PSException)
            assert "single-threaded" in str(error)
            # Nothing was registered: a publish delivers to nobody.
            assert len(subscriber.subscriber_manager) == 0
            harness.publish(publisher, _offer())
            assert subscriber.objects_received() == []
        finally:
            harness.finish()

    def test_cross_thread_unsubscribe_keeps_bridge_consistent(self):
        harness = BindingHarness("SHARDED+JXTA")
        try:
            publisher, subscriber = harness.pair()
            inbox: List[Any] = []
            subscriber.subscribe(inbox.append)
            harness.pump()
            error = self._cross_thread(lambda: subscriber.unsubscribe())
            assert isinstance(error, PSException)
            # The subscription (and the wire bridge behind it) is intact:
            # remote delivery still works and arrives exactly once.
            harness.publish(publisher, _offer("still-on"))
            assert [e.shop for e in inbox] == ["still-on"]
            # Owner-thread unsubscribe then works normally.
            assert subscriber.unsubscribe() == 1
            harness.publish(publisher, _offer("gone"))
            assert [e.shop for e in inbox] == ["still-on"]
        finally:
            harness.finish()

    def test_cross_thread_close_fails_before_local_teardown(self):
        harness = BindingHarness("SHARDED+JXTA")
        try:
            publisher, subscriber = harness.pair()
            inbox: List[Any] = []
            subscriber.subscribe(inbox.append)
            harness.pump()
            error = self._cross_thread(subscriber.close)
            assert isinstance(error, PSException)
            # close() reverted to open and nothing was detached: the
            # interface still receives, and an owner-thread close works.
            assert not subscriber.closed
            harness.publish(publisher, _offer("alive"))
            assert [e.shop for e in inbox] == ["alive"]
            subscriber.close()
            assert subscriber.closed
        finally:
            harness.finish()
