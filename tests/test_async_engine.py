"""The ASYNC binding's own behavior, beyond the shared conformance matrix.

The conformance suite (``test_binding_conformance.py``) already proves the
ASYNC binding speaks the common TPS surface; this module covers what is
*specifically* asynchronous about it:

* loop ownership ("the loop is the thread"): publish/subscribe/close from a
  foreign thread, a foreign loop, or no loop at all fail with a clear
  :class:`PSException` -- never a bare ``RuntimeError`` -- and fail
  *atomically* (nothing half-registered), the async analogue of the
  composite's thread-affinity tests;
* coroutine subscribers, serial-vs-concurrent dispatch, and awaitable
  backpressure on ``"block"`` streams;
* ``async for``/``async with`` forms and awaitable close;
* the binding registry integration: the validated parameter schema, the
  per-loop shared-bus cache, and the ``unregister_binding`` cache-reset
  regression (for both ASYNC and the PR 5 sharded param-bus cache).
"""

from __future__ import annotations

import asyncio
import inspect
import sys
import threading
from typing import Any, List, Optional

import pytest

from repro.apps.skirental.types import SkiRental
from repro.core import TPSEngine
from repro.core.async_engine import (
    ASYNC_DISPATCH_MODES,
    AsyncEventStream,
    AsyncLocalBus,
    AsyncTPSEngine,
    register_async_binding,
)
from repro.core.bindings import (
    binding_capabilities,
    registered_bindings,
    unregister_binding,
)
from repro.core.exceptions import PSException
from repro.core.local_engine import LocalBus
from repro.core.sharded_engine import register_sharded_binding

pytestmark = [pytest.mark.asyncio]


def _offer(shop: str = "shop", price: float = 10.0) -> SkiRental:
    return SkiRental(shop, price, "Salomon", 7)


def _pair(engine: TPSEngine, **params: Any):
    """A (publisher, subscriber) ASYNC pair; call from the owning loop."""
    return engine.new_interface("ASYNC", **params), engine.new_interface(
        "ASYNC", **params
    )


class TestLoopOwnership:
    """'The loop is the thread': misuse fails atomically with PSException."""

    def test_construction_outside_a_loop_raises_psexception(self):
        engine = TPSEngine(SkiRental)
        with pytest.raises(PSException, match="loop"):
            engine.new_interface("ASYNC")
        engine.close()

    def test_foreign_loop_publish_raises_psexception(self):
        async def build():
            engine = TPSEngine(SkiRental)
            return engine, engine.new_interface("ASYNC")

        engine, tps = asyncio.run(build())

        async def misuse():
            await tps.publish(_offer())

        with pytest.raises(PSException, match="foreign event loop"):
            asyncio.run(misuse())
        # Nothing was published and the interface is still open.
        assert tps.objects_sent() == []
        assert not tps.closed

    def test_no_loop_subscribe_leaves_no_half_registration(self):
        async def build():
            engine = TPSEngine(SkiRental)
            return engine, engine.new_interface("ASYNC")

        engine, tps = asyncio.run(build())
        with pytest.raises(PSException, match="no running event loop"):
            tps.subscribe(lambda event: None)
        assert len(tps.subscriber_manager) == 0

    def test_foreign_thread_calls_raise_psexception_not_runtimeerror(self):
        async def build():
            engine = TPSEngine(SkiRental)
            return engine, engine.new_interface("ASYNC")

        engine, tps = asyncio.run(build())
        caught: List[BaseException] = []

        def misuse() -> None:
            try:
                tps.subscribe(lambda event: None)
            except BaseException as error:  # noqa: BLE001 - collected for assert
                caught.append(error)

        thread = threading.Thread(target=misuse, daemon=True)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert len(caught) == 1
        # The typed API exception, not asyncio's bare "no running event
        # loop" RuntimeError leaking through.
        assert type(caught[0]) is PSException
        assert "the loop is the thread" in str(caught[0])
        assert len(tps.subscriber_manager) == 0

    def test_foreign_loop_close_leaves_interface_open(self):
        async def build():
            engine = TPSEngine(SkiRental)
            return engine, engine.new_interface("ASYNC")

        engine, tps = asyncio.run(build())

        async def misuse():
            await tps.close()

        with pytest.raises(PSException, match="foreign event loop"):
            asyncio.run(misuse())
        assert not tps.closed

    def test_closed_interface_raises_psexception_from_anywhere(self):
        """Post-close failures are the uniform PSException even off-loop:
        the open check runs before the loop check."""

        async def build_and_close():
            engine = TPSEngine(SkiRental)
            tps = engine.new_interface("ASYNC")
            await tps.close()
            return engine, tps

        engine, tps = asyncio.run(build_and_close())
        assert tps.closed
        # The owning loop is gone (asyncio.run closed it), yet every verb
        # still fails with the binding-uniform post-close PSException.
        with pytest.raises(PSException, match="closed"):
            tps.subscribe(lambda event: None)
        with pytest.raises(PSException, match="closed"):
            tps.stream()
        # History queries keep answering, like every other binding.
        assert tps.objects_sent() == []
        assert tps.objects_received() == []


class TestCoroutineSubscribers:
    def test_coroutine_and_plain_subscribers_mix_in_order(self):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine)
            log: List[Any] = []
            subscriber.subscribe(lambda event: log.append(("plain", event.shop)))

            async def coro(event: Any) -> None:
                await asyncio.sleep(0)
                log.append(("coro", event.shop))

            subscriber.subscribe(coro)
            await publisher.publish(_offer("a"))
            await publisher.publish(_offer("b"))
            engine.close()
            return log

        # Serial dispatch: per-event, rows complete in registration order;
        # across events, publish order -- even though the coroutine
        # subscriber suspends mid-delivery.
        assert asyncio.run(main()) == [
            ("plain", "a"),
            ("coro", "a"),
            ("plain", "b"),
            ("coro", "b"),
        ]

    def test_coroutine_errors_route_to_exception_handler(self):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine)
            errors: List[BaseException] = []

            async def broken(event: Any) -> None:
                await asyncio.sleep(0)
                raise ValueError("async subscriber bug")

            subscriber.subscribe(broken, errors.append)
            await publisher.publish(_offer())
            engine.close()
            return errors

        errors = asyncio.run(main())
        assert len(errors) == 1 and isinstance(errors[0], ValueError)

    def test_concurrent_dispatch_overlaps_subscriber_waits(self):
        def run(dispatch: str) -> List[str]:
            async def main():
                engine = TPSEngine(SkiRental)
                publisher, subscriber = _pair(engine, dispatch=dispatch)
                log: List[str] = []

                def make(name: str):
                    async def coro(event: Any) -> None:
                        log.append(f"start-{name}")
                        await asyncio.sleep(0)
                        log.append(f"end-{name}")

                    return coro

                subscriber.subscribe([make("a"), make("b")])
                await publisher.publish(_offer())
                engine.close()
                return log

            return asyncio.run(main())

        # serial: a completes before b starts; concurrent: both start
        # before either finishes (their sleeps overlap), but publish still
        # returns only after the per-event gather barrier.
        assert run("serial") == ["start-a", "end-a", "start-b", "end-b"]
        assert run("concurrent") == ["start-a", "start-b", "end-a", "end-b"]

    def test_concurrent_plain_rows_run_inline_before_the_gather(self):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine, dispatch="concurrent")
            log: List[str] = []

            async def coro(event: Any) -> None:
                log.append("coro-start")
                await asyncio.sleep(0)
                log.append("coro-end")

            subscriber.subscribe(coro)
            subscriber.subscribe(lambda event: log.append("plain"))
            await publisher.publish(_offer())
            engine.close()
            return log

        # The plain row settles during the row loop; the coroutine row's
        # body first runs in the gather that follows it.
        assert asyncio.run(main()) == ["plain", "coro-start", "coro-end"]


class _Awaitable:
    """A non-coroutine awaitable (``__await__`` only) that counts its awaits
    and then returns, or raises ``error``."""

    def __init__(self, error: Optional[BaseException] = None) -> None:
        self.error = error
        self.awaits = 0

    def __await__(self):
        self.awaits += 1
        yield from ()
        if self.error is not None:
            raise self.error


@pytest.mark.parametrize("dispatch", ASYNC_DISPATCH_MODES)
class TestCallbackResultShapes:
    """A row is decided by what its callback *returns*, in both modes."""

    @staticmethod
    def _deliver(dispatch: str, subscribe: Any, events: int = 1) -> None:
        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine, dispatch=dispatch)
            subscribe(subscriber)
            for index in range(events):
                await publisher.publish(_offer(f"shop-{index}"))
            engine.close()

        asyncio.run(main())

    def test_non_coroutine_awaitables_are_awaited_and_their_failures_routed(
        self, dispatch
    ):
        fine = _Awaitable()
        broken = _Awaitable(ValueError("awaitable failed"))
        errors: List[str] = []

        def failed_future(event: Any) -> asyncio.Future:
            future = asyncio.get_running_loop().create_future()
            future.set_exception(ValueError("future failed"))
            return future

        def subscribe(subscriber: Any) -> None:
            subscriber.subscribe(lambda event: fine, lambda error: errors.append("fine"))
            subscriber.subscribe(lambda event: broken, lambda error: errors.append(str(error)))
            subscriber.subscribe(failed_future, lambda error: errors.append(str(error)))

        self._deliver(dispatch, subscribe, events=2)
        assert (fine.awaits, broken.awaits) == (2, 2)
        assert errors == ["awaitable failed", "future failed"] * 2

    def test_plain_non_none_result_counts_as_a_success(self, dispatch):
        calls: List[str] = []
        errors: List[BaseException] = []

        def returns_an_int(event: Any) -> int:
            calls.append(event.shop)
            return 42

        def subscribe(subscriber: Any) -> None:
            # One failure would open this breaker and skip later events.
            subscriber.set_breaker_policy(1, 60.0)
            subscriber.subscribe(returns_an_int, errors.append)

        self._deliver(dispatch, subscribe, events=3)
        assert calls == ["shop-0", "shop-1", "shop-2"]
        assert errors == []

    def test_coroutine_failures_trip_the_breaker(self, dispatch):
        calls: List[str] = []

        async def flaky(event: Any) -> None:
            calls.append(event.shop)
            await asyncio.sleep(0)
            raise RuntimeError("async subscriber crash")

        def subscribe(subscriber: Any) -> None:
            subscriber.set_breaker_policy(2, 60.0)
            subscriber.subscribe(flaky, lambda error: None)

        self._deliver(dispatch, subscribe, events=3)
        assert calls == ["shop-0", "shop-1"]

    def test_coroutine_error_handler_is_awaited_for_every_failure(self, dispatch):
        routed: List[str] = []

        async def handler(error: BaseException) -> None:
            await asyncio.sleep(0)
            routed.append(str(error))

        def broken_predicate(event: Any) -> bool:
            raise ValueError("predicate")

        def broken_callback(event: Any) -> None:
            raise ValueError("callback")

        async def broken_coroutine(event: Any) -> None:
            await asyncio.sleep(0)
            raise ValueError("coroutine")

        def subscribe(subscriber: Any) -> None:
            subscriber.subscription(lambda event: None).where(broken_predicate).on_error(
                handler
            ).start()
            subscriber.subscribe(broken_callback, handler)
            subscriber.subscribe(broken_coroutine, handler)

        self._deliver(dispatch, subscribe)
        assert routed == ["predicate", "callback", "coroutine"]


class TestPlainRowsOpenNoCoroutine:
    """Structural pin: a row opens a coroutine only when its callback returns
    an awaitable, so the coroutine frames one publish starts do not grow
    with the number of plain subscribers."""

    @pytest.mark.parametrize("dispatch", ASYNC_DISPATCH_MODES)
    def test_coroutine_frames_per_publish_do_not_grow_with_plain_rows(self, dispatch):
        def coroutine_calls(rows: int) -> int:
            async def main() -> int:
                engine = TPSEngine(SkiRental)
                publisher, subscriber = _pair(engine, dispatch=dispatch)
                for _ in range(rows):
                    subscriber.subscribe(lambda event: None)
                await publisher.publish(_offer("warm-up"))
                calls = [0]

                def profile(frame: Any, event: str, arg: Any) -> None:
                    if event == "call" and frame.f_code.co_flags & inspect.CO_COROUTINE:
                        calls[0] += 1

                sys.setprofile(profile)
                try:
                    await publisher.publish(_offer())
                finally:
                    sys.setprofile(None)
                engine.close()
                return calls[0]

            return asyncio.run(main())

        assert coroutine_calls(1) == coroutine_calls(50) > 0


class TestAsyncStreams:
    def test_async_for_consumes_until_close(self):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine)
            stream = subscriber.stream()

            async def consume() -> List[str]:
                shops = []
                async for event in stream:
                    shops.append(event.shop)
                return shops

            task = asyncio.create_task(consume())
            for shop in ("a", "b", "c"):
                await publisher.publish(_offer(shop))
            await asyncio.sleep(0)
            stream.close()
            shops = await task
            engine.close()
            return shops

        assert asyncio.run(main()) == ["a", "b", "c"]

    @pytest.mark.parametrize("dispatch", ASYNC_DISPATCH_MODES)
    def test_block_policy_backpressure_suspends_publisher(self, dispatch):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine, dispatch=dispatch)
            consumed: List[str] = []
            async with subscriber.stream(maxsize=1, policy="block") as stream:

                async def consume() -> None:
                    for _ in range(3):
                        consumed.append((await stream.get()).shop)

                task = asyncio.create_task(consume())
                # Three events through a one-slot stream: the second and
                # third publishes must suspend until the consumer makes
                # room.  publish_many returning proves backpressure is an
                # awaitable hand-off, not a deadlock.
                receipts = await publisher.publish_many(
                    [_offer("a"), _offer("b"), _offer("c")]
                )
                await task
                assert len(receipts) == 3
            assert stream.dropped == 0
            engine.close()
            return consumed

        assert asyncio.run(main()) == ["a", "b", "c"]

    def test_drop_oldest_policy_counts_drops(self):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine)
            stream = subscriber.stream(maxsize=2, policy="drop_oldest")
            await publisher.publish_many([_offer(f"s{i}") for i in range(5)])
            kept = [event.shop for event in stream.drain()]
            dropped = stream.dropped
            engine.close()
            return kept, dropped

        kept, dropped = asyncio.run(main())
        assert kept == ["s3", "s4"]
        assert dropped == 3

    @pytest.mark.parametrize("dispatch", ASYNC_DISPATCH_MODES)
    def test_reentrant_only_consumer_raises_instead_of_deadlocking(self, dispatch):
        """The async analogue of the threaded deadlock heuristic: if the
        publishing *task* is the stream's only consumer, a full ``"block"``
        wait could never be woken -- raise into the error route instead.

        In ``"concurrent"`` mode the wait itself would run in a gathered
        task, so the refusal must be decided on the publishing task, before
        anything is gathered; a watchdog closes the stream if it is not."""

        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine, dispatch=dispatch)
            errors: List[BaseException] = []
            stream = (
                subscriber.subscription()
                .on_error(errors.append)
                .stream(maxsize=1, policy="block")
            )
            stream.drain()  # registers this task as a consumer
            await publisher.publish(_offer("fits"))
            watchdog = asyncio.get_running_loop().call_later(5.0, stream.close)
            await publisher.publish(_offer("overflows"))
            watchdog.cancel()
            engine.close()
            return errors

        errors = asyncio.run(main())
        assert len(errors) == 1
        assert isinstance(errors[0], PSException)
        assert "deadlock" in str(errors[0])

    def test_get_timeout_raises_psexception(self):
        async def main():
            engine = TPSEngine(SkiRental)
            _, subscriber = _pair(engine)
            stream = subscriber.stream()
            with pytest.raises(PSException, match="no event arrived"):
                await stream.get(timeout=0.01)
            engine.close()

        asyncio.run(main())


class TestAsyncLifecycle:
    def test_await_close_and_async_with_are_equivalent(self):
        async def main():
            engine = TPSEngine(SkiRental)
            awaited = engine.new_interface("ASYNC")
            await awaited.close()
            assert awaited.closed
            await awaited.close()  # idempotent, awaitable form
            async with engine.new_interface("ASYNC") as scoped:
                assert not scoped.closed
            assert scoped.closed
            engine.close()

        asyncio.run(main())

    def test_engine_close_tears_down_async_interfaces_on_loop(self):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine)
            engine.close()  # generic sync teardown, running on the loop
            return publisher.closed and subscriber.closed

        assert asyncio.run(main())


class TestAsyncBindingRegistry:
    def test_registered_with_capabilities_and_param_schema(self):
        assert "ASYNC" in registered_bindings()
        assert "event-loop" in binding_capabilities("ASYNC")
        report = registered_bindings(with_params=True)
        assert report["ASYNC"] == (
            "dispatch",
            "history",
            "history_size",
            "history_path",
        )

    def test_ill_typed_params_name_the_offending_key(self):
        async def main():
            engine = TPSEngine(SkiRental)
            with pytest.raises(PSException, match="dispatch"):
                engine.new_interface("ASYNC", dispatch=5)
            with pytest.raises(PSException, match="dispatch"):
                engine.new_interface("ASYNC", dispatch="bogus")
            with pytest.raises(PSException, match="ring_size"):
                engine.new_interface("ASYNC", ring_size=4)  # undeclared
            engine.close()

        asyncio.run(main())

    def test_same_loop_same_params_share_one_bus(self):
        async def main():
            engine = TPSEngine(SkiRental)
            a = engine.new_interface("ASYNC", dispatch="concurrent")
            b = engine.new_interface("ASYNC", dispatch="concurrent")
            default = engine.new_interface("ASYNC")
            # An isolated bus is the explicit-bus spelling.
            isolated = TPSEngine(SkiRental, local_bus=AsyncLocalBus()).new_interface("ASYNC")
            shared = a.bus is b.bus
            distinct = (
                default.bus is not a.bus
                and isolated.bus is not a.bus
                and isolated.bus is not default.bus
            )
            isolated.close()
            engine.close()
            return shared, distinct

        shared, distinct = asyncio.run(main())
        assert shared
        assert distinct

    def test_explicit_bus_rejects_params_and_wrong_bus_type(self):
        async def main():
            bus = AsyncLocalBus()
            direct = TPSEngine(SkiRental, local_bus=bus)
            tps = direct.new_interface("ASYNC")
            assert tps.bus is bus
            with pytest.raises(PSException, match="not both"):
                direct.new_interface("ASYNC", dispatch="serial")
            direct.close()
            wrong = TPSEngine(SkiRental, local_bus=LocalBus())
            with pytest.raises(PSException, match="AsyncLocalBus"):
                wrong.new_interface("ASYNC")
            wrong.close()

        asyncio.run(main())


class TestUnregisterCacheReset:
    """Satellite regression: ``unregister_binding`` then re-register must
    not resolve new interfaces onto buses cached under the old spec."""

    def test_async_reregistration_does_not_leak_loop_bus_cache(self):
        async def main():
            engine = TPSEngine(SkiRental)
            before = engine.new_interface("ASYNC", dispatch="concurrent")
            try:
                assert unregister_binding("ASYNC")
                register_async_binding()
                after = engine.new_interface("ASYNC", dispatch="concurrent")
                fresh = after.bus is not before.bus
            finally:
                register_async_binding()
            engine.close()
            return fresh

        assert asyncio.run(main())

    def test_sharded_reregistration_does_not_leak_param_bus_cache(self):
        engine = TPSEngine(SkiRental)
        before = engine.new_interface("SHARDED", shards=5)
        try:
            assert unregister_binding("SHARDED")
            register_sharded_binding()
            after = engine.new_interface("SHARDED", shards=5)
            assert after.bus is not before.bus
        finally:
            register_sharded_binding()
        engine.close()

    def test_parameterless_async_interfaces_still_pair_after_reset(self):
        """The per-loop default bus is re-built after a reset, and new
        interfaces pair up on it as usual."""

        async def main():
            try:
                assert unregister_binding("ASYNC")
                register_async_binding()
                engine = TPSEngine(SkiRental)
                publisher, subscriber = _pair(engine)
                inbox: List[Any] = []
                subscriber.subscribe(inbox.append)
                await publisher.publish(_offer("post-reset"))
                engine.close()
                return [event.shop for event in inbox]
            finally:
                register_async_binding()

        assert asyncio.run(main()) == ["post-reset"]


class TestAsyncEngineDirect:
    """The engine class is usable without the registry, like its siblings."""

    def test_direct_construction_and_fanout(self):
        async def main():
            bus = AsyncLocalBus()
            publisher = AsyncTPSEngine(SkiRental, bus=bus)
            subscriber = AsyncTPSEngine(SkiRental, bus=bus)
            inbox: List[Any] = []
            subscriber.subscribe(inbox.append)
            receipt = await publisher.publish(_offer("direct"))
            assert receipt.wire_receipts == [1]
            stream = subscriber.stream()
            assert isinstance(stream, AsyncEventStream)
            await publisher.publish(_offer("streamed"))
            assert [event.shop for event in stream.drain()] == ["streamed"]
            await subscriber.close()
            await publisher.close()
            return [event.shop for event in inbox]

        assert asyncio.run(main()) == ["direct", "streamed"]


class TestLoopClockBreakers:
    """Satellite: ASYNC breakers tick on ``loop.time``, not wall time."""

    def test_breaker_cooldown_follows_a_manually_advanced_loop_clock(self):
        loop = asyncio.new_event_loop()
        fake = [1_000.0]
        loop.time = lambda: fake[0]  # the breakers read the owning loop's clock

        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine)
            subscriber.set_breaker_policy(2, 5.0)
            calls: List[Any] = []
            healthy: List[Any] = []

            def flaky(event: Any) -> None:
                calls.append(event.shop)
                raise RuntimeError("boom")

            subscriber.subscribe(flaky)
            subscriber.subscribe(lambda event: healthy.append(event.shop))
            await publisher.publish(_offer("a"))
            await publisher.publish(_offer("b"))  # second failure trips it
            assert calls == ["a", "b"]
            # Quarantined: deliveries are skipped while the (virtual)
            # cooldown runs, however fast the wall clock moves.
            await publisher.publish(_offer("c"))
            fake[0] += 4.9  # still inside the 5 s cooldown
            await publisher.publish(_offer("d"))
            assert calls == ["a", "b"]
            # Advancing the loop clock past the cooldown opens probation:
            # exactly one delivery gets through (and re-trips on failure).
            fake[0] += 0.2
            await publisher.publish(_offer("e"))
            assert calls == ["a", "b", "e"]
            await publisher.publish(_offer("f"))
            assert calls == ["a", "b", "e"]
            # The healthy subscription on the same interface never skipped.
            assert healthy == ["a", "b", "c", "d", "e", "f"]
            await publisher.close()
            await subscriber.close()
            engine.close()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()
