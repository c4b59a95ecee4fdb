"""A differential ``hypothesis.stateful`` model of both stream flavours.

One :class:`~hypothesis.stateful.RuleBasedStateMachine` drives, side by
side, a threaded :class:`~repro.core.subscriptions.EventStream` (a LOCAL
publisher/subscriber pair) and an
:class:`~repro.core.async_engine.AsyncEventStream` (an ASYNC pair on a
private loop), plus :class:`StreamModel`, a pure model of what a stream must
do with no thread, loop or history store.  The rules publish, drain, get
(when something is buffered), ``resume(k)`` and close, over ``maxsize`` 0, 1
and 3, both overflow policies, live and cursor mode.  After every step the
delivered sequences, ``offset``, ``pending``, ``dropped`` and the errors
routed to the paired handler agree across the two flavours and the model.

A full ``"block"`` buffer must not hang the machine: it consumes once before
anything is published, so the publisher is the stream's only consumer and
the re-entrant deadlock refusal fires -- deterministically, and on both
flavours, because every asyncio call runs in one long-lived task.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
from typing import Any, Callable, List, Optional

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.apps.skirental.types import SkiRental
from repro.core import TPSEngine
from repro.core.exceptions import PSException
from repro.core.local_engine import LocalBus
from repro.core.subscriptions import STREAM_POLICIES


class StreamModel:
    """What a stream delivers, given what was published and consumed."""

    def __init__(self, maxsize: int, policy: str, resumable: bool) -> None:
        self.maxsize, self.policy, self.resumable = maxsize, policy, resumable
        self.history: List[int] = []
        self.buffer: List[int] = []
        self.delivered: List[int] = []
        self.offset = self.dropped = self.refused = 0
        self.closed = False

    def publish(self, value: int) -> None:
        self.history.append(value)
        if self.closed:
            return
        if self.resumable:
            self.pull()
        else:
            self.put(value)

    def pull(self) -> None:
        while self.offset < len(self.history):
            self.offset += 1
            if not self.put(self.history[self.offset - 1]):
                return

    def put(self, value: int) -> bool:
        if self.maxsize and len(self.buffer) >= self.maxsize:
            if self.policy == "block":
                self.refused += 1  # the deadlock refusal, routed to the handler
                return False
            del self.buffer[0]
            self.dropped += 1
        self.buffer.append(value)
        return True

    def resume(self, offset: int) -> None:
        self.buffer.clear()
        self.offset = offset
        self.pull()


def _offer(value: int) -> SkiRental:
    return SkiRental(f"shop-{value}", float(value), "Salomon", 7)


def _values(events: List[Any]) -> List[int]:
    return [int(event.price) for event in events]


def _direct(fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


class _LoopRunner:
    """Runs every call in one long-lived task on a private event loop.

    The stream tells its consumers apart by task, so the machine's calls
    must all come from one task -- the asyncio analogue of the machine's
    one thread -- for the deadlock refusal to fire.
    """

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._calls: asyncio.Queue = asyncio.Queue()
        self._task = self.loop.create_task(self._serve())

    async def _serve(self) -> None:
        while True:
            fn, args, done = await self._calls.get()
            try:
                result = fn(*args)
                done.set_result(await result if inspect.isawaitable(result) else result)
            except Exception as error:  # noqa: BLE001 - re-raised by run()
                done.set_exception(error)

    def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        done = self.loop.create_future()
        self._calls.put_nowait((fn, args, done))
        return self.loop.run_until_complete(done)

    def close(self) -> None:
        self._task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            self.loop.run_until_complete(self._task)
        self.loop.close()


class _Side:
    """One flavour: a publisher, a subscriber and its stream, called
    through ``call`` (directly, or inside the loop runner's task)."""

    def __init__(
        self,
        call: Callable[..., Any],
        engine: TPSEngine,
        binding: str,
        maxsize: int,
        policy: str,
        from_offset: Optional[int],
    ) -> None:
        self.call = call
        self.errors: List[BaseException] = []
        self.delivered: List[int] = []
        self.publisher = call(engine.new_interface, binding)
        self.subscriber = call(engine.new_interface, binding)
        # Keeps the received history recording after the stream closes.
        call(self.subscriber.subscribe, lambda event: None)
        builder = self.subscriber.subscription().on_error(self.errors.append)
        self.stream = call(builder.stream, maxsize, policy, from_offset)


class StreamMachine(RuleBasedStateMachine):
    @initialize(
        maxsize=st.sampled_from((0, 1, 3)),
        policy=st.sampled_from(STREAM_POLICIES),
        resumable=st.booleans(),
    )
    def build(self, maxsize: int, policy: str, resumable: bool) -> None:
        self.model = StreamModel(maxsize, policy, resumable)
        self.runner = _LoopRunner()
        from_offset = 0 if resumable else None
        local = TPSEngine(SkiRental, local_bus=LocalBus())
        self.sides = [
            _Side(_direct, local, "LOCAL", maxsize, policy, from_offset),
            _Side(self.runner.run, TPSEngine(SkiRental), "ASYNC", maxsize, policy, from_offset),
        ]
        for side in self.sides:
            assert side.call(side.stream.drain) == []  # registers the consumer

    @rule(count=st.integers(1, 4))
    def publish(self, count: int) -> None:
        for _ in range(count):
            value = len(self.model.history)
            self.model.publish(value)
            for side in self.sides:
                side.call(side.publisher.publish, _offer(value))

    @rule()
    def drain(self) -> None:
        self.model.delivered += self.model.buffer
        self.model.buffer = []
        for side in self.sides:
            side.delivered += _values(side.call(side.stream.drain))

    @precondition(lambda self: self.model.buffer)
    @rule()
    def get(self) -> None:
        self.model.delivered.append(self.model.buffer.pop(0))
        for side in self.sides:
            side.delivered.append(int(side.call(side.stream.get, 1.0).price))

    @rule(offset=st.integers(0, 8))
    def resume(self, offset: int) -> None:
        model = self.model
        if model.policy == "block" and model.maxsize:
            # The consumer's own resume must not overfill a "block" buffer.
            offset = max(offset, len(model.history) - model.maxsize)
        refused = not model.resumable or model.closed
        if not refused:
            model.resume(offset)
        for side in self.sides:
            try:
                side.call(side.stream.resume, offset)
            except PSException:
                assert refused
            else:
                assert not refused

    # Only once the stream has seen traffic: an early close would leave the
    # rest of the run publishing past a stream that no longer listens.
    @precondition(lambda self: len(self.model.history) >= 8)
    @rule()
    def close(self) -> None:
        self.model.closed = True
        for side in self.sides:
            side.call(side.stream.close)

    @invariant()
    def flavours_agree_with_the_model(self) -> None:
        model = self.model
        expected = (
            model.delivered,
            model.offset,
            len(model.buffer),
            model.dropped,
            model.refused,
        )
        for side in self.sides:
            stream = side.stream
            observed = (
                side.delivered,
                stream.offset,
                stream.pending,
                stream.dropped,
                len(side.errors),
            )
            assert observed == expected
        assert all(isinstance(error, PSException) for side in self.sides for error in side.errors)

    def teardown(self) -> None:
        for side in getattr(self, "sides", ()):
            side.call(side.publisher.close)
            side.call(side.subscriber.close)
        if hasattr(self, "runner"):
            self.runner.close()


StreamMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
TestStreamModel = StreamMachine.TestCase
