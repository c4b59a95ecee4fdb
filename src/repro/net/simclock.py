"""Virtual clock and discrete-event scheduler.

The simulator is the heartbeat of the whole reproduction: peers, protocols and
the TPS layer never sleep or consult the wall clock; they schedule callbacks on
a :class:`Simulator` and the benchmark harness advances virtual time.  This
keeps every experiment deterministic and independent of the speed of the
machine the reproduction runs on, which is exactly what we need to reproduce
the *shape* of the paper's figures rather than accidental artefacts of the
host machine.

Time is measured in (floating point) seconds of virtual time.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly (e.g. scheduling in the past)."""


@dataclass(order=True)
class _ScheduledEvent:
    """Internal heap entry: ordered by (time, sequence number)."""

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`, usable to cancel the event."""

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """The virtual time at which the event fires (or would have fired)."""
        return self._event.time

    @property
    def label(self) -> str:
        """Human-readable label given at scheduling time."""
        return self._event.label

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling twice is harmless."""
        self._event.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, {state}, label={self.label!r})"


class SimClock:
    """A read-only view of virtual time.

    Components hold a reference to the clock so they can timestamp metrics and
    advertisements without being able to advance time themselves.
    """

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def _advance_to(self, t: float) -> None:
        if t < self._now:
            raise SimulationError(
                f"clock cannot move backwards (now={self._now}, requested={t})"
            )
        self._now = t


class Simulator:
    """Discrete-event scheduler driving the simulated network and peers.

    The simulator owns a :class:`SimClock` and a priority queue of events.
    Events scheduled for the same instant fire in FIFO order, which makes runs
    fully deterministic.

    Typical use::

        sim = Simulator()
        sim.schedule(0.5, lambda: print("half a second later"))
        sim.run()
    """

    def __init__(self) -> None:
        self._clock = SimClock()
        self._queue: list[_ScheduledEvent] = []
        self._seq = itertools.count()
        self._processed = 0
        self._running = False

    # ------------------------------------------------------------------ time

    @property
    def clock(self) -> SimClock:
        """The simulator's clock (read-only view of time)."""
        return self._clock

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._clock.now

    @property
    def pending(self) -> int:
        """Number of events still waiting to fire (including cancelled ones)."""
        return sum(1 for e in self._queue if not e.cancelled)

    @property
    def processed(self) -> int:
        """Total number of events that have fired so far."""
        return self._processed

    # ------------------------------------------------------------- scheduling

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative.  Returns an :class:`EventHandle` that
        can be used to cancel the event before it fires.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at the absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (now={self.now}, at={time})"
            )
        event = _ScheduledEvent(time=time, seq=next(self._seq), callback=callback, label=label)
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        label: str = "",
        jitter: Callable[[], float] | None = None,
    ) -> "PeriodicTask":
        """Schedule ``callback`` every ``interval`` seconds until cancelled.

        ``jitter``, if given, is called before each rescheduling and its return
        value is added to the interval.  It may be negative; the resulting
        delay is clamped to at least 1 % of the base interval so a pathological
        jitter can never wedge the simulation in a zero-delay loop.
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive (got {interval})")
        task = PeriodicTask(self, interval, callback, label=label, jitter=jitter)
        task.start()
        return task

    # ---------------------------------------------------------------- running

    def step(self) -> bool:
        """Fire the single next event.  Returns False if the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._clock._advance_to(event.time)
            self._processed += 1
            event.callback()
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` events fired).

        Returns the number of events fired by this call.
        """
        fired = 0
        while self._queue:
            if max_events is not None and fired >= max_events:
                break
            if not self.step():
                break
            fired += 1
        return fired

    def run_until(self, time: float) -> int:
        """Run all events scheduled at or before ``time``; advance the clock to ``time``.

        Returns the number of events fired.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot run backwards (now={self.now}, requested={time})"
            )
        fired = 0
        while self._queue:
            head = self._next_live()
            if head is None or head.time > time:
                break
            self.step()
            fired += 1
        self._clock._advance_to(time)
        return fired

    def run_for(self, duration: float) -> int:
        """Run for ``duration`` seconds of virtual time from now."""
        return self.run_until(self.now + duration)

    def _next_live(self) -> Optional[_ScheduledEvent]:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0] if self._queue else None

    def drain(self, rounds: int = 64, quantum: float = 1.0) -> int:
        """Run until the system goes quiet, bounded by ``rounds`` quanta of time.

        ``drain`` is used by the test-bed helper to let discovery and
        subscription traffic settle before an experiment starts.  Periodic
        tasks never let the queue empty, so instead of waiting for emptiness we
        advance time in ``quantum``-second steps until either the queue is
        empty or ``rounds`` quanta have passed.
        """
        fired = 0
        for _ in range(rounds):
            if not self._queue:
                break
            fired += self.run_for(quantum)
        return fired


class PeriodicTask:
    """A recurring event created by :meth:`Simulator.schedule_periodic`."""

    def __init__(
        self,
        simulator: Simulator,
        interval: float,
        callback: Callable[[], None],
        *,
        label: str = "",
        jitter: Callable[[], float] | None = None,
    ) -> None:
        self._sim = simulator
        self._interval = interval
        self._callback = callback
        self._label = label
        self._jitter = jitter
        self._handle: EventHandle | None = None
        self._stopped = False
        self.fire_count = 0

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` has been called."""
        return self._stopped

    @property
    def interval(self) -> float:
        """The base interval between firings, in seconds."""
        return self._interval

    def start(self) -> None:
        """(Re)arm the task.  Called automatically by ``schedule_periodic``."""
        if self._stopped:
            raise SimulationError("cannot restart a stopped periodic task")
        self._arm()

    def stop(self) -> None:
        """Stop firing.  Idempotent."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    def _arm(self) -> None:
        delay = self._interval
        if self._jitter is not None:
            delay = max(self._interval * 0.01, delay + self._jitter())
        self._handle = self._sim.schedule(delay, self._fire, label=self._label)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fire_count += 1
        try:
            self._callback()
        finally:
            if not self._stopped:
                self._arm()


def run_all(simulators: Iterable[Simulator]) -> None:
    """Run several independent simulators to completion (helper for tests)."""
    for sim in simulators:
        sim.run()


__all__ = [
    "EventHandle",
    "PeriodicTask",
    "SimClock",
    "SimulationError",
    "Simulator",
    "run_all",
]
