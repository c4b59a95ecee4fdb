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

import itertools
from heapq import heappop, heappush
from typing import Callable, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly (e.g. scheduling in the past)."""


class EventHandle:
    """One scheduled event, returned by :meth:`Simulator.schedule`; usable to cancel it.

    ``time`` is the virtual time at which the event fires (or would have
    fired), ``label`` the human-readable label given at scheduling time.
    """

    __slots__ = ("time", "callback", "label", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None], label: str) -> None:
        self.time = time
        self.callback = callback
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling twice is harmless."""
        self.cancelled = True

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


class Simulator:
    """Discrete-event scheduler driving the simulated network and peers.

    The simulator owns a :class:`SimClock` and a priority queue of events.
    Events scheduled for the same instant fire in FIFO order, which makes runs
    fully deterministic: the heap holds ``(time, seq, handle)`` tuples, so the
    C tuple comparison orders them and never reaches the handle.

    Typical use::

        sim = Simulator()
        sim.schedule(0.5, lambda: print("half a second later"))
        sim.run()
    """

    def __init__(self) -> None:
        self._clock = SimClock()
        self._queue: list[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._processed = 0

    # ------------------------------------------------------------------ time

    @property
    def clock(self) -> SimClock:
        """The simulator's clock (read-only view of time)."""
        return self._clock

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._clock._now

    @property
    def pending(self) -> int:
        """Number of events still waiting to fire (cancelled ones excluded)."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

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
        return self.schedule_at(self._clock._now + delay, callback, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at the absolute virtual time ``time``."""
        if time < self._clock._now:
            raise SimulationError(
                f"cannot schedule into the past (now={self.now}, at={time})"
            )
        event = EventHandle(time, callback, label)
        heappush(self._queue, (time, next(self._seq), event))
        return event

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
        queue = self._queue
        while queue:
            time, _, event = heappop(queue)
            if event.cancelled:
                continue
            # The heap pops in time order and schedule_at refuses the past,
            # so the clock only ever moves forwards here.
            self._clock._now = time
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
        queue = self._queue
        while queue:
            head_time, _, head = queue[0]
            if head.cancelled:
                heappop(queue)
                continue
            if head_time > time:
                break
            self.step()
            fired += 1
        self._clock._now = time  # not backwards: checked on entry
        return fired

    def run_for(self, duration: float) -> int:
        """Run for ``duration`` seconds of virtual time from now."""
        return self.run_until(self.now + duration)

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


__all__ = [
    "EventHandle",
    "PeriodicTask",
    "SimClock",
    "SimulationError",
    "Simulator",
]
