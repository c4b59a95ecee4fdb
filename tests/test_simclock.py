"""Tests for the discrete-event simulator (repro.net.simclock)."""

from __future__ import annotations

import random

import pytest

from repro.net.simclock import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.clock.now == 0.0


def test_schedule_and_run_fires_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("late"))
    sim.schedule(1.0, lambda: fired.append("early"))
    sim.schedule(3.0, lambda: fired.append("latest"))
    sim.run()
    assert fired == ["early", "late", "latest"]
    assert sim.now == 3.0


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for index in range(5):
        sim.schedule(1.0, lambda i=index: fired.append(i))
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("cancelled"))
    sim.schedule(2.0, lambda: fired.append("kept"))
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == ["kept"]


def test_cancel_twice_is_harmless():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.run() == 0


def test_run_until_stops_at_requested_time():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    count = sim.run_until(2.0)
    assert count == 1
    assert fired == [1]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1, 5]


def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.run_until(1.0)


def test_run_for_advances_relative_to_now():
    sim = Simulator()
    sim.run_until(10.0)
    fired = []
    sim.schedule(3.0, lambda: fired.append(sim.now))
    sim.run_for(5.0)
    assert fired == [13.0]
    assert sim.now == 15.0


def test_run_max_events_bounds_processing():
    sim = Simulator()
    fired = []
    for index in range(10):
        sim.schedule(float(index), lambda i=index: fired.append(i))
    assert sim.run(max_events=3) == 3
    assert fired == [0, 1, 2]


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1.0, lambda: fired.append("chained"))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "chained"]
    assert sim.now == 2.0


def test_periodic_task_fires_repeatedly_and_stops():
    sim = Simulator()
    fired = []
    task = sim.schedule_periodic(1.0, lambda: fired.append(sim.now))
    sim.run_until(3.5)
    assert fired == [1.0, 2.0, 3.0]
    task.stop()
    sim.run_until(10.0)
    assert fired == [1.0, 2.0, 3.0]
    assert task.stopped
    assert task.fire_count == 3


def test_periodic_task_requires_positive_interval():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_periodic(0.0, lambda: None)


def test_periodic_task_cannot_restart_after_stop():
    sim = Simulator()
    task = sim.schedule_periodic(1.0, lambda: None)
    task.stop()
    with pytest.raises(SimulationError):
        task.start()


def test_periodic_task_with_jitter_clamps_delay():
    sim = Simulator()
    fired = []
    sim.schedule_periodic(1.0, lambda: fired.append(sim.now), jitter=lambda: -5.0)
    sim.run_until(0.5)
    # Jitter would make the delay negative; it is clamped to 1 % of the
    # interval, so the task keeps firing without wedging the simulation.
    assert 48 <= len(fired) <= 50  # ~every 0.01 s, modulo float accumulation
    assert all(0.0 < t <= 0.5 for t in fired)


def test_periodic_task_with_positive_jitter_spreads_firings():
    sim = Simulator()
    fired = []
    sim.schedule_periodic(1.0, lambda: fired.append(sim.now), jitter=lambda: 0.5)
    sim.run_until(4.0)
    assert fired == pytest.approx([1.5, 3.0])


def test_drain_returns_when_queue_is_empty():
    sim = Simulator()
    fired = []
    sim.schedule(0.5, lambda: fired.append(1))
    sim.drain(rounds=4, quantum=1.0)
    assert fired == [1]


def test_drain_is_bounded_with_periodic_tasks():
    sim = Simulator()
    counter = []
    sim.schedule_periodic(1.0, lambda: counter.append(1))
    sim.drain(rounds=5, quantum=1.0)
    # The periodic task never empties the queue; drain must still terminate
    # after its round budget.
    assert sim.now == pytest.approx(5.0)


def test_processed_counter_tracks_fired_events():
    sim = Simulator()
    for index in range(4):
        sim.schedule(float(index), lambda: None)
    sim.run()
    assert sim.processed == 4
    assert sim.pending == 0


class _Fire:
    """A callback object that defines no ordering: if the heap ever compared
    two entries past their (time, seq) key, ``<`` on these would raise."""

    def __init__(self, fired, key):
        self.fired, self.key = fired, key

    def __call__(self):
        self.fired.append(self.key)


#: Delays drawn by the model test: few values, so scheduled times collide.
_DELAYS = (0.0, 0.25, 0.25, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("seed", range(12))
def test_seeded_interleaving_fires_in_time_then_fifo_order(seed):
    """A seeded mix of schedule / schedule_at / cancel / step / run_until
    against a model: the live events, fired in (time, seq) order.  Half the
    cancels hit the current head, which step, run_until and pending skip."""
    rng = random.Random(seed)
    sim = Simulator()
    fired, expected = [], []
    handles, live = {}, {}  # key -> handle; key -> (time, key) not yet fired or cancelled

    def fire_head():
        head = min(live.values())
        del live[head[1]]
        expected.append(head[1])

    for _ in range(400):
        op = rng.random()
        if op < 0.4:
            key, delay = len(handles), rng.choice(_DELAYS)
            if rng.random() < 0.5:
                handles[key] = sim.schedule(delay, _Fire(fired, key))
            else:
                handles[key] = sim.schedule_at(sim.now + delay, _Fire(fired, key))
            live[key] = (sim.now + delay, key)
        elif op < 0.55 and live:
            key = min(live.values())[1] if rng.random() < 0.5 else rng.choice(sorted(live))
            handles[key].cancel()
            del live[key]
        elif op < 0.8:
            had_live = bool(live)
            if had_live:
                fire_head()
            assert sim.step() is had_live
        else:
            until = sim.now + rng.choice((0.0, 0.25, 1.0))
            due = sum(1 for time, _ in live.values() if time <= until)
            for _ in range(due):
                fire_head()
            assert sim.run_until(until) == due
            assert sim.now == until
        assert fired == expected
        assert sim.pending == len(live)
    while live:
        fire_head()
    sim.run()
    assert fired == expected
    assert sim.processed == len(expected)
