"""Experiment runners for the paper's Figures 18, 19 and 20.

Each runner drives a :class:`~repro.bench.scenario.Scenario` the way the
paper describes the measurement:

* **Figure 18 -- invocation time**: "We measured the time taken for calling
  the sendMessage() method: The publisher produces here 50 events one after
  [the other]."  One publisher, 1 or 4 subscribers; the per-event invocation
  time is the virtual CPU time each publish call charges to the publisher.
* **Figure 19 -- publisher's throughput**: "We consider here a set of 100
  published events and we measure the time for the publisher to deliver those
  events to the subscriber(s)."  The 100 events are grouped into 10 epochs of
  10 and each epoch's rate (events/second) is reported.
* **Figure 20 -- subscriber's throughput**: "Here the publishers try to flood
  the subscriber (10000 events published per each publisher).  Every second,
  we measure the number of events that are received; during 50 seconds."

Every runner returns a small result dataclass with the raw series plus
aggregate statistics, and the module exposes ``run_figure18/19/20`` helpers
that sweep the variants and participant counts shown in the paper's figures.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.bench.scenario import (
    VARIANTS,
    Scenario,
    ScenarioConfig,
    build_scenario,
)


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _stdev(values: Sequence[float]) -> float:
    return statistics.stdev(values) if len(values) > 1 else 0.0


# ----------------------------------------------------------------- Figure 18


@dataclass
class InvocationTimeSeries:
    """One curve of Figure 18: per-event invocation time for one configuration."""

    variant: str
    subscribers: int
    per_event_ms: List[float]

    @property
    def mean_ms(self) -> float:
        """Mean invocation time in milliseconds."""
        return _mean(self.per_event_ms)

    @property
    def stdev_ms(self) -> float:
        """Standard deviation of the invocation time in milliseconds."""
        return _stdev(self.per_event_ms)

    @property
    def relative_stdev(self) -> float:
        """Standard deviation as a fraction of the mean (the paper quotes ~20-30 %)."""
        mean = self.mean_ms
        return self.stdev_ms / mean if mean else 0.0


@dataclass
class Figure18Result:
    """All curves of Figure 18, keyed by (variant, subscriber count)."""

    events: int
    series: Dict[Tuple[str, int], InvocationTimeSeries] = field(default_factory=dict)

    def get(self, variant: str, subscribers: int) -> InvocationTimeSeries:
        """The curve for one variant and subscriber count."""
        return self.series[(variant, subscribers)]

    def mean_ms(self, variant: str, subscribers: int) -> float:
        """Mean invocation time of one curve, in milliseconds."""
        return self.get(variant, subscribers).mean_ms


def run_invocation_time(
    variant: str,
    *,
    subscribers: int = 1,
    events: int = 50,
    seed: int = 2002,
) -> InvocationTimeSeries:
    """Measure per-event invocation time for one variant (one curve of Figure 18)."""
    scenario = build_scenario(
        ScenarioConfig(variant=variant, publishers=1, subscribers=subscribers, seed=seed)
    )
    publisher = scenario.publishers[0]
    per_event_ms: List[float] = []
    for _ in range(events):
        receipt = publisher.publish()
        per_event_ms.append(receipt.cpu_time * 1000.0)
        # The next event is produced "one after" the previous: wait for the
        # publish call to complete before issuing the next one.
        scenario.run_until(max(scenario.now, receipt.completion_time))
    scenario.settle(rounds=8)
    return InvocationTimeSeries(
        variant=variant, subscribers=subscribers, per_event_ms=per_event_ms
    )


def run_figure18(
    *,
    events: int = 50,
    subscriber_counts: Sequence[int] = (1, 4),
    variants: Sequence[str] = VARIANTS,
    seed: int = 2002,
) -> Figure18Result:
    """Run the full Figure 18 sweep (three variants x {1, 4} subscribers)."""
    result = Figure18Result(events=events)
    for subscribers in subscriber_counts:
        for variant in variants:
            result.series[(variant, subscribers)] = run_invocation_time(
                variant, subscribers=subscribers, events=events, seed=seed
            )
    return result


# ----------------------------------------------------------------- Figure 19


@dataclass
class ThroughputSeries:
    """One curve of Figure 19: per-epoch publisher throughput for one configuration."""

    variant: str
    subscribers: int
    events_per_epoch: int
    epoch_rates: List[float]

    @property
    def mean_rate(self) -> float:
        """Mean publisher throughput in events/second."""
        return _mean(self.epoch_rates)


@dataclass
class Figure19Result:
    """All curves of Figure 19, keyed by (variant, subscriber count)."""

    events: int
    epochs: int
    series: Dict[Tuple[str, int], ThroughputSeries] = field(default_factory=dict)

    def get(self, variant: str, subscribers: int) -> ThroughputSeries:
        """The curve for one variant and subscriber count."""
        return self.series[(variant, subscribers)]

    def mean_rate(self, variant: str, subscribers: int) -> float:
        """Mean publisher throughput of one curve, in events/second."""
        return self.get(variant, subscribers).mean_rate


def run_publisher_throughput(
    variant: str,
    *,
    subscribers: int = 1,
    events: int = 100,
    epochs: int = 10,
    seed: int = 2002,
) -> ThroughputSeries:
    """Measure publisher-side throughput for one variant (one curve of Figure 19)."""
    if events % epochs:
        raise ValueError(f"events ({events}) must be a multiple of epochs ({epochs})")
    scenario = build_scenario(
        ScenarioConfig(variant=variant, publishers=1, subscribers=subscribers, seed=seed)
    )
    publisher = scenario.publishers[0]
    per_epoch = events // epochs
    epoch_rates: List[float] = []
    for _ in range(epochs):
        epoch_start = scenario.now
        for _ in range(per_epoch):
            receipt = publisher.publish()
            scenario.run_until(max(scenario.now, receipt.completion_time))
        elapsed = scenario.now - epoch_start
        epoch_rates.append(per_epoch / elapsed if elapsed > 0 else 0.0)
    scenario.settle(rounds=8)
    return ThroughputSeries(
        variant=variant,
        subscribers=subscribers,
        events_per_epoch=per_epoch,
        epoch_rates=epoch_rates,
    )


def run_figure19(
    *,
    events: int = 100,
    epochs: int = 10,
    subscriber_counts: Sequence[int] = (1, 4),
    variants: Sequence[str] = VARIANTS,
    seed: int = 2002,
) -> Figure19Result:
    """Run the full Figure 19 sweep (three variants x {1, 4} subscribers)."""
    result = Figure19Result(events=events, epochs=epochs)
    for subscribers in subscriber_counts:
        for variant in variants:
            result.series[(variant, subscribers)] = run_publisher_throughput(
                variant, subscribers=subscribers, events=events, epochs=epochs, seed=seed
            )
    return result


# ----------------------------------------------------------------- Figure 20


@dataclass
class ReceiveRateSeries:
    """One curve of Figure 20: events received per second at the subscriber."""

    variant: str
    publishers: int
    per_second: List[int]

    @property
    def mean_rate(self) -> float:
        """Mean subscriber-side throughput in events/second."""
        return _mean([float(v) for v in self.per_second])

    @property
    def stdev_rate(self) -> float:
        """Standard deviation of the per-second receive counts."""
        return _stdev([float(v) for v in self.per_second])


@dataclass
class Figure20Result:
    """All curves of Figure 20, keyed by (variant, publisher count)."""

    duration: float
    series: Dict[Tuple[str, int], ReceiveRateSeries] = field(default_factory=dict)

    def get(self, variant: str, publishers: int) -> ReceiveRateSeries:
        """The curve for one variant and publisher count."""
        return self.series[(variant, publishers)]

    def mean_rate(self, variant: str, publishers: int) -> float:
        """Mean subscriber-side throughput of one curve, in events/second."""
        return self.get(variant, publishers).mean_rate


def run_subscriber_throughput(
    variant: str,
    *,
    publishers: int = 1,
    duration: float = 50.0,
    events_per_publisher: int = 10_000,
    seed: int = 2002,
) -> ReceiveRateSeries:
    """Measure subscriber-side throughput for one variant (one curve of Figure 20).

    Each publisher floods the single subscriber: as soon as one publish call
    completes the next one is issued, up to ``events_per_publisher`` events or
    until the measurement window (``duration`` seconds) closes.
    """
    scenario = build_scenario(
        ScenarioConfig(variant=variant, publishers=publishers, subscribers=1, seed=seed)
    )
    subscriber = scenario.subscribers[0]
    start = scenario.now
    deadline = start + duration
    simulator = scenario.simulator

    def pump(handle, remaining: int) -> None:
        if remaining <= 0 or simulator.now >= deadline:
            return
        receipt = handle.publish()
        completion = max(simulator.now, receipt.completion_time)
        if completion < deadline:
            simulator.schedule_at(
                completion, lambda: pump(handle, remaining - 1), label="fig20-pump"
            )

    for handle in scenario.publishers:
        pump(handle, events_per_publisher)
    simulator.run_until(deadline)

    receive_times = [t for t in subscriber.receive_times() if start <= t < deadline]
    per_second = [0] * int(duration)
    for timestamp in receive_times:
        index = int(timestamp - start)
        if 0 <= index < len(per_second):
            per_second[index] += 1
    return ReceiveRateSeries(variant=variant, publishers=publishers, per_second=per_second)


def run_figure20(
    *,
    duration: float = 50.0,
    publisher_counts: Sequence[int] = (1, 4),
    variants: Sequence[str] = VARIANTS,
    events_per_publisher: int = 10_000,
    seed: int = 2002,
) -> Figure20Result:
    """Run the full Figure 20 sweep (three variants x {1, 4} publishers)."""
    result = Figure20Result(duration=duration)
    for publishers in publisher_counts:
        for variant in variants:
            result.series[(variant, publishers)] = run_subscriber_throughput(
                variant,
                publishers=publishers,
                duration=duration,
                events_per_publisher=events_per_publisher,
                seed=seed,
            )
    return result


__all__ = [
    "Figure18Result",
    "Figure19Result",
    "Figure20Result",
    "InvocationTimeSeries",
    "ReceiveRateSeries",
    "ThroughputSeries",
    "run_figure18",
    "run_figure19",
    "run_figure20",
    "run_invocation_time",
    "run_publisher_throughput",
    "run_subscriber_throughput",
]
