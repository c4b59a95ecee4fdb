"""Metric collection for simulated experiments.

Every simulated node owns a :class:`MetricsRegistry`.  The substrate and the
TPS layer count what happened on it (packets, envelopes, retries, deliveries)
and the Figure 20 scenario reads the virtual receive times of the
``wire_received`` series.  The classes here are deliberately small and
dependency-free so the substrate can record metrics without caring who reads
them.
"""

from __future__ import annotations

from typing import Dict, List


class Counter:
    """A monotonically increasing named counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge for a level")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named value that can move both ways (unlike a :class:`Counter`).

    Added for the membership layer: "alive members right now" is a level,
    not an accumulation.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Set the current level."""
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self.value})"


class Timer:
    """Accumulates observed durations."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[float] = []

    def observe(self, duration: float) -> None:
        """Record a duration in seconds."""
        if duration < 0:
            raise ValueError(f"negative duration recorded on timer {self.name!r}: {duration}")
        self.samples.append(duration)


class TimeSeries:
    """An append-only series of virtual-time stamps.

    Stamps are usually recorded in time order, but out-of-order stamps are
    accepted (e.g. send completions computed ahead of time); :attr:`times`
    keeps insertion order.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: List[float] = []

    def record(self, time: float) -> None:
        """Append a stamp at the given virtual time."""
        self.times.append(time)

    def __len__(self) -> int:
        return len(self.times)


class MetricsRegistry:
    """A flat namespace of counters, gauges, timers and time series.

    Every simulated node owns a registry; the benchmark harness aggregates the
    registries of the peers participating in an experiment.
    """

    def __init__(self, name: str = "metrics") -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._timers: Dict[str, Timer] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._gauges: Dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        """Fetch (creating if needed) the counter with the given name."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """Fetch (creating if needed) the gauge with the given name."""
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def timer(self, name: str) -> Timer:
        """Fetch (creating if needed) the timer with the given name."""
        if name not in self._timers:
            self._timers[name] = Timer(name)
        return self._timers[name]

    def series(self, name: str) -> TimeSeries:
        """Fetch (creating if needed) the time series with the given name."""
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def counters(self) -> Dict[str, int]:
        """Snapshot of all counter values."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def timers(self) -> Dict[str, Timer]:
        """All timers, keyed by name."""
        return dict(self._timers)

    def all_series(self) -> Dict[str, TimeSeries]:
        """All time series, keyed by name."""
        return dict(self._series)


__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "TimeSeries",
    "Timer",
]
