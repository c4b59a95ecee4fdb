"""Metric collection for simulated experiments.

The benchmark harness reproduces the paper's figures by sampling counters and
time series exactly the way the paper describes (per-event invocation times,
per-epoch publisher throughput, per-second subscriber receive counts).  The
classes here are deliberately small and dependency-free so the substrate can
record metrics without caring who reads them.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class Counter:
    """A monotonically increasing named counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge-style TimeSeries instead")
        self.value += amount

    def reset(self) -> None:
        """Reset to zero (used between benchmark epochs)."""
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named value that can move both ways (unlike a :class:`Counter`).

    Added for the membership layer: "alive members right now" is a level,
    not an accumulation, and resetting a counter to fake decrements would
    wreck the monotonicity the bench harness relies on.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Set the current level."""
        self.value = value

    def increment(self, amount: float = 1.0) -> None:
        """Move the level up by ``amount``."""
        self.value += amount

    def decrement(self, amount: float = 1.0) -> None:
        """Move the level down by ``amount``."""
        self.value -= amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self.value})"


class Timer:
    """Accumulates observed durations and exposes simple statistics."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[float] = []

    def observe(self, duration: float) -> None:
        """Record a duration in seconds."""
        if duration < 0:
            raise ValueError(f"negative duration recorded on timer {self.name!r}: {duration}")
        self.samples.append(duration)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self.samples)

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return sum(self.samples)

    @property
    def mean(self) -> float:
        """Mean of recorded samples (0.0 when empty)."""
        return statistics.fmean(self.samples) if self.samples else 0.0

    @property
    def stdev(self) -> float:
        """Sample standard deviation (0.0 with fewer than two samples)."""
        return statistics.stdev(self.samples) if len(self.samples) > 1 else 0.0

    def percentile(self, q: float) -> float:
        """Return the ``q``-quantile (0 <= q <= 1) of the samples."""
        if not self.samples:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be within [0, 1], got {q}")
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[index]

    def reset(self) -> None:
        """Discard all samples."""
        self.samples.clear()


@dataclass
class Sample:
    """One timestamped observation in a :class:`TimeSeries`."""

    time: float
    value: float


class TimeSeries:
    """An append-only series of (virtual time, value) samples.

    Provides the bucketing helpers the figure harness needs: events per epoch
    (Figure 19) and events per second (Figure 20).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[Sample] = []

    def record(self, time: float, value: float = 1.0) -> None:
        """Append a sample at the given virtual time.

        Samples are usually recorded in time order, but out-of-order samples
        are accepted (e.g. send completions computed ahead of time); the
        bucketing helpers do not depend on insertion order.
        """
        self._samples.append(Sample(time, value))

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self._samples)

    @property
    def values(self) -> List[float]:
        """All sample values in insertion order."""
        return [s.value for s in self._samples]

    @property
    def times(self) -> List[float]:
        """All sample timestamps in insertion order."""
        return [s.time for s in self._samples]

    def counts_per_bucket(
        self,
        bucket_width: float,
        *,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> List[int]:
        """Return the number of samples falling in each ``bucket_width``-wide bucket.

        Buckets start at ``start`` and extend to ``end`` (defaults to the last
        sample's time).  Used for "events received per second" style series.
        """
        if bucket_width <= 0:
            raise ValueError("bucket width must be positive")
        if end is None:
            end = self._samples[-1].time if self._samples else start
        n_buckets = max(1, math.ceil((end - start) / bucket_width))
        counts = [0] * n_buckets
        for sample in self._samples:
            if sample.time < start or sample.time >= start + n_buckets * bucket_width:
                continue
            index = int((sample.time - start) / bucket_width)
            counts[index] += 1
        return counts

    def rate_per_bucket(
        self,
        bucket_width: float,
        *,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> List[float]:
        """Like :meth:`counts_per_bucket` but normalised to events/second."""
        return [c / bucket_width for c in self.counts_per_bucket(bucket_width, start=start, end=end)]

    def reset(self) -> None:
        """Discard all samples."""
        self._samples.clear()


class MetricsRegistry:
    """A flat namespace of counters, timers and time series.

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
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

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

    def gauges(self) -> Dict[str, float]:
        """Snapshot of all gauge levels."""
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def timers(self) -> Dict[str, Timer]:
        """All timers, keyed by name."""
        return dict(self._timers)

    def all_series(self) -> Dict[str, TimeSeries]:
        """All time series, keyed by name."""
        return dict(self._series)

    def reset(self) -> None:
        """Reset every metric in the registry."""
        for counter in self._counters.values():
            counter.reset()
        for timer in self._timers.values():
            timer.reset()
        for series in self._series.values():
            series.reset()
        for gauge in self._gauges.values():
            gauge.set(0.0)


def summarize(samples: Iterable[float]) -> Tuple[float, float, float, float]:
    """Return (mean, stdev, min, max) of an iterable of samples.

    Empty input yields all zeros.  Used by the reporting layer.
    """
    data = list(samples)
    if not data:
        return (0.0, 0.0, 0.0, 0.0)
    mean = statistics.fmean(data)
    stdev = statistics.stdev(data) if len(data) > 1 else 0.0
    return (mean, stdev, min(data), max(data))


__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Sample",
    "TimeSeries",
    "Timer",
    "summarize",
]
