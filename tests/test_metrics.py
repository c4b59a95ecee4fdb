"""Tests for the metric collection helpers (repro.net.metrics)."""

from __future__ import annotations

import pytest

from repro.net.metrics import Counter, MetricsRegistry, TimeSeries, Timer


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.increment(-1)


class TestTimer:
    def test_statistics(self):
        """A timer's statistics are its raw samples, in observation order;
        readers reduce them (percentiles, sums) themselves."""
        timer = Timer("t")
        for value in (1.0, 2.0, 3.0):
            timer.observe(value)
        assert timer.samples == [1.0, 2.0, 3.0]

    def test_negative_duration_rejected(self):
        timer = Timer("t")
        with pytest.raises(ValueError):
            timer.observe(-1.0)
        assert timer.samples == []

    def test_zero_duration_accepted(self):
        timer = Timer("t")
        timer.observe(0.0)
        assert timer.samples == [0.0]


class TestTimeSeries:
    def test_record_and_values(self):
        """The values a series holds are its recorded stamps."""
        series = TimeSeries("s")
        series.record(0.5)
        series.record(1.5)
        assert len(series) == 2
        assert series.times == [0.5, 1.5]

    def test_empty_series(self):
        series = TimeSeries("s")
        assert len(series) == 0
        assert series.times == []

    def test_out_of_order_samples_accepted(self):
        series = TimeSeries("s")
        series.record(2.0)
        series.record(1.0)
        assert series.times == [2.0, 1.0]


class TestMetricsRegistry:
    def test_same_name_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.timer("y") is registry.timer("y")
        assert registry.series("z") is registry.series("z")

    def test_counters_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("a").increment(2)
        registry.counter("b").increment()
        assert registry.counters() == {"a": 2, "b": 1}

    def test_counters_snapshot_is_a_sorted_copy(self):
        registry = MetricsRegistry()
        registry.counter("b").increment()
        registry.counter("a").increment()
        snapshot = registry.counters()
        assert list(snapshot) == ["a", "b"]
        snapshot["a"] = 99
        assert registry.counter("a").value == 1

    def test_gauge_levels(self):
        registry = MetricsRegistry()
        assert registry.gauge("depth") is registry.gauge("depth")
        registry.gauge("membership_alive").set(3)
        registry.gauge("depth").set(1.0)
        registry.gauge("depth").set(0.5)  # a level moves both ways
        assert registry.gauge("depth").value == 0.5
        assert registry.gauge("membership_alive").value == 3

    def test_timers_and_series_views(self):
        """The views the benchmark sums its retained-sample count over."""
        registry = MetricsRegistry()
        assert registry.timers() == {} and registry.all_series() == {}
        registry.timer("t").observe(0.25)
        registry.series("s").record(1.0)
        assert registry.timers() == {"t": registry.timer("t")}
        assert registry.all_series() == {"s": registry.series("s")}
        registry.timers().clear()  # a copy: the registry keeps its metrics
        assert list(registry.timers()) == ["t"]
