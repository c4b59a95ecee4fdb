"""Tests for the metric collection helpers (repro.net.metrics)."""

from __future__ import annotations

import pytest

from repro.net.metrics import Counter, MetricsRegistry, TimeSeries, Timer, summarize


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

    def test_reset(self):
        counter = Counter("c")
        counter.increment(3)
        counter.reset()
        assert counter.value == 0


class TestTimer:
    def test_statistics(self):
        timer = Timer("t")
        for value in (1.0, 2.0, 3.0):
            timer.observe(value)
        assert timer.count == 3
        assert timer.total == pytest.approx(6.0)
        assert timer.mean == pytest.approx(2.0)
        assert timer.stdev == pytest.approx(1.0)

    def test_empty_timer_statistics_are_zero(self):
        timer = Timer("t")
        assert timer.mean == 0.0
        assert timer.stdev == 0.0
        assert timer.percentile(0.5) == 0.0

    def test_negative_duration_rejected(self):
        timer = Timer("t")
        with pytest.raises(ValueError):
            timer.observe(-1.0)

    def test_percentile(self):
        timer = Timer("t")
        for value in range(1, 11):
            timer.observe(float(value))
        assert timer.percentile(0.5) == pytest.approx(5.0)
        assert timer.percentile(1.0) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            timer.percentile(1.5)

    def test_reset(self):
        timer = Timer("t")
        timer.observe(1.0)
        timer.reset()
        assert timer.count == 0


class TestTimeSeries:
    def test_record_and_values(self):
        series = TimeSeries("s")
        series.record(0.5)
        series.record(1.5, value=2.0)
        assert len(series) == 2
        assert series.values == [1.0, 2.0]
        assert series.times == [0.5, 1.5]

    def test_counts_per_bucket(self):
        series = TimeSeries("s")
        for timestamp in (0.1, 0.2, 1.5, 2.9, 3.1):
            series.record(timestamp)
        counts = series.counts_per_bucket(1.0, start=0.0, end=4.0)
        assert counts == [2, 1, 1, 1]

    def test_counts_per_bucket_ignores_out_of_range_samples(self):
        series = TimeSeries("s")
        series.record(0.5)
        series.record(9.5)
        counts = series.counts_per_bucket(1.0, start=0.0, end=2.0)
        assert counts == [1, 0]

    def test_rate_per_bucket_normalises(self):
        series = TimeSeries("s")
        for timestamp in (0.1, 0.2, 0.3, 0.4):
            series.record(timestamp)
        rates = series.rate_per_bucket(0.5, start=0.0, end=0.5)
        assert rates == [8.0]

    def test_bucket_width_must_be_positive(self):
        series = TimeSeries("s")
        with pytest.raises(ValueError):
            series.counts_per_bucket(0.0)

    def test_empty_series_buckets(self):
        series = TimeSeries("s")
        assert series.counts_per_bucket(1.0) == [0]

    def test_out_of_order_samples_accepted(self):
        series = TimeSeries("s")
        series.record(2.0)
        series.record(1.0)
        assert series.counts_per_bucket(1.0, start=0.0, end=3.0) == [0, 1, 1]


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

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("a").increment()
        registry.timer("t").observe(1.0)
        registry.series("s").record(0.1)
        registry.reset()
        assert registry.counters() == {"a": 0}
        assert registry.timer("t").count == 0
        assert len(registry.series("s")) == 0

    def test_gauges_snapshot_and_reset(self):
        registry = MetricsRegistry()
        assert registry.gauge("depth") is registry.gauge("depth")
        registry.gauge("membership_alive").set(3)
        registry.gauge("depth").increment(2)
        registry.gauge("depth").decrement()
        assert registry.gauges() == {"depth": 1.0, "membership_alive": 3}
        registry.reset()
        assert registry.gauges() == {"depth": 0.0, "membership_alive": 0.0}


def test_summarize():
    mean, stdev, low, high = summarize([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert stdev == pytest.approx(1.0)
    assert (low, high) == (1.0, 3.0)


def test_summarize_empty():
    assert summarize([]) == (0.0, 0.0, 0.0, 0.0)
