"""Unit tests for counters and latency histograms."""

import numpy as np

from repro.common.stats import Counter, LatencyHistogram, StatsRegistry


class TestCounter:
    def test_add_reset(self):
        c = Counter("x")
        c.add()
        c.add(5)
        assert c.value == 6


class TestLatencyHistogram:
    def test_percentiles_exact(self):
        h = LatencyHistogram()
        for v in range(1, 101):
            h.record(float(v))
        assert h.median == 50.5
        assert abs(h.p99 - np.percentile(np.arange(1, 101), 99)) < 1e-9
        assert h.mean == 50.5

    def test_empty(self):
        h = LatencyHistogram()
        assert h.median == 0.0 and h.p99 == 0.0 and h.mean == 0.0
        assert h.count == 0

    def test_growth_past_initial_capacity(self):
        h = LatencyHistogram(initial_capacity=4)
        h.record_many(range(1000))
        assert h.count == 1000
        assert h.percentile(100) == 999

    def test_record_many_then_record(self):
        h = LatencyHistogram(initial_capacity=2)
        h.record_many([1.0, 2.0, 3.0])
        h.record(4.0)
        assert h.count == 4
        assert list(h.samples()) == [1.0, 2.0, 3.0, 4.0]

    def test_merge(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        a.record_many([1, 2])
        b.record_many([3, 4])
        a.merge(b)
        assert a.count == 4
        assert a.percentile(100) == 4

    def test_samples_readonly(self):
        h = LatencyHistogram()
        h.record(1.0)
        view = h.samples()
        assert not view.flags.writeable


class TestStatsRegistry:
    def test_counter_identity(self):
        r = StatsRegistry()
        assert r.counter("a") is r.counter("a")
        r.counter("a").add(3)
        assert r.snapshot() == {"counters": {"a": 3}}
