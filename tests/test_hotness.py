"""Tests for the cascading discriminator, tracker, and interval analysis."""

import numpy as np
import pytest

from repro.common.keys import encode_key
from repro.hotness import (
    CascadingDiscriminator,
    HotnessTracker,
    access_intervals,
    interval_conditional_probabilities,
)
from repro.hotness.interval import probability_summary


class TestCascadingDiscriminator:
    def test_hot_object_detected(self):
        d = CascadingDiscriminator(window_capacity=100, max_filters=4, hot_threshold=3)
        hot_key = encode_key(0)
        # The hot key appears in every window; filler keys rotate.
        filler = 1
        for _ in range(500):
            d.access(hot_key)
            for _ in range(9):
                d.access(encode_key(filler))
                filler += 1
        assert d.num_sealed >= 3
        assert d.is_hot(hot_key)

    def test_cold_object_not_hot(self):
        d = CascadingDiscriminator(window_capacity=100, hot_threshold=3)
        for i in range(1000):
            d.access(encode_key(i))
        assert not d.is_hot(encode_key(10**7))

    def test_one_shot_object_not_hot(self):
        d = CascadingDiscriminator(window_capacity=50, hot_threshold=3)
        once = encode_key(999_999)
        d.access(once)
        for i in range(1000):
            d.access(encode_key(i))
        assert not d.is_hot(once)

    def test_requires_consecutive_windows(self):
        d = CascadingDiscriminator(window_capacity=10, max_filters=4, hot_threshold=3)
        k = encode_key(42)
        # Present in windows 1, 2, skip 3, present in 4: runs of 2 and 1.
        patterns = [True, True, False, True]
        for present in patterns:
            if present:
                d.access(k)
                for i in range(9):
                    d.access(encode_key(1000 + i))
            else:
                for i in range(10):
                    d.access(encode_key(2000 + i))
        assert d.num_sealed == 4
        assert not d.is_hot(k)

    def test_fifo_eviction_bounds_filters(self):
        d = CascadingDiscriminator(window_capacity=10, max_filters=4)
        for i in range(200):
            d.access(encode_key(i))
        assert d.num_sealed <= 4

    def test_too_few_windows_never_hot(self):
        d = CascadingDiscriminator(window_capacity=1000, hot_threshold=3)
        k = encode_key(1)
        for _ in range(100):
            d.access(k)
        assert not d.is_hot(k)  # nothing sealed yet

    def test_memory_bounded(self):
        d = CascadingDiscriminator(window_capacity=1000, max_filters=4, bits_per_key=10)
        for i in range(10_000):
            d.access(encode_key(i))
        # 5 filters (4 sealed + 1 open) * 10000 bits / 8.
        assert d.memory_bytes <= 5 * (1000 * 10 // 8) + 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            CascadingDiscriminator(window_capacity=0)
        with pytest.raises(ValueError):
            CascadingDiscriminator(window_capacity=10, max_filters=2, hot_threshold=3)


class TestHotnessTracker:
    def test_skewed_workload_separates_hot_and_cold(self):
        # 80/20 workload: 20% of keys receive 80% of accesses.
        rng = np.random.default_rng(0)
        n_keys = 1000
        tracker = HotnessTracker(partition_capacity_objects=1000)
        hot_keys = set(range(n_keys // 5))
        for _ in range(20_000):
            if rng.random() < 0.8:
                kid = int(rng.integers(0, n_keys // 5))
            else:
                kid = int(rng.integers(n_keys // 5, n_keys))
            tracker.record_access(encode_key(kid))
        hot_detected = sum(
            1 for k in range(n_keys) if tracker.is_hot(encode_key(k))
        )
        hot_correct = sum(
            1 for k in hot_keys if tracker.is_hot(encode_key(k))
        )
        # Most detected-hot objects are truly hot, and most truly hot
        # objects are detected.
        assert hot_correct > len(hot_keys) * 0.7
        assert hot_detected < n_keys * 0.5

    def test_counters(self):
        tracker = HotnessTracker(10)
        tracker.record_access(b"k")
        tracker.is_hot(b"k")
        assert tracker.accesses == 1
        assert tracker.queries == 1


class TestIntervalAnalysis:
    def test_access_intervals(self):
        trace = ["a", "b", "a", "c", "a", "b"]
        iv = access_intervals(trace)
        assert list(iv["a"]) == [2, 2]
        assert list(iv["b"]) == [4]
        assert "c" not in iv  # single access, no interval

    def test_integer_trace_matches_hashable_fallback(self):
        # The argsort fast path for integer traces must group exactly like
        # the per-access loop (it once keyed groups by trace position, so
        # colliding keys overwrote each other and most objects vanished).
        trace = np.random.default_rng(7).integers(0, 300, size=5000).tolist()
        fast = access_intervals(trace)
        slow = access_intervals([str(k) for k in trace])
        assert sorted(fast) == sorted(int(k) for k in slow)
        for key, gaps in fast.items():
            assert list(gaps) == list(slow[str(key)])

    def test_periodic_object_fully_predictable(self):
        trace = ["x", "y", "z"] * 100
        probs = interval_conditional_probabilities(trace, threshold=5, history=1)
        assert np.all(probs == 1.0)

    def test_interval_above_threshold_excluded(self):
        trace = ["x", "y", "z"] * 100
        probs = interval_conditional_probabilities(trace, threshold=2, history=1)
        assert len(probs) == 0  # every interval is 3 >= threshold

    def test_higher_history_raises_confidence_on_8020(self):
        # Reproduce the Fig. 6a trend: conditioning on more past intervals
        # (s=5 vs s=1) increases the conditional probability.
        rng = np.random.default_rng(42)
        n_keys = 500
        trace = []
        for _ in range(50_000):
            if rng.random() < 0.8:
                trace.append(int(rng.integers(0, n_keys // 5)))
            else:
                trace.append(int(rng.integers(n_keys // 5, n_keys)))
        t = int(0.02 * len(trace))
        p1 = probability_summary(
            interval_conditional_probabilities(trace, threshold=t, history=1)
        )
        p5 = probability_summary(
            interval_conditional_probabilities(trace, threshold=t, history=5)
        )
        assert p5["median"] >= p1["median"]
        # At the paper's threshold (20% of the workload size) the median
        # conditional probability is high.
        p_wide = probability_summary(
            interval_conditional_probabilities(
                trace, threshold=len(trace) // 5, history=1
            )
        )
        assert p_wide["median"] > 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            interval_conditional_probabilities(["a"], threshold=0)
        with pytest.raises(ValueError):
            interval_conditional_probabilities(["a"], threshold=1, history=0)

    def test_summary_empty(self):
        # Regression: an empty input used to report all-zero quantiles
        # (indistinguishable from "every object is cold") and a float
        # object count.  Emptiness is now explicit: NaN quantiles, int 0.
        s = probability_summary(np.array([]))
        assert s["objects"] == 0
        assert isinstance(s["objects"], int)
        assert np.isnan(s["median"])
        assert np.isnan(s["p25"])
        assert np.isnan(s["p75"])

    def test_summary_objects_is_int(self):
        s = probability_summary(np.array([0.25, 0.75]))
        assert s["objects"] == 2
        assert isinstance(s["objects"], int)
