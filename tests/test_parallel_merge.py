"""Latency-histogram merging and serial-vs-pooled equality of figure cells.

``LatencyHistogram.merge`` (behind ``RunResult.overall_latency``) must
reproduce the unsharded sample stream without mutating or aliasing its
sources; ``run_jobs`` must return bit-identical cell results at every
worker count.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.context import BenchScale
from repro.bench.experiments import _workload_cell
from repro.common.stats import LatencyHistogram
from repro.parallel import Job, run_jobs
from repro.parallel.pool import unwrap_all
from repro.ycsb import YCSB_WORKLOADS
from repro.ycsb.runner import RunResult

# Dyadic rationals: exactly representable samples, so equality is ``==``.
dyadic = st.integers(min_value=0, max_value=1 << 20).map(lambda v: v / 1024.0)


class TestLatencyHistogramMerge:
    @settings(max_examples=50, deadline=None)
    @given(samples=st.lists(dyadic, max_size=200), k=st.integers(1, 5))
    def test_sharded_merge_equals_unsharded_stream(self, samples, k):
        unsharded = LatencyHistogram(initial_capacity=4)
        unsharded.record_many(samples)
        merged = LatencyHistogram(initial_capacity=4)
        for i in range(k):
            shard = LatencyHistogram(initial_capacity=4)
            # Contiguous chunks: shard order concatenates back to the
            # original stream, sample-exact.
            shard.record_many(samples[i * len(samples) // k : (i + 1) * len(samples) // k])
            merged.merge(shard)
        assert merged.count == unsharded.count
        assert np.array_equal(merged.samples(), unsharded.samples())
        assert merged.median == unsharded.median
        assert merged.p99 == unsharded.p99

    def test_merge_does_not_mutate_or_alias_source(self):
        src = LatencyHistogram()
        src.record_many([1.0, 2.0, 3.0])
        dst = LatencyHistogram()
        dst.merge(src)
        dst.record(99.0)  # writes into dst's buffer only
        assert list(src.samples()) == [1.0, 2.0, 3.0]
        assert not np.shares_memory(dst.samples(), src.samples())

    def test_self_merge_doubles(self):
        h = LatencyHistogram(initial_capacity=2)
        h.record_many([1.0, 2.0])
        h.merge(h)
        assert list(h.samples()) == [1.0, 2.0, 1.0, 2.0]


def make_result(ops, elapsed, lat_by_op, traffic, space, name="hyperdb", wl="B"):
    return RunResult(
        store_name=name,
        workload_name=wl,
        operations=ops,
        clients=8,
        background_threads=8,
        elapsed_s=elapsed,
        throughput_ops=ops / elapsed,
        latency_by_op=lat_by_op,
        traffic=traffic,
        space_used=space,
    )


def hist_of(values):
    h = LatencyHistogram(initial_capacity=4)
    h.record_many(values)
    return h


class TestOverallLatencyAggregation:
    """Regression tests for the RunResult.overall_latency combine path:
    it must neither mutate nor alias the per-op histograms."""

    def make(self):
        return make_result(
            3, 1.0,
            {"read": hist_of([1.0, 3.0]), "update": hist_of([2.0])},
            {}, {},
        )

    def test_sources_unchanged_and_unaliased(self):
        r = self.make()
        overall = r.overall_latency
        assert overall.count == 3
        overall.record(1000.0)
        assert list(r.latency_by_op["read"].samples()) == [1.0, 3.0]
        assert list(r.latency_by_op["update"].samples()) == [2.0]
        for hist in r.latency_by_op.values():
            assert not np.shares_memory(overall.samples(), hist.samples())

    def test_repeated_calls_identical(self):
        r = self.make()
        first = list(r.overall_latency.samples())
        second = list(r.overall_latency.samples())
        assert first == second == [1.0, 3.0, 2.0]
        assert r.median_latency() == 2.0  # still correct after repeated use


class TestPooledRunResultsIdentical:
    """End to end through a real pool: RunResult-returning figure cells are
    bit-identical at ``workers=1`` (in-process) and ``workers=2`` (a
    process pool — two workers over four jobs)."""

    def test_workload_cells_match_serial(self):
        jobs = [
            Job(
                _workload_cell,
                args=(
                    "hyperdb",
                    BenchScale(record_count=500, operations=500, seed=1009 + i),
                    YCSB_WORKLOADS["B"],
                    500,
                ),
                label=f"cell{i}",
            )
            for i in range(4)
        ]
        serial = unwrap_all(run_jobs(jobs, workers=1))
        pooled = unwrap_all(run_jobs(jobs, workers=2))
        # load_total is not part of a cell's return value; 0.0 on both sides.
        digests = [r.digest(0.0) for r in serial]
        assert digests == [r.digest(0.0) for r in pooled]
        assert len(set(digests)) == 4  # four seeds, four different runs
