"""Property tests for the exact shard mergers (repro.parallel.merge).

The parallel harness's core invariant: merging K shards reproduces the
unsharded aggregate.  Float accumulation is only associative when every
partial sum is exactly representable, so the hypothesis strategies draw
dyadic rationals (multiples of 1/1024 with bounded magnitude) — for those
every addition below is exact, and equality assertions are ``==``, not
approx.  Integer fields (bytes, IOs, sample counts) are exact regardless.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.context import BenchScale
from repro.bench.experiments import _workload_cell
from repro.common.stats import LatencyHistogram
from repro.parallel import (
    Job,
    merge_latency_maps,
    merge_run_results,
    merge_traffic_deltas,
    run_jobs,
)
from repro.parallel.pool import unwrap_all
from repro.simssd.traffic import TrafficKind, TrafficStats
from repro.ycsb import YCSB_WORKLOADS
from repro.ycsb.runner import RunResult

# Dyadic rationals: float addition over these is exact, so sharded sums
# equal unsharded sums bit-for-bit in any grouping.
dyadic = st.integers(min_value=0, max_value=1 << 20).map(lambda v: v / 1024.0)

traffic_op = st.tuples(
    st.sampled_from(list(TrafficKind)),
    st.booleans(),  # True = write, False = read
    st.integers(min_value=0, max_value=1 << 24),  # nbytes
    st.integers(min_value=0, max_value=64),  # ios
    dyadic,  # latency_s
    dyadic,  # transfer_s
)


def apply_ops(stats: TrafficStats, ops) -> None:
    for kind, is_write, nbytes, ios, lat, xfer in ops:
        if is_write:
            stats.note_write(kind, nbytes, ios, lat, xfer)
        else:
            stats.note_read(kind, nbytes, ios, lat, xfer)


def stats_equal(a: TrafficStats, b: TrafficStats) -> bool:
    return a.snapshot() == b.snapshot() and a.busy_seconds() == b.busy_seconds()


class TestTrafficStatsMerge:
    @settings(max_examples=50, deadline=None)
    @given(ops=st.lists(traffic_op, max_size=60), k=st.integers(1, 5))
    def test_sharded_merge_equals_unsharded_run(self, ops, k):
        unsharded = TrafficStats()
        apply_ops(unsharded, ops)
        shards = []
        for i in range(k):
            shard = TrafficStats()
            apply_ops(shard, ops[i::k])
            shards.append(shard)
        merged = TrafficStats()
        for shard in shards:
            merged.merge(shard)
        # Integer fields are exact sums; float fields are exact because the
        # strategy draws dyadic rationals.  Interleaving ops round-robin
        # across shards also shows order independence of the lane sums.
        assert stats_equal(merged, unsharded)

    @settings(max_examples=30, deadline=None)
    @given(a=st.lists(traffic_op, max_size=40), b=st.lists(traffic_op, max_size=40))
    def test_merge_commutative(self, a, b):
        sa, sb = TrafficStats(), TrafficStats()
        apply_ops(sa, a)
        apply_ops(sb, b)
        ab, ba = TrafficStats(), TrafficStats()
        apply_ops(ab, a)
        ab.merge(sb)
        apply_ops(ba, b)
        ba.merge(sa)
        assert stats_equal(ab, ba)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.lists(traffic_op, max_size=30),
        b=st.lists(traffic_op, max_size=30),
        c=st.lists(traffic_op, max_size=30),
    )
    def test_merge_associative(self, a, b, c):
        def fresh(ops):
            s = TrafficStats()
            apply_ops(s, ops)
            return s

        left = fresh(a)
        left.merge(fresh(b))
        left.merge(fresh(c))
        bc = fresh(b)
        bc.merge(fresh(c))
        right = fresh(a)
        right.merge(bc)
        assert stats_equal(left, right)

    def test_merge_leaves_other_untouched(self):
        a, b = TrafficStats(), TrafficStats()
        b.note_write(TrafficKind.WAL, 100, 1, 0.5, 0.25)
        before = b.snapshot()
        a.merge(b)
        assert b.snapshot() == before
        assert a.write_bytes(TrafficKind.WAL) == 100

    def test_merge_matches_snapshot_delta_merge(self):
        a, b = TrafficStats(), TrafficStats()
        a.note_read(TrafficKind.FOREGROUND, 64, 1, 0.125, 0.5)
        b.note_read(TrafficKind.FOREGROUND, 32, 2, 0.25, 0.75)
        b.note_write(TrafficKind.GC, 4096, 1, 1.0, 2.0)
        merged_deltas = merge_traffic_deltas(
            [{"dev": a.snapshot()}, {"dev": b.snapshot()}]
        )
        a.merge(b)
        assert merged_deltas["dev"] == a.snapshot()


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

    def test_copy_is_independent(self):
        h = LatencyHistogram()
        h.record(5.0)
        dup = h.copy()
        dup.record(6.0)
        assert h.count == 1 and dup.count == 2


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
        utilization={},
        space_used=space,
    )


def hist_of(values):
    h = LatencyHistogram(initial_capacity=4)
    h.record_many(values)
    return h


class TestMergeRunResults:
    def make_shards(self):
        t1 = {"nvme": {"foreground": {"read_bytes": 100, "write_bytes": 50,
                                      "read_latency_s": 0.5, "read_transfer_s": 0.25,
                                      "write_latency_s": 0.0, "write_transfer_s": 0.0}}}
        t2 = {"nvme": {"foreground": {"read_bytes": 40, "write_bytes": 10,
                                      "read_latency_s": 0.25, "read_transfer_s": 0.5,
                                      "write_latency_s": 0.125, "write_transfer_s": 0.0}},
              "sata": {"compaction": {"read_bytes": 7, "write_bytes": 9,
                                      "read_latency_s": 0.0, "read_transfer_s": 0.0,
                                      "write_latency_s": 0.0, "write_transfer_s": 1.0}}}
        a = make_result(10, 2.0, {"read": hist_of([1.0, 2.0])}, t1, {"nvme": 1000})
        b = make_result(30, 4.0, {"read": hist_of([3.0]), "update": hist_of([4.0])},
                        t2, {"nvme": 500, "sata": 200})
        return a, b

    def test_merge_semantics(self):
        a, b = self.make_shards()
        m = merge_run_results([a, b])
        assert m.operations == 40
        assert m.elapsed_s == 4.0  # slowest shard
        assert m.throughput_ops == 10.0
        assert m.clients == 16 and m.background_threads == 16
        assert m.space_used == {"nvme": 1500, "sata": 200}
        assert m.traffic["nvme"]["foreground"]["read_bytes"] == 140
        assert m.traffic["sata"]["compaction"]["write_bytes"] == 9
        assert list(m.latency_by_op["read"].samples()) == [1.0, 2.0, 3.0]
        assert list(m.latency_by_op["update"].samples()) == [4.0]
        # busy(nvme) = 0.5+0.25 + 0.25+0.5+0.125 = 1.625, elapsed 4.0
        assert m.utilization["nvme"] == pytest.approx(1.625 / 4.0)

    def test_merge_does_not_touch_shards(self):
        a, b = self.make_shards()
        before_a = list(a.latency_by_op["read"].samples())
        traffic_before = {d: {l: dict(f) for l, f in lanes.items()}
                          for d, lanes in a.traffic.items()}
        m = merge_run_results([a, b])
        m.latency_by_op["read"].record(77.0)
        m.traffic["nvme"]["foreground"]["read_bytes"] += 1
        assert list(a.latency_by_op["read"].samples()) == before_a
        assert a.traffic == traffic_before

    def test_single_shard_roundtrip(self):
        a, _ = self.make_shards()
        m = merge_run_results([a])
        assert m.operations == a.operations
        assert m.traffic == a.traffic
        assert m.traffic is not a.traffic  # fresh dicts, no aliasing

    def test_mismatched_workloads_rejected(self):
        a, b = self.make_shards()
        c = make_result(1, 1.0, {}, {}, {}, wl="A")
        with pytest.raises(ValueError, match="different workloads"):
            merge_run_results([a, c])
        with pytest.raises(ValueError):
            merge_run_results([])

    def test_merge_latency_maps_fresh_histograms(self):
        m1 = {"read": hist_of([1.0])}
        m2 = {"read": hist_of([2.0])}
        merged = merge_latency_maps([m1, m2])
        assert list(merged["read"].samples()) == [1.0, 2.0]
        merged["read"].record(9.0)
        assert list(m1["read"].samples()) == [1.0]
        assert list(m2["read"].samples()) == [2.0]


class TestOverallLatencyAggregation:
    """Regression tests for the RunResult.overall_latency combine path —
    the parallel reducer reuses it, so it must neither mutate nor alias
    the per-op histograms."""

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
    process pool — two workers over four jobs), and so is their merge."""

    def test_workload_cells_and_their_merge_match_serial(self):
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
        assert (
            merge_run_results(serial).digest(0.0)
            == merge_run_results(pooled).digest(0.0)
        )
