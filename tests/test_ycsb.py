"""Tests for distributions, workload specs, and the workload runner."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.keys import KeyRange, encode_key
from repro.core import HyperDB, HyperDBConfig
from repro.nvme.config import NVMeConfig
from repro.simssd import DeviceProfile, SimDevice
from repro.ycsb import (
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    WorkloadRunner,
    WorkloadSpec,
    YCSB_WORKLOADS,
    ZipfianGenerator,
)

KiB = 1024
MiB = 1024 * KiB


class TestDistributions:
    def test_uniform_covers_range(self):
        gen = UniformGenerator(100, np.random.default_rng(0))
        samples = {gen.next() for _ in range(5000)}
        assert min(samples) >= 0 and max(samples) < 100
        assert len(samples) > 90

    def test_zipfian_skewed(self):
        gen = ZipfianGenerator(10_000, np.random.default_rng(0), theta=0.99)
        samples = np.array([gen.next() for _ in range(20_000)])
        assert np.all(samples >= 0) and np.all(samples < 10_000)
        top_fraction = np.mean(samples < 100)  # top 1% of ranks
        assert top_fraction > 0.3  # heavily concentrated

    def test_zipfian_theta_controls_skew(self):
        rng = np.random.default_rng(0)
        hot_share = {}
        for theta in (0.6, 0.99):
            gen = ZipfianGenerator(10_000, np.random.default_rng(1), theta=theta)
            samples = np.array([gen.next() for _ in range(20_000)])
            hot_share[theta] = np.mean(samples < 100)
        assert hot_share[0.99] > hot_share[0.6]

    def test_scrambled_zipfian_spreads_hotset(self):
        gen = ScrambledZipfianGenerator(10_000, np.random.default_rng(0))
        samples = np.array([gen.next() for _ in range(20_000)])
        # Still skewed (few unique keys dominate) but hot keys not clustered
        # at rank 0: the most common key can be anywhere.
        values, counts = np.unique(samples, return_counts=True)
        assert counts.max() > 200
        assert values[np.argmax(counts)] > 100

    def test_latest_prefers_new_keys(self):
        gen = LatestGenerator(10_000, np.random.default_rng(0))
        samples = np.array([gen.next() for _ in range(10_000)])
        assert np.mean(samples > 9_900) > 0.3

    def test_item_count_growth(self):
        gen = LatestGenerator(100, np.random.default_rng(0))
        gen.set_item_count(200)
        assert max(gen.next() for _ in range(1000)) > 100

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            UniformGenerator(0, rng)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, rng, theta=1.0)


class _ForcedRng:
    """Stub RNG whose uniform draws always return a fixed value."""

    def __init__(self, u: float) -> None:
        self._u = u

    def random(self, n=None):
        if n is None:
            return self._u
        return np.full(n, self._u)


class TestDistributionBoundaries:
    def test_zipfian_tail_draw_stays_in_range(self):
        # Regression: the closed-form inverse CDF reaches item_count exactly
        # as u -> 1, and the generator used to return that out-of-range rank.
        n = 1000
        gen = ZipfianGenerator(n, _ForcedRng(np.nextafter(1.0, 0.0)))
        assert gen.next() == n - 1
        batch = gen.next_many(5)
        assert batch.tolist() == [n - 1] * 5

    def test_zipfian_low_u_hits_head_ranks(self):
        n = 1000
        gen = ZipfianGenerator(n, _ForcedRng(0.0))
        assert gen.next() == 0
        assert gen.next_many(3).tolist() == [0, 0, 0]

    def test_scrambled_and_latest_tail_in_range(self):
        n = 1000
        u = np.nextafter(1.0, 0.0)
        scrambled = ScrambledZipfianGenerator(n, _ForcedRng(u))
        assert 0 <= scrambled.next() < n
        assert all(0 <= int(k) < n for k in scrambled.next_many(5))
        # Latest maps rank r to item_count-1-r; an out-of-range rank would
        # have surfaced here as a negative key.
        latest = LatestGenerator(n, _ForcedRng(u))
        assert latest.next() == 0
        assert latest.next_many(5).tolist() == [0] * 5

    @pytest.mark.parametrize(
        "cls", [UniformGenerator, ZipfianGenerator, ScrambledZipfianGenerator, LatestGenerator]
    )
    def test_next_many_matches_sequential(self, cls):
        # Batched draws must consume the RNG stream exactly like serial ones.
        serial = cls(5000, np.random.default_rng(42))
        batched = cls(5000, np.random.default_rng(42))
        expect = [serial.next() for _ in range(500)]
        got = batched.next_many(500)
        assert [int(k) for k in got] == expect

    def test_fnv1a_many_matches_scalar(self):
        from repro.ycsb.distributions import fnv1a_64, fnv1a_64_many

        values = np.array([0, 1, 2, 97, 2**40, 2**63 - 1], dtype=np.uint64)
        got = fnv1a_64_many(values)
        assert [int(h) for h in got] == [fnv1a_64(int(v)) for v in values]


class TestWorkloadSpecs:
    def test_standard_workloads_defined(self):
        assert set(YCSB_WORKLOADS) == {"A", "B", "C", "D", "E", "F"}
        assert YCSB_WORKLOADS["A"].read == 0.5
        assert YCSB_WORKLOADS["C"].read == 1.0
        assert YCSB_WORKLOADS["D"].distribution == "latest"
        assert YCSB_WORKLOADS["E"].scan == 0.95
        assert YCSB_WORKLOADS["E"].scan_length == 50

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            WorkloadSpec("bad", read=0.5, update=0.6)

    def test_with_distribution(self):
        uni = YCSB_WORKLOADS["A"].with_distribution("uniform")
        assert uni.distribution == "uniform"
        assert uni.read == 0.5


def make_hyperdb(keyspace, nvme_mib=2, sata_mib=64):
    nvme = SimDevice(
        DeviceProfile(
            name="nvme",
            capacity_bytes=nvme_mib * MiB,
            page_size=4096,
            read_latency_s=8e-5,
            write_latency_s=2e-5,
            read_bandwidth=6.5e9,
            write_bandwidth=3.5e9,
        )
    )
    sata = SimDevice(
        DeviceProfile(
            name="sata",
            capacity_bytes=sata_mib * MiB,
            page_size=4096,
            read_latency_s=2e-4,
            write_latency_s=6e-5,
            read_bandwidth=5.6e8,
            write_bandwidth=5.1e8,
        )
    )
    cfg = HyperDBConfig(
        key_space=KeyRange(encode_key(0), encode_key(keyspace)),
        nvme=NVMeConfig(
            num_partitions=2,
            initial_zones_per_partition=2,
            migration_batch_bytes=16 * KiB,
        ),
        semi_num_levels=3,
        semi_size_ratio=4,
        semi_bottom_segments=16,
        semi_level1_target_bytes=128 * KiB,
    )
    return HyperDB(nvme, sata, cfg)


class TestWorkloadRunner:
    def test_load_then_read_workload(self):
        db = make_hyperdb(keyspace=20_000)
        runner = WorkloadRunner(db, record_count=3000, value_size=128, seed=1)
        runner.load()
        result = runner.run(YCSB_WORKLOADS["C"], operations=2000)
        assert result.operations == 2000
        assert result.throughput_ops > 0
        assert result.elapsed_s > 0
        assert "read" in result.latency_by_op
        assert result.latency_by_op["read"].count == 2000

    def test_mixed_workload_op_mix(self):
        db = make_hyperdb(keyspace=20_000)
        runner = WorkloadRunner(db, record_count=2000, seed=2)
        runner.load()
        result = runner.run(YCSB_WORKLOADS["A"], operations=2000)
        reads = result.latency_by_op["read"].count
        updates = result.latency_by_op["update"].count
        assert reads + updates == 2000
        assert 800 < reads < 1200

    def test_insert_workload_grows_keyspace(self):
        db = make_hyperdb(keyspace=20_000)
        runner = WorkloadRunner(db, record_count=2000, seed=3)
        runner.load()
        result = runner.run(YCSB_WORKLOADS["D"], operations=1000)
        assert runner._insert_count > 0
        inserted = runner.record_count + runner._insert_count - 1
        value, _ = db.get(encode_key(inserted))
        assert value is not None

    def test_scan_workload(self):
        db = make_hyperdb(keyspace=20_000)
        runner = WorkloadRunner(db, record_count=2000, seed=4)
        runner.load()
        result = runner.run(YCSB_WORKLOADS["E"], operations=200)
        assert result.latency_by_op["scan"].count > 0

    def test_latency_percentiles_ordered(self):
        db = make_hyperdb(keyspace=20_000)
        runner = WorkloadRunner(db, record_count=2000, seed=5)
        runner.load()
        result = runner.run(YCSB_WORKLOADS["B"], operations=1500)
        med = result.median_latency("read")
        p99 = result.p99_latency("read")
        assert 0 <= med <= p99

    def test_traffic_deltas_cover_run_only(self):
        db = make_hyperdb(keyspace=20_000)
        runner = WorkloadRunner(db, record_count=3000, seed=6)
        runner.load()
        loaded_writes = db.nvme_device.traffic.write_bytes()
        result = runner.run(YCSB_WORKLOADS["C"], operations=500)
        # A read-only workload must not attribute load-phase writes.
        assert result.write_bytes("nvme", "foreground") == 0
        assert db.nvme_device.traffic.write_bytes() == loaded_writes

    def test_more_clients_higher_throughput_when_cpu_bound(self):
        results = {}
        for clients in (1, 8):
            db = make_hyperdb(keyspace=20_000)
            runner = WorkloadRunner(
                db, record_count=2000, clients=clients, seed=7
            )
            runner.load()
            results[clients] = runner.run(
                YCSB_WORKLOADS["C"], operations=1000
            ).throughput_ops
        assert results[8] > results[1]

    def test_deterministic_given_seed(self):
        outs = []
        for _ in range(2):
            db = make_hyperdb(keyspace=20_000)
            runner = WorkloadRunner(db, record_count=1000, seed=42)
            runner.load()
            outs.append(runner.run(YCSB_WORKLOADS["A"], operations=500))
        assert outs[0].throughput_ops == pytest.approx(outs[1].throughput_ops)
        assert outs[0].median_latency() == pytest.approx(outs[1].median_latency())
