"""Tests for the workload runner's simulated-time model.

These pin the documented properties of the concurrency model: transfer
time serializes on a device, per-command latency overlaps with threads,
and queueing penalties attach to the devices an op actually touched.
"""

import numpy as np
import pytest

from repro.common.keys import KeyRange, encode_key
from repro.core import HyperDB, HyperDBConfig
from repro.core.interface import KVStore
from repro.nvme.config import NVMeConfig
from repro.simssd import DeviceProfile, SimDevice, TrafficKind
from repro.ycsb import WorkloadRunner, YCSB_WORKLOADS
from repro.ycsb.workload import WorkloadSpec

KiB = 1024
MiB = 1024 * KiB


class SyntheticStore(KVStore):
    """A store that charges a fixed I/O pattern, for model tests."""

    name = "synthetic"

    def __init__(self, fg_pages=1, bg_pages=0):
        self.device = SimDevice(
            DeviceProfile(
                name="dev",
                capacity_bytes=64 * MiB,
                page_size=4096,
                read_latency_s=1e-4,
                write_latency_s=1e-4,
                read_bandwidth=5e8,
                write_bandwidth=5e8,
            )
        )
        self.fg_pages = fg_pages
        self.bg_pages = bg_pages

    def put(self, key, value):
        s = self.device.write_pages(self.fg_pages, TrafficKind.FOREGROUND)
        if self.bg_pages:
            self.device.write_pages(self.bg_pages, TrafficKind.COMPACTION)
        return s

    def get(self, key):
        return b"v", self.device.read_pages(self.fg_pages, TrafficKind.FOREGROUND)

    def delete(self, key):
        return 0.0

    def scan(self, start, count):
        return [], 0.0

    def devices(self):
        return {"dev": self.device}


UPDATE_ONLY = WorkloadSpec("u", update=1.0, distribution="uniform")


class TestElapsedModel:
    def run_store(self, store, clients=8, bg=8, ops=2000):
        runner = WorkloadRunner(
            store, record_count=100, clients=clients, background_threads=bg, seed=0
        )
        return runner.run(UPDATE_ONLY, ops)

    def test_more_clients_hide_foreground_latency(self):
        t1 = self.run_store(SyntheticStore(), clients=1).elapsed_s
        t8 = self.run_store(SyntheticStore(), clients=8).elapsed_s
        assert t8 < t1
        # But not below the transfer floor: 8 clients can't make one device
        # channel move bytes faster.
        store = SyntheticStore()
        result = self.run_store(store, clients=64)
        transfer_floor = sum(
            l["write_transfer_s"] + l["read_transfer_s"]
            for l in result.traffic["dev"].values()
        )
        assert result.elapsed_s >= transfer_floor * 0.999

    def test_background_threads_hide_background_latency(self):
        t1 = self.run_store(SyntheticStore(bg_pages=4), bg=1).elapsed_s
        t8 = self.run_store(SyntheticStore(bg_pages=4), bg=8).elapsed_s
        assert t8 < t1

    def test_background_work_lowers_throughput(self):
        clean = self.run_store(SyntheticStore(bg_pages=0)).throughput_ops
        loaded = self.run_store(SyntheticStore(bg_pages=8)).throughput_ops
        assert loaded < clean


class TestLatencyAttribution:
    def make_db(self):
        nvme = SimDevice(
            DeviceProfile(
                name="nvme",
                capacity_bytes=8 * MiB,
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
                capacity_bytes=64 * MiB,
                page_size=4096,
                read_latency_s=2e-4,
                write_latency_s=6e-5,
                read_bandwidth=5.6e8,
                write_bandwidth=5.1e8,
            )
        )
        return HyperDB(
            nvme,
            sata,
            HyperDBConfig(
                key_space=KeyRange(encode_key(0), encode_key(20_000)),
                nvme=NVMeConfig(num_partitions=2, migration_batch_bytes=16 * KiB),
            ),
        )

    def test_read_latency_reflects_tier(self):
        db = self.make_db()
        runner = WorkloadRunner(db, record_count=4000, value_size=256, seed=1)
        runner.load()
        result = runner.run(YCSB_WORKLOADS["C"], 3000)
        # NVMe reads are much faster than SATA reads; with a mixed resident
        # set the p99 (SATA + queue) far exceeds the median.
        hist = result.latency_by_op["read"]
        assert hist.p99 > hist.median

    def test_zero_service_ops_not_queued(self):
        # Ops that never touch a device (staging-cache hits, memtable reads)
        # must not inherit another device's queueing penalty.
        db = self.make_db()
        runner = WorkloadRunner(db, record_count=500, value_size=100, seed=2)
        runner.load()
        result = runner.run(YCSB_WORKLOADS["C"], 500)
        hist = result.latency_by_op["read"]
        # The fastest reads are pure CPU (a few microseconds).
        assert hist.percentile(1) < 2e-5


class TestRunResultHelpers:
    def test_traffic_accessors(self):
        store = SyntheticStore(bg_pages=2)
        runner = WorkloadRunner(store, record_count=100, seed=0)
        result = runner.run(UPDATE_ONLY, 500)
        assert result.write_bytes("dev") == result.write_bytes(
            "dev", "foreground"
        ) + result.write_bytes("dev", "compaction")
        assert result.read_bytes("dev") == 0

    def test_overall_latency_merges_ops(self):
        store = SyntheticStore()
        runner = WorkloadRunner(store, record_count=100, seed=0)
        spec = WorkloadSpec("mix", read=0.5, update=0.5, distribution="uniform")
        result = runner.run(spec, 1000)
        assert result.overall_latency.count == 1000

    def test_unknown_device_or_lane_reads_as_zero(self):
        # Regression: probing a device or lane absent from the traffic dict
        # used to raise KeyError; benchmark tables probe lanes (e.g. gc)
        # that some stores never exercise.
        store = SyntheticStore(bg_pages=2)
        runner = WorkloadRunner(store, record_count=100, seed=0)
        result = runner.run(UPDATE_ONLY, 200)
        assert result.write_bytes("no-such-device") == 0.0
        assert result.write_bytes("no-such-device", "compaction") == 0.0
        assert result.read_bytes("no-such-device") == 0.0
        assert result.read_bytes("dev", "no-such-lane") == 0.0
        assert result.write_bytes("dev", "no-such-lane") == 0.0


class TestOpMixValidation:
    def test_drifting_mix_accepted_and_runs(self):
        # Regression: a mix summing to 1±1e-8 (plain float arithmetic) is
        # within spec tolerance but past numpy's rng.choice tolerance
        # (~1.5e-8); the runner used to crash inside rng.choice.
        drift = 1e-7
        spec = WorkloadSpec(
            "drift", read=0.3, update=0.3, scan=0.4 - drift,
            distribution="uniform",
        )
        runner = WorkloadRunner(SyntheticStore(), record_count=100, seed=0)
        result = runner.run(spec, 300)
        assert result.operations == 300

    def test_invalid_mix_raises_clear_error(self):
        # A spec that dodged WorkloadSpec validation (e.g. constructed via
        # replace-free __new__) must still be rejected by the runner with a
        # ValueError naming the workload, not a numpy internals crash.
        spec = object.__new__(WorkloadSpec)
        for fld, v in dict(
            name="broken", read=0.7, update=0.0, insert=0.0, scan=0.0,
            rmw=0.0, distribution="uniform", theta=0.99, scan_length=50,
        ).items():
            object.__setattr__(spec, fld, v)
        runner = WorkloadRunner(SyntheticStore(), record_count=100, seed=0)
        with pytest.raises(ValueError, match="broken.*sum"):
            runner.run(spec, 100)

    def test_exact_mix_rng_stream_unchanged(self):
        # Mixes that sum to exactly 1.0 skip renormalization, so their RNG
        # consumption is bit-identical to the pre-fix behaviour.
        a = WorkloadRunner(SyntheticStore(), record_count=100, seed=3).run(
            UPDATE_ONLY, 400
        )
        b = WorkloadRunner(SyntheticStore(), record_count=100, seed=3).run(
            UPDATE_ONLY, 400
        )
        assert list(a.overall_latency.samples()) == list(b.overall_latency.samples())
