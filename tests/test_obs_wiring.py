"""Integration tests for the obs instrumentation wired through the stack.

The two load-bearing properties:

* tracing is *inert* — a traced run produces byte-identical results to an
  untraced run (no RNG draws, no simulated-time movement);
* tracing is *exact* — the recorder's aggregated lane totals equal the
  device traffic ledgers, and sharded traces merge into the serial trace.
"""

import pytest

from repro import obs
from repro.common.errors import PowerLossError
from repro.common.keys import KeyRange, encode_key
from repro.core import HyperDB, HyperDBConfig
from repro.nvme.config import NVMeConfig
from repro.parallel import Job, run_jobs
from repro.simssd import (
    DeviceProfile,
    FaultInjector,
    FaultPlan,
    SimDevice,
    TrafficKind,
)
from repro.ycsb import WorkloadRunner, YCSB_WORKLOADS

KiB = 1024
MiB = 1024 * KiB


def nvme_profile(mib=8):
    return DeviceProfile(
        name="nvme",
        capacity_bytes=mib * MiB,
        page_size=4096,
        read_latency_s=8e-5,
        write_latency_s=2e-5,
        read_bandwidth=6.5e9,
        write_bandwidth=3.5e9,
    )


def make_db(nvme_mib=8):
    nvme = SimDevice(nvme_profile(nvme_mib))
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


def run_workload(record_count=3000, ops=1500, nvme_mib=8):
    db = make_db(nvme_mib)
    runner = WorkloadRunner(db, record_count=record_count, value_size=256, seed=1)
    runner.load()
    return db, runner.run(YCSB_WORKLOADS["A"], ops)


def traced_device_job(pages, seed=None):
    """Worker-side job: emits trace events into the per-job recorder."""
    rec = obs.RECORDER
    assert rec is not None, "run_jobs must install a per-job recorder"
    dev = SimDevice(nvme_profile())
    dev.write_pages(pages, TrafficKind.FLUSH)
    dev.read_pages(1, TrafficKind.FOREGROUND)
    rec.emit("marker", pages=pages)
    return pages


class TestTracingIsInert:
    def teardown_method(self):
        obs.uninstall()

    def test_traced_run_identical_to_untraced(self):
        _, plain = run_workload()
        obs.install()
        _, traced = run_workload()
        rec = obs.uninstall()
        assert rec.total_events > 0  # the run was actually traced
        assert traced.traffic == plain.traffic
        assert traced.elapsed_s == plain.elapsed_s
        assert traced.throughput_ops == plain.throughput_ops
        assert traced.space_used == plain.space_used
        assert traced.utilization == plain.utilization
        for op, hist in plain.latency_by_op.items():
            assert list(traced.latency_by_op[op].samples()) == list(hist.samples())
        # A traced run is the one run loop with slices of one op: exactly
        # one op begin/end pair per operation, pairs never overlap, and
        # everything emitted during the run (device I/O included) nests
        # inside the op that caused it.
        assert rec.dropped == 0
        events = rec.events()
        first = next(i for i, e in enumerate(events) if e.type == "op_begin")
        last = max(i for i, e in enumerate(events) if e.type == "op_end")
        ops_seen = io_inside = 0
        open_depth = None
        for ev in events[first : last + 1]:
            if ev.type == "op_begin":
                assert open_depth is None
                open_depth = ev.depth
            elif ev.type == "op_end":
                assert open_depth == ev.depth
                open_depth = None
                ops_seen += 1
            else:
                assert open_depth is not None and ev.depth > open_depth
                io_inside += ev.type == "io"
        assert ops_seen == rec.counts["op_begin"] == rec.counts["op_end"] == 1500
        assert io_inside > 0


class TestTracingIsExact:
    def teardown_method(self):
        obs.uninstall()

    def test_lane_totals_match_traffic_ledgers(self):
        rec = obs.install()
        db, _ = run_workload()
        obs.uninstall()
        for name, dev in db.devices().items():
            snap = dev.traffic.snapshot()
            for lane, fields in snap.items():
                recorded = rec.lane_totals.get(name, {}).get(lane)
                if recorded is None:
                    # Untraced lanes saw no traffic at all.
                    assert fields["read_bytes"] == 0
                    assert fields["write_bytes"] == 0
                    continue
                assert recorded["read_bytes"] == fields["read_bytes"]
                assert recorded["write_bytes"] == fields["write_bytes"]
                assert recorded["read_ios"] == fields["read_ios"]
                assert recorded["write_ios"] == fields["write_ios"]

    def test_lsm_flush_and_compaction_spans(self):
        from repro.baselines.rocksdb import RocksDBStore

        rec = obs.install()
        store = RocksDBStore(
            SimDevice(nvme_profile(2)),
            SimDevice(
                DeviceProfile(
                    name="sata",
                    capacity_bytes=64 * MiB,
                    page_size=4096,
                    read_latency_s=2e-4,
                    write_latency_s=6e-5,
                    read_bandwidth=5.6e8,
                    write_bandwidth=5.1e8,
                )
            ),
        )
        runner = WorkloadRunner(store, record_count=3000, value_size=256, seed=1)
        runner.load()
        obs.uninstall()
        counts = rec.counts
        assert counts.get("flush_begin", 0) == counts.get("flush_end", 0) > 0
        assert (
            counts.get("compaction_begin", 0) == counts.get("compaction_end", 0) > 0
        )
        begin = next(e for e in rec.events() if e.type == "flush_begin")
        assert begin.data["records"] > 0 and begin.data["bytes"] > 0
        # Compactions triggered by a flush nest inside the flush span.
        comp = next(e for e in rec.events() if e.type == "compaction_begin")
        assert comp.depth >= 1

    def test_engine_spans_and_phases_recorded(self):
        rec = obs.install()
        # A small NVMe tier forces watermark demotions into the SATA
        # semi-LSM, so migration and compaction spans actually fire.
        db, _ = run_workload(record_count=4000, nvme_mib=2)
        db.checkpoint()
        doc = obs.uninstall().to_doc()
        counts = doc["header"]["counts"]
        assert counts.get("op_begin", 0) == counts.get("op_end", 0) > 0
        assert counts.get("migration_job_begin", 0) > 0
        assert counts.get("zone_demotion", 0) > 0
        assert counts.get("semi_compaction_begin", 0) > 0
        assert counts.get("checkpoint", 0) == 1
        phases = [p["phase"] for p in doc["phases"]]
        assert phases == ["load", "run"]
        # The run phase delta published into the trace equals the ledger
        # delta the RunResult reports.
        run_phase = doc["phases"][1]
        assert set(run_phase["traffic"]) == set(db.devices())


class TestShardedTraceMerging:
    def teardown_method(self):
        obs.uninstall()

    def run_traced(self, workers):
        parent = obs.install()
        jobs = [
            Job(traced_device_job, args=(p,), label=f"j{p}") for p in (1, 2, 3, 4)
        ]
        results = run_jobs(jobs, workers=workers)
        obs.uninstall()
        assert [r.value for r in results] == [1, 2, 3, 4]
        return parent.to_doc()

    def test_serial_and_parallel_traces_identical(self):
        serial = self.run_traced(workers=1)
        fanned = self.run_traced(workers=2)
        assert serial == fanned
        assert serial["header"]["counts"]["marker"] == 4
        # Shards land in submission order, not completion order.
        markers = [
            e["data"]["pages"] for e in serial["events"] if e["type"] == "marker"
        ]
        assert markers == [1, 2, 3, 4]

    def test_untraced_run_jobs_needs_no_recorder(self):
        jobs = [Job(len, args=("ab",))]
        assert run_jobs(jobs, workers=1)[0].value == 2
        assert obs.RECORDER is None


class TestFaultEvents:
    def teardown_method(self):
        obs.uninstall()

    def test_retry_and_fault_events(self):
        rec = obs.install()
        dev = SimDevice(
            nvme_profile(), injector=FaultInjector(FaultPlan(fail_write_ios=frozenset({1})))
        )
        dev.write_pages(2, TrafficKind.WAL)
        obs.uninstall()
        faults = [e for e in rec.events() if e.type == "fault"]
        retries = [e for e in rec.events() if e.type == "retry_backoff"]
        assert len(faults) == 1
        assert faults[0].t is None  # the injector has no clock
        assert faults[0].data["rw"] == "write"
        assert len(retries) == 1
        assert retries[0].data["lane"] == "wal"
        assert retries[0].data["attempt"] == 0
        assert retries[0].data["backoff_s"] > 0  # the charged seconds
        assert retries[0].t is not None

    def test_crash_event_on_power_loss(self):
        rec = obs.install()
        dev = SimDevice(
            nvme_profile(), injector=FaultInjector(FaultPlan(crash_after_write_io=2))
        )
        dev.write_pages(1, TrafficKind.WAL)
        with pytest.raises(PowerLossError):
            dev.write_pages(1, TrafficKind.WAL)
        obs.uninstall()
        assert rec.counts.get("crash", 0) == 1
