"""End-to-end tests for the crash-consistency harness (repro.faultcheck)."""

import pytest

from repro.common.errors import CorruptionError, PowerLossError
from repro.common.keys import encode_key
from repro.faultcheck import (
    run_hyperdb_crash_matrix,
    run_lsm_crash_matrix,
    run_transient_absorption,
)
from repro.faultcheck.harness import _build_hyperdb
from repro.lsm.wal import GROUP
from repro.simssd import FaultInjector, FaultPlan


class TestLSMCrashMatrix:
    def test_single_tier_points_verify(self):
        report = run_lsm_crash_matrix(
            num_points=3, seed=1, num_ops=160, two_tier=False
        )
        assert report.passed, report.summary()
        assert len(report.results) == 3
        for r in report.results:
            assert r.durable_watermark <= r.recovered_prefix <= r.ops_issued

    def test_rocksdb_like_points_verify(self):
        report = run_lsm_crash_matrix(
            num_points=3, seed=2, num_ops=160, two_tier=True
        )
        assert report.passed, report.summary()
        assert report.engine == "rocksdb-like"

    def test_deterministic_given_seed(self):
        a = run_lsm_crash_matrix(num_points=2, seed=3, num_ops=120)
        b = run_lsm_crash_matrix(num_points=2, seed=3, num_ops=120)
        assert [r.crash_after_write_io for r in a.results] == [
            r.crash_after_write_io for r in b.results
        ]
        assert [r.recovered_prefix for r in a.results] == [
            r.recovered_prefix for r in b.results
        ]

    def test_parallel_workers_identical_to_serial(self):
        serial = run_lsm_crash_matrix(num_points=3, seed=3, num_ops=120, workers=1)
        fanned = run_lsm_crash_matrix(num_points=3, seed=3, num_ops=120, workers=2)
        assert serial.summary() == fanned.summary()
        assert len(fanned.jobs) == len(fanned.results) == 3
        assert [j.label for j in fanned.jobs] == [
            f"rocksdb-like:crash@{r.crash_after_write_io}" for r in fanned.results
        ]
        assert all(j.ok and j.seconds >= 0 for j in fanned.jobs)


class TestHyperDBCrashMatrix:
    def test_checkpointed_state_survives(self):
        report = run_hyperdb_crash_matrix(
            num_points=3, seed=1, w1_ops=180, w2_ops=240
        )
        assert report.passed, report.summary()
        assert len(report.results) == 3
        for r in report.results:
            assert r.recovered_prefix == r.durable_watermark

    def test_checkpoint_commits_the_open_window(self):
        # A put the write window holds, then a checkpoint, then a crash on
        # the next write I/O: recovery finds the put on media.  The later
        # puts take another slot class, so the torn page is never the
        # checkpointed put's unless the checkpoint left it in the window.
        key, value = encode_key(7), b"held-by-the-window" * 20

        def run(injector):
            db = _build_hyperdb(injector)
            db.put(key, value)
            assert db.performance_tier.page_store._window  # not yet written
            busy = db.nvme_device.busy_seconds()
            # The checkpoint pays for the commit it makes.
            assert db.checkpoint() == pytest.approx(db.nvme_device.busy_seconds() - busy)
            return db

        probe = FaultInjector(FaultPlan(seed=0))
        run(probe)
        injector = FaultInjector(
            FaultPlan(seed=0, crash_after_write_io=probe.write_ios + 1)
        )
        db = run(injector)
        with pytest.raises(PowerLossError):
            for i in range(100, 100 + 2 * GROUP):
                db.put(encode_key(i), b"after")
        injector.reboot()
        db.recover()
        assert db.get(key)[0] == value

    def test_recover_forgets_the_window(self):
        # A restart loses the DRAM the window lived in: an update it held
        # never lands, and the checkpoint's value reads back.
        db = _build_hyperdb(None)
        key = encode_key(7)
        db.put(key, b"checkpointed")
        db.checkpoint()
        db.put(key, b"in-the-window")  # in place, held by the window
        writes = db.nvme_device.traffic.write_ios()
        db.recover()
        assert db.get(key)[0] == b"checkpointed"
        assert db.nvme_device.traffic.write_ios() == writes

    def test_degraded_recovery_from_corrupt_checkpoint(self):
        db = _build_hyperdb(None)
        for i in range(120):
            db.put(encode_key(i), b"v%03d" % i)
        db.checkpoint()
        # Corrupt one partition's stored image; the other stays intact.
        victim = db.performance_tier.partitions[0]
        pid = victim._checkpoint_pages[0]
        victim.page_store._pages[pid][5] ^= 0xFF
        with pytest.raises(CorruptionError):
            db.recover(strict=True)
        db.recover()  # non-strict: degraded rebuild instead of failure
        assert db.stats.counter("degraded_partitions").value == 1
        assert victim.object_count() == 0
        # The store stays usable, including the degraded partition's range.
        db.put(encode_key(1), b"fresh")
        got, _ = db.get(encode_key(1))
        assert got == b"fresh"


class TestTransientAbsorption:
    def test_lsm_absorbs_and_charges(self):
        report = run_transient_absorption(
            engine="rocksdb-like", seed=4, num_ops=160, error_rate=0.1
        )
        assert report.passed, report.summary()
        assert report.faulty_bytes > report.clean_bytes
        assert report.retried_ios >= report.transient_faults

    def test_hyperdb_absorbs_and_charges(self):
        report = run_transient_absorption(
            engine="hyperdb", seed=4, num_ops=160, error_rate=0.02
        )
        assert report.passed, report.summary()
