"""Degraded-mode operation: health windows and failover.

Covers the device health-state machine (outage rejection, brownout
surcharges, epoch pinning), engine failover across tier outages, and the migration pause/catch-up edges —
including the satellite guarantees: a demotion interrupted mid-zone leaves
the zone fully migrated or fully resident, and the catch-up queue drains
exactly once on recovery.
"""

import pytest

from repro import obs
from repro.common.errors import DeviceOfflineError
from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.core import HyperDB, HyperDBConfig
from repro.baselines.prismdb import PrismDBStore
from repro.health.state import HealthState, HealthWindow, resolve_health
from repro.lsm.semi import CapacityTier, SemiLevelConfig
from repro.migration import MigrationScheduler
from repro.nvme import NVMeConfig, PerformanceTier
from repro.simssd import (
    DeviceProfile,
    FaultInjector,
    FaultPlan,
    SimDevice,
    SimFilesystem,
    TrafficKind,
)

KEYSPACE = 20_000
KiB = 1024
MiB = 1024 * KiB


def nvme_profile(mib=2):
    return DeviceProfile(
        name="nvme",
        capacity_bytes=mib * MiB,
        page_size=4096,
        read_latency_s=8e-5,
        write_latency_s=2e-5,
        read_bandwidth=6.5e9,
        write_bandwidth=3.5e9,
    )


def sata_profile(mib=64):
    return DeviceProfile(
        name="sata",
        capacity_bytes=mib * MiB,
        page_size=4096,
        read_latency_s=2e-4,
        write_latency_s=6e-5,
        read_bandwidth=5.6e8,
        write_bandwidth=5.1e8,
    )


def paired_devices(windows=(), seed=0):
    inj = FaultInjector(FaultPlan(seed=seed, health_windows=tuple(windows)))
    return (
        SimDevice(nvme_profile(), injector=inj),
        SimDevice(sata_profile(), injector=inj),
        inj,
    )


def offline(device, start, end):
    return HealthWindow(device, HealthState.OFFLINE, start, end)


def brownout(device, start, end, mult):
    return HealthWindow(device, HealthState.BROWNOUT, start, end, mult)


def rec(i, size=400, seqno=None):
    return Record(encode_key(i), b"x" * size, seqno if seqno is not None else i + 1)


class TestHealthWindows:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            HealthWindow("nvme", HealthState.HEALTHY, 1, 2)
        with pytest.raises(ValueError):
            HealthWindow("nvme", HealthState.OFFLINE, 0, 2)
        with pytest.raises(ValueError):
            HealthWindow("nvme", HealthState.OFFLINE, 5, 5)
        with pytest.raises(ValueError):
            HealthWindow("nvme", HealthState.BROWNOUT, 1, 2, 0.5)

    def test_resolve_offline_dominates_and_brownouts_compound(self):
        ws = [
            brownout("a", 1, 10, 2.0),
            brownout("a", 1, 10, 3.0),
            offline("a", 5, 8),
        ]
        assert resolve_health(ws, "a", 1) == (HealthState.BROWNOUT, 6.0)
        assert resolve_health(ws, "a", 5) == (HealthState.OFFLINE, 1.0)
        assert resolve_health(ws, "a", 9) == (HealthState.BROWNOUT, 6.0)
        assert resolve_health(ws, "a", 10) == (HealthState.HEALTHY, 1.0)
        assert resolve_health(ws, "b", 5) == (HealthState.HEALTHY, 1.0)

    def test_offline_window_rejects_then_recovers_via_surviving_tier(self):
        # Window [2, 4) on nvme: I/O #1 serves, the next attempt is
        # rejected without charging, and only the sata device's traffic
        # ages the outage toward recovery.
        nvme, sata, inj = paired_devices([offline("nvme", 2, 4)])
        nvme.write_pages(1, TrafficKind.FOREGROUND)  # ordinal 1
        with pytest.raises(DeviceOfflineError, match="nvme"):
            nvme.write_pages(1, TrafficKind.FOREGROUND)
        assert nvme.offline_rejections == 1
        assert nvme.traffic.write_ios() == 1  # the rejection charged nothing
        sata.write_pages(1, TrafficKind.FOREGROUND)  # ordinal 2
        with pytest.raises(DeviceOfflineError):
            nvme.read_pages(1, TrafficKind.FOREGROUND)  # would be ordinal 3
        sata.write_pages(1, TrafficKind.FOREGROUND)  # ordinal 3
        assert nvme.health() is HealthState.HEALTHY
        nvme.write_pages(1, TrafficKind.FOREGROUND)  # ordinal 4: recovered

    def test_brownout_scales_service_time_and_counts_ios(self):
        slow, _, _ = paired_devices([brownout("nvme", 1, 100, 3.0)])
        fast, _, _ = paired_devices()
        s_slow = slow.write_pages(4, TrafficKind.FOREGROUND)
        s_fast = fast.write_pages(4, TrafficKind.FOREGROUND)
        assert s_slow == pytest.approx(3.0 * s_fast)
        assert slow.brownout_ios == 1
        assert fast.brownout_ios == 0
        # The surcharge is real ledger time, not a side channel.
        assert slow.traffic.busy_seconds() == pytest.approx(
            3.0 * fast.traffic.busy_seconds()
        )

    def test_health_transition_events_emitted(self):
        recdr = obs.install()
        try:
            nvme, sata, _ = paired_devices([offline("nvme", 2, 3)])
            nvme.write_pages(1, TrafficKind.FOREGROUND)
            with pytest.raises(DeviceOfflineError):
                nvme.write_pages(1, TrafficKind.FOREGROUND)
            sata.write_pages(1, TrafficKind.FOREGROUND)
            nvme.write_pages(1, TrafficKind.FOREGROUND)
        finally:
            obs.uninstall()
        health = [e for e in recdr.events() if e.type == "health"]
        assert [e.data["state"] for e in health] == ["offline", "healthy"]
        assert health[0].data["device"] == "nvme"
        assert health[0].data["prev"] == "healthy"

    def test_unguarded_device_pays_nothing(self):
        dev = SimDevice(nvme_profile())
        assert dev.health() is HealthState.HEALTHY
        assert not dev._health_guarded


class TestHealthEpoch:
    def test_epoch_pins_health_across_window_start(self):
        # The window opens at ordinal 3, mid-epoch: every I/O inside the
        # epoch still serves (outages begin at operation boundaries).
        nvme, _, _ = paired_devices([offline("nvme", 3, 1000)])
        nvme.write_pages(1, TrafficKind.FOREGROUND)  # ordinal 1
        with nvme.health_epoch:
            for _ in range(4):  # ordinals 2..5, two of them inside the window
                nvme.write_pages(1, TrafficKind.FOREGROUND)
        with pytest.raises(DeviceOfflineError):
            nvme.write_pages(1, TrafficKind.FOREGROUND)

    def test_epoch_entry_rejects_offline_before_any_mutation(self):
        nvme, _, _ = paired_devices([offline("nvme", 1, 1000)])
        with pytest.raises(DeviceOfflineError):
            with nvme.health_epoch:
                raise AssertionError("epoch body must not run while offline")
        assert nvme.offline_rejections == 1
        assert nvme.traffic.busy_seconds() == 0.0

    def test_epochs_nest_without_reconsulting(self):
        nvme, _, _ = paired_devices([offline("nvme", 2, 1000)])
        with nvme.health_epoch:
            nvme.write_pages(1, TrafficKind.FOREGROUND)  # ordinal 1
            with nvme.health_epoch:  # inner entry must not re-consult
                nvme.write_pages(1, TrafficKind.FOREGROUND)  # ordinal 2
        with pytest.raises(DeviceOfflineError):
            nvme.write_pages(1, TrafficKind.FOREGROUND)

    def test_epoch_pins_brownout_multiplier(self):
        slow, _, _ = paired_devices([brownout("nvme", 1, 2, 5.0)])
        fast, _, _ = paired_devices()
        with slow.health_epoch:
            s0 = slow.write_pages(1, TrafficKind.FOREGROUND)  # in-window
            s1 = slow.write_pages(1, TrafficKind.FOREGROUND)  # past end, pinned
        f = fast.write_pages(1, TrafficKind.FOREGROUND)
        assert s0 == pytest.approx(5.0 * f)
        assert s1 == pytest.approx(5.0 * f)


def make_hyperdb(windows=(), seed=0):
    inj = FaultInjector(FaultPlan(seed=seed, health_windows=tuple(windows)))
    nvme = SimDevice(nvme_profile(), injector=inj)
    sata = SimDevice(sata_profile(), injector=inj)
    db = HyperDB(
        nvme,
        sata,
        HyperDBConfig(
            key_space=KeyRange(encode_key(0), encode_key(KEYSPACE)),
            nvme=NVMeConfig(
                num_partitions=2,
                initial_zones_per_partition=2,
                migration_batch_bytes=16 * KiB,
            ),
            semi_num_levels=3,
            semi_size_ratio=4,
            semi_bottom_segments=16,
            semi_level1_target_bytes=128 * KiB,
        ),
    )
    return db, inj


class TestHyperDBFailover:
    def _loaded_outage_db(self, n_load=60):
        """Load with a clean injector to learn the ordinal where the
        outage should start, then replay into a windowed instance."""
        db, inj = make_hyperdb()
        for i in range(n_load):
            db.put(encode_key(i), b"base-%04d" % i)
        start = inj.total_ios + 1
        db, inj = make_hyperdb([offline("nvme", start, start + 60)])
        for i in range(n_load):
            db.put(encode_key(i), b"base-%04d" % i)
        assert db.nvme_device.health() is HealthState.OFFLINE
        return db

    def test_nvme_outage_writes_fail_over_to_capacity_tier(self):
        db = self._loaded_outage_db()
        sata_fg_before = db.sata_device.traffic.write_bytes(TrafficKind.FOREGROUND)
        db.put(encode_key(500), b"degraded-write")
        assert db.stats.counter("failover_writes").value == 1
        assert (
            db.sata_device.traffic.write_bytes(TrafficKind.FOREGROUND)
            > sata_fg_before
        )
        # The failover write is immediately readable from the capacity tier.
        got, _ = db.get(encode_key(500))
        assert got == b"degraded-write"
        assert db.stats.counter("failover_reads").value >= 1

    def test_nvme_outage_blocks_stale_resident_reads(self):
        db = self._loaded_outage_db()
        with pytest.raises(DeviceOfflineError):
            db.get(encode_key(3))  # non-promoted NVMe resident: honest 503
        assert db.stats.counter("failover_blocked_reads").value == 1

    def test_failover_update_drops_stale_resident_copy(self):
        db = self._loaded_outage_db()
        part = db.performance_tier.partition_for_key(encode_key(3))
        assert part.resident_location(encode_key(3)) is not None
        db.put(encode_key(3), b"new-version")
        assert part.resident_location(encode_key(3)) is None
        # Now readable during the outage — the SATA copy is authoritative.
        got, _ = db.get(encode_key(3))
        assert got == b"new-version"
        # ... and still the latest after recovery.
        while db.nvme_device.health() is not HealthState.HEALTHY:
            db.put(encode_key(600), b"pump")
        got, _ = db.get(encode_key(3))
        assert got == b"new-version"

class TestPrismDBFailover:
    def _loaded_outage_store(self, n_load=40):
        inj = FaultInjector(FaultPlan(seed=0))
        store = PrismDBStore(
            SimDevice(nvme_profile(), injector=inj),
            SimDevice(sata_profile(), injector=inj),
        )
        for i in range(n_load):
            store.put(encode_key(i), b"base-%04d" % i)
        start = inj.total_ios + 1
        inj = FaultInjector(
            FaultPlan(seed=0, health_windows=(offline("nvme", start, start + 60),))
        )
        store = PrismDBStore(
            SimDevice(nvme_profile(), injector=inj),
            SimDevice(sata_profile(), injector=inj),
        )
        for i in range(n_load):
            store.put(encode_key(i), b"base-%04d" % i)
        assert store.nvme_device.health() is HealthState.OFFLINE
        return store

    def test_writes_fail_over_and_reads_block_on_residents(self):
        store = self._loaded_outage_store()
        store.put(encode_key(500), b"degraded")
        assert store.failover_writes == 1
        got, _ = store.get(encode_key(500))
        assert got == b"degraded"
        # Slab copies are always authoritative in PrismDB: no fallthrough.
        with pytest.raises(DeviceOfflineError):
            store.get(encode_key(3))
        assert store.failover_blocked_reads == 1

    def test_failover_update_survives_recovery(self):
        store = self._loaded_outage_store()
        store.put(encode_key(3), b"new-version")
        while store.nvme_device.health() is not HealthState.HEALTHY:
            store.put(encode_key(600), b"pump")
        got, _ = store.get(encode_key(3))
        assert got == b"new-version"


def make_faulty_tiers(windows=(), seed=0):
    inj = FaultInjector(FaultPlan(seed=seed, health_windows=tuple(windows)))
    nvme = SimDevice(nvme_profile(), injector=inj)
    sata = SimDevice(sata_profile(), injector=inj)
    perf = PerformanceTier(
        nvme,
        KeyRange(encode_key(0), encode_key(KEYSPACE)),
        NVMeConfig(num_partitions=2, migration_batch_bytes=16 * KiB),
    )
    cap = CapacityTier(
        SimFilesystem(sata),
        SemiLevelConfig(
            key_space=KeyRange(encode_key(0), encode_key(KEYSPACE)),
            num_levels=3,
            size_ratio=4,
            bottom_segments=16,
            level1_target_bytes=128 * KiB,
        ),
    )
    return perf, cap, inj


def fill_over_watermark(perf):
    keys = []
    i = 0
    while not perf.partitions_over_watermark() and i < KEYSPACE:
        perf.put(rec(i))
        keys.append(encode_key(i))
        i += 1
    return keys


class TestMigrationPauseResume:
    def test_pause_when_capacity_offline_at_job_start(self):
        perf, cap, _ = make_faulty_tiers([offline("sata", 1, 1 << 30)])
        sched = MigrationScheduler(perf, cap)
        fill_over_watermark(perf)
        assert sched.run_if_needed() == 0
        assert sched.stats.paused_jobs >= 1
        assert sched.stats.demotion_jobs == 0
        assert sched.has_catch_up
        assert cap.valid_bytes() == 0

    def _interrupted_mid_zone(self):
        """Outage opens between a zone's collection and its ingest."""
        perf, cap, inj = make_faulty_tiers()
        sched = MigrationScheduler(perf, cap)
        keys = fill_over_watermark(perf)
        # Replay the identical fill into a windowed instance; the window
        # opens right after zone collection's first read.
        start = inj.total_ios + 2
        perf, cap, inj = make_faulty_tiers([offline("sata", start, start + 400)])
        sched = MigrationScheduler(perf, cap)
        keys = fill_over_watermark(perf)
        return perf, cap, sched, keys

    def test_mid_zone_interruption_leaves_zone_fully_resident(self):
        perf, cap, sched, keys = self._interrupted_mid_zone()
        assert sched.run_if_needed() == 0
        # The collected batch was rejected at the capacity tier's epoch
        # entry and re-inserted whole: fully resident, nothing migrated.
        assert sched.stats.requeued_objects > 0
        assert sched.stats.paused_jobs >= 1
        assert cap.valid_bytes() == 0
        for key in keys:
            assert perf.contains(key), key

    def test_catch_up_drains_exactly_once_on_recovery(self):
        perf, cap, sched, keys = self._interrupted_mid_zone()
        sched.run_if_needed()
        assert sched.has_catch_up
        # Still offline: catch-up must refuse to run.
        assert sched.run_catch_up() == 0
        assert sched.stats.catch_up_drains == 0
        # Age the outage past its window with surviving-tier traffic.
        for _ in range(2000):
            if sched.capacity_online():
                break
            perf.get(keys[0])
        assert sched.capacity_online()
        zones = sched.run_catch_up()
        assert zones > 0
        assert sched.stats.catch_up_drains == 1
        assert not sched.has_catch_up
        assert not perf.partitions_over_watermark()
        # A second drain is a no-op until another outage queues work.
        assert sched.run_catch_up() == 0
        assert sched.stats.catch_up_drains == 1
        # Nothing was lost across pause, requeue, and catch-up.
        for key in keys:
            on_nvme = perf.contains(key)
            got, _ = cap.get(key)
            assert on_nvme or (got is not None and not got.is_tombstone), key


class TestChaosHarness:
    def test_smoke_scenarios_pass_and_are_deterministic(self):
        from repro.chaos import run_scenario, suite

        scenarios = suite("tier-smoke")
        results = [run_scenario(sc, seed=3) for sc in scenarios]
        for r in results:
            assert r.passed, r.summary()
        again = [run_scenario(sc, seed=3) for sc in scenarios]
        assert [r.summary() for r in results] == [r.summary() for r in again]

    def test_soak_report_identical_serial_and_parallel(self):
        from repro.chaos import run_soak, suite

        scenarios = suite("tier-smoke")
        serial = run_soak(scenarios, seed=3, workers=1)
        fanned = run_soak(scenarios, seed=3, workers=2)
        assert serial.passed and fanned.passed
        assert serial.summary() == fanned.summary()

    def test_explicit_ops_is_used_as_given(self, capsys):
        # `--cluster --ops 900` used to run 400 ops (900 doubled as the
        # "not given" marker) and `--smoke --ops 600` ran min(600, 500).
        from repro.chaos.__main__ import main

        assert main(["cluster-smoke", "--ops", "900"]) == 0
        report = capsys.readouterr().out
        assert report.count(" ok  900 ops ") == 2, report
        assert main(["tier-smoke", "--ops", "600"]) == 0
        report = capsys.readouterr().out
        assert report.count(" hyperdb: 600 ops ") == 2, report

    def test_hot_key_scenario_observes_a_stale_resident_copy(self, monkeypatch):
        # Without drop_resident, a failover write leaves the older NVMe
        # copy to shadow it after recovery.  Over 2,000 keys no read ever
        # sees that; over 64 it is caught at once.
        from repro.chaos import run_scenario, scenario
        from repro.nvme.partition import Partition

        hot = scenario("tier", "hyperdb-nvme-outage-hotkeys", 300)
        assert run_scenario(hot).passed
        monkeypatch.setattr(Partition, "drop_resident", lambda self, key: False)
        cold = run_scenario(scenario("tier", "hyperdb-nvme-outage", 300))
        assert cold.passed and cold.stale_reads == 0
        broken = run_scenario(hot)
        assert not broken.passed and broken.stale_reads > 0, broken.summary()

    def test_scan_sweep_catches_an_unordered_scan(self, monkeypatch):
        from repro.chaos import run_scenario, suite
        from repro.core.hyperdb import HyperDB

        honest = HyperDB.scan

        def reversed_scan(self, start, count):
            pairs, service = honest(self, start, count)
            return pairs[::-1], service

        monkeypatch.setattr(HyperDB, "scan", reversed_scan)
        result = run_scenario(suite("tier-smoke", 300)[0])
        assert not result.passed
        assert any("ordered scan" in v for v in result.violations)
        # Point reads are untouched: the per-key oracle alone passes.
        assert result.lost_writes == result.stale_reads == result.resurrections == 0
