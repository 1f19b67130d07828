"""Integration tests for the full HyperDB engine and cross-tier migration."""

import numpy as np
import pytest

from repro.common.keys import KeyRange, encode_key
from repro.core import HyperDB, HyperDBConfig
from repro.nvme.config import NVMeConfig
from repro.simssd import DeviceProfile, SimDevice, TrafficKind

KEYSPACE = 50_000
KiB = 1024
MiB = 1024 * KiB


def nvme_device(mib=4):
    return SimDevice(
        DeviceProfile(
            name="nvme",
            capacity_bytes=mib * MiB,
            page_size=4096,
            read_latency_s=8e-5,
            write_latency_s=2e-5,
            read_bandwidth=6.5e9,
            write_bandwidth=3.5e9,
        )
    )


def sata_device(mib=64):
    return SimDevice(
        DeviceProfile(
            name="sata",
            capacity_bytes=mib * MiB,
            page_size=4096,
            read_latency_s=2e-4,
            write_latency_s=6e-5,
            read_bandwidth=5.6e8,
            write_bandwidth=5.1e8,
        )
    )


def make_db(nvme_mib=4, sata_mib=64, **cfg_kw):
    cfg = HyperDBConfig(
        key_space=KeyRange(encode_key(0), encode_key(KEYSPACE)),
        nvme=NVMeConfig(
            num_partitions=4,
            initial_zones_per_partition=2,
            migration_batch_bytes=16 * KiB,
        ),
        semi_num_levels=3,
        semi_size_ratio=4,
        semi_bottom_segments=16,
        semi_level1_target_bytes=128 * KiB,
        **cfg_kw,
    )
    return HyperDB(nvme_device(nvme_mib), sata_device(sata_mib), cfg)


def k(i):
    return encode_key(i)


class TestHyperDBBasics:
    def test_put_get(self):
        db = make_db()
        db.put(k(1), b"hello")
        value, _ = db.get(k(1))
        assert value == b"hello"

    def test_get_missing(self):
        db = make_db()
        assert db.get(k(99))[0] is None

    def test_update(self):
        db = make_db()
        db.put(k(1), b"v1")
        db.put(k(1), b"v2")
        assert db.get(k(1))[0] == b"v2"

    def test_delete(self):
        db = make_db()
        db.put(k(1), b"v")
        db.delete(k(1))
        assert db.get(k(1))[0] is None

    def test_delete_missing_is_noop_read(self):
        db = make_db()
        db.delete(k(123))
        assert db.get(k(123))[0] is None


class TestMigrationFlow:
    def fill_past_watermark(self, db, value_size=512, start=0):
        i = start
        while db.migration.stats.demotion_jobs == 0 and i < KEYSPACE:
            db.put(k(i), bytes([i % 256]) * value_size)
            i += 1
        return i

    def test_demotion_triggers_at_watermark(self):
        db = make_db(nvme_mib=2)
        written = self.fill_past_watermark(db)
        assert db.migration.stats.demotion_jobs > 0
        assert db.migration.stats.demoted_objects > 0
        assert db.capacity_tier.valid_bytes() > 0
        # NVMe dropped back under the high watermark.
        over = [p for p in db.performance_tier.partitions if p.over_high_watermark()]
        assert not over

    def test_values_survive_demotion(self):
        db = make_db(nvme_mib=2)
        written = self.fill_past_watermark(db)
        for i in range(0, written, max(1, written // 50)):
            value, _ = db.get(k(i))
            assert value == bytes([i % 256]) * 512, f"key {i} lost"

    def test_migration_traffic_charged(self):
        db = make_db(nvme_mib=2)
        self.fill_past_watermark(db)
        nvme_t = db.nvme_device.traffic
        sata_t = db.sata_device.traffic
        assert nvme_t.read_bytes(TrafficKind.MIGRATION) > 0
        assert sata_t.write_bytes(TrafficKind.MIGRATION) > 0

    def test_tombstone_demotes_and_shadows(self):
        db = make_db(nvme_mib=2)
        db.put(k(10), b"x" * 512)
        written = self.fill_past_watermark(db, start=11)
        # Key 10 may now live in SATA; delete and keep writing so the
        # tombstone itself migrates.
        db.delete(k(10))
        for i in range(written, written + 2000):
            db.put(k(i % KEYSPACE), b"y" * 512)
        assert db.get(k(10))[0] is None

    def test_update_after_demotion_wins(self):
        db = make_db(nvme_mib=2)
        db.put(k(5), b"old" * 100)
        written = self.fill_past_watermark(db, start=6)
        db.put(k(5), b"new" * 100)
        assert db.get(k(5))[0] == b"new" * 100
        # Push more writes to force another migration wave; newest must win.
        for i in range(written, written + 3000):
            db.put(k(i % KEYSPACE), b"z" * 512)
        assert db.get(k(5))[0] == b"new" * 100


class TestPromotionFlow:
    @staticmethod
    def demote_key_zone(db, key):
        """Force-demote the zone holding ``key`` (deterministic test setup)."""
        part = db.performance_tier.partition_for_key(key)
        zone = part.zone_for_key(key)
        part.collect_zone(zone, db.capacity_tier.ingest)
        assert not db.performance_tier.contains(key)

    def test_hot_sata_object_promoted(self):
        db = make_db(nvme_mib=2)
        db.put(k(0), b"hot-object" * 10)
        for i in range(1, 200):
            db.put(k(i), b"x" * 512)
        self.demote_key_zone(db, k(0))
        # Hammer reads of key 0: tracker heats it, reads stage a promotion.
        part = db.performance_tier.partition_for_key(k(0))
        for _ in range(part.tracker.discriminator.window_capacity * 5):
            db.get(k(0))
        assert db.stats.counter("promotions_staged").value > 0
        db.finalize()  # flush staging cache into the hot zone
        assert db.promotion.promotions > 0
        # One ledger: what ``migration.stats`` reports (and perfbench reads)
        # is the live count, not a second counter nothing increments.
        stats = db.migration.stats
        assert stats.promoted_objects == db.promotion.promotions
        assert stats.promoted_bytes == db.promotion.promoted_bytes > 0

    def test_checkpoint_returns_the_promotions_it_drains(self):
        # The staged promotions' hot-zone writes (and any migration they
        # set off) are device time the checkpoint caused: it returns all of
        # it, on both devices.
        db = make_db(nvme_mib=2)
        db.put(k(0), b"hot-object" * 10)
        for i in range(1, 200):
            db.put(k(i), b"x" * 512)
        self.demote_key_zone(db, k(0))
        part = db.performance_tier.partition_for_key(k(0))
        for _ in range(part.tracker.discriminator.window_capacity * 5):
            db.get(k(0))
        assert len(db.promotion.cache) >= 1
        promoted = db.promotion.promotions
        busy = db.nvme_device.busy_seconds() + db.sata_device.busy_seconds()
        service = db.checkpoint()
        assert db.promotion.promotions > promoted
        assert service == pytest.approx(
            db.nvme_device.busy_seconds() + db.sata_device.busy_seconds() - busy
        )

    def test_staged_copy_served(self):
        db = make_db(nvme_mib=2)
        db.put(k(0), b"hot-object" * 10)
        for i in range(1, 200):
            db.put(k(i), b"x" * 512)
        self.demote_key_zone(db, k(0))
        part = db.performance_tier.partition_for_key(k(0))
        for _ in range(part.tracker.discriminator.window_capacity * 5):
            value, _ = db.get(k(0))
        assert value == b"hot-object" * 10

    def test_put_invalidates_staged_copy(self):
        db = make_db()
        db.promotion.stage(
            __import__("repro.common.records", fromlist=["Record"]).Record(
                k(3), b"stale", 1
            )
        )
        db.put(k(3), b"fresh")
        assert db.get(k(3))[0] == b"fresh"


class TestScan:
    def test_scan_within_nvme(self):
        db = make_db()
        for i in range(100):
            db.put(k(i), bytes([i]))
        out, _ = db.scan(k(10), 20)
        assert [key for key, _ in out] == [k(i) for i in range(10, 30)]

    def test_scan_across_tiers(self):
        db = make_db(nvme_mib=2)
        for i in range(4000):
            db.put(k(i), b"x" * 512)
        assert db.capacity_tier.valid_bytes() > 0  # some keys demoted
        out, _ = db.scan(k(100), 50)
        assert [key for key, _ in out] == [k(i) for i in range(100, 150)]

    def test_scan_skips_deleted(self):
        db = make_db()
        for i in range(30):
            db.put(k(i), b"v")
        db.delete(k(5))
        out, _ = db.scan(k(0), 30)
        keys = [key for key, _ in out]
        assert k(5) not in keys

    def test_scan_across_partitions(self):
        db = make_db()
        step = KEYSPACE // 40
        for i in range(0, KEYSPACE, step):
            db.put(k(i), b"v")
        out, _ = db.scan(k(0), 40)
        assert len(out) == 40
        keys = [key for key, _ in out]
        assert keys == sorted(keys)


class TestAccounting:
    def test_devices_exposed(self):
        db = make_db()
        devs = db.devices()
        assert set(devs) == {"nvme", "sata"}

    def test_space_usage(self):
        db = make_db(nvme_mib=2)
        for i in range(3000):
            db.put(k(i), b"x" * 512)
        usage = db.space_usage()
        assert usage["nvme"] > 0 and usage["sata"] > 0

    def test_write_volume_tracked_by_kind(self):
        db = make_db(nvme_mib=2)
        for i in range(3000):
            db.put(k(i), b"x" * 512)
        nvme_t = db.nvme_device.traffic
        assert nvme_t.write_bytes(TrafficKind.FOREGROUND) > 0
        sata_t = db.sata_device.traffic
        total_sata_writes = sata_t.write_bytes()
        assert total_sata_writes >= sata_t.write_bytes(TrafficKind.MIGRATION)
