"""Tests for the three baseline stores."""

import numpy as np
import pytest

from repro.common.keys import encode_key
from repro.baselines import PrismDBStore, RocksDBSecondaryCacheStore, RocksDBStore
from repro.lsm.lsmtree import LSMOptions
from repro.nvme.config import NVMeConfig
from repro.simssd import DeviceProfile, SimDevice, TrafficKind

KiB = 1024
MiB = 1024 * KiB


def nvme(mib=8):
    return SimDevice(
        DeviceProfile(
            name="nvme",
            capacity_bytes=int(mib * MiB),
            page_size=4096,
            read_latency_s=8e-5,
            write_latency_s=2e-5,
            read_bandwidth=6.5e9,
            write_bandwidth=3.5e9,
        )
    )


def sata(mib=128):
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


def small_lsm_options(**kw):
    defaults = dict(
        memtable_bytes=8 * KiB,
        table_size_bytes=16 * KiB,
        block_size=2 * KiB,
        level0_trigger=2,
        level_base_bytes=32 * KiB,
        level_multiplier=4,
        num_levels=5,
    )
    defaults.update(kw)
    return LSMOptions(**defaults)


def k(i):
    return encode_key(i)


def check_store_contract(store, n=1500, vlen=100):
    """Shared behavioural contract: everything a KVStore must get right."""
    for i in range(n):
        store.put(k(i), bytes([i % 256]) * vlen)
    # Point reads.
    for i in range(0, n, max(1, n // 40)):
        value, _ = store.get(k(i))
        assert value == bytes([i % 256]) * vlen, f"key {i}"
    # Updates win.
    store.put(k(3), b"updated")
    assert store.get(k(3))[0] == b"updated"
    # Deletes shadow.
    store.delete(k(4))
    assert store.get(k(4))[0] is None
    # Missing keys miss.
    assert store.get(k(10**8))[0] is None
    # Scans are ordered, skip deletes, include updates.
    out, _ = store.scan(k(0), 10)
    keys = [key for key, _ in out]
    assert keys == sorted(keys)
    assert k(4) not in keys
    assert len(out) == 10
    store.finalize()


class TestRocksDBStore:
    def test_contract(self):
        store = RocksDBStore(nvme(), sata(), small_lsm_options())
        check_store_contract(store)

    def test_levels_span_devices(self):
        store = RocksDBStore(nvme(1 / 8), sata(), small_lsm_options())
        for i in range(4000):
            store.put(k(i), b"x" * 100)
        assert store.nvme_device.used_bytes > 0
        assert store.sata_device.used_bytes > 0

    def test_compaction_hits_sata(self):
        store = RocksDBStore(nvme(1 / 8), sata(), small_lsm_options())
        for i in range(4000):
            store.put(k(i), b"x" * 100)
        assert store.sata_device.traffic.write_bytes(TrafficKind.COMPACTION) > 0

    def test_wal_on_nvme(self):
        store = RocksDBStore(nvme(), sata(), small_lsm_options())
        for i in range(100):
            store.put(k(i), b"v")
        assert store.nvme_device.traffic.write_bytes(TrafficKind.WAL) > 0
        assert store.sata_device.traffic.write_bytes(TrafficKind.WAL) == 0


class TestRocksDBSecondaryCache:
    def test_contract(self):
        store = RocksDBSecondaryCacheStore(nvme(), sata(), small_lsm_options())
        check_store_contract(store)

    def test_tree_entirely_on_sata(self):
        store = RocksDBSecondaryCacheStore(nvme(), sata(), small_lsm_options())
        for i in range(2000):
            store.put(k(i), b"x" * 100)
        # NVMe holds only cache admissions (GC lane), never tree files.
        assert store.nvme_device.traffic.write_bytes(TrafficKind.FLUSH) == 0
        assert store.nvme_device.traffic.write_bytes(TrafficKind.COMPACTION) == 0
        assert store.sata_device.used_bytes > 0

    def test_secondary_hit_cheaper_than_sata_read(self):
        store = RocksDBSecondaryCacheStore(
            nvme(), sata(), small_lsm_options(), dram_cache_bytes=4 * KiB
        )
        for i in range(2000):
            store.put(k(i), b"x" * 100)
        store.finalize()
        # First read: SATA (and admission). Re-read enough other keys to
        # evict key 7 from the tiny DRAM layer, then re-read it: NVMe hit.
        _, first = store.get(k(7))
        for i in range(100, 140):
            store.get(k(i))
        store.sata_device.traffic.reset()
        _, second = store.get(k(7))
        assert store.sata_device.traffic.read_bytes(TrafficKind.FOREGROUND) == 0
        assert second < first

    def test_admissions_charge_nvme_writes(self):
        store = RocksDBSecondaryCacheStore(nvme(), sata(), small_lsm_options())
        for i in range(2000):
            store.put(k(i), b"x" * 100)
        store.finalize()
        for i in range(0, 2000, 20):
            store.get(k(i))
        assert store.nvme_device.traffic.write_bytes(TrafficKind.GC) > 0

    def test_nvme_capacity_bounded(self):
        small = nvme(1)
        store = RocksDBSecondaryCacheStore(small, sata(), small_lsm_options())
        for i in range(3000):
            store.put(k(i), b"x" * 100)
        store.finalize()
        for i in range(3000):
            store.get(k(i))
        assert small.used_bytes <= small.capacity_bytes


class TestPrismDBStore:
    def make_store(self, nvme_mib=2, **cfg):
        defaults = dict(migration_batch_bytes=16 * KiB)
        defaults.update(cfg)
        return PrismDBStore(
            nvme(nvme_mib),
            sata(),
            nvme_config=NVMeConfig(**defaults),
            lsm_options=small_lsm_options(wal_enabled=False),
        )

    def test_contract(self):
        check_store_contract(self.make_store(nvme_mib=8))

    def test_demotion_on_watermark(self):
        store = self.make_store()
        i = 0
        stats = store.migration.stats
        while stats.demotion_jobs == 0 and i < 50_000:
            store.put(k(i), b"x" * 500)
            i += 1
        assert stats.demotion_jobs > 0
        assert stats.demoted_objects > 0
        assert store.sata_device.used_bytes > 0
        # Values survive demotion.
        for j in range(0, i, max(1, i // 50)):
            assert store.get(k(j))[0] == b"x" * 500

    def test_scattered_demotion_reads_many_pages(self):
        # The architectural weakness HyperDB fixes: with a random arrival
        # order, key-adjacent cold objects are spread across slab pages, so
        # collecting a batch reads ~a page per object.
        store = self.make_store()
        rng = np.random.default_rng(0)
        ids = rng.permutation(50_000)
        n = 0
        stats = store.migration.stats
        while stats.demotion_jobs < 5 and n < len(ids):
            store.put(k(int(ids[n])), b"x" * 120)
            n += 1
        assert stats.demoted_objects > 0
        assert store.slabs.demotion_page_reads > stats.demoted_objects * 0.5

    def test_hot_objects_stay_on_nvme(self):
        store = self.make_store()
        hot_keys = [k(j) for j in range(50)]
        i = 1000
        for round_no in range(200):
            for key in hot_keys:
                store.get(key) if round_no else store.put(key, b"h" * 200)
            for _ in range(50):
                store.put(k(i), b"c" * 500)
                i += 1
        resident = sum(1 for key in hot_keys if store.slabs.index.get(key))
        assert resident > 25

    def test_promotion_on_sata_read(self):
        store = self.make_store()
        store.put(k(5), b"value" * 20)
        # Push it out.
        i = 10
        while store.slabs.index.get(k(5)) is not None and i < 50_000:
            store.put(k(i), b"x" * 500)
            i += 1
        assert store.slabs.index.get(k(5)) is None
        store.get(k(5))  # clock bit set, read from SATA
        store.get(k(5))  # second read qualifies for promotion
        assert store.migration.stats.promoted_objects > 0
        assert store.slabs.index.get(k(5)) is not None

    def test_get_many_captures_corrupt_slot(self):
        # One flipped byte in one NVMe slot fails that slot's CRC in
        # Zone.read_object.  A capture_errors batch must land the
        # CorruptionError in that op's slot — the shared KVStore loop used
        # to capture only DeviceOfflineError, so one corrupt slot aborted
        # the whole chaos batch on engines without their own get_many.
        from repro.common.errors import CorruptionError

        store = self.make_store(nvme_mib=8)
        keys = [k(i) for i in range(20)]
        values = [b"v%03d" % i * 20 for i in range(20)]
        store.put_many(keys, values)
        store.finalize()  # the slots reach media before one is flipped
        loc = store.slabs.index.get(keys[7])
        page = store.slabs.page_store._pages[loc.page_id]
        page[loc.offset + loc.record_size - 1] ^= 0x01
        slots = store.get_many(keys, capture_errors=True)
        assert isinstance(slots[7], CorruptionError)
        assert [s[0] for s in slots[:7] + slots[8:]] == values[:7] + values[8:]
        with pytest.raises(CorruptionError):
            store.get_many(keys)

    def test_wal_options_rejected(self):
        from repro.common.errors import ReproError

        with pytest.raises(ReproError):
            PrismDBStore(
                nvme(), sata(), lsm_options=small_lsm_options(wal_enabled=True)
            )
