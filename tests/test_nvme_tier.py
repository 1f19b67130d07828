"""Tests for the NVMe performance tier: page store, zones, partitions."""

import pytest

from repro.common.errors import CapacityError, ConfigError, ReproError
from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.common.cache import LRUCache
from repro.nvme import NVMeConfig, PageStore, PerformanceTier, Zone
from repro.nvme.config import slot_class_for
from repro.simssd import DeviceProfile, SimDevice, TrafficKind

KEYSPACE = 100_000


def make_device(mib=32):
    profile = DeviceProfile(
        name="nvme",
        capacity_bytes=mib * (1 << 20),
        page_size=4096,
        read_latency_s=8e-5,
        write_latency_s=2e-5,
        read_bandwidth=6.5e9,
        write_bandwidth=3.5e9,
    )
    return SimDevice(profile)


def key_space():
    return KeyRange(encode_key(0), encode_key(KEYSPACE))


def rec(i, value=b"v" * 100, seqno=None):
    return Record(encode_key(i), value, seqno if seqno is not None else i + 1)


class TestNVMeConfig:
    def test_slot_class_for(self):
        assert slot_class_for(60) == 64
        assert slot_class_for(64) == 64
        assert slot_class_for(65) == 96
        assert slot_class_for(1046) == 1536
        assert slot_class_for(5000) == 5000  # oversized: dedicated slot

    def test_validation(self):
        with pytest.raises(ConfigError):
            NVMeConfig(num_partitions=0)
        with pytest.raises(ConfigError):
            NVMeConfig(high_watermark=0.5, low_watermark=0.6)


class TestPageStore:
    def test_allocate_write_read(self):
        ps = PageStore(make_device(1))
        (pid,) = ps.allocate()
        ps.write(pid, 10, b"hello", TrafficKind.FOREGROUND)
        data, _ = ps.read(pid, TrafficKind.FOREGROUND)
        assert data[10:15] == b"hello"

    def test_free_returns_capacity(self):
        dev = make_device(1)
        ps = PageStore(dev)
        (pid,) = ps.allocate()
        assert dev.allocated_pages == 1
        ps.free(pid)
        assert dev.allocated_pages == 0
        with pytest.raises(ReproError):
            ps.free(pid)

    def test_capacity_enforced(self):
        dev = make_device(1)  # 256 pages
        ps = PageStore(dev)
        ps.allocate(256)
        with pytest.raises(CapacityError):
            ps.allocate(1)

    def test_cache_invalidated_on_write(self):
        ps = PageStore(make_device(1))
        cache = LRUCache(1 << 20)
        (pid,) = ps.allocate()
        ps.write(pid, 0, b"v1", TrafficKind.FOREGROUND)
        ps.read(pid, TrafficKind.FOREGROUND, cache)
        ps.write(pid, 0, b"v2", TrafficKind.FOREGROUND, cache)
        data, _ = ps.read(pid, TrafficKind.FOREGROUND, cache)
        assert data[:2] == b"v2"

    def test_oversized_write_charges_multiple_pages(self):
        dev = make_device(1)
        ps = PageStore(dev)
        pids = ps.allocate(2)
        dev.traffic.reset()
        ps.write(pids[0], 0, b"x" * 5000, TrafficKind.FOREGROUND, npages=2)
        assert dev.traffic.write_bytes() == 2 * 4096

    def test_out_of_bounds_write_rejected(self):
        ps = PageStore(make_device(1))
        (pid,) = ps.allocate()
        with pytest.raises(ReproError):
            ps.write(pid, 4090, b"x" * 10, TrafficKind.FOREGROUND)


class TestZone:
    def test_write_read_roundtrip(self):
        ps = PageStore(make_device(4))
        z = Zone(1, KeyRange(encode_key(0), encode_key(1000)), ps)
        loc, _ = z.write_record(rec(5), slot_size=128)
        out, _ = z.read_object(loc)
        assert out.key == encode_key(5) and out.value == b"v" * 100

    def test_slot_packing(self):
        ps = PageStore(make_device(4))
        z = Zone(1, KeyRange(encode_key(0), encode_key(1000)), ps)
        # 32 slots of 128B per 4K page.
        for i in range(32):
            z.write_record(rec(i), slot_size=128)
        assert z.num_pages == 1
        z.write_record(rec(32), slot_size=128)
        assert z.num_pages == 2

    def test_key_range_enforced(self):
        ps = PageStore(make_device(4))
        z = Zone(1, KeyRange(encode_key(0), encode_key(10)), ps)
        with pytest.raises(ReproError):
            z.write_record(rec(50), slot_size=128)

    def test_hot_zone_accepts_everything(self):
        ps = PageStore(make_device(4))
        z = Zone(1, None, ps)
        z.write_record(rec(10**4), slot_size=128)
        assert z.is_hot_zone

    def test_slot_reuse_after_free(self):
        ps = PageStore(make_device(4))
        z = Zone(1, None, ps)
        keeper, _ = z.write_record(rec(0), slot_size=128)  # keeps the page alive
        loc, _ = z.write_record(rec(1), slot_size=128)
        z.remove_object(encode_key(1), loc)
        loc2, _ = z.write_record(rec(2), slot_size=128)
        assert (loc2.page_id, loc2.slot_index) == (loc.page_id, loc.slot_index)

    def test_empty_page_released(self):
        dev = make_device(4)
        ps = PageStore(dev)
        z = Zone(1, None, ps)
        locs = [z.write_record(rec(i), slot_size=2048)[0] for i in range(2)]
        assert dev.allocated_pages == 1
        for i, loc in enumerate(locs):
            z.remove_object(encode_key(i), loc)
        assert dev.allocated_pages == 0

    def test_in_place_update(self):
        ps = PageStore(make_device(4))
        z = Zone(1, None, ps)
        loc, _ = z.write_record(rec(1, b"old-value"), slot_size=128)
        loc2, _ = z.update_in_place(loc, rec(1, b"new-value", seqno=99))
        out, _ = z.read_object(loc2)
        assert out.value == b"new-value"
        assert z.num_pages == 1

    def test_in_place_update_too_big_rejected(self):
        ps = PageStore(make_device(4))
        z = Zone(1, None, ps)
        loc, _ = z.write_record(rec(1, b"small"), slot_size=64)
        with pytest.raises(ReproError):
            z.update_in_place(loc, rec(1, b"x" * 200))

    def test_oversized_object_spans_pages(self):
        dev = make_device(4)
        ps = PageStore(dev)
        z = Zone(1, None, ps)
        big = rec(1, b"x" * 5000)
        loc, _ = z.write_record(big, slot_size=big.encoded_size)
        assert z.total_pages() == 2
        out, _ = z.read_object(loc)
        assert out.value == b"x" * 5000
        z.remove_object(encode_key(1), loc)
        assert dev.allocated_pages == 0

    def test_demotion_score(self):
        ps = PageStore(make_device(4))
        z = Zone(1, None, ps)
        assert z.demotion_score() == 0.0
        loc, _ = z.write_record(rec(1), slot_size=128)
        score_cold = z.demotion_score()
        z.read_object(loc)
        z.read_object(loc)
        assert z.demotion_score() < score_cold  # reads raise the cost
        z.reset_read_counter()
        assert z.demotion_score() == score_cold


class TestPerformanceTier:
    def make_tier(self, mib=32, **cfg):
        defaults = dict(num_partitions=4, initial_zones_per_partition=2)
        defaults.update(cfg)
        return PerformanceTier(make_device(mib), key_space(), NVMeConfig(**defaults))

    def test_put_get_across_partitions(self):
        tier = self.make_tier()
        for i in range(0, KEYSPACE, KEYSPACE // 100):
            tier.put(rec(i))
        for i in range(0, KEYSPACE, KEYSPACE // 100):
            out, _ = tier.get(encode_key(i))
            assert out is not None and out.value == b"v" * 100

    def test_get_missing(self):
        tier = self.make_tier()
        out, _ = tier.get(encode_key(42))
        assert out is None

    def test_update_in_place_no_extra_pages(self):
        tier = self.make_tier()
        tier.put(rec(1))
        pages_before = tier.used_pages()
        for s in range(10):
            tier.put(rec(1, b"u" * 100, seqno=100 + s))
        assert tier.used_pages() == pages_before
        out, _ = tier.get(encode_key(1))
        assert out.value == b"u" * 100

    def test_resize_moves_object(self):
        tier = self.make_tier()
        tier.put(rec(1, b"small"))
        tier.put(rec(1, b"x" * 900, seqno=50))
        out, _ = tier.get(encode_key(1))
        assert out.value == b"x" * 900
        assert tier.object_count() == 1

    def test_routing_outside_keyspace_rejected(self):
        tier = self.make_tier()
        with pytest.raises(ReproError):
            tier.put(rec(KEYSPACE + 5))

    def test_partition_isolation(self):
        tier = self.make_tier()
        tier.put(rec(0))
        tier.put(rec(KEYSPACE - 1))
        p_first = tier.partition_for_key(encode_key(0))
        p_last = tier.partition_for_key(encode_key(KEYSPACE - 1))
        assert p_first is not p_last
        assert p_first.object_count() == 1
        assert p_last.object_count() == 1

    def test_fill_fraction_and_watermarks(self):
        tier = self.make_tier(
            mib=2, num_partitions=1, high_watermark=0.5, low_watermark=0.3
        )
        i = 0
        while not tier.partitions[0].over_high_watermark():
            tier.put(rec(i, b"x" * 1000))
            i += 1
        assert tier.partitions_over_watermark() == [tier.partitions[0]]
        assert 0 < tier.fill_fraction() <= 1.0

    def test_zone_split_on_growth(self):
        tier = self.make_tier(
            mib=32, num_partitions=1, migration_batch_bytes=8 << 10
        )
        part = tier.partitions[0]
        zones_before = len(part.zones())
        for i in range(3000):
            tier.put(rec(i, b"x" * 100))
        assert len(part.zones()) > zones_before
        # All zones hold only keys within their ranges.
        for z in part.zones():
            for k in z.keys:
                assert z.key_range.contains(k)
        for i in range(0, 3000, 211):
            out, _ = tier.get(encode_key(i))
            assert out is not None

    def test_eq1_eq2_zone_targets(self):
        tier = self.make_tier(num_partitions=1, migration_batch_bytes=64 << 10)
        part = tier.partitions[0]
        for i in range(100):
            tier.put(rec(i, b"x" * 100))  # encoded 122B
        avg = part.average_object_size()
        assert avg == pytest.approx(122, abs=1)
        assert part.zone_target_objects() == int((64 << 10) / avg)

    def test_writes_charge_foreground_page_ios(self):
        tier = self.make_tier()
        tier.device.traffic.reset()
        tier.put(rec(1))
        assert tier.device.traffic.write_bytes(TrafficKind.FOREGROUND) == 4096

    def test_reads_cached(self):
        cache = LRUCache(1 << 20)
        device = make_device()
        tier = PerformanceTier(device, key_space(), NVMeConfig(num_partitions=2), cache=cache)
        tier.put(rec(1))
        tier.get(encode_key(1))
        device.traffic.reset()
        tier.get(encode_key(1))
        assert device.traffic.read_bytes(TrafficKind.FOREGROUND) == 0


class TestDemotionCollect:
    def test_collect_zone_returns_sorted_batch_and_frees_space(self):
        device = make_device()
        tier = PerformanceTier(
            device,
            key_space(),
            NVMeConfig(num_partitions=1, initial_zones_per_partition=4),
        )
        part = tier.partitions[0]
        for i in range(500):
            tier.put(rec(i))
        zone = part.select_demotion_zone()
        assert zone is not None
        count_before = part.object_count()
        pages_before = tier.used_pages()
        batch, _ = part.collect_zone(zone)
        assert batch, "demotion batch should not be empty"
        keys = [e[0] for e in batch]
        assert keys == sorted(keys)
        assert part.object_count() == count_before - len(batch)
        assert tier.used_pages() < pages_before
        assert zone.object_count == 0

    def test_collect_charges_migration_reads(self):
        device = make_device()
        tier = PerformanceTier(device, key_space(), NVMeConfig(num_partitions=1))
        part = tier.partitions[0]
        for i in range(200):
            tier.put(rec(i))
        zone = part.select_demotion_zone()
        device.traffic.reset()
        part.collect_zone(zone)
        assert device.traffic.read_bytes(TrafficKind.MIGRATION) > 0

    def test_hot_objects_parked_not_demoted(self):
        device = make_device()
        tier = PerformanceTier(
            device,
            key_space(),
            NVMeConfig(num_partitions=1, initial_zones_per_partition=1),
        )
        part = tier.partitions[0]
        for i in range(100):
            tier.put(rec(i))
        # Hammer one key until the tracker calls it hot.
        hot = encode_key(7)
        for _ in range(part.tracker.discriminator.window_capacity * 4):
            part.tracker.record_access(hot)
        assert part.tracker.is_hot(hot)
        zone = part.zone_for_key(hot)
        batch, _ = part.collect_zone(zone)
        assert hot not in [e[0] for e in batch]
        assert hot in part.hot_zone.keys
        out, _ = tier.get(hot)
        assert out is not None


class TestPromotion:
    def test_promote_and_get(self):
        tier = PerformanceTier(make_device(), key_space(), NVMeConfig(num_partitions=1))
        part = tier.partitions[0]
        part.promote(rec(5, b"from-sata"))
        out, _ = tier.get(encode_key(5))
        assert out.value == b"from-sata"
        loc = part.index.get(encode_key(5))
        assert loc.promoted and loc.zone_id == part.hot_zone.zone_id

    def test_promote_existing_noop(self):
        tier = PerformanceTier(make_device(), key_space(), NVMeConfig(num_partitions=1))
        part = tier.partitions[0]
        tier.put(rec(5, b"resident"))
        part.promote(rec(5, b"stale"))
        out, _ = tier.get(encode_key(5))
        assert out.value == b"resident"

    def test_update_clears_promotion_label(self):
        tier = PerformanceTier(make_device(), key_space(), NVMeConfig(num_partitions=1))
        part = tier.partitions[0]
        part.promote(rec(5, b"v" * 100))
        tier.put(rec(5, b"w" * 100, seqno=99))
        loc = part.index.get(encode_key(5))
        assert not loc.promoted

    def test_hot_zone_eviction_drops_promoted(self):
        cfg = NVMeConfig(num_partitions=1, hot_zone_fraction=0.001)
        tier = PerformanceTier(make_device(2), key_space(), cfg)
        part = tier.partitions[0]
        # Small hot-zone budget: flooding it with promoted cold objects
        # must evict-by-drop, not grow unboundedly.
        for i in range(200):
            part.promote(rec(i, b"x" * 100))
        assert part.hot_zone.total_pages() <= part._hot_zone_page_budget() + 1
