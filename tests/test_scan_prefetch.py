"""Tests for the scan prefetcher extension (the paper's §4.2 future work)."""

from itertools import islice

import pytest

from repro.common.cache import LRUCache
from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.core import HyperDB, HyperDBConfig
from repro.lsm.semi import CapacityTier, SemiLevelConfig, SemiSSTable
from repro.nvme.config import NVMeConfig
from repro.simssd import DeviceProfile, SimDevice, SimFilesystem, TrafficKind

KiB = 1024
MiB = 1024 * KiB


def make_fs(mib=64):
    return SimFilesystem(
        SimDevice(
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
    )


class TestReadBlocksBulk:
    def make_table(self, fs):
        t = SemiSSTable(
            1, fs, KeyRange(encode_key(0), encode_key(100_000)), block_size=1024
        )
        t.merge_append(
            [Record(encode_key(i), b"v" * 80, i + 1) for i in range(500)]
        )
        return t

    def test_returns_all_requested_blocks(self):
        fs = make_fs()
        t = self.make_table(fs)
        live = [b for b in t.blocks if not b.is_dead]
        out, service = t.read_blocks_bulk(live, TrafficKind.FOREGROUND)
        assert set(out) == {b.block_id for b in live}
        assert service > 0

    def test_coalesced_read_cheaper_than_per_block(self):
        fs = make_fs()
        t = self.make_table(fs)
        live = [b for b in t.blocks if not b.is_dead]
        _, bulk_service = t.read_blocks_bulk(live, TrafficKind.FOREGROUND)
        per_block = sum(
            t._read_block(b, TrafficKind.FOREGROUND)[1] for b in live
        )
        # One command setup for the contiguous run vs one per block.
        assert bulk_service < per_block * 0.6

    def test_bulk_read_populates_cache(self):
        fs = make_fs()
        t = self.make_table(fs)
        cache = LRUCache(4 * MiB)
        live = [b for b in t.blocks if not b.is_dead]
        t.read_blocks_bulk(live, TrafficKind.FOREGROUND, cache)
        fs.device.traffic.reset()
        rec, service = t.get(encode_key(250), TrafficKind.FOREGROUND, cache)
        assert rec is not None and service == 0.0
        assert fs.device.traffic.read_bytes() == 0

    def test_cached_blocks_skipped(self):
        fs = make_fs()
        t = self.make_table(fs)
        cache = LRUCache(4 * MiB)
        live = [b for b in t.blocks if not b.is_dead]
        t.read_blocks_bulk(live, TrafficKind.FOREGROUND, cache)
        fs.device.traffic.reset()
        t.read_blocks_bulk(live, TrafficKind.FOREGROUND, cache)
        assert fs.device.traffic.read_bytes() == 0


def take(tier, start, count, prefetch=False):
    """The first ``count`` records of the capacity-tier cursor and the
    device seconds pulling them cost."""
    before = tier.fs.device.busy_seconds()
    out = list(islice(tier.scan(encode_key(start), count, prefetch=prefetch), count))
    return out, tier.fs.device.busy_seconds() - before


class TestScanPrefetch:
    def make_tier(self, cache_bytes=4 * MiB):
        tier = CapacityTier(
            make_fs(),
            SemiLevelConfig(
                key_space=KeyRange(encode_key(0), encode_key(10_000)),
                num_levels=3,
                size_ratio=4,
                bottom_segments=16,
                level1_target_bytes=64 * KiB,
            ),
            cache=LRUCache(cache_bytes),
        )
        tier.ingest([Record(encode_key(i), b"v" * 100, i + 1) for i in range(3000)])
        return tier

    def test_same_results_with_and_without(self):
        plain = self.make_tier()
        fetched = self.make_tier()
        a, _ = take(plain, 100, 50)
        b, _ = take(fetched, 100, 50, prefetch=True)
        assert len(a) == 50
        assert [(r.key, r.value) for r in a] == [(r.key, r.value) for r in b]

    def test_prefetch_reduces_scan_service(self):
        plain = self.make_tier()
        fetched = self.make_tier()
        _, s_plain = take(plain, 1000, 100)
        _, s_fetched = take(fetched, 1000, 100, prefetch=True)
        assert s_fetched < s_plain

    def test_prefetch_stops_at_count_candidates(self, monkeypatch):
        """A round lists ``count + 16`` candidates per level; prefetch reads
        the blocks of the first ``count`` of them and no others."""
        tier = self.make_tier()
        count = 20
        bulk_read, fetched = set(), []
        bulk, indexed = SemiSSTable.read_blocks_bulk, SemiSSTable.get_indexed

        def spy_bulk(table, blocks, kind, cache=None):
            bulk_read.update((table.table_id, b.block_id) for b in blocks)
            return bulk(table, blocks, kind, cache)

        def spy_indexed(table, key, kind, cache=None):
            fetched.append((table.table_id, table.block_of(key).block_id))
            return indexed(table, key, kind, cache)

        monkeypatch.setattr(SemiSSTable, "read_blocks_bulk", spy_bulk)
        monkeypatch.setattr(SemiSSTable, "get_indexed", spy_indexed)
        # Tombstone-free: the first round's candidates, in order.
        list(islice(tier.scan(encode_key(1000), count, prefetch=True), count + 16))
        assert bulk_read == set(fetched[:count])
        assert set(fetched[count:]) - bulk_read

    @pytest.mark.parametrize("prefetch", [False, True])
    @pytest.mark.parametrize("start,count", [(0, 1), (100, 50), (1234, 100), (2990, 40)])
    def test_owner_map_equals_rerouted_lookups(self, start, count, prefetch):
        """The cursor's owner map returns what a dict of the ingested records
        holds and what a rerouted point lookup (``tier.get``) finds."""
        # A cache smaller than one scan's blocks: evictions happen mid-scan.
        tier = self.make_tier(32 * KiB)
        model = {encode_key(i): (b"v" * 100, i + 1) for i in range(3000)}
        # Overwrites leave the newest versions spread over L1..L3.
        for seq, step in ((10_000, 3), (20_000, 15)):
            recs = [Record(encode_key(i), b"w" * 90, seq + i) for i in range(1, 3000, step)]
            tier.ingest(recs)
            model.update((r.key, (r.value, r.seqno)) for r in recs)
        assert all(tier.levels.level_valid_bytes(n) > 0 for n in (1, 2, 3))
        got, _ = take(tier, start, count, prefetch)
        want = sorted(k for k in model if k >= encode_key(start))[:count]
        assert [r.key for r in got] == want
        assert [(r.value, r.seqno) for r in got] == [model[k] for k in want]
        for rec in got:
            looked_up, _ = tier.get(rec.key)
            assert (looked_up.value, looked_up.seqno) == (rec.value, rec.seqno)

    def test_hyperdb_config_switch(self):
        def build(flag):
            nvme = SimDevice(
                DeviceProfile(
                    name="nvme",
                    capacity_bytes=2 * MiB,
                    page_size=4096,
                    read_latency_s=8e-5,
                    write_latency_s=2e-5,
                    read_bandwidth=6.5e9,
                    write_bandwidth=3.5e9,
                )
            )
            db = HyperDB(
                nvme,
                make_fs().device,
                HyperDBConfig(
                    key_space=KeyRange(encode_key(0), encode_key(10_000)),
                    nvme=NVMeConfig(num_partitions=2, migration_batch_bytes=16 * KiB),
                    enable_scan_prefetch=flag,
                ),
            )
            for i in range(5000):
                db.put(encode_key(i), b"x" * 300)
            return db

        plain, fetched = build(False), build(True)
        a, s_plain = plain.scan(encode_key(500), 50)
        b, s_fetched = fetched.scan(encode_key(500), 50)
        assert a == b
        # End-to-end the win depends on how much of the scan the capacity
        # tier serves; prefetching may over-read candidates the NVMe stream
        # shadows, so we only require it not to be a regression-by-much.
        assert s_fetched <= s_plain * 1.25
