"""Tests for segmented semi-SSTable levels and preemptive block compaction."""

from itertools import islice

import numpy as np
import pytest

from repro.common.errors import ConfigError, CorruptionError, ReproError
from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.lsm.semi import CapacityTier, SemiLevelConfig, SemiLevels
from repro.lsm.semi.semisstable import SemiSSTable
from repro.simssd import DeviceProfile, SimDevice, SimFilesystem, TrafficKind

KEYSPACE = 100_000


def make_fs(mib=256):
    profile = DeviceProfile(
        name="sata",
        capacity_bytes=mib * (1 << 20),
        page_size=4096,
        read_latency_s=2e-4,
        write_latency_s=6e-5,
        read_bandwidth=5.6e8,
        write_bandwidth=5.1e8,
    )
    return SimFilesystem(SimDevice(profile))


def config(**kw):
    defaults = dict(
        key_space=KeyRange(encode_key(0), encode_key(KEYSPACE)),
        num_levels=3,
        size_ratio=4,
        bottom_segments=16,
        block_size=1024,
        level1_target_bytes=16 << 10,
    )
    defaults.update(kw)
    return SemiLevelConfig(**defaults)


def recs(ids, value=b"v" * 32, seqno_base=1):
    return [Record(encode_key(i), value, seqno_base + n) for n, i in enumerate(ids)]


class TestSemiLevelConfig:
    def test_segments_at(self):
        c = config()
        assert c.segments_at(3) == 16
        assert c.segments_at(2) == 4
        assert c.segments_at(1) == 1

    def test_target_bytes_geometric(self):
        c = config()
        assert c.target_bytes(2) == c.target_bytes(1) * 4
        assert c.target_bytes(3) == c.target_bytes(1) * 16

    def test_validation(self):
        with pytest.raises(ConfigError):
            config(num_levels=1)
        with pytest.raises(ConfigError):
            config(size_ratio=1)
        with pytest.raises(ConfigError):
            config(bottom_segments=2)  # < size_ratio^(levels-1)
        with pytest.raises(ConfigError):
            config(key_space=KeyRange(encode_key(0), None))


class TestSemiLevels:
    def test_lazy_table_creation(self):
        levels = SemiLevels(make_fs(), config())
        assert levels.table_for_key(1, encode_key(5)) is None
        t = levels.table_for_key(1, encode_key(5), create=True)
        assert t is not None
        assert levels.table_for_key(1, encode_key(5)) is t

    def test_key_outside_space_rejected(self):
        levels = SemiLevels(make_fs(), config())
        with pytest.raises(ReproError):
            levels.table_for_key(1, encode_key(KEYSPACE + 1))

    def test_segment_ranges_partition_key_space(self):
        levels = SemiLevels(make_fs(), config())
        c = config()
        for level_no in (1, 2, 3):
            nseg = c.segments_at(level_no)
            ranges = [levels.segment_range(level_no, s) for s in range(nseg)]
            assert ranges[0].lo == encode_key(0)
            assert ranges[-1].hi == encode_key(KEYSPACE)
            for a, b in zip(ranges, ranges[1:]):
                assert a.hi == b.lo

    def test_same_key_same_segment_at_each_level(self):
        levels = SemiLevels(make_fs(), config())
        for key_id in (0, 1, 12_345, KEYSPACE - 1):
            key = encode_key(key_id)
            for level_no in (1, 2, 3):
                seg = levels.level(level_no).segment_of(key)
                assert levels.segment_range(level_no, seg).contains(key)

    def test_tables_overlapping(self):
        levels = SemiLevels(make_fs(), config())
        t = levels.table_for_key(3, encode_key(0), create=True)
        hits = levels.tables_overlapping(3, encode_key(0), encode_key(10))
        assert hits == [t]
        assert levels.tables_overlapping(3, encode_key(50_000), encode_key(50_001)) == []


class TestCapacityTier:
    def test_ingest_and_get(self):
        tier = CapacityTier(make_fs(), config())
        tier.ingest(recs(range(1000)))
        rec, _ = tier.get(encode_key(500))
        assert rec is not None and rec.value == b"v" * 32

    def test_ingest_unsorted_batch(self):
        tier = CapacityTier(make_fs(), config())
        ids = list(range(500))
        np.random.default_rng(1).shuffle(ids)
        tier.ingest(recs(ids))
        for i in (0, 250, 499):
            rec, _ = tier.get(encode_key(i))
            assert rec is not None

    def test_ingest_duplicate_keys_newest_wins(self):
        tier = CapacityTier(make_fs(), config())
        batch = recs([7], value=b"old", seqno_base=1) + recs([7], value=b"new", seqno_base=100)
        tier.ingest(batch)
        rec, _ = tier.get(encode_key(7))
        assert rec.value == b"new"

    def test_entry_lost_with_a_corrupt_block_is_merged_again(self, monkeypatch):
        # The compaction an ingest sets off reads a block of the batch just
        # merged and finds it corrupt: the triage drops the block, yet the
        # caller (a demotion) frees its own copy once ingest returns, so
        # ingest merges the lost entry again.
        tier = CapacityTier(make_fs(), config())
        triaged = []
        tier.levels.on_corrupt_block = lambda table, block, superseded: triaged.append(
            table.keys_of_block(block)
        ) or 0
        tier.ingest(recs(range(1000), value=b"old", seqno_base=1))
        key = encode_key(500)
        real_read, real_check = SemiSSTable._read_blocks, SemiSSTable._check_block
        kinds = []  # the kind of each background read in progress

        def read_blocks(table, blocks, kind, superseded):
            kinds.append(kind)
            try:
                return real_read(table, blocks, kind, superseded)
            finally:
                kinds.pop()

        def check_block(table, block, raw):
            kind = kinds[-1]
            if (
                not triaged
                and kind is TrafficKind.COMPACTION
                and key in table.keys_of_block(block)
                and table.seqno_of(key) == 5000
            ):
                raise CorruptionError("flipped")
            return real_check(table, block, raw)

        monkeypatch.setattr(SemiSSTable, "_read_blocks", read_blocks)
        monkeypatch.setattr(SemiSSTable, "_check_block", check_block)
        tier.ingest([Record(key, b"new", 5000)] + recs(range(1000, 2000), seqno_base=6000))
        assert triaged and any(key in keys for keys in triaged)
        assert tier.levels.corrupt_blocks == len(triaged)
        rec, _ = tier.get(key)
        assert (rec.value, rec.seqno) == (b"new", 5000)

    def test_compaction_triggered_and_levels_bounded(self):
        tier = CapacityTier(make_fs(), config())
        rng = np.random.default_rng(0)
        seq = 1
        for _ in range(30):
            ids = rng.integers(0, KEYSPACE, size=400)
            tier.ingest(recs(ids.tolist(), seqno_base=seq))
            seq += 500
        assert tier.compactor.stats.compactions > 0
        for level_no in range(1, tier.levels.num_levels):
            score = tier.compactor.level_score(level_no)
            assert score < 2.0, f"L{level_no} score {score}"

    def test_values_survive_compaction(self):
        tier = CapacityTier(make_fs(), config())
        seq = 1
        for round_no in range(20):
            tier.ingest(recs(range(2000), value=b"r%02d" % round_no, seqno_base=seq))
            seq += 2001
        for i in range(0, 2000, 111):
            rec, _ = tier.get(encode_key(i))
            assert rec is not None, i
            assert rec.value == b"r19"

    def test_preemptive_records_counted(self):
        tier = CapacityTier(make_fs(), config(), depth=2)
        rng = np.random.default_rng(7)
        seq = 1
        # Repeated overwrites of the same keys create deep duplicates that
        # preemptive compaction can route past the middle level.
        for _ in range(40):
            ids = rng.integers(0, 5000, size=400)
            tier.ingest(recs(ids.tolist(), seqno_base=seq))
            seq += 500
        assert tier.compactor.stats.preemptive_records > 0

    def test_newest_version_wins_across_levels(self):
        tier = CapacityTier(make_fs(), config())
        seq = 1
        for round_no in range(10):
            tier.ingest(recs(range(0, 3000, 3), value=b"%03d" % round_no, seqno_base=seq))
            seq += 1001
        rec, _ = tier.get(encode_key(0))
        assert rec.value == b"009"

    def test_tombstone_roundtrip(self):
        tier = CapacityTier(make_fs(), config())
        tier.ingest(recs(range(100)))
        tier.ingest([Record.tombstone(encode_key(5), 10**6)])
        rec, _ = tier.get(encode_key(5))
        assert rec is not None and rec.is_tombstone

    def test_scan_sorted_no_tombstones(self):
        tier = CapacityTier(make_fs(), config())
        tier.ingest(recs(range(200)))
        tier.ingest([Record.tombstone(encode_key(50), 10**6)])
        out = list(islice(tier.scan(encode_key(40), 20), 20))
        keys = [e[0] for e in out]
        assert keys == sorted(keys)
        assert encode_key(50) not in keys
        assert len(out) == 20

    def test_contains_key_no_io(self):
        tier = CapacityTier(make_fs(), config())
        tier.ingest(recs(range(100)))
        tier.fs.device.traffic.reset()
        assert tier.contains_key(encode_key(50))
        assert not tier.contains_key(encode_key(50_000))
        assert tier.fs.device.traffic.read_bytes(TrafficKind.FOREGROUND) == 0

    def test_space_amplification_bounded(self):
        tier = CapacityTier(make_fs(), config(), t_clean=0.4)
        rng = np.random.default_rng(3)
        seq = 1
        for _ in range(60):
            ids = rng.integers(0, 3000, size=300)
            tier.ingest(recs(ids.tolist(), seqno_base=seq))
            seq += 400
        # Stale blocks accumulate but full compaction keeps the debt bounded.
        assert tier.space_amplification() < 3.0

    def test_compaction_io_attributed_to_levels(self):
        tier = CapacityTier(make_fs(), config())
        rng = np.random.default_rng(5)
        seq = 1
        for _ in range(30):
            ids = rng.integers(0, KEYSPACE, size=400)
            tier.ingest(recs(ids.tolist(), seqno_base=seq))
            seq += 500
        stats = tier.compactor.stats
        assert stats.total_write_bytes() > 0
        assert set(stats.write_bytes_by_level) <= {2, 3}
