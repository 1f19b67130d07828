"""Crash-recovery and failure-injection tests."""

import pytest

from repro.common.errors import CapacityError, CorruptionError
from repro.common.keys import encode_key
from repro.common.records import Record
from repro.lsm.lsmtree import LSMOptions, LSMTree
from repro.simssd import DeviceProfile, SimDevice, SimFilesystem, TrafficKind
from tests.reference_codec import build_sstable, decode_block, encode_block


def make_fs(mib=32):
    profile = DeviceProfile(
        name="t",
        capacity_bytes=mib * (1 << 20),
        page_size=4096,
        read_latency_s=1e-4,
        write_latency_s=5e-5,
        read_bandwidth=5e8,
        write_bandwidth=5e8,
    )
    return SimFilesystem(SimDevice(profile))


class TestWALRecovery:
    def options(self):
        return LSMOptions(
            memtable_bytes=16 << 10,
            table_size_bytes=16 << 10,
            level_base_bytes=64 << 10,
            level_multiplier=4,
            num_levels=4,
            wal_group_size=4,
        )

    def test_synced_writes_replayable(self):
        fs = make_fs()
        tree = LSMTree(fs, self.options())
        for i in range(40):  # 10 full groups of 4
            tree.put(encode_key(i), b"v%d" % i)
        # Simulate a crash: rebuild the memtable from the WAL alone.
        replayed = tree.wal.replay()
        keys = {r.key for r in replayed}
        # Everything synced (and not yet flushed) is recoverable.
        for i in range(36):  # the last partial group may be lost
            if encode_key(i) in keys:
                rec = next(r for r in replayed if r.key == encode_key(i))
                assert rec.value == b"v%d" % i

    def test_replay_preserves_order_and_seqnos(self):
        fs = make_fs()
        tree = LSMTree(fs, self.options())
        tree.put(b"k", b"v1")
        tree.put(b"k", b"v2")
        tree.put(b"k", b"v3")
        tree.wal.sync()
        replayed = [r for r in tree.wal.replay() if r.key == b"k"]
        assert [r.value for r in replayed] == [b"v1", b"v2", b"v3"]
        assert replayed[0].seqno < replayed[1].seqno < replayed[2].seqno

    def test_wal_reset_after_flush_loses_nothing(self):
        fs = make_fs()
        tree = LSMTree(fs, self.options())
        for i in range(2000):
            tree.put(encode_key(i), b"x" * 64)
        # Flushes have happened; WAL only holds the unflushed tail.
        assert tree.wal.size_bytes < 2000 * 80
        for i in range(0, 2000, 101):
            assert tree.get(encode_key(i))[0] == b"x" * 64


class TestCorruptionDetection:
    def test_flipped_bit_in_block_detected(self):
        fs = make_fs()
        table = build_sstable(
            fs, 1, [Record(encode_key(i), b"v" * 50, i + 1) for i in range(200)]
        )
        handle = table.handles[0]
        # Corrupt one byte of the first data block on "media".
        raw = table.file._data
        raw[handle.offset + 5] ^= 0xFF
        with pytest.raises(CorruptionError):
            table.get(encode_key(0))

    def test_clean_blocks_still_readable_after_corruption_elsewhere(self):
        fs = make_fs()
        table = build_sstable(
            fs, 1, [Record(encode_key(i), b"v" * 50, i + 1) for i in range(200)]
        )
        table.file._data[table.handles[0].offset] ^= 0xFF
        # A key in the last block is unaffected.
        rec, _ = table.get(encode_key(199))
        assert rec is not None

    def test_truncated_block_detected(self):
        block = encode_block([Record(b"k", b"v", 1)])
        with pytest.raises(CorruptionError):
            decode_block(block[:-1])


class TestCapacityPressure:
    def test_device_full_raises_not_corrupts(self):
        fs = make_fs(mib=1)
        tree = LSMTree(fs, LSMOptions(memtable_bytes=8 << 10, wal_group_size=4))
        written = 0
        with pytest.raises(CapacityError):
            for i in range(100_000):
                tree.put(encode_key(i), b"x" * 200)
                written = i
        # Everything that was acknowledged before the failure stays readable.
        for i in range(0, max(1, written - 100), 97):
            value, _ = tree.get(encode_key(i))
            assert value == b"x" * 200

    def test_hyperdb_survives_sustained_overwrite_pressure(self):
        from repro.common.keys import KeyRange
        from repro.core import HyperDB, HyperDBConfig
        from repro.nvme.config import NVMeConfig

        nvme = SimDevice(
            DeviceProfile(
                name="nvme",
                capacity_bytes=2 << 20,
                page_size=4096,
                read_latency_s=8e-5,
                write_latency_s=2e-5,
                read_bandwidth=6.5e9,
                write_bandwidth=3.5e9,
            )
        )
        sata_fs = make_fs(mib=64)
        db = HyperDB(
            nvme,
            sata_fs.device,
            HyperDBConfig(
                key_space=KeyRange(encode_key(0), encode_key(10_000)),
                nvme=NVMeConfig(num_partitions=2, migration_batch_bytes=16 << 10),
            ),
        )
        # Overwrite a small key set far beyond NVMe capacity: watermarks,
        # migration, and compaction must keep both devices within bounds.
        for round_no in range(10):
            for i in range(2000):
                db.put(encode_key(i), bytes([round_no]) * 300)
        assert nvme.used_bytes <= nvme.capacity_bytes
        for i in range(0, 2000, 173):
            value, _ = db.get(encode_key(i))
            assert value == bytes([9]) * 300
