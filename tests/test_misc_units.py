"""Unit tests for smaller APIs: batch ingest, semi-SSTable extraction helpers,
and the KVStore interface conveniences."""

import numpy as np
import pytest

from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.lsm.lsmtree import LSMOptions, LSMTree
from repro.lsm.semi import SemiSSTable
from repro.simssd import DeviceProfile, SimDevice, SimFilesystem, TrafficKind


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


class TestIngestBatch:
    def options(self, first_level=0):
        return LSMOptions(
            memtable_bytes=8 << 10,
            table_size_bytes=16 << 10,
            level_base_bytes=32 << 10,
            level_multiplier=4,
            num_levels=4,
            first_level=first_level,
            wal_enabled=(first_level == 0),
        )

    def test_ingest_into_l0(self):
        tree = LSMTree(make_fs(), self.options())
        recs = [Record(encode_key(i), b"v", i + 1) for i in range(100)]
        tree.ingest_batch(recs)
        assert tree.get(encode_key(50))[0] == b"v"

    def test_ingest_into_sorted_first_level(self):
        tree = LSMTree(make_fs(), self.options(first_level=1))
        recs = [Record(encode_key(i), b"v", i + 1) for i in range(100)]
        tree.ingest_batch(recs)
        assert tree.get(encode_key(99))[0] == b"v"
        # Level 1 is sorted: tables disjoint.
        tables = list(tree.version.level(1))
        for a, b in zip(tables, tables[1:]):
            assert a.last_key < b.first_key

    def test_ingest_seqnos_respected(self):
        tree = LSMTree(make_fs(), self.options())
        tree.ingest_batch([Record(b"k", b"old", 5)])
        tree.put(b"k", b"new")  # engine seqno continues past the batch
        assert tree.get(b"k")[0] == b"new"

    def test_empty_batch_noop(self):
        tree = LSMTree(make_fs(), self.options())
        assert tree.ingest_batch([]) == 0.0

    def test_ingest_charges_requested_kind(self):
        fs = make_fs()
        tree = LSMTree(fs, self.options())
        recs = [Record(encode_key(i), b"v" * 100, i + 1) for i in range(200)]
        tree.ingest_batch(recs, TrafficKind.MIGRATION)
        assert fs.device.traffic.write_bytes(TrafficKind.MIGRATION) > 0


class TestSemiExtraction:
    def make_table(self):
        fs = make_fs()
        t = SemiSSTable(
            1, fs, KeyRange(encode_key(0), encode_key(10_000)), block_size=512
        )
        t.merge_append(
            [Record(encode_key(i), b"v" * 30, i + 1) for i in range(40)]
        )
        return t

    def test_extract_block_records(self):
        t = self.make_table()
        before = t.num_valid_records
        survivors, service = t.extract_block_records(encode_key(3))
        assert survivors, "block had records"
        assert all(t.contains_key(r.key) is False for r in survivors)
        assert t.num_valid_records == before - len(survivors)
        assert service > 0

    def test_extract_missing_key(self):
        t = self.make_table()
        survivors, service = t.extract_block_records(encode_key(99_999))
        assert survivors == [] and service == 0.0

    def test_keys_from(self):
        t = self.make_table()
        got = t.keys_from(encode_key(35), limit=10)
        assert got == [encode_key(i) for i in range(35, 40)]
        assert t.keys_from(encode_key(0), limit=3) == [
            encode_key(0),
            encode_key(1),
            encode_key(2),
        ]


class TestKVStoreInterface:
    def test_put_many_bulk_load(self):
        from repro.baselines import RocksDBStore

        nvme = SimDevice(
            DeviceProfile(
                name="n",
                capacity_bytes=8 << 20,
                page_size=4096,
                read_latency_s=8e-5,
                write_latency_s=2e-5,
                read_bandwidth=6.5e9,
                write_bandwidth=3.5e9,
            )
        )
        sata = make_fs(64).device
        store = RocksDBStore(nvme, sata)
        services = store.put_many((encode_key(i) for i in range(100)), [b"v"] * 100)
        assert len(services) == 100 and sum(services) >= 0
        assert store.get(encode_key(42))[0] == b"v"
