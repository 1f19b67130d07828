"""Unit tests for the memtable and write-ahead log."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.keys import encode_key
from repro.common.records import Record
from repro.lsm.memtable import MemTable
from repro.lsm.wal import WriteAheadLog
from repro.simssd import DeviceProfile, SimDevice, SimFilesystem, TrafficKind

#: A small key universe, so scripts replace keys as often as they add them.
_KEYS = st.lists(st.sampled_from([0, 97, 98]), max_size=2).map(bytes)


class TestMemTable:
    def test_put_get(self):
        mt = MemTable(1 << 20)
        mt.put(Record(b"a", b"1", 1))
        assert mt.get(b"a").value == b"1"
        assert mt.get(b"zz") is None

    def test_update_replaces_and_adjusts_size(self):
        mt = MemTable(1 << 20)
        mt.put(Record(b"a", b"x" * 100, 1))
        s1 = mt.size_bytes
        mt.put(Record(b"a", b"y", 2))
        assert mt.get(b"a").value == b"y"
        assert mt.size_bytes < s1
        assert len(mt) == 1

    def test_is_full(self):
        mt = MemTable(64)
        assert not mt.is_full
        mt.put(Record(b"k", b"v" * 64, 1))
        assert mt.is_full

    def test_tombstones_stored(self):
        mt = MemTable(1 << 20)
        mt.put(Record(b"a", b"1", 1))
        mt.put(Record.tombstone(b"a", 2))
        assert mt.get(b"a").is_tombstone

    def test_ordered_records(self):
        mt = MemTable(1 << 20)
        for i in (5, 1, 9, 3):
            mt.put(Record(encode_key(i), b"v", i))
        keys = [r.key for r in mt.records()]
        assert keys == sorted(keys)
        assert mt.first_key() == encode_key(1)
        assert mt.last_key() == encode_key(9)

    def test_records_from_start(self):
        mt = MemTable(1 << 20)
        for i in range(10):
            mt.put(Record(encode_key(i), b"v", i))
        got = [r.key for r in mt.records(start=encode_key(7))]
        assert got == [encode_key(i) for i in (7, 8, 9)]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MemTable(0)

    @given(
        script=st.lists(
            st.one_of(
                st.tuples(st.sampled_from(["put", "tombstone"]), _KEYS),
                st.tuples(st.sampled_from(["records", "first", "last"]), _KEYS),
            ),
            max_size=60,
        )
    )
    @example(  # an ordered read between two puts of new keys: view refreshes
        script=[("put", b"b"), ("records", b""), ("put", b"a"), ("records", b""),
                ("first", b"")]
    )
    @example(  # a replacement after an ordered read: no reorder, new value
        script=[("put", b"a"), ("put", b"b"), ("last", b""), ("tombstone", b"b"),
                ("records", b"b")]
    )
    @settings(max_examples=200, deadline=None)
    def test_ordered_access_matches_sorted_dict(self, script):
        """Any interleaving of put / replace / tombstone with ordered reads
        agrees with ``sorted(dict)`` at every ordered access, tombstones
        included."""
        mt = MemTable(1 << 20)
        model: dict[bytes, Record] = {}
        for seq, (op, key) in enumerate(script, start=1):
            if op in ("put", "tombstone"):
                rec = (
                    Record(key, b"v%d" % seq, seq)
                    if op == "put"
                    else Record.tombstone(key, seq)
                )
                mt.put(rec)
                model[key] = rec
            elif op == "records":
                want = [model[k] for k in sorted(model) if k >= key]
                assert list(mt.records(start=key)) == want
            elif op == "first":
                assert mt.first_key() == min(model, default=None)
            else:
                assert mt.last_key() == max(model, default=None)
            assert len(mt) == len(model)
        assert list(mt.records()) == [model[k] for k in sorted(model)]
        assert mt.size_bytes == sum(r.encoded_size for r in model.values())


@pytest.fixture
def fs():
    profile = DeviceProfile(
        name="t",
        capacity_bytes=1024 * 4096,
        page_size=4096,
        read_latency_s=1e-4,
        write_latency_s=5e-5,
        read_bandwidth=1e8,
        write_bandwidth=5e7,
    )
    return SimFilesystem(SimDevice(profile))


class TestWriteAheadLog:
    def test_group_commit_batches_io(self, fs):
        wal = WriteAheadLog(fs, group_size=4)
        for i in range(3):
            assert wal.append(Record(encode_key(i), b"v", i)) == 0.0
        assert fs.device.traffic.write_ios(TrafficKind.WAL) == 0
        wal.append(Record(encode_key(3), b"v", 3))
        assert fs.device.traffic.write_ios(TrafficKind.WAL) == 1
        assert wal.synced_records == 4

    def test_group_commits_on_one_page_each_charge_it(self, fs):
        # Unlike a table build, a synced log cannot buffer: two group
        # commits that land on one page rewrite that page.
        wal = WriteAheadLog(fs, group_size=1)
        wal.append(Record(b"a", b"v", 1))
        wal.append(Record(b"b", b"v", 2))
        assert wal.size_bytes < 4096
        assert fs.device.traffic.write_ios(TrafficKind.WAL) == 2
        assert fs.device.traffic.write_bytes(TrafficKind.WAL) == 2 * 4096

    def test_sync_flushes_partial_group(self, fs):
        wal = WriteAheadLog(fs, group_size=100)
        wal.append(Record(b"k", b"v", 1))
        assert wal.sync() > 0
        assert wal.synced_records == 1
        assert wal.sync() == 0.0  # nothing pending

    def test_replay(self, fs):
        wal = WriteAheadLog(fs, group_size=2)
        recs = [Record(encode_key(i), bytes([i]), i) for i in range(6)]
        for r in recs:
            wal.append(r)
        out = wal.replay()
        assert [(r.key, r.value, r.seqno) for r in out] == [
            (r.key, r.value, r.seqno) for r in recs
        ]

    def test_reset_truncates(self, fs):
        wal = WriteAheadLog(fs, group_size=1)
        wal.append(Record(b"k", b"v", 1))
        assert wal.size_bytes > 0
        wal.reset()
        assert wal.size_bytes == 0
        assert wal.replay() == []

    def test_unsynced_records_lost_on_replay(self, fs):
        # Group commit trades durability window for latency: staged but
        # unsynced records do not survive.
        wal = WriteAheadLog(fs, group_size=10)
        wal.append(Record(b"k", b"v", 1))
        assert wal.replay() == []

    def test_group_size_validation(self, fs):
        with pytest.raises(ValueError):
            WriteAheadLog(fs, group_size=0)
