"""Unit tests for the version (level) structure and merge iterator."""

import pytest

from repro.common.errors import ReproError
from repro.common.keys import encode_key
from repro.common.records import Record
from repro.lsm.iterator import keyed, merge_records
from repro.lsm.version import Version
from repro.simssd import DeviceProfile, SimDevice, SimFilesystem
from tests.reference_codec import build_sstable


@pytest.fixture
def fs():
    profile = DeviceProfile(
        name="t",
        capacity_bytes=4096 * 4096,
        page_size=4096,
        read_latency_s=1e-4,
        write_latency_s=5e-5,
        read_bandwidth=1e8,
        write_bandwidth=5e7,
    )
    return SimFilesystem(SimDevice(profile))


def mktable(fs, tid, lo, hi):
    return build_sstable(
        fs, tid, [Record(encode_key(i), b"v", i + 1) for i in range(lo, hi)]
    )


def merged(streams, drop_tombstones=False):
    """``merge_records`` over record streams, as a scan runs it."""
    items = merge_records([keyed(s) for s in streams], drop_tombstones)
    return [item[3] for item in items]


class TestMergeRecords:
    def test_merges_sorted(self):
        a = [Record(encode_key(i), b"a", 1) for i in (1, 3, 5)]
        b = [Record(encode_key(i), b"b", 2) for i in (2, 4, 6)]
        out = merged([iter(a), iter(b)])
        assert [r.key for r in out] == [encode_key(i) for i in range(1, 7)]

    def test_newest_seqno_wins(self):
        old = [Record(encode_key(1), b"old", 1)]
        new = [Record(encode_key(1), b"new", 9)]
        out = merged([iter(old), iter(new)])
        assert len(out) == 1 and out[0].value == b"new"

    def test_stream_priority_breaks_seqno_ties(self):
        a = [Record(encode_key(1), b"first", 5)]
        b = [Record(encode_key(1), b"second", 5)]
        out = merged([iter(a), iter(b)])
        assert out[0].value == b"first"

    def test_drop_tombstones(self):
        recs = [Record.tombstone(encode_key(1), 2), Record(encode_key(2), b"v", 1)]
        out = merged([iter(recs)], drop_tombstones=True)
        assert [r.key for r in out] == [encode_key(2)]

    def test_tombstone_shadows_older_value(self):
        values = [Record(encode_key(1), b"v", 1)]
        tomb = [Record.tombstone(encode_key(1), 2)]
        out = merged([iter(tomb), iter(values)], drop_tombstones=True)
        assert out == []

    def test_empty_streams(self):
        assert merged([iter([]), iter([])]) == []
        assert merged([]) == []


class TestVersion:
    def test_level0_allows_overlap(self, fs):
        v = Version(4)
        v.add_table(0, mktable(fs, 1, 0, 100))
        v.add_table(0, mktable(fs, 2, 50, 150))
        assert len(v.level(0)) == 2

    def test_sorted_level_rejects_overlap(self, fs):
        v = Version(4)
        v.add_table(1, mktable(fs, 1, 0, 100))
        with pytest.raises(ReproError):
            v.add_table(1, mktable(fs, 2, 50, 150))

    def test_sorted_level_keeps_order(self, fs):
        v = Version(4)
        v.add_table(1, mktable(fs, 1, 200, 300))
        v.add_table(1, mktable(fs, 2, 0, 100))
        v.add_table(1, mktable(fs, 3, 100, 200))
        firsts = [t.first_key for t in v.level(1)]
        assert firsts == sorted(firsts)

    def test_overlapping_query(self, fs):
        v = Version(4)
        t1 = mktable(fs, 1, 0, 100)
        t2 = mktable(fs, 2, 100, 200)
        v.add_table(1, t1)
        v.add_table(1, t2)
        hits = v.overlapping(1, encode_key(50), encode_key(60))
        assert hits == [t1]
        hits = v.overlapping(1, encode_key(95), encode_key(105))
        assert set(h.table_id for h in hits) == {1, 2}

    def test_remove_table(self, fs):
        v = Version(4)
        t = mktable(fs, 1, 0, 10)
        v.add_table(1, t)
        v.remove_table(1, t)
        assert len(v.level(1)) == 0
        with pytest.raises(ReproError):
            v.remove_table(1, t)

    def test_first_level_one(self, fs):
        v = Version(4, first_level=1)
        assert v.level(1).level == 1
        with pytest.raises(ReproError):
            v.level(0)
        # Level 1 in a first_level=1 tree is sorted (non-overlapping).
        v.add_table(1, mktable(fs, 1, 0, 100))
        with pytest.raises(ReproError):
            v.add_table(1, mktable(fs, 2, 50, 150))

    def test_deepest_nonempty(self, fs):
        v = Version(5)
        assert v.deepest_nonempty_level() == 0
        v.add_table(3, mktable(fs, 1, 0, 10))
        assert v.deepest_nonempty_level() == 3

    def test_size_accounting(self, fs):
        v = Version(4)
        t = mktable(fs, 1, 0, 100)
        v.add_table(1, t)
        assert v.total_size_bytes() == t.size_bytes
        assert v.total_tables() == 1

    def test_min_levels_validation(self):
        with pytest.raises(ReproError):
            Version(1)
