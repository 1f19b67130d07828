"""Classic SSTable reads decode only what they return.

The block cache holds a block's CRC-verified payload bytes; a point get
walks the record headers in it and decodes the one record it answers with,
and a scan decodes records as the consumer pulls them.  The counters and
the digest pinned below were recorded from the whole-block reader this one
replaced: the cache and the traffic ledger see exactly what they saw then.
"""

import hashlib
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.cache import LRUCache
from repro.common.errors import CorruptionError
from repro.common.keys import encode_key
from repro.common.records import Record
from repro.lsm import blocks, sstable
from repro.lsm.blocks import CHECKSUM_SIZE, encode_record
from repro.lsm.lsmtree import LSMOptions, LSMTree
from repro.simssd import DeviceProfile, SimDevice, SimFilesystem, TrafficKind
from tests.reference_codec import build_sstable, decode_block

#: ``get_sequence``'s LRU hits, misses, evictions and device read commands
#: and bytes, as the whole-block reader left them.
GET_SEQUENCE_COUNTERS = (146, 1418, 1413, 2098, 8593408)
#: sha256 of ``scan_sequence``'s records, traffic ledger and LRU counters,
#: as the whole-block reader left them.
SCAN_SEQUENCE_DIGEST = "658dc33041f5ef7bc8408e1ac5f75c221fc6f36621b214d6208764233d08a419"


def make_fs(mib=16):
    profile = DeviceProfile(
        name="t",
        capacity_bytes=mib << 20,
        page_size=4096,
        read_latency_s=1e-4,
        write_latency_s=5e-5,
        read_bandwidth=1e8,
        write_bandwidth=5e7,
    )
    return SimFilesystem(SimDevice(profile))


def striped_records(t):
    """Table ``t`` of three: keys ``2 * i`` for ``i = t, t + 3, ...``; every
    17th a tombstone; values of 40-339 bytes."""
    return [
        Record.tombstone(encode_key(2 * i), 10 + i)
        if i % 17 == 0
        else Record(encode_key(2 * i), bytes([i % 251]) * (40 + i * 37 % 300), 10 + i)
        for i in range(t, 600, 3)
    ]


def three_tables(fs):
    return [build_sstable(fs, t + 1, striped_records(t), block_size=2048) for t in range(3)]


def as_tuple(rec):
    return None if rec is None else (rec.key, rec.value, rec.seqno, rec.deleted)


def get_sequence():
    """3,000 random keys (odd ones absent) probed in all three tables through
    a six-block LRU: the counters and every record found."""
    fs = make_fs()
    tables = three_tables(fs)
    cache = LRUCache(6 * 2048)
    rng = random.Random(5)
    found = []
    for _ in range(3000):
        key = encode_key(rng.randrange(0, 1210))
        for table in tables:
            rec, _ = table.get(key, TrafficKind.FOREGROUND, cache)
            if rec is not None:
                found.append(as_tuple(rec))
    traffic = fs.device.traffic
    counters = (cache.hits, cache.misses, cache.evictions, traffic.read_ios(), traffic.read_bytes())
    return counters, found


def scan_sequence():
    """``iter_from`` at every key id 0-1201 of all three tables, each taking
    ``id % 50`` records, through a six-block LRU: a digest of the records,
    the device ledger and the LRU counters."""
    fs = make_fs()
    tables = three_tables(fs)
    cache = LRUCache(6 * 2048)
    h = hashlib.sha256()
    for j in range(1202):
        for table in tables:
            for rec in islice(table.iter_from(encode_key(j), TrafficKind.FOREGROUND, cache), j % 50):
                h.update(repr((j, as_tuple(rec))).encode())
    h.update(repr(sorted(fs.device.traffic.snapshot().items())).encode())
    h.update(repr((cache.hits, cache.misses, cache.evictions)).encode())
    return h.hexdigest()


def raw_block(table, handle):
    return bytes(table.file._data[handle.offset : handle.offset + handle.length])


def block_records(table):
    """Every record of the table, by a whole-block decode of the media."""
    return [r for h in table.handles for r in decode_block(raw_block(table, h))]


class Everything:
    """A bloom filter that admits every key, so misses reach the block."""

    def __contains__(self, key):
        return True


class CountingRecord(Record):
    __slots__ = ()
    made = 0

    def __init__(self, *args, **kwargs):
        CountingRecord.made += 1
        super().__init__(*args, **kwargs)


def test_get_decodes_at_most_one_record(monkeypatch):
    def whole_payload(payload):
        raise AssertionError("a point get decoded a whole payload")

    monkeypatch.setattr(blocks, "payload_entries", whole_payload)
    monkeypatch.setattr(sstable, "payload_entries", whole_payload)
    monkeypatch.setattr(blocks, "Record", CountingRecord)
    table = build_sstable(make_fs(), 1, striped_records(0), block_size=2048)
    table.bloom = Everything()
    assert len(table.handles) > 3 and table.handles[0].num_records > 5
    cache = LRUCache(1 << 20)
    present = [encode_key(0), encode_key(6), encode_key(300), encode_key(2 * 597)]
    absent = [b"", encode_key(1), encode_key(302), encode_key(2 * 597 + 1), encode_key(5000)]
    for _ in range(2):  # cold, then every block a cache hit
        for key in present + absent:
            CountingRecord.made = 0
            rec, _ = table.get(key, TrafficKind.FOREGROUND, cache)
            assert CountingRecord.made == (1 if key in present else 0)
            assert (rec is not None) == (key in present)
    assert cache.hits > 0


def test_cache_holds_verified_payload_bytes():
    table = build_sstable(make_fs(), 1, striped_records(1), block_size=2048)
    cache = LRUCache(1 << 20)
    for rec in striped_records(1):
        table.get(rec.key, TrafficKind.FOREGROUND, cache)
    assert cache.misses == len(table.handles)
    for h in table.handles:
        value, charge = cache._entries[("blk", table.file.name, h.offset)]
        assert type(value) is bytes
        assert value == raw_block(table, h)[:-CHECKSUM_SIZE]
        assert charge == h.length


def test_get_sequence_matches_whole_block_reader():
    counters, found = get_sequence()
    assert counters == GET_SEQUENCE_COUNTERS
    live = {r.key: as_tuple(r) for t in range(3) for r in striped_records(t)}
    rng = random.Random(5)
    expected = []
    for _ in range(3000):
        key = encode_key(rng.randrange(0, 1210))
        if key in live:
            expected.append(live[key])
    assert found == expected


def test_iter_from_matches_whole_block_reader():
    assert scan_sequence() == SCAN_SEQUENCE_DIGEST
    table = build_sstable(make_fs(), 1, striped_records(2), block_size=2048)
    every = block_records(table)
    for j in range(1202):
        start = encode_key(j)
        got = [as_tuple(r) for r in table.iter_from(start)]
        assert got == [as_tuple(r) for r in every if r.key >= start]


@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=400),
            st.booleans(),
            st.integers(min_value=0, max_value=1024),
        ),
        min_size=1,
        max_size=40,
        unique_by=lambda row: row[0],
    ),
    block_size=st.sampled_from([1, 300, 4096]),
)
@settings(max_examples=60, deadline=None)
def test_get_equals_the_whole_block_decode(rows, block_size):
    rows.sort()
    recs = [
        Record.tombstone(encode_key(2 * k), s) if dead
        else Record(encode_key(2 * k), bytes([k % 256]) * size, s)
        for s, (k, dead, size) in enumerate(rows)
    ]
    table = build_sstable(make_fs(), 1, recs, block_size=block_size)
    if block_size == 1:
        assert len(table.handles) == len(recs)
    table.bloom = Everything()
    for rec in block_records(table):
        got, _ = table.get(rec.key)
        assert as_tuple(got) == as_tuple(rec)
    ids = [k for k, _, _ in rows]
    gaps = [encode_key(2 * k + 1) for k in range(min(ids) - 1, max(ids) + 1)]
    for key in [b"", encode_key(0), *gaps, encode_key(2 * max(ids) + 2)]:
        got, _ = table.get(key)
        assert got is None


def test_crc_flipped_block_raises_and_the_tree_quarantines():
    table = build_sstable(make_fs(), 1, striped_records(0), block_size=2048)
    table.file._data[table.handles[1].offset + 3] ^= 0xFF
    with pytest.raises(CorruptionError):
        table.get(table.handles[1].first_key, TrafficKind.FOREGROUND, LRUCache(1 << 20))

    tree = LSMTree(
        make_fs(),
        LSMOptions(memtable_bytes=4 << 10, table_size_bytes=8 << 10, block_size=1024,
                   level0_trigger=2, level_base_bytes=16 << 10, level_multiplier=4,
                   num_levels=5, wal_group_size=8),
        cache=LRUCache(1 << 20),
    )
    for i in range(300):
        tree.put(encode_key(i), b"v" * 100)
    tree.flush()
    victim = next(t for lvl in tree.version.all_levels() for t in lvl)
    key = victim.handles[0].first_key
    victim.file._data[victim.handles[0].offset + 3] ^= 0xFF
    value, _ = tree.get(key)
    assert value is None
    assert victim in tree.quarantined


def test_find_record_rejects_a_truncated_record():
    first = encode_record(Record(b"a", b"1", 1))
    body_short = first + encode_record(Record(b"b", b"2", 2))[:-1]
    with pytest.raises(CorruptionError, match="body"):
        blocks.find_record(body_short, b"b")
    header_short = first + b"\x00" * 5
    with pytest.raises(CorruptionError, match="header"):
        blocks.find_record(header_short, b"z")
    assert blocks.find_record(first, b"a") == (0, Record(b"a", b"1", 1))
    assert blocks.find_record(first, b"0") == (0, None)
    assert blocks.find_record(first, b"b") == (len(first), None)
