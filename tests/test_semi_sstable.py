"""Unit tests for the semi-SSTable."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.cache import LRUCache
from repro.common.keys import KeyRange, encode_key
from repro.common.errors import CorruptionError, ReproError
from repro.common.records import RECORD_HEADER_SIZE, Record
from repro.lsm.blocks import entry_at, record_of, verify_block
from repro.lsm.semi import SemiLevelConfig, SemiLevels, SemiSSTable
from repro.scrub.scrubber import Scrubber
from repro.simssd import DeviceProfile, SimDevice, SimFilesystem, TrafficKind
from tests.reference_codec import decode_payload


def make_fs():
    profile = DeviceProfile(
        name="t",
        capacity_bytes=16384 * 4096,
        page_size=4096,
        read_latency_s=1e-4,
        write_latency_s=5e-5,
        read_bandwidth=1e8,
        write_bandwidth=5e7,
    )
    return SimFilesystem(SimDevice(profile))


@pytest.fixture
def fs():
    return make_fs()


def full_range():
    return KeyRange(encode_key(0), encode_key(10**9))


def recs(ids, value=b"v", seqno_base=1):
    return [Record(encode_key(i), value, seqno_base + n) for n, i in enumerate(sorted(ids))]


@pytest.fixture
def table(fs):
    return SemiSSTable(1, fs, full_range(), block_size=512)


class TestSemiSSTableBasics:
    def test_merge_append_and_get(self, table):
        table.merge_append(recs(range(100)))
        rec, _ = table.get(encode_key(50))
        assert rec is not None and rec.value == b"v"
        assert table.num_valid_records == 100

    def test_get_missing(self, table):
        table.merge_append(recs(range(10)))
        rec, _ = table.get(encode_key(999))
        assert rec is None

    def test_unsorted_input_rejected(self, table):
        with pytest.raises(ReproError):
            table.merge_append(
                [Record(encode_key(5), b"v", 1), Record(encode_key(3), b"v", 2)]
            )

    def test_out_of_range_rejected(self, fs):
        t = SemiSSTable(1, fs, KeyRange(encode_key(0), encode_key(100)))
        with pytest.raises(ReproError):
            t.merge_append([Record(encode_key(200), b"v", 1)])

    def test_update_supersedes(self, table):
        table.merge_append(recs(range(10), value=b"old", seqno_base=1))
        table.merge_append(recs([5], value=b"new", seqno_base=100))
        rec, _ = table.get(encode_key(5))
        assert rec.value == b"new"
        assert table.num_valid_records == 10

    def test_older_incoming_record_ignored(self, table):
        table.merge_append(recs([5], value=b"new", seqno_base=100))
        table.merge_append(recs([5], value=b"stale", seqno_base=1))
        rec, _ = table.get(encode_key(5))
        assert rec.value == b"new"

    def test_iter_valid_records_sorted(self, table):
        table.merge_append(recs(range(0, 100, 2)))
        table.merge_append(recs(range(1, 100, 2), seqno_base=1000))
        out = table.live_entries()
        assert [e[0] for e in out] == [encode_key(i) for i in range(100)]


class TestBlockGranularityMerge:
    def test_untouched_blocks_stay_clean(self, table):
        # Two disjoint key clusters land in different blocks.
        table.merge_append(recs(range(0, 20)))
        clean_blocks_before = [
            b.block_id for b in table.blocks if not b.is_dead and b.first_key >= encode_key(10)
        ]
        # Update only low keys: blocks holding keys >= 10 must be untouched.
        table.merge_append(recs(range(0, 3), value=b"upd", seqno_base=1000))
        still_alive = [
            b.block_id for b in table.blocks if not b.is_dead and b.block_id in clean_blocks_before
        ]
        assert still_alive == clean_blocks_before

    def test_touched_block_records_survive(self, table):
        table.merge_append(recs(range(0, 8)))
        # Update one key; its block neighbours must survive the rewrite.
        table.merge_append(recs([0], value=b"upd", seqno_base=1000))
        for i in range(8):
            rec, _ = table.get(encode_key(i))
            assert rec is not None
            assert rec.value == (b"upd" if i == 0 else b"v")

    def test_dead_space_accumulates(self, table):
        table.merge_append(recs(range(100)))
        size1 = table.file_bytes
        table.merge_append(recs(range(100), value=b"x", seqno_base=1000))
        assert table.file_bytes > size1
        assert table.dead_bytes > 0

    def test_dirty_ratio_tracks_staleness(self, table):
        table.merge_append(recs(range(100)))
        assert table.dirty_ratio == 0.0
        table.merge_append(recs(range(50), value=b"x", seqno_base=1000))
        assert table.dirty_ratio > 0.0

    def test_append_write_volume_less_than_full_rewrite(self, fs, table):
        table.merge_append(recs(range(1000), value=b"v" * 64))
        fs.device.traffic.reset()
        # A one-key update should write ~one block, not the whole table.
        table.merge_append(recs([500], value=b"u" * 64, seqno_base=10**6))
        written = fs.device.traffic.write_bytes(TrafficKind.COMPACTION)
        assert written < table.file_bytes / 4

    def test_merge_writes_each_page_once_in_one_command(self, fs):
        table = SemiSSTable(1, fs, full_range(), block_size=4096)
        table.merge_append(recs(range(400), value=b"v" * 100))
        assert table.num_blocks >= 3
        # One command for every page of the blocks (a page two blocks share
        # is written once), one for the rewritten metadata + index.
        ps = fs.device.page_size
        index_pages = -(-table._index_size_estimate() // ps)
        traffic = fs.device.traffic
        assert traffic.write_ios(TrafficKind.COMPACTION) == 2
        assert traffic.write_bytes(TrafficKind.COMPACTION) == (
            -(-table.file_bytes // ps) + index_pages
        ) * ps
        assert [table.get(encode_key(i))[0].value for i in (0, 199, 399)] == [b"v" * 100] * 3

    def test_failed_merge_leaves_touched_blocks_live(self, fs, table):
        table.merge_append(recs(range(40)))
        before = (table.num_valid_records, table.valid_bytes, table.dead_bytes)

        def offline(*_args, **_kw):
            raise ReproError("device offline")

        fs.device.write_pages = offline
        with pytest.raises(ReproError):
            table.merge_append(recs([5, 25], value=b"new", seqno_base=1000))
        del fs.device.write_pages
        assert (table.num_valid_records, table.valid_bytes, table.dead_bytes) == before
        assert all(table.get(encode_key(i))[0].value == b"v" for i in range(40))

    def test_invalidate_only(self, table):
        table.merge_append(recs(range(10)))
        table.merge_append([], invalidate_only={encode_key(3)})
        rec, _ = table.get(encode_key(3))
        assert rec is None
        assert table.num_valid_records == 9


class TestFullCompact:
    def test_reclaims_dead_space(self, table):
        table.merge_append(recs(range(200)))
        for s in range(5):
            table.merge_append(recs(range(200), value=bytes([s]), seqno_base=1000 * (s + 1)))
        assert table.dead_bytes > 0
        table.full_compact()
        assert table.dead_bytes == 0
        assert table.dirty_ratio == 0.0
        rec, _ = table.get(encode_key(100))
        assert rec.value == bytes([4])
        assert table.num_valid_records == 200

    def test_device_space_freed(self, fs, table):
        table.merge_append(recs(range(500), value=b"v" * 100))
        for s in range(4):
            table.merge_append(
                recs(range(500), value=bytes([s]) * 100, seqno_base=10**4 * (s + 1))
            )
        used_before = fs.device.used_bytes
        table.full_compact()
        assert fs.device.used_bytes < used_before

    def test_empty_table_full_compact(self, table):
        table.merge_append(recs(range(5)))
        table.merge_append([], invalidate_only={encode_key(i) for i in range(5)})
        table.full_compact()
        assert table.num_valid_records == 0
        assert table.file_bytes == 0


PAGE = 4096


def page_span(start, end):
    """Pages a read of file bytes ``[start, end)`` is charged for."""
    return (end - 1) // PAGE - start // PAGE + 1


def block_span(*blocks):
    """Pages of one read over ``blocks``, file-adjacent and in file order."""
    return page_span(blocks[0].offset, blocks[-1].offset + blocks[-1].length)


def compaction_reads(fs):
    traffic = fs.device.traffic
    return (
        traffic.read_ios(TrafficKind.COMPACTION),
        traffic.read_bytes(TrafficKind.COMPACTION),
    )


def big_table(fs, table=None):
    """Blocks of about 4.3 KiB, each on two or three pages, all written by
    one append and so file-adjacent."""
    table = table or SemiSSTable(1, fs, full_range(), block_size=PAGE)
    table.merge_append(recs(range(100), value=b"v" * 200))
    assert len(table.blocks) >= 5
    for a, b in zip(table.blocks, table.blocks[1:]):
        assert a.offset + a.length == b.offset
    fs.device.traffic.reset()
    return table


class TestBackgroundReads:
    """A background read issues one sequential command per run of
    file-adjacent blocks, over exactly their pages, and one random command
    per page of a lone block."""

    def test_adjacent_live_blocks_are_one_command(self, fs):
        table = big_table(fs)
        out = table.live_entries()
        assert [e[0] for e in out] == [encode_key(i) for i in range(100)]
        pages = block_span(*table.blocks)
        assert compaction_reads(fs) == (1, pages * PAGE)
        # Each page is read once: block by block, shared pages read twice.
        assert pages < sum(block_span(b) for b in table.blocks)

    def test_a_dead_block_splits_the_read(self, fs):
        table = big_table(fs)
        blocks = list(table.blocks)
        table._kill_block(blocks[2])
        out = table.live_entries()
        assert len(out) == 100 - blocks[2].num_records
        pages = block_span(*blocks[:2]) + block_span(*blocks[3:])
        assert compaction_reads(fs) == (2, pages * PAGE)

    def test_a_lone_block_is_one_command_per_page(self, fs):
        table = big_table(fs)
        block = table.blocks[1]
        key = table.keys_of_block(block)[0]
        out, _ = table.extract_block_records(key)
        assert len(out) == block.num_records
        assert block_span(block) >= 2
        assert compaction_reads(fs) == (block_span(block), block_span(block) * PAGE)

    def test_merge_reads_adjacent_touched_blocks_with_one_command(self, fs):
        table = big_table(fs)
        b1, b2 = table.blocks[1:3]
        keys = [table.keys_of_block(b1)[0], table.keys_of_block(b2)[-1]]
        table.merge_append([Record(k, b"new", 1000 + n) for n, k in enumerate(keys)])
        assert compaction_reads(fs) == (1, block_span(b1, b2) * PAGE)
        assert b1.is_dead and b2.is_dead
        assert [table.get(k)[0].value for k in keys] == [b"new", b"new"]

    def test_a_corrupt_block_inside_a_run_is_triaged_alone(self, fs):
        levels = SemiLevels(fs, SemiLevelConfig(
            key_space=full_range(), num_levels=2, size_ratio=2,
            bottom_segments=2, block_size=PAGE,
        ))
        calls = []
        levels.on_corrupt_block = lambda t, b, superseded: calls.append(
            (t, b, set(superseded), t.keys_of_block(b))
        ) or 0
        table = big_table(fs, levels.table_for_key(1, encode_key(0), create=True))
        b0, b1, b2 = table.blocks[:3]
        before = {b.block_id: table.keys_of_block(b) for b in (b0, b1, b2)}
        incoming = [before[b.block_id][1] for b in (b0, b1, b2)]
        table.file._data[b1.offset + 100] ^= 1  # a flip in b1's payload
        table.merge_append([Record(k, b"new", 1000 + n) for n, k in enumerate(incoming)])
        assert len(calls) == 1
        hit_table, hit_block, superseded, lost = calls[0]
        assert (hit_table, hit_block) == (table, b1)
        assert superseded == set(incoming)
        assert lost == before[b1.block_id]
        assert levels.corrupt_blocks == 1
        assert compaction_reads(fs) == (1, block_span(b0, b1, b2) * PAGE)
        for key in before[b0.block_id] + before[b2.block_id]:
            rec, _ = table.get(key)
            assert rec.value == (b"new" if key in incoming else b"v" * 200)
        for key in before[b1.block_id]:
            assert table.contains_key(key) == (key in incoming)
        assert table.get(incoming[1])[0].value == b"new"


def foreground_reads(fs):
    traffic = fs.device.traffic
    return (
        traffic.read_ios(TrafficKind.FOREGROUND),
        traffic.read_bytes(TrafficKind.FOREGROUND),
    )


def record_span(table, key):
    """File bytes ``[start, end)`` of ``key``'s indexed record."""
    _, _, size, offset, _ = table._key_map[key]
    return offset, offset + size


def key_on_pages(table, pages):
    """The first key whose record lies on exactly ``pages`` pages."""
    return next(k for k in table.valid_keys() if page_span(*record_span(table, k)) == pages)


class TestForegroundPageReads:
    """A foreground read fetches the pages its record lies on, not its
    block (each block of ``big_table`` spans two or three pages), and
    verifies exactly the bytes it returns."""

    def test_a_record_inside_one_page_is_one_command(self, fs):
        table = big_table(fs)
        key = key_on_pages(table, 1)
        rec, service = table.get(key, cache=LRUCache(1 << 20))
        assert rec.value == b"v" * 200
        assert foreground_reads(fs) == (1, PAGE)
        assert service > 0

    def test_a_record_across_a_page_boundary_is_two_commands(self, fs):
        table = big_table(fs)
        key = key_on_pages(table, 2)
        rec, _ = table.get(key, cache=LRUCache(1 << 20))
        assert rec.value == b"v" * 200
        assert foreground_reads(fs) == (2, 2 * PAGE)

    def test_a_neighbour_on_a_cached_page_costs_nothing(self, fs):
        table = big_table(fs)
        cache = LRUCache(1 << 20)
        key = key_on_pages(table, 1)
        page = record_span(table, key)[0] // PAGE
        neighbour = next(
            k for k in table.valid_keys()
            if k != key and {s // PAGE for s in record_span(table, k)} == {page}
        )
        table.get(key, cache=cache)
        before = foreground_reads(fs)
        rec, service = table.get(neighbour, cache=cache)
        assert rec.key == neighbour
        assert (foreground_reads(fs), service) == (before, 0.0)

    @pytest.mark.parametrize("at", [0, RECORD_HEADER_SIZE, RECORD_HEADER_SIZE + 8 + 100])
    def test_a_flip_inside_the_record_is_a_corruption_error(self, fs, at):
        # ``at``: a header byte, a key byte, a value byte.
        table = big_table(fs)
        key = key_on_pages(table, 1)
        table.file._data[record_span(table, key)[0] + at] ^= 1
        with pytest.raises(CorruptionError):
            table.get(key)

    def test_a_flip_in_a_neighbour_is_left_to_compaction_and_scrub(self, fs):
        table = big_table(fs)
        block = table.blocks[1]
        key, neighbour = table.keys_of_block(block)[:2]
        table.file._data[record_span(table, neighbour)[0] + 30] ^= 1
        assert table.get(key)[0].value == b"v" * 200
        raw = bytes(table.file._data[block.offset : block.offset + block.length])
        with pytest.raises(CorruptionError):
            table._check_block(block, memoryview(raw))
        reported = []
        table.on_corrupt_block = lambda t, b, superseded: reported.append(b) or 0
        scrubber = Scrubber(None)
        scrubber._scrub_semi_table(table)
        assert (reported, scrubber.stats.detected) == ([block], 1)

    def test_an_append_onto_a_cached_last_page_is_read_again(self, fs):
        table = SemiSSTable(1, fs, full_range(), block_size=PAGE)
        cache = LRUCache(1 << 20)
        table.merge_append(recs([1, 2], value=b"a" * 200))
        assert table.get(encode_key(2), cache=cache)[0].value == b"a" * 200
        # A second block lands on the same, still partial, last page.
        table.merge_append(recs([3], value=b"b" * 200, seqno_base=10))
        assert table.file_bytes < PAGE
        before = foreground_reads(fs)
        assert table.get(encode_key(3), cache=cache)[0].value == b"b" * 200
        assert foreground_reads(fs) == (before[0] + 1, before[1] + PAGE)
        assert table.get(encode_key(1), cache=cache)[1] == 0.0


class TestDestroy:
    def test_destroy_frees_file(self, fs, table):
        table.merge_append(recs(range(100)))
        assert fs.device.used_bytes > 0
        table.destroy()
        assert fs.device.used_bytes == 0
        assert table.num_valid_records == 0


# The bodies the index access paths replaced, kept here as oracles.


def old_keys_from(table, start, limit):
    return sorted(k for k in table._key_map if k >= start)[:limit]


def old_keys_of_block(table, block):
    return sorted(k for k, e in table._key_map.items() if e[0] == block.block_id)


def old_index_read_size(table):
    return table._index_size_estimate() + sum(len(k) for k in table._key_map) // 2


def walk_block(table, block):
    """``(payload, every record in it)`` by a whole-payload walk — how a
    block was read before index entries carried offsets."""
    raw, _ = table.file.read(block.offset, block.length, TrafficKind.COMPACTION)
    payload = verify_block(raw)
    return payload, list(decode_payload(payload))


def check_index_offsets(table):
    """Every index entry points at its own record: decoding at the indexed
    offset gives the key, seqno and size the entry states, the very record
    the walk finds under that key, and bytes whose CRC the entry holds."""
    walked = {b.block_id: walk_block(table, b) for b in table.blocks if not b.is_dead}
    for key, (block_id, seqno, size, offset, crc) in table._key_map.items():
        payload, records = walked[block_id]
        pos = offset - table._blocks_by_id[block_id].offset
        rec = record_of(entry_at(payload, pos))
        assert (rec.key, rec.seqno, rec.encoded_size) == (key, seqno, size)
        assert [rec] == [r for r in records if r.key == key]
        assert zlib.crc32(payload[pos : pos + size]) == crc


def check_index_paths(table, probes):
    check_index_offsets(table)
    assert table.valid_keys() == sorted(table._key_map)
    for start, limit in probes:
        assert table.keys_from(encode_key(start), limit) == old_keys_from(
            table, encode_key(start), limit
        )
    for block in table.blocks:
        assert table.keys_of_block(block) == old_keys_of_block(table, block)
    assert table.index_read_size() == old_index_read_size(table)


ids = st.integers(min_value=0, max_value=300)
mutations = st.one_of(
    st.tuples(st.just("merge_append"), st.sets(ids, min_size=1, max_size=40)),
    st.tuples(st.just("invalidate"), st.sets(ids, max_size=10)),
    st.tuples(st.just("extract_block"), ids),
    st.tuples(st.just("kill_block"), ids),
    st.tuples(st.just("full_compact"), st.none()),
    st.tuples(st.just("destroy"), st.none()),
)


class TestIndexAccessPaths:
    """Sorted view, by-block keys and the running key-byte total equal the
    whole-map walks they replaced, after any mutation sequence — checked
    after every step, so a view that outlives a mutation is caught."""

    @given(
        st.lists(mutations, min_size=1, max_size=12),
        st.lists(st.tuples(ids, st.integers(0, 50)), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_the_old_bodies(self, script, probes):
        table = SemiSSTable(1, make_fs(), full_range(), block_size=256)
        seqno = 1
        for op, arg in script:
            if op == "merge_append":
                table.merge_append(recs(arg, value=b"v" * 40, seqno_base=seqno))
                seqno += len(arg)
            elif op == "invalidate":
                for i in arg:
                    table._invalidate(encode_key(i))
            elif op == "extract_block":
                table.extract_block_records(encode_key(arg))
            elif op == "kill_block" and table.blocks:
                table._kill_block(table.blocks[arg % len(table.blocks)])
            elif op == "full_compact":
                table.full_compact()
            elif op == "destroy":
                table.destroy()
                table.file = table.fs.create(table.file.name)  # stay usable
            check_index_paths(table, probes)

    def test_entry_pointing_at_a_neighbour_is_an_error_not_a_wrong_answer(self, table):
        table.merge_append(recs(range(8), value=b"v" * 40))
        key, neighbour = encode_key(3), encode_key(4)
        assert table._key_map[key][0] == table._key_map[neighbour][0]  # same block
        table._key_map[key] = table._key_map[key][:3] + table._key_map[neighbour][3:]
        with pytest.raises(ReproError, match="index says key"):
            table.get(key)
        assert table.get(neighbour)[0].key == neighbour

    def test_writes_never_build_the_sorted_view(self, table):
        table.merge_append(recs(range(100)))
        table.merge_append(recs(range(50), value=b"x", seqno_base=1000))
        table.full_compact()
        assert table._sorted_keys is None
        assert table.keys_from(encode_key(98), 5) == [encode_key(98), encode_key(99)]
        assert table._sorted_keys is not None
