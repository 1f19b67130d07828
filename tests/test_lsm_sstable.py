"""Unit tests for SSTable build and read paths."""

import pytest

from repro.common.cache import LRUCache
from repro.common.errors import ReproError
from repro.common.keys import encode_key
from repro.common.records import Record
from repro.lsm.blocks import entry_of, record_of
from repro.lsm.compaction import LeveledCompactor
from repro.lsm.sstable import SSTableBuilder
from repro.lsm.version import Version
from repro.simssd import DeviceProfile, SimDevice, SimFilesystem, TrafficKind
from tests.reference_codec import build_sstable

#: First and last key ids of each output of the compaction in
#: ``TestCompactionOutputSplit``, as written block by block.
_OUTPUT_SPLITS = [
    (0, 69), (70, 134), (135, 199), (200, 264), (265, 329), (330, 394), (395, 399),
]


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


def records(n, vlen=100):
    return [Record(encode_key(i), bytes([i % 256]) * vlen, i + 1) for i in range(n)]


class TestSSTableBuilder:
    def test_build_and_get_all(self, fs):
        recs = records(500)
        table = build_sstable(fs, 1, recs)
        assert table.num_records == 500
        for r in recs[:: 50]:
            got, _ = table.get(r.key)
            assert got is not None and got.value == r.value

    def test_get_missing_key(self, fs):
        table = build_sstable(fs, 1, records(100))
        got, _ = table.get(encode_key(10**6))
        assert got is None

    def test_out_of_order_rejected(self, fs):
        b = SSTableBuilder(fs, 1)
        b.extend([entry_of(Record(encode_key(5), b"v", 1))])
        with pytest.raises(ReproError):
            b.extend([entry_of(Record(encode_key(4), b"v", 2))])
        with pytest.raises(ReproError):
            b.extend([entry_of(Record(encode_key(5), b"v", 3))])
        b.abandon()

    def test_empty_table_rejected(self, fs):
        b = SSTableBuilder(fs, 1)
        with pytest.raises(ReproError):
            b.finish()
        assert fs.device.allocated_pages == 0  # space reclaimed

    def test_abandon_frees_space(self, fs):
        b = SSTableBuilder(fs, 1)
        b.extend(entry_of(r) for r in records(100))
        b.abandon()
        assert fs.device.allocated_pages == 0

    def test_abandon_after_buffering_charges_nothing(self, fs):
        b = SSTableBuilder(fs, 1, block_size=1024)
        b.extend(entry_of(r) for r in records(100))
        assert b.estimated_size > 2 * 4096  # several blocks buffered
        b.abandon()
        assert not fs.exists("sst_00000001")
        assert fs.device.allocated_pages == 0
        assert fs.device.traffic.write_ios() == 0
        assert fs.device.traffic.write_bytes() == 0

    def test_table_is_written_once_in_one_command(self, fs):
        table = build_sstable(fs, 1, records(500), block_size=1024)
        assert len(table.handles) > 10
        traffic = fs.device.traffic
        assert traffic.write_ios(TrafficKind.FLUSH) == 1
        assert traffic.write_bytes(TrafficKind.FLUSH) == table.file.allocated_pages * 4096
        got, _ = table.get(encode_key(321))
        assert got is not None and got.value == records(500)[321].value

    def test_double_finish_rejected(self, fs):
        b = SSTableBuilder(fs, 1)
        b.extend([entry_of(Record(b"k", b"v", 1))])
        b.finish()
        with pytest.raises(ReproError):
            b.finish()

    def test_blocks_respect_block_size(self, fs):
        table = build_sstable(fs, 1, records(500, vlen=100), block_size=1024)
        assert len(table.handles) > 1
        for h in table.handles:
            assert h.length <= 1024 + 200  # one record of slack past the target

    def test_key_range(self, fs):
        table = build_sstable(fs, 1, records(100))
        assert table.first_key == encode_key(0)
        assert table.last_key == encode_key(99)
        assert table.key_range.contains(encode_key(50))

    def test_metadata_charged_to_file(self, fs):
        table = build_sstable(fs, 1, records(100))
        assert table.size_bytes > table.data_bytes


class TestCompactionOutputSplit:
    def test_outputs_split_on_the_same_keys(self, fs):
        # Outputs are cut when the builder's estimated size reaches
        # table_size_bytes; buffering blocks must not move the cuts.
        version = Version(num_levels=3)
        for t in range(4):
            version.add_table(
                0,
                build_sstable(
                    fs,
                    t,
                    [
                        Record(encode_key(i), bytes([t]) * (60 + 7 * t), 1000 * t + i + 1)
                        for i in range(25 * t, 400, t + 1)
                    ],
                    block_size=1024,
                ),
            )
        ids = iter(range(100, 200))
        compactor = LeveledCompactor(
            version,
            lambda _: fs,
            lambda: next(ids),
            table_size_bytes=6000,
            block_size=1024,
        )
        outputs = compactor.compact_level(0)
        assert [(t.first_key, t.last_key) for t in outputs] == [
            (encode_key(lo), encode_key(hi)) for lo, hi in _OUTPUT_SPLITS
        ]
        assert sum(t.num_records for t in outputs) == 400


class TestSSTableReads:
    def test_bloom_screens_missing_keys_without_io(self, fs):
        table = build_sstable(fs, 1, records(200))
        fs.device.traffic.reset()
        misses = 0
        for i in range(10**5, 10**5 + 200):
            got, _ = table.get(encode_key(i))
            assert got is None
            misses += 1
        # Bloom lets most misses avoid any device read.
        read_ios = fs.device.traffic.read_ios(TrafficKind.FOREGROUND)
        assert read_ios < misses * 0.05

    def test_point_read_charges_one_block(self, fs):
        table = build_sstable(fs, 1, records(500))
        fs.device.traffic.reset()
        table.get(encode_key(250))
        assert 0 < fs.device.traffic.read_bytes(TrafficKind.FOREGROUND) <= 2 * 4096

    def test_cache_absorbs_repeat_reads(self, fs):
        table = build_sstable(fs, 1, records(500))
        cache = LRUCache(1 << 20)
        table.get(encode_key(250), cache=cache)
        fs.device.traffic.reset()
        _, service = table.get(encode_key(250), cache=cache)
        assert service == 0.0
        assert fs.device.traffic.read_bytes() == 0

    def test_iter_records_sorted_complete(self, fs):
        recs = records(300)
        table = build_sstable(fs, 1, recs)
        out = list(table.iter_entries())
        assert [e[0] for e in out] == [r.key for r in recs]
        assert [record_of(e) for e in out] == recs

    def test_iter_from(self, fs):
        table = build_sstable(fs, 1, records(100))
        out = [r.key for r in table.iter_from(encode_key(90))]
        assert out == [encode_key(i) for i in range(90, 100)]

    def test_iter_from_between_keys(self, fs):
        table = build_sstable(fs, 1, [Record(encode_key(i * 10), b"v", i + 1) for i in range(10)])
        out = [r.key for r in table.iter_from(encode_key(45))]
        assert out[0] == encode_key(50)

    def test_get_with_compaction_kind_charges_compaction(self, fs):
        table = build_sstable(fs, 1, records(100))
        fs.device.traffic.reset()
        list(table.iter_entries(TrafficKind.COMPACTION))
        assert fs.device.traffic.read_bytes(TrafficKind.COMPACTION) > 0
        assert fs.device.traffic.read_bytes(TrafficKind.FOREGROUND) == 0
