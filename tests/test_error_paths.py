"""Tests for previously-uncovered error branches: closed-file operations,
record-decode truncation offsets, checkpoint structural corruption,
device trim bounds, and ``put_many`` columns of different lengths."""

import struct

import pytest

from repro.bench import BenchScale, STORE_NAMES, build_store
from repro.common.errors import ClosedError, CorruptionError, ReproError
from repro.common.keys import KeyRange, encode_key, encode_keys
from repro.common.records import Record
from repro.lsm.blocks import encode_record, payload_entries, seal_block
from repro.nvme import NVMeConfig
from repro.nvme.checkpoint import _ENTRY, _HEADER, _MAGIC, _ZONE_REC
from repro.nvme.pagestore import PageStore
from repro.nvme.partition import Partition
from repro.simssd import DeviceProfile, SimDevice, TrafficKind
from repro.simssd.fs import SimFilesystem

KiB = 1024
MiB = 1024 * KiB


def device(mib=8):
    return SimDevice(
        DeviceProfile(
            name="nvme",
            capacity_bytes=mib * MiB,
            page_size=4096,
            read_latency_s=8e-5,
            write_latency_s=2e-5,
            read_bandwidth=6.5e9,
            write_bandwidth=3.5e9,
        )
    )


class TestSimFileClosed:
    def _deleted_file(self):
        fs = SimFilesystem(device())
        f = fs.create("f")
        f.append(b"x" * 100, TrafficKind.FOREGROUND)
        fs.delete("f")
        return f

    def test_append_after_delete(self):
        f = self._deleted_file()
        with pytest.raises(ClosedError):
            f.append(b"more", TrafficKind.FOREGROUND)

    def test_read_after_delete(self):
        f = self._deleted_file()
        with pytest.raises(ClosedError):
            f.read(0, 1, TrafficKind.FOREGROUND)

    def test_truncate_after_delete(self):
        f = self._deleted_file()
        with pytest.raises(ClosedError):
            f.truncate(0)

    def test_double_delete_is_idempotent(self):
        f = self._deleted_file()
        f.delete()  # no error, no double-trim
        assert f.allocated_pages == 0

    def test_truncate_bounds(self):
        fs = SimFilesystem(device())
        f = fs.create("f")
        f.append(b"x" * 10, TrafficKind.FOREGROUND)
        with pytest.raises(ReproError):
            f.truncate(-1)
        with pytest.raises(ReproError):
            f.truncate(11)


class TestDecodeRecordsTruncation:
    def test_truncated_header_offset_reported(self):
        data = encode_record(Record(b"key", b"value", 1)) + b"\x01\x02"
        with pytest.raises(CorruptionError) as exc:
            list(payload_entries(data))
        assert "header" in str(exc.value)
        assert str(len(data) - 2) in str(exc.value)

    def test_truncated_body_offset_reported(self):
        full = encode_record(Record(b"key", b"value", 1))
        data = full[:-2]  # header intact, value cut short
        with pytest.raises(CorruptionError) as exc:
            list(payload_entries(data))
        assert "body" in str(exc.value)

    def test_empty_input_yields_nothing(self):
        assert list(payload_entries(b"")) == []

    def test_second_record_truncation_offset(self):
        first = encode_record(Record(b"a", b"1", 1))
        data = first + encode_record(Record(b"b", b"2", 2))[:-1]
        with pytest.raises(CorruptionError) as exc:
            list(payload_entries(data))
        assert str(len(first) + 15) in str(exc.value)  # body starts after header


class TestCheckpointStructuralErrors:
    def _partition(self):
        dev = device()
        store = PageStore(dev)
        part = Partition(
            partition_id=0,
            key_range=KeyRange(encode_key(0), encode_key(10_000)),
            page_store=store,
            config=NVMeConfig(num_partitions=1, initial_zones_per_partition=1),
            page_budget=dev.profile.num_pages,
        )
        return part, store

    def _install_image(self, part, store, payload):
        """Write a hand-crafted checkpoint image (valid CRC) into pages."""
        image = seal_block(payload)
        npages = max(1, -(-len(image) // store.page_size))
        pages = store.allocate(npages)
        size = store.page_size
        store.write_spans(
            {pid: [1, 0, image[i * size : (i + 1) * size]] for i, pid in enumerate(pages)},
            TrafficKind.GC,
        )
        part._checkpoint_pages = pages
        part._checkpoint_len = len(image)

    def test_entry_with_unknown_zone_rejected(self):
        part, store = self._partition()
        # One hot zone, one entry pointing at a zone id that was never
        # serialized.
        entry = _ENTRY.pack(1, 424242, 0, 0, 64, 10, 1, 0, 0) + b"k"
        payload = (
            _HEADER.pack(_MAGIC, 1, 1, 0)
            + _ZONE_REC.pack(part.hot_zone.zone_id, 0)
            + entry
        )
        self._install_image(part, store, payload)
        with pytest.raises(CorruptionError, match="unknown zone"):
            part.recover()

    def test_checkpoint_without_hot_zone_rejected(self):
        part, store = self._partition()
        # A single *ranged* zone and no range-less (hot) zone.
        payload = (
            _HEADER.pack(_MAGIC, 1, 0, 0)
            + _ZONE_REC.pack(7, 1)
            + struct.pack(">H", 2) + b"\x00a"
            + struct.pack(">H", 2) + b"\x00z"
        )
        self._install_image(part, store, payload)
        with pytest.raises(CorruptionError, match="hot zone"):
            part.recover()

    def test_bad_magic_rejected(self):
        part, store = self._partition()
        payload = _HEADER.pack(0xDEAD, 0, 0, 0)
        self._install_image(part, store, payload)
        with pytest.raises(CorruptionError, match="magic"):
            part.recover()


class TestDeviceTrimBounds:
    def test_trim_more_than_allocated_clamps(self):
        dev = device()
        dev.allocate(4)
        dev.trim(5)
        assert dev.allocated_pages == 0
        dev.trim(1)  # idempotent once empty
        assert dev.allocated_pages == 0

    def test_trim_negative(self):
        dev = device()
        with pytest.raises(ValueError):
            dev.trim(-1)

    def test_trim_exact_boundary(self):
        dev = device()
        dev.allocate(4)
        dev.trim(4)
        assert dev.allocated_pages == 0

    def test_allocate_past_capacity(self):
        dev = device(mib=1)
        with pytest.raises(Exception):
            dev.allocate(dev.profile.num_pages + 1)


class TestPutManyColumnMismatch:
    """``put_many`` pairs keys and values with ``zip``; a longer column's
    tail used to be dropped silently, on every engine."""

    @pytest.mark.parametrize("capture_errors", [False, True])
    @pytest.mark.parametrize("name", STORE_NAMES)
    def test_mismatch_raises_before_any_write(self, name, capture_errors):
        store = build_store(name, BenchScale(record_count=2000))
        keys = encode_keys(range(5))
        for ks, vs in ((keys, [b"v"] * 3), (keys[:3], [b"v"] * 5)):
            with pytest.raises(ValueError, match=f"{len(ks)} keys.*{len(vs)} values"):
                store.put_many(ks, vs, capture_errors=capture_errors)
        assert [store.get(k)[0] for k in keys] == [None] * 5
