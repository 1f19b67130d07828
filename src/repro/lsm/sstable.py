"""Sorted string tables.

An :class:`SSTable` is an immutable, fully sorted run of records:

* **data blocks** — records in key order, packed to ~``block_size`` bytes;
* **metadata block** — a bloom filter over all keys;
* **index block** — per-block key ranges and file offsets.

The index and bloom are kept in memory (the paper stores a backup of them on
NVMe; either way lookups don't pay data-tier I/O for them) but their bytes
are appended to the table file so space accounting is honest.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from repro.common.bloom import BloomFilter
from repro.common.cache import LRUCache
from repro.common.errors import ReproError
from repro.common.keys import KeyRange
from repro.common.records import Record
from repro.lsm.blocks import (
    Entry, decode_one, find_record, payload_entries, seal_block, verify_block,
)
from repro.simssd.fs import SimFile, SimFilesystem
from repro.simssd.traffic import TrafficKind

DEFAULT_BLOCK_SIZE = 4096


@dataclass(slots=True)
class BlockHandle:
    """Index entry describing one data block."""

    first_key: bytes
    last_key: bytes
    offset: int
    length: int
    num_records: int

    def index_entry_size(self) -> int:
        """Approximate serialized size of this index entry."""
        return len(self.first_key) + len(self.last_key) + 16


class SSTable:
    """An immutable sorted table backed by one file."""

    def __init__(
        self,
        table_id: int,
        file: SimFile,
        handles: list[BlockHandle],
        bloom: BloomFilter,
        num_records: int,
    ) -> None:
        if not handles:
            raise ReproError("an SSTable must contain at least one block")
        self.table_id = table_id
        self.file = file
        self.handles = handles
        self.bloom = bloom
        self.num_records = num_records
        # Tables are immutable: the per-block first keys are cached once so
        # point lookups don't rebuild the list on every get.
        self._firsts = [h.first_key for h in handles]

    # ------------------------------------------------------------ metadata

    @property
    def first_key(self) -> bytes:
        return self.handles[0].first_key

    @property
    def last_key(self) -> bytes:
        return self.handles[-1].last_key

    @property
    def key_range(self) -> KeyRange:
        return KeyRange(self.first_key, self.last_key + b"\x00")

    @property
    def size_bytes(self) -> int:
        return self.file.size

    @property
    def data_bytes(self) -> int:
        return sum(h.length for h in self.handles)

    # -------------------------------------------------------------- reads

    def _find_handle(self, key: bytes) -> Optional[BlockHandle]:
        idx = bisect_right(self._firsts, key) - 1
        if idx < 0:
            return None
        h = self.handles[idx]
        return h if key <= h.last_key else None

    def _load_block(
        self,
        handle: BlockHandle,
        kind: TrafficKind,
        cache: Optional[LRUCache],
    ) -> tuple[bytes, float]:
        """The block's payload (checksum stripped).  The CRC is verified on
        every media read; a cached payload was verified when it was read."""
        cache_key = ("blk", self.file.name, handle.offset)
        if cache is not None:
            cached = cache.get(cache_key)
            if cached is not None:
                return cached, 0.0
        raw, service = self.file.read(handle.offset, handle.length, kind)
        payload = verify_block(raw)
        if cache is not None:
            cache.put(cache_key, payload, charge=handle.length)
        return payload, service

    def get(
        self,
        key: bytes,
        kind: TrafficKind = TrafficKind.FOREGROUND,
        cache: Optional[LRUCache] = None,
    ) -> tuple[Optional[Record], float]:
        """Point lookup: one block read, at most one record decoded.
        Returns ``(record_or_none, service_time)``."""
        if key not in self.bloom:
            return None, 0.0
        handle = self._find_handle(key)
        if handle is None:
            return None, 0.0
        payload, service = self._load_block(handle, kind, cache)
        return find_record(payload, key)[1], service

    def iter_entries(
        self, kind: TrafficKind = TrafficKind.COMPACTION
    ) -> Iterator[Entry]:
        """Every record as an entry, one pass of read I/O (uncached:
        compaction reads its inputs once); blocks are sliced, not decoded."""
        for handle in self.handles:
            yield from payload_entries(self._load_block(handle, kind, None)[0])

    def iter_from(
        self,
        start: bytes,
        kind: TrafficKind = TrafficKind.FOREGROUND,
        cache: Optional[LRUCache] = None,
    ) -> Iterator[Record]:
        """Ordered iteration beginning at the first key >= ``start``: a block
        is read when the consumer reaches it, and a record is decoded when
        the consumer pulls it."""
        idx = max(0, bisect_right(self._firsts, start) - 1)
        for handle in self.handles[idx:]:
            if handle.last_key < start:
                continue
            payload, _ = self._load_block(handle, kind, cache)
            pos, _ = find_record(payload, start)
            end = len(payload)
            while pos < end:
                rec = decode_one(payload, pos)
                pos += rec.encoded_size
                yield rec


class SSTableBuilder:
    """Streams sorted entries into a new table file: blocks are buffered,
    so the page two blocks share is written once, at :meth:`finish`."""

    def __init__(
        self,
        fs: SimFilesystem,
        table_id: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        write_kind: TrafficKind = TrafficKind.FLUSH,
        bits_per_key: int = 10,
    ) -> None:
        self._fs = fs
        self._table_id = table_id
        self._block_size = block_size
        self._write_kind = write_kind
        self._bits_per_key = bits_per_key
        self._file = fs.create(f"sst_{table_id:08d}")
        self._pending: list[bytes] = []  # the open block's record bytes
        self._blocks = bytearray()  # sealed, not yet written
        self._handles: list[BlockHandle] = []
        self._keys: list[bytes] = []
        self._last_key: Optional[bytes] = None
        self._finished = False
        #: Encoded bytes added so far: sealed blocks plus the open one.
        self.estimated_size = 0

    def add(self, entry: Entry) -> None:
        """Append an entry; keys must arrive in strictly increasing order."""
        if self._finished:
            raise ReproError("builder already finished")
        key = entry[0]
        if self._last_key is not None and key <= self._last_key:
            raise ReproError(
                f"records out of order: {key!r} after {self._last_key!r}"
            )
        self._last_key = key
        self._pending.append(entry[3])
        self.estimated_size += len(entry[3])
        self._keys.append(key)
        if self.estimated_size - len(self._blocks) >= self._block_size:
            self._flush_block()

    def _flush_block(self) -> None:
        if not self._pending:
            return
        block = seal_block(b"".join(self._pending))
        self._handles.append(
            BlockHandle(
                first_key=self._keys[-len(self._pending)],
                last_key=self._last_key,
                offset=len(self._blocks),
                length=len(block),
                num_records=len(self._pending),
            )
        )
        self._blocks += block
        self.estimated_size = len(self._blocks)
        self._pending = []

    def finish(self) -> SSTable:
        """Write the data blocks, metadata and index in one append; return
        the table."""
        if self._finished:
            raise ReproError("builder already finished")
        self._flush_block()
        if not self._handles:
            self._fs.delete(self._file.name)
            raise ReproError("cannot finish an empty SSTable")
        self._finished = True
        bloom = BloomFilter.for_keys(self._keys, self._bits_per_key)
        meta_size = bloom.size_bytes + sum(h.index_entry_size() for h in self._handles)
        self._blocks += bytes(meta_size)
        self._file.append(self._blocks, self._write_kind)
        return SSTable(self._table_id, self._file, self._handles, bloom, len(self._keys))

    def abandon(self) -> None:
        """Discard the partially built table and free its space."""
        if not self._finished:
            self._fs.delete(self._file.name)
            self._finished = True


def build_tables(
    fs: SimFilesystem,
    entries: Iterable[Entry],
    next_table_id: Callable[[], int],
    block_size: int,
    table_size_bytes: int,
    write_kind: TrafficKind,
) -> list[SSTable]:
    """Roll a sorted entry stream into tables of about ``table_size_bytes``
    (a merge's outputs).  A table id is drawn when a table's first entry
    arrives, so an empty stream draws none and builds nothing."""
    outputs: list[SSTable] = []
    builder: Optional[SSTableBuilder] = None
    for entry in entries:
        if builder is None:
            builder = SSTableBuilder(fs, next_table_id(), block_size, write_kind)
        builder.add(entry)
        if builder.estimated_size >= table_size_bytes:
            outputs.append(builder.finish())
            builder = None
    if builder is not None:
        outputs.append(builder.finish())
    return outputs
