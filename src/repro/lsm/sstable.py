"""Sorted string tables.

An :class:`SSTable` is an immutable, fully sorted run of records:

* **data blocks** — records in key order, packed to ~``block_size`` bytes;
* **metadata block** — a bloom filter over all keys;
* **index block** — per-block key ranges and file offsets.

The index and bloom are kept in memory (the paper stores a backup of them on
NVMe; either way lookups don't pay data-tier I/O for them) but their bytes
are appended to the table file so space accounting is honest.

A table also keeps its keys' rows in the tree's digest memo (host-side
only), which a compaction hands on to its outputs' blooms.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from repro.common.bloom import TABLE_BITS_PER_KEY, BloomFilter, KeyHashes
from repro.common.cache import LRUCache
from repro.common.errors import CorruptionError, PowerLossError, ReproError
from repro.common.keys import KeyRange
from repro.common.records import Record
from repro.lsm.blocks import (
    Entry, find_record, payload_entries, record_of, seal_block, verify_block,
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
        rows: Optional[np.ndarray] = None,
    ) -> None:
        if not handles:
            raise ReproError("an SSTable must contain at least one block")
        self.table_id = table_id
        self.file = file
        self.handles = handles
        self.bloom = bloom
        self.num_records = num_records
        #: Each key's row in the memo the table was built through, in key
        #: order; ``None`` for a table built without one or rebuilt from a
        #: manifest.
        self.rows = rows
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
        (raw,), service = self.file.read_extents([(handle.offset, handle.length)], kind)
        try:
            payload = verify_block(raw)
        except CorruptionError as exc:
            exc.source = self
            raise
        if cache is not None:
            cache.put(cache_key, payload, charge=handle.length)
        return payload, service

    def get(
        self,
        key: bytes,
        kind: TrafficKind = TrafficKind.FOREGROUND,
        cache: Optional[LRUCache] = None,
        hashes: Optional[tuple[int, int]] = None,
    ) -> tuple[Optional[Record], float]:
        """Point lookup: one block read, at most one record decoded.
        Returns ``(record_or_none, service_time)``.  ``hashes`` are the
        key's base hashes when the caller probes several tables for it."""
        bloom = self.bloom
        if not (key in bloom if hashes is None else bloom.contains_hashed(*hashes)):
            return None, 0.0
        handle = self._find_handle(key)
        if handle is None:
            return None, 0.0
        payload, service = self._load_block(handle, kind, cache)
        return find_record(payload, key)[1], service

    def iter_entries(
        self, kind: TrafficKind = TrafficKind.COMPACTION
    ) -> Iterator[tuple]:
        """Every record as an entry, one pass of read I/O (uncached:
        compaction reads its inputs once); blocks are sliced, not decoded.
        A table with :attr:`rows` hands each entry its row as a fifth
        field, which a merge passes through to the table writer."""
        rows = None if self.rows is None else self.rows.tolist()
        start = 0
        for handle in self.handles:
            stop = start + handle.num_records
            yield from payload_entries(
                self._load_block(handle, kind, None)[0],
                None if rows is None else rows[start:stop],
            )
            start = stop

    def iter_from(
        self,
        start: bytes,
        kind: TrafficKind = TrafficKind.FOREGROUND,
        cache: Optional[LRUCache] = None,
    ) -> Iterator[Record]:
        """Ordered iteration beginning at the first key >= ``start``: a block
        is read when the consumer reaches it, its entries from
        :func:`find_record`'s offset on are sliced, and a record is built
        when the consumer pulls it."""
        idx = max(0, bisect_right(self._firsts, start) - 1)
        for handle in self.handles[idx:]:
            if handle.last_key < start:
                continue
            payload, _ = self._load_block(handle, kind, cache)
            pos, _ = find_record(payload, start)
            yield from map(record_of, payload_entries(payload[pos:]))


class SSTableBuilder:
    """Streams sorted entries into a new table file: blocks are buffered,
    so the page two blocks share is written once, at :meth:`finish`.

    Each key's memo row comes with its entry when the entry has one (a
    fifth field, :meth:`SSTable.iter_entries`) and is looked up otherwise.
    Without ``key_hashes`` the builder hashes through a memo of its own,
    takes no row from an entry, and the table keeps none.
    """

    def __init__(
        self,
        fs: SimFilesystem,
        table_id: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        write_kind: TrafficKind = TrafficKind.FLUSH,
        key_hashes: Optional[KeyHashes] = None,
    ) -> None:
        self._fs = fs
        self._table_id = table_id
        self._block_size = block_size
        self._write_kind = write_kind
        self._key_hashes = KeyHashes() if key_hashes is None else key_hashes
        self._keep_rows = key_hashes is not None
        self._file = fs.create(f"sst_{table_id:08d}")
        self._pending: list[bytes] = []  # the open block's record bytes
        self._blocks = bytearray()  # sealed, not yet written
        self._handles: list[BlockHandle] = []
        self._keys: list[bytes] = []
        self._rows: list[int] = []  # each key's memo row
        self._last_key: Optional[bytes] = None
        self._finished = False
        #: Encoded bytes added so far: sealed blocks plus the open one.
        self.estimated_size = 0

    def extend(self, entries: Iterable[tuple], limit: Optional[int] = None) -> None:
        """Append entries, keys strictly increasing.  With ``limit``, stop
        after the entry that brings :attr:`estimated_size` to ``limit``,
        leaving the rest of ``entries`` unread."""
        if self._finished:
            raise ReproError("builder already finished")
        keys, rows, pending = self._keys, self._rows, self._pending
        memo = self._key_hashes
        keep_rows = self._keep_rows
        block_size = self._block_size
        last = self._last_key
        size = self.estimated_size
        sealed = len(self._blocks)
        try:
            for entry in entries:
                key = entry[0]
                if last is not None and key <= last:
                    raise ReproError(f"records out of order: {key!r} after {last!r}")
                last = key
                keys.append(key)
                rows.append(entry[4] if keep_rows and len(entry) > 4 else memo[key])
                raw = entry[3]
                pending.append(raw)
                size += len(raw)
                if size - sealed >= block_size:
                    self._last_key = last
                    self._flush_block()
                    size = sealed = len(self._blocks)
                if limit is not None and size >= limit:
                    break
        finally:
            self._last_key = last
            self.estimated_size = size

    def _flush_block(self) -> None:
        pending = self._pending
        if not pending:
            return
        block = seal_block(b"".join(pending))
        self._handles.append(
            BlockHandle(
                first_key=self._keys[-len(pending)],
                last_key=self._last_key,
                offset=len(self._blocks),
                length=len(block),
                num_records=len(pending),
            )
        )
        self._blocks += block
        self.estimated_size = len(self._blocks)
        pending.clear()

    def finish(self) -> SSTable:
        """Write the data blocks, metadata and index in one append; return
        the table."""
        if self._finished:
            raise ReproError("builder already finished")
        self._flush_block()
        if not self._handles:
            self._finished = True
            self._fs.delete(self._file.name)
            raise ReproError("cannot finish an empty SSTable")
        rows = np.array(self._rows, np.intp)
        bloom = BloomFilter(len(rows), TABLE_BITS_PER_KEY)
        bloom.add_pairs(self._key_hashes.pairs(rows))
        meta_size = bloom.size_bytes + sum(h.index_entry_size() for h in self._handles)
        self._blocks += bytes(meta_size)
        self._file.append(self._blocks, self._write_kind)
        self._finished = True
        return SSTable(
            self._table_id, self._file, self._handles, bloom, len(self._keys),
            rows if self._keep_rows else None,
        )

    def abandon(self) -> None:
        """Discard the partially built table, or one whose :meth:`finish`
        failed, and free its space."""
        if not self._finished:
            self._fs.delete(self._file.name)
            self._finished = True


def build_tables(
    fs: SimFilesystem,
    entries: Iterable[Entry],
    next_table_id: Callable[[], int],
    block_size: int,
    table_size_bytes: Optional[int],
    write_kind: TrafficKind,
    key_hashes: Optional[KeyHashes] = None,
) -> list[SSTable]:
    """Roll a sorted entry stream into tables of about ``table_size_bytes``
    (a merge's outputs; ``None`` builds one table).  A table id is drawn when a table's first entry
    arrives, so an empty stream draws none and builds nothing.

    When the stream or a write fails (an input block fails its CRC, say),
    the open table is abandoned and the finished ones deleted before the
    error propagates: the caller installs none of them.  A power loss
    runs no clean-up; reopening the tree collects what it left."""
    outputs: list[SSTable] = []
    builder: Optional[SSTableBuilder] = None
    entries = iter(entries)
    try:
        for first in entries:
            builder = SSTableBuilder(
                fs, next_table_id(), block_size, write_kind, key_hashes=key_hashes
            )
            builder.extend(chain((first,), entries), table_size_bytes)
            outputs.append(builder.finish())
            builder = None
    except PowerLossError:
        raise
    except Exception:
        if builder is not None:
            builder.abandon()
        for table in outputs:
            fs.delete(table.file.name)
        raise
    return outputs
