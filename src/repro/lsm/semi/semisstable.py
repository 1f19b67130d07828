"""The semi-sorted string table (paper §3.2, Fig. 5).

Layout of one semi-SSTable:

* **data blocks** — records sorted *within* a block; blocks appended over the
  table's lifetime need not be ordered relative to each other;
* **metadata blocks** — a bloom filter per table, modelled by its serialized
  size only: the in-memory index below answers membership exactly;
* **index blocks** — per-block key ranges, offsets, and validity, plus the
  set of all *valid* keys in the table (the paper prefix-compresses these;
  we keep them in an in-memory map, each key pointing at its record's
  block, file offset and CRC32, and charge their serialized size), so a
  point read fetches the page its record is on, not the whole block.
  Every read of the file — a point read's pages, a background read's
  blocks, the scrubber's block — is one :meth:`SimFile.read_extents`.

Merging new objects (:meth:`SemiSSTable.merge_append`) rewrites only the
blocks whose keys are touched: their surviving records — entries sliced out
of the verified payload at their indexed offsets, never decoded — are merged
with the incoming entries into fresh blocks (joins of their bytes) appended
at the file's end; the old blocks are marked dead, clean blocks untouched.
Dead blocks make the file larger than its live payload —
:attr:`SemiSSTable.dirty_ratio` and :meth:`SemiSSTable.full_compact`, which
moves entries the same way, manage that space debt.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Optional
from zlib import crc32

from repro.common.bloom import TABLE_BITS_PER_KEY
from repro.common.errors import CorruptionError, ReproError
from repro.common.keys import KeyRange, ranges_overlap
from repro.common.records import Record
from repro.lsm.blocks import (
    Entry, as_entries, entry_at, record_of, seal_block, verify_block,
)
from repro.simssd.fs import SimFile, SimFilesystem
from repro.simssd.traffic import TrafficKind


@dataclass(slots=True)
class SemiBlock:
    """Index metadata for one data block of a semi-SSTable."""

    block_id: int
    first_key: bytes
    last_key: bytes
    offset: int
    length: int
    num_records: int
    valid_count: int

    @property
    def is_dead(self) -> bool:
        return self.valid_count == 0

    @property
    def is_dirty(self) -> bool:
        return 0 < self.valid_count < self.num_records

    def overlaps(self, lo: bytes, hi: Optional[bytes]) -> bool:
        return ranges_overlap(self.first_key, self.last_key + b"\x00", lo, hi)


class SemiSSTable:
    """A mutable-by-append semi-sorted table owning one declared key range.

    Parameters
    ----------
    table_id:
        Unique id within the tree.
    fs:
        Filesystem (device) the table file lives on.
    declared_range:
        The key segment this table is responsible for (§3.2: files at each
        level own fixed, non-overlapping key segments so deep compactions
        stop cascading).
    block_size:
        Target encoded size of one data block.
    """

    def __init__(
        self,
        table_id: int,
        fs: SimFilesystem,
        declared_range: KeyRange,
        block_size: int = 4096,
    ) -> None:
        self.table_id = table_id
        self.fs = fs
        self.declared_range = declared_range
        self.block_size = block_size
        self.file: SimFile = fs.create(f"semi_{table_id:08d}")
        self._reset_index()
        #: Bumped by full_compact so cached block payloads of the previous
        #: file generation (same name, same offsets) cannot alias.
        self._generation = 0
        #: Engine hook called as ``hook(table, block, superseded)`` when a
        #: *background* read (compaction victim scan, merge survivor read,
        #: ride-along extraction) or the scrubber finds a block whose check
        #: fails.  The hook triages the block's records against redundant
        #: copies before the block is killed, and returns how many keys it
        #: marked suspect; ``superseded`` names keys the caller is about to
        #: overwrite anyway.  ``None`` (the default) keeps the historical
        #: behavior: the :class:`CorruptionError` propagates.
        self.on_corrupt_block = None

    def _reset_index(self) -> None:
        """Empty block list and index (construction, full compaction, destroy)."""
        self.blocks: list[SemiBlock] = []
        self._blocks_by_id: dict[int, SemiBlock] = {}
        self._next_block_id = 0
        # key -> (block_id, seqno, record_size, file_offset, crc32 of the
        # record's bytes): the "index block".
        self._key_map: dict[bytes, tuple[int, int, int, int, int]] = {}
        self._valid_bytes = 0
        self._key_bytes = 0  # sum of len(key) over _key_map
        # The index's other two access paths.  By block: the keys each live
        # block was written with, filtered against ``_key_map`` on read.
        # In order: a sorted key view built on first use and dropped by
        # every mutation, so write-only traffic never builds it.
        self._block_keys: dict[int, list[bytes]] = {}
        self._sorted_keys: Optional[list[bytes]] = None

    # ----------------------------------------------------------- metadata

    @property
    def num_valid_records(self) -> int:
        return len(self._key_map)

    @property
    def valid_bytes(self) -> int:
        """Live payload bytes (what a full compaction would retain)."""
        return self._valid_bytes

    @property
    def file_bytes(self) -> int:
        return self.file.size

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def dirty_ratio(self) -> float:
        """Fraction of blocks that are dead or dirty (stale data on media)."""
        if not self.blocks:
            return 0.0
        stale = sum(1 for b in self.blocks if b.is_dead or b.is_dirty)
        return stale / len(self.blocks)

    @property
    def dead_bytes(self) -> int:
        """File bytes in blocks that no longer back any valid record."""
        live = sum(b.length for b in self.blocks if not b.is_dead)
        return max(0, self.file.size - live)

    def _index_size_estimate(self) -> int:
        # Serialized metadata: a bloom sized to the live keys (10 bits each)
        # plus one index entry per block.  No filter is built on the host
        # (``_key_map`` is exact); media pays for what a real table would store.
        bloom_bytes = (self.num_valid_records * TABLE_BITS_PER_KEY + 7) // 8
        return bloom_bytes + 24 * len(self.blocks)

    def index_read_size(self) -> int:
        """Bytes a worker reads to fetch this table's keys from index blocks
        (Algorithm 1 reads only index blocks, never data blocks)."""
        # Prefix compression on sorted fixed-width keys: ~half the raw size.
        return self._index_size_estimate() + self._key_bytes // 2

    def contains_key(self, key: bytes) -> bool:
        """Index-only membership test (no data-block I/O)."""
        return key in self._key_map

    def seqno_of(self, key: bytes) -> Optional[int]:
        """The seqno of ``key``'s valid copy (None when the index does not
        list it); no I/O."""
        entry = self._key_map.get(key)
        return None if entry is None else entry[1]

    def valid_keys(self) -> list[bytes]:
        """Every valid key in order — the table's sorted view itself, so
        read-only for callers: built on first use, dropped on mutation."""
        view = self._sorted_keys
        if view is None:
            view = self._sorted_keys = sorted(self._key_map)
        return view

    def keys_from(self, start: bytes, limit: int) -> list[bytes]:
        """Up to ``limit`` sorted valid keys >= ``start`` — an index-only
        operation (the key list lives in the index blocks)."""
        view = self.valid_keys()
        i = bisect_left(view, start)
        return view[i : i + limit]

    def keys_of_block(self, block: SemiBlock) -> list[bytes]:
        """Sorted keys whose valid copy lives in ``block`` (index-only)."""
        key_map, bid = self._key_map, block.block_id
        keys = self._block_keys.get(bid, ())
        return [k for k in keys if (e := key_map.get(k)) is not None and e[0] == bid]

    def overlapping_blocks(self, lo: bytes, hi: Optional[bytes]) -> list[SemiBlock]:
        """Live blocks whose key range intersects ``[lo, hi)``."""
        return [b for b in self.blocks if not b.is_dead and b.overlaps(lo, hi)]

    # -------------------------------------------------------------- reads

    def get(
        self, key: bytes, kind: TrafficKind = TrafficKind.FOREGROUND, cache=None
    ) -> tuple[Optional[Record], float]:
        """Point lookup: :meth:`entries` of one key.  Returns
        ``(record_or_none, service_time)``."""
        if key not in self._key_map:
            return None, 0.0
        spent: list[float] = []
        entry = next(self.entries((key,), kind, cache, spent))
        return record_of(entry), sum(spent, 0.0)

    def block_of(self, key: bytes) -> SemiBlock:
        """The block holding the valid copy of a key the index lists."""
        return self._blocks_by_id[self._key_map[key][0]]

    def entries(
        self,
        keys: Iterable[bytes],
        kind: TrafficKind,
        cache=None,
        spent: Optional[list[float]] = None,
    ) -> Iterator[Entry]:
        """The entry of each of ``keys`` (keys this table's index lists),
        lazily: the table's one record reader.  A key pulled costs one page
        lookup per page its record lies on (a ``cache.get``; unless all hit,
        those pages are read with one random read, its service time
        appended to ``spent``) — none when its record lies on the pages the
        previous key's was read from.  The entry is sliced at its indexed
        offset, its bytes checked against the index's CRC and its key
        compared with the index's: a read verifies exactly the bytes it
        returns."""
        key_map, ps = self._key_map, self.fs.device.page_size
        name, generation = self.file.name, self._generation
        get = None if cache is None else cache.get
        # The pages last read: file bytes ``[base, limit)``.
        base, limit, data = 0, 0, b""
        for key in keys:
            _, _, size, offset, crc = key_map[key]
            end = offset + size
            if offset < base or end > limit:
                first = offset // ps
                base = first * ps
                data = None if get is None else get((name, generation, first))
                if data is None or end > base + len(data):
                    data = self._pages(first, end - base, data, kind, cache, spent)
                limit = base + len(data)
            entry = entry_at(data, offset - base)
            if crc32(entry[3]) != crc:
                raise CorruptionError(f"record checksum mismatch for key {key!r}")
            if entry[0] != key:
                raise self._misindexed(key)
            yield entry

    def _pages(
        self, first: int, end: int, head: Optional[bytes], kind: TrafficKind, cache, spent
    ) -> bytes:
        """The pages from ``first`` on that hold ``end`` bytes, joined:
        ``head`` is the cached copy of page ``first`` (None for a miss) and
        each later page is looked up in ``cache``.  Unless every page hits,
        the pages are read with one random read and cached.  A cached page
        shorter than the bytes wanted of it was the file's partial last
        page before an append grew it, and counts as a miss."""
        ps = self.fs.device.page_size
        name, generation = self.file.name, self._generation
        count = (end - 1) // ps + 1
        pages = [head]  # None without a cache
        if cache is not None:
            pages += [cache.get((name, generation, first + i)) for i in range(1, count)]
        if all(
            page is not None and len(page) >= min(ps, end - i * ps)
            for i, page in enumerate(pages)
        ):
            return b"".join(pages)
        start = first * ps
        (raw,), service = self.file.read_extents(
            [(start, min(start + count * ps, self.file.size) - start)], kind
        )
        if spent is not None:
            spent.append(service)
        if cache is not None:
            for i in range(count):
                page = raw[i * ps : (i + 1) * ps]
                cache.put((name, generation, first + i), page, charge=len(page))
        return raw

    def _misindexed(self, key: bytes) -> ReproError:
        block_id = self._key_map[key][0]
        return ReproError(f"index says key {key!r} is in block {block_id} but it is not")

    def _read_blocks(
        self, blocks: Iterable[SemiBlock], kind: TrafficKind, superseded
    ) -> tuple[list[Entry], float]:
        """Background read of ``blocks`` (compaction victim, merge survivors,
        ride-along): the valid entries of each, block by block in file order
        and in key order within a block; returns them and the service time.

        The blocks are read with one :meth:`SimFile.read_extents`, then each
        is checked on its own (:meth:`_check_block`): a block failing its
        check is triaged by :attr:`on_corrupt_block` and retired, yielding
        none, while its run-neighbours still yield."""
        blocks = sorted(blocks, key=attrgetter("offset"))
        raws, service = self.file.read_extents([(b.offset, b.length) for b in blocks], kind)
        out: list[Entry] = []
        for block, raw in zip(blocks, raws):
            try:
                out += self._check_block(block, raw)
            except CorruptionError:
                if self.on_corrupt_block is None:
                    raise
                self.on_corrupt_block(self, block, superseded)
                self._kill_block(block)
        return out, service

    def _check_block(self, block: SemiBlock, raw) -> list[Entry]:
        """``block``'s valid entries in key order from its media bytes
        ``raw`` (or a view of them): the CRC verified, then the payload
        copied once and an entry sliced at each offset the index still
        points at, its key compared with the index's."""
        payload = bytes(verify_block(raw))
        keys, key_map, start = self.keys_of_block(block), self._key_map, block.offset
        out = [entry_at(payload, key_map[k][3] - start) for k in keys]
        if [e[0] for e in out] != keys:
            raise self._misindexed(next(k for k, e in zip(keys, out) if e[0] != k))
        return out

    def live_entries(self, kind: TrafficKind = TrafficKind.COMPACTION) -> list[Entry]:
        """All valid entries in key order (:meth:`_read_blocks` of every
        live block)."""
        out = self._read_blocks([b for b in self.blocks if not b.is_dead], kind, ())[0]
        out.sort(key=itemgetter(0))
        return out

    # ------------------------------------------------------------- writes

    def merge_append(
        self,
        entries: list[Entry],
        kind: TrafficKind = TrafficKind.COMPACTION,
        invalidate_only: Optional[set[bytes]] = None,
    ) -> float:
        """Merge sorted ``entries`` (or records, encoded once here) into the
        table at block granularity.

        Blocks containing keys being written are read, their surviving
        entries merged with the incoming ones, and the result appended as
        fresh blocks; untouched blocks stay clean (paper Fig. 5).

        ``invalidate_only`` keys are removed from the index without writing a
        replacement (their newer version went to a deeper level).

        Returns the service time charged.
        """
        service = 0.0
        if invalidate_only:
            for key in invalidate_only:
                self._invalidate(key)
        if not entries:
            service += self._rewrite_index(kind)
            return service
        entries = as_entries(entries)
        for a, b in zip(entries, entries[1:]):
            if a[0] >= b[0]:
                raise ReproError("merge_append requires strictly sorted records")
        for key in (entries[0][0], entries[-1][0]):  # sorted: the ends bound all
            if not self.declared_range.contains(key):
                raise ReproError(
                    f"record key {key!r} outside declared range of table "
                    f"{self.table_id}"
                )

        incoming = {e[0]: e for e in entries}
        # Skip records older than what the table already holds.
        for key in list(incoming):
            entry = self._key_map.get(key)
            if entry is not None and entry[1] >= incoming[key][1]:
                del incoming[key]
        if not incoming:
            service += self._rewrite_index(kind)
            return service

        # Find the blocks whose live records are displaced by the merge.
        touched: dict[int, SemiBlock] = {}
        for key in incoming:
            entry = self._key_map.get(key)
            if entry is not None:
                block = self._blocks_by_id[entry[0]]
                touched[block.block_id] = block

        # Keys being overwritten by this merge are superseded either way;
        # a corrupt block's hook triages its *other* survivors.
        live, s = self._read_blocks(touched.values(), kind, incoming.keys())
        service += s
        survivors = [e for e in live if e[0] not in incoming]

        merged = sorted(list(incoming.values()) + survivors, key=itemgetter(0))

        # Every live key of a touched block is in ``merged``, so indexing
        # the fresh blocks retires the touched ones (their bytes become
        # dead space) — and a merge whose append fails leaves them live.
        service += self._append_blocks(merged, kind)
        service += self._rewrite_index(kind)
        return service

    def _append_blocks(self, merged: list[Entry], kind: TrafficKind) -> float:
        """Chunk ``merged`` into blocks of ``block_size`` record bytes, each
        its entries' bytes joined and sealed with a checksum, and write them
        with one append — a table writer buffers, so the page two blocks
        share is written once.  The index points at the blocks only once
        they are on media."""
        chunks: list[list[Entry]] = []
        chunk: list[Entry] = []
        chunk_size = 0
        for entry in merged:
            chunk.append(entry)
            chunk_size += len(entry[3])
            if chunk_size >= self.block_size:
                chunks.append(chunk)
                chunk, chunk_size = [], 0
        if chunk:
            chunks.append(chunk)
        blocks = [seal_block(b"".join([e[3] for e in c])) for c in chunks]
        offset, service = self.file.append(b"".join(blocks), kind)
        for chunk, block in zip(chunks, blocks):
            self._index_block(chunk, offset, len(block))
            offset += len(block)
        return service

    def _index_block(self, chunk: list[Entry], offset: int, length: int) -> None:
        """Point the index at the block of ``chunk`` written at ``offset``."""
        block = SemiBlock(
            block_id=self._next_block_id,
            first_key=chunk[0][0],
            last_key=chunk[-1][0],
            offset=offset,
            length=length,
            num_records=len(chunk),
            valid_count=len(chunk),
        )
        self._next_block_id += 1
        self.blocks.append(block)
        self._blocks_by_id[block.block_id] = block
        self._sorted_keys = None
        key_map = self._key_map
        bid = block.block_id
        pos = offset  # file offset of ``raw``
        for key, seqno, _, raw in chunk:
            old = key_map.get(key)
            if old is not None:
                self._retire_entry(key, old)
            else:
                self._key_bytes += len(key)
            size = len(raw)
            key_map[key] = (bid, seqno, size, pos, crc32(raw))
            pos += size
            self._valid_bytes += size
        self._block_keys[bid] = [e[0] for e in chunk]

    def _retire_entry(self, key: bytes, entry: tuple[int, int, int, int, int]) -> None:
        old_block = self._blocks_by_id[entry[0]]
        old_block.valid_count -= 1
        if old_block.valid_count == 0:
            del self._block_keys[entry[0]]
        self._valid_bytes -= entry[2]

    def _invalidate(self, key: bytes) -> bool:
        entry = self._key_map.pop(key, None)
        if entry is None:
            return False
        self._sorted_keys = None
        self._key_bytes -= len(key)
        self._retire_entry(key, entry)
        return True

    def extract_block_records(
        self, key: bytes, kind: TrafficKind = TrafficKind.COMPACTION
    ) -> tuple[list[Entry], float]:
        """Remove and return, as entries, all valid records of the block
        holding ``key``.

        Used by preemptive compaction's ride-along (paper Fig. 7): when a
        block's key is superseded by a record going to a deeper level, the
        block's surviving neighbours travel down with it instead of staying
        behind as dirty data.  The block is retired.
        """
        entry = self._key_map.get(key)
        if entry is None:
            return [], 0.0
        block = self._blocks_by_id[entry[0]]
        # The triggering key is superseded by the record travelling down; a
        # corrupt block's hook triages the rest.  Either way the block dies.
        got = self._read_blocks((block,), kind, frozenset((key,)))
        self._kill_block(block)
        return got

    def _kill_block(self, block: SemiBlock) -> None:
        """Drop every index entry still pointing at ``block``."""
        if block.valid_count == 0:
            return
        self._sorted_keys = None
        for key in self.keys_of_block(block):
            self._valid_bytes -= self._key_map.pop(key)[2]
            self._key_bytes -= len(key)
        del self._block_keys[block.block_id]
        block.valid_count = 0

    def _rewrite_index(self, kind: TrafficKind) -> float:
        """Charge writing fresh metadata + index blocks after a merge."""
        size = self._index_size_estimate()
        if size == 0:
            return 0.0
        # Index/metadata blocks are small relative to data blocks (§3.1) and
        # are charged as I/O without growing the data extent.
        return self.fs.device.write_bytes_io(size, kind)

    # ------------------------------------------------------ housekeeping

    def full_compact(self, kind: TrafficKind = TrafficKind.COMPACTION) -> float:
        """Rewrite the table clean: read live blocks, rewrite a fresh file.

        Reclaims dead bytes and restores block ordering, so blocks next in
        key order are next in the file (paper: "regular full compaction can
        enhance the organization of data within the table").
        """
        live = self.live_entries(kind)
        service = 0.0
        old_name = self.file.name
        self.fs.delete(old_name)
        self.file = self.fs.create(old_name)
        self._generation += 1
        self._reset_index()
        if live:
            service += self._append_blocks(live, kind)
        service += self._rewrite_index(kind)
        return service

    def destroy(self) -> None:
        """Delete the backing file and drop all state."""
        if self.fs.exists(self.file.name):
            self.fs.delete(self.file.name)
        self._reset_index()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SemiSSTable(id={self.table_id}, blocks={len(self.blocks)}, "
            f"valid={self.num_valid_records}, dirty={self.dirty_ratio:.2f})"
        )
