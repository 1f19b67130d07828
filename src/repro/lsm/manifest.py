"""Durable version metadata for :class:`repro.lsm.lsmtree.LSMTree`.

An LSM-tree's level structure (which tables exist, at which level, with
which block handles and bloom filters) normally lives only in memory: after
a crash the SSTable *bytes* survive on media but nothing says how to read
them.  RocksDB solves this with a MANIFEST journal; this module is the
reproduction's equivalent, scaled to the simulation.

A manifest is a full snapshot of the version, sealed like a data block
(:func:`repro.lsm.blocks.seal_block`, a CRC32 trailer, checked by
:func:`repro.lsm.blocks.verify_block`), written as a rotated file
``manifest.<seq>``:

1. the new snapshot is appended under the *next* sequence number;
2. only then is the previous manifest deleted.

A crash at any point leaves at least one intact manifest on media: a torn
new snapshot fails its CRC and recovery falls back to the previous one,
whose referenced table files still exist because compaction deletes input
files only *after* the manifest that drops them is durable.

Manifest writes are real, charged I/O.  They are optional
(``LSMOptions.manifest_enabled``) because durable metadata is overhead the
paper's benchmark configuration does not model — the crash-consistency
harness and recovery tests enable them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.common.bloom import BloomFilter
from repro.common.errors import CorruptionError
from repro.lsm.blocks import seal_block, verify_block
from repro.simssd.fs import SimFilesystem
from repro.simssd.traffic import TrafficKind

MANIFEST_PREFIX = "manifest."

_MAGIC = 0x4D414E49  # "MANI"
_FORMAT_VERSION = 2
_HEADER = struct.Struct(">IHIQQ")     # magic, format, table_count, table_seq, seqno
_TABLE = struct.Struct(">iQQHII")     # level, id, nrecs, name_len, bloom_len, handle_count
_HANDLE = struct.Struct(">QIIHH")     # offset, length, num_records, fklen, lklen


@dataclass
class HandleMeta:
    """One serialized block handle."""

    first_key: bytes
    last_key: bytes
    offset: int
    length: int
    num_records: int


@dataclass
class TableMeta:
    """One serialized table: enough to rebuild an :class:`SSTable` object."""

    level: int
    table_id: int
    num_records: int
    file_name: str
    bloom: bytes
    handles: list[HandleMeta] = field(default_factory=list)


def encode_manifest(tables: list[TableMeta], table_seq: int, seqno: int) -> bytes:
    """Serialize a version snapshot, sealed (:func:`seal_block`).

    ``seqno`` is the tree's seqno high-water mark: after a flush the WAL
    holds nothing to replay, so recovery resumes numbering from here.
    """
    out = [_HEADER.pack(_MAGIC, _FORMAT_VERSION, len(tables), table_seq, seqno)]
    for t in tables:
        name = t.file_name.encode("utf-8")
        out.append(
            _TABLE.pack(
                t.level, t.table_id, t.num_records, len(name), len(t.bloom),
                len(t.handles),
            )
        )
        out.append(name)
        out.append(t.bloom)
        for h in t.handles:
            out.append(
                _HANDLE.pack(
                    h.offset, h.length, h.num_records,
                    len(h.first_key), len(h.last_key),
                )
            )
            out.append(h.first_key)
            out.append(h.last_key)
    return seal_block(b"".join(out))


def decode_manifest(data: bytes) -> tuple[list[TableMeta], int, int]:
    """Parse and verify a manifest; returns ``(tables, table_seq, seqno)``.

    Raises :class:`CorruptionError` on a bad magic, CRC mismatch, or any
    structural truncation — the caller falls back to an older manifest.
    """
    payload = verify_block(data, "manifest")
    if len(payload) < _HEADER.size:
        raise CorruptionError("manifest shorter than its header")
    magic, fmt, table_count, table_seq, seqno = _HEADER.unpack_from(payload, 0)
    if magic != _MAGIC:
        raise CorruptionError(f"bad manifest magic {magic:#x}")
    if fmt != _FORMAT_VERSION:
        raise CorruptionError(f"unsupported manifest format {fmt}")
    pos = _HEADER.size
    try:
        tables: list[TableMeta] = []
        for _ in range(table_count):
            level, tid, nrecs, name_len, bloom_len, handle_count = (
                _TABLE.unpack_from(payload, pos)
            )
            pos += _TABLE.size
            name = payload[pos : pos + name_len].decode("utf-8")
            pos += name_len
            bloom = payload[pos : pos + bloom_len]
            pos += bloom_len
            handles: list[HandleMeta] = []
            for _ in range(handle_count):
                offset, length, hrecs, fklen, lklen = _HANDLE.unpack_from(
                    payload, pos
                )
                pos += _HANDLE.size
                fk = payload[pos : pos + fklen]
                pos += fklen
                lk = payload[pos : pos + lklen]
                pos += lklen
                handles.append(HandleMeta(fk, lk, offset, length, hrecs))
            tables.append(TableMeta(level, tid, nrecs, name, bytes(bloom), handles))
    except struct.error as e:
        raise CorruptionError(f"truncated manifest: {e}") from e
    return tables, table_seq, seqno


class ManifestStore:
    """Rotated manifest files on one filesystem (the tree's first path)."""

    def __init__(self, fs: SimFilesystem) -> None:
        self._fs = fs
        self._seq = self._highest_existing_seq()

    def _manifest_names(self) -> list[tuple[int, str]]:
        out = []
        for f in self._fs.files():
            if f.name.startswith(MANIFEST_PREFIX):
                try:
                    out.append((int(f.name[len(MANIFEST_PREFIX) :]), f.name))
                except ValueError:
                    continue
        out.sort(reverse=True)
        return out

    def _highest_existing_seq(self) -> int:
        names = self._manifest_names()
        return names[0][0] if names else 0

    # -------------------------------------------------------------- write

    def write(
        self,
        tables: list[TableMeta],
        table_seq: int,
        seqno: int,
        kind: TrafficKind = TrafficKind.FLUSH,
    ) -> float:
        """Persist a snapshot (rotate-then-delete).  Returns service time."""
        payload = encode_manifest(tables, table_seq, seqno)
        old = [name for _, name in self._manifest_names()]
        self._seq += 1
        f = self._fs.create(f"{MANIFEST_PREFIX}{self._seq:08d}")
        _, service = f.append(payload, kind)
        # The new snapshot is durable; retire every older one.
        for name in old:
            self._fs.delete(name)
        return service

    # --------------------------------------------------------------- load

    def load_latest(
        self,
    ) -> tuple[list[TableMeta] | None, int, int, list[str]]:
        """Load the newest intact manifest.

        Returns ``(tables, table_seq, seqno, notes)`` where ``tables`` is None when
        no manifest exists at all.  Torn/corrupt newer manifests are skipped
        (and noted) in favor of older intact ones.
        """
        notes: list[str] = []
        for seq, name in self._manifest_names():
            f = self._fs.open(name)
            data, _ = f.read(0, f.size, TrafficKind.FOREGROUND, sequential=True)
            try:
                tables, table_seq, seqno = decode_manifest(data)
            except CorruptionError as e:
                notes.append(f"skipped corrupt manifest {name!r}: {e}")
                continue
            self._seq = seq
            return tables, table_seq, seqno, notes
        return None, 0, 0, notes


def bloom_from_meta(meta: TableMeta) -> BloomFilter:
    """Rebuild a table's bloom filter from its serialized form."""
    return BloomFilter.from_bytes(meta.bloom)
