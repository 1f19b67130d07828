"""On-media encoding of records and data blocks.

Format of one record::

    [seqno: 8B big-endian][flags: 1B][key_len: 2B][value_len: 4B][key][value]

Flags bit 0 marks a tombstone (deletions are out-of-band of the value).

A data block is a concatenation of records in key order followed by a 4-byte
CRC32 checksum.  Decoding verifies the checksum and raises
:class:`CorruptionError` on mismatch, which the failure-injection tests rely
on.  The same seal — ``payload + >I crc32`` — closes the other sealed images
on media, NVMe index checkpoints and LSM MANIFEST snapshots:
:func:`seal_block` writes it and :func:`verify_block` is its one verifier.

Every reader and all background work move an **entry** per record,
``(key, seqno, flags, raw)`` with ``raw`` its on-media bytes
(:func:`entry_at`), and a block is built as a join of raws
(:func:`seal_block`).  A value is sliced out of an entry (:func:`value_of`)
only where one is handed out: a scan's returned rows, a point read's hit.
A :class:`Record` (:func:`record_of`) is built only where an API returns one.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional

from repro.common.errors import CorruptionError
from repro.common.records import RECORD_HEADER_SIZE, Record

_HEADER = struct.Struct(">QBHI")
assert _HEADER.size == RECORD_HEADER_SIZE
_CRC = struct.Struct(">I")
CHECKSUM_SIZE = 4
_FLAG_TOMBSTONE = 0x01

#: ``(key, seqno, flags, raw)``: one record as background work moves it.
Entry = tuple[bytes, int, int, bytes]


def encode_record(rec: Record) -> bytes:
    """Serialize one record: header (seqno, flags, sizes) + key + value."""
    flags = _FLAG_TOMBSTONE if rec.deleted else 0
    return (
        _HEADER.pack(rec.seqno, flags, len(rec.key), len(rec.value))
        + rec.key
        + rec.value
    )


def entry_of(rec: Record) -> Entry:
    """``rec`` encoded once, where a write enters background work."""
    raw = encode_record(rec)
    return rec.key, rec.seqno, raw[8], raw


def as_entries(items: list) -> list[Entry]:
    """A batch as entries: a batch of records is encoded once here."""
    if items and type(items[0]) is not tuple:
        return [entry_of(rec) for rec in items]
    return items


def value_of(entry: Entry) -> bytes:
    """The value an entry encodes, sliced out of its raw bytes."""
    return entry[3][RECORD_HEADER_SIZE + len(entry[0]) :]


def record_of(entry: Entry) -> Record:
    """The :class:`Record` an entry encodes: what a point read's ``get``
    returns and WAL replay re-applies."""
    return Record(entry[0], value_of(entry), entry[1], bool(entry[2] & 1))


def decode_one(data: bytes, offset: int = 0) -> Record:
    """``record_of(entry_at(data, offset))``: no reader calls it; the name
    stays because ``perfbench/layers.py`` times the codec through it."""
    return record_of(entry_at(data, offset))


def entry_at(data: bytes, offset: int = 0) -> Entry:
    """The record at ``offset`` as an entry, sliced, not decoded: the one
    single-record parser, header and body bounds-checked."""
    end = len(data)
    body = offset + _HEADER.size
    if body > end:
        raise CorruptionError(f"truncated record header at offset {offset}")
    seqno, flags, klen, vlen = _HEADER.unpack_from(data, offset)
    stop = body + klen + vlen
    if stop > end:
        raise CorruptionError(f"truncated record body at offset {body}")
    return data[body : body + klen], seqno, flags, data[offset:stop]


def find_record(payload: bytes, key: bytes) -> tuple[int, Optional[Record]]:
    """Walk record headers (each bounds-checked) to the first record whose
    key is >= ``key``.  Returns its offset (``len(payload)`` when every key
    is smaller) and, when its key is ``key``, the record — the only one
    decoded."""
    unpack_from = _HEADER.unpack_from
    hsize = _HEADER.size
    pos = 0
    end = len(payload)
    while pos < end:
        body = pos + hsize
        if body > end:
            raise CorruptionError(f"truncated record header at offset {pos}")
        _, _, klen, vlen = unpack_from(payload, pos)
        stop = body + klen + vlen
        if stop > end:
            raise CorruptionError(f"truncated record body at offset {body}")
        found = payload[body : body + klen]
        if found >= key:
            return pos, (record_of(entry_at(payload, pos)) if found == key else None)
        pos = stop
    return pos, None


def decode_prefix(data: bytes) -> tuple[list[Record], int, bool]:
    """Decode the longest clean prefix of back-to-back records, stopping
    without raising at the first truncated or implausible one (a torn WAL
    tail).  Returns ``(records, bytes_consumed, truncated)``, ``truncated``
    set when bytes past ``bytes_consumed`` were dropped."""
    records: list[Record] = []
    pos = 0
    while pos < len(data):
        try:
            entry = entry_at(data, pos)
        except CorruptionError:
            return records, pos, True
        if entry[2] & ~_FLAG_TOMBSTONE:
            return records, pos, True
        records.append(record_of(entry))
        pos += len(entry[3])
    return records, pos, False


def seal_block(payload: bytes) -> bytes:
    """A sealed image (data block, checkpoint, manifest): ``payload`` + its
    CRC32 footer."""
    return payload + _CRC.pack(zlib.crc32(payload))


def verify_block(block: bytes, what: str = "block") -> bytes:
    """Check a sealed image's CRC32 footer and return the payload without
    it; ``what`` names the image in the :class:`CorruptionError`."""
    if len(block) < CHECKSUM_SIZE:
        raise CorruptionError(f"{what} shorter than its checksum")
    payload, footer = block[:-CHECKSUM_SIZE], block[-CHECKSUM_SIZE:]
    (expected,) = _CRC.unpack(footer)
    actual = zlib.crc32(payload)
    if actual != expected:
        raise CorruptionError(
            f"{what} checksum mismatch: stored={expected:#x} computed={actual:#x}"
        )
    return payload


def payload_entries(payload: bytes, rows: Optional[list[int]] = None) -> list[tuple]:
    """Every record of a block payload as an entry — the one whole-payload
    walk; a truncated header or body raises before anything is returned.
    With ``rows``, one per record, each entry carries its row as a fifth
    field (a classic SSTable's digest rows)."""
    entries: list[tuple] = []
    append = entries.append
    unpack_from = _HEADER.unpack_from
    hsize = _HEADER.size
    pos = 0
    end = len(payload)
    i = 0
    while pos < end:
        if pos + hsize > end:
            raise CorruptionError(f"truncated record header at offset {pos}")
        seqno, flags, klen, vlen = unpack_from(payload, pos)
        body = pos + hsize
        stop = body + klen + vlen
        if stop > end:
            raise CorruptionError(f"truncated record body at offset {body}")
        key = payload[body : body + klen]
        raw = payload[pos:stop]
        append(
            (key, seqno, flags, raw) if rows is None
            else (key, seqno, flags, raw, rows[i])
        )
        i += 1
        pos = stop
    return entries

