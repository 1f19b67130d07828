"""On-media encoding of records and data blocks.

Format of one record::

    [seqno: 8B big-endian][flags: 1B][key_len: 2B][value_len: 4B][key][value]

Flags bit 0 marks a tombstone (deletions are out-of-band of the value).

A data block is a concatenation of records in key order followed by a 4-byte
CRC32 checksum.  Decoding verifies the checksum and raises
:class:`CorruptionError` on mismatch, which the failure-injection tests rely
on.

Background work moves an **entry** per record, ``(key, seqno, flags, raw)``
with ``raw`` its on-media bytes, and builds a block as a join of raws
(:func:`seal_block`).  A :class:`Record` is built only to return a value.
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


def record_of(entry: Entry) -> Record:
    """The :class:`Record` an entry encodes (a requeue puts it back)."""
    key, seqno, flags, raw = entry
    return Record(key, raw[RECORD_HEADER_SIZE + len(key) :], seqno, bool(flags & 1))


def decode_one(data: bytes, offset: int = 0) -> Record:
    """Decode the one record starting at ``offset`` — what a read that
    returns a value goes through (NVMe slot reads, semi-SSTable gets).
    Header and body are bounds-checked."""
    end = len(data)
    body = offset + _HEADER.size
    if body > end:
        raise CorruptionError(f"truncated record header at offset {offset}")
    seqno, flags, klen, vlen = _HEADER.unpack_from(data, offset)
    stop = body + klen + vlen
    if stop > end:
        raise CorruptionError(f"truncated record body at offset {body}")
    return Record(
        data[body : body + klen],
        data[body + klen : stop],
        seqno,
        deleted=bool(flags & _FLAG_TOMBSTONE),
    )


def entry_at(data: bytes, offset: int = 0) -> Entry:
    """The record at ``offset`` as an entry, sliced, not decoded; bounds
    checked as in :func:`decode_one`."""
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
            return pos, (decode_one(payload, pos) if found == key else None)
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
    """A data block: ``payload`` (records in key order) + its CRC32 footer."""
    return payload + _CRC.pack(zlib.crc32(payload))


def verify_block(block: bytes) -> bytes:
    """Check a data block's CRC32 footer and return the payload without it."""
    if len(block) < CHECKSUM_SIZE:
        raise CorruptionError("block shorter than its checksum")
    payload, footer = block[:-CHECKSUM_SIZE], block[-CHECKSUM_SIZE:]
    (expected,) = _CRC.unpack(footer)
    actual = zlib.crc32(payload)
    if actual != expected:
        raise CorruptionError(
            f"block checksum mismatch: stored={expected:#x} computed={actual:#x}"
        )
    return payload


def payload_entries(payload: bytes) -> list[Entry]:
    """Every record of a block payload as an entry — the one whole-payload
    walk; a truncated header or body raises before anything is returned."""
    entries: list[Entry] = []
    append = entries.append
    unpack_from = _HEADER.unpack_from
    hsize = _HEADER.size
    pos = 0
    end = len(payload)
    while pos < end:
        if pos + hsize > end:
            raise CorruptionError(f"truncated record header at offset {pos}")
        seqno, flags, klen, vlen = unpack_from(payload, pos)
        body = pos + hsize
        stop = body + klen + vlen
        if stop > end:
            raise CorruptionError(f"truncated record body at offset {body}")
        append((payload[body : body + klen], seqno, flags, payload[pos:stop]))
        pos = stop
    return entries


def decode_payload(payload: bytes) -> list[Record]:
    """Decode every record of a block payload (scrub reads the medium)."""
    return [record_of(entry) for entry in payload_entries(payload)]
