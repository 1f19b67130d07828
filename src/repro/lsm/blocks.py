"""On-media encoding of records and data blocks.

Format of one record::

    [seqno: 8B big-endian][flags: 1B][key_len: 2B][value_len: 4B][key][value]

Flags bit 0 marks a tombstone (deletions are out-of-band of the value).

A data block is a concatenation of records in key order followed by a 4-byte
CRC32 checksum.  Decoding verifies the checksum and raises
:class:`CorruptionError` on mismatch, which the failure-injection tests rely
on.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable, Optional

from repro.common.errors import CorruptionError
from repro.common.records import RECORD_HEADER_SIZE, Record

_HEADER = struct.Struct(">QBHI")
assert _HEADER.size == RECORD_HEADER_SIZE
CHECKSUM_SIZE = 4
_FLAG_TOMBSTONE = 0x01


def encode_record(rec: Record) -> bytes:
    """Serialize one record: header (seqno, flags, sizes) + key + value."""
    flags = _FLAG_TOMBSTONE if rec.deleted else 0
    return (
        _HEADER.pack(rec.seqno, flags, len(rec.key), len(rec.value))
        + rec.key
        + rec.value
    )


def decode_one(data: bytes, offset: int = 0) -> Record:
    """Decode the one record starting at ``offset`` — what an index that
    stores record offsets (NVMe slot locations, semi-SSTable index
    entries) reads through.  Header and body are bounds-checked."""
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


def find_record(payload: bytes, key: bytes) -> tuple[int, Optional[Record]]:
    """Walk record headers to the first record whose key is >= ``key``.

    Returns that record's offset (``len(payload)`` when every key is
    smaller) and, when its key is ``key``, the record — the only one
    decoded.  Every header walked is bounds-checked as in :func:`decode_one`.
    """
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
    """Decode the longest clean prefix of back-to-back records.

    Unlike :func:`decode_payload`, a truncated or structurally implausible
    record does not raise: decoding stops at the first bad record and the
    prefix decoded so far is returned.  This is what a torn WAL tail looks
    like after a crash — every record before the tear is intact, the tear
    itself is garbage.

    Returns ``(records, bytes_consumed, truncated)`` where ``truncated`` is
    True when trailing bytes past ``bytes_consumed`` were dropped.
    """
    records: list[Record] = []
    pos = 0
    end = len(data)
    while pos < end:
        if pos + _HEADER.size > end:
            return records, pos, True
        seqno, flags, klen, vlen = _HEADER.unpack_from(data, pos)
        body = pos + _HEADER.size
        if flags & ~_FLAG_TOMBSTONE or body + klen + vlen > end:
            return records, pos, True
        key = data[body : body + klen]
        value = data[body + klen : body + klen + vlen]
        records.append(
            Record(key, value, seqno, deleted=bool(flags & _FLAG_TOMBSTONE))
        )
        pos = body + klen + vlen
    return records, pos, False


def encode_block(records: Iterable[Record]) -> bytes:
    """Encode records into a checksummed data block."""
    payload = b"".join(encode_record(r) for r in records)
    return payload + struct.pack(">I", zlib.crc32(payload))


def verify_block(block: bytes) -> bytes:
    """Check a data block's CRC32 footer and return the payload without it."""
    if len(block) < CHECKSUM_SIZE:
        raise CorruptionError("block shorter than its checksum")
    payload, footer = block[:-CHECKSUM_SIZE], block[-CHECKSUM_SIZE:]
    (expected,) = struct.unpack(">I", footer)
    actual = zlib.crc32(payload)
    if actual != expected:
        raise CorruptionError(
            f"block checksum mismatch: stored={expected:#x} computed={actual:#x}"
        )
    return payload


def decode_block(block: bytes) -> list[Record]:
    """Decode a checksummed data block, verifying integrity."""
    return decode_payload(verify_block(block))


def decode_payload(payload: bytes) -> list[Record]:
    """Decode every record of a block payload (checksum already stripped);
    a truncated header or body raises :class:`CorruptionError`."""
    records: list[Record] = []
    append = records.append
    unpack_from = _HEADER.unpack_from
    hsize = _HEADER.size
    pos = 0
    end = len(payload)
    while pos < end:
        if pos + hsize > end:
            raise CorruptionError(f"truncated record header at offset {pos}")
        seqno, flags, klen, vlen = unpack_from(payload, pos)
        body = pos + hsize
        pos = body + klen + vlen
        if pos > end:
            raise CorruptionError(f"truncated record body at offset {body}")
        append(
            Record(
                payload[body : body + klen],
                payload[body + klen : pos],
                seqno,
                deleted=bool(flags & _FLAG_TOMBSTONE),
            )
        )
    return records
