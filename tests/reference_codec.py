"""Record-at-a-time codec helpers that only tests use.

``src/`` moves entries — ``(key, seqno, flags, raw)`` — through every
background path and builds a block as a join of their bytes.  These helpers
work on :class:`Record` lists instead, as the engine once did: the tests use
them to write fixtures and as the reference the entry paths must match.
"""

from __future__ import annotations

import struct
import zlib

from repro.common.records import Record
from repro.lsm.blocks import decode_payload, encode_record, entry_of, verify_block
from repro.lsm.sstable import DEFAULT_BLOCK_SIZE, SSTable, SSTableBuilder
from repro.simssd.fs import SimFilesystem
from repro.simssd.traffic import TrafficKind


def encode_block(records) -> bytes:
    """Encode each record, join them and add the CRC32 footer."""
    payload = b"".join(encode_record(r) for r in records)
    return payload + struct.pack(">I", zlib.crc32(payload))


def decode_block(block: bytes) -> list[Record]:
    """Verify a block's CRC and decode every record it holds."""
    return decode_payload(verify_block(block))


def build_sstable(
    fs: SimFilesystem,
    table_id: int,
    records,
    block_size: int = DEFAULT_BLOCK_SIZE,
    write_kind: TrafficKind = TrafficKind.FLUSH,
) -> SSTable:
    """Build one table from an already-sorted record list."""
    builder = SSTableBuilder(fs, table_id, block_size, write_kind)
    for rec in records:
        builder.add(entry_of(rec))
    return builder.finish()
