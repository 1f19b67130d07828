"""Key-value record formats shared by both storage tiers.

A :class:`Record` is the unit stored in memtables, zone slots, and SSTable
data blocks.  HyperDB prefixes every on-media object with a timestamp, the
key size, and the value size (§3.2 of the paper); :meth:`Record.encoded_size`
accounts for that header so capacity and traffic numbers include metadata
bytes.

Deletions are marked out-of-band: a flags byte in the on-media header, not
a sentinel value — any byte string (including one that looks like a
marker) is a legal value.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Per-object header: 8B timestamp + 1B flags + 2B key size + 4B value size.
RECORD_HEADER_SIZE = 15


@dataclass(slots=True)
class Record:
    """A single key-value entry with its write timestamp.

    ``seqno`` is a monotonically increasing logical timestamp assigned by the
    engine at write time; newer records shadow older ones during merges.
    ``deleted`` marks a tombstone.
    """

    key: bytes
    value: bytes
    seqno: int = 0
    deleted: bool = False

    @property
    def is_tombstone(self) -> bool:
        return self.deleted

    @property
    def encoded_size(self) -> int:
        """Bytes this record occupies on media, including the object header."""
        return RECORD_HEADER_SIZE + len(self.key) + len(self.value)

    @staticmethod
    def tombstone(key: bytes, seqno: int = 0) -> "Record":
        return Record(key, b"", seqno, deleted=True)


def paired_columns(keys, values) -> tuple:
    """The two columns of a ``put_many`` as same-length sequences.

    Every batch write path pairs them with ``zip``, which would silently
    drop the longer column's tail; a mismatch raises before anything is
    written instead.
    """
    if not isinstance(keys, (list, tuple)):
        keys = list(keys)
    if not isinstance(values, (list, tuple)):
        values = list(values)
    if len(keys) != len(values):
        raise ValueError(
            f"put_many needs one value per key: got {len(keys)} keys "
            f"and {len(values)} values"
        )
    return keys, values
