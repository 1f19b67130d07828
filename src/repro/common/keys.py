"""Key encoding and key-range arithmetic.

Keys are arbitrary ``bytes`` throughout the engines.  The YCSB generator
produces integer record ids; :func:`encode_key` maps them to fixed-width
big-endian byte strings so that the byte-wise ordering used by memtables,
SSTables, and zone maps matches numeric ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Width of encoded integer keys.  The paper uses 8-byte keys.
KEY_WIDTH = 8


def encode_key(key_id: int, width: int = KEY_WIDTH) -> bytes:
    """Encode an integer key id as a fixed-width big-endian byte string.

    Big-endian fixed width preserves numeric order under lexicographic
    comparison, which every ordered structure in the library relies on.
    """
    if key_id < 0:
        raise ValueError(f"key ids must be non-negative, got {key_id}")
    return key_id.to_bytes(width, "big")


def encode_keys(key_ids, width: int = KEY_WIDTH) -> list[bytes]:
    """Vectorized :func:`encode_key` over a sequence of integer key ids.

    One big-endian cast and one ``tobytes`` replace per-id ``int.to_bytes``
    calls; each returned element is byte-identical to ``encode_key(kid)``.
    """
    if width != KEY_WIDTH:
        return [encode_key(int(kid), width) for kid in key_ids]
    arr = np.asarray(key_ids, dtype=np.int64)
    if arr.size == 0:
        return []
    if int(arr.min()) < 0:
        bad = int(arr[arr < 0][0])
        raise ValueError(f"key ids must be non-negative, got {bad}")
    buf = arr.astype(">u8").tobytes()
    return [buf[i : i + 8] for i in range(0, len(buf), 8)]


def decode_key(key: bytes) -> int:
    """Inverse of :func:`encode_key`."""
    return int.from_bytes(key, "big")


@dataclass(frozen=True, slots=True)
class KeyRange:
    """A half-open key interval ``[lo, hi)``.

    ``hi=None`` means unbounded above.  Ranges are used for zone key spans,
    SSTable spans, and compaction overlap computations.
    """

    lo: bytes
    hi: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.hi is not None and self.hi <= self.lo:
            raise ValueError(f"empty key range: lo={self.lo!r} hi={self.hi!r}")

    def contains(self, key: bytes) -> bool:
        return key >= self.lo and (self.hi is None or key < self.hi)


def ranges_overlap(
    lo_a: bytes, hi_a: Optional[bytes], lo_b: bytes, hi_b: Optional[bytes]
) -> bool:
    """Whether the half-open ranges ``[lo_a, hi_a)`` and ``[lo_b, hi_b)`` intersect."""
    if hi_a is not None and lo_b >= hi_a:
        return False
    if hi_b is not None and lo_a >= hi_b:
        return False
    return True
