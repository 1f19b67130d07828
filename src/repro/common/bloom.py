"""Standard bloom filter over a packed bit array.

Used in two places:

* SSTable metadata blocks, for fast point-lookup screening.
* The cascading discriminator (§3.3), where each sealed filter represents an
  access window and membership means "accessed within that window".

Hash positions are derived with double hashing (Kirsch–Mitzenmacher), which
gives ``k`` independent-enough probes from two base hashes of the key.  The
combined hash wraps at 64 bits (as a C implementation would) so the scalar
and vectorized paths place bits identically.

The bit array is a ``bytearray``: scalar probes index it with plain-int
arithmetic (much cheaper than numpy scalar indexing on this path), while
bulk inserts view it as a numpy array and scatter whole position matrices.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Sequence

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Memo for the (pure) key -> base-hash mapping.  Skewed workloads probe
# the same hot keys through every filter on every access; caching the
# blake2b digest is free correctness-wise and saves a hash per repeat.
# The one host-side memo kept on measurement (DESIGN.md §11 fork table).
_HASH_MEMO: dict[bytes, tuple[int, int]] = {}
_HASH_MEMO_MAX = 1 << 16


def _base_hashes(key: bytes) -> tuple[int, int]:
    h = _HASH_MEMO.get(key)
    if h is None:
        digest = hashlib.blake2b(key, digest_size=16).digest()
        h = (
            int.from_bytes(digest[:8], "little"),
            int.from_bytes(digest[8:], "little"),
        )
        if len(_HASH_MEMO) >= _HASH_MEMO_MAX:
            _HASH_MEMO.clear()
        _HASH_MEMO[key] = h
    return h

#: Public alias: callers holding one key that probes several filters can
#: hash once and use :meth:`BloomFilter.add_hashed` /
#: :meth:`BloomFilter.contains_hashed`.
base_hashes = _base_hashes


def hash_many(keys: Sequence[bytes]) -> np.ndarray:
    """Base-hash pairs for a batch of keys as an ``(n, 2)`` uint64 array.

    Hash once, probe any number of filters via
    :meth:`BloomFilter.contains_many` — the columnar analogue of
    :func:`base_hashes`.  blake2b itself stays scalar (it is not
    vectorizable), but the memo makes repeats cheap and downstream probes
    operate on the whole array.
    """
    return np.array(
        [_base_hashes(k) for k in keys], dtype=np.uint64
    ).reshape(len(keys), 2)


class BloomFilter:
    """A fixed-capacity bloom filter.

    Parameters
    ----------
    capacity:
        Number of insertions the filter is sized for.
    bits_per_key:
        Bits allocated per expected key.  The paper uses 10 bits/key for a
        <1% false-positive rate.
    """

    __slots__ = ("capacity", "bits_per_key", "num_bits", "num_hashes", "_bits", "_count")

    def __init__(self, capacity: int, bits_per_key: int = 10) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if bits_per_key <= 0:
            raise ValueError(f"bits_per_key must be positive, got {bits_per_key}")
        self.capacity = capacity
        self.bits_per_key = bits_per_key
        self.num_bits = max(64, capacity * bits_per_key)
        # Optimal hash count for the chosen bits/key ratio, clamped to [1, 30].
        self.num_hashes = min(30, max(1, round(bits_per_key * math.log(2))))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self._count = 0

    @property
    def count(self) -> int:
        """Number of insert calls so far (duplicates counted)."""
        return self._count

    @property
    def is_full(self) -> bool:
        """Whether the filter has absorbed its sized-for number of inserts."""
        return self._count >= self.capacity

    def add(self, key: bytes) -> None:
        self.add_hashed(*_base_hashes(key))

    def add_hashed(self, h1: int, h2: int) -> None:
        """Insert by precomputed base hashes (see :func:`base_hashes`).

        Lets callers that feed the same key to several filters — the
        cascading discriminator probes its whole chain per access — hash
        once instead of once per filter.
        """
        m = self.num_bits
        bits = self._bits
        # Incremental double hashing: x_i = (h1 + i*h2) mod 2^64, computed
        # by repeated addition (identical positions, no per-probe multiply).
        x = h1
        for _ in range(self.num_hashes):
            pos = x % m
            bits[pos >> 3] |= 1 << (pos & 7)
            x = (x + h2) & _MASK64
        self._count += 1

    def scatter_hashed(self, pairs: Sequence[tuple[int, int]]) -> None:
        """Set probe bits for precomputed base-hash pairs WITHOUT touching
        the insert count.

        For callers that defer bit placement (the cascading discriminator
        counts inserts per access but only needs the bits once the window
        seals).  Bit placement is identical to per-pair
        :meth:`add_hashed` — the vectorized ``(h1 + i*h2) mod 2^64`` math
        wraps exactly like the incremental scalar loop.
        """
        if not pairs:
            return
        hashes = np.asarray(pairs, dtype=np.uint64)
        i = np.arange(self.num_hashes, dtype=np.uint64)
        with np.errstate(over="ignore"):
            pos = (hashes[:, 0:1] + i[None, :] * hashes[:, 1:2]) % np.uint64(
                self.num_bits
            )
        byte_idx = (pos >> np.uint64(3)).astype(np.int64).ravel()
        masks = (
            np.left_shift(np.uint64(1), pos & np.uint64(7)).astype(np.uint8).ravel()
        )
        view = np.frombuffer(self._bits, dtype=np.uint8)
        np.bitwise_or.at(view, byte_idx, masks)

    def add_many(self, keys: Sequence[bytes] | Iterable[bytes]) -> None:
        """Insert many keys at once, scattering all probe bits vectorized."""
        pairs = [_base_hashes(k) for k in keys]
        self.scatter_hashed(pairs)
        self._count += len(pairs)

    def __contains__(self, key: bytes) -> bool:
        return self.contains_hashed(*_base_hashes(key))

    def contains_hashed(self, h1: int, h2: int) -> bool:
        """Membership probe by precomputed base hashes."""
        m = self.num_bits
        bits = self._bits
        x = h1
        for _ in range(self.num_hashes):
            pos = x % m
            if not (bits[pos >> 3] >> (pos & 7)) & 1:
                return False
            x = (x + h2) & _MASK64
        return True

    def contains_many(self, hashes: np.ndarray) -> np.ndarray:
        """Vectorized membership probe over :func:`hash_many` output.

        Returns a boolean array; ``out[i]`` equals
        ``contains_hashed(*hashes[i])`` — the probe positions are the same
        ``(h1 + i*h2) mod 2^64`` sequence the scalar loop walks (the scalar
        path short-circuits on the first clear bit, which only skips work,
        never changes the verdict).
        """
        n = len(hashes)
        if n == 0:
            return np.zeros(0, dtype=bool)
        i = np.arange(self.num_hashes, dtype=np.uint64)
        with np.errstate(over="ignore"):
            pos = (hashes[:, 0:1] + i[None, :] * hashes[:, 1:2]) % np.uint64(
                self.num_bits
            )
        view = np.frombuffer(self._bits, dtype=np.uint8)
        byte_idx = (pos >> np.uint64(3)).astype(np.int64)
        probed = (view[byte_idx] >> (pos & np.uint64(7)).astype(np.uint8)) & 1
        return probed.all(axis=1)

    def fill_ratio(self) -> float:
        """Fraction of bits set; a saturation diagnostic."""
        return int.from_bytes(self._bits, "little").bit_count() / self.num_bits

    @property
    def size_bytes(self) -> int:
        """Serialized size of the filter's bit array."""
        return len(self._bits)

    @staticmethod
    def for_keys(keys: list[bytes], bits_per_key: int = 10) -> "BloomFilter":
        """Build a filter sized for and populated with ``keys``."""
        bf = BloomFilter(max(1, len(keys)), bits_per_key)
        bf.add_many(keys)
        return bf

    # ------------------------------------------------------- serialization

    def to_bytes(self) -> bytes:
        """Serialize the filter (parameters + bit array) for a manifest."""
        import struct

        return (
            struct.pack(">QQI", self.capacity, self._count, self.bits_per_key)
            + bytes(self._bits)
        )

    @staticmethod
    def from_bytes(data: bytes) -> "BloomFilter":
        """Rebuild a filter serialized by :meth:`to_bytes`."""
        import struct

        capacity, count, bits_per_key = struct.unpack_from(">QQI", data, 0)
        bf = BloomFilter(capacity, bits_per_key)
        bits = bytearray(data[20:])
        if len(bits) != len(bf._bits):
            raise ValueError(
                f"bloom bit array length {len(bits)} != expected {len(bf._bits)}"
            )
        bf._bits = bits
        bf._count = count
        return bf
