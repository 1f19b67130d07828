"""Standard bloom filter over a packed bit array.

Used in two places:

* SSTable metadata blocks, for fast point-lookup screening.
* The cascading discriminator (§3.3), where each sealed filter represents an
  access window and membership means "accessed within that window".

Hash positions are derived with double hashing (Kirsch–Mitzenmacher), which
gives ``k`` independent-enough probes from two base hashes of the key: the
two little-endian halves of its 16-byte blake2b digest.  The combined hash
wraps at 64 bits (as a C implementation would) so the scalar probes and the
vectorized placement agree bit for bit.

Each key is hashed once per engine: the engine owns a :class:`KeyHashes`
memo and hands it to every filter it builds or probes.  Without one, a
filter hashes the keys it is given.  The module keeps no state of its own,
so two engines built in one process hash exactly the same number of times.
A key is looked up in the memo only where no row is at hand: a classic
SSTable keeps its keys' rows, and a compaction places its outputs' blooms
from its inputs' rows (:meth:`KeyHashes.pairs`) instead of looking each
surviving key up again.

The bit array is a ``bytearray``: scalar probes index it with plain-int
arithmetic (much cheaper than numpy scalar indexing on this path), while
every insert goes through :meth:`BloomFilter.add_pairs`, which places a
whole batch's bits as one packed vector.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Optional, Sequence

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Bits per key of every table's bloom, classic SSTable and semi-SSTable
#: alike: the paper's 10 bits/key, a <1 % false-positive rate.
TABLE_BITS_PER_KEY = 10

_PAIR = struct.Struct("<QQ")
#: A digest's base hashes ``(h1, h2)``: its two little-endian 64-bit halves.
hash_pair = _PAIR.unpack


def key_digest(key: bytes) -> bytes:
    """The 16-byte digest whose halves are ``key``'s base hashes."""
    return hashlib.blake2b(key, digest_size=16).digest()


class KeyHashes(dict):
    """An engine's memo of key digests: ``memo[key]`` is the key's row in
    :attr:`digests`, hashed on the key's first lookup only.

    Uncapped: it holds one row per distinct key the engine has filtered or
    tracked, and lives exactly as long as the engine that owns it.  Rows
    rather than one ``bytes`` object per digest keep it at about 100 bytes
    a key: a row number and 16 bytes of one shared column.  A row stays
    valid for the memo's lifetime, so a holder of rows (an SSTable, for
    its keys) reads its pairs through :meth:`pairs` with no lookup.
    """

    __slots__ = ("digests",)

    def __init__(self) -> None:
        super().__init__()
        #: Row ``r`` is bytes ``16r .. 16r + 16``: the digest of the key
        #: whose value is ``r``.
        self.digests = bytearray()

    def __missing__(self, key: bytes) -> int:
        row = self[key] = len(self)
        self.digests += key_digest(key)
        return row

    def pair(self, key: bytes) -> tuple[int, int]:
        """``key``'s base hashes."""
        return _PAIR.unpack_from(self.digests, self[key] << 4)

    def pairs(self, rows) -> np.ndarray:
        """The base hashes of ``rows`` as an ``(n, 2)`` uint64 array."""
        return np.frombuffer(self.digests, "<u8").reshape(-1, 2)[rows]


def hash_many(
    keys: Sequence[bytes], key_hashes: Optional[KeyHashes] = None
) -> np.ndarray:
    """Base-hash pairs for a batch of keys as an ``(n, 2)`` uint64 array.

    Hash once, probe any number of filters via
    :meth:`BloomFilter.contains_many`, or insert them all with
    :meth:`BloomFilter.add_pairs`.  blake2b itself stays scalar (it is not
    vectorizable); through the engine's memo a key already seen costs one
    dict lookup, and the pairs are gathered from its digest column in one
    step.  Without a memo every key is hashed.
    """
    memo = KeyHashes() if key_hashes is None else key_hashes
    rows = np.fromiter(map(memo.__getitem__, keys), np.intp, len(keys))
    return memo.pairs(rows)


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
        self.add_hashed(*hash_pair(key_digest(key)))

    def add_hashed(self, h1: int, h2: int) -> None:
        """Insert by base hashes, one probe at a time: the scalar reference
        :meth:`add_pairs` places identical bits to."""
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

    def add_pairs(self, hashes: np.ndarray) -> None:
        """Insert a batch of keys by their base hashes (:func:`hash_many`)
        in one placement.

        Every probe position of the batch is marked in one boolean vector,
        packed little-endian into bytes and OR'd into the bit array, so
        duplicates and bits already set need no special case.
        """
        if len(hashes):
            hit = np.zeros(len(self._bits) * 8, dtype=bool)
            hit[self._positions(hashes)] = True
            view = np.frombuffer(self._bits, dtype=np.uint8)
            view |= np.packbits(hit, bitorder="little")
        self._count += len(hashes)

    def _positions(self, hashes: np.ndarray) -> np.ndarray:
        """The ``(n, k)`` probe positions ``(h1 + i*h2) mod 2^64 mod m``:
        the same sequence the scalar loops walk."""
        i = np.arange(self.num_hashes, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return (hashes[:, 0:1] + i[None, :] * hashes[:, 1:2]) % np.uint64(
                self.num_bits
            )

    def __contains__(self, key: bytes) -> bool:
        return self.contains_hashed(*hash_pair(key_digest(key)))

    def contains_hashed(self, h1: int, h2: int) -> bool:
        """Membership probe by base hashes (:data:`hash_pair`,
        :meth:`KeyHashes.pair`)."""
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
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(hashes)
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
    def for_keys(
        keys: list[bytes],
        bits_per_key: int = 10,
        key_hashes: Optional[KeyHashes] = None,
    ) -> "BloomFilter":
        """Build a filter sized for and populated with ``keys``, hashing
        through ``key_hashes`` when the caller has one."""
        bf = BloomFilter(max(1, len(keys)), bits_per_key)
        bf.add_pairs(hash_many(keys, key_hashes))
        return bf

    # ------------------------------------------------------- serialization

    def to_bytes(self) -> bytes:
        """Serialize the filter (parameters + bit array) for a manifest."""
        return (
            struct.pack(">QQI", self.capacity, self._count, self.bits_per_key)
            + bytes(self._bits)
        )

    @staticmethod
    def from_bytes(data: bytes) -> "BloomFilter":
        """Rebuild a filter serialized by :meth:`to_bytes`."""
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
