"""The cascading discriminator (paper §3.3, Fig. 6b).

A chain of standard bloom filters:

* one **open** filter absorbs every access; each insert counts toward its
  capacity;
* when full, the filter is **sealed** and appended to a FIFO of at most
  ``max_filters`` sealed filters (the oldest is evicted);
* an object is **hot** when it appears in at least ``hot_threshold``
  *consecutive* sealed filters, scanning from the newest backwards — i.e.
  its access interval stayed below one window for several windows in a row.

The paper's configuration: 10 bits per object (<1% false positives), up to
four sealed filters, hot when present in at least three.

Keys are hashed through the owning engine's :class:`KeyHashes` memo
(HyperDB hands one to every partition's tracker; a discriminator built
without one keeps its own), so a key costs one blake2b per engine however
many windows, trackers and tracker rebuilds see it.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.common.bloom import BloomFilter, KeyHashes, hash_many


class CascadingDiscriminator:
    """Windowed access-interval detector over bloom filters."""

    def __init__(
        self,
        window_capacity: int,
        max_filters: int = 4,
        hot_threshold: int = 3,
        bits_per_key: int = 10,
        key_hashes: Optional[KeyHashes] = None,
    ) -> None:
        if window_capacity <= 0:
            raise ValueError(f"window capacity must be positive, got {window_capacity}")
        if not 1 <= hot_threshold <= max_filters:
            raise ValueError(
                f"hot_threshold ({hot_threshold}) must be in [1, max_filters"
                f"={max_filters}]"
            )
        self.window_capacity = window_capacity
        self.max_filters = max_filters
        self.hot_threshold = hot_threshold
        self.bits_per_key = bits_per_key
        self._key_hashes = KeyHashes() if key_hashes is None else key_hashes
        self._open = BloomFilter(window_capacity, bits_per_key)
        self._sealed: deque[BloomFilter] = deque()  # newest at the right
        #: Memo rows of the open window's accesses, one per access.  The
        #: open window is never probed (``is_hot`` scans sealed filters
        #: only), so its bits are placed in one batch when it seals.
        self._pending: list[int] = []
        self.accesses = 0
        self.windows_sealed = 0

    def access(self, key: bytes) -> None:
        """Record one read or update of ``key``."""
        pending = self._pending
        pending.append(self._key_hashes[key])
        self.accesses += 1
        if len(pending) >= self.window_capacity:
            self._seal()

    def _seal(self) -> None:
        self._open.add_pairs(self._key_hashes.pairs(self._pending))
        self._pending = []
        self._sealed.append(self._open)
        self.windows_sealed += 1
        if len(self._sealed) > self.max_filters:
            self._sealed.popleft()
        self._open = BloomFilter(self.window_capacity, self.bits_per_key)

    def is_hot(self, key: bytes) -> bool:
        """Whether ``key`` was seen in >= ``hot_threshold`` consecutive
        sealed windows (newest backwards)."""
        if len(self._sealed) < self.hot_threshold:
            return False
        h1, h2 = self._key_hashes.pair(key)  # hash once, probe the whole chain
        run = 0
        best = 0
        for bf in reversed(self._sealed):
            if bf.contains_hashed(h1, h2):
                run += 1
                best = max(best, run)
            else:
                run = 0
        return best >= self.hot_threshold

    def is_hot_many(self, keys: "list[bytes]") -> "np.ndarray":
        """Vectorized :meth:`is_hot` over a key batch.

        Hashes the batch once (:func:`hash_many`, through the memo), probes
        every sealed filter with :meth:`BloomFilter.contains_many`, and
        computes the longest consecutive-membership run newest-backwards
        columnar-wise.
        ``out[i] == is_hot(keys[i])`` exactly — only legal while no
        ``access`` lands between the probe and the verdicts' use (the
        migration collector holds that invariant: demotion never records
        accesses).
        """
        n = len(keys)
        if n == 0 or len(self._sealed) < self.hot_threshold:
            return np.zeros(n, dtype=bool)
        hashes = hash_many(keys, self._key_hashes)
        run = np.zeros(n, dtype=np.int64)
        best = np.zeros(n, dtype=np.int64)
        for bf in reversed(self._sealed):
            member = bf.contains_many(hashes)
            run = np.where(member, run + 1, 0)
            best = np.maximum(best, run)
        return best >= self.hot_threshold

    @property
    def num_sealed(self) -> int:
        return len(self._sealed)

    @property
    def memory_bytes(self) -> int:
        """Total filter memory — the tracker's footprint budget."""
        return self._open.size_bytes + sum(bf.size_bytes for bf in self._sealed)
