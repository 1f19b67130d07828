"""Per-partition hotness tracker.

Thin orchestration over the :class:`CascadingDiscriminator`: every client
read/update is recorded, and migration code asks :meth:`is_hot` when
deciding whether to demote an object or park it in the hot zone.

The window capacity is sized from the number of objects the partition's
NVMe share can hold (§3.3: "we set the threshold as the number of objects
that NVMe storage can store").  ``key_hashes`` is the owning engine's
digest memo; it outlives the tracker, which the partition rebuilds when it
re-sizes the window.
"""

from __future__ import annotations

from typing import Optional

from repro.common.bloom import KeyHashes
from repro.hotness.discriminator import CascadingDiscriminator


class HotnessTracker:
    """Tracks object popularity for one partition."""

    def __init__(
        self,
        partition_capacity_objects: int,
        max_filters: int = 4,
        hot_threshold: int = 3,
        bits_per_key: int = 10,
        key_hashes: Optional[KeyHashes] = None,
    ) -> None:
        self.discriminator = CascadingDiscriminator(
            window_capacity=max(1, partition_capacity_objects),
            max_filters=max_filters,
            hot_threshold=hot_threshold,
            bits_per_key=bits_per_key,
            key_hashes=key_hashes,
        )
        self.hot_hits = 0
        self.queries = 0

    def record_access(self, key: bytes) -> None:
        """Feed one client read/update into the discriminator."""
        self.discriminator.access(key)

    def is_hot(self, key: bytes) -> bool:
        """Whether the discriminator currently classifies ``key`` as hot."""
        self.queries += 1
        hot = self.discriminator.is_hot(key)
        if hot:
            self.hot_hits += 1
        return hot

    @property
    def memory_bytes(self) -> int:
        return self.discriminator.memory_bytes

    @property
    def accesses(self) -> int:
        return self.discriminator.accesses
