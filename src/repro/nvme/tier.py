"""The performance tier: partitions assembled over one NVMe device."""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from repro.common.errors import ConfigError, ReproError
from repro.common.keys import KeyRange, decode_key, encode_key
from repro.common.records import Record
from repro.nvme.config import NVMeConfig
from repro.nvme.pagestore import PageStore
from repro.nvme.partition import Partition
from repro.simssd.device import SimDevice
from repro.simssd.traffic import TrafficKind


class PerformanceTier:
    """Range-partitioned, zone-based NVMe object store."""

    def __init__(
        self,
        device: SimDevice,
        key_space: KeyRange,
        config: Optional[NVMeConfig] = None,
        cache=None,
    ) -> None:
        if key_space.hi is None:
            raise ConfigError("key space must be bounded")
        self.device = device
        self.key_space = key_space
        self.config = config or NVMeConfig()
        self.cache = cache
        self.page_store = PageStore(device, cache=cache)

        n = self.config.num_partitions
        # A small device-level reserve absorbs transient allocations
        # (zone resettles, hot-zone spill) without hitting raw capacity.
        budget = int(device.profile.num_pages * 0.99) // n
        lo = decode_key(key_space.lo)
        hi = decode_key(key_space.hi)
        step = (hi - lo) / n
        self.partitions: list[Partition] = []
        self._bounds: list[bytes] = []
        for i in range(n):
            plo = key_space.lo if i == 0 else encode_key(lo + int(i * step))
            phi = encode_key(lo + int((i + 1) * step)) if i + 1 < n else key_space.hi
            part = Partition(
                partition_id=i,
                key_range=KeyRange(plo, phi),
                page_store=self.page_store,
                config=self.config,
                page_budget=budget,
                cache=cache,
            )
            self.partitions.append(part)
            self._bounds.append(plo)

    # ------------------------------------------------------------ routing

    def partition_for_key(self, key: bytes) -> Partition:
        """Route a key to its range partition (raises outside the key space)."""
        if not self.key_space.contains(key):
            raise ReproError(f"key {key!r} outside key space")
        idx = bisect_right(self._bounds, key) - 1
        return self.partitions[idx]

    # ----------------------------------------------------------------- ops

    def put(self, rec: Record, kind: TrafficKind = TrafficKind.FOREGROUND) -> float:
        return self.partition_for_key(rec.key).put(rec, kind)

    def get(
        self, key: bytes, kind: TrafficKind = TrafficKind.FOREGROUND
    ) -> tuple[Optional[Record], float]:
        return self.partition_for_key(key).get(key, kind)

    def contains(self, key: bytes) -> bool:
        return self.partition_for_key(key).contains(key)

    # ------------------------------------------------------------ metrics

    def object_count(self) -> int:
        return sum(p.object_count() for p in self.partitions)

    def used_pages(self) -> int:
        return sum(p.used_pages for p in self.partitions)

    def fill_fraction(self) -> float:
        total_budget = sum(p.page_budget for p in self.partitions)
        return self.used_pages() / total_budget if total_budget else 1.0

    def partitions_over_watermark(self) -> list[Partition]:
        return [p for p in self.partitions if p.over_high_watermark()]
