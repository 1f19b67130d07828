"""RocksDB-like baseline: a leveled LSM-tree spanning tiers via ``db_paths``.

Matches the paper's baseline configuration (§4.1): default leveled
compaction, asynchronous (group-commit) WAL, a shared DRAM block cache, and
the NVMe device holding as many top levels as its budget allows — with the
paper's §2.3 caveat that a level cannot span storage tiers, which caps how
much of the fast device the tree can actually use.
"""

from __future__ import annotations

from typing import Optional

from repro.common.cache import LRUCache
from repro.core.interface import KVStore
from repro.lsm.lsmtree import DbPath, LSMOptions, LSMTree
from repro.simssd.device import SimDevice
from repro.simssd.fs import SimFilesystem

#: Share of the NVMe device the tree's NVMe levels may fill.
NVME_BUDGET_FRACTION = 0.9


class RocksDBStore(KVStore):
    """The embedding-architecture baseline."""

    name = "rocksdb"

    def __init__(
        self,
        nvme_device: SimDevice,
        sata_device: SimDevice,
        options: Optional[LSMOptions] = None,
        dram_cache_bytes: int = 64 * 1024,
    ) -> None:
        self.nvme_device = nvme_device
        self.sata_device = sata_device
        self.cache = self._block_cache(dram_cache_bytes)
        self.tree = LSMTree(
            self._db_paths(), options or LSMOptions(), cache=self.cache
        )

    def _block_cache(self, dram_cache_bytes: int) -> LRUCache:
        return LRUCache(dram_cache_bytes)

    def _db_paths(self) -> list[DbPath]:
        nvme_budget = int(self.nvme_device.capacity_bytes * NVME_BUDGET_FRACTION)
        return [
            DbPath(SimFilesystem(self.nvme_device), target_bytes=nvme_budget),
            DbPath(SimFilesystem(self.sata_device), target_bytes=1 << 62),
        ]

    def put(self, key: bytes, value: bytes) -> float:
        return self.tree.put(key, value)

    def get(self, key: bytes):
        return self.tree.get(key)

    def delete(self, key: bytes) -> float:
        return self.tree.delete(key)

    def scan(self, start: bytes, count: int):
        return self.tree.scan(start, count)

    def devices(self) -> dict[str, SimDevice]:
        return {"nvme": self.nvme_device, "sata": self.sata_device}

    def finalize(self) -> None:
        self.tree.flush()
