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


class RocksDBStore(KVStore):
    """The embedding-architecture baseline."""

    name = "rocksdb"

    def __init__(
        self,
        nvme_device: SimDevice,
        sata_device: SimDevice,
        options: Optional[LSMOptions] = None,
        dram_cache_bytes: int = 64 * 1024,
        nvme_budget_fraction: float = 0.9,
    ) -> None:
        self.nvme_device = nvme_device
        self.sata_device = sata_device
        self.nvme_fs = SimFilesystem(nvme_device)
        self.sata_fs = SimFilesystem(sata_device)
        self.cache = LRUCache(dram_cache_bytes)
        nvme_budget = int(nvme_device.capacity_bytes * nvme_budget_fraction)
        self.tree = LSMTree(
            [
                DbPath(self.nvme_fs, target_bytes=nvme_budget),
                DbPath(self.sata_fs, target_bytes=1 << 62),
            ],
            options or LSMOptions(),
            cache=self.cache,
        )

    def put(self, key: bytes, value: bytes) -> float:
        return self.tree.put(key, value)

    def get(self, key: bytes):
        return self.tree.get(key)

    def delete(self, key: bytes) -> float:
        return self.tree.delete(key)

    def _busy_hook(self, busy_out):
        """Per-op busy-row snapshotter handed to the tree's fused loops."""
        nvme_tr = self.nvme_device.traffic
        sata_tr = self.sata_device.traffic
        append = busy_out.append
        return lambda: append((nvme_tr._busy_s, sata_tr._busy_s))

    def put_many(self, keys, values, busy_out=None, capture_errors=False):
        if capture_errors:
            return super().put_many(keys, values, busy_out, capture_errors)
        if busy_out is None:
            return self.tree.put_many(keys, values)
        return self.tree.put_many(keys, values, busy_hook=self._busy_hook(busy_out))

    def get_many(self, keys, busy_out=None, capture_errors=False):
        if capture_errors:
            return super().get_many(keys, busy_out, capture_errors)
        if busy_out is None:
            return self.tree.get_many(keys)
        return self.tree.get_many(keys, busy_hook=self._busy_hook(busy_out))

    def scan(self, start: bytes, count: int):
        return self.tree.scan(start, count)

    def devices(self) -> dict[str, SimDevice]:
        return {"nvme": self.nvme_device, "sata": self.sata_device}

    def finalize(self) -> None:
        self.tree.flush()
