"""RocksDB with NVMe as a secondary read cache (paper baseline "RocksDB-SC").

The whole LSM-tree lives on the SATA device; the NVMe device caches data
blocks evicted from the DRAM block cache.  A hit in the secondary cache
costs an NVMe read (much cheaper than the SATA read it replaces); an
admission costs an NVMe write.  The paper's §4.2 finding this baseline
reproduces: only workloads that re-read recently written data (YCSB-D)
benefit — everything else pays the admission-write overhead.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.common.cache import LRUCache
from repro.core.interface import KVStore
from repro.lsm.lsmtree import DbPath, LSMOptions, LSMTree
from repro.simssd.device import SimDevice
from repro.simssd.fs import SimFilesystem
from repro.simssd.traffic import TrafficKind


class SecondaryBlockCache:
    """DRAM LRU in front of an NVMe-backed block cache.

    Implements the same duck-typed interface the SSTable read path uses
    (``get`` / ``put`` / ``invalidate``).  The NVMe layer charges device
    I/O: reads on hit, writes on admission, and occupies device capacity.
    """

    def __init__(
        self,
        device: SimDevice,
        dram_bytes: int,
        nvme_bytes: Optional[int] = None,
        admit_fraction: float = 0.95,
    ) -> None:
        self.device = device
        self.dram = LRUCache(dram_bytes)
        budget = nvme_bytes if nvme_bytes is not None else int(
            device.capacity_bytes * admit_fraction
        )
        self.nvme_budget = budget
        self._budget_pages = max(1, budget // device.page_size)
        self._entries: OrderedDict = OrderedDict()  # key -> (value, charge, pages)
        self._used_pages = 0
        #: Service time charged by the most recent ``get`` call (the caller
        #: treats cache hits as free; SC hits are not).
        self.last_get_service = 0.0
        self.hits = 0
        self.misses = 0

    # -- LRUCache-compatible surface ------------------------------------

    def take_service(self) -> float:
        """Return and reset the NVMe service accumulated by recent gets."""
        s = self.last_get_service
        self.last_get_service = 0.0
        return s

    def get(self, key, default=None):
        value = self.dram.get(key)
        if value is not None:
            self.hits += 1
            return value
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return default
        value, charge, _pages = entry
        self._entries.move_to_end(key)
        # Secondary-cache hit: pay an NVMe read, refresh into DRAM.
        self.last_get_service += self.device.read_bytes_io(
            charge, TrafficKind.FOREGROUND, sequential=False
        )
        self.dram.put(key, value, charge)
        self.hits += 1
        return value

    def put(self, key, value, charge: int = 1) -> None:
        self.dram.put(key, value, charge)
        self._admit(key, value, charge)

    def _admit(self, key, value, charge: int) -> None:
        pages = -(-charge // self.device.page_size)
        if pages > self._budget_pages:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._used_pages -= old[2]
            self.device.trim(old[2])
        while self._used_pages + pages > self._budget_pages and self._entries:
            _, (_, _, old_pages) = self._entries.popitem(last=False)
            self._used_pages -= old_pages
            self.device.trim(old_pages)
        self.device.allocate(pages)
        self.device.write_pages(pages, TrafficKind.GC, sequential=False)
        self._entries[key] = (value, charge, pages)
        self._used_pages += pages


class RocksDBSecondaryCacheStore(KVStore):
    """The secondary-cache baseline."""

    name = "rocksdb-sc"

    def __init__(
        self,
        nvme_device: SimDevice,
        sata_device: SimDevice,
        options: Optional[LSMOptions] = None,
        dram_cache_bytes: int = 64 * 1024,
    ) -> None:
        self.nvme_device = nvme_device
        self.sata_device = sata_device
        self.sata_fs = SimFilesystem(sata_device)
        self.cache = SecondaryBlockCache(nvme_device, dram_cache_bytes)
        self.tree = LSMTree(
            [DbPath(self.sata_fs, target_bytes=1 << 62)],
            options or LSMOptions(),
            cache=self.cache,
        )

    def put(self, key: bytes, value: bytes) -> float:
        return self.tree.put(key, value)

    def get(self, key: bytes):
        self.cache.take_service()
        value, service = self.tree.get(key)
        return value, service + self.cache.take_service()

    def delete(self, key: bytes) -> float:
        return self.tree.delete(key)

    def scan(self, start: bytes, count: int):
        return self.tree.scan(start, count)

    def devices(self) -> dict[str, SimDevice]:
        return {"nvme": self.nvme_device, "sata": self.sata_device}

    def finalize(self) -> None:
        self.tree.flush()
