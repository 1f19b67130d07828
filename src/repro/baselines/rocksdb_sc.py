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

from repro.baselines.rocksdb import RocksDBStore
from repro.common.cache import LRUCache
from repro.lsm.lsmtree import DbPath
from repro.simssd.device import SimDevice
from repro.simssd.fs import SimFilesystem
from repro.simssd.traffic import TrafficKind

#: Share of the NVMe device the secondary block cache may fill.
ADMIT_FRACTION = 0.95


class SecondaryBlockCache:
    """DRAM LRU in front of an NVMe-backed block cache.

    Implements the two calls the SSTable read path makes of its cache
    (``get`` / ``put``); SSTable blocks are immutable, so nothing
    invalidates.  The NVMe layer charges device I/O: reads on hit, writes
    on admission, and occupies device capacity.
    """

    def __init__(
        self,
        device: SimDevice,
        dram_bytes: int,
    ) -> None:
        self.device = device
        self.dram = LRUCache(dram_bytes)
        budget = int(device.capacity_bytes * ADMIT_FRACTION)
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


class RocksDBSecondaryCacheStore(RocksDBStore):
    """The secondary-cache baseline: the whole tree on SATA, NVMe behind
    the DRAM block cache."""

    name = "rocksdb-sc"

    def _block_cache(self, dram_cache_bytes: int) -> SecondaryBlockCache:
        return SecondaryBlockCache(self.nvme_device, dram_cache_bytes)

    def _db_paths(self) -> list[DbPath]:
        return [DbPath(SimFilesystem(self.sata_device), target_bytes=1 << 62)]

    def get(self, key: bytes):
        self.cache.take_service()
        value, service = self.tree.get(key)
        return value, service + self.cache.take_service()
