"""LRU caches.

Two flavours are used by the engines:

* :class:`LRUCache` — page-granularity DRAM cache shared by all partitions
  (the paper's 64 MB page LRU).  Capacity is measured in bytes; each entry
  carries an explicit charge.
* :class:`ObjectCache` — the in-memory staging cache for promoted hot
  objects (§3.5), which flushes evicted entries to the hot zone via a
  caller-supplied spill callback.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional


class LRUCache:
    """A byte-budgeted LRU map.

    ``get`` refreshes recency; ``put`` evicts least-recently-used entries
    until the new entry fits.  Hit/miss counters feed the benchmark harness.

    Built on a plain dict (insertion-ordered): recency refresh is a
    delete-and-reinsert, eviction pops ``next(iter(dict))``.  Plain dicts
    beat :class:`collections.OrderedDict` on this workload — the get/put
    churn path is one of the hottest loops in the simulator (every cached
    page and block read lands here).
    """

    __slots__ = (
        "capacity_bytes", "_entries", "_used", "hits", "misses", "evictions"
    )

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._entries: dict[Hashable, tuple[Any, int]] = {}
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._used

    def get(self, key: Hashable, default: Any = None) -> Any:
        entries = self._entries
        entry = entries.get(key)
        if entry is None:
            self.misses += 1
            return default
        # Delete-and-reinsert moves the key to the dict's (insertion-)end,
        # i.e. marks it most recently used.
        del entries[key]
        entries[key] = entry
        self.hits += 1
        return entry[0]

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Lookup without touching recency or hit counters."""
        entry = self._entries.get(key)
        return default if entry is None else entry[0]

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def put(self, key: Hashable, value: Any, charge: int = 1) -> None:
        entries = self._entries
        old = entries.pop(key, None)
        used = self._used
        if old is not None:
            used -= old[1]
        capacity = self.capacity_bytes
        if charge > capacity:
            # Entry can never fit; treat as uncacheable.
            self._used = used
            return
        evicted = 0
        while used + charge > capacity and entries:
            victim = next(iter(entries))
            used -= entries.pop(victim)[1]
            evicted += 1
        if evicted:
            self.evictions += evicted
        entries[key] = (value, charge)
        self._used = used + charge

    def invalidate(self, key: Hashable) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._used -= entry[1]
        return True

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ObjectCache:
    """A count-budgeted LRU of promoted objects with a spill callback.

    When an entry is evicted, ``on_evict(key, value)`` is invoked — HyperDB
    uses this to asynchronously flush promoted objects into the hot zone.
    """

    def __init__(
        self,
        capacity: int,
        on_evict: Optional[Callable[[Hashable, Any], None]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._on_evict = on_evict

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        if key not in self._entries:
            return default
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key: Hashable, value: Any) -> None:
        self._entries.pop(key, None)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            old_key, old_value = self._entries.popitem(last=False)
            if self._on_evict is not None:
                self._on_evict(old_key, old_value)

    def pop(self, key: Hashable, default: Any = None) -> Any:
        return self._entries.pop(key, default)

    def drain(self) -> list[tuple[Hashable, Any]]:
        """Evict everything (invoking the spill callback) and return entries.

        Each entry is popped *before* its spill callback runs, so a callback
        failure mid-drain leaves already-flushed entries out of the cache and
        a retry cannot double-spill them.
        """
        out: list[tuple[Hashable, Any]] = []
        while self._entries:
            key, value = self._entries.popitem(last=False)
            out.append((key, value))
            if self._on_evict is not None:
                self._on_evict(key, value)
        return out
