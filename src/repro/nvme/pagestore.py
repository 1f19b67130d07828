"""Raw page allocation on the NVMe device.

Zone slot files address pages directly (KVell-style in-place updates don't
fit an append-only file abstraction), so the performance tier uses this thin
page allocator instead of :class:`repro.simssd.fs.SimFilesystem`.  Page
payloads are real bytes; reads and writes charge the device per page.
"""

from __future__ import annotations

from typing import Optional

from repro.common.cache import LRUCache
from repro.common.errors import PowerLossError, ReproError
from repro.simssd.device import SimDevice
from repro.simssd.traffic import TrafficKind


class PageStore:
    """Allocate, read, and write individual device pages."""

    def __init__(
        self, device: SimDevice, cache: Optional[LRUCache] = None
    ) -> None:
        self.device = device
        #: The DRAM page cache fronting this store (when the owner wires
        #: one in).  ``free`` must know about it: releasing a page without
        #: dropping its cached copy leaves dead bytes charged against the
        #: cache budget forever (page ids are never reused).
        self.cache = cache
        #: Plain attribute (device geometry is fixed): consulted on every
        #: slot write's bounds check and page rounding.
        self.page_size = device.page_size
        self._pages: dict[int, bytearray] = {}
        self._next_id = 0

    @property
    def allocated_pages(self) -> int:
        return len(self._pages)

    def allocate(self, count: int = 1) -> list[int]:
        """Reserve ``count`` fresh pages; raises CapacityError when full."""
        self.device.allocate(count)
        ids = []
        for _ in range(count):
            pid = self._next_id
            self._next_id += 1
            self._pages[pid] = bytearray(self.page_size)
            ids.append(pid)
        return ids

    def free(self, page_id: int) -> None:
        """Release a page back to the device (double frees are rejected)."""
        if page_id not in self._pages:
            raise ReproError(f"double free or unknown page {page_id}")
        del self._pages[page_id]
        if self.cache is not None:
            self.cache.invalidate(page_id)
        self.device.trim(1)

    @staticmethod
    def _splice(page: bytearray, offset: int, payload: bytes) -> None:
        end = offset + len(payload)
        if end > len(page):
            page.extend(b"\x00" * (end - len(page)))
        page[offset:end] = payload

    def write(
        self,
        page_id: int,
        offset: int,
        data: bytes,
        kind: TrafficKind,
        cache: Optional[LRUCache] = None,
        npages: int = 1,
    ) -> float:
        """Write ``data`` into a slot (an in-place update of ``npages``
        random pages).  Invalidates any cached copy.

        Oversized slots span continuation pages; their payload is stored in
        the head page's buffer and the I/O is charged for all ``npages``.

        Under fault injection the same torn-write / corruption semantics as
        :class:`repro.simssd.fs.SimFile` apply: a crashing write persists
        only a prefix, a transient failure beyond retries persists nothing,
        and a successful write may land with one flipped bit.
        """
        page = self._pages.get(page_id)
        if page is None:
            raise ReproError(f"write to unallocated page {page_id}")
        if offset < 0 or offset + len(data) > self.page_size * npages:
            raise ReproError(
                f"write [{offset}, {offset + len(data)}) exceeds "
                f"{npages} page(s)"
            )
        inj = self.device.injector
        try:
            service = self.device.write_pages(npages, kind, sequential=False)
        except PowerLossError as e:
            keep = inj.torn_prefix_len(len(data), e.torn_fraction)
            self._splice(page, offset, data[:keep])
            if cache is not None:
                cache.invalidate(page_id)
            raise
        self._splice(page, offset, data if inj is None else inj.corrupt_payload(data))
        if cache is not None:
            cache.invalidate(page_id)
        return service

    def read(
        self,
        page_id: int,
        kind: TrafficKind,
        cache: Optional[LRUCache] = None,
        npages: int = 1,
    ) -> tuple[bytes, float]:
        """Read a slot's page(s), optionally through the DRAM page cache."""
        page = self._pages.get(page_id)
        if page is None:
            raise ReproError(f"read of unallocated page {page_id}")
        # Page ids key the shared cache directly: every other tenant of the
        # shared LRU uses tuple keys, so bare ints cannot collide with them.
        if cache is not None:
            cached = cache.get(page_id)
            if cached is not None:
                return cached, 0.0
        service = self.device.read_pages(npages, kind, sequential=False)
        data = bytes(page)
        if cache is not None:
            cache.put(page_id, data, charge=npages * self.page_size)
        return data, service

    def peek(self, page_id: int, offset: int, length: int) -> bytes:
        """Zero-cost access to page contents whose I/O was already paid
        (e.g. after a bulk migration read)."""
        page = self._pages.get(page_id)
        if page is None:
            raise ReproError(f"peek of unallocated page {page_id}")
        return bytes(page[offset : offset + length])

    def read_many(
        self, page_ids: list[int], kind: TrafficKind
    ) -> tuple[list[bytes], float]:
        """Bulk read for migration: one I/O per page (zone pages are
        discontiguous on media), bypassing the cache."""
        service = 0.0
        out = []
        for pid in page_ids:
            page = self._pages.get(pid)
            if page is None:
                raise ReproError(f"read of unallocated page {pid}")
            out.append(bytes(page))
        if page_ids:
            service = self.device.read_pages(len(page_ids), kind, sequential=False)
        return out, service
