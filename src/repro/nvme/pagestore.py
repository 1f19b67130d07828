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

    def write(
        self,
        page_id: int,
        offset: int,
        data: bytes,
        kind: TrafficKind,
        cache: Optional[LRUCache] = None,
        npages: int = 1,
    ) -> float:
        """:meth:`write_spans` of the one span ``(offset, data)``."""
        return self.write_spans(page_id, ((offset, data),), kind, cache, npages)

    def write_spans(
        self,
        page_id: int,
        spans,
        kind: TrafficKind,
        cache: Optional[LRUCache] = None,
        npages: int = 1,
    ) -> float:
        """Write ``(offset, payload)`` spans into a slot page with one
        command (an in-place update of ``npages`` random pages).
        Invalidates any cached copy.

        Oversized slots span continuation pages; their payload is stored in
        the head page's buffer and the I/O is charged for all ``npages``.

        Under fault injection the same torn-write / corruption semantics as
        :class:`repro.simssd.fs.SimFile` apply to the spans' concatenation:
        a crashing write persists only a prefix of it, a transient failure
        beyond retries persists nothing, and a successful write draws its
        flips once, over all of it — per page, however many slots it holds.
        """
        page = self._pages.get(page_id)
        if page is None:
            raise ReproError(f"write to unallocated page {page_id}")
        limit = self.page_size * npages
        for offset, data in spans:
            # A slot starts inside its head page, whose buffer holds at
            # least a page: slice assignment below never leaves a gap.
            if not 0 <= offset < self.page_size or offset + len(data) > limit:
                raise ReproError(
                    f"write [{offset}, {offset + len(data)}) exceeds "
                    f"{npages} page(s)"
                )
        inj = self.device.injector
        try:
            service = self.device.write_pages(npages, kind, sequential=False)
        except PowerLossError as e:
            flat = b"".join([data for _, data in spans])
            flat = flat[: inj.torn_prefix_len(len(flat), e.torn_fraction)]
            self._land(page, spans, flat)
            if cache is not None:
                cache.invalidate(page_id)
            raise
        if inj is None:
            for offset, data in spans:
                page[offset : offset + len(data)] = data
        else:
            flat = b"".join([data for _, data in spans])
            self._land(page, spans, inj.corrupt_payload(flat))
        if cache is not None:
            cache.invalidate(page_id)
        return service

    @staticmethod
    def _land(page: bytearray, spans, flat: bytes) -> None:
        """Lay ``flat`` (the spans' payloads as they reached the media,
        concatenated and possibly cut short) over the spans' offsets."""
        pos = 0
        for offset, data in spans:
            piece = flat[pos : pos + len(data)]
            page[offset : offset + len(piece)] = piece
            pos += len(data)

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

    def read_many(self, page_ids: list[int], kind: TrafficKind) -> float:
        """Charge a bulk read (migration, split, scrub): one I/O per page
        (zone pages are discontiguous on media), bypassing the cache.
        Returns the service time; callers :meth:`peek` what they need."""
        for pid in page_ids:
            if pid not in self._pages:
                raise ReproError(f"read of unallocated page {pid}")
        if not page_ids:
            return 0.0
        return self.device.read_pages(len(page_ids), kind, sequential=False)
