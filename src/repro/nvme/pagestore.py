"""Raw page allocation on the NVMe device.

Zone slot files address pages directly (KVell-style in-place updates don't
fit an append-only file abstraction), so the performance tier uses this thin
page allocator instead of :class:`repro.simssd.fs.SimFilesystem`.  Page
payloads are real bytes; reads and writes charge the device per page, and
every page write — a slot's, a tombstone's, a checkpoint's — is one command
of :meth:`PageStore.write_spans` over a staged batch.
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

    def write_spans(
        self, batch: dict, kind: TrafficKind, cache: Optional[LRUCache] = None
    ) -> float:
        """Write a staged ``{page_id: [npages, offset, payload, ...]}`` batch
        (:meth:`repro.nvme.zone.Zone.stage`): each page with one command, in
        staging order, an in-place update of its ``npages`` random pages (an
        oversized slot's payload sits in its head page's buffer).  Each
        page's spans, concatenated, follow :class:`repro.simssd.fs.SimFile`'s
        fault semantics: a crash persists a prefix of them (earlier pages
        stay written), a transient failure beyond retries nothing, and a
        successful write draws its flips once over all of them.
        """
        pages, size, inj = self._pages, self.page_size, self.device.injector
        service = 0.0
        for page_id, spans in batch.items():
            page = pages.get(page_id)
            if page is None:
                raise ReproError(f"write to unallocated page {page_id}")
            npages, n = spans[0], len(spans)
            limit = size * npages
            for i in range(1, n, 2):
                # A slot starts inside its head page, whose buffer holds at
                # least a page: slice assignment below never leaves a gap.
                offset, end = spans[i], spans[i] + len(spans[i + 1])
                if not 0 <= offset < size or end > limit:
                    raise ReproError(f"write [{offset}, {end}) exceeds {npages} page(s)")
            flat = spans[2] if n == 3 else b"".join(spans[2::2])
            try:
                service += self.device.write_pages(npages, kind, sequential=False)
            except PowerLossError as e:
                self._land(page, spans, flat[: inj.torn_prefix_len(len(flat), e.torn_fraction)])
                if cache is not None:
                    cache.invalidate(page_id)
                raise
            if inj is None and n == 3:  # one span: the check above set ``end``
                page[spans[1] : end] = flat
            else:
                self._land(page, spans, flat if inj is None else inj.corrupt_payload(flat))
            if cache is not None:
                cache.invalidate(page_id)
        return service

    @staticmethod
    def _land(page: bytearray, spans: list, flat: bytes) -> None:
        """Lay ``flat`` (a page's payloads as they reached the media,
        concatenated, possibly cut short) over their offsets."""
        pos = 0
        for i in range(1, len(spans), 2):
            offset, n = spans[i], len(spans[i + 1])
            piece = flat[pos : pos + n]
            page[offset : offset + len(piece)] = piece
            pos += n

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
