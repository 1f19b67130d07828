"""Raw page allocation on the NVMe device, and its foreground write window.

Zone slot files address pages directly (KVell-style in-place updates don't
fit an append-only file abstraction), so the performance tier uses this thin
page allocator instead of :class:`repro.simssd.fs.SimFilesystem`.  Page
payloads are real bytes, and reads charge the device per page.  Every page
write — a slot's, a tombstone's, a checkpoint's — goes through
:meth:`PageStore.write_spans` as a staged batch:

* a FOREGROUND batch joins the store's one write window: it lands nothing
  and charges nothing.  Every :data:`GROUP` foreground batches the window
  commits (:meth:`PageStore.commit`): each page it holds is written once,
  with one command, in the order the window first took it, and the call
  that closed the window returns that service, as a WAL group commit does
  (KVell batches its page writes the same way);
* any other non-empty batch (a relocation, a park, an eviction, a
  promotion, a checkpoint) commits the window first, then writes each of
  its pages with one command.

Those are the window's only commit triggers, with :meth:`PageStore.commit`
called by ``finalize`` or a checkpoint: no read commits it.  A slot read
(:meth:`PageStore.read_slot`) of a page the window holds is served from
DRAM when the window's newest span over the slot covers it, charging
nothing, as a memtable read would; another slot of such a page is read as
any page is, through the DRAM cache, with the window's bytes laid over the
media's.  The cache only ever holds media bytes: a foreground batch leaves
a page's cached copy in place (the media has not changed), a cache miss
fills it with the media's bytes, never the window's, and a commit, or any
other batch, drops each page it writes.  :meth:`PageStore.peek` and
:meth:`PageStore.read` see the window's bytes over the media's, and
:meth:`PageStore.read_many` charges as for any page.  Freeing a held page
drops its pending bytes with it (a freed page is never read again).  A
failed commit keeps every page it did not write, and the next commit
writes them; a restart forgets the window (:meth:`discard`).
"""

from __future__ import annotations

from typing import Optional

from repro.common.cache import LRUCache
from repro.common.errors import PowerLossError, ReproError
from repro.lsm.wal import GROUP
from repro.simssd.device import SimDevice
from repro.simssd.traffic import TrafficKind

FOREGROUND = TrafficKind.FOREGROUND


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
        #: The foreground write window: ``{page_id: [npages, offset,
        #: payload, ...]}`` in the order pages joined it, and the
        #: foreground batches staged since it last committed.
        self._window: dict[int, list] = {}
        self._staged = 0

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
        self._window.pop(page_id, None)
        if self.cache is not None:
            self.cache.invalidate(page_id)
        self.device.trim(1)

    def write_spans(self, batch: dict, kind: TrafficKind) -> float:
        """Write a staged ``{page_id: [npages, offset, payload, ...]}`` batch
        (:meth:`repro.nvme.zone.Zone.stage`), each page an in-place update of
        its ``npages`` random pages (an oversized slot's payload sits in its
        head page's buffer).

        A FOREGROUND batch joins the window and returns 0.0, or the
        :meth:`commit` service when it is the window's :data:`GROUP` th; a
        page the window already holds takes the batch's spans after its
        own, and the DRAM cache keeps the page's media copy.  Any other
        batch, unless empty, drops its pages from the cache, commits the
        window, then writes each of its pages with one command, in order.
        Either way the batch belongs to the store from here on.
        """
        pages, size = self._pages, self.page_size
        for page_id, spans in batch.items():
            if page_id not in pages:
                raise ReproError(f"write to unallocated page {page_id}")
            limit = size * spans[0]
            for i in range(1, len(spans), 2):
                # A slot starts inside its head page, whose buffer holds at
                # least a page: slice assignment never leaves a gap.
                offset, end = spans[i], spans[i] + len(spans[i + 1])
                if not 0 <= offset < size or end > limit:
                    raise ReproError(f"write [{offset}, {end}) exceeds {spans[0]} page(s)")
            if self.cache is not None and kind is not FOREGROUND:
                self.cache.invalidate(page_id)
        if kind is not FOREGROUND:
            return self.commit() + self._write(batch, kind) if batch else 0.0
        window = self._window
        for page_id, spans in batch.items():
            held = window.get(page_id)
            if held is None:
                window[page_id] = spans
            else:
                held += spans[1:]
        self._staged += 1
        return self.commit() if self._staged >= GROUP else 0.0

    def commit(self) -> float:
        """Write every page the window holds, each with one FOREGROUND
        command, in the order the window took them, dropping each from the
        DRAM cache first; returns the service.
        Inside one health epoch, so an outage rejects the whole commit
        before any page is written.  A failure keeps every page not yet
        written in the window."""
        service = 0.0
        if self._window:
            if self.cache is not None:
                for page_id in self._window:
                    self.cache.invalidate(page_id)
            with self.device.health_epoch:
                service = self._write(self._window, FOREGROUND)
        self._staged = 0
        return service

    def discard(self) -> None:
        """Forget the window unwritten: a restart loses the DRAM it lived
        in, and recovery reads only what reached the media."""
        self._window.clear()
        self._staged = 0

    def _write(self, batch: dict, kind: TrafficKind) -> float:
        """Land each page of a checked ``batch`` with one command, removing
        it from ``batch`` once written.  Each page's spans, concatenated,
        follow :class:`repro.simssd.fs.SimFile`'s fault semantics: a crash
        persists a prefix of them (earlier pages stay written), a transient
        failure beyond retries nothing, and a successful write draws its
        flips once over all of them."""
        pages, inj = self._pages, self.device.injector
        write_pages = self.device.write_pages
        service = 0.0
        for page_id, spans in list(batch.items()):
            page = pages[page_id]
            if inj is None:  # nothing can fail or flip: each span lands as is
                service += write_pages(spans[0], kind, sequential=False)
                for i in range(1, len(spans), 2):
                    offset, data = spans[i], spans[i + 1]
                    page[offset : offset + len(data)] = data
            else:
                flat = b"".join(spans[2::2])
                try:
                    service += write_pages(spans[0], kind, sequential=False)
                except PowerLossError as e:
                    self._land(page, spans, flat[: inj.torn_prefix_len(len(flat), e.torn_fraction)])
                    raise
                self._land(page, spans, inj.corrupt_payload(flat))
            del batch[page_id]
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

    def read_slot(
        self,
        page_id: int,
        offset: int,
        length: int,
        kind: TrafficKind,
        npages: int = 1,
    ) -> tuple[bytes, float]:
        """Read ``length`` slot bytes at ``offset`` of an ``npages`` slot's
        page; returns them and the service time.

        When the window holds the page, the slot is read from DRAM if the
        window's newest span over it covers it (the staged payload itself,
        no page copy, charged nothing, the cache untouched).  Otherwise the
        page is :meth:`read`."""
        spans = self._window.get(page_id)
        if spans is not None:
            staged = self._staged_slot(spans, offset, length)
            if staged is not None:
                return staged, 0.0
        data, service = self.read(page_id, kind, npages)
        return data[offset : offset + length], service

    def read(
        self, page_id: int, kind: TrafficKind, npages: int = 1
    ) -> tuple[bytes, float]:
        """Read a slot's page(s) through the DRAM page cache, when the store
        has one, which only ever holds media bytes; a page the window holds
        has the window's bytes laid over them."""
        page = self._pages.get(page_id)
        if page is None:
            raise ReproError(f"read of unallocated page {page_id}")
        # Page ids key the shared cache directly: every other tenant of the
        # shared LRU uses tuple keys, so bare ints cannot collide with them.
        cache = self.cache
        data = None if cache is None else cache.get(page_id)
        service = 0.0
        if data is None:
            service = self.device.read_pages(npages, kind, sequential=False)
            data = bytes(page)
            if cache is not None:
                cache.put(page_id, data, charge=npages * self.page_size)
        spans = self._window.get(page_id)
        if spans is not None:
            data = self._pending(data, spans)
        return data, service

    @staticmethod
    def _staged_slot(spans: list, offset: int, length: int) -> Optional[bytes]:
        """``[offset, offset + length)`` of a held page when the newest of
        its window ``spans`` that overlaps the range covers all of it."""
        end = offset + length
        for i in range(len(spans) - 2, 0, -2):
            start, data = spans[i], spans[i + 1]
            stop = start + len(data)
            if start < end and offset < stop:
                if start > offset or stop < end:
                    return None
                if start == offset and stop == end:
                    return data
                return data[offset - start : end - start]
        return None

    def _pending(self, media: bytes, spans: list) -> bytes:
        """A held page as its commit will leave it: its ``media`` bytes with
        the window's ``spans`` laid over them in order."""
        page = bytearray(media)
        self._land(page, spans, b"".join(spans[2::2]))
        return bytes(page)

    def peek(self, page_id: int, offset: int, length: int) -> bytes:
        """Zero-cost access to page contents whose I/O was already paid
        (e.g. after a bulk migration read); a page the window holds shows
        the window's bytes."""
        page = self._pages.get(page_id)
        if page is None:
            raise ReproError(f"peek of unallocated page {page_id}")
        spans = self._window.get(page_id)
        if spans is None:
            return bytes(page[offset : offset + length])
        staged = self._staged_slot(spans, offset, length)
        if staged is not None:
            return staged
        return self._pending(page, spans)[offset : offset + length]

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
