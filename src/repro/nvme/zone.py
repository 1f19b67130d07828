"""Zones: contiguous-key-range object containers on NVMe (paper §3.2).

A zone stores objects whose keys fall inside its range, packed into
size-class slots within pages.  Zones are the unit of migration: demoting a
zone reads its pages (few, thanks to the size-class packing) and yields a
batch with a tight key range for the capacity tier's L1 merge.

The hot zone is a zone with ``key_range=None`` — no range restriction —
holding objects the tracker currently classifies as hot.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import CorruptionError, ReproError
from repro.common.keys import KeyRange
from repro.common.records import Record
from repro.lsm.blocks import decode_one, encode_record
from repro.nvme.pagestore import PageStore
from repro.simssd.traffic import TrafficKind


@dataclass(slots=True)
class SlotLocation:
    """Where one object lives: a slot of a page owned by a zone.

    ``crc`` is the CRC32 of the slot's encoded record, kept in the
    in-memory index (the paper's index blocks) and in every checkpoint
    entry — zone slots have no per-record checksum on media, so this is
    what lets readers, relocations and the scrubber detect latent
    corruption in slot payloads.  Every location has one.
    """

    zone_id: int
    page_id: int
    slot_index: int
    slot_size: int
    record_size: int
    seqno: int
    crc: int
    promoted: bool = False

    @property
    def offset(self) -> int:
        return self.slot_index * self.slot_size


# eq=False: pages are unique objects and the allocator does list-membership
# checks on every slot free; field-wise comparison of slot lists is wasted.
@dataclass(slots=True, eq=False)
class _ZonePage:
    page_id: int
    slot_size: int
    num_slots: int
    free_slots: list[int] = field(default_factory=list)
    used: int = 0
    #: Continuation pages of an oversized (multi-page) slot.
    extra_pages: list[int] = field(default_factory=list)

    @property
    def total_pages(self) -> int:
        return 1 + len(self.extra_pages)


class Zone:
    """One key-range container of slotted pages."""

    def __init__(
        self,
        zone_id: int,
        key_range: Optional[KeyRange],
        page_store: PageStore,
    ) -> None:
        self.zone_id = zone_id
        self.key_range = key_range
        self.page_store = page_store
        self._pages: dict[int, _ZonePage] = {}
        self._open: dict[int, list[_ZonePage]] = {}  # slot_size -> pages w/ space
        #: Incremental page count (with oversized-slot continuations); the
        #: watermark checks read it on every put, so it must stay O(1).
        self._total_pages = 0
        #: Insertion-ordered key set (dict-as-ordered-set): hot-zone eviction
        #: scans it FIFO with bounded work per call.
        self.keys: dict[bytes, None] = {}
        self.used_bytes = 0
        self.read_ios = 0  # foreground reads since last migration (cost/benefit)
        #: Shared one-element page counter (the owning partition's running
        #: ``used_pages`` total).  When set, every page this zone gains or
        #: loses is mirrored into it, keeping the partition's watermark
        #: check O(1) instead of O(zones).
        self.page_counter: Optional[list[int]] = None

    # ----------------------------------------------------------- geometry

    @property
    def is_hot_zone(self) -> bool:
        return self.key_range is None

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def object_count(self) -> int:
        return len(self.keys)

    def page_ids(self) -> list[int]:
        return list(self._pages)

    def total_pages(self) -> int:
        """Pages this zone occupies, counting oversized-slot continuations."""
        return self._total_pages

    # ----------------------------------------------------------- allocate

    def _slots_per_page(self, slot_size: int) -> int:
        return max(1, self.page_store.page_size // slot_size)

    def allocate_slot(self, slot_size: int) -> tuple[int, int]:
        """Reserve a slot; allocates a fresh page when none is open.

        Returns ``(page_id, slot_index)``.
        """
        open_pages = self._open.setdefault(slot_size, [])
        while open_pages:
            zp = open_pages[-1]
            if zp.free_slots:
                slot = zp.free_slots.pop()
                zp.used += 1
                if not zp.free_slots:
                    open_pages.pop()
                return zp.page_id, slot
            open_pages.pop()
        pages_needed = -(-slot_size // self.page_store.page_size)
        (pid, *extra) = self.page_store.allocate(pages_needed)
        nslots = self._slots_per_page(slot_size)
        zp = _ZonePage(
            page_id=pid,
            slot_size=slot_size,
            num_slots=nslots,
            free_slots=list(range(nslots - 1, 0, -1)),
            extra_pages=extra,
        )
        zp.used = 1
        self._pages[pid] = zp
        self._total_pages += zp.total_pages
        c = self.page_counter
        if c is not None:
            c[0] += zp.total_pages
        if zp.free_slots:
            self._open.setdefault(slot_size, []).append(zp)
        return pid, 0

    def free_slot(self, loc: SlotLocation) -> None:
        zp = self._pages.get(loc.page_id)
        if zp is None:
            raise ReproError(f"slot free on page {loc.page_id} not in zone {self.zone_id}")
        zp.used -= 1
        if zp.used <= 0:
            self._release_page(zp)
        else:
            zp.free_slots.append(loc.slot_index)
            open_pages = self._open.setdefault(loc.slot_size, [])
            if zp not in open_pages:
                open_pages.append(zp)

    def pages_vacated(self, staged: dict[int, int]) -> int:
        """Pages freed once the ``staged`` ``{page_id: slots}`` are freed."""
        zps = self._pages
        return sum(zps[p].total_pages for p, n in staged.items() if zps[p].used == n)

    def _release_page(self, zp: _ZonePage) -> None:
        del self._pages[zp.page_id]
        self._total_pages -= zp.total_pages
        c = self.page_counter
        if c is not None:
            c[0] -= zp.total_pages
        open_pages = self._open.get(zp.slot_size)
        if open_pages and zp in open_pages:
            open_pages.remove(zp)
        self.page_store.free(zp.page_id)
        for extra in zp.extra_pages:
            self.page_store.free(extra)

    def release_all(self) -> None:
        """Free every page in one pass once all objects have left the zone."""
        for zp in list(self._pages.values()):
            self._release_page(zp)
        self.keys.clear()
        self.used_bytes = 0

    # ---------------------------------------------------------------- I/O

    def write_record(
        self,
        rec: Record,
        slot_size: int,
        kind: TrafficKind = TrafficKind.FOREGROUND,
        cache=None,
        promoted: bool = False,
    ) -> tuple[SlotLocation, float]:
        """Encode ``rec`` into a fresh ``slot_size`` slot and write the page."""
        kr = self.key_range  # inlined ``accepts`` (one call per store write)
        if kr is not None and not kr.contains(rec.key):
            raise ReproError(f"key {rec.key!r} outside zone {self.zone_id} range")
        payload = encode_record(rec)
        if len(payload) > slot_size:
            raise ReproError(
                f"record of {len(payload)}B does not fit slot class {slot_size}"
            )
        page_id, slot_index = self.allocate_slot(slot_size)
        loc = SlotLocation(
            self.zone_id, page_id, slot_index, slot_size,
            len(payload), rec.seqno, zlib.crc32(payload), promoted,
        )
        npages = -(-slot_size // self.page_store.page_size)
        service = self.page_store.write(
            page_id, loc.offset, payload, kind, cache, npages=npages
        )
        self.keys[rec.key] = None
        self.used_bytes += len(payload)
        return loc, service

    def stage(
        self, key: bytes, src: SlotLocation, payload: bytes, slot_size: int,
        promoted: bool, batch: dict,
    ) -> SlotLocation:
        """Move ``key``'s verified slot bytes ``payload`` from ``src`` into a
        fresh ``slot_size`` slot of this zone (the caller's pick, which holds
        ``key``), re-encoding nothing: the location keeps ``src``'s checksum,
        seqno and record size.  Offset and payload join ``batch`` (``{page_id:
        [npages, offset, payload, ...]}``); the caller writes each page once."""
        page_id, slot_index = self.allocate_slot(slot_size)
        npages = -(-slot_size // self.page_store.page_size)
        batch.setdefault(page_id, [npages]).extend((slot_index * slot_size, payload))
        self.keys[key] = None
        self.used_bytes += src.record_size
        return SlotLocation(
            self.zone_id, page_id, slot_index, slot_size,
            src.record_size, src.seqno, src.crc, promoted,
        )

    def update_in_place(
        self,
        loc: SlotLocation,
        rec: Record,
        kind: TrafficKind = TrafficKind.FOREGROUND,
        cache=None,
    ) -> tuple[SlotLocation, float]:
        """Overwrite an object inside its existing slot (§3.2: small objects
        update in place)."""
        payload = encode_record(rec)
        if len(payload) > loc.slot_size:
            raise ReproError("in-place update does not fit the slot")
        npages = -(-loc.slot_size // self.page_store.page_size)
        service = self.page_store.write(
            loc.page_id, loc.offset, payload, kind, cache, npages=npages
        )
        self.used_bytes += len(payload) - loc.record_size
        new_loc = SlotLocation(
            loc.zone_id, loc.page_id, loc.slot_index, loc.slot_size,
            len(payload), rec.seqno, zlib.crc32(payload), loc.promoted,
        )
        return new_loc, service

    def read_object(
        self,
        loc: SlotLocation,
        kind: TrafficKind = TrafficKind.FOREGROUND,
        cache=None,
    ) -> tuple[Record, float]:
        """Read one object's page and decode the record in its slot, which
        passes :meth:`verified_slot` first: latent media corruption surfaces
        as :class:`CorruptionError` instead of a silently wrong record."""
        npages = -(-loc.slot_size // self.page_store.page_size)
        data, service = self.page_store.read(loc.page_id, kind, cache, npages=npages)
        raw = data[loc.offset : loc.offset + loc.record_size]
        rec = decode_one(self.verified_slot(loc, raw))
        self.read_ios += 1
        return rec, service

    def verified_slot(self, loc: SlotLocation, raw: Optional[bytes] = None) -> bytes:
        """``loc``'s slot bytes ``raw`` (peeked when a bulk read paid for the
        page) under the one slot-integrity rule of reads, of every move of
        slot bytes and of scrub: they must match the index CRC."""
        if raw is None:
            raw = self.page_store.peek(loc.page_id, loc.offset, loc.record_size)
        if (actual := zlib.crc32(raw)) != loc.crc:
            raise CorruptionError(
                f"zone {self.zone_id} slot checksum mismatch on page "
                f"{loc.page_id} slot {loc.slot_index}: "
                f"stored={loc.crc:#x} computed={actual:#x}"
            )
        return raw

    def remove_object(self, key: bytes, loc: SlotLocation) -> None:
        """Drop an object (after migration or relocation)."""
        self.keys.pop(key, None)
        self.used_bytes -= loc.record_size
        self.free_slot(loc)

    def write_tombstone(
        self, loc: SlotLocation, kind: TrafficKind = TrafficKind.FOREGROUND, cache=None
    ) -> float:
        """Mark the original slot of a relocated/resized object (§3.2)."""
        marker = encode_record(Record.tombstone(b"", loc.seqno))[: loc.slot_size]
        return self.page_store.write(loc.page_id, loc.offset, marker, kind, cache)

    # ------------------------------------------------------------ metrics

    def demotion_score(self) -> float:
        """Cost-benefit metric (§3.5): freed bytes per read I/O.

        Cost is the page reads needed to collect the zone; zones that served
        many recent foreground reads are penalized (they are likely to be
        read again, and their counter resets only at migration).
        """
        if not self._pages:
            return 0.0
        cost = self.total_pages() + self.read_ios
        return self.used_bytes / cost

    def reset_read_counter(self) -> None:
        self.read_ios = 0
