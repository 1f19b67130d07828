"""Zones and the slot table over them (paper §3.1–3.2).

A zone stores objects whose keys fall inside its range, packed into
size-class slots within pages.  Zones are the unit of migration: demoting a
zone reads its pages (few, thanks to the size-class packing) and yields a
batch with a tight key range for the capacity tier's L1 merge.

The hot zone is a zone with ``key_range=None`` — no range restriction —
holding objects the tracker currently classifies as hot.  PrismDB's slabs
are keyless zones too, one per slot class.

A :class:`SlotTable` is an index of :class:`SlotLocation` s over zones: a
HyperDB partition is one, and so is PrismDB's slab store.  It owns every
change to a slot, its zone's key set and byte count, and its index entry
together.  Every slot write — a put, an in-place update, a resize's
tombstone, a promotion, a relocation — is one sequence: :meth:`Zone.stage`
places the slot bytes into a batch, :meth:`PageStore.write_spans` takes it
(a foreground put's into the page store's write window, which writes each
page it holds with one command every :data:`repro.lsm.wal.GROUP` puts; any
other batch written through, a page a command), and only then is the old
slot freed and the index switched: :meth:`SlotTable.write` for one put,
:meth:`SlotTable.commit` for a relocation.  Every read of a slot sees its
newest bytes, the window's when it holds them (:meth:`Zone.read_object`,
:meth:`Zone.verified_slot`), so reads, moves and scrub check those against
the index CRC.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional

from repro.common.btree import BTreeIndex
from repro.common.errors import CorruptionError, ReproError
from repro.common.keys import KeyRange
from repro.common.records import Record
from repro.lsm.blocks import Entry, encode_record, entry_at
from repro.nvme.config import slot_class_for
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
        self._add_page(zp)
        if zp.free_slots:
            open_pages.append(zp)
        return pid, 0

    def _add_page(self, zp: _ZonePage) -> None:
        self._pages[zp.page_id] = zp
        self._total_pages += zp.total_pages
        c = self.page_counter
        if c is not None:
            c[0] += zp.total_pages

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

    def reseat(self, entries: list[tuple[bytes, SlotLocation]]) -> None:
        """Claim the slots of a recovered zone's ``(key, loc)`` entries, in
        order: the keys join :attr:`keys` in that order, and a page is
        seated when its first entry is.  A page's free slots are
        ``range(num_slots)`` less the claimed ones, so allocation pops the
        highest first, and every page with one joins its class's open list
        in seating order.  Continuation pages of an oversized slot are not
        re-tracked."""
        pages, keys, size = self._pages, self.keys, self.page_store.page_size
        for key, loc in entries:
            keys[key] = None
            self.used_bytes += loc.record_size
            zp = pages.get(loc.page_id)
            if zp is None:
                nslots = max(1, size // loc.slot_size)
                zp = _ZonePage(loc.page_id, loc.slot_size, nslots, list(range(nslots)))
                self._add_page(zp)
            if loc.slot_index in zp.free_slots:
                zp.free_slots.remove(loc.slot_index)
            zp.used += 1
        for zp in pages.values():
            if zp.free_slots:
                self._open.setdefault(zp.slot_size, []).append(zp)

    def release_all(self) -> None:
        """Free every page in one pass once all objects have left the zone."""
        for zp in list(self._pages.values()):
            self._release_page(zp)
        self.keys.clear()
        self.used_bytes = 0

    # ---------------------------------------------------------------- I/O

    def stage(
        self, batch: dict, key: bytes, payload: bytes, seqno: int, crc: int,
        promoted: bool, slot_size: int = 0, at: Optional[SlotLocation] = None,
    ) -> SlotLocation:
        """Stage ``key``'s slot bytes ``payload``, with their ``seqno``,
        ``crc`` and ``promoted`` label, into slot ``at`` of this zone (in
        place) or, without one, into a fresh ``slot_size`` slot, which must
        lie in the zone's key range.  The offset and bytes join ``batch``
        (``{page_id: [npages, offset, payload, ...]}``) for
        :meth:`PageStore.write_spans`.  Once the page store has them the
        caller frees the old slot and counts the new one in :attr:`keys` and
        :attr:`used_bytes`; if it refused them, :meth:`free_slot` gives a
        fresh slot back."""
        n = len(payload)
        if at is not None:
            slot_size, page_id, slot_index = at.slot_size, at.page_id, at.slot_index
        elif (kr := self.key_range) is not None and not kr.contains(key):
            raise ReproError(f"key {key!r} outside zone {self.zone_id} range")
        if n > slot_size:
            raise ReproError(f"record of {n}B does not fit slot class {slot_size}")
        if at is None:
            page_id, slot_index = self.allocate_slot(slot_size)
        offset = slot_index * slot_size
        if (spans := batch.get(page_id)) is None:
            batch[page_id] = [-(-slot_size // self.page_store.page_size), offset, payload]
        else:
            spans += (offset, payload)
        return SlotLocation(
            self.zone_id, page_id, slot_index, slot_size, n, seqno, crc, promoted
        )

    def read_object(
        self,
        loc: SlotLocation,
        kind: TrafficKind = TrafficKind.FOREGROUND,
    ) -> tuple[Entry, float]:
        """Read one object's slot (:meth:`PageStore.read_slot`: from the
        write window when it holds the slot, else its page) and return the
        entry in it, which passes :meth:`verified_slot` first: latent media
        corruption surfaces as :class:`CorruptionError` instead of a
        silently wrong record."""
        npages = -(-loc.slot_size // self.page_store.page_size)
        raw, service = self.page_store.read_slot(
            loc.page_id, loc.offset, loc.record_size, kind, npages
        )
        entry = entry_at(self.verified_slot(loc, raw))
        self.read_ios += 1
        return entry, service

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




class SlotTable:
    """An index of :class:`SlotLocation` s over zones of slotted pages: a
    HyperDB partition, or PrismDB's slab store.

    It owns the index (:class:`BTreeIndex`), every live zone by id, the
    page store (which owns the DRAM page cache) and the page counter each
    zone mirrors its pages into, and every change to them: a put (:meth:`write`), a
    relocation's :meth:`commit` or :meth:`unstage`, a :meth:`drop` and a
    recovered zone's :meth:`reseat`.  Only a fresh key goes through
    ``index.insert`` and only a dropped one through ``index.delete``;
    every other change replaces a present key's location.  A subclass places fresh slots: its
    ``_fresh_zone(key, slot_size, promoted)`` names the zone that takes
    ``key``'s fresh ``slot_size`` slot.
    """

    #: How :class:`repro.migration.scheduler.MigrationScheduler` runs this
    #: table's demotions: one traced background job per invocation, or one
    #: untraced job per victim.
    job_per_round = False

    def __init__(self, page_store: PageStore) -> None:
        self.page_store = page_store
        self.clear_slots()

    def clear_slots(self) -> None:
        """Forget every zone and index entry; their pages are not freed."""
        self.index = BTreeIndex(order=64)
        #: Every live zone by id: :meth:`zone_of` runs on each read and
        #: in-place update, so it must not scan.
        self._zone_map: dict[int, Zone] = {}
        #: Running page total over all zones, shared with each zone as its
        #: ``page_counter``: the watermark check on every put reads it.
        self._used_pages_box: list[int] = [0]

    @property
    def used_pages(self) -> int:
        return self._used_pages_box[0]

    def object_count(self) -> int:
        return len(self.index)

    def resident_location(self, key: bytes) -> Optional[SlotLocation]:
        """Index-only residency peek: no device I/O, no tracker access."""
        return self.index.get(key)

    def drop_resident(self, key: bytes) -> bool:
        """Forget a resident object without touching the device.

        Used by failover writes while the NVMe device is OFFLINE: the new
        version lands in the capacity tier, and the stale resident copy must
        not shadow it after recovery.  Slot and page bookkeeping are
        in-memory (frees charge no I/O), so this is legal mid-outage.
        """
        loc: Optional[SlotLocation] = self.index.get(key)
        if loc is None:
            return False
        self.drop(self.zone_of(loc.zone_id), key, loc)
        return True

    def add_zone(self, zone_id: int, key_range: Optional[KeyRange]) -> Zone:
        zone = Zone(zone_id, key_range, self.page_store)
        zone.page_counter = self._used_pages_box
        self._zone_map[zone_id] = zone
        return zone

    def retire_zone(self, zone: Zone) -> None:
        """Unregister a dead zone: a stale location naming it must fail."""
        del self._zone_map[zone.zone_id]

    def zone_of(self, zone_id: int) -> Zone:
        zone = self._zone_map.get(zone_id)
        if zone is None:
            raise ReproError(f"zone {zone_id} not found")
        return zone

    def write(
        self, rec: Record, promoted: bool, kind: TrafficKind
    ) -> tuple[float, Optional[Zone]]:
        """The one put body: returns the service time and the zone given a
        fresh slot (None when in place).

        §3.2: an object that fits its slot is updated in place; otherwise it
        takes a fresh slot (``_fresh_zone``), and a resized object's
        tombstone marker, staged first, is written first into its old slot.
        Once the page store has the batch (:meth:`PageStore.write_spans`)
        the old slot is freed and the index switched.  A foreground batch
        joins the write window, which keeps it even when the commit it
        closes fails: the switch still happens, and then the error
        propagates.  Any other batch is written through, so its failure (no
        room, a failed page write) frees the staged slot and leaves the old
        location indexed and allocated."""
        key, seqno = rec.key, rec.seqno
        payload = encode_record(rec)
        crc = zlib.crc32(payload)
        index = self.index
        old = index.get(key)
        batch: dict = {}
        if old is not None and len(payload) <= old.slot_size:
            zone, fresh = self.zone_of(old.zone_id), None
            new = zone.stage(batch, key, payload, seqno, crc, promoted, 0, old)
        else:
            if old is not None:
                marker = encode_record(Record.tombstone(b"", old.seqno))
                batch[old.page_id] = [1, old.offset, marker[: old.slot_size]]
            slot_size = slot_class_for(len(payload))
            zone = fresh = self._fresh_zone(key, slot_size, promoted)
            new = zone.stage(batch, key, payload, seqno, crc, promoted, slot_size)
        failure = None
        try:
            service = self.page_store.write_spans(batch, kind)
        except ReproError as e:
            if kind is not TrafficKind.FOREGROUND:
                if fresh is not None:
                    fresh.free_slot(new)
                raise
            failure = e  # the window holds this write: switch, then raise
        if fresh is None:
            zone.used_bytes += new.record_size - old.record_size
            index[key] = new
        else:
            if old is not None:  # first, so a same-zone resize's key goes to the back
                self.zone_of(old.zone_id).remove_object(key, old)
            fresh.keys[key] = None
            fresh.used_bytes += new.record_size
            if old is None:
                index.insert(key, new)
            else:
                index[key] = new
        if failure is not None:
            raise failure
        return service, fresh

    def commit(
        self, batch: dict, moves: dict, kind: TrafficKind, vacated: Optional[Zone] = None
    ) -> float:
        """Write each page staged in ``batch`` once, then free each ``{key:
        new}`` move's old slot, or the whole ``vacated`` zone they all left,
        and point the index at ``new`` (drop the key when ``new`` is None).
        ``moves`` holds no tuple per object: a split keeps them all alive
        until here, and that many containers would bring on extra full
        cyclic-GC passes.
        """
        if vacated is not None and len(vacated.keys) != len(moves):
            raise ReproError(f"zone {vacated.zone_id} would leave keys behind")
        service = self.page_store.write_spans(batch, kind)
        index, zones = self.index, self._zone_map
        for key, new in moves.items():
            if vacated is None:
                old = index.get(key)
                zones[old.zone_id].remove_object(key, old)
            if new is None:
                index.delete(key)
            else:
                zone = zones[new.zone_id]
                zone.keys[key] = None
                zone.used_bytes += new.record_size
                index[key] = new  # a relocation: the key is indexed
        if vacated is not None:
            vacated.release_all()
        return service

    def unstage(self, moves: dict) -> None:
        """Undo an unwritten relocation: free every staged slot."""
        for new in moves.values():
            if new is not None:
                self._zone_map[new.zone_id].free_slot(new)

    def drop(self, zone: Zone, key: bytes, loc: SlotLocation) -> None:
        """Forget ``key``'s slot ``loc`` in ``zone``; no device I/O."""
        zone.remove_object(key, loc)
        self.index.delete(key)

    def reseat(
        self, zone_id: int, key_range: Optional[KeyRange],
        entries: list[tuple[bytes, SlotLocation]],
    ) -> Zone:
        """Install a zone recovered from a checkpoint with its ``(key,
        loc)`` entries (:meth:`Zone.reseat`), and index them."""
        zone = self.add_zone(zone_id, key_range)
        zone.reseat(entries)
        index = self.index
        for key, loc in entries:
            index.insert(key, loc)
        return zone
