"""A shared-nothing partition of the NVMe tier (paper §3.1, §3.6).

Each partition owns a contiguous slice of the key space, its own B-tree
index, its own zones (plus one hot zone), its own hotness tracker, and a
page budget (its share of the device).  Partitions never touch each other's
state, so the design scales without lock contention — here that translates
to per-partition accounting the harness can parallelize conceptually.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterator, Optional

from repro.common.btree import BTreeIndex
from repro.common.errors import CorruptionError, OutOfSpaceError, ReproError
from repro.common.keys import KeyRange
from repro.common.records import Record
from repro.hotness.tracker import HotnessTracker
from repro.lsm.blocks import Entry, entry_at
from repro.nvme.config import (
    SLOT_CLASSES,
    TRACKER_HOT_THRESHOLD,
    TRACKER_MAX_FILTERS,
    ZONE_SPLIT_FACTOR,
    NVMeConfig,
    slot_class_for,
)
from repro.nvme.pagestore import PageStore
from repro.nvme.zone import SlotLocation, Zone
from repro.simssd.traffic import TrafficKind


class Partition:
    """One independent slice of the performance tier."""

    def __init__(
        self,
        partition_id: int,
        key_range: KeyRange,
        page_store: PageStore,
        config: NVMeConfig,
        page_budget: int,
        cache=None,
    ) -> None:
        if key_range.hi is None:
            raise ReproError("partition ranges must be bounded")
        self.partition_id = partition_id
        self.key_range = key_range
        self.page_store = page_store
        self.config = config
        self.page_budget = page_budget
        self.cache = cache
        self.index = BTreeIndex(order=64)
        self._zone_seq = 0

        # Capacity-derived tracker window (§3.3): the number of objects this
        # partition can hold.  Starts from the smallest slot class and is
        # re-derived from the measured average object size (Eq. 1) once
        # enough writes have been observed.
        self.tracker = self._make_tracker(SLOT_CLASSES[0])
        self._tracker_calibrated = False
        #: Bound fast path to the discriminator's access recorder — touched
        #: once per client op, where the two delegation frames
        #: (``tracker.record_access`` -> ``discriminator.access``) are
        #: measurable.  Refreshed everywhere ``self.tracker`` is replaced.
        self._record_access = self.tracker.discriminator.access

        #: Running page total over all zones (hot zone included), shared
        #: with every zone via ``Zone.page_counter``.  Keeps ``used_pages``
        #: — consulted by the watermark check on every put — O(1) instead
        #: of O(zones).
        self._used_pages_box: list[int] = [0]

        #: Ordered regular zones: ``_zone_bounds[i]`` is the lower bound of
        #: ``_zones[i]``; ranges tile the partition's key range.
        self._zones: list[Zone] = []
        self._zone_bounds: list[bytes] = []
        #: Every live zone (hot zone included) by id — ``_zone_by_id`` runs
        #: on each read and in-place update, so it must not scan the list.
        self._zone_map: dict[int, Zone] = {}
        self._init_zones()
        self.hot_zone = self._new_zone(None)

        # Eq. 1 inputs: running totals of slot-file bytes and object counts.
        self._written_bytes = 0
        self._written_objects = 0

        # Index-backup checkpoint state (§3.1); see nvme/checkpoint.py.
        self._checkpoint_pages: list[int] = []
        self._checkpoint_len = 0

        #: Engine hook fired by :meth:`_drop_corrupt_slot` whenever a read,
        #: a relocation or the scrubber finds a slot whose payload no longer
        #: matches its checksum.  Called as ``hook(key, promoted)`` after
        #: the corrupt resident copy has been dropped; ``promoted`` tells the
        #: engine whether the capacity tier still holds an authoritative
        #: twin (drop is lossless) or the newest copy is gone.
        self.on_corrupt_slot: Optional[Callable[[bytes, bool], None]] = None

    def _make_tracker(self, avg_object_size: float) -> HotnessTracker:
        capacity_objects = max(
            1,
            int(self.page_budget * self.page_store.page_size / max(1.0, avg_object_size)),
        )
        # The chain of filters jointly spans the interval threshold (§3.3:
        # "the number of objects that NVMe storage can store"), so each
        # window covers 1/max_filters of it.
        window = max(1, capacity_objects // TRACKER_MAX_FILTERS)
        return HotnessTracker(
            window,
            max_filters=TRACKER_MAX_FILTERS,
            hot_threshold=TRACKER_HOT_THRESHOLD,
        )

    def _maybe_calibrate_tracker(self) -> None:
        """Re-size the discriminator window once Eq. 1 has a stable estimate."""
        if self._tracker_calibrated or self._written_objects < 512:
            return
        measured = self.average_object_size()
        current = self.tracker.discriminator.window_capacity
        target = max(
            1, int(self.page_budget * self.page_store.page_size / measured)
        )
        if not 0.5 <= target / max(1, current) <= 2.0:
            self.tracker = self._make_tracker(measured)
            self._record_access = self.tracker.discriminator.access
        self._tracker_calibrated = True

    # --------------------------------------------------------------- zones

    def _init_zones(self) -> None:
        import numpy as np

        from repro.common.keys import decode_key, encode_key

        n = max(1, self.config.initial_zones_per_partition)
        lo = decode_key(self.key_range.lo)
        hi = decode_key(self.key_range.hi)
        step = (hi - lo) / n
        bounds = [lo + int(i * step) for i in range(n)]
        for i, b in enumerate(bounds):
            zlo = self.key_range.lo if i == 0 else encode_key(b)
            zhi = encode_key(bounds[i + 1]) if i + 1 < n else self.key_range.hi
            zone = self._new_zone(KeyRange(zlo, zhi))
            self._zones.append(zone)
            self._zone_bounds.append(zlo)

    def _new_zone(self, key_range: Optional[KeyRange]) -> Zone:
        self._zone_seq += 1
        zone_id = self.partition_id * 1_000_000 + self._zone_seq
        zone = Zone(zone_id, key_range, self.page_store)
        zone.page_counter = self._used_pages_box
        self._zone_map[zone_id] = zone
        return zone

    def zone_for_key(self, key: bytes) -> Zone:
        """The regular zone whose range contains ``key``."""
        if not self.key_range.contains(key):
            raise ReproError(
                f"key {key!r} outside partition {self.partition_id} range"
            )
        idx = bisect_right(self._zone_bounds, key) - 1
        return self._zones[idx]

    def zones(self) -> list[Zone]:
        return list(self._zones)

    # ------------------------------------------------------ Eq. 1 / Eq. 2

    def average_object_size(self) -> float:
        """Eq. 1: mean on-media object size over all slot files."""
        if self._written_objects == 0:
            return float(SLOT_CLASSES[0])
        return self._written_bytes / self._written_objects

    def zone_target_objects(self) -> int:
        """Eq. 2: R = B / O — objects a migration-batch-sized zone holds."""
        return max(1, int(self.config.migration_batch_bytes / self.average_object_size()))

    # -------------------------------------------------------------- space

    @property
    def used_pages(self) -> int:
        # Maintained incrementally by the zones (see ``_used_pages_box``);
        # equal to hot_zone.total_pages() + sum over regular zones.
        return self._used_pages_box[0]

    @property
    def fill_fraction(self) -> float:
        return self.used_pages / self.page_budget if self.page_budget else 1.0

    def over_high_watermark(self) -> bool:
        # Same math as ``fill_fraction >= high_watermark`` without the
        # property hops — this sits on every put.
        budget = self.page_budget
        fill = self._used_pages_box[0] / budget if budget else 1.0
        return fill >= self.config.high_watermark

    def below_low_watermark(self) -> bool:
        return self.fill_fraction <= self.config.low_watermark

    def object_count(self) -> int:
        return len(self.index)

    def used_bytes(self) -> int:
        return self.hot_zone.used_bytes + sum(z.used_bytes for z in self._zones)

    # -------------------------------------------------------------- writes

    def put(
        self, rec: Record, kind: TrafficKind = TrafficKind.FOREGROUND
    ) -> float:
        """Insert or update an object.  Returns the service time charged.

        On a health-guarded device this runs inside a health epoch: the
        tombstone-then-rewrite path (and any zone split it triggers) must
        not be torn by a health window opening between its I/Os.  An
        unguarded device has no windows, so an epoch would pin nothing.
        """
        self._record_access(rec.key)
        device = self.page_store.device
        if not device._health_guarded:
            return self._put_locked(rec, kind)
        with device.health_epoch:
            return self._put_locked(rec, kind)

    def _put_locked(self, rec: Record, kind: TrafficKind) -> float:
        """The :meth:`put` body: the slot write, with the tracker already
        touched and the health epoch (if any) already entered."""
        service = 0.0
        loc: Optional[SlotLocation] = self.index.get(rec.key)
        needed = rec.encoded_size
        if loc is not None and needed <= loc.slot_size:
            zone = self._zone_by_id(loc.zone_id)
            new_loc, s = zone.update_in_place(loc, rec, kind, self.cache)
            # An updated object diverges from its SATA copy: it can no
            # longer be dropped on eviction, so the promotion label is
            # cleared.
            new_loc.promoted = False
            self.index.insert(rec.key, new_loc)
            self._written_bytes += needed
            self._written_objects += 1
            # In-place updates count toward Eq. 1 too: without this,
            # update-heavy workloads never reach the calibration point
            # and the tracker window stays at its construction guess.
            self._maybe_calibrate_tracker()
            return s
        # New object, or resized: new slot, tombstone at the old location.
        if loc is not None:
            old_zone = self._zone_by_id(loc.zone_id)
            service += old_zone.write_tombstone(loc, kind, self.cache)
            old_zone.remove_object(rec.key, loc)
        zone = self.zone_for_key(rec.key)
        slot_size = slot_class_for(needed)
        new_loc, s = zone.write_record(rec, slot_size, kind, self.cache)
        self.index.insert(rec.key, new_loc)
        self._written_bytes += needed
        self._written_objects += 1
        self._maybe_calibrate_tracker()
        self._maybe_split_zone(zone)
        return service + s

    def _zone_by_id(self, zone_id: int) -> Zone:
        zone = self._zone_map.get(zone_id)
        if zone is None:
            raise ReproError(
                f"zone {zone_id} not found in partition {self.partition_id}"
            )
        return zone

    # --------------------------------------------------------------- reads

    def get(
        self, key: bytes, kind: TrafficKind = TrafficKind.FOREGROUND
    ) -> tuple[Optional[Record], float]:
        """Point lookup.  Returns ``(record_or_none, service_time)``; a slot
        that fails its check is dropped (:meth:`_drop_corrupt_slot`), then
        its :class:`CorruptionError` propagates."""
        self._record_access(key)
        loc: Optional[SlotLocation] = self.index.get(key)
        if loc is None:
            return None, 0.0
        zone = self._zone_by_id(loc.zone_id)
        try:
            return zone.read_object(loc, kind, self.cache)
        except CorruptionError:
            self._drop_corrupt_slot(zone, key, loc)
            raise

    def contains(self, key: bytes) -> bool:
        return key in self.index

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
        self._zone_by_id(loc.zone_id).remove_object(key, loc)
        self.index.delete(key)
        return True

    def keys_in_range(self, start: bytes, end: Optional[bytes]) -> Iterator[bytes]:
        """Index-only ordered key cursor (used by scans), lazy."""
        return self.index.keys(start, end)

    # ---------------------------------------------------------- promotion

    def promote(self, rec: Record, kind: TrafficKind = TrafficKind.MIGRATION) -> float:
        """Install a hot object read from the capacity tier into the hot zone.

        The object is flagged ``promoted``: the authoritative copy stays in
        SATA, so hot-zone eviction can drop it without relocation (§3.5).
        """
        existing: Optional[SlotLocation] = self.index.get(rec.key)
        if existing is not None:
            return 0.0  # already resident
        with self.page_store.device.health_epoch:
            slot_size = slot_class_for(rec.encoded_size)
            loc, service = self.hot_zone.write_record(
                rec, slot_size, kind, self.cache, promoted=True
            )
            self.index.insert(rec.key, loc)
            self._written_bytes += rec.encoded_size
            self._written_objects += 1
            service += self._evict_hot_zone_if_needed(kind)
            return service

    def _hot_zone_page_budget(self, vacated: int = 0) -> int:
        """The hot zone may grow into whatever the regular zones don't use
        (up to the high watermark), but always keeps its reserved fraction.
        Promotions thus displace cold zones — via demotion — instead of
        being capped while the fast tier idles (§3.5 read-heavy flow).
        ``vacated`` regular pages are counted as free already."""
        reserve = max(1, int(self.page_budget * self.config.hot_zone_fraction))
        regular = self.used_pages - vacated - self.hot_zone.total_pages()
        headroom = int(self.page_budget * self.config.high_watermark) - regular
        return max(reserve, headroom)

    def _evict_hot_zone_if_needed(
        self, kind: TrafficKind, max_scan: int = 128
    ) -> float:
        """Shed non-hot hot-zone residents, FIFO-clock style.

        Work per call is bounded: at most ``max_scan`` keys are examined,
        oldest first; still-hot keys are rotated to the back (a second
        chance), so repeated calls make progress without rescanning the
        whole zone each time.
        """
        service = 0.0
        hot = self.hot_zone
        budget = self._hot_zone_page_budget()
        if hot.total_pages() <= budget:
            return service
        scanned = 0
        keys = hot.keys
        batch, moves, staged = {}, {}, {}  # staged: {hot-zone page: slots out}
        try:
            while keys and scanned < max_scan:
                if hot.total_pages() - hot.pages_vacated(staged) <= budget:
                    break
                key = next(iter(keys))
                scanned += 1
                loc: SlotLocation = self.index.get(key)
                if loc is None or loc.zone_id != hot.zone_id:
                    keys.pop(key, None)
                    continue
                if self.tracker.is_hot(key):
                    # Second chance: rotate to the back of the scan order.
                    keys.pop(key, None)
                    keys[key] = None
                    continue
                if loc.promoted:
                    # SATA still holds the object: drop without relocation.
                    hot.remove_object(key, loc)
                    self.index.delete(key)
                    continue
                npages = -(-loc.slot_size // self.page_store.page_size)
                _, s_read = self.page_store.read(loc.page_id, kind, self.cache, npages)
                try:
                    payload = hot.verified_slot(loc)
                except CorruptionError:
                    self._drop_corrupt_slot(hot, key, loc)
                    continue
                service += s_read
                del keys[key]  # staged: out of the scan order
                staged[loc.page_id] = staged.get(loc.page_id, 0) + 1
                slot_size = slot_class_for(loc.record_size)
                moves[key] = self.zone_for_key(key).stage(
                    key, loc, payload, slot_size, False, batch
                )
            return service + self._commit(batch, moves, kind)
        except ReproError:
            self._unstage(moves)
            keys.update(dict.fromkeys(moves))
            raise

    def _commit(
        self, batch: dict, moves: dict, kind: TrafficKind, vacated: Optional[Zone] = None
    ) -> float:
        """Write each page staged in ``batch`` once, then point the index of
        each ``{key: new}`` move at ``new`` (drop the key when ``new`` is
        None) and free its old slot, or the whole ``vacated`` zone they all
        left.  Neither holds a tuple per object: a split keeps them all alive
        until here, and that many containers would bring on extra full
        cyclic-GC passes; a page's spans are paired only as it is written.
        """
        if vacated is not None and len(vacated.keys) != len(moves):
            raise ReproError(f"zone {vacated.zone_id} would leave keys behind")
        service = 0.0
        for pid, (npages, *flat) in batch.items():
            spans = list(zip(flat[::2], flat[1::2]))
            service += self.page_store.write_spans(pid, spans, kind, self.cache, npages)
        index = self.index
        for key, new in moves.items():
            if vacated is None:
                old = index.get(key)
                self._zone_map[old.zone_id].remove_object(key, old)
            if new is None:
                index.delete(key)
            else:
                index.insert(key, new)
        if vacated is not None:
            vacated.release_all()
        return service

    def _unstage(self, moves: dict) -> None:
        """Undo an uncommitted relocation: free every staged slot."""
        for key, new in moves.items():
            if new is not None:
                self._zone_map[new.zone_id].remove_object(key, new)

    # ------------------------------------------------- corruption handling

    def _drop_corrupt_slot(self, zone: Zone, key: bytes, loc: SlotLocation) -> None:
        """The one drop path for a corrupt slot, whoever found it.

        A promoted slot still has its authoritative twin on the capacity
        tier, so dropping the resident copy loses nothing; a non-promoted
        slot *was* the newest copy.  Either way :attr:`on_corrupt_slot`
        tells the engine, which counts it and marks a lost newest copy
        suspect (in a cluster, re-replicated from a healthy replica).
        """
        zone.remove_object(key, loc)
        self.index.delete(key)
        hook = self.on_corrupt_slot
        if hook is not None:
            hook(key, loc.promoted)

    # ----------------------------------------------------------- demotion

    def select_demotion_zone(self) -> Optional[Zone]:
        """Highest benefit/cost zone (§3.5)."""
        candidates = [z for z in self._zones if z.object_count > 0]
        if not candidates:
            return None
        return max(candidates, key=lambda z: z.demotion_score())

    def collect_zone(
        self, zone: Zone, kind: TrafficKind = TrafficKind.MIGRATION
    ) -> tuple[list[Entry], float]:
        """Read a zone's pages and extract its objects for demotion: in key
        order, each one's verified slot bytes as an entry, nothing decoded.

        Hot objects are parked in the hot zone instead of being returned
        (§3.2: "HyperDB does not migrate frequently accessed data"): their
        verified slot bytes are staged, then written once per hot-zone page.
        Only then does the index change and the emptied zone free its pages
        in one pass; a failure leaves every object where it was.  The zone's
        read counter is reset.  Runs inside a device health epoch, so no
        NVMe health window opens mid-collection.
        """
        with self.page_store.device.health_epoch:
            service = self.page_store.read_many(zone.page_ids(), kind)
            demoted: list[Entry] = []
            batch, moves, staged = {}, {}, {}  # staged: {zone page: slots out}
            keys = sorted(zone.keys)
            # One batched hotness probe: nothing records an access during
            # collection, so it equals per-key ``is_hot`` calls; the
            # tracker's counters still advance per consulted key below.
            tracker = self.tracker
            hot_flags = tracker.discriminator.is_hot_many(keys)
            demoted_append = demoted.append
            try:
                for key, hot in zip(keys, hot_flags):
                    loc: SlotLocation = self.index.get(key)
                    if loc is None or loc.zone_id != zone.zone_id:
                        continue
                    try:
                        payload = zone.verified_slot(loc)
                    except CorruptionError:
                        self._drop_corrupt_slot(zone, key, loc)
                        continue
                    tracker.queries += 1
                    # Hot objects are parked rather than demoted, but only
                    # while the hot zone has budget (counting the zone's
                    # pages vacated so far as free) — otherwise they migrate.
                    new_loc = None
                    if hot:
                        tracker.hot_hits += 1
                        budget = self._hot_zone_page_budget(zone.pages_vacated(staged))
                        if self.hot_zone.total_pages() < budget:
                            slot_size = slot_class_for(loc.record_size)
                            new_loc = self.hot_zone.stage(
                                key, loc, payload, slot_size, loc.promoted, batch
                            )
                    if new_loc is None:
                        demoted_append(entry_at(payload))
                    moves[key] = new_loc
                    staged[loc.page_id] = staged.get(loc.page_id, 0) + 1
                service += self._commit(batch, moves, kind, vacated=zone)
            except ReproError:
                self._unstage(moves)
                raise
            zone.reset_read_counter()
            return demoted, service

    # --------------------------------------------------------- checkpoint

    def checkpoint(self, kind: TrafficKind = TrafficKind.GC) -> float:
        """Persist the index backup to NVMe (§3.1).  Returns service time."""
        from repro.nvme.checkpoint import PartitionCheckpoint

        with self.page_store.device.health_epoch:
            return PartitionCheckpoint.write(self, kind)

    def recover(self) -> float:
        """Rebuild in-memory index/zones from the last checkpoint.

        Raises :class:`repro.common.errors.RecoveryError` when no checkpoint
        exists and :class:`CorruptionError` when the stored image fails its
        CRC — callers choose between failing hard and :meth:`reset_state`.

        Limitations (documented in :mod:`repro.nvme.checkpoint`): writes
        after the last checkpoint are lost, and continuation pages of
        oversized (multi-page) slots are not re-tracked.
        """
        from repro.nvme.checkpoint import PartitionCheckpoint

        return PartitionCheckpoint.recover(self)

    def reset_state(self) -> None:
        """Degraded rebuild: bring the partition back empty.

        Used when :meth:`recover` finds no checkpoint or a corrupt one —
        every page the partition owned (zones, hot zone, checkpoint) is
        released and the in-memory structures are re-initialized, so the
        engine restarts with data loss bounded to this partition instead
        of refusing to open.
        """
        for zone in [self.hot_zone] + self._zones:
            for pid in zone.page_ids():
                self.page_store.free(pid)
        for pid in self._checkpoint_pages:
            self.page_store.free(pid)
        self._checkpoint_pages = []
        self._checkpoint_len = 0
        self.index = BTreeIndex(order=64)
        self._zones = []
        self._zone_bounds = []
        self._zone_map.clear()
        # Pages above were freed behind the zones' backs, so re-zero the
        # shared counter before fresh zones start mirroring into it.
        self._used_pages_box[0] = 0
        self._init_zones()
        self.hot_zone = self._new_zone(None)
        self._written_bytes = 0
        self._written_objects = 0
        self.tracker = self._make_tracker(SLOT_CLASSES[0])
        self._record_access = self.tracker.discriminator.access
        self._tracker_calibrated = False

    # ------------------------------------------------------- zone rebuild

    def _maybe_split_zone(self, zone: Zone) -> None:
        """Rebuild an oversized zone into two (§3.2 periodic re-sizing).

        Splitting physically resettles the zone's objects so each new zone's
        pages contain only its own range — charged as GC traffic, one write
        per destination page, each object as its verified slot bytes; the
        old zone is then freed in one pass.  A failed write, or no room for
        both halves, frees the halves: the old zone and its slots stay.
        """
        # Inlined ``zone_target_objects() * ZONE_SPLIT_FACTOR`` (identical
        # math): this check runs on every new-slot put, and the limit is
        # never needed for zones at or below the unconditional floor of 8.
        # ``is_hot_zone`` / ``object_count`` are inlined too (attribute
        # tests beat property descriptors on this frequency).
        count = len(zone.keys)
        if zone.key_range is None or count <= 8:
            return
        wo = self._written_objects
        cfg = self.config
        avg = self._written_bytes / wo if wo else float(SLOT_CLASSES[0])
        limit = int(max(1, int(cfg.migration_batch_bytes / avg)) * ZONE_SPLIT_FACTOR)
        if count <= max(limit, 8):
            return
        # Resettling transiently needs fresh pages while the old zone still
        # holds its own; without headroom the split waits for migration.
        device = self.page_store.device
        if device.free_pages < zone.total_pages() + 2:
            return
        keys = sorted(zone.keys)
        median = keys[len(keys) // 2]
        if median == zone.key_range.lo:
            return  # degenerate: all keys equal
        idx = self._zones.index(zone)
        left = self._new_zone(KeyRange(zone.key_range.lo, median))
        right = self._new_zone(KeyRange(median, zone.key_range.hi))

        # Resettle: one bulk read, each object's slot bytes staged into its
        # half as they are verified, then the writes and the commit.  Each
        # zone rebuild is one GC job: place it on the least-busy background
        # queue (no-op on single-queue devices).
        device.begin_background_job(TrafficKind.GC)
        self.page_store.read_many(zone.page_ids(), TrafficKind.GC)
        batch, moves = {}, {}
        try:
            for key in keys:
                loc: SlotLocation = self.index.get(key)
                if loc is None or loc.zone_id != zone.zone_id:
                    continue
                try:
                    payload = zone.verified_slot(loc)
                except CorruptionError:
                    self._drop_corrupt_slot(zone, key, loc)
                    continue
                dest = left if key < median else right
                moves[key] = dest.stage(
                    key, loc, payload, loc.slot_size, loc.promoted, batch
                )
            self._commit(batch, moves, TrafficKind.GC, vacated=zone)
        except ReproError as e:
            self._unstage(moves)
            del self._zone_map[left.zone_id], self._zone_map[right.zone_id]
            if isinstance(e, OutOfSpaceError):
                return  # both halves do not fit beside the old zone yet
            raise
        self._zones[idx : idx + 1] = [left, right]
        self._zone_bounds[idx : idx + 1] = [left.key_range.lo, median]
        # The split zone is dead: stale locations naming it must fail.
        del self._zone_map[zone.zone_id]
