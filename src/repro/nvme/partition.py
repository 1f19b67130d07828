"""A shared-nothing partition of the NVMe tier (paper §3.1, §3.6).

Each partition owns a contiguous slice of the key space, its own slot table
(:class:`repro.nvme.zone.SlotTable`: the key index over its zones, plus
one hot zone), its own hotness tracker, and a page budget (its share of
the device).  Partitions never touch each other's state, so the design
scales without lock contention — here that translates to per-partition
accounting the harness can parallelize conceptually.  The partition adds
the policy: which zone takes a fresh slot, when a zone splits, what the hot
zone evicts and what a demotion collects.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterator, Optional

from repro.common.bloom import KeyHashes
from repro.common.errors import CorruptionError, OutOfSpaceError, ReproError
from repro.common.keys import KeyRange
from repro.common.records import Record
from repro.hotness.tracker import HotnessTracker
from repro.lsm.blocks import Entry, entry_at, record_of
from repro.nvme.config import (
    SLOT_CLASSES,
    TRACKER_HOT_THRESHOLD,
    TRACKER_MAX_FILTERS,
    ZONE_SPLIT_FACTOR,
    NVMeConfig,
    slot_class_for,
)
from repro.nvme.pagestore import PageStore
from repro.nvme.zone import SlotLocation, SlotTable, Zone
from repro.simssd.traffic import TrafficKind


class Partition(SlotTable):
    """One independent slice of the performance tier."""

    def __init__(
        self,
        partition_id: int,
        key_range: KeyRange,
        page_store: PageStore,
        config: NVMeConfig,
        page_budget: int,
        key_hashes: Optional[KeyHashes] = None,
    ) -> None:
        if key_range.hi is None:
            raise ReproError("partition ranges must be bounded")
        self.partition_id = partition_id
        self.key_range = key_range
        self.config = config
        self.page_budget = page_budget
        #: The engine's key-digest memo, handed to every tracker this
        #: partition builds (calibration and reset replace the tracker).
        self.key_hashes = key_hashes
        super().__init__(page_store)
        self._zone_seq = 0
        #: Engine hook fired by :meth:`drop_corrupt_slot` whenever a read,
        #: a relocation or the scrubber finds a slot whose payload no longer
        #: matches its checksum.  Called as ``hook(key, promoted)`` after
        #: the corrupt resident copy has been dropped; ``promoted`` tells the
        #: engine whether the capacity tier still holds an authoritative
        #: twin (drop is lossless) or the newest copy is gone.
        self.on_corrupt_slot: Optional[Callable[[bytes, bool], None]] = None
        self._init_state()

    def _init_state(self) -> None:
        """The empty partition: :meth:`__init__` builds it, and
        :meth:`reset_state` rebuilds it after :meth:`clear_slots`."""
        self._init_zones()
        self.hot_zone = self._new_zone(None)
        # Eq. 1 inputs: running totals of slot-file bytes and object counts.
        self._written_bytes = 0
        self._written_objects = 0
        # Index-backup checkpoint state (§3.1); see nvme/checkpoint.py.
        self._checkpoint_pages: list[int] = []
        self._checkpoint_len = 0
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

    def clear_slots(self) -> None:
        super().clear_slots()
        #: Ordered regular zones: ``_zone_bounds[i]`` is the lower bound of
        #: ``_zones[i]``; ranges tile the partition's key range.
        self._zones: list[Zone] = []
        self._zone_bounds: list[bytes] = []

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
            key_hashes=self.key_hashes,
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
        return self.add_zone(self.partition_id * 1_000_000 + self._zone_seq, key_range)

    def reseat(
        self, zone_id: int, key_range: Optional[KeyRange],
        entries: list[tuple[bytes, SlotLocation]],
    ) -> Zone:
        """:meth:`SlotTable.reseat`, then install the zone as the hot zone
        or in key order among the regular ones."""
        zone = super().reseat(zone_id, key_range, entries)
        if key_range is None:
            self.hot_zone = zone
        else:
            i = bisect_right(self._zone_bounds, key_range.lo)
            self._zones.insert(i, zone)
            self._zone_bounds.insert(i, key_range.lo)
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
        """The :meth:`put` body: the slot write (:meth:`SlotTable.write`),
        with the tracker already touched and the health epoch (if any)
        already entered.  An update clears the promotion label: the object
        diverges from its SATA copy, so eviction can no longer drop it."""
        service, zone = self.write(rec, False, kind)
        # In-place updates count toward Eq. 1 too: without them,
        # update-heavy workloads never reach the calibration point and the
        # tracker window stays at its construction guess.
        self._written_bytes += rec.encoded_size
        self._written_objects += 1
        self._maybe_calibrate_tracker()
        if zone is not None:
            self._maybe_split_zone(zone)
        return service

    def _fresh_zone(self, key: bytes, slot_size: int, promoted: bool) -> Zone:
        # A promotion goes to the hot zone; a put to zone_for_key's zone,
        # less the range check the stager makes.
        if promoted:
            return self.hot_zone
        return self._zones[bisect_right(self._zone_bounds, key) - 1]

    # --------------------------------------------------------------- reads

    def get_entry(
        self, key: bytes, kind: TrafficKind = TrafficKind.FOREGROUND
    ) -> tuple[Optional[Entry], float]:
        """Point lookup, the partition's one read: ``(entry_or_none,
        service_time)``.  A slot that fails its check is dropped
        (:meth:`drop_corrupt_slot`), then its :class:`CorruptionError`
        propagates."""
        self._record_access(key)
        loc: Optional[SlotLocation] = self.index.get(key)
        if loc is None:
            return None, 0.0
        zone = self.zone_of(loc.zone_id)
        try:
            return zone.read_object(loc, kind)
        except CorruptionError:
            self.drop_corrupt_slot(zone, key, loc)
            raise

    def get(
        self, key: bytes, kind: TrafficKind = TrafficKind.FOREGROUND
    ) -> tuple[Optional[Record], float]:
        """:meth:`get_entry` as ``(record_or_none, service_time)``."""
        entry, service = self.get_entry(key, kind)
        return (None if entry is None else record_of(entry)), service

    def contains(self, key: bytes) -> bool:
        return key in self.index

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
            service, _ = self.write(rec, True, kind)
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
                    self.drop(hot, key, loc)
                    continue
                npages = -(-loc.slot_size // self.page_store.page_size)
                raw, s_read = self.page_store.read_slot(
                    loc.page_id, loc.offset, loc.record_size, kind, npages
                )
                service += s_read  # charged whether or not the slot verifies
                try:
                    payload = hot.verified_slot(loc, raw)
                except CorruptionError:
                    self.drop_corrupt_slot(hot, key, loc)
                    continue
                del keys[key]  # staged: out of the scan order
                staged[loc.page_id] = staged.get(loc.page_id, 0) + 1
                slot_size = slot_class_for(loc.record_size)
                moves[key] = self.zone_for_key(key).stage(
                    batch, key, payload, loc.seqno, loc.crc, False, slot_size
                )
            return service + self.commit(batch, moves, kind)
        except ReproError:
            self.unstage(moves)
            keys.update(dict.fromkeys(moves))
            raise

    # ------------------------------------------------- corruption handling

    def drop_corrupt_slot(self, zone: Zone, key: bytes, loc: SlotLocation) -> None:
        """The one drop path for a corrupt slot, whoever found it.

        A promoted slot still has its authoritative twin on the capacity
        tier, so dropping the resident copy loses nothing; a non-promoted
        slot *was* the newest copy.  Either way :attr:`on_corrupt_slot`
        tells the engine, which counts it and marks a lost newest copy
        suspect.
        """
        self.drop(zone, key, loc)
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
        self,
        zone: Zone,
        ingest: Callable[[list[Entry], TrafficKind], float],
        kind: TrafficKind = TrafficKind.MIGRATION,
    ) -> tuple[list[Entry], float]:
        """Demote a zone: copy its cold objects to the capacity tier through
        ``ingest``, then free it.  Returns the demoted entries — in key
        order, each one's verified slot bytes, nothing decoded — and the
        NVMe service time.

        Hot objects are parked in the hot zone instead of being demoted
        (§3.2: "HyperDB does not migrate frequently accessed data"): their
        verified slot bytes are staged for the hot zone's pages.  Only after
        ``ingest(demoted, kind)`` returns are the staged pages written, the
        index changed and the emptied zone freed, in one pass.  A failure
        before then, a rejected ingest included, unstages and re-raises: the
        zone is fully resident, nothing having been freed.  A failure after
        ingest leaves each demoted object in both tiers under one seqno, and
        reads prefer NVMe.  The zone's read counter is reset.  Runs inside a
        device health epoch, so no NVMe health window opens mid-collection.
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
                        self.drop_corrupt_slot(zone, key, loc)
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
                                batch, key, payload, loc.seqno, loc.crc,
                                loc.promoted, slot_size,
                            )
                    if new_loc is None:
                        demoted_append(entry_at(payload))
                    moves[key] = new_loc
                    staged[loc.page_id] = staged.get(loc.page_id, 0) + 1
                ingest(demoted, kind)
                service += self.commit(batch, moves, kind, vacated=zone)
            except ReproError:
                self.unstage(moves)
                raise
            zone.reset_read_counter()
            return demoted, service

    # --------------------------------------------------------- checkpoint

    def checkpoint(self, kind: TrafficKind = TrafficKind.GC) -> float:
        """Persist the index backup to NVMe (§3.1).  Returns service time."""
        from repro.nvme.checkpoint import PartitionCheckpoint

        with self.page_store.device.health_epoch:
            pages, nbytes, service = PartitionCheckpoint.write(self, kind)
            # The new image is durable; retire the old one and switch over.
            for pid in self._checkpoint_pages:
                self.page_store.free(pid)
            self._checkpoint_pages, self._checkpoint_len = pages, nbytes
            return service

    def recover(self) -> float:
        """Rebuild in-memory index/zones from the last checkpoint: its
        zones and entries are re-seated (:meth:`reseat`) into cleared slots.

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
        self.clear_slots()
        self._init_state()

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
                    self.drop_corrupt_slot(zone, key, loc)
                    continue
                dest = left if key < median else right
                moves[key] = dest.stage(
                    batch, key, payload, loc.seqno, loc.crc, loc.promoted,
                    loc.slot_size,
                )
            self.commit(batch, moves, TrafficKind.GC, vacated=zone)
        except ReproError as e:
            self.unstage(moves)
            self.retire_zone(left)
            self.retire_zone(right)
            if isinstance(e, OutOfSpaceError):
                return  # both halves do not fit beside the old zone yet
            raise
        self._zones[idx : idx + 1] = [left, right]
        self._zone_bounds[idx : idx + 1] = [left.key_range.lo, median]
        self.retire_zone(zone)
