"""PrismDB-like baseline: the *caching* architecture (§2.2, §4.1).

It runs the shared tiered body (:class:`repro.core.tiered.TieredStore`)
with the policies PrismDB's paper (PAPERS.md) names:

* NVMe layout: a slab store — objects packed into size-class slabs in
  insertion order, with no key locality.  It is a
  :class:`repro.nvme.zone.SlotTable`, as a HyperDB partition is: one
  keyless zone per slot class, and the store is its own single partition.
* Demotion victim: the key-contiguous resident window with the most cold
  objects under a clock tracker.  Its objects are scattered across slab
  pages, which is exactly the read amplification the paper measures in
  Fig. 2a.
* Capacity tier: a leveled LSM-tree on SATA that ingests each window.
* Promotion: a capacity-tier key read twice within a bounded recency
  window is put straight back into the slabs.
* NVMe copy during an outage: every slab copy is authoritative (promotion
  re-stamps seqnos), so a read of a resident blocks and a corrupt slot
  raises; writes fail over to the tree.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace
from typing import Optional

import numpy as np

from repro.common.cache import LRUCache
from repro.common.errors import CorruptionError, ReproError
from repro.common.keys import KeyRange
from repro.common.records import Record
from repro.core.tiered import TieredStore
from repro.lsm.blocks import Entry, entry_at, record_of
from repro.lsm.lsmtree import DbPath, LSMOptions, LSMTree
from repro.migration.scheduler import MigrationScheduler
from repro.nvme.config import SLOT_CLASSES, NVMeConfig
from repro.nvme.pagestore import PageStore
from repro.nvme.zone import SlotLocation, SlotTable, Zone
from repro.simssd.device import SimDevice
from repro.simssd.fs import SimFilesystem
from repro.simssd.traffic import TrafficKind

#: The clock value an access sets; a demotion window's pass ages it by one.
CLOCK_MAX_BITS = 3


class _SlabStore(SlotTable):
    """Size-class slabs over the NVMe device (insertion-order packing); a
    slab is a keyless zone of the slot table.  The store is the whole
    performance tier, its own one partition, with a two-bit clock over its
    residents (PrismDB's hotness mechanism): a put or a point-read hit sets
    a key's bits to :data:`CLOCK_MAX_BITS`."""

    partition_id = 0
    # Each demoted window counts as a job, and none is placed on a
    # background queue: the baseline's figures were measured so.
    job_per_round = True

    def __init__(self, device: SimDevice, config: NVMeConfig, cache=None) -> None:
        super().__init__(PageStore(device, cache=cache))
        self.device = device
        self.config = config
        self.partitions = (self,)
        self.clock: dict[bytes, int] = {}
        #: One keyless zone per slot class acts as that class's slab file.
        self._slabs: dict[int, Zone] = {}
        #: Slots :meth:`collect_zone` found corrupt and dropped instead of
        #: shipping.
        self.corrupt_slots = 0
        #: NVMe pages read to gather the demoted windows (Fig. 2a).
        self.demotion_page_reads = 0
        #: The last key of the previous demotion window.
        self._demote_hand: Optional[bytes] = None

    def partition_for_key(self, key: bytes) -> "_SlabStore":
        return self

    def _fresh_zone(self, key: bytes, slot_size: int, promoted: bool) -> Zone:
        slab = self._slabs.get(slot_size)
        if slab is None:
            slab = self._slabs[slot_size] = self.add_zone(len(self._slabs) + 1, None)
        return slab

    # ------------------------------------------------------------- space

    @property
    def fill_fraction(self) -> float:
        return self.used_pages / self.device.profile.num_pages

    def over_high_watermark(self) -> bool:
        return (
            self.used_pages
            >= self.device.profile.num_pages * self.config.high_watermark
        )

    def below_low_watermark(self) -> bool:
        """PrismDB demotes only while over its high watermark: a window
        that takes the slabs under it ends the job, as the low one does."""
        return not self.over_high_watermark() or (
            self.used_pages
            <= self.device.profile.num_pages * self.config.low_watermark
        )

    # --------------------------------------------------------------- ops

    def put(self, rec: Record, kind=TrafficKind.FOREGROUND) -> float:
        self.clock[rec.key] = CLOCK_MAX_BITS
        # Epoch: a resize's tombstone and rewrite must not be torn by a
        # health window opening between its I/Os.
        with self.device.health_epoch:
            return self.write(rec, False, kind)[0]

    def get_entry(self, key: bytes, kind=TrafficKind.FOREGROUND):
        """Point read: ``(entry_or_none, service)``; a hit sets the key's
        clock bits.  A corrupt slot raises :class:`CorruptionError` and
        stays: it is the only newest copy, and dropping it would surface a
        stale SATA version."""
        loc: Optional[SlotLocation] = self.index.get(key)
        if loc is None:
            return None, 0.0
        entry, service = self.zone_of(loc.zone_id).read_object(loc, kind)
        self.clock[key] = CLOCK_MAX_BITS
        return entry, service

    def get(self, key: bytes, kind=TrafficKind.FOREGROUND):
        """:meth:`get_entry` as a record, touching no clock bit (scans)."""
        loc: Optional[SlotLocation] = self.index.get(key)
        if loc is None:
            return None, 0.0
        entry, service = self.zone_of(loc.zone_id).read_object(loc, kind)
        return record_of(entry), service

    def drop_resident(self, key: bytes) -> bool:
        self.clock.pop(key, None)
        return super().drop_resident(key)

    # ---------------------------------------------------------- demotion

    def select_demotion_zone(self) -> Optional[list[bytes]]:
        """Cost-benefit range selection (PrismDB's multi-tiered compaction):
        the key-contiguous resident window with the most cold objects, so
        the SATA merge overlaps few SSTables even though the objects' NVMe
        pages are scattered.  None when no key qualifies."""
        residents = list(self.index.keys())
        if not residents:
            return None
        clock = self.clock
        avg = max(
            32, self.used_pages * self.device.page_size // max(1, len(residents))
        )
        want = max(16, self.config.migration_batch_bytes // avg)
        want = min(want, len(residents))
        # Start the window search at the demotion hand so that ties (no cold
        # anywhere, e.g. right after load) rotate around the ring instead of
        # repeatedly draining — and thereby sparsifying — the lowest keys.
        start = 0
        if self._demote_hand is not None:
            start = bisect_left(residents, self._demote_hand) % len(residents)
        bits = np.array([clock.get(k, 0) for k in residents])
        coldness = (bits == 0).astype(np.int32)
        if len(residents) <= want:
            best = 0
        else:
            window_cold = np.convolve(coldness, np.ones(want, dtype=np.int32), "valid")
            maxv = window_cold.max()
            candidates = np.flatnonzero(window_cold == maxv)
            after = candidates[candidates >= min(start, len(window_cold) - 1)]
            best = int(after[0] if len(after) else candidates[0])
        window = residents[best : best + want]
        self._demote_hand = window[-1]
        # The hand passes over the chosen window: age what it skips.
        chosen = [k for k in window if clock.get(k, 0) == 0]
        for k in window:
            b = clock.get(k, 0)
            if b > 0:
                clock[k] = b - 1
        if len(chosen) < want // 2:
            # Not enough truly-cold objects: demote the lukewarm too (the
            # tier must shrink regardless).
            chosen = [k for k in window if clock.get(k, 0) <= 1] or window
        return chosen or None

    def collect_zone(self, keys: list[bytes], ingest, kind=TrafficKind.MIGRATION):
        """Demote the window ``keys``: read and verify their slots, ship the
        entries in key order through ``ingest(entries, kind)``, and only
        then remove them, so a rejected ingest leaves every one resident.
        Charges the scattered page reads their slab placement requires.  A
        slot failing :meth:`Zone.verified_slot` is not shipped; it is
        removed with the rest and counted.  Returns the shipped entries and
        the NVMe service time."""
        pages: set[int] = set()
        located: list[tuple[bytes, SlotLocation, Zone]] = []
        for key in keys:
            loc = self.index.get(key)
            if loc is None:
                continue
            located.append((key, loc, self.zone_of(loc.zone_id)))
            pages.add(loc.page_id)
        service = self.page_store.read_many(sorted(pages), kind)
        out: list[Entry] = []
        for key, loc, slab in located:
            try:
                out.append(entry_at(slab.verified_slot(loc)))
            except CorruptionError:
                pass
        out.sort()  # by key: keys are unique
        ingest(out, kind)
        self.corrupt_slots += len(located) - len(out)
        for key, loc, slab in located:
            self.drop(slab, key, loc)
        if out:
            self.demotion_page_reads += len(pages)
            for entry in out:
                self.clock.pop(entry[0], None)
        return out, service


class _LeveledTier:
    """PrismDB's capacity tier: the leveled LSM-tree as the shared body
    reads one — a point read as a record, a batch ingest, a scan stream."""

    def __init__(self, tree: LSMTree, fs: SimFilesystem) -> None:
        self.tree = tree
        self.fs = fs

    def get(self, key: bytes) -> tuple[Optional[Record], float]:
        value, service = self.tree.get(key)
        return (None if value is None else Record(key, value, 0)), service

    def ingest(self, entries: list[Entry], kind: TrafficKind) -> float:
        return self.tree.ingest_batch(entries, kind)

    def scan(self, start: bytes, count: int):
        # Tree records carry seqno 0, so a slab-resident version wins its key.
        return ((r.key, 0, 0, r) for r in self.tree.iter_from(start))


class _RecentReads:
    """PrismDB's promotion rule.  Clock bits exist per resident object;
    reads of capacity-tier keys are remembered in a bounded recency window
    instead, and a key read twice within it is put back into the slabs
    under a new seqno.  Nothing is staged, so :meth:`lookup` only notes
    the read, and :meth:`offer` acts on that note."""

    def __init__(self, store: "PrismDBStore", horizon: int) -> None:
        self._store = store
        self._window = LRUCache(horizon)
        self._repeat = False

    def lookup(self, key: bytes) -> None:
        # Promotion eligibility is judged on history *before* this access —
        # otherwise every capacity-tier read would self-qualify and thrash.
        window = self._window
        self._repeat = window.get(key) is not None
        window.put(key, True, charge=1)
        return None

    def offer(self, slabs: _SlabStore, rec: Record) -> bool:
        if not self._repeat:
            return False
        store = self._store
        promoted = Record(rec.key, rec.value, store.next_seqno())
        slabs.put(promoted, TrafficKind.MIGRATION)
        stats = store.migration.stats
        stats.promoted_objects += 1
        stats.promoted_bytes += promoted.encoded_size
        if slabs.over_high_watermark():
            store.migration.run_if_needed()
        return True

    def invalidate(self, key: bytes) -> None:
        """Nothing is staged, so a write has nothing to drop."""


class PrismDBStore(TieredStore):
    """The caching-architecture baseline."""

    name = "prismdb"
    corrupt_slot_is_miss = False
    #: Scan rows carry records.
    scan_value = staticmethod(lambda item: item[3].value)

    def __init__(
        self,
        nvme_device: SimDevice,
        sata_device: SimDevice,
        nvme_config: Optional[NVMeConfig] = None,
        lsm_options: Optional[LSMOptions] = None,
        dram_cache_bytes: int = 64 * 1024,
    ) -> None:
        super().__init__(nvme_device, sata_device, dram_cache_bytes)
        #: No key space: every key routes to the one slab store.
        self.key_space = KeyRange(b"")
        self.slabs = self.performance_tier = _SlabStore(
            nvme_device, nvme_config or NVMeConfig(), cache=self.cache
        )
        self.sata_fs = SimFilesystem(sata_device)
        if lsm_options is not None and lsm_options.wal_enabled:
            raise ReproError(
                "PrismDB's SATA tree ingests already-durable batches: "
                "a WAL would double-log them"
            )
        opts = replace(lsm_options or LSMOptions(wal_enabled=False), first_level=1)
        self.tree = LSMTree(
            [DbPath(self.sata_fs, target_bytes=1 << 62)], opts, cache=self.cache
        )
        self.capacity_tier = _LeveledTier(self.tree, self.sata_fs)
        self.migration = MigrationScheduler(self.slabs, self.capacity_tier)
        horizon = max(1024, nvme_device.capacity_bytes // SLOT_CLASSES[0])
        self.promotion = _RecentReads(self, horizon)

    def _nvme_scan(self, start: bytes):
        # A record per slab key, as :func:`repro.lsm.iterator.keyed` yields.
        slabs = self.slabs
        for key in slabs.index.keys(start):
            rec, _ = slabs.get(key)
            if rec is not None:
                yield rec.key, rec.seqno, rec.deleted, rec

    def finalize(self) -> None:
        """Commit the slabs' write window, then let the tree compact."""
        self.slabs.page_store.commit()
        self.tree.maybe_compact()
