"""PrismDB-like baseline: the *caching* architecture (§2.2, §4.1).

NVMe holds a slab-layout object store (objects packed into size-class slabs
in insertion order — no key locality), with a clock-based hotness tracker.
When the NVMe tier fills past its watermark, the coldest objects are
gathered — scattered across slab pages, which is exactly the
read-amplification the paper measures in Fig. 2a — and merged into a
leveled LSM-tree on SATA.  Hot objects read from SATA are promoted back
into the slabs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.common.btree import BTreeIndex
from repro.common.cache import LRUCache
from repro.common.errors import CorruptionError, DeviceOfflineError, ReproError
from repro.common.records import Record
from repro.core.interface import KVStore
from repro.health.state import HealthState
from repro.lsm.blocks import Entry, entry_at, entry_of, record_of
from repro.lsm.lsmtree import DbPath, LSMOptions, LSMTree
from repro.nvme.config import SLOT_CLASSES, NVMeConfig, slot_class_for
from repro.nvme.pagestore import PageStore
from repro.nvme.zone import SlotLocation, Zone
from repro.simssd.device import SimDevice
from repro.simssd.fs import SimFilesystem
from repro.simssd.traffic import TrafficKind


class ClockTracker:
    """Two-bit clock over resident objects (PrismDB's hotness mechanism).

    An access sets a key's counter to ``max_bits``; the store's demotion
    window ages the counters it passes over.
    """

    def __init__(self, max_bits: int = 3) -> None:
        self.max_bits = max_bits
        self._bits: dict[bytes, int] = {}

    def access(self, key: bytes) -> None:
        self._bits[key] = self.max_bits

    def bits(self, key: bytes) -> int:
        return self._bits.get(key, 0)

    def forget(self, key: bytes) -> None:
        self._bits.pop(key, None)


class _SlabStore:
    """Size-class slabs over the NVMe device (insertion-order packing)."""

    def __init__(self, device: SimDevice, config: NVMeConfig, cache=None) -> None:
        self.device = device
        self.config = config
        self.cache = cache
        self.page_store = PageStore(device, cache=cache)
        self.index = BTreeIndex(order=64)
        # One keyless "zone" per slot class acts as that class's slab file.
        self._slabs: dict[int, Zone] = {}
        self._slab_seq = 0
        #: Slots :meth:`collect` found corrupt and dropped instead of shipping.
        self.corrupt_slots = 0

    def _slab_for(self, slot_size: int) -> Zone:
        slab = self._slabs.get(slot_size)
        if slab is None:
            self._slab_seq += 1
            slab = Zone(self._slab_seq, None, self.page_store)
            self._slabs[slot_size] = slab
        return slab

    def put(self, rec: Record, kind=TrafficKind.FOREGROUND) -> float:
        # Epoch: the tombstone-then-rewrite path must not be torn by a
        # health window opening between its I/Os.
        with self.device.health_epoch:
            service = 0.0
            loc: Optional[SlotLocation] = self.index.get(rec.key)
            needed = rec.encoded_size
            if loc is not None and needed <= loc.slot_size:
                slab = self._slabs_by_zone(loc.zone_id)
                new_loc, s = slab.update_in_place(loc, rec, kind, self.cache)
                self.index.insert(rec.key, new_loc)
                return s
            if loc is not None:
                slab = self._slabs_by_zone(loc.zone_id)
                service += slab.write_tombstone(loc, kind, self.cache)
                slab.remove_object(rec.key, loc)
            slot_size = slot_class_for(needed)
            slab = self._slab_for(slot_size)
            new_loc, s = slab.write_record(rec, slot_size, kind, self.cache)
            service += s
            self.index.insert(rec.key, new_loc)
            return service

    def _slabs_by_zone(self, zone_id: int) -> Zone:
        for slab in self._slabs.values():
            if slab.zone_id == zone_id:
                return slab
        raise ReproError(f"no slab with zone id {zone_id}")

    def get(self, key: bytes, kind=TrafficKind.FOREGROUND):
        loc: Optional[SlotLocation] = self.index.get(key)
        if loc is None:
            return None, 0.0
        slab = self._slabs_by_zone(loc.zone_id)
        return slab.read_object(loc, kind, self.cache)

    def remove(self, key: bytes) -> None:
        loc: Optional[SlotLocation] = self.index.get(key)
        if loc is None:
            return
        slab = self._slabs_by_zone(loc.zone_id)
        slab.remove_object(key, loc)
        self.index.delete(key)

    def collect(self, keys: list[bytes], kind=TrafficKind.MIGRATION):
        """Read and remove ``keys``; returns their entries in key order and
        charges the scattered page reads their slab placement requires.
        A slot failing :meth:`Zone.verified_slot` is dropped and counted."""
        pages: set[int] = set()
        located: list[tuple[bytes, SlotLocation]] = []
        for key in keys:
            loc = self.index.get(key)
            if loc is None:
                continue
            located.append((key, loc))
            pages.add(loc.page_id)
        service = self.page_store.read_many(sorted(pages), kind)
        out: list[Entry] = []
        for key, loc in located:
            slab = self._slabs_by_zone(loc.zone_id)
            try:
                raw = slab.verified_slot(loc)
                out.append(entry_at(raw))
            except CorruptionError:
                self.corrupt_slots += 1
            slab.remove_object(key, loc)
            self.index.delete(key)
        out.sort()  # by key: keys are unique
        return out, service, len(pages)

    @property
    def used_pages(self) -> int:
        return sum(s.total_pages() for s in self._slabs.values())

    def keys(self):
        return (k for k, _ in self.index.items())


class PrismDBStore(KVStore):
    """The caching-architecture baseline."""

    name = "prismdb"

    def __init__(
        self,
        nvme_device: SimDevice,
        sata_device: SimDevice,
        nvme_config: Optional[NVMeConfig] = None,
        lsm_options: Optional[LSMOptions] = None,
        dram_cache_bytes: int = 64 * 1024,
        promote_min_bits: int = 2,
    ) -> None:
        self.nvme_device = nvme_device
        self.sata_device = sata_device
        self.config = nvme_config or NVMeConfig()
        self.cache = LRUCache(dram_cache_bytes)
        self.slabs = _SlabStore(nvme_device, self.config, cache=self.cache)
        self.clock = ClockTracker()
        self.promote_min_bits = promote_min_bits
        # Clock bits exist per resident object; reads of capacity-tier keys
        # are remembered in a bounded recency window instead (a key read
        # twice within the window qualifies for promotion).
        horizon = max(
            1024, nvme_device.capacity_bytes // SLOT_CLASSES[0]
        )
        self._recent_reads = LRUCache(horizon)
        self.sata_fs = SimFilesystem(sata_device)
        if lsm_options is not None and lsm_options.wal_enabled:
            raise ReproError(
                "PrismDB's SATA tree ingests already-durable batches: "
                "a WAL would double-log them"
            )
        if lsm_options is None:
            opts = LSMOptions(first_level=1, wal_enabled=False)
        else:
            from dataclasses import replace

            opts = replace(lsm_options, first_level=1)
        self.tree = LSMTree(
            [DbPath(self.sata_fs, target_bytes=1 << 62)], opts, cache=self.cache
        )
        self._seqno = 0
        self.demotion_jobs = 0
        self.demoted_objects = 0
        self.demotion_page_reads = 0
        self.promotions = 0
        # Degraded-mode accounting (tier outage failover).
        self.failover_writes = 0
        self.failover_blocked_reads = 0
        self.paused_demotions = 0
        self.requeued_objects = 0
        self.catch_up_drains = 0
        self.has_catch_up = False

    # ------------------------------------------------------------- space

    def _page_budget(self) -> int:
        return self.nvme_device.profile.num_pages

    def _over_watermark(self) -> bool:
        return (
            self.slabs.used_pages
            >= self._page_budget() * self.config.high_watermark
        )

    def _below_low(self) -> bool:
        return (
            self.slabs.used_pages
            <= self._page_budget() * self.config.low_watermark
        )

    # --------------------------------------------------------------- ops

    def next_seqno(self) -> int:
        self._seqno += 1
        return self._seqno

    def put(self, key: bytes, value: bytes) -> float:
        return self._write_record(Record(key, value, self.next_seqno()))

    def delete(self, key: bytes) -> float:
        return self._write_record(Record.tombstone(key, self.next_seqno()))

    def _write_record(self, rec: Record) -> float:
        if self.nvme_device.health() is HealthState.OFFLINE:
            return self._failover_write(rec)
        self.clock.access(rec.key)
        service = self.slabs.put(rec)
        if self._over_watermark():
            self._demote()
        if self.has_catch_up:
            self.run_catch_up()
        return service

    def _failover_write(self, rec: Record) -> float:
        """NVMe OFFLINE: write straight into the SATA tree.

        The stale slab-resident copy (if any) is forgotten in memory so it
        cannot shadow the newer SATA version after recovery.  Slab copies
        are always authoritative in PrismDB (promotion re-stamps seqnos),
        so there is no safe read fallthrough — but writes are absorbed.
        """
        service = self.tree.ingest_batch([entry_of(rec)], TrafficKind.FOREGROUND)
        self.slabs.remove(rec.key)
        self.clock.forget(rec.key)
        self.failover_writes += 1
        r = obs.RECORDER
        if r is not None:
            r.emit(
                "failover", t=self.sata_device.busy_seconds(),
                op="write", tier="sata",
            )
        return service

    def get(self, key: bytes):
        nvme_offline = self.nvme_device.health() is HealthState.OFFLINE
        if nvme_offline:
            if self.slabs.index.get(key) is not None:
                # The slab copy is the only current version.
                self.failover_blocked_reads += 1
                raise DeviceOfflineError(
                    f"key resident only on offline device "
                    f"{self.nvme_device.profile.name!r}"
                )
            service = 0.0
        else:
            rec, service = self.slabs.get(key)
            if rec is not None:
                self.clock.access(key)
                return (None if rec.is_tombstone else rec.value), service
        # Promotion eligibility is judged on history *before* this access —
        # otherwise every capacity-tier read would self-qualify and thrash.
        seen_recently = self._recent_reads.get(key) is not None
        self._recent_reads.put(key, True, charge=1)
        value, s = self.tree.get(key)
        service += s
        if value is not None and seen_recently and not nvme_offline:
            # Promote: install the object back into the slabs.
            promoted = Record(key, value, self.next_seqno())
            self.slabs.put(promoted, TrafficKind.MIGRATION)
            self.clock.access(key)
            self.promotions += 1
            if self._over_watermark():
                self._demote()
        return value, service

    def scan(self, start: bytes, count: int):
        if count <= 0:
            return [], 0.0
        busy_before = self.nvme_device.busy_seconds() + self.sata_device.busy_seconds()
        from repro.lsm.iterator import keyed, merge_records

        def slab_stream():
            for key, _ in self.slabs.index.items(start=start):
                rec, _s = self.slabs.get(key)
                if rec is not None:
                    yield rec

        # Tree records carry seqno 0, so a slab-resident version wins its key.
        sata_items = ((r.key, 0, 0, r) for r in self.tree.iter_from(start))
        out = []
        for item in merge_records([keyed(slab_stream()), sata_items], drop_tombstones=True):
            out.append((item[0], item[3].value))
            if len(out) >= count:
                break
        service = (
            self.nvme_device.busy_seconds()
            + self.sata_device.busy_seconds()
            - busy_before
        )
        return out, service

    # ----------------------------------------------------------- demotion

    def _demote(self) -> None:
        if self.sata_device.health() is HealthState.OFFLINE:
            # Capacity tier down: pause demotion, catch up after recovery.
            self._pause_demotion()
            return
        rounds = 0
        while self._over_watermark() and not self._below_low() and rounds < 64:
            victims = self._select_demotion_window()
            if not victims:
                break
            batch, _, pages = self.slabs.collect(victims, TrafficKind.MIGRATION)
            if batch:
                try:
                    self.tree.ingest_batch(batch, TrafficKind.MIGRATION)
                except DeviceOfflineError:
                    # The window opened between collect and ingest (the
                    # ingest epoch rejects atomically): put the batch back
                    # whole and queue a catch-up pass.
                    for entry in batch:
                        self.slabs.put(record_of(entry), TrafficKind.MIGRATION)
                    self.requeued_objects += len(batch)
                    self._pause_demotion()
                    return
                self.demoted_objects += len(batch)
                self.demotion_page_reads += pages
                for entry in batch:
                    self.clock.forget(entry[0])
            self.demotion_jobs += 1
            rounds += 1

    def _pause_demotion(self) -> None:
        self.paused_demotions += 1
        self.has_catch_up = True
        r = obs.RECORDER
        if r is not None:
            r.emit(
                "migration_paused", t=self.nvme_device.busy_seconds(),
                engine=self.name,
            )

    def run_catch_up(self) -> None:
        """Drain the deferred demotion exactly once after SATA recovery."""
        if self.sata_device.health() is HealthState.OFFLINE:
            return
        self.has_catch_up = False
        self.catch_up_drains += 1
        r = obs.RECORDER
        if r is not None:
            r.emit(
                "migration_catchup", t=self.nvme_device.busy_seconds(),
                engine=self.name,
            )
        if self._over_watermark():
            self._demote()

    def _select_demotion_window(self) -> list[bytes]:
        """Cost-benefit range selection (PrismDB's multi-tiered compaction):
        demote the key-contiguous resident window with the most cold bytes,
        so the SATA merge overlaps few SSTables even though the objects'
        NVMe pages are scattered."""
        residents = list(self.slabs.keys())
        if not residents:
            return []
        avg = max(
            32,
            self.slabs.used_pages
            * self.nvme_device.page_size
            // max(1, len(residents)),
        )
        want = max(16, self.config.migration_batch_bytes // avg)
        want = min(want, len(residents))
        # Start the window search at the demotion hand so that ties (no cold
        # anywhere, e.g. right after load) rotate around the ring instead of
        # repeatedly draining — and thereby sparsifying — the lowest keys.
        from bisect import bisect_left

        start = 0
        if getattr(self, "_demote_hand", None) is not None:
            start = bisect_left(residents, self._demote_hand) % len(residents)
        bits = np.array([self.clock.bits(k) for k in residents])
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
        chosen = [k for k in window if self.clock.bits(k) == 0]
        for k in window:
            b = self.clock.bits(k)
            if b > 0:
                self.clock._bits[k] = b - 1
        if len(chosen) < want // 2:
            # Not enough truly-cold objects: demote the lukewarm too (the
            # tier must shrink regardless).
            chosen = [k for k in window if self.clock.bits(k) <= 1] or window
        return chosen

    # -------------------------------------------------------------- admin

    def devices(self) -> dict[str, SimDevice]:
        return {"nvme": self.nvme_device, "sata": self.sata_device}

    def finalize(self) -> None:
        self.tree.maybe_compact()
