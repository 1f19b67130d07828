"""The HyperDB engine (paper §3).

Write path: objects land in the NVMe tier's zone slots (in-place for small
updates).  When a partition crosses its high watermark, the migration
scheduler demotes its coldest zones (cost-benefit) into the capacity tier's
L1, where semi-SSTables absorb them with block-granularity merges and
preemptive block compaction keeps deeper levels in shape.

Read path: NVMe (zones + hot zone) → promotion staging cache → capacity
tier.  Hot SATA reads are staged for asynchronous promotion into the hot
zone with a *promotion* label.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, Optional

import numpy as np

from repro import obs
from repro.common.cache import LRUCache
from repro.common.errors import (
    CorruptionError,
    DeviceOfflineError,
    RecoveryError,
    ReproError,
)
from repro.common.records import Record, paired_columns
from repro.common.stats import StatsRegistry
from repro.core.config import HyperDBConfig
from repro.core.interface import KVStore
from repro.health.state import HealthState
from repro.lsm.blocks import entry_of
from repro.lsm.iterator import keyed, merge_records
from repro.lsm.semi.engine import CapacityTier
from repro.lsm.semi.levels import SemiLevelConfig
from repro.migration.promotion import PromotionManager
from repro.migration.scheduler import MigrationScheduler
from repro.nvme.config import OBJECT_CACHE_ENTRIES
from repro.nvme.tier import PerformanceTier
from repro.simssd.device import SimDevice
from repro.simssd.fs import SimFilesystem
from repro.simssd.traffic import TrafficKind


class HyperDB(KVStore):
    """The paper's hybrid key-value store over two simulated devices."""

    name = "hyperdb"

    def __init__(
        self,
        nvme_device: SimDevice,
        sata_device: SimDevice,
        config: HyperDBConfig,
    ) -> None:
        self.config = config
        self.nvme_device = nvme_device
        self.sata_device = sata_device
        self.cache = LRUCache(config.dram_cache_bytes)
        self.stats = StatsRegistry()
        self._seqno = 0

        self.performance_tier = PerformanceTier(
            nvme_device, config.key_space, config.nvme, cache=self.cache
        )
        #: Keys whose *newest* copy may have been lost to media corruption:
        #: a dropped non-promoted slot, or a dropped capacity block's key
        #: with no NVMe resident (:meth:`_on_corrupt_slot`,
        #: :meth:`_on_corrupt_semi_block`).  The cluster's anti-entropy pass
        #: drains this to re-replicate from healthy replicas; single-node
        #: callers can inspect it — the loss is recorded, never hidden.
        self.suspect_keys: list[bytes] = []
        for p in self.performance_tier.partitions:
            p.on_corrupt_slot = self._on_corrupt_slot

        sata_fs = SimFilesystem(sata_device)
        semi_cfg = SemiLevelConfig(
            key_space=config.key_space,
            num_levels=config.semi_num_levels,
            size_ratio=config.semi_size_ratio,
            bottom_segments=config.semi_bottom_segments,
            level1_target_bytes=config.semi_level1_target_bytes,
        )
        self.capacity_tier = CapacityTier(
            sata_fs,
            semi_cfg,
            depth=config.compaction_depth,
            t_clean=config.t_clean,
            space_amp_limit=config.space_amp_limit,
            candidate_k=config.candidate_k,
            rng=np.random.default_rng(config.rng_seed),
            cache=self.cache,
        )
        self.capacity_tier.levels.on_corrupt_block = self._on_corrupt_semi_block
        self.migration = MigrationScheduler(self.performance_tier, self.capacity_tier)
        self.promotion = PromotionManager(
            self.performance_tier,
            cache_entries=OBJECT_CACHE_ENTRIES,
            on_pressure=self.migration.run_if_needed,
            stats=self.migration.stats,
        )
        #: Background integrity scrubber — None unless configured, so the
        #: write/read hot paths below never pay for it by default.
        self.scrubber = None
        if config.scrub is not None:
            from repro.scrub import Scrubber

            self.scrubber = Scrubber(self, config.scrub)

    # -------------------------------------------------------------- write
    #
    # One body per request (DESIGN.md §11): ``put`` / ``delete`` / ``get``
    # are batches of one, ``put_many`` / ``delete_many`` share
    # ``_write_many`` and ``get_many`` is the one read body, faults
    # included.  ``busy_out`` and ``capture_errors`` are ``KVStore``'s.

    def next_seqno(self) -> int:
        self._seqno += 1
        return self._seqno

    def put(self, key: bytes, value: bytes) -> float:
        return self.put_many((key,), (value,))[0]

    def delete(self, key: bytes) -> float:
        return self.delete_many((key,))[0]

    def put_many(self, keys, values, busy_out=None, capture_errors=False) -> list:
        """Insert or update: write to the NVMe tier, migrate if over watermark."""
        keys, values = paired_columns(keys, values)
        return self._write_many("puts", keys, values, False, busy_out, capture_errors)

    def delete_many(self, keys, busy_out=None, capture_errors=False) -> list:
        """Delete by writing a tombstone object into the NVMe tier; it
        shadows any SATA copy and migrates down like a normal object."""
        keys = list(keys)
        return self._write_many(
            "deletes", keys, repeat(b""), True, busy_out, capture_errors
        )

    def _write_many(
        self, counter_name, keys, values, deleted, busy_out, capture_errors
    ) -> list:
        """Per op: fail over while the NVMe device is OFFLINE, else the
        slot write and migration / scrub catch-up."""
        if not keys:
            return []
        nvme = self.nvme_device
        # Health is peeked per op only when windows can apply at all.
        guarded = nvme._health_guarded
        nvme_tr = nvme.traffic
        sata_tr = self.sata_device.traffic
        ops = self.stats.counter(counter_name)
        partition_for_key = self.performance_tier.partition_for_key
        invalidate = self.promotion.invalidate
        migration = self.migration
        scrubber = self.scrubber
        busy_append = busy_out.append if busy_out is not None else None
        fg = TrafficKind.FOREGROUND
        out = []
        append = out.append
        for key, value in zip(keys, values):
            ops.value += 1
            self._seqno += 1
            rec = Record(key, value, self._seqno, deleted)
            try:
                partition = partition_for_key(key)
                if guarded and nvme.health() is HealthState.OFFLINE:
                    service = self._failover_write(partition, rec)
                else:
                    service = partition.put(rec, fg)
                    invalidate(key)
                    if partition.over_high_watermark():
                        migration.run_if_needed()
                    if migration.has_catch_up and migration.capacity_online():
                        migration.run_catch_up()
                    if scrubber is not None and scrubber.has_catch_up:
                        scrubber.run_catch_up()
                append(service)
            except DeviceOfflineError as exc:
                if not capture_errors:
                    raise
                append(exc)
            if busy_append is not None:
                busy_append((nvme_tr._busy_s, sata_tr._busy_s))
        return out

    def _failover_write(self, partition, rec: Record) -> float:
        """NVMe OFFLINE: route the write to the capacity tier directly.

        The stale NVMe-resident copy (if any) is dropped from the in-memory
        index — no device I/O — so it cannot shadow the newer SATA version
        after recovery.  Promotions and migration stay paused; a SATA
        outage overlapping an NVMe outage leaves nowhere to write, so the
        ingest's :class:`DeviceOfflineError` propagates (the op is not
        acked).
        """
        service = self.capacity_tier.ingest([entry_of(rec)], TrafficKind.FOREGROUND)
        partition.drop_resident(rec.key)
        self.promotion.invalidate(rec.key)
        self.stats.counter("failover_writes").add()
        r = obs.RECORDER
        if r is not None:
            r.emit(
                "failover", t=self.sata_device.busy_seconds(),
                op="write", tier="sata",
            )
        return service

    # --------------------------------------------------------------- read

    def get(self, key: bytes) -> tuple[Optional[bytes], float]:
        return self.get_many((key,))[0]

    def get_many(self, keys, busy_out=None, capture_errors=False) -> list:
        """Point lookups: NVMe, then the promotion staging cache, then SATA.

        While the NVMe device is OFFLINE, reads fall through to the
        capacity tier — *except* for keys whose only copy is a
        non-promoted NVMe resident, which raise
        :class:`DeviceOfflineError` (honest unavailability; serving the
        older SATA version would be a stale read).  Promoted residents are
        authoritative on SATA and fall through safely.
        """
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        if not keys:
            return []
        nvme = self.nvme_device
        guarded = nvme._health_guarded
        nvme_tr = nvme.traffic
        sata_tr = self.sata_device.traffic
        gets = self.stats.counter("gets")
        # Hit counters are fetched lazily (get-or-create on first hit) so
        # the registry's contents and insertion order match a run of
        # batches of one, then memoized in locals: the registry lookup per
        # increment is measurable at batch frequency.
        counter = self.stats.counter
        nvme_hits = staging_hits = sata_hits = promotions_staged = None
        contains = self.config.key_space.contains
        partition_for_key = self.performance_tier.partition_for_key
        promo_lookup = self.promotion.lookup
        promo_stage = self.promotion.stage
        capacity_get = self.capacity_tier.get
        busy_append = busy_out.append if busy_out is not None else None
        out = []
        append = out.append
        for key in keys:
            gets.value += 1
            try:
                if not contains(key):
                    # Nothing outside the key space was ever stored.
                    result = (None, 0.0)
                else:
                    partition = partition_for_key(key)
                    offline = guarded and nvme.health() is HealthState.OFFLINE
                    rec, service = None, 0.0
                    if offline:
                        loc = partition.resident_location(key)
                        if loc is not None and not loc.promoted:
                            counter("failover_blocked_reads").add()
                            raise DeviceOfflineError(
                                f"key resident only on offline device "
                                f"{nvme.profile.name!r}"
                            )
                        counter("failover_reads").add()
                    else:
                        try:
                            rec, service = partition.get(key)
                        except CorruptionError:
                            pass  # the partition dropped the slot: a miss
                    staged = None if rec is not None else promo_lookup(key)
                    if rec is not None:
                        if nvme_hits is None:
                            nvme_hits = counter("nvme_hits")
                        nvme_hits.value += 1
                        result = (None if rec.is_tombstone else rec.value, service)
                    elif staged is not None:
                        if staging_hits is None:
                            staging_hits = counter("staging_hits")
                        staging_hits.value += 1
                        result = (
                            None if staged.is_tombstone else staged.value, service
                        )
                    else:
                        rec, s = capacity_get(key)
                        service += s
                        if rec is not None:
                            if sata_hits is None:
                                sata_hits = counter("sata_hits")
                            sata_hits.value += 1
                        if rec is None or rec.is_tombstone:
                            result = (None, service)
                        else:
                            # Promote if the tracker considers this object
                            # hot (§3.5) — but not while the fast tier is
                            # offline (nowhere to stage *to*).
                            if not offline and partition.tracker.is_hot(key):
                                promo_stage(rec)
                                if promotions_staged is None:
                                    promotions_staged = counter("promotions_staged")
                                promotions_staged.value += 1
                            result = (rec.value, service)
            except (DeviceOfflineError, CorruptionError) as exc:
                if not capture_errors:
                    raise
                result = exc
            append(result)
            if busy_append is not None:
                busy_append((nvme_tr._busy_s, sata_tr._busy_s))
        return out

    def _on_corrupt_semi_block(self, table, block, superseded=frozenset()) -> int:
        """A background capacity-tier read (compaction victim scan, merge
        survivor read, ride-along extraction) or a scrub pass hit a corrupt
        block — see :attr:`repro.lsm.semi.semisstable.SemiSSTable.on_corrupt_block`.

        Triage every record the block still holds against the NVMe tier so
        the block can be dropped without *silent* loss:

        * promoted resident — the NVMe copy is the same version; clearing
          its ``promoted`` flag makes it the single authoritative copy, and
          normal demotion re-writes the capacity twin later (repair with
          deferred I/O);
        * non-promoted resident — NVMe already holds a strictly newer
          version; the corrupt copy was superseded and loses nothing;
        * no resident — the newest copy is gone on this node: surfaced via
          ``suspect_keys`` for anti-entropy instead of hidden.

        Returns the number of keys surfaced.
        """
        self.stats.counter("semi_corrupt_blocks").add()
        tier = self.performance_tier
        rescued = harmless = lost = 0
        for key in table.keys_of_block(block):
            if key in superseded:
                continue
            partition = tier.partition_for_key(key)
            loc = partition.resident_location(key)
            if loc is None:
                self.suspect_keys.append(key)
                lost += 1
            elif loc.promoted:
                loc.promoted = False
                rescued += 1
            else:
                harmless += 1
        if rescued:
            self.stats.counter("semi_corrupt_rescued").add(rescued)
        if lost:
            self.stats.counter("semi_corrupt_lost").add(lost)
        r = obs.RECORDER
        if r is not None:
            r.emit(
                "semi_block_corruption", t=self.sata_device.busy_seconds(),
                table=table.table_id, block=block.block_id,
                rescued=rescued, superseded=harmless, lost=lost,
            )
        return lost

    def _on_corrupt_slot(self, key: bytes, promoted: bool) -> None:
        """A read, a relocation or the scrubber dropped a corrupt NVMe slot
        — see :attr:`repro.nvme.partition.Partition.on_corrupt_slot`.

        A promoted copy loses nothing: its authoritative twin is on the
        capacity tier, which serves the next read (and re-promotes the key
        once it is hot again, §3.5).  A non-promoted copy was the newest
        version, so the key is marked suspect.
        """
        self.stats.counter("nvme_corrupt_slots").add()
        if not promoted:
            self.suspect_keys.append(key)
        r = obs.RECORDER
        if r is not None:
            r.emit(
                "slot_corruption", t=self.nvme_device.busy_seconds(),
                promoted=promoted,
            )

    def scan(self, start: bytes, count: int) -> tuple[list[tuple[bytes, bytes]], float]:
        """Range scan, implemented as merged sequential point queries
        (§4.2: HyperDB's scan path; the layout difference between tiers
        precludes RocksDB-style prefetching)."""
        space = self.config.key_space
        if count <= 0 or (space.hi is not None and start >= space.hi):
            return [], 0.0
        start = max(start, space.lo)
        self.stats.counter("scans").add()
        busy_before = self.nvme_device.busy_seconds() + self.sata_device.busy_seconds()

        def nvme_stream() -> Iterator[tuple]:
            tier = self.performance_tier
            idx = tier.partitions.index(tier.partition_for_key(start))
            pos = start
            for partition in tier.partitions[idx:]:
                for key in partition.keys_in_range(pos, None):
                    try:
                        rec, _ = partition.get(key)
                    except CorruptionError:
                        continue  # the partition dropped the slot
                    if rec is not None:
                        yield rec.key, rec.seqno, rec.deleted, rec
                pos = partition.key_range.hi
                if pos is None:
                    break

        # Both sides are lazy: a record is read when the merge pulls it.
        sata_stream = keyed(self.capacity_tier.scan(start, count))

        out: list[tuple[bytes, bytes]] = []
        for item in merge_records([nvme_stream(), sata_stream], drop_tombstones=True):
            out.append((item[0], item[3].value))
            if len(out) >= count:
                break
        service = (
            self.nvme_device.busy_seconds()
            + self.sata_device.busy_seconds()
            - busy_before
        )
        return out, service

    # ------------------------------------------------------------- admin

    def devices(self) -> dict[str, SimDevice]:
        return {"nvme": self.nvme_device, "sata": self.sata_device}

    def scrub(self) -> bool:
        """Run one background integrity-scrub pass (requires
        ``config.scrub``).  Returns False when the pass was paused by a
        device health window; it then runs as catch-up after recovery."""
        if self.scrubber is None:
            raise ReproError("scrub requires HyperDBConfig.scrub to be set")
        return self.scrubber.run_pass()

    def finalize(self) -> None:
        self.promotion.drain()

    def checkpoint(self) -> float:
        """Back up every partition's index to NVMe (§3.1); returns the
        service time.  Call before a planned shutdown; :meth:`recover`
        rebuilds the in-memory indexes from the backups."""
        self.finalize()
        service = sum(p.checkpoint() for p in self.performance_tier.partitions)
        rec = obs.RECORDER
        if rec is not None:
            rec.emit(
                "checkpoint", t=self.nvme_device.busy_seconds(),
                partitions=len(self.performance_tier.partitions),
                service_s=service,
            )
        return service

    def recover(self, strict: bool = False) -> float:
        """Rebuild all partitions' in-memory state from their checkpoints
        (simulates a restart where DRAM content was lost but media
        survived).  Returns the service time.

        A partition whose checkpoint is missing or fails its CRC cannot be
        rebuilt; by default it degrades to an empty partition (counted in
        the ``degraded_partitions`` stat) so the rest of the store still
        opens.  With ``strict=True`` the failure propagates instead
        (:class:`RecoveryError` / :class:`CorruptionError`)."""
        service = 0.0
        degraded = 0
        for p in self.performance_tier.partitions:
            try:
                service += p.recover()
            except (CorruptionError, RecoveryError):
                if strict:
                    raise
                p.reset_state()
                degraded += 1
                self.stats.counter("degraded_partitions").add()
        rec = obs.RECORDER
        if rec is not None:
            rec.emit(
                "recovery", t=self.nvme_device.busy_seconds(),
                partitions=len(self.performance_tier.partitions),
                degraded=degraded, service_s=service,
            )
        return service

    # ----------------------------------------------------------- metrics

    def nvme_fill_fraction(self) -> float:
        return self.performance_tier.fill_fraction()

    def space_usage(self) -> dict[str, int]:
        """Bytes in use per device (Fig. 11b's space-usage series)."""
        return {
            "nvme": self.nvme_device.used_bytes,
            "sata": self.sata_device.used_bytes,
        }
