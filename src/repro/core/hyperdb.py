"""The HyperDB engine (paper §3): the policies it runs the shared tiered
body (:class:`repro.core.tiered.TieredStore`) with.

* NVMe layout: range partitions of key-ordered zones, each zone's objects
  in slots (in place for small updates), plus a hot zone.
* Demotion victim: when a partition crosses its high watermark, its zone
  with the best cost-benefit score (§3.5), down to the low watermark.
* Capacity tier: the semi-SSTable levels, whose L1 absorbs demoted zones
  with block-granularity merges while preemptive block compaction keeps
  deeper levels in shape.
* Promotion: a hot (``tracker.is_hot``) capacity-tier read is staged in an
  object cache, then flushed into the hot zone with a *promotion* label.
* NVMe copy during an outage: a promoted resident falls through to SATA,
  and a corrupt slot is dropped and counts as a miss.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro import obs
from repro.common.errors import CorruptionError, RecoveryError, ReproError
from repro.core.config import HyperDBConfig
from repro.core.tiered import TieredStore
from repro.lsm.blocks import Entry
from repro.lsm.semi.engine import CapacityTier
from repro.lsm.semi.levels import SemiLevelConfig
from repro.migration.promotion import PromotionManager
from repro.migration.scheduler import MigrationScheduler
from repro.nvme.config import OBJECT_CACHE_ENTRIES
from repro.nvme.tier import PerformanceTier
from repro.simssd.device import SimDevice
from repro.simssd.fs import SimFilesystem

#: Seed of the capacity tier's compaction-victim sampling.
RNG_SEED = 0


class HyperDB(TieredStore):
    """The paper's hybrid key-value store over two simulated devices."""

    name = "hyperdb"

    def __init__(
        self,
        nvme_device: SimDevice,
        sata_device: SimDevice,
        config: HyperDBConfig,
    ) -> None:
        super().__init__(nvme_device, sata_device, config.dram_cache_bytes)
        self.config = config
        self.key_space = config.key_space

        self.performance_tier = PerformanceTier(
            nvme_device, config.key_space, config.nvme, cache=self.cache
        )
        #: Keys whose *newest* copy may have been lost to media corruption:
        #: a dropped non-promoted slot, or a dropped capacity block's key
        #: with no NVMe resident (:meth:`_on_corrupt_slot`,
        #: :meth:`_on_corrupt_semi_block`).  Callers (the chaos soak's
        #: oracle, tests) inspect it: the loss is recorded, never hidden.
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
            candidate_k=config.candidate_k,
            rng=np.random.default_rng(RNG_SEED),
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
        #: write/read hot paths never pay for it by default.
        if config.scrub is not None:
            from repro.scrub import Scrubber

            self.scrubber = Scrubber(self, config.scrub)

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
        * no resident — the newest copy is gone: surfaced via
          ``suspect_keys`` instead of hidden.

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

    def _nvme_scan(self, start: bytes) -> Iterator[Entry]:
        """The partitions' resident entries from ``start`` on, in key order
        (§4.2: merged sequential point queries; the layout difference
        between tiers precludes RocksDB-style prefetching)."""
        tier = self.performance_tier
        idx = tier.partitions.index(tier.partition_for_key(start))
        pos = start
        for partition in tier.partitions[idx:]:
            for key in partition.keys_in_range(pos, None):
                try:
                    entry, _ = partition.get_entry(key)
                except CorruptionError:
                    continue  # the partition dropped the slot
                if entry is not None:
                    yield entry
            pos = partition.key_range.hi
            if pos is None:
                break

    # ------------------------------------------------------------- admin

    def scrub(self) -> bool:
        """Run one background integrity-scrub pass (requires
        ``config.scrub``).  Returns False when the pass was paused by a
        device health window; it then runs as catch-up after recovery."""
        if self.scrubber is None:
            raise ReproError("scrub requires HyperDBConfig.scrub to be set")
        return self.scrubber.run_pass()

    def finalize(self) -> None:
        """Drain the promotion staging cache, then commit the NVMe write
        window, so every acked put is on media."""
        self.promotion.drain()
        self.performance_tier.page_store.commit()

    def checkpoint(self) -> float:
        """Back up every partition's index to NVMe (§3.1); returns the
        service time.  Call before a planned shutdown; :meth:`recover`
        rebuilds the in-memory indexes from the backups.  The staged
        promotions drain and the NVMe write window commits first; the
        device time of both, and of any migration the drain sets off, is
        the checkpoint's."""
        busy_before = self.nvme_device.busy_seconds() + self.sata_device.busy_seconds()
        self.promotion.drain()
        tier = self.performance_tier
        tier.page_store.commit()
        for p in tier.partitions:
            p.checkpoint()
        service = (
            self.nvme_device.busy_seconds()
            + self.sata_device.busy_seconds()
            - busy_before
        )
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
        (:class:`RecoveryError` / :class:`CorruptionError`).  The NVMe
        write window is forgotten unwritten: it lived in the lost DRAM."""
        self.performance_tier.page_store.discard()
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
