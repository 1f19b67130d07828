"""Background integrity scrub: find corruption before a reader does
(DESIGN.md §13).

A real tiered KV store runs proactive media scrubbing as *background
traffic* — exactly the traffic class this paper models.  The
:class:`Scrubber` walks every persisted structure of a HyperDB instance —
NVMe zone slots, the capacity tier's semi-SSTable blocks, and the partition
index checkpoints — verifying checksums, charging its reads on the
dedicated ``TrafficKind.SCRUB`` lane (placed on background queues via
``SimDevice.begin_background_job``, like flush/compaction/migration/GC).

The scrubber finds corruption; it owns no repair policy.  A corrupt copy
goes to the engine's one triage for its tier — the same one reads, scans
and maintenance use:

* a corrupt zone slot is dropped through
  :meth:`repro.nvme.partition.Partition.drop_corrupt_slot`.  A promoted
  slot loses nothing: its authoritative twin is on the capacity tier, and
  the next hot read re-promotes it (§3.5).  A non-promoted slot was the
  newest copy, so its key becomes suspect;
* a corrupt semi-SSTable block is handed to
  :attr:`repro.lsm.semi.semisstable.SemiSSTable.on_corrupt_block` and
  retired, as a background read would.  Slots are scrubbed first, so a
  promoted resident the engine rescues (by clearing its flag) was just
  verified;
* a corrupt checkpoint is the one thing scrub rewrites: it is derived data,
  and its source — the live index — is in memory.

Suspect keys land in ``HyperDB.suspect_keys``, where the loss stays
visible to the caller.

Health discipline mirrors :class:`repro.migration.scheduler
.MigrationScheduler`: a pass does not start (and an in-flight pass aborts)
while either device is in a BROWNOUT/OFFLINE window; the missed pass is
queued and drained exactly once after recovery (:meth:`Scrubber
.run_catch_up`).

Digest discipline: nothing here runs unless a scrubber is constructed and
explicitly driven, so with scrub disabled every existing digest stays
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.common.errors import CorruptionError, DeviceOfflineError
from repro.health.state import HealthState
from repro.lsm.blocks import payload_entries
from repro.nvme.checkpoint import PartitionCheckpoint
from repro.simssd.traffic import TrafficKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hyperdb import HyperDB
    from repro.lsm.semi.semisstable import SemiSSTable
    from repro.nvme.partition import Partition


@dataclass(frozen=True)
class ScrubConfig:
    """Tuning of one scrubber."""

    #: Cadence hint for drivers: trigger a pass every this many client ops
    #: (:meth:`Scrubber.maybe_run`).  The scrubber itself never self-fires.
    interval_ops: int = 500

    def __post_init__(self) -> None:
        if self.interval_ops <= 0:
            raise ValueError(
                f"interval_ops must be positive, got {self.interval_ops}"
            )


@dataclass
class ScrubStats:
    """What scrubbing scanned, found, and rewrote."""

    passes: int = 0
    zone_slots_scanned: int = 0
    semi_blocks_scanned: int = 0
    checkpoints_scanned: int = 0
    #: Checksum mismatches found (all surfaces).
    detected: int = 0
    #: Corrupt checkpoints rewritten from the live index.
    repaired: int = 0
    #: Keys whose newest copy this node lost (each one is also appended to
    #: ``HyperDB.suspect_keys``).
    unrecoverable: int = 0
    #: Passes skipped because a device was in a health window.
    paused_passes: int = 0
    #: Catch-up drains executed after health recovered.
    catch_up_drains: int = 0


class Scrubber:
    """Deterministic background integrity scrub for one HyperDB instance."""

    def __init__(self, db: "HyperDB", config: Optional[ScrubConfig] = None) -> None:
        self.db = db
        self.config = config or ScrubConfig()
        self.stats = ScrubStats()
        self._catch_up_pending = False
        self._ops_since_pass = 0

    # ------------------------------------------------------------- health

    def devices_healthy(self) -> bool:
        """True when neither device sits in a BROWNOUT/OFFLINE window."""
        return (
            self.db.nvme_device.health() is HealthState.HEALTHY
            and self.db.sata_device.health() is HealthState.HEALTHY
        )

    @property
    def has_catch_up(self) -> bool:
        return self._catch_up_pending

    def _pause(self) -> None:
        self.stats.paused_passes += 1
        self._catch_up_pending = True
        rec = obs.RECORDER
        if rec is not None:
            rec.emit(
                "scrub_paused", t=self.db.nvme_device.busy_seconds(),
            )

    def run_catch_up(self) -> bool:
        """Run the one pass that was paused by a health window.

        Mirrors migration catch-up: the pending flag is cleared before the
        pass, so one recovery drains it exactly once.  Returns True when a
        pass ran.
        """
        if not self._catch_up_pending or not self.devices_healthy():
            return False
        self._catch_up_pending = False
        self.stats.catch_up_drains += 1
        rec = obs.RECORDER
        if rec is not None:
            rec.emit(
                "scrub_catchup", t=self.db.nvme_device.busy_seconds(),
            )
        return self.run_pass()

    # -------------------------------------------------------------- passes

    def maybe_run(self, ops: int = 1) -> bool:
        """Account ``ops`` client operations; run a pass at the configured
        cadence.  Returns True when a pass ran."""
        self._ops_since_pass += ops
        if self._ops_since_pass < self.config.interval_ops:
            return False
        self._ops_since_pass = 0
        return self.run_pass()

    def run_pass(self) -> bool:
        """One full scrub pass over every persisted structure.

        Returns False when the pass was paused (device in a health window
        at entry, or a device went OFFLINE mid-pass); the pass is queued
        for :meth:`run_catch_up` either way.
        """
        if not self.devices_healthy():
            self._pause()
            return False
        db = self.db
        rec = obs.RECORDER
        if rec is not None:
            rec.begin(
                "scrub_pass", t=db.nvme_device.busy_seconds(),
                passes=self.stats.passes,
            )
        detected_before = self.stats.detected
        repaired_before = self.stats.repaired
        try:
            for partition in db.performance_tier.partitions:
                self._scrub_partition(partition)
            self._scrub_capacity()
            for partition in db.performance_tier.partitions:
                self._scrub_checkpoint(partition)
        except DeviceOfflineError:
            # A health window opened mid-pass: abort and queue a catch-up,
            # exactly like a migration job interrupted by an outage.
            self._pause()
            if rec is not None:
                rec.end(
                    "scrub_pass", t=db.nvme_device.busy_seconds(),
                    aborted=True,
                )
            return False
        self.stats.passes += 1
        if rec is not None:
            rec.end(
                "scrub_pass", t=db.nvme_device.busy_seconds(),
                detected=self.stats.detected - detected_before,
                repaired=self.stats.repaired - repaired_before,
            )
        return True

    # ---------------------------------------------------- NVMe zone slots

    def _scrub_partition(self, partition: "Partition") -> None:
        """Verify every resident slot of one partition's zones.

        One background job per partition: the zone image is read as bulk
        SCRUB traffic (one I/O per page, like migration's collect), then
        each slot passes :meth:`repro.nvme.zone.Zone.verified_slot`, the
        rule reads and relocations use.
        """
        device = partition.page_store.device
        device.begin_background_job(TrafficKind.SCRUB)
        store = partition.page_store
        for zone in [partition.hot_zone] + partition.zones():
            page_ids = zone.page_ids()
            if not page_ids:
                continue
            store.read_many(page_ids, TrafficKind.SCRUB)
            for key in sorted(zone.keys):
                loc = partition.index.get(key)
                if loc is None or loc.zone_id != zone.zone_id:
                    continue
                self.stats.zone_slots_scanned += 1
                try:
                    zone.verified_slot(loc)
                except CorruptionError:
                    self._detect("zone_slot", key=key)
                    partition.drop_corrupt_slot(zone, key, loc)
                    if not loc.promoted:
                        self.stats.unrecoverable += 1

    # ------------------------------------------------- capacity-tier walk

    def _scrub_capacity(self) -> None:
        tier = self.db.capacity_tier
        device = tier.fs.device
        levels = tier.levels
        for level_no in range(1, levels.num_levels + 1):
            lvl = levels.level(level_no)
            for seg in sorted(lvl.tables):
                table = lvl.tables[seg]
                if table.num_valid_records == 0:
                    continue
                # One scrub job per table (job granularity mirrors one
                # migration job per partition).
                device.begin_background_job(TrafficKind.SCRUB)
                self._scrub_semi_table(table)

    def _scrub_semi_table(self, table: "SemiSSTable") -> None:
        for block in list(table.blocks):
            if block.is_dead:
                continue
            self.stats.semi_blocks_scanned += 1
            try:
                # Full media check: the CRC, then every record header (other
                # readers decode only what the index points at; scrub's job
                # is the medium), read from the media, not the cache.
                payload, _ = table._read_block(block, TrafficKind.SCRUB)
                payload_entries(payload)
            except CorruptionError:
                self._detect("semi_block", table=table.table_id, block=block.block_id)
                lost = table.on_corrupt_block(table, block, frozenset())
                table._kill_block(block)
                self.stats.unrecoverable += lost

    # --------------------------------------------------------- checkpoints

    def _scrub_checkpoint(self, partition: "Partition") -> None:
        if not partition._checkpoint_pages:
            return
        self.stats.checkpoints_scanned += 1
        partition.page_store.device.begin_background_job(TrafficKind.SCRUB)
        try:
            PartitionCheckpoint.read_image(partition, TrafficKind.SCRUB)
        except CorruptionError:
            self._detect("checkpoint", partition=partition.partition_id)
            # The live in-memory index is the authoritative source; the
            # checkpoint is a derived backup — rewrite it.
            partition.checkpoint(kind=TrafficKind.SCRUB)
            self._repair("checkpoint_rewrite", partition=partition.partition_id)

    # ----------------------------------------------------------- plumbing

    def _detect(self, surface: str, **fields) -> None:
        self.stats.detected += 1
        rec = obs.RECORDER
        if rec is not None:
            rec.emit(
                "scrub_detect", t=self.db.nvme_device.busy_seconds(),
                surface=surface,
                **{k: _printable(v) for k, v in fields.items()},
            )

    def _repair(self, how: str, **fields) -> None:
        self.stats.repaired += 1
        rec = obs.RECORDER
        if rec is not None:
            rec.emit(
                "scrub_repair", t=self.db.nvme_device.busy_seconds(),
                how=how, **{k: _printable(v) for k, v in fields.items()},
            )


def _printable(v):
    return v.hex() if isinstance(v, (bytes, bytearray)) else v
