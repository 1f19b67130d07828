"""Background integrity scrub & repair: turn silent corruption into healed
corruption (DESIGN.md §13).

A real tiered KV store runs proactive media scrubbing as *background
traffic* — exactly the traffic class this paper models.  The
:class:`Scrubber` walks every persisted structure of a HyperDB instance —
NVMe zone slots, the partition index checkpoints, and the capacity tier's
semi-SSTable blocks — verifying checksums, charging its reads on the
dedicated ``TrafficKind.SCRUB`` lane (placed on background queues via
``SimDevice.begin_background_job``, like flush/compaction/migration/GC).

On detection, a **repair escalation ladder** heals instead of drops:

1. *re-read with retry* — a transient read error clears; stuck-on-media
   corruption (the simulator's latent bit-flips land at write time) does
   not, and escalates;
2. *rebuild from the redundant tier copy* — a ``promoted`` NVMe resident
   has its authoritative twin in the capacity tier (and vice versa: a
   corrupt capacity block whose keys are promoted-resident on NVMe is
   rebuilt from those residents via the normal ``merge_append`` machinery);
3. *rewrite from live state* — partition index checkpoints are derived
   data whose authoritative source (the live index) is still in memory,
   so a corrupt checkpoint is simply re-written;
4. *count as unrecoverable* — when no intact copy exists on this node, the
   loss is surfaced (``unrecoverable_keys``) instead of hidden; at cluster
   level an anti-entropy pass re-replicates those keys from healthy
   replicas (:meth:`repro.cluster.router.HyperDBCluster.anti_entropy`).

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

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.common.errors import CorruptionError, DeviceOfflineError
from repro.common.records import Record
from repro.health.state import HealthState
from repro.lsm.blocks import decode_one, decode_payload
from repro.simssd.traffic import TrafficKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hyperdb import HyperDB
    from repro.lsm.semi.semisstable import SemiBlock, SemiSSTable
    from repro.nvme.partition import Partition
    from repro.nvme.zone import SlotLocation, Zone


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
    """What scrubbing scanned, found, and healed."""

    passes: int = 0
    zone_slots_scanned: int = 0
    semi_blocks_scanned: int = 0
    checkpoints_scanned: int = 0
    #: Checksum mismatches found (all surfaces).
    detected: int = 0
    #: Objects/structures healed from a redundant copy or live state.
    repaired: int = 0
    #: Corrupt copies proven superseded by a newer intact copy (dropping
    #: them loses nothing).
    harmless: int = 0
    #: Objects with no intact copy left on this node.
    unrecoverable: int = 0
    #: Slots whose checksum was unknown (post-checkpoint-recovery) and was
    #: re-derived after metadata cross-checks.
    reprotected_slots: int = 0
    #: Passes skipped because a device was in a health window.
    paused_passes: int = 0
    #: Catch-up drains executed after health recovered.
    catch_up_drains: int = 0
    #: Keys counted unrecoverable, in detection order — the anti-entropy
    #: pass re-replicates exactly these from healthy replicas.
    unrecoverable_keys: list[bytes] = field(default_factory=list)


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
        each slot is checked against its index-held CRC.
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
                raw = store.peek(loc.page_id, loc.offset, loc.record_size)
                if loc.crc is not None:
                    if zlib.crc32(raw) == loc.crc:
                        continue
                    self._repair_slot(partition, zone, key, loc)
                else:
                    # Post-checkpoint-recovery slot: the stored checksum
                    # was not part of the media image.  Cross-check every
                    # field the index does know before re-deriving
                    # protection from the media bytes.
                    ok = False
                    try:
                        rec = decode_one(raw)
                        ok = rec.key == key and rec.seqno == loc.seqno
                    except CorruptionError:
                        ok = False
                    if ok:
                        loc.crc = zlib.crc32(raw)
                        self.stats.reprotected_slots += 1
                    else:
                        self._repair_slot(partition, zone, key, loc)

    def _repair_slot(
        self,
        partition: "Partition",
        zone: "Zone",
        key: bytes,
        loc: "SlotLocation",
    ) -> None:
        """Escalation ladder for one corrupt zone slot."""
        self._detect("zone_slot", key=key)
        # Ladder step 1: one charged re-read before rebuilding from
        # redundancy.
        data, _ = partition.page_store.read(loc.page_id, TrafficKind.SCRUB)
        raw = data[loc.offset : loc.offset + loc.record_size]
        if loc.crc is not None and zlib.crc32(raw) == loc.crc:
            self._repair("zone_slot_reread", key=key)
            return
        if loc.promoted:
            # The authoritative copy lives in the capacity tier: drop the
            # corrupt resident and re-promote the intact twin.
            partition.drop_resident(key)
            try:
                rec, _ = self.db.capacity_tier.get(key, TrafficKind.SCRUB)
            except CorruptionError:
                rec = None
            if rec is not None and not rec.is_tombstone:
                partition.promote(rec, TrafficKind.SCRUB)
                self._repair("zone_slot_from_capacity", key=key)
            else:
                self._unrecoverable(key)
        else:
            # The corrupt slot held the newest version; any capacity copy
            # is older.  Drop it so readers get the older intact version
            # (or a replica's copy) instead of a checksum error, and
            # surface the loss for anti-entropy.
            partition.drop_resident(key)
            self._unrecoverable(key)

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
                self._check_semi_block(table, block)
            except CorruptionError:
                self._repair_semi_block(table, block)

    @staticmethod
    def _check_semi_block(table: "SemiSSTable", block: "SemiBlock") -> None:
        """Full media check of one block — the CRC, then every record header
        (other readers decode only what the index points at; scrub's job is
        the medium).  Raises :class:`CorruptionError`."""
        # cache=None: scrub must read the media, not the page cache.
        payload, _ = table._read_block(block, TrafficKind.SCRUB, cache=None)
        decode_payload(payload)

    def _repair_semi_block(self, table: "SemiSSTable", block: "SemiBlock") -> None:
        """Escalation ladder for one corrupt semi-SSTable block."""
        self._detect("semi_block", table=table.table_id, block=block.block_id)
        try:
            self._check_semi_block(table, block)
            self._repair("semi_block_reread", table=table.table_id)
            return
        except CorruptionError:
            pass
        # Per-key triage of the block's valid records against the NVMe tier.
        lost = table.keys_of_block(block)
        tier = self.db.performance_tier
        healed: list[Record] = []
        for key in lost:
            partition = tier.partition_for_key(key)
            loc = partition.resident_location(key)
            if loc is None:
                self._unrecoverable(key)
                continue
            if not loc.promoted:
                # NVMe holds a strictly newer version: the corrupt capacity
                # copy was already superseded; dropping it loses nothing.
                self.stats.harmless += 1
                continue
            # Promoted resident: NVMe holds the same version — rebuild the
            # capacity copy from it (index-directed read, no tracker touch).
            try:
                rec, _ = partition._zone_by_id(loc.zone_id).read_object(
                    loc, TrafficKind.SCRUB, None
                )
            except CorruptionError:
                # Both copies rotted: drop the NVMe one too and surface.
                partition.drop_resident(key)
                self._unrecoverable(key)
                continue
            healed.append(Record(key, rec.value, rec.seqno, rec.deleted))
        table._kill_block(block)
        if healed:
            healed.sort(key=lambda r: r.key)
            table.merge_append(healed, TrafficKind.SCRUB)
            self._repair(
                "semi_block_from_nvme", count=len(healed),
                table=table.table_id, records=len(healed),
            )

    # --------------------------------------------------------- checkpoints

    def _scrub_checkpoint(self, partition: "Partition") -> None:
        if not partition._checkpoint_pages:
            return
        self.stats.checkpoints_scanned += 1
        store = partition.page_store
        store.device.begin_background_job(TrafficKind.SCRUB)
        chunks = []
        for pid in partition._checkpoint_pages:
            data, _ = store.read(pid, TrafficKind.SCRUB)
            chunks.append(data)
        image = b"".join(chunks)[: partition._checkpoint_len]
        if len(image) >= 8:
            payload, footer = image[:-4], image[-4:]
            ok = zlib.crc32(payload) == int.from_bytes(footer, "big")
        else:
            ok = False
        if ok:
            return
        self._detect("checkpoint", partition=partition.partition_id)
        # The live in-memory index is the authoritative source; the
        # checkpoint is a derived backup — rewrite it.
        partition.checkpoint(kind=TrafficKind.SCRUB)
        self._repair("checkpoint_rewrite", partition=partition.partition_id)

    # ----------------------------------------------------------- plumbing

    def _detect(self, surface: str, **fields) -> None:
        self.stats.detected += 1
        self.db.stats.counter("scrub_detected").add()
        rec = obs.RECORDER
        if rec is not None:
            rec.emit(
                "scrub_detect", t=self.db.nvme_device.busy_seconds(),
                surface=surface,
                **{k: _printable(v) for k, v in fields.items()},
            )

    def _repair(self, how: str, count: int = 1, **fields) -> None:
        self.stats.repaired += count
        self.db.stats.counter("scrub_repaired").add(count)
        rec = obs.RECORDER
        if rec is not None:
            rec.emit(
                "scrub_repair", t=self.db.nvme_device.busy_seconds(),
                how=how, **{k: _printable(v) for k, v in fields.items()},
            )

    def _unrecoverable(self, key: bytes) -> None:
        self.stats.unrecoverable += 1
        self.stats.unrecoverable_keys.append(key)
        self.db.suspect_keys.append(key)
        self.db.stats.counter("scrub_unrecoverable").add()
        rec = obs.RECORDER
        if rec is not None:
            rec.emit(
                "scrub_unrecoverable", t=self.db.nvme_device.busy_seconds(),
                key=_printable(key),
            )


def _printable(v):
    return v.hex() if isinstance(v, (bytes, bytearray)) else v
