"""Watermark-driven zone demotion."""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.common.errors import DeviceOfflineError
from repro.health.state import HealthState
from repro.lsm.blocks import record_of
from repro.lsm.semi.engine import CapacityTier
from repro.nvme.partition import Partition
from repro.nvme.tier import PerformanceTier
from repro.simssd.traffic import TrafficKind


@dataclass
class MigrationStats:
    """What migration moved and what it cost."""

    demotion_jobs: int = 0
    demoted_objects: int = 0
    demoted_bytes: int = 0
    promoted_objects: int = 0
    promoted_bytes: int = 0
    #: Demotion jobs skipped or aborted because the capacity tier was
    #: OFFLINE; the partition was queued for catch-up instead.
    paused_jobs: int = 0
    #: Objects re-inserted into their partition after a collected zone's
    #: batch was rejected by an offline capacity tier.
    requeued_objects: int = 0
    #: Catch-up drains executed after the capacity tier recovered.
    catch_up_drains: int = 0


class MigrationScheduler:
    """Monitors NVMe capacity and demotes cold zones until the low watermark.

    Each partition has its own background migration job in the paper; the
    simulation runs them synchronously and lets the device time model account
    for the bandwidth they consume.

    Degraded mode: while the capacity device is in an OFFLINE health window
    no demotion runs — partitions above their watermark are queued, and the
    queue drains exactly once after recovery (:meth:`run_catch_up`).  A zone
    collected just before the window opened is put back whole, so demotion
    is always zone-atomic: fully migrated or fully resident.
    """

    def __init__(
        self,
        performance_tier: PerformanceTier,
        capacity_tier: CapacityTier,
        max_zones_per_job: int = 64,
    ) -> None:
        self.performance_tier = performance_tier
        self.capacity_tier = capacity_tier
        self.max_zones_per_job = max_zones_per_job
        self.stats = MigrationStats()
        #: Partition ids awaiting a catch-up demotion, in first-paused order.
        self._catch_up: list[int] = []

    # ------------------------------------------------------------- health

    def capacity_online(self) -> bool:
        """True unless the capacity device's next I/O would be rejected."""
        return self.capacity_tier.fs.device.health() is not HealthState.OFFLINE

    @property
    def has_catch_up(self) -> bool:
        return bool(self._catch_up)

    def _pause(self, partition: Partition) -> None:
        self.stats.paused_jobs += 1
        if partition.partition_id not in self._catch_up:
            self._catch_up.append(partition.partition_id)
        rec = obs.RECORDER
        if rec is not None:
            rec.emit(
                "migration_paused",
                t=self.performance_tier.device.busy_seconds(),
                partition=partition.partition_id,
                fill=round(partition.fill_fraction, 6),
            )

    def run_catch_up(self) -> int:
        """Drain queued demotions once the capacity tier is back online.

        The queue is taken whole before demoting, so one recovery drains it
        exactly once — repeated calls are no-ops until another outage
        queues new work.  Returns the number of zones demoted.
        """
        if not self._catch_up or not self.capacity_online():
            return 0
        queued, self._catch_up = self._catch_up, []
        self.stats.catch_up_drains += 1
        rec = obs.RECORDER
        if rec is not None:
            rec.emit(
                "migration_catchup",
                t=self.performance_tier.device.busy_seconds(),
                partitions=len(queued),
            )
        by_id = {p.partition_id: p for p in self.performance_tier.partitions}
        zones = 0
        for pid in queued:
            partition = by_id.get(pid)
            if partition is not None and partition.over_high_watermark():
                zones += self._demote_partition(partition)
        return zones

    # ----------------------------------------------------------- demotion

    def run_if_needed(self) -> int:
        """Demote from every partition above its high watermark.

        Returns the number of zones demoted.
        """
        zones = 0
        for partition in self.performance_tier.partitions:
            if partition.over_high_watermark():
                if not self.capacity_online():
                    self._pause(partition)
                    continue
                zones += self._demote_partition(partition)
        return zones

    def _demote_partition(self, partition: Partition) -> int:
        # One background migration job per partition invocation; a job may
        # demote many zones (up to max_zones_per_job) before it finishes.
        self.stats.demotion_jobs += 1
        zones = 0
        rec = obs.RECORDER
        device = self.performance_tier.device
        # Place this migration job on the least-busy background queue of
        # both tiers it moves data between (no-op on single-queue devices).
        device.begin_background_job(TrafficKind.MIGRATION)
        capacity_device = self.capacity_tier.fs.device
        if capacity_device is not device:
            capacity_device.begin_background_job(TrafficKind.MIGRATION)
        if rec is not None:
            rec.begin(
                "migration_job", t=device.busy_seconds(),
                fill=round(partition.fill_fraction, 6),
            )
        while (
            not partition.below_low_watermark() and zones < self.max_zones_per_job
        ):
            zone = partition.select_demotion_zone()
            if zone is None:
                break  # nothing left to demote (e.g. all data in the hot zone)
            try:
                batch, _ = partition.collect_zone(zone, TrafficKind.MIGRATION)
            except DeviceOfflineError:
                # The NVMe tier itself went offline at collection entry:
                # nothing was mutated (health epochs reject atomically).
                self._pause(partition)
                break
            nbytes = sum(len(e[3]) for e in batch)
            if batch:
                try:
                    self.capacity_tier.ingest(batch, TrafficKind.MIGRATION)
                except DeviceOfflineError:
                    # Capacity went offline between collection and ingest
                    # (ingest rejects atomically at its epoch entry).  Put
                    # the zone's objects back so it stays fully resident,
                    # and queue this partition for post-recovery catch-up.
                    for entry in batch:
                        partition.put(record_of(entry), TrafficKind.MIGRATION)
                    self.stats.requeued_objects += len(batch)
                    self._pause(partition)
                    break
                self.stats.demoted_objects += len(batch)
                self.stats.demoted_bytes += nbytes
            if rec is not None:
                rec.emit(
                    "zone_demotion", t=device.busy_seconds(),
                    objects=len(batch),
                    bytes=nbytes,
                )
            zones += 1
            if not batch and zone.object_count == 0 and partition.object_count() == 0:
                break
        if rec is not None:
            rec.end(
                "migration_job", t=device.busy_seconds(),
                zones=zones, fill=round(partition.fill_fraction, 6),
            )
        return zones
