"""Object promotion: SATA → object cache → hot zone (paper §3.5).

Hot objects read from the capacity tier first land in an in-memory object
cache; when evicted from it they are asynchronously flushed into their
partition's hot zone, marked with the *promotion* label so a later hot-zone
eviction can drop them without relocation (the SATA copy stays
authoritative).
"""

from __future__ import annotations

from repro import obs
from repro.common.cache import ObjectCache
from repro.common.records import Record
from repro.migration.scheduler import MigrationStats
from repro.nvme.tier import PerformanceTier
from repro.simssd.traffic import TrafficKind


class PromotionManager:
    """Stages hot SATA reads for asynchronous promotion."""

    def __init__(
        self,
        performance_tier: PerformanceTier,
        cache_entries: int = 256,
        on_pressure=None,
        stats: MigrationStats | None = None,
    ) -> None:
        self.performance_tier = performance_tier
        #: Where promotions are counted — HyperDB passes its migration
        #: scheduler's stats so both directions share one ledger.
        self.stats = stats if stats is not None else MigrationStats()
        self.cache = ObjectCache(cache_entries, on_evict=self._flush)
        #: Called when a promotion pushes a partition over its watermark —
        #: HyperDB wires this to the migration scheduler so promoted hot
        #: data displaces cold zones.
        self.on_pressure = on_pressure

    @property
    def promotions(self) -> int:
        return self.stats.promoted_objects

    @property
    def promoted_bytes(self) -> int:
        return self.stats.promoted_bytes

    def _flush(self, key: bytes, rec: Record) -> None:
        partition = self.performance_tier.partition_for_key(key)
        service = partition.promote(rec, TrafficKind.MIGRATION)
        if service >= 0:
            self.stats.promoted_objects += 1
            self.stats.promoted_bytes += rec.encoded_size
            trc = obs.RECORDER
            if trc is not None:
                trc.emit(
                    "promotion",
                    t=self.performance_tier.device.busy_seconds(),
                    bytes=rec.encoded_size,
                )
        if self.on_pressure is not None and partition.over_high_watermark():
            self.on_pressure()

    def stage(self, rec: Record) -> None:
        """Remember a hot object read from SATA for promotion."""
        self.cache.put(rec.key, rec)

    def offer(self, partition, rec: Record) -> bool:
        """Stage ``rec``, just read from SATA, if its partition's tracker
        considers it hot; returns whether it was staged."""
        if partition.tracker.is_hot(rec.key):
            self.stage(rec)
            return True
        return False

    def lookup(self, key: bytes) -> Record | None:
        """Serve a read from the staging cache (newest promoted copy)."""
        return self.cache.get(key)

    def invalidate(self, key: bytes) -> None:
        """Drop a staged copy (the object was overwritten)."""
        self.cache.pop(key)

    def drain(self) -> None:
        """Flush everything staged (used at shutdown / phase boundaries)."""
        self.cache.drain()
