"""Tier target: one two-device store under device outages and brownouts.

The store's NVMe and SATA devices share one :class:`FaultInjector`, and
its health windows are keyed on the injector's global I/O clock — so they
are positioned at fractions of the workload's I/O span, learned from a
fault-free probe run of the same op stream.  An optional planned restart
(checkpoint + recover) composes crash recovery into the soak, latent
bitflips plus a background scrubber compose media corruption into it, and
at the end the engine's migration catch-up must drain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.baselines.prismdb import PrismDBStore
from repro.chaos.fixtures import (
    NVME_PROFILE,
    SATA_PROFILE,
    Op,
    small_hyperdb_config,
)
from repro.chaos.soak import (
    SoakResult,
    Target,
    WindowSpec,
    batches,
    resolve_windows,
    send,
)
from repro.common.errors import ConfigError, CorruptionError, DeviceOfflineError
from repro.common.keys import encode_key
from repro.core.hyperdb import HyperDB
from repro.health.state import HealthState
from repro.nvme.config import NVMeConfig
from repro.scrub import ScrubConfig
from repro.simssd.device import SimDevice
from repro.simssd.faults import FaultInjector, FaultPlan
from repro.simssd.queues import QueueConfig

#: Low watermarks keep migration running throughout the soak, so the
#: capacity tier carries real traffic for the windows to bite on.
_WATERMARKS = {"high_watermark": 0.22, "low_watermark": 0.12}


@dataclass(frozen=True)
class TierScenario:
    """One seeded single-store soak: an engine, an op stream, windows."""

    name: str
    engine: str = "hyperdb"  # a key of _ENGINES
    num_ops: int = 0
    windows: tuple[WindowSpec, ...] = ()
    #: Op-stream fraction at which to checkpoint + recover.
    restart_frac: Optional[float] = None
    #: Submission queues per device (1 = classic single-timeline model).
    queue_count: int = 1
    #: Per-write probability of *latent* media corruption (flips stick on
    #: the medium and surface at read time as checksum failures).
    latent_rate: float = 0.0
    #: Distinct bits flipped per latent corruption event.
    latent_burst: int = 1
    #: Client ops between background scrub passes (0 = scrub disabled).
    scrub_interval: int = 0
    #: Distinct keys the op stream draws from.  A few-hundred-op stream
    #: over 2,000 keys almost never overwrites; a small universe is what
    #: makes a stale copy observable.
    key_universe: int = 2_000

    def target(self, seed: int, ops: list[Op]) -> "TierTarget":
        return TierTarget(self, seed, ops)


# ------------------------------------------------------------------ engines


def _build_hyperdb(nvme, sata, scenario: TierScenario) -> HyperDB:
    base = small_hyperdb_config()
    interval = scenario.scrub_interval
    return HyperDB(
        nvme,
        sata,
        replace(
            base,
            nvme=replace(base.nvme, **_WATERMARKS),
            scrub=ScrubConfig(interval_ops=interval) if interval else None,
        ),
    )


def _build_prismdb(nvme, sata, scenario: TierScenario) -> PrismDBStore:
    return PrismDBStore(nvme, sata, nvme_config=NVMeConfig(**_WATERMARKS))


def _hyperdb_recovery(db: HyperDB):
    ms = db.migration.stats
    return db.migration, {
        "failover_writes": db.stats.counter("failover_writes").value,
        "failover_reads": db.stats.counter("failover_reads").value,
        "paused_migrations": ms.paused_jobs,
        "requeued_objects": ms.requeued_objects,
        "catch_up_drains": ms.catch_up_drains,
    }


def _prismdb_recovery(db: PrismDBStore):
    return db, {
        "failover_writes": db.failover_writes,
        "paused_migrations": db.paused_demotions,
        "requeued_objects": db.requeued_objects,
        "catch_up_drains": db.catch_up_drains,
    }


#: engine -> (how to build it, how to read its recovery state: the object
#: with ``has_catch_up`` / ``run_catch_up()`` and its degraded-mode counts
#: by result-counter name).
_ENGINES = {
    "hyperdb": (_build_hyperdb, _hyperdb_recovery),
    "prismdb": (_build_prismdb, _prismdb_recovery),
}


# ------------------------------------------------------------------- target


class TierTarget(Target):
    unavailable = DeviceOfflineError
    detected = (CorruptionError,)
    counters = (
        "failover_writes", "failover_reads",
        "paused_migrations", "requeued_objects", "catch_up_drains", "restarts",
        "scrub_passes", "scrub_paused",
    )
    absorbers = ("failover_writes", "failover_reads", "paused_migrations")
    report = (
        "[{scenario}] {status} {engine}: {ops_issued} ops "
        "({writes_acked} writes acked, {reads_ok} reads ok, "
        "{unavailable_reads}r/{unavailable_writes}w unavailable), "
        "{keys_verified} keys verified (lost={lost_writes} "
        "stale={stale_reads} resurrected={resurrections})\n"
        "  degraded: failover_writes={failover_writes} "
        "failover_reads={failover_reads} offline_rejections[{reject}] "
        "brownout_ios[{brown}]\n"
        "  recovery: paused={paused_migrations} requeued={requeued_objects} "
        "catchup_drains={catch_up_drains} restarts={restarts} "
        "pump_ops={pump_ops}"
    )
    scrub_report = (
        "  scrub: passes={scrub_passes} detected={scrub_detected} "
        "repaired={scrub_repaired} unrecoverable={scrub_unrecoverable} "
        "paused={scrub_paused} latent_flips={latent_flips} "
        "corrupt_detected={corrupt_detected} excused={excused_losses}"
    )

    def __init__(self, scenario: TierScenario, seed: int, ops: list[Op]) -> None:
        build, self._recovery = _ENGINES[scenario.engine]

        def store(injector: FaultInjector):
            queues = (
                QueueConfig(queue_count=scenario.queue_count)
                if scenario.queue_count > 1
                else None
            )
            nvme = SimDevice(NVME_PROFILE, injector=injector, queues=queues)
            sata = SimDevice(SATA_PROFILE, injector=injector, queues=queues)
            return build(nvme, sata, scenario)

        # Probe run: same ops, no faults, to learn the global I/O span.
        probe = FaultInjector(FaultPlan(seed=seed))
        healthy = store(probe)
        for _, batch in batches(ops):
            send(healthy, batch)
        if probe.total_ios == 0:
            raise ConfigError(f"probe run of {scenario.name!r} issued no I/O")
        self.injector = FaultInjector(
            FaultPlan(
                seed=seed,
                health_windows=resolve_windows(scenario.windows, probe.total_ios),
                latent_bitflip_rate=scenario.latent_rate,
                latent_burst_bits=scenario.latent_burst,
            )
        )
        super().__init__(scenario, store(self.injector))
        self.engine = scenario.engine
        self.scrubber = getattr(self.store, "scrubber", None)
        self.restarts = 0

    def events(self):
        frac = self.scenario.restart_frac
        if frac is None:
            return {}
        return {int(self.scenario.num_ops * frac): [self._restart]}

    def _restart(self) -> None:
        try:
            self.store.checkpoint()
            self.store.recover()
            self.restarts += 1
        except DeviceOfflineError:
            # The restart landed inside a window: skip it (a planned
            # restart would not be attempted on a down tier).
            pass

    def suspect(self, key: bytes) -> bool:
        # Only consulted under latent injection: a mismatch on a key the
        # single-node store flagged is *detected* loss (it has no healthy
        # copy left, and says so — anti-entropy would heal it from a
        # replica); on any other key it is silent corruption and fails.
        return self.scenario.latent_rate > 0.0 and key in getattr(
            self.store, "suspect_keys", ()
        )

    def after_batch(self, count: int) -> None:
        if self.scrubber is not None:
            self.scrubber.maybe_run(count)

    def healthy(self) -> bool:
        return all(
            d.health() is HealthState.HEALTHY
            for d in self.store.devices().values()
        )

    def drain(self, result: SoakResult) -> None:
        owner, _ = self._recovery(self.store)
        if owner.has_catch_up:
            owner.run_catch_up()
        if owner.has_catch_up:
            result.violations.append("catch-up queue not empty after recovery")

    def scan(self, count: int):
        return self.store.scan(encode_key(0), count)[0]

    def collect(self, result: SoakResult) -> None:
        for name, dev in self.store.devices().items():
            result.offline_rejections[name] = dev.offline_rejections
            result.brownouts[name] = dev.brownout_ios
        result.counters.update(self._recovery(self.store)[1])
        result.counters["restarts"] = self.restarts
        result.latent_flips = self.injector.latent_bitflips
        if self.scrubber is not None:
            st = self.scrubber.stats
            result.report += "\n" + self.scrub_report
            result.scrub_detected = st.detected
            result.scrub_repaired = st.repaired
            result.scrub_unrecoverable = st.unrecoverable
            result.counters["scrub_passes"] = st.passes
            result.counters["scrub_paused"] = st.paused_passes

    def hyperdbs(self) -> list[HyperDB]:
        return [self.store] if isinstance(self.store, HyperDB) else []

    def check_effects(self, result: SoakResult) -> None:
        scenario = self.scenario
        # An NVMe outage must have been served from the capacity tier.
        nvme_offline = any(
            s.device == "nvme" and s.state is HealthState.OFFLINE
            for s in scenario.windows
        )
        if nvme_offline and result.counters["failover_writes"] == 0:
            result.violations.append("NVMe outage produced no failover writes")
        # Ledger sanity: busy time decomposes into latency + transfer exactly.
        for name, dev in self.store.devices().items():
            t = dev.traffic
            if abs(t.busy_seconds() - (t.latency_seconds() + t.transfer_seconds())) > 1e-6:
                result.violations.append(f"ledger of {name!r} lost time")
        if scenario.scrub_interval > 0 and result.counters["scrub_passes"] == 0:
            result.violations.append("scrubber was armed but never completed a pass")

    def busy_seconds(self) -> float:
        return sum(d.busy_seconds() for d in self.store.devices().values())
