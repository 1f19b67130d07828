"""The soak target: one two-device store under device outages and
brownouts.

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
from typing import Callable, Iterator, Optional, Sequence

from repro.baselines.prismdb import PrismDBStore
from repro.chaos.fixtures import (
    NVME_PROFILE,
    SATA_PROFILE,
    Op,
    small_hyperdb_config,
)
from repro.common.errors import ConfigError, DeviceOfflineError
from repro.common.keys import encode_key
from repro.core.hyperdb import HyperDB
from repro.health.state import HealthState, HealthWindow
from repro.nvme.config import NVMeConfig
from repro.scrub import ScrubConfig
from repro.simssd.device import SimDevice
from repro.simssd.faults import FaultInjector, FaultPlan
from repro.simssd.queues import QueueConfig

#: Low watermarks keep migration running throughout the soak, so the
#: capacity tier carries real traffic for the windows to bite on.
_WATERMARKS = {"high_watermark": 0.22, "low_watermark": 0.12}


@dataclass(frozen=True)
class WindowSpec:
    """A health window positioned at fractions of the run's span: the
    probe run's I/O count."""

    #: Device name: ``"nvme"`` or ``"sata"``.
    device: str
    state: HealthState
    start_frac: float
    end_frac: float
    latency_multiplier: float = 1.0
    #: Target a single submission queue instead of the whole device
    #: (requires the scenario to run with ``queue_count > 1``).
    queue: Optional[int] = None


def resolve_windows(
    specs: Sequence[WindowSpec], span: int
) -> tuple[HealthWindow, ...]:
    """Window fractions → 1-based ordinals on a clock of ``span`` ticks."""
    windows = []
    for spec in specs:
        start = max(1, int(span * spec.start_frac))
        end = max(start + 1, int(span * spec.end_frac))
        windows.append(
            HealthWindow(
                device=spec.device,
                state=spec.state,
                start_io=start,
                end_io=end,
                latency_multiplier=spec.latency_multiplier,
                queue=spec.queue,
            )
        )
    return tuple(windows)


def batches(ops: Sequence[Op], cuts=()) -> Iterator[tuple[int, Sequence[Op]]]:
    """``(start ordinal, ops)`` runs of consecutive same-type ops, ending
    early at every ordinal in ``cuts``."""
    i, n = 0, len(ops)
    while i < n:
        j = i + 1
        while j < n and ops[j][0] == ops[i][0] and j not in cuts:
            j += 1
        yield i, ops[i:j]
        i = j


def send(store, batch: Sequence[Op]) -> list:
    """One same-type batch through the store's batch API; per-op
    rejections come back as result slots, in op order."""
    op = batch[0][0]
    keys = [k for _, k, _ in batch]
    if op == "put":
        return store.put_many(keys, [v for _, _, v in batch], capture_errors=True)
    if op == "del":
        return store.delete_many(keys, capture_errors=True)
    return store.get_many(keys, capture_errors=True)


@dataclass(frozen=True)
class TierScenario:
    """One seeded single-store soak: an engine, an op stream, windows."""

    name: str
    engine: str = "hyperdb"  # a key of _ENGINES
    num_ops: int = 0
    windows: tuple[WindowSpec, ...] = ()
    #: Op-stream fraction at which to checkpoint + recover.
    restart_frac: Optional[float] = None
    #: Submission queues per device.
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


#: engine -> how to build it.
_ENGINES = {"hyperdb": _build_hyperdb, "prismdb": _build_prismdb}


# ------------------------------------------------------------------- target


class TierTarget:
    """A store under soak, built from one :class:`TierScenario`: the
    ``KVStore`` batch calls and ``put`` on ``store``, and what the driver
    asks of it besides.  The store raises :class:`DeviceOfflineError` for
    an op it rejects without mutating anything, and
    :class:`CorruptionError` for a read whose checksum failed — detected,
    never silent, corruption."""

    #: Names of the target's own counters (keys of ``SoakResult.counters``),
    #: and which of them show the store visibly routing around an outage.
    counters = (
        "failover_writes", "failover_reads",
        "paused_migrations", "catch_up_drains", "restarts",
        "scrub_passes", "scrub_paused",
    )
    absorbers = ("failover_writes", "failover_reads", "paused_migrations")
    #: ``str.format`` template of the report lines; ``collect`` appends
    #: ``scrub_report`` to the result's copy when scrubbing was in play.
    report = (
        "[{scenario}] {status} {engine}: {ops_issued} ops "
        "({writes_acked} writes acked, {reads_ok} reads ok, "
        "{unavailable_reads}r/{unavailable_writes}w unavailable), "
        "{keys_verified} keys verified (lost={lost_writes} "
        "stale={stale_reads} resurrected={resurrections})\n"
        "  degraded: failover_writes={failover_writes} "
        "failover_reads={failover_reads} offline_rejections[{reject}] "
        "brownout_ios[{brown}]\n"
        "  recovery: paused={paused_migrations} "
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
        build = _ENGINES[scenario.engine]

        def store(injector: FaultInjector):
            queues = QueueConfig(queue_count=scenario.queue_count)
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
        self.scenario = scenario
        self.store = store(self.injector)
        self.engine = scenario.engine
        self.scrubber = getattr(self.store, "scrubber", None)
        self.restarts = 0

    def events(self) -> dict[int, list[Callable[[], None]]]:
        """Scheduled mid-stream events: op ordinal → calls to make before
        that op is issued (a batch never spans an event)."""
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
        """Has the store flagged ``key`` as a corruption casualty?"""
        # Only consulted under latent injection: a mismatch on a key the
        # store flagged is *detected* loss (it has no healthy copy left,
        # and says so); on any other key it is silent corruption and fails.
        return self.scenario.latent_rate > 0.0 and key in getattr(
            self.store, "suspect_keys", ()
        )

    def after_batch(self, count: int) -> None:
        """``count`` client ops were just issued in one batch."""
        if self.scrubber is not None:
            self.scrubber.maybe_run(count)

    def healthy(self) -> bool:
        return all(
            d.health() is HealthState.HEALTHY
            for d in self.store.devices().values()
        )

    def drain(self, result) -> None:
        """Run the post-recovery migration catch-up to completion."""
        migration = self.store.migration
        if migration.has_catch_up:
            migration.run_catch_up()
        if migration.has_catch_up:
            result.violations.append("catch-up queue not empty after recovery")

    def scan(self, count: int) -> list[tuple[bytes, bytes]]:
        """Up to ``count`` pairs of an ordered scan of the whole key space."""
        return self.store.scan(encode_key(0), count)[0]

    def collect(self, result) -> None:
        """Fill the result's degradation and scrub counts."""
        for name, dev in self.store.devices().items():
            result.offline_rejections[name] = dev.offline_rejections
            result.brownouts[name] = dev.brownout_ios
        db, ms = self.store, self.store.migration.stats
        result.counters.update(
            failover_writes=db.stats.counter("failover_writes").value,
            failover_reads=db.stats.counter("failover_reads").value,
            paused_migrations=ms.paused_jobs,
            catch_up_drains=ms.catch_up_drains,
            restarts=self.restarts,
        )
        result.latent_flips = self.injector.latent_bitflips
        if self.scrubber is not None:
            st = self.scrubber.stats
            result.report += "\n" + self.scrub_report
            result.scrub_detected = st.detected
            result.scrub_repaired = st.repaired
            result.scrub_unrecoverable = st.unrecoverable
            result.counters["scrub_passes"] = st.passes
            result.counters["scrub_paused"] = st.paused_passes

    def corrupt_dropped(self) -> int:
        """Corrupt copies the store's one triage per tier dropped, whoever
        found them — any of these means a flip surfaced as *detected*,
        never silent.  Only HyperDB counts them."""
        if not isinstance(self.store, HyperDB):
            return 0
        return sum(
            self.store.stats.counter(name).value
            for name in ("nvme_corrupt_slots", "semi_corrupt_blocks")
        )

    def check_effects(self, result) -> None:
        """Target-specific "did the schedule actually bite" checks."""
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

    def busy_seconds(self) -> tuple[float, float]:
        """Device time summed over both devices, split as (foreground +
        WAL, background)."""
        devices = self.store.devices().values()
        background = sum(d.traffic.background_busy_seconds() for d in devices)
        return sum(d.busy_seconds() for d in devices) - background, background
