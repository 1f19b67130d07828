"""Chaos soak: long mixed workloads under scheduled tier outages/brownouts.

Each scenario drives a deterministic YCSB-style op stream (uniform mixed
puts/gets/deletes) against an engine whose two devices share one
:class:`FaultInjector`, with health windows (OFFLINE / BROWNOUT) scheduled
at fractions of the workload's I/O span (learned from a fault-free probe
run).  An optional planned restart (checkpoint + recover) composes crash
recovery into the same soak.

The **integrity oracle** tracks every *acknowledged* write (an op that
returned without raising) in an expected-state dict and verifies, at the
end of the soak, that every acked write is readable with its latest value:
no lost writes, no stale reads, no resurrections — across failover,
backpressure, and recovery.  :class:`DeviceOfflineError` during an op is
*unavailability*, never loss: the op is not acked and must not have
mutated anything (the health-epoch contract), which the oracle checks by
never updating the expected state for rejected ops.

Everything is seeded; scenarios are independent, so fanning them across
worker processes via :mod:`repro.parallel` yields byte-identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import CorruptionError, DeviceOfflineError
from repro.common.keys import KeyRange, encode_key
from repro.core.config import HyperDBConfig
from repro.core.hyperdb import HyperDB
from repro.baselines.prismdb import PrismDBStore
from repro.health.admission import AdmissionConfig
from repro.health.state import HealthState, HealthWindow
from repro.nvme.config import NVMeConfig
from repro.parallel import Job, run_jobs
from repro.parallel.pool import unwrap_all
from repro.scrub import ScrubConfig
from repro.simssd.device import SimDevice
from repro.simssd.faults import FaultInjector, FaultPlan
from repro.simssd.profiles import DeviceProfile
from repro.simssd.queues import QueueConfig

KiB = 1024
MiB = 1024 * KiB

#: Small devices so a thousand operations produce migrations, compactions,
#: and watermark pressure — i.e. health windows land inside real background
#: activity, not idle stretches.
_NVME_PROFILE = DeviceProfile(
    name="nvme",
    capacity_bytes=1 * MiB,
    page_size=4096,
    read_latency_s=8e-5,
    write_latency_s=2e-5,
    read_bandwidth=6.5e9,
    write_bandwidth=3.5e9,
)
_SATA_PROFILE = DeviceProfile(
    name="sata",
    capacity_bytes=64 * MiB,
    page_size=4096,
    read_latency_s=2e-4,
    write_latency_s=6e-5,
    read_bandwidth=5.6e8,
    write_bandwidth=5.1e8,
)

#: Op-stream key universe (ints fed to ``encode_key``); pump keys used to
#: age a still-open window past its end live above this range.
_KEY_UNIVERSE = 2_000
_PUMP_KEY_BASE = 40_000
_KEY_SPACE = KeyRange(encode_key(0), encode_key(50_000))


# ---------------------------------------------------------------- scenarios


@dataclass(frozen=True)
class WindowSpec:
    """A health window positioned at fractions of the probe's I/O span."""

    device: str
    state: HealthState
    start_frac: float
    end_frac: float
    latency_multiplier: float = 1.0
    #: Target a single submission queue instead of the whole device
    #: (requires the scenario to run with ``queue_count > 1``).
    queue: Optional[int] = None


@dataclass(frozen=True)
class ChaosScenario:
    """One seeded soak: an engine, an op stream, and scheduled windows."""

    name: str
    engine: str  # "hyperdb" | "prismdb"
    num_ops: int
    windows: tuple[WindowSpec, ...]
    #: Op-stream fraction at which to checkpoint + recover (HyperDB only).
    restart_frac: Optional[float] = None
    #: Enable admission-control backpressure for this scenario.
    admission: bool = False
    #: Submission queues per device (1 = classic single-timeline model).
    queue_count: int = 1
    #: Per-write probability of *latent* media corruption (flips stick on
    #: the medium and surface at read time as checksum failures).
    latent_rate: float = 0.0
    #: Distinct bits flipped per latent corruption event.
    latent_burst: int = 1
    #: Client ops between background scrub passes (0 = scrub disabled).
    scrub_interval: int = 0


def default_scenarios(num_ops: int = 900) -> list[ChaosScenario]:
    """The full soak matrix: outages, brownouts, and a composed scenario."""
    return [
        ChaosScenario(
            name="hyperdb-nvme-outage",
            engine="hyperdb",
            num_ops=num_ops,
            windows=(
                WindowSpec("nvme", HealthState.OFFLINE, 0.30, 0.45),
            ),
        ),
        ChaosScenario(
            name="hyperdb-sata-outage",
            engine="hyperdb",
            num_ops=num_ops,
            windows=(
                WindowSpec("sata", HealthState.OFFLINE, 0.35, 0.50),
            ),
            admission=True,
        ),
        ChaosScenario(
            name="hyperdb-brownout",
            engine="hyperdb",
            num_ops=num_ops,
            windows=(
                WindowSpec("nvme", HealthState.BROWNOUT, 0.20, 0.40, 4.0),
                WindowSpec("sata", HealthState.BROWNOUT, 0.50, 0.70, 8.0),
            ),
        ),
        ChaosScenario(
            name="hyperdb-combo-restart",
            engine="hyperdb",
            num_ops=num_ops,
            windows=(
                WindowSpec("nvme", HealthState.BROWNOUT, 0.15, 0.30, 4.0),
                WindowSpec("sata", HealthState.OFFLINE, 0.40, 0.55),
            ),
            restart_frac=0.85,
            admission=True,
        ),
        ChaosScenario(
            # A brownout pinned to one *background* queue of a 4-queue SATA
            # device: migration/compaction traffic routed there is
            # surcharged while queue 0 (foreground) and the other
            # background queues stay at full speed.  The oracle checks the
            # same no-loss invariants; _check_window_effects asserts the
            # queue window actually surcharged I/O.
            name="hyperdb-queue-brownout",
            engine="hyperdb",
            num_ops=num_ops,
            windows=(
                WindowSpec(
                    "sata", HealthState.BROWNOUT, 0.15, 0.75, 8.0, queue=1
                ),
            ),
            queue_count=4,
        ),
        *scrub_scenarios(num_ops),
        ChaosScenario(
            name="prismdb-nvme-outage",
            engine="prismdb",
            num_ops=num_ops,
            windows=(
                WindowSpec("nvme", HealthState.OFFLINE, 0.30, 0.45),
            ),
        ),
        ChaosScenario(
            name="prismdb-sata-outage",
            engine="prismdb",
            num_ops=num_ops,
            windows=(
                WindowSpec("sata", HealthState.OFFLINE, 0.35, 0.50),
            ),
        ),
    ]


def scrub_scenarios(num_ops: int = 900) -> list[ChaosScenario]:
    """Latent-corruption soaks: bitflips stick on the media and the
    scrubber + repair ladder must turn every one into *detected* (and
    where a redundant copy exists, *healed*) corruption — the oracle
    rejects any silent loss not explained by a flagged suspect key."""
    return [
        ChaosScenario(
            name="hyperdb-latent-scrub",
            engine="hyperdb",
            num_ops=num_ops,
            windows=(),
            latent_rate=0.01,
            latent_burst=3,
            scrub_interval=150,
        ),
        ChaosScenario(
            # Latent flips composed with a capacity outage: scrub passes
            # that land inside the window pause and drain via catch-up,
            # exactly like migration.
            name="hyperdb-latent-outage-scrub",
            engine="hyperdb",
            num_ops=num_ops,
            windows=(
                WindowSpec("sata", HealthState.OFFLINE, 0.35, 0.50),
            ),
            latent_rate=0.003,
            scrub_interval=150,
        ),
    ]


def smoke_scenarios(num_ops: int = 500) -> list[ChaosScenario]:
    """The CI configuration: one NVMe outage + one capacity brownout."""
    return [
        ChaosScenario(
            name="hyperdb-nvme-outage",
            engine="hyperdb",
            num_ops=num_ops,
            windows=(
                WindowSpec("nvme", HealthState.OFFLINE, 0.30, 0.45),
            ),
        ),
        ChaosScenario(
            name="hyperdb-sata-brownout",
            engine="hyperdb",
            num_ops=num_ops,
            windows=(
                WindowSpec("sata", HealthState.BROWNOUT, 0.35, 0.60, 6.0),
            ),
        ),
    ]


# --------------------------------------------------------------- op streams


def _ops_stream(seed: int, n: int) -> list[tuple[str, bytes, Optional[bytes]]]:
    """Deterministic YCSB-A-style mix: ~45% put, ~45% get, ~10% delete.

    Values embed the op index so the oracle distinguishes every version.
    """
    rng = random.Random(seed)
    ops: list[tuple[str, bytes, Optional[bytes]]] = []
    for i in range(n):
        key = encode_key(rng.randrange(_KEY_UNIVERSE))
        r = rng.random()
        if r < 0.45:
            pad = bytes(rng.randrange(256) for _ in range(rng.randrange(600, 1800)))
            ops.append(("put", key, b"v%06d." % i + pad))
        elif r < 0.90:
            ops.append(("get", key, None))
        else:
            ops.append(("del", key, None))
    return ops


# ---------------------------------------------------------------- reporting


@dataclass
class SoakResult:
    """Outcome of one chaos scenario."""

    scenario: str
    engine: str
    ops_issued: int = 0
    writes_acked: int = 0
    reads_ok: int = 0
    unavailable_reads: int = 0
    unavailable_writes: int = 0
    failover_writes: int = 0
    failover_reads: int = 0
    offline_rejections: dict[str, int] = field(default_factory=dict)
    brownout_ios: dict[str, int] = field(default_factory=dict)
    stall_seconds: float = 0.0
    paused_migrations: int = 0
    requeued_objects: int = 0
    catch_up_drains: int = 0
    restarts: int = 0
    pump_ops: int = 0
    lost_writes: int = 0
    stale_reads: int = 0
    resurrections: int = 0
    keys_verified: int = 0
    violations: list[str] = field(default_factory=list)
    #: Latent-corruption accounting (zero unless the scenario injects
    #: latent bitflips / arms the scrubber; the summary line is appended
    #: only then, keeping fault-free reports byte-identical).
    scrub_enabled: bool = False
    latent_flips: int = 0
    corrupt_detected: int = 0
    excused_losses: int = 0
    scrub_passes: int = 0
    scrub_detected: int = 0
    scrub_repaired: int = 0
    scrub_unrecoverable: int = 0
    scrub_paused: int = 0

    @property
    def passed(self) -> bool:
        return (
            not self.violations
            and self.lost_writes == 0
            and self.stale_reads == 0
            and self.resurrections == 0
            and self.keys_verified > 0
        )

    def summary(self) -> str:
        status = "ok " if self.passed else "FAIL"
        reject = ",".join(
            f"{d}={n}" for d, n in sorted(self.offline_rejections.items()) if n
        ) or "none"
        brown = ",".join(
            f"{d}={n}" for d, n in sorted(self.brownout_ios.items()) if n
        ) or "none"
        lines = [
            f"[{self.scenario}] {status} {self.engine}: "
            f"{self.ops_issued} ops ({self.writes_acked} writes acked, "
            f"{self.reads_ok} reads ok, {self.unavailable_reads}r/"
            f"{self.unavailable_writes}w unavailable), "
            f"{self.keys_verified} keys verified "
            f"(lost={self.lost_writes} stale={self.stale_reads} "
            f"resurrected={self.resurrections})",
            f"  degraded: failover_writes={self.failover_writes} "
            f"failover_reads={self.failover_reads} "
            f"offline_rejections[{reject}] brownout_ios[{brown}] "
            f"stall_s={self.stall_seconds:.6f}",
            f"  recovery: paused={self.paused_migrations} "
            f"requeued={self.requeued_objects} "
            f"catchup_drains={self.catch_up_drains} "
            f"restarts={self.restarts} pump_ops={self.pump_ops}",
        ]
        if self.scrub_enabled:
            lines.append(
                f"  scrub: passes={self.scrub_passes} "
                f"detected={self.scrub_detected} "
                f"repaired={self.scrub_repaired} "
                f"unrecoverable={self.scrub_unrecoverable} "
                f"paused={self.scrub_paused} "
                f"latent_flips={self.latent_flips} "
                f"corrupt_detected={self.corrupt_detected} "
                f"excused={self.excused_losses}"
            )
        for v in self.violations:
            lines.append(f"  VIOLATION: {v}")
        return "\n".join(lines)


@dataclass
class SoakReport:
    """All scenarios of one chaos run."""

    results: list[SoakResult] = field(default_factory=list)
    #: Per-scenario wall-clock seconds, parallel to ``results``.
    scenario_seconds: list[float] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.results) and all(r.passed for r in self.results)

    def summary(self) -> str:
        return "\n".join(r.summary() for r in self.results)


# ------------------------------------------------------------------ engines


def _hyperdb_config(admission: bool, scrub_interval: int = 0) -> HyperDBConfig:
    # Low watermarks keep migration running throughout the soak, so the
    # capacity tier carries real traffic for the windows to bite on.
    return HyperDBConfig(
        key_space=_KEY_SPACE,
        nvme=NVMeConfig(
            num_partitions=2,
            initial_zones_per_partition=2,
            migration_batch_bytes=16 * KiB,
            high_watermark=0.22,
            low_watermark=0.12,
        ),
        semi_num_levels=3,
        semi_size_ratio=4,
        semi_bottom_segments=16,
        semi_level1_target_bytes=128 * KiB,
        admission=AdmissionConfig() if admission else None,
        scrub=ScrubConfig(interval_ops=scrub_interval) if scrub_interval else None,
    )


def _build_engine(scenario: ChaosScenario, injector: FaultInjector):
    queues = (
        QueueConfig(queue_count=scenario.queue_count)
        if scenario.queue_count > 1
        else None
    )
    nvme = SimDevice(_NVME_PROFILE, injector=injector, queues=queues)
    sata = SimDevice(_SATA_PROFILE, injector=injector, queues=queues)
    if scenario.engine == "hyperdb":
        return HyperDB(
            nvme, sata,
            _hyperdb_config(scenario.admission, scenario.scrub_interval),
        )
    if scenario.engine == "prismdb":
        return PrismDBStore(
            nvme,
            sata,
            nvme_config=NVMeConfig(high_watermark=0.22, low_watermark=0.12),
        )
    raise ValueError(f"unknown chaos engine {scenario.engine!r}")


def _resolve_windows(
    scenario: ChaosScenario, io_span: int
) -> tuple[HealthWindow, ...]:
    windows = []
    for spec in scenario.windows:
        start = max(1, int(io_span * spec.start_frac))
        end = max(start + 1, int(io_span * spec.end_frac))
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


# --------------------------------------------------------------------- soak


def run_scenario(scenario: ChaosScenario, seed: int = 0) -> SoakResult:
    """Probe the I/O span, schedule the windows, soak, verify."""
    result = SoakResult(scenario=scenario.name, engine=scenario.engine)
    # hash() is salted per-process; derive the stream seed arithmetically so
    # serial and multi-worker runs see the same ops.
    ops = _ops_stream(
        seed * 1_000_003 + sum(scenario.name.encode()), scenario.num_ops
    )

    # Probe run: same ops, no faults, to learn the global I/O span.
    probe = FaultInjector(FaultPlan(seed=seed))
    _drive(_build_engine(scenario, probe), ops, scenario, None)
    io_span = probe.total_ios
    if io_span == 0:
        result.violations.append("probe run issued no I/O")
        return result

    windows = _resolve_windows(scenario, io_span)
    injector = FaultInjector(
        FaultPlan(
            seed=seed,
            health_windows=windows,
            latent_bitflip_rate=scenario.latent_rate,
            latent_burst_bits=scenario.latent_burst,
        )
    )
    engine = _build_engine(scenario, injector)
    expected = _drive(engine, ops, scenario, result)

    _pump_until_healthy(engine, scenario, result, expected)
    _drain_recovery(engine, scenario, result)
    _collect_degraded_stats(engine, scenario, result)
    result.latent_flips = injector.latent_bitflips
    _verify(engine, expected, result, scenario)
    _check_window_effects(engine, scenario, result)
    _check_scrub_effects(engine, scenario, result)
    return result


def _drive(engine, ops, scenario, result):
    """Run the op stream; returns the oracle's expected state.

    ``result is None`` marks the probe run (no bookkeeping, no restart).
    """
    expected: dict[bytes, Optional[bytes]] = {}
    restart_at = (
        int(len(ops) * scenario.restart_frac)
        if result is not None
        and scenario.restart_frac is not None
        and scenario.engine == "hyperdb"
        else None
    )
    # Drive through the store's batch API: consecutive same-type ops go
    # down in one call (``capture_errors`` turns per-op rejections into
    # result slots), with batch boundaries at op-type changes and at the
    # scheduled restart.  Oracle bookkeeping is identical to the per-op
    # loop — slots come back in op order.
    n = len(ops)
    i = 0
    while i < n:
        if restart_at is not None and i == restart_at:
            try:
                engine.checkpoint()
                engine.recover()
                result.restarts += 1
            except DeviceOfflineError:
                # The restart landed inside a window: skip it (a planned
                # restart would not be attempted on a down tier).
                pass
        op = ops[i][0]
        j = i + 1
        while j < n and ops[j][0] == op and j != restart_at:
            j += 1
        batch = ops[i:j]
        keys = [k for _, k, _ in batch]
        if op == "put":
            vals = [v for _, _, v in batch]
            slots = engine.put_many(keys, vals, capture_errors=True)
        elif op == "del":
            slots = engine.delete_many(keys, capture_errors=True)
        else:
            slots = engine.get_many(keys, capture_errors=True)
        for (op_, key, val), slot in zip(batch, slots):
            if isinstance(slot, DeviceOfflineError):
                # Unavailability, not loss: the op was rejected atomically
                # and is not acked, so the expected state does not change.
                if result is not None:
                    if op_ == "get":
                        result.unavailable_reads += 1
                    else:
                        result.unavailable_writes += 1
                continue
            if isinstance(slot, CorruptionError):
                # A *detected* corrupt read: the store reported the
                # checksum failure instead of returning wrong bytes.
                # Never silent — only possible under latent injection.
                if result is not None:
                    result.corrupt_detected += 1
                continue
            if op_ == "get":
                got, _ = slot
                if result is not None:
                    want = expected.get(key)
                    if got == want:
                        result.reads_ok += 1
                    elif _is_suspect(engine, scenario, key):
                        # The store flagged this key's newest copy as a
                        # corruption casualty: the mismatch is *detected*
                        # loss awaiting anti-entropy, not silent.
                        result.excused_losses += 1
                    elif want is None:
                        result.resurrections += 1
                    elif got is None:
                        result.lost_writes += 1
                    else:
                        result.stale_reads += 1
                continue
            # The write returned: it is acked and must survive.
            expected[key] = val if op_ == "put" else None
            if result is not None:
                result.writes_acked += 1
        if (
            result is not None
            and scenario.scrub_interval
            and getattr(engine, "scrubber", None) is not None
        ):
            engine.scrubber.maybe_run(len(batch))
        i = j
    if result is not None:
        result.ops_issued = len(ops)
    return expected


def _pump_until_healthy(engine, scenario, result, expected, limit: int = 4000):
    """Age still-open windows past their end with pump writes.

    A window scheduled near the end of the span may still be open when the
    op stream runs out (the global I/O clock only advances with traffic).
    Pump puts go to dedicated keys, are tracked by the oracle like any
    acked write, and advance the clock via whichever tier is up.
    """
    devices = engine.devices()
    i = 0
    while any(
        d.health() is not HealthState.HEALTHY for d in devices.values()
    ):
        if i >= limit:
            result.violations.append(
                "devices never returned to HEALTHY within the pump budget"
            )
            return
        key = encode_key(_PUMP_KEY_BASE + (i % 500))
        val = b"pump%06d" % i
        try:
            engine.put(key, val)
            expected[key] = val
            result.writes_acked += 1
        except DeviceOfflineError:
            result.unavailable_writes += 1
        result.pump_ops += 1
        i += 1


def _drain_recovery(engine, scenario, result):
    """Run the post-recovery catch-up explicitly (idempotent)."""
    if scenario.engine == "hyperdb":
        engine.migration.run_catch_up()
        if engine.migration.has_catch_up:
            result.violations.append("catch-up queue not empty after recovery")
    else:
        if engine._catch_up_pending:
            engine._run_catch_up()
        if engine._catch_up_pending:
            result.violations.append("catch-up still pending after recovery")


def _collect_degraded_stats(engine, scenario, result):
    for name, dev in engine.devices().items():
        result.offline_rejections[name] = dev.offline_rejections
        result.brownout_ios[name] = dev.brownout_ios
        result.stall_seconds += dev.stall_seconds
    if scenario.engine == "hyperdb":
        result.failover_writes = engine.stats.counter("failover_writes").value
        result.failover_reads = engine.stats.counter("failover_reads").value
        ms = engine.migration.stats
        result.paused_migrations = ms.paused_jobs
        result.requeued_objects = ms.requeued_objects
        result.catch_up_drains = ms.catch_up_drains
        if engine.scrubber is not None:
            st = engine.scrubber.stats
            result.scrub_enabled = True
            result.scrub_passes = st.passes
            result.scrub_detected = st.detected
            result.scrub_repaired = st.repaired
            result.scrub_unrecoverable = st.unrecoverable
            result.scrub_paused = st.paused_passes
    else:
        result.failover_writes = engine.failover_writes
        result.paused_migrations = engine.paused_demotions
        result.requeued_objects = engine.requeued_objects
        result.catch_up_drains = engine.catch_up_drains


def _is_suspect(engine, scenario, key) -> bool:
    """Was this key flagged by the store as a corruption casualty?

    Only consulted under latent injection: a read mismatch on a suspect
    key is *detected* loss (the single-node store has no healthy copy
    left, and says so — anti-entropy would heal it from a replica), while
    a mismatch on a non-suspect key is silent corruption and fails."""
    if scenario.latent_rate <= 0.0:
        return False
    return key in getattr(engine, "suspect_keys", ())


def _verify(engine, expected, result, scenario):
    """The integrity oracle: every acked write readable with latest value."""
    for key in sorted(expected):
        want = expected[key]
        try:
            got, _ = engine.get(key)
        except DeviceOfflineError:
            result.violations.append(
                f"read rejected after recovery for key {key!r}"
            )
            continue
        except CorruptionError:
            if scenario.latent_rate > 0.0:
                result.keys_verified += 1
                result.corrupt_detected += 1
            else:
                result.violations.append(
                    f"corruption reported without latent injection "
                    f"for key {key!r}"
                )
            continue
        result.keys_verified += 1
        if got == want:
            continue
        if _is_suspect(engine, scenario, key):
            result.excused_losses += 1
        elif want is None:
            result.resurrections += 1
        elif got is None:
            result.lost_writes += 1
        else:
            result.stale_reads += 1


def _check_window_effects(engine, scenario, result):
    """The scheduled windows must have actually bitten."""
    devices = engine.devices()
    for spec in scenario.windows:
        dev = devices[spec.device]
        if spec.state is HealthState.OFFLINE:
            # The engines peek at device health and route around an offline
            # tier, so the success signal is *either* a device-level
            # rejection (a background path hit the tier via its health
            # epoch) *or* engine-level degraded-mode activity.
            degraded = (
                dev.offline_rejections > 0
                or result.failover_writes > 0
                or result.failover_reads > 0
                or result.paused_migrations > 0
                or result.unavailable_reads > 0
                or result.unavailable_writes > 0
            )
            if not degraded:
                result.violations.append(
                    f"outage window on {spec.device!r} had no effect"
                )
        elif spec.state is HealthState.BROWNOUT:
            if dev.brownout_ios == 0:
                result.violations.append(
                    f"brownout window on {spec.device!r} surcharged no I/O"
                )
    # An NVMe outage must have been served from the capacity tier.
    nvme_offline = any(
        s.device == "nvme" and s.state is HealthState.OFFLINE
        for s in scenario.windows
    )
    if nvme_offline and result.failover_writes == 0:
        result.violations.append("NVMe outage produced no failover writes")
    # Ledger sanity: busy time decomposes into latency + transfer exactly.
    for name, dev in devices.items():
        t = dev.traffic
        if abs(t.busy_seconds() - (t.latency_seconds() + t.transfer_seconds())) > 1e-6:
            result.violations.append(f"ledger of {name!r} lost time")


def _check_scrub_effects(engine, scenario, result):
    """Latent injection must have bitten and scrub must have run."""
    if scenario.scrub_interval > 0 and result.scrub_passes == 0:
        result.violations.append("scrubber was armed but never completed a pass")
    if scenario.latent_rate > 0.0:
        if result.latent_flips == 0:
            result.violations.append("latent injection produced no bitflips")
        handled = (
            result.scrub_detected
            + result.corrupt_detected
            + result.excused_losses
        )
        if scenario.engine == "hyperdb":
            # Detections by foreground fall-through and by the tolerant
            # maintenance paths count too — any one of these means the
            # flips surfaced as *detected*, never silent.
            handled += (
                engine.stats.counter("nvme_corrupt_reads").value
                + engine.stats.counter("nvme_corrupt_maintenance").value
                + engine.stats.counter("semi_corrupt_blocks").value
            )
        if handled == 0:
            result.violations.append(
                "latent bitflips were injected but never detected"
            )


def measure_soak_throughput(num_ops: int = 600, seed: int = 0) -> dict:
    """Simulated ops/s healthy vs one-tier-degraded (the ``degraded_cost``
    experiment of ``repro.bench`` tabulates it).

    Drives the same op stream twice — once fault-free, once with an NVMe
    outage window — and compares simulated service throughput (ops per
    simulated busy second).  Deterministic for a given ``(num_ops, seed)``.
    """
    sc = ChaosScenario(
        name="hyperdb-nvme-outage",
        engine="hyperdb",
        num_ops=num_ops,
        windows=(WindowSpec("nvme", HealthState.OFFLINE, 0.30, 0.45),),
    )
    ops = _ops_stream(seed * 1_000_003 + sum(sc.name.encode()), num_ops)
    probe = FaultInjector(FaultPlan(seed=seed))
    healthy = _build_engine(sc, probe)
    _drive(healthy, ops, sc, None)
    healthy_busy = sum(d.busy_seconds() for d in healthy.devices().values())

    windows = _resolve_windows(sc, probe.total_ios)
    inj = FaultInjector(FaultPlan(seed=seed, health_windows=windows))
    engine = _build_engine(sc, inj)
    result = SoakResult(scenario=sc.name, engine=sc.engine)
    _drive(engine, ops, sc, result)
    _collect_degraded_stats(engine, sc, result)
    degraded_busy = sum(d.busy_seconds() for d in engine.devices().values())

    healthy_rate = num_ops / healthy_busy if healthy_busy > 0 else 0.0
    degraded_rate = num_ops / degraded_busy if degraded_busy > 0 else 0.0
    return {
        "soak_ops": num_ops,
        "sim_ops_per_s_healthy": round(healthy_rate, 3),
        "sim_ops_per_s_degraded": round(degraded_rate, 3),
        "degraded_over_healthy": round(degraded_rate / healthy_rate, 3)
        if healthy_rate > 0
        else 0.0,
        "failover_writes": result.failover_writes,
        "failover_reads": result.failover_reads,
        "unavailable_ops": result.unavailable_reads + result.unavailable_writes,
    }


# ------------------------------------------------------------------- fan-out


def run_soak(
    scenarios: Optional[list[ChaosScenario]] = None,
    seed: int = 0,
    workers: int = 1,
) -> SoakReport:
    """Run every scenario; identical report at any worker count."""
    if scenarios is None:
        scenarios = default_scenarios()
    jobs = [
        Job(run_scenario, args=(sc, seed), label=f"chaos:{sc.name}")
        for sc in scenarios
    ]
    outcomes = run_jobs(jobs, workers=workers)
    report = SoakReport()
    report.scenario_seconds = [o.seconds for o in outcomes]
    report.results = list(unwrap_all(outcomes))
    return report
