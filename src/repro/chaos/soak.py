"""The soak driver: one seeded op stream, one oracle, one tiered store.

A scenario drives a deterministic mixed put/get/delete stream against a
:class:`~repro.chaos.tier.TierTarget` — one two-device store whose health
windows (OFFLINE / BROWNOUT) are scheduled at fractions of the run —
pumps writes until everything is healthy again, drains the store's
recovery machinery, and then verifies every key through the acked-write
:class:`Oracle`: no lost writes, no stale reads, no resurrections.  An op
the store rejects as *unavailable* is never loss — it was not acked and
must not have mutated anything, which the oracle checks by not moving the
owed state.

Everything is seeded; scenarios are independent, so fanning them across
worker processes via :mod:`repro.parallel` yields byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.chaos.fixtures import Op, ops_stream
from repro.chaos.oracle import Oracle, Verdict
from repro.chaos.tier import TierScenario, TierTarget, batches, send
from repro.common.errors import CorruptionError, DeviceOfflineError
from repro.common.keys import encode_key
from repro.health.state import HealthState
from repro.parallel import Job, JobResult, run_jobs
from repro.parallel.pool import unwrap_all

#: Pump keys (used to age a still-open window past its end) live above
#: every op-stream key universe.
PUMP_KEY_BASE = 40_000
PUMP_KEYS = 500
PUMP_BUDGET = 4_000


# ---------------------------------------------------------------- reporting


@dataclass
class SoakResult:
    """Outcome of one scenario: the driver's and the oracle's counts, the
    target's own ``counters``, and the templates that print them."""

    scenario: str
    engine: str
    #: ``str.format`` template over this result's fields and counters.
    report: str = ""
    counters: dict = field(default_factory=dict)
    ops_issued: int = 0
    writes_acked: int = 0
    unavailable_reads: int = 0
    unavailable_writes: int = 0
    pump_ops: int = 0
    reads_ok: int = 0
    excused_losses: int = 0
    lost_writes: int = 0
    stale_reads: int = 0
    resurrections: int = 0
    keys_verified: int = 0
    offline_rejections: dict[str, int] = field(default_factory=dict)
    brownouts: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    #: Latent-corruption accounting (zero unless the scenario injects
    #: latent bitflips or arms a scrubber).
    latent_flips: int = 0
    corrupt_detected: int = 0
    scrub_detected: int = 0
    scrub_repaired: int = 0
    scrub_unrecoverable: int = 0

    def score(self, verdict: Verdict, final: bool) -> None:
        """Count one oracle verdict: a mid-stream read, or (``final``) one
        key of the end-of-run verification."""
        if final:
            self.keys_verified += 1
        elif verdict is Verdict.OK:
            self.reads_ok += 1
        if verdict is Verdict.EXCUSED:
            self.excused_losses += 1
        elif verdict is Verdict.LOST:
            self.lost_writes += 1
        elif verdict is Verdict.STALE:
            self.stale_reads += 1
        elif verdict is Verdict.RESURRECTED:
            self.resurrections += 1

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
        def nonzero(counts: dict[str, int]) -> str:
            return ",".join(
                f"{name}={n}" for name, n in sorted(counts.items()) if n
            ) or "none"

        lines = [
            self.report.format(
                status="ok " if self.passed else "FAIL",
                reject=nonzero(self.offline_rejections),
                brown=nonzero(self.brownouts),
                **vars(self),
                **self.counters,
            )
        ]
        lines += [f"  VIOLATION: {v}" for v in self.violations]
        return "\n".join(lines)


@dataclass
class SoakReport:
    """All scenarios of one soak."""

    results: list[SoakResult] = field(default_factory=list)
    #: The fan-out's job outcomes (label, wall-clock seconds), parallel to
    #: ``results`` — what ``--timing-out`` writes.
    jobs: list[JobResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.results) and all(r.passed for r in self.results)

    def summary(self) -> str:
        return "\n".join(r.summary() for r in self.results)


# ------------------------------------------------------------------- driver


def scenario_ops(scenario: TierScenario, seed: int) -> list[Op]:
    # hash() is salted per-process; derive the stream seed arithmetically so
    # serial and multi-worker runs see the same ops.
    return ops_stream(
        seed * 1_000_003 + sum(scenario.name.encode()),
        scenario.num_ops,
        scenario.key_universe,
    )


def run_scenario(scenario: TierScenario, seed: int = 0) -> SoakResult:
    """Build the target, soak it, verify every acked write."""
    ops = scenario_ops(scenario, seed)
    target, result, oracle = _drive(scenario, seed, ops)
    _pump_until_healthy(target, result, oracle)
    target.drain(result)
    _verify(target, oracle, result)
    target.collect(result)
    _check_effects(target, result)
    if scenario.latent_rate == 0.0:
        _check_scan(target, oracle, result)
    return result


def _drive(scenario: TierScenario, seed: int, ops: list[Op]):
    """Run the op stream through a fresh target and oracle."""
    target = TierTarget(scenario, seed, ops)
    result = SoakResult(
        scenario=scenario.name,
        engine=target.engine,
        report=target.report,
        counters=dict.fromkeys(target.counters, 0),
    )
    oracle = Oracle()
    events = target.events()
    for start, batch in batches(ops, cuts=events):
        for fire in events.get(start, ()):
            fire()
        for (op, key, val), slot in zip(batch, send(target.store, batch)):
            if op != "get":
                _record_write(result, oracle, key, val, slot)
            elif isinstance(slot, DeviceOfflineError):
                result.unavailable_reads += 1
            elif isinstance(slot, CorruptionError):
                result.corrupt_detected += 1
            else:
                verdict = oracle.classify(key, slot[0], target.suspect(key))
                result.score(verdict, final=False)
        target.after_batch(len(batch))
    result.ops_issued = len(ops)
    return target, result, oracle


def _record_write(result, oracle, key, value, outcome) -> None:
    """Score one put (``value``) or delete (``None``) by what the store
    returned for it."""
    if isinstance(outcome, DeviceOfflineError):
        # Unavailability, not loss: the op was rejected and is not acked,
        # so the owed state does not change.
        result.unavailable_writes += 1
    elif isinstance(outcome, CorruptionError):
        result.corrupt_detected += 1
    else:
        # The write returned: it is acked and must survive.
        oracle.acked(key, value)
        result.writes_acked += 1


def _pump_until_healthy(target, result, oracle) -> None:
    """Age still-open windows past their end with pump writes.

    The clocks windows are keyed on only advance with traffic, so a window
    scheduled near the end of the span may still be open when the op
    stream runs out.  Pump puts go to dedicated keys and are tracked by
    the oracle like any other write.
    """
    for i in range(PUMP_BUDGET):
        if target.healthy():
            return
        key = encode_key(PUMP_KEY_BASE + i % PUMP_KEYS)
        value = b"pump%06d" % i
        try:
            outcome = target.store.put(key, value)
        except DeviceOfflineError as exc:
            outcome = exc
        _record_write(result, oracle, key, value, outcome)
        result.pump_ops += 1
    if not target.healthy():
        result.violations.append(
            "target never returned to HEALTHY within the pump budget"
        )


def _verify(target, oracle, result) -> None:
    """Every key the oracle knows must read back with what it is owed."""
    for key in sorted(oracle.expected):
        try:
            got, _ = target.store.get(key)
        except DeviceOfflineError:
            result.violations.append(
                f"read rejected after recovery for key {key!r}"
            )
        except CorruptionError:
            if target.scenario.latent_rate > 0.0:
                result.keys_verified += 1
                result.corrupt_detected += 1
            else:
                result.violations.append(
                    f"corruption reported without latent injection "
                    f"for key {key!r}"
                )
        else:
            verdict = oracle.classify(key, got, target.suspect(key))
            result.score(verdict, final=True)


def _check_effects(target, result) -> None:
    """The scheduled windows and the latent flips must have bitten."""
    scenario = target.scenario
    for spec in scenario.windows:
        if spec.state is HealthState.OFFLINE:
            # Stores peek at health and route around an offline part, so
            # the signal is *either* a rejection attributed to it *or*
            # visible degraded-mode activity.
            bit = (
                result.offline_rejections.get(spec.device, 0) > 0
                or result.unavailable_reads > 0
                or result.unavailable_writes > 0
                or any(result.counters[name] > 0 for name in target.absorbers)
            )
            if not bit:
                result.violations.append(
                    f"outage window on {spec.device!r} had no effect"
                )
        elif spec.state is HealthState.BROWNOUT:
            if result.brownouts.get(spec.device, 0) == 0:
                result.violations.append(
                    f"brownout window on {spec.device!r} surcharged nothing"
                )
    if scenario.latent_rate > 0.0:
        if result.latent_flips == 0:
            result.violations.append("latent injection produced no bitflips")
        handled = (
            result.scrub_detected
            + result.corrupt_detected
            + result.excused_losses
            + target.corrupt_dropped()
        )
        if handled == 0:
            result.violations.append(
                "latent bitflips were injected but never detected"
            )
    target.check_effects(result)


def _check_scan(target, oracle, result) -> None:
    """One ordered range read of everything, against the oracle's live
    set (skipped under latent injection, where a scan may legitimately
    omit a flagged casualty)."""
    live = oracle.live()
    try:
        got = target.scan(len(live) + 10)
    except DeviceOfflineError:
        result.violations.append("ordered scan rejected after recovery")
        return
    if got != live:
        result.violations.append(
            f"ordered scan returned {len(got)} pairs that differ from the "
            f"{len(live)} live acked keys"
        )


# ------------------------------------------------------------------ fan-out


def run_soak(
    scenarios: list[TierScenario], seed: int = 0, workers: int = 1
) -> SoakReport:
    """Run every scenario; identical report at any worker count."""
    jobs = [
        Job(run_scenario, args=(sc, seed), label=f"soak:{sc.name}")
        for sc in scenarios
    ]
    outcomes = run_jobs(jobs, workers=workers)
    return SoakReport(results=unwrap_all(outcomes), jobs=outcomes)


def measure_degraded_throughput(scenario: TierScenario, seed: int = 0) -> dict:
    """Simulated ops/s of one scenario's op stream, healthy vs degraded
    (the ``degraded_cost`` experiment of ``repro.bench`` tabulates it).

    Drives the same stream twice — with the scenario's windows and without
    any — and compares ops per simulated *foreground* busy second: the
    device time the stream's own commands take on both devices, which is
    what a client waits for.  Background time is reported beside it, not
    counted: how much demotion a run has done by its last op depends on
    where an outage left the data (a failover write lands on the capacity
    tier and is never demoted, while the NVMe it bypassed ends fuller), so
    a total over both would score deferred background work as throughput.
    Deterministic for a given ``(scenario, seed)``; the degraded run's
    target counters ride along as proof the windows bit.
    """
    ops = scenario_ops(scenario, seed)
    healthy, _, _ = _drive(replace(scenario, windows=()), seed, ops)
    degraded, d_result, _ = _drive(scenario, seed, ops)
    degraded.collect(d_result)
    h_fg, h_bg = healthy.busy_seconds()
    d_fg, d_bg = degraded.busy_seconds()
    h_rate = len(ops) / h_fg
    d_rate = len(ops) / d_fg
    return {
        **d_result.counters,
        "ops": len(ops),
        "sim_ops_per_s_healthy": round(h_rate, 3),
        "sim_ops_per_s_degraded": round(d_rate, 3),
        "degraded_over_healthy": round(d_rate / h_rate, 3),
        "bg_busy_s_healthy": round(h_bg, 6),
        "bg_busy_s_degraded": round(d_bg, 6),
        "unavailable_ops": d_result.unavailable_reads + d_result.unavailable_writes,
    }
