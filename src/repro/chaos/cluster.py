"""Cluster chaos: node outages, rolling brownouts, outage during rebalance.

Lifts the single-node soak's discipline to cluster granularity.  Each
scenario drives a deterministic mixed op stream through a
:class:`repro.cluster.HyperDBCluster` whose node health windows are keyed
on the cluster op clock (fractions of the op stream — no probe run
needed), optionally joins or drains a node mid-stream, pumps writes until
every node is healthy again, force-drains hinted handoff, and then runs
the **cluster-wide integrity oracle**:

* every *quorum-acked* write reads back under ``read_full`` with exactly
  its latest acked value — or a provably *newer* value from a concurrent
  sub-quorum write (counted ``indeterminate``, standard leaderless
  semantics), never an older one and never nothing;
* a sub-quorum rejection (:class:`repro.common.errors.QuorumError`) is
  unavailability, never loss: the op was not acked, so the oracle's
  expected state does not advance (partially landed values enter a
  per-key *maybe* set, since newest-wins resolution may surface them);
* after verification every surviving replica of every acked key holds an
  identical envelope (read repair + hint replay converged the cluster).

Scenarios are independent and fully seeded, so fanning them across
worker processes via :mod:`repro.parallel` yields byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.chaos.harness import _ops_stream
from repro.cluster import ClusterConfig, HyperDBCluster
from repro.common.errors import CorruptionError, QuorumError
from repro.common.keys import encode_key
from repro.health.state import HealthState, HealthWindow
from repro.parallel import Job, run_jobs
from repro.parallel.pool import unwrap_all
from repro.scrub import ScrubConfig
from repro.simssd.faults import FaultInjector, FaultPlan

_PUMP_KEY_BASE = 40_000


# ---------------------------------------------------------------- scenarios


@dataclass(frozen=True)
class NodeWindowSpec:
    """A node health window positioned at fractions of the op stream."""

    node: str
    state: HealthState
    start_frac: float
    end_frac: float
    latency_multiplier: float = 1.0


@dataclass(frozen=True)
class ClusterScenario:
    """One seeded cluster soak: topology, quorums, windows, membership."""

    name: str
    num_ops: int
    num_nodes: int = 3
    replication_factor: int = 3
    read_quorum: int = 2
    write_quorum: int = 2
    windows: tuple[NodeWindowSpec, ...] = ()
    #: Node to join mid-stream (triggers a live rebalance), and when.
    join_node: Optional[str] = None
    join_frac: float = 0.0
    #: Node to gracefully drain mid-stream, and when.
    leave_node: Optional[str] = None
    leave_frac: float = 0.0
    #: Per-write probability of latent media corruption on every node's
    #: devices (surfaces at read time as checksum failures).
    latent_rate: float = 0.0
    #: Distinct bits flipped per latent corruption event.
    latent_burst: int = 1
    #: Client ops between node-local scrub passes (0 = scrub disabled).
    scrub_interval: int = 0
    #: Client ops between cluster anti-entropy passes (0 = disabled).
    anti_entropy_every: int = 0

    def config(self) -> ClusterConfig:
        return ClusterConfig(
            num_nodes=self.num_nodes,
            replication_factor=self.replication_factor,
            read_quorum=self.read_quorum,
            write_quorum=self.write_quorum,
        )


def default_cluster_scenarios(num_ops: int = 400) -> list[ClusterScenario]:
    """The cluster matrix: outage, rolling brownouts, outage-in-rebalance,
    and a graceful drain."""
    return [
        ClusterScenario(
            name="cluster-node-outage",
            num_ops=num_ops,
            windows=(
                NodeWindowSpec("node-1", HealthState.OFFLINE, 0.30, 0.55),
            ),
        ),
        ClusterScenario(
            name="cluster-rolling-brownouts",
            num_ops=num_ops,
            windows=(
                NodeWindowSpec("node-0", HealthState.BROWNOUT, 0.10, 0.35, 4.0),
                NodeWindowSpec("node-1", HealthState.BROWNOUT, 0.30, 0.55, 6.0),
                NodeWindowSpec("node-2", HealthState.BROWNOUT, 0.50, 0.75, 4.0),
            ),
        ),
        ClusterScenario(
            name="cluster-outage-during-rebalance",
            num_ops=num_ops,
            join_node="node-3",
            join_frac=0.40,
            windows=(
                NodeWindowSpec("node-1", HealthState.OFFLINE, 0.45, 0.70),
            ),
        ),
        ClusterScenario(
            name="cluster-node-drain",
            num_ops=num_ops,
            num_nodes=4,
            leave_node="node-3",
            leave_frac=0.50,
        ),
        # W=RF: any node outage makes writes sub-quorum — the path where
        # rejections must surface as unavailability (and partially landed
        # values as indeterminate reads), never as loss.
        ClusterScenario(
            name="cluster-strict-quorum-outage",
            num_ops=num_ops,
            read_quorum=1,
            write_quorum=3,
            windows=(
                NodeWindowSpec("node-2", HealthState.OFFLINE, 0.35, 0.60),
            ),
        ),
        *scrub_cluster_scenarios(num_ops),
    ]


def scrub_cluster_scenarios(num_ops: int = 400) -> list[ClusterScenario]:
    """Latent-corruption cluster soaks: with RF >= 2 and the scrub +
    anti-entropy loop running, every quorum-acked write must survive
    *exactly* — corrupt replicas are re-replicated from healthy ones, so
    the oracle tolerates no loss at all, silent or detected."""
    return [
        ClusterScenario(
            name="cluster-latent-scrub",
            num_ops=num_ops,
            replication_factor=2,
            read_quorum=1,
            write_quorum=2,
            latent_rate=0.008,
            latent_burst=2,
            scrub_interval=120,
            anti_entropy_every=100,
        ),
        ClusterScenario(
            # Latent flips composed with a node outage: the offline node
            # skips its scrub passes and is repaired late, after healthy
            # replicas carried the keys through the window.
            name="cluster-latent-outage",
            num_ops=num_ops,
            windows=(
                NodeWindowSpec("node-1", HealthState.OFFLINE, 0.30, 0.55),
            ),
            latent_rate=0.015,
            latent_burst=2,
            scrub_interval=120,
            anti_entropy_every=120,
        ),
    ]


def smoke_cluster_scenarios(num_ops: int = 300) -> list[ClusterScenario]:
    """CI configuration: one outage + one outage-during-rebalance."""
    full = {s.name: s for s in default_cluster_scenarios(num_ops)}
    return [
        full["cluster-node-outage"],
        full["cluster-outage-during-rebalance"],
    ]


def _resolve_node_windows(
    scenario: ClusterScenario,
) -> tuple[HealthWindow, ...]:
    """Node windows over 1-based cluster op ordinals (no probe needed:
    the cluster clock ticks exactly once per client op)."""
    out = []
    for spec in scenario.windows:
        start = max(1, int(scenario.num_ops * spec.start_frac))
        end = max(start + 1, int(scenario.num_ops * spec.end_frac))
        out.append(
            HealthWindow(
                device=spec.node,
                state=spec.state,
                start_io=start,
                end_io=end,
                latency_multiplier=spec.latency_multiplier,
            )
        )
    return tuple(out)


# ---------------------------------------------------------------- reporting


@dataclass
class ClusterSoakResult:
    """Outcome of one cluster chaos scenario."""

    scenario: str
    ops_issued: int = 0
    writes_acked: int = 0
    reads_ok: int = 0
    indeterminate_reads: int = 0
    unavailable_writes: int = 0
    unavailable_reads: int = 0
    partial_writes: int = 0
    hints_stored: int = 0
    hints_replayed: int = 0
    hints_obsolete: int = 0
    read_repairs: int = 0
    rebalanced_keys: int = 0
    rebalance_jobs: int = 0
    offline_rejections: dict[str, int] = field(default_factory=dict)
    brownout_ops: dict[str, int] = field(default_factory=dict)
    pump_ops: int = 0
    lost_writes: int = 0
    stale_reads: int = 0
    resurrections: int = 0
    divergent_replicas: int = 0
    keys_verified: int = 0
    violations: list[str] = field(default_factory=list)
    #: Latent-corruption accounting (all zero — and the summary line
    #: absent — unless the scenario injects latent bitflips).
    scrub_enabled: bool = False
    latent_flips: int = 0
    corrupt_replica_reads: int = 0
    corrupt_replica_repairs: int = 0
    scrub_detected: int = 0
    scrub_repaired: int = 0
    scrub_unrecoverable: int = 0
    anti_entropy_passes: int = 0
    anti_entropy_suspects: int = 0
    anti_entropy_repairs: int = 0
    #: Cluster-level rollup: total replica heals from every mechanism
    #: (local scrub ladder, corrupt-replica read repair, anti-entropy),
    #: and suspect keys still awaiting a quorum at the end of the run.
    scrub_healed: int = 0
    scrub_unhealed: int = 0

    @property
    def passed(self) -> bool:
        return (
            not self.violations
            and self.lost_writes == 0
            and self.stale_reads == 0
            and self.resurrections == 0
            and self.divergent_replicas == 0
            and self.keys_verified > 0
        )

    def summary(self) -> str:
        status = "ok " if self.passed else "FAIL"
        reject = ",".join(
            f"{n}={c}" for n, c in sorted(self.offline_rejections.items()) if c
        ) or "none"
        brown = ",".join(
            f"{n}={c}" for n, c in sorted(self.brownout_ops.items()) if c
        ) or "none"
        lines = [
            f"[{self.scenario}] {status} {self.ops_issued} ops "
            f"({self.writes_acked} writes acked, {self.reads_ok} reads ok, "
            f"{self.indeterminate_reads} indeterminate, "
            f"{self.unavailable_reads}r/{self.unavailable_writes}w unavailable, "
            f"{self.partial_writes} partial), {self.keys_verified} keys verified "
            f"(lost={self.lost_writes} stale={self.stale_reads} "
            f"resurrected={self.resurrections} divergent={self.divergent_replicas})",
            f"  replication: hints stored={self.hints_stored} "
            f"replayed={self.hints_replayed} obsolete={self.hints_obsolete} "
            f"read_repairs={self.read_repairs} "
            f"rebalanced={self.rebalanced_keys} over {self.rebalance_jobs} job(s)",
            f"  nodes: offline_rejections[{reject}] brownout_ops[{brown}] "
            f"pump_ops={self.pump_ops}",
        ]
        if self.scrub_enabled:
            lines.append(
                f"  scrub: latent_flips={self.latent_flips} "
                f"detected={self.scrub_detected} "
                f"repaired={self.scrub_repaired} "
                f"unrecoverable={self.scrub_unrecoverable} "
                f"corrupt_reads={self.corrupt_replica_reads} "
                f"corrupt_repairs={self.corrupt_replica_repairs} "
                f"anti_entropy={self.anti_entropy_passes}p/"
                f"{self.anti_entropy_suspects}s/{self.anti_entropy_repairs}r "
                f"healed={self.scrub_healed} unhealed={self.scrub_unhealed}"
            )
        for v in self.violations:
            lines.append(f"  VIOLATION: {v}")
        return "\n".join(lines)


@dataclass
class ClusterSoakReport:
    """All cluster scenarios of one chaos run."""

    results: list[ClusterSoakResult] = field(default_factory=list)
    scenario_seconds: list[float] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.results) and all(r.passed for r in self.results)

    def summary(self) -> str:
        return "\n".join(r.summary() for r in self.results)


# --------------------------------------------------------------- the oracle


_MISSING = object()


class _Oracle:
    """Expected state per key: last acked value + unacked *maybe* values.

    ``expected[key]`` is the latest quorum-acked payload (``None`` for an
    acked delete).  ``maybe[key]`` holds payloads of writes that failed
    their quorum but landed on >= 1 replica *after* the last ack — a read
    returning one of those is legal (the write may yet win newest-wins
    resolution) but counted separately; acking a new write clears them.
    """

    def __init__(self) -> None:
        self.expected: dict[bytes, Optional[bytes]] = {}
        self.maybe: dict[bytes, set] = {}

    def acked(self, key: bytes, value: Optional[bytes]) -> None:
        self.expected[key] = value
        self.maybe.pop(key, None)

    def partial(self, key: bytes, value: Optional[bytes]) -> None:
        self.maybe.setdefault(key, set()).add(value)

    def classify(self, key: bytes, got: Optional[bytes], result, final: bool):
        """Score one observed read against the expectation for ``key``."""
        want = self.expected.get(key)
        if got == want:
            if final:
                result.keys_verified += 1
            else:
                result.reads_ok += 1
            return
        if got in self.maybe.get(key, ()):
            result.indeterminate_reads += 1
            if final:
                result.keys_verified += 1
            return
        if final:
            result.keys_verified += 1
        if want is None:
            result.resurrections += 1
        elif got is None:
            result.lost_writes += 1
        else:
            result.stale_reads += 1


# --------------------------------------------------------------------- soak


def run_cluster_scenario(
    scenario: ClusterScenario, seed: int = 0
) -> ClusterSoakResult:
    """Drive, pump to health, drain handoff, verify, audit replicas."""
    result = ClusterSoakResult(scenario=scenario.name)
    ops = _ops_stream(
        seed * 1_000_003 + sum(scenario.name.encode()), scenario.num_ops
    )
    injectors: dict[str, FaultInjector] = {}
    if scenario.latent_rate > 0.0:
        names = [f"node-{i}" for i in range(scenario.num_nodes)]
        if scenario.join_node is not None:
            names.append(scenario.join_node)
        # Each node gets its own plan seed: replica traffic is nearly
        # symmetric, so a shared latent RNG stream would fire on the same
        # ordinal write at every node and corrupt all copies of one key
        # at once — decorrelated streams model independent media faults.
        injectors = {
            name: FaultInjector(
                FaultPlan(
                    seed=seed * 1_000_003 + sum(name.encode()),
                    latent_bitflip_rate=scenario.latent_rate,
                    latent_burst_bits=scenario.latent_burst,
                )
            )
            for name in names
        }
    cluster = HyperDBCluster(
        scenario.config(),
        windows=_resolve_node_windows(scenario),
        seed=seed,
        scrub=(
            ScrubConfig(interval_ops=scenario.scrub_interval)
            if scenario.scrub_interval
            else None
        ),
        injectors=injectors,
    )
    oracle = _Oracle()

    join_at = (
        int(scenario.num_ops * scenario.join_frac)
        if scenario.join_node is not None
        else None
    )
    leave_at = (
        int(scenario.num_ops * scenario.leave_frac)
        if scenario.leave_node is not None
        else None
    )

    for i, (op, key, val) in enumerate(ops):
        if join_at is not None and i == join_at:
            cluster.add_node(scenario.join_node)
        if leave_at is not None and i == leave_at:
            cluster.remove_node(scenario.leave_node)
        if (
            scenario.anti_entropy_every
            and i > 0
            and i % scenario.anti_entropy_every == 0
        ):
            cluster.anti_entropy()
        if op == "get":
            try:
                got, _ = cluster.get(key)
            except QuorumError:
                result.unavailable_reads += 1
                continue
            oracle.classify(key, got, result, final=False)
            continue
        value = val if op == "put" else None
        try:
            if op == "put":
                cluster.put(key, val)
            else:
                cluster.delete(key)
        except QuorumError as exc:
            result.unavailable_writes += 1
            if exc.acks >= 1:
                result.partial_writes += 1
                oracle.partial(key, value)
            continue
        oracle.acked(key, value)
        result.writes_acked += 1
    result.ops_issued = len(ops)

    _pump_until_healthy(cluster, result, oracle)
    cluster.drain_hints()
    if cluster.pending_hints:
        result.violations.append(
            f"{cluster.pending_hints} hint(s) still pending after drain"
        )
    if scenario.anti_entropy_every:
        # Final convergence pass with every node healthy again: whatever
        # corruption the soak left behind must be healed from replicas
        # before the oracle demands exact read-back of every acked write.
        cluster.anti_entropy()

    _verify(cluster, oracle, result)
    _audit_replicas(cluster, oracle, result, scenario)
    _collect(cluster, result, scenario)
    result.latent_flips = sum(i.latent_bitflips for i in injectors.values())
    _check_window_effects(cluster, scenario, result)
    _check_scrub_effects(cluster, scenario, result)
    return result


def _pump_until_healthy(cluster, result, oracle, limit: int = 4000) -> None:
    """Age still-open node windows past their end with pump writes.

    The cluster clock only advances with traffic, so a window still open
    when the stream ends needs pump ops — tracked by the oracle exactly
    like client writes."""
    i = 0
    while not cluster.all_healthy():
        if i >= limit:
            result.violations.append(
                "nodes never returned to HEALTHY within the pump budget"
            )
            return
        key = encode_key(_PUMP_KEY_BASE + (i % 500))
        val = b"pump%06d" % i
        try:
            cluster.put(key, val)
            oracle.acked(key, val)
            result.writes_acked += 1
        except QuorumError as exc:
            result.unavailable_writes += 1
            if exc.acks >= 1:
                oracle.partial(key, val)
        result.pump_ops += 1
        i += 1


def _verify(cluster, oracle, result) -> None:
    """Every acked write must read back (R=RF) with its latest value."""
    for key in sorted(oracle.expected):
        try:
            got, _ = cluster.read_full(key)
        except QuorumError:
            result.violations.append(
                f"full read rejected after recovery for key {key!r}"
            )
            continue
        oracle.classify(key, got, result, final=True)


def _audit_replicas(cluster, oracle, result, scenario) -> None:
    """Post-repair convergence: all replicas of a key hold one envelope.

    :meth:`read_full` repaired every stale replica during verification, so
    any divergence left here is a real handoff/repair bug.  Under latent
    injection a *repair write itself* can corrupt on the medium; such a
    copy fails its checksum here (detected, not silent) and one more
    ``read_full`` heals it from the surviving replicas before the
    convergence check."""
    for key in sorted(oracle.expected):
        replicas = cluster.ring.replicas_for(
            key, cluster.config.replication_factor
        )
        seen = set()
        for name in replicas:
            try:
                env, _ = cluster.nodes[name].get_envelope(key)
            except CorruptionError:
                if scenario.latent_rate <= 0.0:
                    raise
                cluster.stats.counter("corrupt_replica_reads").add()
                cluster.read_full(key)
                env, _ = cluster.nodes[name].get_envelope(key)
            seen.add(None if env is None else (env[0], env[1], env[2]))
        if len(seen) > 1:
            result.divergent_replicas += 1
            result.violations.append(
                f"replicas of {key!r} diverge across {sorted(replicas)}"
            )


def _collect(cluster, result, scenario) -> None:
    counters = cluster.counters()
    result.hints_stored = counters["hints_stored"]
    result.hints_replayed = counters["hints_replayed"]
    result.hints_obsolete = counters["hints_obsolete"]
    result.read_repairs = counters["read_repairs"]
    result.rebalanced_keys = counters["rebalanced_keys"]
    result.rebalance_jobs = len(cluster.rebalance_jobs)
    result.offline_rejections = dict(sorted(cluster.offline_rejections.items()))
    result.brownout_ops = dict(sorted(cluster.brownout_ops.items()))
    if scenario.latent_rate > 0.0 or scenario.scrub_interval:
        result.scrub_enabled = True
        counter = cluster.stats.counter
        result.corrupt_replica_reads = counter("corrupt_replica_reads").value
        result.corrupt_replica_repairs = counter("corrupt_replica_repairs").value
        result.anti_entropy_passes = counter("anti_entropy_passes").value
        result.anti_entropy_suspects = counter("anti_entropy_suspects").value
        result.anti_entropy_repairs = counter("anti_entropy_repairs").value
        for name in sorted(cluster.nodes):
            scrubber = cluster.nodes[name].db.scrubber
            if scrubber is not None:
                result.scrub_detected += scrubber.stats.detected
                result.scrub_repaired += scrubber.stats.repaired
                result.scrub_unrecoverable += scrubber.stats.unrecoverable
        result.scrub_healed = (
            result.scrub_repaired
            + result.corrupt_replica_repairs
            + result.anti_entropy_repairs
        )
        result.scrub_unhealed = len(cluster.unhealed_suspects) + sum(
            len(cluster.nodes[n].db.suspect_keys) for n in sorted(cluster.nodes)
        )


def _check_window_effects(cluster, scenario, result) -> None:
    """Each scheduled degradation (and membership change) must have bitten."""
    for spec in scenario.windows:
        if spec.state is HealthState.OFFLINE:
            bit = (
                result.offline_rejections.get(spec.node, 0) > 0
                or result.hints_stored > 0
                or result.unavailable_writes > 0
                or result.unavailable_reads > 0
            )
            if not bit:
                result.violations.append(
                    f"outage window on {spec.node!r} had no effect"
                )
        elif spec.state is HealthState.BROWNOUT:
            if result.brownout_ops.get(spec.node, 0) == 0:
                result.violations.append(
                    f"brownout window on {spec.node!r} surcharged no ops"
                )
    if scenario.join_node is not None or scenario.leave_node is not None:
        moved = result.rebalanced_keys + sum(
            j.hinted for j in cluster.rebalance_jobs
        )
        if moved == 0:
            result.violations.append("membership change moved no keys")
    # An outage overlapping quorum writes must have exercised handoff.
    outage = any(
        s.state is HealthState.OFFLINE for s in scenario.windows
    )
    if outage and result.hints_stored == 0 and result.unavailable_writes == 0:
        result.violations.append("node outage produced no hints or rejections")


def _check_scrub_effects(cluster, scenario, result) -> None:
    """Latent injection must have bitten, and the heal loop must have run."""
    if scenario.anti_entropy_every and result.anti_entropy_passes == 0:
        result.violations.append("anti-entropy never ran")
    if scenario.latent_rate > 0.0:
        if result.latent_flips == 0:
            result.violations.append("latent injection produced no bitflips")
        handled = (
            result.scrub_detected
            + result.corrupt_replica_reads
            + result.anti_entropy_suspects
        )
        for node in cluster.nodes.values():
            stats = node.db.stats
            handled += (
                stats.counter("nvme_corrupt_reads").value
                + stats.counter("nvme_corrupt_maintenance").value
                + stats.counter("semi_corrupt_blocks").value
            )
        if handled == 0:
            result.violations.append(
                "latent bitflips were injected but never detected"
            )
        if scenario.anti_entropy_every and result.scrub_unhealed > 0:
            # The run ends with every node healthy and a final anti-entropy
            # pass, so any suspect key left unhealed means the heal loop
            # dropped it rather than deferring it.
            result.violations.append(
                f"{result.scrub_unhealed} suspect key(s) left unhealed "
                f"after the final anti-entropy pass"
            )


# ------------------------------------------------------------------ fan-out


def run_cluster_soak(
    scenarios: Optional[list[ClusterScenario]] = None,
    seed: int = 0,
    workers: int = 1,
) -> ClusterSoakReport:
    """Run every cluster scenario; identical report at any worker count."""
    if scenarios is None:
        scenarios = default_cluster_scenarios()
    jobs = [
        Job(run_cluster_scenario, args=(sc, seed), label=f"cluster:{sc.name}")
        for sc in scenarios
    ]
    outcomes = run_jobs(jobs, workers=workers)
    report = ClusterSoakReport()
    report.scenario_seconds = [o.seconds for o in outcomes]
    report.results = list(unwrap_all(outcomes))
    return report


# ------------------------------------------------------------------- perf


def measure_cluster_throughput(num_ops: int = 400, seed: int = 0) -> dict:
    """Simulated quorum-write ops/s, healthy vs one-node-degraded.

    Drives the same op stream through two identical clusters — one
    fault-free, one with a single-node outage window — and compares
    simulated service throughput.  Deterministic for ``(num_ops, seed)``;
    the ``degraded_cost`` experiment of ``repro.bench`` tabulates it.
    """
    base = ClusterScenario(name="cluster-node-outage", num_ops=num_ops)
    ops = _ops_stream(seed * 1_000_003 + sum(base.name.encode()), num_ops)

    def drive(windows):
        cluster = HyperDBCluster(base.config(), windows=windows, seed=seed)
        acked = unavailable = 0
        # Batched dispatch: consecutive same-type ops go through the
        # router's batch API with per-op error capture; quorum outcomes
        # and counters are identical to the per-op loop.
        n = len(ops)
        i = 0
        while i < n:
            op = ops[i][0]
            j = i + 1
            while j < n and ops[j][0] == op:
                j += 1
            batch = ops[i:j]
            keys = [k for _, k, _ in batch]
            if op == "put":
                vals = [v for _, _, v in batch]
                slots = cluster.put_many(keys, vals, capture_errors=True)
            elif op == "del":
                slots = cluster.delete_many(keys, capture_errors=True)
            else:
                slots = cluster.get_many(keys, capture_errors=True)
            for slot in slots:
                if isinstance(slot, QuorumError):
                    unavailable += 1
                elif op != "get":
                    acked += 1
            i = j
        return cluster, acked, unavailable

    healthy, h_acked, _ = drive(())
    degraded_scenario = ClusterScenario(
        name="cluster-node-outage",
        num_ops=num_ops,
        windows=(NodeWindowSpec("node-1", HealthState.OFFLINE, 0.30, 0.55),),
    )
    degraded, d_acked, d_unavail = drive(
        _resolve_node_windows(degraded_scenario)
    )
    h_busy = healthy.busy_seconds()
    d_busy = degraded.busy_seconds()
    h_rate = num_ops / h_busy if h_busy > 0 else 0.0
    d_rate = num_ops / d_busy if d_busy > 0 else 0.0
    return {
        "cluster_ops": num_ops,
        "quorum_writes_acked_healthy": h_acked,
        "quorum_writes_acked_degraded": d_acked,
        "unavailable_ops_degraded": d_unavail,
        "hints_stored": degraded.counters()["hints_stored"],
        "sim_ops_per_s_healthy": round(h_rate, 3),
        "sim_ops_per_s_degraded": round(d_rate, 3),
        "degraded_over_healthy": round(d_rate / h_rate, 3) if h_rate > 0 else 0.0,
    }
