"""Cluster target: a sharded, replicated cluster under node outages,
rolling brownouts and membership changes.

Node health windows are keyed on the cluster op clock, which ticks exactly
once per client op, so they resolve against the op count directly (no
probe run).  A scenario may join or drain a node mid-stream and run
anti-entropy passes; after the stream hinted handoff is force-drained.
What the acked-write oracle means here:

* every *quorum-acked* write reads back under ``read_full`` with exactly
  its latest acked value — or a provably *newer* value from a concurrent
  sub-quorum write (``INDETERMINATE``), never an older one and never
  nothing;
* a sub-quorum rejection (:class:`~repro.common.errors.QuorumError`) is
  unavailability, never loss; a value that still landed on some replica
  enters the oracle's per-key *maybe* set;
* after verification every surviving replica of every acked key holds an
  identical envelope (read repair + hint replay converged the cluster).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.chaos.fixtures import Op
from repro.chaos.oracle import Oracle
from repro.chaos.soak import (
    SoakResult,
    Target,
    WindowSpec,
    resolve_windows,
)
from repro.cluster import ClusterConfig, HyperDBCluster
from repro.common.errors import CorruptionError, QuorumError
from repro.health.state import HealthState
from repro.scrub import ScrubConfig
from repro.simssd.faults import FaultInjector, FaultPlan


@dataclass(frozen=True)
class ClusterScenario:
    """One seeded cluster soak: topology, quorums, windows, membership."""

    name: str
    num_ops: int = 0
    config: ClusterConfig = field(default_factory=ClusterConfig)
    windows: tuple[WindowSpec, ...] = ()
    #: Mid-stream membership changes, ``(op-stream fraction, "join" |
    #: "leave", node)``: a join triggers a live rebalance, a leave is a
    #: graceful drain.
    membership: tuple[tuple[float, str, str], ...] = ()
    #: Per-write probability of latent media corruption on every node's
    #: devices (surfaces at read time as checksum failures).
    latent_rate: float = 0.0
    #: Client ops between node-local scrub passes (0 = scrub disabled).
    scrub_interval: int = 0
    #: Client ops between cluster anti-entropy passes (0 = disabled).
    anti_entropy_every: int = 0
    #: Constants, not fields — one value in use: bits flipped per latent
    #: corruption event, and the op stream's key universe.  A hot-key
    #: cluster soak would prove nothing more: a replica that missed a
    #: key's only write already differs from its peers, and the read
    #: and the audit compare every replica of every acked key, so no
    #: overwrite is needed to expose it.
    latent_burst = 2
    key_universe = 2_000

    def target(self, seed: int, ops: list[Op]) -> "ClusterTarget":
        return ClusterTarget(self, seed)


#: Counters read off ``HyperDBCluster.counters()`` / ``.stats`` by name.
_ROUTER_COUNTERS = (
    "hints_stored", "hints_replayed", "hints_obsolete", "read_repairs",
    "rebalanced_keys",
)
_HEAL_COUNTERS = (
    "corrupt_replica_reads", "corrupt_replica_repairs",
    "anti_entropy_passes", "anti_entropy_suspects", "anti_entropy_repairs",
)


class ClusterTarget(Target):
    engine = "cluster"
    unavailable = QuorumError
    counters = (
        *_ROUTER_COUNTERS,
        "rebalance_jobs",
        *_HEAL_COUNTERS,
        # Rollup: heals from every mechanism (local checkpoint rewrites,
        # corrupt-replica read repair, anti-entropy), and suspect keys
        # still awaiting a quorum at the end of the run.
        "scrub_healed", "scrub_unhealed",
    )
    absorbers = ("hints_stored",)
    detectors = ("corrupt_replica_reads", "anti_entropy_suspects")
    report = (
        "[{scenario}] {status} {ops_issued} ops ({writes_acked} writes acked, "
        "{reads_ok} reads ok, {indeterminate_reads} indeterminate, "
        "{unavailable_reads}r/{unavailable_writes}w unavailable, "
        "{partial_writes} partial), {keys_verified} keys verified "
        "(lost={lost_writes} stale={stale_reads} "
        "resurrected={resurrections} divergent={divergent_replicas})\n"
        "  replication: hints stored={hints_stored} replayed={hints_replayed} "
        "obsolete={hints_obsolete} read_repairs={read_repairs} "
        "rebalanced={rebalanced_keys} over {rebalance_jobs} job(s)\n"
        "  nodes: offline_rejections[{reject}] brownout_ops[{brown}] "
        "pump_ops={pump_ops}"
    )
    scrub_report = (
        "  scrub: latent_flips={latent_flips} detected={scrub_detected} "
        "repaired={scrub_repaired} unrecoverable={scrub_unrecoverable} "
        "corrupt_reads={corrupt_replica_reads} "
        "corrupt_repairs={corrupt_replica_repairs} "
        "anti_entropy={anti_entropy_passes}p/{anti_entropy_suspects}s/"
        "{anti_entropy_repairs}r healed={scrub_healed} unhealed={scrub_unhealed}"
    )

    def __init__(self, scenario: ClusterScenario, seed: int) -> None:
        self.injectors: dict[str, FaultInjector] = {}
        if scenario.latent_rate > 0.0:
            names = [f"node-{i}" for i in range(scenario.config.num_nodes)]
            names += [n for _, change, n in scenario.membership if change == "join"]
            # Each node gets its own plan seed: replica traffic is nearly
            # symmetric, so a shared latent RNG stream would fire on the same
            # ordinal write at every node and corrupt all copies of one key
            # at once — decorrelated streams model independent media faults.
            self.injectors = {
                name: FaultInjector(
                    FaultPlan(
                        seed=seed * 1_000_003 + sum(name.encode()),
                        latent_bitflip_rate=scenario.latent_rate,
                        latent_burst_bits=scenario.latent_burst,
                    )
                )
                for name in names
            }
        interval = scenario.scrub_interval
        cluster = HyperDBCluster(
            scenario.config,
            windows=resolve_windows(scenario.windows, scenario.num_ops),
            seed=seed,
            scrub=ScrubConfig(interval_ops=interval) if interval else None,
            injectors=self.injectors,
        )
        super().__init__(scenario, cluster)

    def events(self):
        sc, cluster = self.scenario, self.store
        events: dict[int, list] = {}
        for frac, change, node in sc.membership:
            call = cluster.add_node if change == "join" else cluster.remove_node
            events.setdefault(int(sc.num_ops * frac), []).append(partial(call, node))
        if sc.anti_entropy_every:
            for i in range(sc.anti_entropy_every, sc.num_ops, sc.anti_entropy_every):
                events.setdefault(i, []).append(cluster.anti_entropy)
        return events

    def partially_landed(self, exc: QuorumError) -> bool:
        return exc.acks >= 1

    def healthy(self) -> bool:
        return self.store.all_healthy()

    def drain(self, result: SoakResult) -> None:
        cluster = self.store
        cluster.drain_hints()
        if cluster.pending_hints:
            result.violations.append(
                f"{cluster.pending_hints} hint(s) still pending after drain"
            )
        if self.scenario.anti_entropy_every:
            # Final convergence pass with every node healthy again: whatever
            # corruption the soak left behind must be healed from replicas
            # before the oracle demands exact read-back of every acked write.
            cluster.anti_entropy()

    def read_final(self, key: bytes):
        """R=RF: contacts, and repairs, every live replica."""
        return self.store.read_full(key)

    def audit(self, oracle: Oracle, result: SoakResult) -> None:
        """Post-repair convergence: all replicas of a key hold one envelope.

        :meth:`read_final` repaired every stale replica during verification,
        so any divergence left here is a real handoff/repair bug.  Under
        latent injection a *repair write itself* can corrupt on the medium;
        such a copy fails its checksum here (detected, not silent) and one
        more ``read_full`` heals it from the surviving replicas before the
        convergence check."""
        cluster = self.store
        for key in sorted(oracle.expected):
            replicas = cluster.ring.replicas_for(
                key, cluster.config.replication_factor
            )
            seen = set()
            for name in replicas:
                try:
                    env, _ = cluster.nodes[name].get_envelope(key)
                except CorruptionError:
                    if self.scenario.latent_rate <= 0.0:
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

    def collect(self, result: SoakResult) -> None:
        cluster, scenario, c = self.store, self.scenario, result.counters
        totals = cluster.counters()
        for name in _ROUTER_COUNTERS:
            c[name] = totals[name]
        c["rebalance_jobs"] = len(cluster.rebalance_jobs)
        result.offline_rejections = dict(cluster.offline_rejections)
        result.brownouts = dict(cluster.brownout_ops)
        result.latent_flips = sum(i.latent_bitflips for i in self.injectors.values())
        if scenario.latent_rate > 0.0 or scenario.scrub_interval:
            result.report += "\n" + self.scrub_report
            for name in _HEAL_COUNTERS:
                c[name] = cluster.stats.counter(name).value
            dbs = self.hyperdbs()
            for db in dbs:
                if db.scrubber is not None:
                    result.scrub_detected += db.scrubber.stats.detected
                    result.scrub_repaired += db.scrubber.stats.repaired
                    result.scrub_unrecoverable += db.scrubber.stats.unrecoverable
            c["scrub_healed"] = (
                result.scrub_repaired
                + c["corrupt_replica_repairs"]
                + c["anti_entropy_repairs"]
            )
            c["scrub_unhealed"] = len(cluster.unhealed_suspects) + sum(
                len(db.suspect_keys) for db in dbs
            )

    def hyperdbs(self) -> list:
        return [node.db for node in self.store.nodes.values()]

    def check_effects(self, result: SoakResult) -> None:
        scenario, c = self.scenario, result.counters
        if scenario.membership:
            moved = c["rebalanced_keys"] + sum(
                j.hinted for j in self.store.rebalance_jobs
            )
            if moved == 0:
                result.violations.append("membership change moved no keys")
        # An outage overlapping quorum writes must have exercised handoff.
        outage = any(s.state is HealthState.OFFLINE for s in scenario.windows)
        if outage and c["hints_stored"] == 0 and result.unavailable_writes == 0:
            result.violations.append("node outage produced no hints or rejections")
        if scenario.anti_entropy_every:
            if c["anti_entropy_passes"] == 0:
                result.violations.append("anti-entropy never ran")
            if scenario.latent_rate > 0.0 and c["scrub_unhealed"] > 0:
                # The run ends with every node healthy and a final
                # anti-entropy pass, so any suspect key left unhealed means
                # the heal loop dropped it rather than deferring it.
                result.violations.append(
                    f"{c['scrub_unhealed']} suspect key(s) left unhealed "
                    f"after the final anti-entropy pass"
                )

    def busy_seconds(self) -> float:
        return self.store.busy_seconds()
