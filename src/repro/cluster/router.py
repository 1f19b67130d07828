"""The cluster coordinator: quorum routing over N HyperDB nodes.

:class:`HyperDBCluster` composes :class:`~repro.cluster.node.ClusterNode`
instances behind a :class:`~repro.cluster.ring.HashRing`.  Every client
operation walks the key's preference list in ring order:

* **Writes** are sent to all ``RF`` replicas and acked once ``W`` accept;
  replicas missed because their node was down get a *hint* (when the write
  still made quorum), replayed when the node returns.  Fewer than ``W``
  acks raises :class:`~repro.common.errors.QuorumError` — unavailability,
  never loss: nothing was promised.
* **Reads** collect ``R`` replica responses and resolve
  newest-sequence-number-wins; replicas observed stale (or empty) are
  *read-repaired* with the winning envelope on the spot.
* ``R + W > RF`` is validated at construction, so a read quorum always
  intersects the last acked write quorum — the invariant the cluster
  integrity oracle leans on.

Node health reuses :class:`repro.health.state.HealthWindow` at node
granularity: windows are keyed on the *cluster op clock* (one tick per
client operation), the node analogue of the device layer's global I/O
ordinal — deterministic, and aged only by traffic the cluster actually
serves.  Membership changes (:meth:`add_node` / :meth:`remove_node`)
produce explicit migration jobs computed from the ring diff and executed
deterministically, with ``rebalance`` obs spans bracketing each job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.common.errors import (
    ConfigError,
    CorruptionError,
    DeviceOfflineError,
    OutOfSpaceError,
    QuorumError,
)
from repro.common.records import paired_columns
from repro.common.stats import StatsRegistry
from repro.cluster.node import ClusterNode, pack_envelope
from repro.cluster.ring import HashRing
from repro.core.interface import each
from repro.health.state import HealthState, HealthWindow, resolve_health


@dataclass(frozen=True)
class ClusterConfig:
    """Membership and quorum shape of one cluster.

    ``replication_factor`` copies of every key; reads need ``read_quorum``
    replica responses, writes ``write_quorum`` acks.  ``R + W > RF`` is
    required (rejected with :class:`~repro.common.errors.ConfigError`, a
    ``ValueError``) so read and write quorums always intersect.
    """

    num_nodes: int = 3
    replication_factor: int = 3
    read_quorum: int = 2
    write_quorum: int = 2

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError(f"need at least one node, got {self.num_nodes}")
        rf, r, w = self.replication_factor, self.read_quorum, self.write_quorum
        if not 1 <= rf <= self.num_nodes:
            raise ConfigError(
                f"replication_factor must be in [1, num_nodes={self.num_nodes}], "
                f"got {rf}"
            )
        if not 1 <= r <= rf or not 1 <= w <= rf:
            raise ConfigError(
                f"quorums must be in [1, rf={rf}], got R={r} W={w}"
            )
        if r + w <= rf:
            raise ConfigError(
                f"R+W must exceed RF for quorum intersection "
                f"(got R={r} + W={w} = {r + w} <= RF={rf}); raise R or W"
            )


@dataclass
class _RebalanceJob:
    """One planned shard move: copy ``keys`` onto ``dst`` from survivors."""

    dst: str
    keys: list[bytes] = field(default_factory=list)
    copied: int = 0
    hinted: int = 0
    skipped: int = 0


class HyperDBCluster:
    """A deterministic sharded cluster of single-node HyperDB instances."""

    def __init__(
        self,
        config: ClusterConfig,
        windows: tuple[HealthWindow, ...] = (),
        seed: int = 0,
        node_names: Optional[list[str]] = None,
        scrub=None,
        injectors: Optional[dict] = None,
    ) -> None:
        self.config = config
        self.windows = tuple(windows)
        self.seed = seed
        #: Optional per-node integrity knobs: ``scrub`` (a
        #: :class:`repro.scrub.ScrubConfig`) arms every node's background
        #: scrubber; ``injectors`` maps node name to a
        #: :class:`repro.simssd.faults.FaultInjector` shared by that
        #: node's devices (latent corruption soaks).  Both default to off,
        #: leaving existing cluster behavior and digests untouched.
        self._scrub = scrub
        self._injectors = dict(injectors or {})
        names = node_names or [f"node-{i}" for i in range(config.num_nodes)]
        if len(names) != config.num_nodes:
            raise ConfigError(
                f"{len(names)} node names for num_nodes={config.num_nodes}"
            )
        self.ring = HashRing(names)
        self.nodes: dict[str, ClusterNode] = {
            name: ClusterNode(
                name,
                rng_seed=seed * 1_000_003 + sum(name.encode()),
                injector=self._injectors.get(name),
                scrub=scrub,
            )
            for name in names
        }
        #: Cluster op clock: one tick per client operation (1-based, the
        #: ordinal node health windows are keyed on).
        self.clock = 0
        self._seqno = 0
        #: Pending hinted-handoff envelopes per down node, in write order.
        self.hints: dict[str, list[tuple[int, bytes, bytes]]] = {}
        #: Suspect keys whose anti-entropy audit read could not reach
        #: quorum (replicas down); re-queued for the next pass so an
        #: outage can defer healing but never cancel it.
        self.unhealed_suspects: list[bytes] = []
        #: Every key that reached at least one replica (the rebalance
        #: planner's key universe; sorted iteration keeps plans stable).
        self.keys_seen: set[bytes] = set()
        self.stats = StatsRegistry()
        #: Per-node replica ops rejected OFFLINE / surcharged in BROWNOUT.
        self.offline_rejections: dict[str, int] = {n: 0 for n in names}
        self.brownout_ops: dict[str, int] = {n: 0 for n in names}
        self.rebalance_jobs: list[_RebalanceJob] = []
        self._service_total = 0.0

    # --------------------------------------------------------------- health

    def node_health(self, name: str, at: Optional[int] = None) -> HealthState:
        """Health of ``name`` at cluster tick ``at`` (default: next op)."""
        tick = self.clock + 1 if at is None else at
        return resolve_health(self.windows, name, tick)[0]

    def all_healthy(self) -> bool:
        return all(
            self.node_health(n) is HealthState.HEALTHY for n in self.nodes
        )

    def _replica_guard(self, name: str) -> float:
        """Pre-flight one replica op: raise if the node is down.

        Returns the brownout latency multiplier (1.0 when healthy); an
        OFFLINE node raises :class:`DeviceOfflineError`, counted against it.
        """
        state, mult = resolve_health(self.windows, name, self.clock)
        if state is HealthState.OFFLINE:
            self.offline_rejections[name] += 1
            raise DeviceOfflineError(
                f"node {name!r} offline at cluster tick {self.clock}"
            )
        if state is HealthState.BROWNOUT:
            self.brownout_ops[name] += 1
        return mult

    # ---------------------------------------------------------------- write

    def put(self, key: bytes, value: bytes) -> float:
        """Quorum write; returns service seconds.  Raises
        :class:`QuorumError` when fewer than W replicas accept."""
        self.stats.counter("puts").add()
        return self._quorum_write(key, value, tombstone=False)

    def delete(self, key: bytes) -> float:
        """Quorum delete (a tombstone envelope, never an engine delete)."""
        self.stats.counter("deletes").add()
        return self._quorum_write(key, b"", tombstone=True)

    # ------------------------------------------------------------- batches
    #
    # Batch entry points mirroring the single-node ``KVStore`` batch API.
    # Quorum resolution is inherently per-key (each key has its own
    # replica set and health outcome), so these are the single-node per-op
    # loop (:func:`repro.core.interface.each`) — the win is one Python
    # call per batch at the client boundary, plus uniform error capture
    # for soak drivers: with ``capture_errors`` a failed op's slot holds
    # its :class:`QuorumError`.  Results are identical to the equivalent
    # per-op sequence: same clock ticks, same hint replays, same counters.

    def put_many(
        self, keys, values, capture_errors: bool = False
    ) -> list:
        """Quorum-write each pair; returns per-op service seconds."""
        return each(
            self.put, zip(*paired_columns(keys, values)), QuorumError,
            capture_errors,
        )

    def get_many(self, keys, capture_errors: bool = False) -> list:
        """Quorum-read each key; returns ``(payload, service)`` tuples."""
        return each(self.get, zip(keys), QuorumError, capture_errors)

    def delete_many(self, keys, capture_errors: bool = False) -> list:
        """Quorum-delete each key; returns per-op service seconds."""
        return each(self.delete, zip(keys), QuorumError, capture_errors)

    def _quorum_write(self, key: bytes, payload: bytes, tombstone: bool) -> float:
        self.clock += 1
        self._replay_due_hints()
        self._seqno += 1
        envelope = pack_envelope(self._seqno, payload, tombstone)
        replicas = self.ring.replicas_for(key, self.config.replication_factor)
        service = 0.0
        acked: list[str] = []
        failures: dict[str, str] = {}
        for name in replicas:
            try:
                mult = self._replica_guard(name)
            except DeviceOfflineError:
                failures[name] = "offline"
                continue
            try:
                service += self.nodes[name].put_envelope(key, envelope) * mult
            except OutOfSpaceError:
                failures[name] = "out_of_space"
                continue
            acked.append(name)
        self._service_total += service
        w = self.config.write_quorum
        ok = len(acked) >= w
        rec = obs.RECORDER
        if rec is not None:
            rec.emit(
                "quorum", t=self._service_total, op="write",
                acks=len(acked), required=w,
                rf=len(replicas), ok=ok, replicas=",".join(replicas),
            )
        if ok and len(acked) >= 1:
            self.keys_seen.add(key)
        if not ok:
            if acked:
                # Partial, unacked write: the value sits on a minority of
                # replicas and may surface later (newest-wins makes that
                # safe); the client was promised nothing.
                self.keys_seen.add(key)
            self.stats.counter("quorum_write_failures").add()
            raise QuorumError(
                "write", acks=len(acked), required=w,
                rf=len(replicas), failures=failures,
            )
        for name in replicas:
            if name not in acked:
                self.hints.setdefault(name, []).append(
                    (self._seqno, key, envelope)
                )
                self.stats.counter("hints_stored").add()
                if rec is not None:
                    rec.emit(
                        "handoff_stored", t=self._service_total,
                        node=name, seqno=self._seqno,
                    )
        self.stats.counter("quorum_writes").add()
        return service

    # ----------------------------------------------------------------- read

    def get(self, key: bytes) -> tuple[Optional[bytes], float]:
        """Quorum read; returns ``(payload or None, service seconds)``.

        Collects R replica responses in preference order, resolves
        newest-wins, and read-repairs any contacted replica that returned
        a stale or missing copy.  Raises :class:`QuorumError` when fewer
        than R replicas could respond.
        """
        self.stats.counter("gets").add()
        self.clock += 1
        self._replay_due_hints()
        value, service = self._read_resolve(key, self.config.read_quorum)
        self._service_total += service
        return value, service

    def read_full(self, key: bytes) -> tuple[Optional[bytes], float]:
        """Read with R=RF (contacts every live replica; repairs all).

        The verification/audit read: after recovery this converges every
        surviving replica of ``key`` to the newest envelope.
        """
        self.clock += 1
        value, service = self._read_resolve(
            key, self.config.replication_factor
        )
        self._service_total += service
        return value, service

    def _read_resolve(
        self, key: bytes, required: int
    ) -> tuple[Optional[bytes], float]:
        replicas = self.ring.replicas_for(key, self.config.replication_factor)
        # A shrunken ring carries fewer than RF replicas; an audit read
        # (R=RF) then needs every remaining one, not an impossible count.
        required = min(required, len(replicas))
        service = 0.0
        responses: list[tuple[str, Optional[tuple[int, bool, bytes]], float]] = []
        failures: dict[str, str] = {}
        #: Replicas whose copy failed its checksum, with their brownout
        #: multiplier — excluded from quorum resolution, repaired below.
        corrupt: list[tuple[str, float]] = []
        for name in replicas:
            if len(responses) >= required:
                break
            try:
                mult = self._replica_guard(name)
            except DeviceOfflineError:
                failures[name] = "offline"
                continue
            try:
                env, s = self.nodes[name].get_envelope(key)
            except CorruptionError:
                # A corrupt copy is no response: fall through to the next
                # replica (exactly like an offline one) and queue the
                # replica for repair from the winning envelope below.
                failures[name] = "corrupt"
                self.stats.counter("corrupt_replica_reads").add()
                corrupt.append((name, mult))
                continue
            service += s * mult
            responses.append((name, env, mult))
        # A corrupt replica contributes liveness to the quorum — the node
        # answered and will accept the repair write below — but no data, so
        # at least one intact response must exist to resolve from.  Without
        # this an audit read (R=RF) could never converge the one corrupt
        # replica it exists to heal.
        ok = len(responses) >= required or (
            bool(responses) and len(responses) + len(corrupt) >= required
        )
        rec = obs.RECORDER
        if rec is not None:
            rec.emit(
                "quorum", t=self._service_total + service, op="read",
                acks=len(responses), required=required,
                rf=len(replicas), ok=ok, replicas=",".join(replicas),
            )
        if not ok:
            self.stats.counter("quorum_read_failures").add()
            raise QuorumError(
                "read", acks=len(responses), required=required,
                rf=len(replicas), failures=failures,
            )
        newest: Optional[tuple[int, bool, bytes]] = None
        for _, env, _ in responses:
            if env is not None and (newest is None or env[0] > newest[0]):
                newest = env
        if newest is not None:
            seq, tomb, payload = newest
            envelope = pack_envelope(seq, payload, tomb)
            for name, env, mult in responses:
                if env is None or env[0] < seq:
                    service += self.nodes[name].put_envelope(key, envelope) * mult
                    self.stats.counter("read_repairs").add()
                    if rec is not None:
                        rec.emit(
                            "read_repair", t=self._service_total + service,
                            node=name, seqno=seq,
                            stale_seqno=env[0] if env else None,
                        )
            # Corrupt replicas are repaired with the quorum-newest envelope:
            # the re-write lands in the node's fast tier with a newer seqno,
            # shadowing the copy that failed its checksum until the node's
            # own scrub/compaction retires the corrupt bytes.
            for name, mult in corrupt:
                service += self.nodes[name].put_envelope(key, envelope) * mult
                self.stats.counter("read_repairs").add()
                self.stats.counter("corrupt_replica_repairs").add()
                if rec is not None:
                    rec.emit(
                        "read_repair", t=self._service_total + service,
                        node=name, seqno=seq, reason="corrupt",
                    )
            if not tomb:
                return payload, service
        return None, service

    # -------------------------------------------------------- hinted handoff

    def _replay_due_hints(self) -> None:
        """Replay pending hints to every node that is back up."""
        for name in sorted(self.hints):
            if not self.hints[name]:
                continue
            if resolve_health(self.windows, name, self.clock)[0] is HealthState.OFFLINE:
                continue
            self._replay_hints_to(name)

    def drain_hints(self) -> int:
        """Force hint replay to every non-offline node; returns replays."""
        self.clock += 1
        before = self.stats.counter("hints_replayed").value
        self._replay_due_hints()
        return self.stats.counter("hints_replayed").value - before

    def _replay_hints_to(self, name: str) -> None:
        node = self.nodes[name]
        pending = self.hints[name]
        self.hints[name] = []
        rec = obs.RECORDER
        service = 0.0
        for seqno, key, envelope in pending:
            env, s = node.get_envelope(key)
            service += s
            if env is not None and env[0] >= seqno:
                # The node already holds this version or newer (a later
                # write or a read repair landed first); the hint is stale.
                self.stats.counter("hints_obsolete").add()
                continue
            service += node.put_envelope(key, envelope)
            self.stats.counter("hints_replayed").add()
            if rec is not None:
                rec.emit(
                    "handoff_replay", t=self._service_total + service,
                    node=name, seqno=seqno,
                )
        self._service_total += service

    @property
    def pending_hints(self) -> int:
        return sum(len(v) for v in self.hints.values())

    # ---------------------------------------------------------- anti-entropy

    def anti_entropy(self) -> dict[str, int]:
        """One cluster-wide integrity pass: scrub nodes, heal suspect keys.

        Every healthy node with an armed scrubber runs one full scrub pass,
        which drops each corrupt copy it finds through the node's one
        triage per tier (a copy whose twin on the other tier is intact
        loses nothing).  Keys whose newest copy a node lost — found by
        scrub, read paths or maintenance alike — accumulate in
        ``db.suspect_keys``; this pass drains them and
        converges each one with an audit read (:meth:`read_full`), which
        re-replicates the quorum-newest envelope onto every replica that
        lost or corrupted its copy.  A key is truly lost only when *no*
        replica holds any version, so at RF >= 2 a single corrupt copy is
        always healed here.

        Returns ``{"scrubbed": nodes scrubbed, "suspects": distinct keys
        audited, "repairs": replica re-writes performed, "unreadable":
        suspect keys whose audit read could not reach quorum}``.
        """
        scrubbed = 0
        suspects: list[bytes] = []
        seen: set[bytes] = set()
        for key in self.unhealed_suspects:
            if key not in seen:
                seen.add(key)
                suspects.append(key)
        self.unhealed_suspects = []
        for name in sorted(self.nodes):
            node = self.nodes[name]
            self.clock += 1
            if (
                node.db.scrubber is not None
                and self.node_health(name) is not HealthState.OFFLINE
            ):
                node.db.scrub()
                scrubbed += 1
            for key in node.db.suspect_keys:
                if key not in seen:
                    seen.add(key)
                    suspects.append(key)
            node.db.suspect_keys.clear()
        repairs_before = self.stats.counter("read_repairs").value
        unreadable = 0
        for key in suspects:
            try:
                self.read_full(key)
            except QuorumError:
                # Too few live replicas to audit right now; re-queue the
                # key so the next pass retries once more nodes are up.
                unreadable += 1
                self.unhealed_suspects.append(key)
        repairs = self.stats.counter("read_repairs").value - repairs_before
        self.stats.counter("anti_entropy_passes").add()
        if suspects:
            self.stats.counter("anti_entropy_suspects").add(len(suspects))
        if repairs:
            self.stats.counter("anti_entropy_repairs").add(repairs)
        rec = obs.RECORDER
        if rec is not None:
            rec.emit(
                "anti_entropy", t=self._service_total,
                scrubbed=scrubbed, suspects=len(suspects),
                repairs=repairs, unreadable=unreadable,
            )
        return {
            "scrubbed": scrubbed,
            "suspects": len(suspects),
            "repairs": repairs,
            "unreadable": unreadable,
        }

    # ------------------------------------------------------------ rebalance

    def add_node(self, name: str) -> list[_RebalanceJob]:
        """Join ``name`` and migrate the shards it now replicates."""
        old_ring = self._ring_copy()
        self.nodes[name] = ClusterNode(
            name,
            rng_seed=self.seed * 1_000_003 + sum(name.encode()),
            injector=self._injectors.get(name),
            scrub=self._scrub,
        )
        self.offline_rejections.setdefault(name, 0)
        self.brownout_ops.setdefault(name, 0)
        self.ring.add(name)
        return self._rebalance(old_ring)

    def remove_node(self, name: str) -> list[_RebalanceJob]:
        """Gracefully drain ``name``: re-replicate its shards, then drop it.

        The leaving node stays available as a copy *source* during the
        rebalance (a graceful drain, not a crash — crashes are what health
        windows model).
        """
        old_ring = self._ring_copy()
        self.ring.remove(name)
        jobs = self._rebalance(old_ring)
        del self.nodes[name]
        self.hints.pop(name, None)
        return jobs

    def _ring_copy(self) -> HashRing:
        return HashRing(self.ring.nodes)

    def _rebalance(self, old_ring: HashRing) -> list[_RebalanceJob]:
        """Copy every key that gained a replica onto its new home.

        One migration job per destination node, executed in sorted order.
        Sources are the key's *old* replicas that are currently up; the
        newest envelope among them wins.  A down destination gets hints
        instead of copies; a key with no live source is counted
        ``skipped`` (it will converge via hints/read-repair later).
        """
        rf = self.config.replication_factor
        keys = sorted(self.keys_seen)
        gains = old_ring.diff(self.ring, keys, rf)
        rec = obs.RECORDER
        jobs: list[_RebalanceJob] = []
        for dst in sorted(gains):
            job = _RebalanceJob(dst=dst, keys=gains[dst])
            if rec is not None:
                rec.begin(
                    "rebalance", t=self._service_total,
                    dst=dst, keys=len(job.keys),
                )
            dst_down = (
                resolve_health(self.windows, dst, self.clock)[0]
                is HealthState.OFFLINE
            )
            service = 0.0
            for key in job.keys:
                newest = None
                for src in old_ring.replicas_for(key, rf):
                    if src == dst or src not in self.nodes:
                        continue
                    state, _ = resolve_health(self.windows, src, self.clock)
                    if state is HealthState.OFFLINE:
                        continue
                    env, s = self.nodes[src].get_envelope(key)
                    service += s
                    if env is not None and (newest is None or env[0] > newest[0]):
                        newest = env
                if newest is None:
                    job.skipped += 1
                    continue
                envelope = pack_envelope(newest[0], newest[2], newest[1])
                if dst_down:
                    self.hints.setdefault(dst, []).append(
                        (newest[0], key, envelope)
                    )
                    job.hinted += 1
                    self.stats.counter("hints_stored").add()
                else:
                    service += self.nodes[dst].put_envelope(key, envelope)
                    job.copied += 1
                    self.stats.counter("rebalanced_keys").add()
            self._service_total += service
            if rec is not None:
                rec.end(
                    "rebalance", t=self._service_total,
                    dst=dst, copied=job.copied, hinted=job.hinted,
                    skipped=job.skipped,
                )
            jobs.append(job)
        self.rebalance_jobs.extend(jobs)
        return jobs

    # -------------------------------------------------------------- metrics

    def busy_seconds(self) -> float:
        """Total simulated device time across every node."""
        return sum(n.busy_seconds() for n in self.nodes.values())

    def counters(self) -> dict[str, int]:
        return {
            name: self.stats.counter(name).value
            for name in (
                "puts", "deletes", "gets", "quorum_writes",
                "quorum_write_failures", "quorum_read_failures",
                "hints_stored", "hints_replayed", "hints_obsolete",
                "read_repairs", "rebalanced_keys",
            )
        }
