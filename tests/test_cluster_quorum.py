"""Tests for cluster quorum mechanics (repro.cluster.router).

Covers the quorum edge cases called out in the robustness issue: the RF=1
degenerate cluster matching a bare single-node engine byte-for-byte,
``R + W <= RF`` rejected at construction, and write-quorum-met-with-one-
replica-down read-back — plus hinted handoff, read repair, tombstone
resolution, and rebalance migration jobs.
"""

import hashlib

import pytest

from repro.chaos.fixtures import ops_stream
from repro.cluster import (
    ClusterConfig,
    HyperDBCluster,
    pack_envelope,
    unpack_envelope,
)
from repro.cluster.node import _NODE_NVME, _NODE_SATA, _node_config
from repro.common.errors import (
    ConfigError,
    DeviceOfflineError,
    KeyNotFoundError,
    QuorumError,
)
from repro.common.keys import encode_key
from repro.core.hyperdb import HyperDB
from repro.health.state import HealthState, HealthWindow
from repro.simssd.device import SimDevice


def cluster(num_nodes=3, rf=3, r=2, w=2, windows=(), seed=0):
    cfg = ClusterConfig(
        num_nodes=num_nodes, replication_factor=rf, read_quorum=r, write_quorum=w
    )
    return HyperDBCluster(cfg, windows=tuple(windows), seed=seed)


def offline(node, start, end):
    return HealthWindow(
        device=node, state=HealthState.OFFLINE, start_io=start, end_io=end
    )


def key_with_replica(c, node, position=1):
    """First key whose preference list has ``node`` at ``position``."""
    for i in range(10_000):
        k = encode_key(i)
        reps = c.ring.replicas_for(k, c.config.replication_factor)
        if reps[position] == node:
            return k
    raise AssertionError(f"no key places {node} at position {position}")


class TestConfigValidation:
    def test_quorum_overlap_required(self):
        # R + W <= RF would let a read quorum miss the last write quorum.
        with pytest.raises(ConfigError):
            ClusterConfig(replication_factor=3, read_quorum=1, write_quorum=2)

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            ClusterConfig(replication_factor=3, read_quorum=1, write_quorum=1)

    def test_rf_bounded_by_nodes(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_nodes=2, replication_factor=3)

    def test_quorums_bounded_by_rf(self):
        with pytest.raises(ConfigError):
            ClusterConfig(replication_factor=2, read_quorum=3, write_quorum=2)
        with pytest.raises(ConfigError):
            ClusterConfig(replication_factor=2, read_quorum=2, write_quorum=0)

    def test_node_name_count_checked(self):
        with pytest.raises(ConfigError):
            HyperDBCluster(ClusterConfig(num_nodes=3), node_names=["a", "b"])

    def test_valid_shapes_accepted(self):
        ClusterConfig(num_nodes=1, replication_factor=1, read_quorum=1, write_quorum=1)
        ClusterConfig(num_nodes=5, replication_factor=3, read_quorum=2, write_quorum=2)
        ClusterConfig(num_nodes=3, replication_factor=3, read_quorum=1, write_quorum=3)


class TestEnvelope:
    def test_round_trip(self):
        env = pack_envelope(42, b"payload")
        assert unpack_envelope(env) == (42, False, b"payload")

    def test_tombstone_flag(self):
        env = pack_envelope(7, b"", tombstone=True)
        assert unpack_envelope(env) == (7, True, b"")

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            unpack_envelope(b"\x00" * 8)

    def test_negative_seqno_rejected(self):
        with pytest.raises(ValueError):
            pack_envelope(-1, b"x")


class TestDegenerateClusterEqualsSingleNode:
    def test_rf1_matches_bare_engine_digest(self):
        # An RF=1/R=1/W=1 single-node cluster is just routing overhead
        # around one HyperDB: the final logical state must be
        # byte-identical to a bare engine fed the same op stream.
        seed = 0
        c = cluster(num_nodes=1, rf=1, r=1, w=1, seed=seed)
        rng_seed = seed * 1_000_003 + sum(b"node-0")
        bare = HyperDB(
            SimDevice(_NODE_NVME), SimDevice(_NODE_SATA), _node_config(rng_seed)
        )

        ops = ops_stream(seed=11, n=150)
        touched = sorted({key for _, key, _ in ops})
        for op, key, value in ops:
            if op == "put":
                c.put(key, value)
                bare.put(key, value)
            elif op == "get":
                c.get(key)
                bare.get(key)
            else:
                c.delete(key)
                try:
                    bare.delete(key)
                except KeyNotFoundError:
                    pass

        def digest(read):
            h = hashlib.sha256()
            for key in touched:
                value = read(key)
                h.update(key)
                h.update(b"\x00" if value is None else b"\x01" + value)
            return h.hexdigest()

        assert digest(lambda k: c.get(k)[0]) == digest(lambda k: bare.get(k)[0])


class TestQuorumWrites:
    def test_write_quorum_met_with_one_replica_down(self):
        c = cluster(windows=[offline("node-1", 1, 200)])
        k = key_with_replica(c, "node-1")
        c.put(k, b"survives")
        # 2/3 acks met W=2; the down replica got a hint, not a write.
        assert c.counters()["quorum_writes"] == 1
        assert c.counters()["hints_stored"] == 1
        assert c.pending_hints == 1
        value, _ = c.get(k)
        assert value == b"survives"

    def test_sub_quorum_write_raises_with_attribution(self):
        c = cluster(windows=[offline("node-0", 1, 200), offline("node-1", 1, 200)])
        k = encode_key(0)
        with pytest.raises(QuorumError) as ei:
            c.put(k, b"x")
        err = ei.value
        assert err.kind == "write"
        assert err.acks == 1 and err.required == 2 and err.rf == 3
        assert set(err.failures) == {"node-0", "node-1"}
        assert all(reason == "offline" for reason in err.failures.values())
        assert c.counters()["quorum_write_failures"] == 1

    def test_offline_rejection_carries_node_id(self):
        c = cluster(windows=[offline("node-2", 1, 200)])
        c.clock = 1  # the guard resolves health at the current op tick
        with pytest.raises(DeviceOfflineError) as ei:
            c._replica_guard("node-2")
        assert "'node-2'" in str(ei.value)
        assert c.offline_rejections["node-2"] == 1

    def test_delete_is_a_quorum_tombstone(self):
        c = cluster()
        k = encode_key(1)
        c.put(k, b"v1")
        c.delete(k)
        value, _ = c.get(k)
        assert value is None
        # The engine still holds tombstone envelopes on every replica —
        # deletes never erase version information.
        for name in c.ring.replicas_for(k, 3):
            env, _ = c.nodes[name].get_envelope(k)
            assert env is not None and env[1] is True


class TestHintedHandoff:
    def test_hints_replay_when_node_recovers(self):
        c = cluster(windows=[offline("node-1", 1, 2)])
        k = key_with_replica(c, "node-1")
        c.put(k, b"missed")  # tick 1: node-1 down, hint stored
        assert c.pending_hints == 1
        c.put(encode_key(9_999), b"unrelated")  # tick 2: node-1 back, replay
        assert c.pending_hints == 0
        assert c.counters()["hints_replayed"] == 1
        env, _ = c.nodes["node-1"].get_envelope(k)
        assert env is not None and env[2] == b"missed"

    def test_obsolete_hint_skipped(self):
        c = cluster(windows=[offline("node-1", 1, 2)])
        k = key_with_replica(c, "node-1")
        c.put(k, b"old")  # tick 1: hint for node-1 at seqno 1
        # tick 2: read_full repairs node-1 to the newest envelope before
        # the hint queue drains (read_full does not replay hints).
        c.read_full(k)
        assert c.counters()["read_repairs"] >= 1
        assert c.drain_hints() == 0
        assert c.counters()["hints_obsolete"] == 1
        env, _ = c.nodes["node-1"].get_envelope(k)
        assert env is not None and env[2] == b"old"

    def test_newer_write_supersedes_queued_hint(self):
        c = cluster(windows=[offline("node-1", 1, 3)])
        k = key_with_replica(c, "node-1")
        c.put(k, b"v1")  # tick 1, hint seqno 1
        c.put(k, b"v2")  # tick 2, hint seqno 2
        assert c.pending_hints == 2
        assert c.drain_hints() >= 1  # tick 3: node-1 back
        env, _ = c.nodes["node-1"].get_envelope(k)
        assert env is not None and env[2] == b"v2"
        value, _ = c.get(k)
        assert value == b"v2"


class TestReadsAndRepair:
    def test_read_quorum_failure_attributed(self):
        c = cluster(windows=[offline("node-0", 1, 200), offline("node-1", 1, 200)])
        with pytest.raises(QuorumError) as ei:
            c.get(encode_key(3))
        assert ei.value.kind == "read"
        assert ei.value.acks == 1 and ei.value.required == 2

    def test_read_repair_heals_stale_replica(self):
        c = cluster(windows=[offline("node-1", 1, 2)])
        k = key_with_replica(c, "node-1")
        c.put(k, b"fresh")  # node-1 missed it
        before = c.counters()["read_repairs"]
        value, _ = c.read_full(k)  # tick 2: node-1 up, empty, repaired
        assert value == b"fresh"
        assert c.counters()["read_repairs"] == before + 1
        env, _ = c.nodes["node-1"].get_envelope(k)
        assert env is not None and env[2] == b"fresh"

    def test_newest_seqno_wins_across_replicas(self):
        c = cluster()
        k = encode_key(5)
        c.put(k, b"v1")
        c.put(k, b"v2")
        # Force one replica stale by hand, then read with full fan-out.
        name = c.ring.replicas_for(k, 3)[2]
        c.nodes[name].put_envelope(k, pack_envelope(1, b"v1"))
        value, _ = c.read_full(k)
        assert value == b"v2"

    def test_missing_key_reads_none(self):
        c = cluster()
        value, _ = c.get(encode_key(4_321))
        assert value is None


class TestRebalance:
    def seeded(self):
        c = cluster()
        for i in range(60):
            c.put(encode_key(i), b"val-%03d" % i)
        return c

    def test_join_copies_gained_shards(self):
        c = self.seeded()
        jobs = c.add_node("node-3")
        assert jobs and all(j.dst == "node-3" for j in jobs)
        moved = sum(j.copied for j in jobs)
        assert moved == c.counters()["rebalanced_keys"] > 0
        # Every migrated key is readable from the new full preference list.
        for i in range(60):
            value, _ = c.get(encode_key(i))
            assert value == b"val-%03d" % i

    def test_join_of_down_node_hints_instead(self):
        c = self.seeded()
        tick = c.clock
        c.windows = (offline("node-3", 1, tick + 100),)
        jobs = c.add_node("node-3")
        assert sum(j.hinted for j in jobs) > 0
        assert sum(j.copied for j in jobs) == 0
        assert c.pending_hints == sum(j.hinted for j in jobs)

    def test_graceful_drain_preserves_every_key(self):
        c = self.seeded()
        c.add_node("node-3")
        jobs = c.remove_node("node-1")
        assert "node-1" not in c.nodes and "node-1" not in c.ring
        assert sum(j.copied for j in jobs) > 0
        for i in range(60):
            value, _ = c.get(encode_key(i))
            assert value == b"val-%03d" % i

    def test_rebalance_is_deterministic(self):
        def run():
            c = self.seeded()
            jobs = c.add_node("node-3")
            return [(j.dst, j.copied, j.hinted, j.skipped, j.keys) for j in jobs]

        assert run() == run()
