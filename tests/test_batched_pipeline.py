"""Batched request pipeline equivalence (the batching contract).

The batch entry points (``put_many``/``get_many``/``delete_many``, the
runner's sliced dispatch, the cluster router batches) are control-flow
fusion only: every test here asserts *bit-identical* results against the
per-op path (for whole runs: the scalar reference executor in
``tests/reference_runner.py``) — service floats, traffic ledgers,
latency histograms, and counter registries including insertion order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.context import BenchScale, build_store
from repro.common.keys import encode_key, encode_keys
from repro.core.interface import KVStore
from repro.lsm.lsmtree import LSMTree
from repro.ycsb.runner import WorkloadRunner
from repro.ycsb.workload import YCSB_WORKLOADS
from tests.reference_runner import ReferenceRunner

SCALE_KW = dict(
    record_count=600,
    operations=600,
    value_size=96,
    clients=4,
    background_threads=4,
    seed=11,
)


def _fresh_runner(store_name: str, runner_cls) -> WorkloadRunner:
    scale = BenchScale(**SCALE_KW)
    store = build_store(store_name, scale)
    return runner_cls(
        store,
        record_count=scale.record_count,
        value_size=scale.value_size,
        clients=scale.clients,
        background_threads=scale.background_threads,
        seed=scale.seed,
    )


def _execute(store_name: str, workload: str, runner_cls):
    runner = _fresh_runner(store_name, runner_cls)
    load_total = runner.load()
    result = runner.run(YCSB_WORKLOADS[workload], SCALE_KW["operations"])
    return runner, load_total, result


def _assert_identical(store_name: str, workload: str) -> None:
    r_b, load_b, res_b = _execute(store_name, workload, WorkloadRunner)
    r_p, load_p, res_p = _execute(store_name, workload, ReferenceRunner)

    assert load_b == load_p, "load-phase service totals diverge"
    assert res_b.operations == res_p.operations
    assert res_b.elapsed_s == res_p.elapsed_s
    assert res_b.throughput_ops == res_p.throughput_ops
    assert res_b.traffic == res_p.traffic
    assert res_b.utilization == res_p.utilization
    assert res_b.space_used == res_p.space_used

    assert set(res_b.latency_by_op) == set(res_p.latency_by_op)
    for op in res_b.latency_by_op:
        sb = res_b.latency_by_op[op].samples()
        sp = res_p.latency_by_op[op].samples()
        assert np.array_equal(sb, sp), f"{op} latency samples diverge"

    stats_b = getattr(r_b.store, "stats", None)
    stats_p = getattr(r_p.store, "stats", None)
    if stats_b is not None and stats_p is not None:
        # Values AND insertion order: the fused paths must create
        # counters lazily exactly where the per-op path does.
        assert [
            (name, c.value) for name, c in stats_b.counters.items()
        ] == [(name, c.value) for name, c in stats_p.counters.items()]


@pytest.mark.parametrize("workload", ["A", "B", "D", "E"])
def test_hyperdb_runner_equals_scalar_reference(workload):
    _assert_identical("hyperdb", workload)


@pytest.mark.parametrize("workload", ["A", "B"])
def test_rocksdb_runner_equals_scalar_reference(workload):
    _assert_identical("rocksdb", workload)


# ----------------------------------------------------- store-level batches


def _small_store(name: str):
    return build_store(name, BenchScale(**SCALE_KW))


@pytest.mark.parametrize("store_name", ["hyperdb", "rocksdb"])
def test_store_batch_methods_match_loops(store_name):
    keys = encode_keys(list(range(64)))
    values = [b"v%060d" % i for i in range(64)]

    s1 = _small_store(store_name)
    busy_rows: list = []
    put_services = s1.put_many(keys, values, busy_out=busy_rows)
    get_results = s1.get_many(keys)

    s2 = _small_store(store_name)
    exp_services = []
    exp_rows = []
    devs = list(s2.devices().values())
    for k, v in zip(keys, values):
        exp_services.append(s2.put(k, v))
        exp_rows.append(tuple(d.busy_seconds() for d in devs))
    exp_get = [s2.get(k) for k in keys]

    assert put_services == exp_services
    assert get_results == exp_get
    # The batch's per-op busy rows are the same snapshots a per-op
    # caller would take after each call.
    assert busy_rows == exp_rows


@pytest.mark.parametrize("store_name", ["rocksdb", "rocksdb-sc", "prismdb"])
def test_lsm_backed_stores_have_no_batch_body_of_their_own(store_name):
    """One body per op on the classic LSM: the batch entry points are
    ``KVStore``'s per-op loop over ``put`` / ``get`` — the only bodies that
    quarantine a corrupt table.  A fused path on the baseline measured
    behind (DESIGN.md §11's fork table); a PR that wants one back deletes
    this test together with its ten pairs."""
    cls = type(_small_store(store_name))
    assert cls.put_many is KVStore.put_many
    assert cls.get_many is KVStore.get_many
    assert not hasattr(LSMTree, "put_many") and not hasattr(LSMTree, "get_many")


def test_encode_keys_matches_scalar_encoding():
    ids = [0, 1, 2, 1000, 2**31, 2**40 + 17]
    assert encode_keys(ids) == [encode_key(i) for i in ids]
    assert encode_keys(np.array(ids, dtype=np.int64)) == [
        encode_key(i) for i in ids
    ]
    assert encode_keys([]) == []
    with pytest.raises(ValueError):
        encode_keys([-1])


def test_used_pages_counter_matches_recomputed():
    """The O(1) incremental page counter equals a fresh per-zone sum."""
    store = _small_store("hyperdb")
    keys = encode_keys(list(range(500)))
    values = [b"x" * 90 for _ in keys]
    store.put_many(keys, values)
    for partition in store.performance_tier.partitions:
        recomputed = partition.hot_zone.total_pages() + sum(
            z.total_pages() for z in partition.zones()
        )
        assert partition.used_pages == recomputed


# ------------------------------------------------------- cluster batches


def _cluster(windows=()):
    from repro.cluster.router import ClusterConfig, HyperDBCluster

    return HyperDBCluster(
        ClusterConfig(num_nodes=3, replication_factor=3), windows=windows, seed=3
    )


def test_cluster_batches_match_per_op():
    keys = encode_keys(list(range(40)))
    values = [b"cv%038d" % i for i in range(40)]

    c1 = _cluster()
    put_b = c1.put_many(keys, values)
    get_b = c1.get_many(keys)
    del_b = c1.delete_many(keys[:10])

    c2 = _cluster()
    put_p = [c2.put(k, v) for k, v in zip(keys, values)]
    get_p = [c2.get(k) for k in keys]
    del_p = [c2.delete(k) for k in keys[:10]]

    assert put_b == put_p
    assert get_b == get_p
    assert del_b == del_p
    assert c1.counters() == c2.counters()


def test_cluster_batch_capture_errors():
    from repro.common.errors import QuorumError
    from repro.health.state import HealthState, HealthWindow

    keys = encode_keys(list(range(30)))
    values = [b"w" * 40 for _ in keys]
    # All three nodes offline for a stretch of ticks: quorum writes in
    # that range must surface as captured QuorumError slots.
    windows = tuple(
        HealthWindow(f"node-{i}", HealthState.OFFLINE, 5, 20) for i in range(3)
    )
    cluster = _cluster(windows=windows)
    slots = cluster.put_many(keys, values, capture_errors=True)
    assert len(slots) == len(keys)
    errs = [s for s in slots if isinstance(s, QuorumError)]
    oks = [s for s in slots if isinstance(s, float)]
    assert errs, "expected quorum failures inside the outage window"
    assert oks, "expected acked writes outside the outage window"
    # Without capture_errors the same stream raises.
    cluster2 = _cluster(windows=windows)
    with pytest.raises(QuorumError):
        cluster2.put_many(keys, values)
