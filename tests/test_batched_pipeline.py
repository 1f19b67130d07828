"""Batched request pipeline equivalence (the batching contract).

The batch entry points (``put_many``/``get_many``/``delete_many``, the
runner's sliced dispatch) are control-flow
fusion only: every test here asserts *bit-identical* results against the
per-op path (for whole runs: the scalar reference executor in
``tests/reference_runner.py``) — service floats, traffic ledgers,
latency histograms, and counter registries including insertion order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.prismdb import PrismDBStore
from repro.bench.context import BenchScale, build_store, hyperdb_config
from repro.common.errors import CorruptionError, DeviceOfflineError
from repro.common.keys import encode_key, encode_keys
from repro.core import HyperDB
from repro.core.interface import KVStore
from repro.health.state import HealthState, HealthWindow
from repro.lsm.lsmtree import LSMTree
from repro.nvme import NVMeConfig
from repro.simssd import FaultInjector, FaultPlan
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


# A tiered store whose NVMe tier overflows (demotions run) and whose
# devices share one injector.  No DRAM cache: every read is a device I/O,
# so the injector's I/O clock keeps moving through an outage and each
# window closes inside the batch it opened in.
FAULTED_SCALE = BenchScale(record_count=1000, value_size=300, nvme_ratio=0.25, seed=11)
# Far past any run: keeps both devices health-guarded in the probe runs.
_FAR_WINDOW = HealthWindow("nvme", HealthState.OFFLINE, 1 << 40, (1 << 40) + 1)
_CAUGHT = {"put": DeviceOfflineError, "delete": DeviceOfflineError,
           "get": (DeviceOfflineError, CorruptionError)}


def _faulted_store(engine, windows=()):
    inj = FaultInjector(FaultPlan(seed=3, health_windows=(*windows, _FAR_WINDOW)))
    scale = FAULTED_SCALE
    devices = scale.devices(inj)
    if engine == "prismdb":
        # Watermarks low enough that half the records demote.
        config = NVMeConfig(high_watermark=0.5, low_watermark=0.4)
        return PrismDBStore(*devices, config, dram_cache_bytes=0), inj
    return HyperDB(*devices, hyperdb_config(scale, dram_cache_bytes=0)), inj


def _batch(store, op, rows, busy_out=None):
    """One batch call with ``capture_errors``; ``rows`` are per-op args."""
    return getattr(store, f"{op}_many")(
        *zip(*rows), busy_out=busy_out, capture_errors=True
    )


def _per_op(store, op, rows, busy_out):
    """The same ops as scalar calls, each error caught on its own."""
    devs = list(store.devices().values())
    out = []
    for args in rows:
        try:
            out.append(getattr(store, op)(*args))
        except _CAUGHT[op] as exc:
            out.append(exc)
        busy_out.append(tuple(d.busy_seconds() for d in devs))
    return out


def _outage_windows(engine, script):
    """Per batch of ``script``, an NVMe and then a SATA OFFLINE window of
    20 I/Os, each opening at an op boundary read off a probe run that
    carries every earlier window.  The SATA window opens on the first op
    from the batch's middle on that starts a demotion job, when one does,
    so that job is paused and caught up inside the batch."""
    windows = []
    for b, (op, rows) in enumerate(script):
        for device, frac in (("nvme", 0.2), ("sata", 0.55)):
            store, inj = _faulted_store(engine, windows)
            for earlier in script[:b]:
                _batch(store, *earlier)
            starts, demotes = [], []
            for args in rows:
                starts.append(inj.total_ios + 1)
                jobs = store.migration.stats.demotion_jobs
                _per_op(store, op, [args], [])
                demotes.append(store.migration.stats.demotion_jobs > jobs)
            i = int(frac * len(rows))
            if device == "sata":
                i = next((j for j in range(i, len(rows)) if demotes[j]), i)
            windows.append(
                HealthWindow(device, HealthState.OFFLINE, starts[i], starts[i] + 20)
            )
    return windows


def _slots(results):
    """Results with each captured error as its type and message."""
    return [
        (type(r), str(r)) if isinstance(r, Exception) else r for r in results
    ]


@pytest.mark.parametrize(
    "store_name",
    ["hyperdb", "rocksdb", "prismdb", "hyperdb-faulted", "prismdb-faulted"],
)
def test_store_batch_methods_match_loops(store_name):
    faulted = store_name.endswith("-faulted")
    n = 1000 if faulted else 64
    keys = encode_keys(list(range(n)))
    values = [b"v%0299d" % i for i in range(n)]
    # Reads stride over the key space, so both tiers' keys interleave in
    # every stretch: an outage that blocks one tier's reads still sees the
    # other's I/O, and its window closes inside the batch.
    script = [
        ("put", list(zip(keys, values))),
        ("get", [(keys[i * 389 % n],) for i in range(n)]),
        ("delete", [(k,) for k in keys[::3]]),
    ]
    if faulted:
        engine = store_name.removesuffix("-faulted")
        windows = _outage_windows(engine, script)
        (s1, _), (s2, _) = _faulted_store(engine, windows), _faulted_store(engine, windows)
    else:
        s1, s2 = _small_store(store_name), _small_store(store_name)

    for op, rows in script:
        rows_b: list = []
        rows_p: list = []
        got = _batch(s1, op, rows, busy_out=rows_b)
        want = _per_op(s2, op, rows, rows_p)
        # Service values, and the type, message and position of every
        # captured error.
        assert _slots(got) == _slots(want), op
        # The batch's per-op busy rows are the same snapshots a per-op
        # caller would take after each call.
        assert rows_b == rows_p, op
        if faulted:
            # Both of this batch's windows opened and closed inside it.
            for dev in s1.devices().values():
                assert dev.health() is HealthState.HEALTHY, op
            if op == "get":
                assert any(isinstance(r, DeviceOfflineError) for r in got)

    for d1, d2 in zip(s1.devices().values(), s2.devices().values()):
        assert d1.traffic.snapshot() == d2.traffic.snapshot()
        assert d1.busy_seconds() == d2.busy_seconds()
    stats1 = getattr(s1, "stats", None)
    if stats1 is not None:
        # Values and insertion order.
        assert [(k, c.value) for k, c in stats1.counters.items()] == [
            (k, c.value) for k, c in s2.stats.counters.items()
        ]
        assert getattr(s1, "suspect_keys", None) == getattr(s2, "suspect_keys", None)
    if faulted:
        counters = stats1.counters
        for name in ("failover_writes", "failover_reads", "failover_blocked_reads"):
            assert counters[name].value > 0, name
        assert s1.migration.stats.paused_jobs > 0
        assert s1.migration.stats.catch_up_drains > 0


@pytest.mark.parametrize("store_name", ["hyperdb", "prismdb"])
def test_scalar_ops_are_batches_of_one(monkeypatch, store_name):
    """``put`` / ``get`` / ``delete`` of the tiered engines have no body of
    their own: each is one call of its batch form, with one key."""
    store = _small_store(store_name)
    calls = []
    for name in ("put_many", "get_many", "delete_many"):
        batch = getattr(store, name)

        def spy(*args, _name=name, _batch=batch, **kw):
            calls.append((_name, [list(a) for a in args]))
            return _batch(*args, **kw)

        monkeypatch.setattr(store, name, spy)
    key = encode_key(5)
    store.put(key, b"v")
    assert store.get(key)[0] == b"v"
    store.delete(key)
    assert calls == [
        ("put_many", [[key], [b"v"]]),
        ("get_many", [[key]]),
        ("delete_many", [[key]]),
    ]
    assert type(store).put_many is not KVStore.put_many


@pytest.mark.parametrize("store_name", ["rocksdb", "rocksdb-sc"])
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

