"""Columnar execution equivalence (the columnar contract).

The run path vectorizes pure work — key encoding, latency attribution,
the hotness filters' batched probes — but every I/O still lands in op
order.  These tests enforce the contract end to end:
the e2e digest (traffic ledgers, elapsed time, space, raw latency
samples) of the runner's single path must be byte-identical to the
scalar reference executor (``tests/reference_runner.py``: public scalar
API, one op at a time) for both engines, across all YCSB mixes, and with
a fault injector and health windows active (where the guarded devices
must fall back to the scalar paths without skipping any charge).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.bench.context import BenchScale, build_store
from repro.common.bloom import BloomFilter, hash_many
from repro.common.keys import KeyRange, encode_key
from repro.core import HyperDB, HyperDBConfig
from repro.health.state import HealthState, HealthWindow
from repro.nvme.config import NVMeConfig
from repro.simssd import (
    NVME_PROFILE,
    SATA_PROFILE,
    FaultInjector,
    FaultPlan,
    SimDevice,
    TrafficKind,
)
from repro.ycsb.runner import WorkloadRunner
from repro.ycsb.workload import YCSB_WORKLOADS
from tests.reference_runner import ReferenceRunner

KiB = 1024

SCALE_KW = dict(
    record_count=500,
    operations=500,
    value_size=96,
    clients=4,
    background_threads=4,
    seed=13,
)


def _digest_for(store_factory, workload: str, runner_cls, scale=None):
    scale = scale or BenchScale(**SCALE_KW)
    store = store_factory(scale)
    runner = runner_cls(
        store,
        record_count=scale.record_count,
        value_size=scale.value_size,
        clients=scale.clients,
        background_threads=scale.background_threads,
        seed=scale.seed,
    )
    load_total = runner.load()
    result = runner.run(YCSB_WORKLOADS[workload], scale.operations)
    counters = None
    stats = getattr(store, "stats", None)
    if stats is not None:
        counters = [(name, c.value) for name, c in stats.counters.items()]
    return result.digest(load_total), counters


def _assert_matches_reference(store_factory, workload: str) -> None:
    digest, counters = _digest_for(store_factory, workload, WorkloadRunner)
    ref_digest, ref_counters = _digest_for(store_factory, workload, ReferenceRunner)
    assert digest == ref_digest, f"{workload}: runner != scalar reference"
    # Counter registries must agree in value AND insertion order: fused
    # paths create counters lazily exactly where the per-op path does.
    assert counters == ref_counters


# ----------------------------------------------------- unguarded, all mixes


@pytest.mark.parametrize("workload", sorted(YCSB_WORKLOADS))
def test_hyperdb_matches_scalar_reference(workload):
    _assert_matches_reference(lambda s: build_store("hyperdb", s), workload)


@pytest.mark.parametrize("workload", sorted(YCSB_WORKLOADS))
def test_rocksdb_matches_scalar_reference(workload):
    _assert_matches_reference(lambda s: build_store("rocksdb", s), workload)


def test_smoke_e2e_digest_matches_committed_pin():
    # The whole-engine pin: HyperDB at the default bench geometry, 1,200
    # records loaded, 1,200 ops of YCSB-B.  Any drift in the float math —
    # a charge, a ledger, the elapsed model, the multi-queue model at
    # queue_count=1 — changes these bytes; the scalar-reference tests
    # above would still pass if both executors drifted together.
    scale = BenchScale(record_count=1_200, operations=1_200)
    digest, _ = _digest_for(
        lambda s: build_store("hyperdb", s), "B", WorkloadRunner, scale
    )
    pin = Path(__file__).parent.parent / "results" / "DIGEST_ycsb_e2e_smoke.txt"
    assert digest == pin.read_text().strip()


# ------------------------------------------- guarded: injector + windows


def _faulted_hyperdb(scale: BenchScale) -> HyperDB:
    # Brownout both tiers mid-run: the guarded devices force every batch
    # entry point onto its per-op fallback, and window boundaries must
    # land between ops exactly where the scalar reference puts them.
    windows = (
        HealthWindow("nvme-sim", HealthState.BROWNOUT, 200, 900, 4.0),
        HealthWindow("sata-sim", HealthState.BROWNOUT, 400, 1600, 8.0),
    )
    inj = FaultInjector(FaultPlan(seed=5, health_windows=windows))
    nvme = SimDevice(NVME_PROFILE.with_capacity(scale.nvme_bytes), injector=inj)
    sata = SimDevice(SATA_PROFILE.with_capacity(scale.sata_bytes), injector=inj)
    d = scale.dataset_bytes
    return HyperDB(
        nvme,
        sata,
        HyperDBConfig(
            key_space=scale.key_space,
            nvme=NVMeConfig(
                num_partitions=2,
                initial_zones_per_partition=2,
                migration_batch_bytes=max(16 * KiB, d // 32),
            ),
            semi_num_levels=3,
            semi_size_ratio=8,
            semi_bottom_segments=64,
            semi_level1_target_bytes=max(128 * KiB, d // 4),
            dram_cache_bytes=max(64 * KiB, d // 16),
        ),
    )


@pytest.mark.parametrize("workload", ["A", "B"])
def test_hyperdb_matches_scalar_reference_under_faults(workload):
    _assert_matches_reference(_faulted_hyperdb, workload)


def test_guarded_device_never_skips_charges():
    """An injector disables the device fast path but not the ledger.

    The same charge sequence on a guarded device (no-op fault plan) and
    an unguarded one must produce bit-identical traffic — the fast path
    is an implementation detail of *how* charges are noted, never
    *whether*.
    """
    guarded = SimDevice(
        NVME_PROFILE.with_capacity(1 << 20),
        injector=FaultInjector(FaultPlan(seed=0)),
    )
    plain = SimDevice(NVME_PROFILE.with_capacity(1 << 20))
    assert not guarded._fastpath
    assert plain._fastpath
    for dev in (guarded, plain):
        dev.allocate(8)
        dev.write_pages(3, TrafficKind.FOREGROUND, sequential=False)
        dev.read_pages(2, TrafficKind.FOREGROUND, sequential=False)
        dev.write_pages_batch([1, 2, 1], TrafficKind.GC, sequential=False)
        dev.read_pages_batch([2, 1], TrafficKind.MIGRATION, sequential=True)
        dev.write_bytes_io(6000, TrafficKind.COMPACTION, sequential=True)
        dev.read_bytes_io(4096, TrafficKind.FOREGROUND)
    assert guarded.traffic.snapshot() == plain.traffic.snapshot()
    assert guarded.busy_seconds() == plain.busy_seconds()


# ------------------------------------------------- vectorized primitives


def test_contains_many_matches_scalar_contains():
    keys = [b"k%05d" % i for i in range(400)]
    bf = BloomFilter.for_keys(keys[::2], bits_per_key=10)
    probes = keys + [b"", b"\x00", b"k00001\x00", b"\xff" * 12]
    verdicts = bf.contains_many(hash_many(probes))
    for key, v in zip(probes, verdicts.tolist()):
        assert v == (key in bf), key


def test_memtable_deferred_order_is_observably_sorted():
    from repro.lsm.memtable import MemTable

    mt = MemTable(1 << 20)
    rng = np.random.default_rng(9)
    from repro.common.records import Record

    keys = [b"m%06d" % int(x) for x in rng.integers(0, 5000, size=800)]
    for i, k in enumerate(keys):
        mt.put(Record(k, b"x%04d" % i, i + 1))
    # Interleave an ordered access with more puts: the backlog must merge
    # incrementally without losing or duplicating keys.
    assert mt.first_key() == min(keys)
    for i, k in enumerate([b"a-low", b"z-high", keys[0]]):
        mt.put(Record(k, b"y", 10_000 + i))
    out = [r.key for r in mt.records()]
    assert out == sorted(set(keys) | {b"a-low", b"z-high"})
    assert mt.last_key() == b"z-high"
    assert len(mt) == len(out)
    # Replacements keep size accounting exact.
    assert mt.get(keys[0]).value == b"y"
