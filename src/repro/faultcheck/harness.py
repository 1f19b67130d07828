"""Workload → crash → recover → verify, over seeded fault plans.

The harness drives a deterministic workload against an engine whose devices
share one :class:`FaultInjector` (whole-node power loss), crashes it at a
sampled write-I/O ordinal, rebuilds the engine from what survived on media,
and checks the recovery contract:

* **LSM / RocksDB-like** — the recovered store must equal the state after
  some *prefix* of the issued operations, at least as long as the durable
  watermark (``WriteAheadLog.total_synced_records``): every synced-
  acknowledged write is readable, acked-but-unsynced writes may or may not
  survive (torn group commit), and nothing out-of-order or corrupt ever
  appears.
* **HyperDB** — the performance tier recovers to its last index checkpoint:
  every pre-checkpoint object must come back with its checkpoint-time
  value; post-checkpoint writes are lost (documented §3.1 semantics) and
  must read as missing, never as garbage.
* **Transient absorption** — under a seeded error rate, the device retry
  policy must absorb every fault (no ``TransientIOError`` escapes), values
  must stay intact, and the retried traffic must be visible in the ledger.

Everything is seeded: a failing crash point reproduces exactly.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro import obs
from repro.chaos.fixtures import (
    KiB,
    MiB,
    NVME_PROFILE,
    SATA_PROFILE,
    Op,
    ops_stream,
    small_hyperdb_config,
)
from repro.common.errors import PowerLossError, TransientIOError
from repro.common.keys import encode_key
from repro.core.hyperdb import HyperDB
from repro.lsm.lsmtree import DbPath, LSMOptions, LSMTree
from repro.parallel import Job, JobResult, run_jobs
from repro.parallel.pool import unwrap_all
from repro.simssd.device import SimDevice
from repro.simssd.faults import FaultInjector, FaultPlan
from repro.simssd.fs import SimFilesystem

#: 4 MiB of NVMe, where the soaks make do with one.
_NVME_PROFILE = replace(NVME_PROFILE, capacity_bytes=4 * MiB)


# --------------------------------------------------------------- reporting


@dataclass
class CrashPointResult:
    """Outcome of one workload → crash → recover → verify cycle."""

    engine: str
    crash_after_write_io: int
    ops_issued: int = 0
    ops_acked: int = 0
    durable_watermark: int = 0
    recovered_prefix: int = -1
    wal_truncated: bool = False
    ok: bool = False
    detail: str = ""


@dataclass
class MatrixReport:
    """All crash points tried for one engine."""

    engine: str
    total_write_ios: int
    results: list[CrashPointResult] = field(default_factory=list)
    #: The fan-out's job outcomes (label, wall-clock seconds measured
    #: inside the worker), parallel to ``results`` — what ``--timing-out``
    #: writes.
    jobs: list[JobResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    def summary(self) -> str:
        good = sum(1 for r in self.results if r.ok)
        lines = [
            f"[{self.engine}] {good}/{len(self.results)} crash points verified "
            f"(workload spans {self.total_write_ios} write I/Os)"
        ]
        for r in self.results:
            status = "ok " if r.ok else "FAIL"
            lines.append(
                f"  {status} crash@{r.crash_after_write_io:>5}  "
                f"acked={r.ops_acked:<4} durable={r.durable_watermark:<4} "
                f"recovered_prefix={r.recovered_prefix:<4}"
                + (f" torn-wal" if r.wal_truncated else "")
                + (f"  {r.detail}" if r.detail else "")
            )
        return "\n".join(lines)


@dataclass
class TransientReport:
    """Outcome of a transient-error absorption run."""

    engine: str
    transient_faults: int = 0
    retried_ios: int = 0
    clean_bytes: int = 0
    faulty_bytes: int = 0
    backoff_seconds: float = 0.0
    errors_surfaced: int = 0
    values_verified: int = 0
    mismatches: int = 0

    @property
    def passed(self) -> bool:
        return (
            self.errors_surfaced == 0
            and self.mismatches == 0
            and self.transient_faults > 0
            and self.retried_ios > 0
            and self.faulty_bytes > self.clean_bytes
        )

    def summary(self) -> str:
        status = "ok " if self.passed else "FAIL"
        return (
            f"[{self.engine}] {status} transient absorption: "
            f"{self.transient_faults} faults absorbed via {self.retried_ios} "
            f"retried I/Os, ledger {self.clean_bytes} → {self.faulty_bytes} bytes, "
            f"{self.values_verified} values verified "
            f"({self.errors_surfaced} errors surfaced, {self.mismatches} mismatches)"
        )


# ---------------------------------------------------------- matrix scaffold


def _crash_matrix(
    engine: str,
    span: range,
    salt: int,
    num_points: int,
    seed: int,
    run_point: Callable[..., CrashPointResult],
    workload: tuple,
    workers: int,
) -> MatrixReport:
    """Sample ``num_points`` crash ordinals from ``span`` (the probe's
    write-I/O ordinals a crash may land on) and run one cycle at each.

    Each crash point is fully independent (its own injector seed, its own
    devices), so ``workers>1`` fans the points across processes via
    :mod:`repro.parallel`; the report is identical at every worker count.
    """
    rng = random.Random(seed ^ salt)
    points = sorted(rng.sample(span, min(num_points, len(span))))
    jobs = [
        Job(
            run_point,
            args=(engine, point, seed, *workload),
            label=f"{engine}:crash@{point}",
        )
        for point in points
    ]
    outcomes = run_jobs(jobs, workers=workers)
    return MatrixReport(
        engine=engine,
        total_write_ios=span.stop - 1,
        results=unwrap_all(outcomes),
        jobs=outcomes,
    )


def _crash_injector(seed: int, point: int) -> FaultInjector:
    return FaultInjector(
        FaultPlan(seed=seed * 1_000_003 + point, crash_after_write_io=point)
    )


def _apply(store, ops: list[Op]) -> int:
    """Issue put / delete ``ops`` until the power is lost; returns how many
    were acknowledged (all of them when no crash point fired)."""
    for acked, (op, key, val) in enumerate(ops):
        try:
            store.put(key, val) if op == "put" else store.delete(key)
        except PowerLossError:
            return acked
    return len(ops)


def _recovery_scope(devices: dict, registry=None):
    """Attribute the recovery's I/O in the trace, when one is recording."""
    if obs.RECORDER is None:
        return nullcontext()
    return obs.MetricScope("recovery", devices, registry=registry)


# --------------------------------------------------------- LSM crash matrix


def _lsm_options() -> LSMOptions:
    # Tiny geometry: a couple hundred operations exercise flush, L0→L1
    # compaction, manifest rotation, and WAL group commits many times over.
    return LSMOptions(
        memtable_bytes=2 * KiB,
        table_size_bytes=2 * KiB,
        block_size=512,
        level0_trigger=2,
        level_base_bytes=4 * KiB,
        level_multiplier=4,
        wal_group_size=8,
        manifest_enabled=True,
    )


def _lsm_key(i: int) -> bytes:
    return b"key%04d" % i


def _lsm_ops(seed: int, n: int) -> list[Op]:
    """Put/delete stream (12 % deletes) over a 48-key universe: every key
    is overwritten many times, so distinct prefixes of the stream leave
    distinct states."""
    return ops_stream(
        seed,
        n,
        universe=48,
        key=_lsm_key,
        mix=(("del", 0.12), ("put", 1.0)),
        pad=(8, 40),
        tag=b"v%05d.",
    )


def _build_lsm(
    injector: Optional[FaultInjector], two_tier: bool
) -> LSMTree:
    if two_tier:
        nvme = SimDevice(_NVME_PROFILE, injector=injector)
        sata = SimDevice(SATA_PROFILE, injector=injector)
        paths = [
            DbPath(SimFilesystem(nvme), target_bytes=24 * KiB),
            DbPath(SimFilesystem(sata), target_bytes=1 << 62),
        ]
    else:
        dev = SimDevice(_NVME_PROFILE, injector=injector)
        paths = [DbPath(SimFilesystem(dev), target_bytes=1 << 62)]
    return LSMTree(paths, _lsm_options())


def _state_after(
    ops: list[Op], prefix: int
) -> dict[bytes, Optional[bytes]]:
    state: dict[bytes, Optional[bytes]] = {}
    for op, key, val in ops[:prefix]:
        state[key] = val if op == "put" else None
    return state


def _match_prefix(
    ops: list[Op],
    recovered: dict[bytes, Optional[bytes]],
    lo: int,
    hi: int,
) -> int:
    """The prefix length in [lo, hi] whose state equals ``recovered``, or -1."""
    keys = {key for _, key, _ in ops}
    for prefix in range(hi, lo - 1, -1):
        state = _state_after(ops, prefix)
        if all(recovered.get(k) == state.get(k) for k in keys):
            return prefix
    return -1


def run_lsm_crash_matrix(
    num_points: int = 10,
    seed: int = 0,
    num_ops: int = 240,
    two_tier: bool = True,
    workers: int = 1,
) -> MatrixReport:
    """Crash the LSM engine at ``num_points`` sampled write-I/O ordinals.

    ``two_tier=True`` runs the RocksDB-like baseline configuration (levels
    spanning NVMe + SATA via db_paths, one injector for both devices).
    """
    engine = "rocksdb-like" if two_tier else "lsm"
    ops = _lsm_ops(seed, num_ops)

    # Probe run: same workload, no faults, to learn the write-I/O span.
    probe = FaultInjector(FaultPlan(seed=seed))
    _apply(_build_lsm(probe, two_tier), ops)
    return _crash_matrix(
        engine, range(1, probe.write_ios + 1), 0x5AFE, num_points, seed,
        _run_lsm_crash_point, (ops, two_tier), workers,
    )


def _run_lsm_crash_point(
    engine: str, point: int, seed: int, ops: list[Op], two_tier: bool
) -> CrashPointResult:
    result = CrashPointResult(engine=engine, crash_after_write_io=point)
    injector = _crash_injector(seed, point)
    tree = _build_lsm(injector, two_tier)
    acked = _apply(tree, ops)
    result.ops_acked = acked
    result.ops_issued = min(acked + 1, len(ops))  # + the op the crash cut
    result.durable_watermark = (
        tree.wal.total_synced_records if tree.wal is not None else acked
    )

    # Freeze whatever is on media and reopen from it.
    images = [
        DbPath(p.fs.post_crash_image(), target_bytes=p.target_bytes)
        for p in tree.paths
    ]
    with _recovery_scope({p.fs.device.profile.name: p.fs.device for p in images}):
        reopened = LSMTree.reopen(images, _lsm_options())
    assert reopened.recovery_report is not None
    result.wal_truncated = reopened.recovery_report.wal_truncated

    recovered: dict[bytes, Optional[bytes]] = {}
    for key in sorted({k for _, k, _ in ops}):
        value, _ = reopened.get(key)
        recovered[key] = value
    result.recovered_prefix = _match_prefix(
        ops, recovered, result.durable_watermark, result.ops_issued
    )
    if result.recovered_prefix < 0:
        result.detail = (
            "recovered state matches no op prefix >= the durable watermark"
        )
    else:
        result.ok = True
    return result


# ----------------------------------------------------- HyperDB crash matrix


def _build_hyperdb(injector: Optional[FaultInjector]) -> HyperDB:
    nvme = SimDevice(_NVME_PROFILE, injector=injector)
    sata = SimDevice(SATA_PROFILE, injector=injector)
    return HyperDB(nvme, sata, small_hyperdb_config())


def _hyperdb_workloads(
    seed: int, w1_ops: int, w2_ops: int
) -> tuple[list[Op], list[Op]]:
    """Two put streams over *disjoint* key ranges.

    W2 keys are fresh so the post-checkpoint writes never overwrite or
    relocate checkpointed objects — the checkpoint's recovery guarantee
    covers exactly the W1 state.
    """
    rng = random.Random(seed)

    def puts(n: int, keys: range, tag: bytes) -> list[Op]:
        out: list[Op] = []
        for i in range(n):
            key = encode_key(rng.randrange(keys.start, keys.stop))
            pad = bytes(rng.randrange(256) for _ in range(rng.randrange(16, 56)))
            out.append(("put", key, tag % i + pad))
        return out

    w1 = puts(w1_ops, range(0, 2_000), b"w1-%05d.")
    return w1, puts(w2_ops, range(30_000, 31_000), b"w2-%05d.")


def run_hyperdb_crash_matrix(
    num_points: int = 10,
    seed: int = 0,
    w1_ops: int = 260,
    w2_ops: int = 400,
    workers: int = 1,
) -> MatrixReport:
    """Crash HyperDB at sampled points *after* its index checkpoint.

    Contract (§3.1): recovery rebuilds the performance tier from the last
    checkpoint, so every checkpointed object must read back with its
    checkpoint-time value; post-checkpoint writes are lost and must read as
    missing — never as garbage.  The checkpoint commits the NVMe write
    window; W2's puts write their pages one command each per window of
    :data:`repro.lsm.wal.GROUP` puts, so a crash point lands on one of
    W2's write commands with the puts acked since the last commit still
    in DRAM.
    """
    w1, w2 = _hyperdb_workloads(seed, w1_ops, w2_ops)

    # Probe run: find the write-I/O ordinal where the checkpoint completes
    # and where the post-checkpoint workload ends.
    probe = FaultInjector(FaultPlan(seed=seed))
    db = _build_hyperdb(probe)
    _apply(db, w1)
    db.checkpoint()
    ckpt_io = probe.write_ios
    _apply(db, w2)
    total = probe.write_ios
    if total <= ckpt_io:
        raise RuntimeError("post-checkpoint workload produced no write I/O")
    return _crash_matrix(
        "hyperdb", range(ckpt_io + 1, total + 1), 0xC4A5, num_points, seed,
        _run_hyperdb_crash_point, (w1, w2), workers,
    )


def _run_hyperdb_crash_point(
    engine: str,
    point: int,
    seed: int,
    w1: list[Op],
    w2: list[Op],
) -> CrashPointResult:
    result = CrashPointResult(engine=engine, crash_after_write_io=point)
    injector = _crash_injector(seed, point)
    db = _build_hyperdb(injector)
    _apply(db, w1)
    db.checkpoint()
    result.durable_watermark = len(w1)

    acked = _apply(db, w2)
    result.ops_acked = len(w1) + acked
    result.ops_issued = len(w1) + min(acked + 1, len(w2))
    if acked == len(w2):
        result.detail = "crash point never fired during W2"
        return result

    # Reboot on the surviving media and recover from the checkpoint.
    injector.reboot()
    with _recovery_scope(db.devices(), registry=db.stats):
        db.recover()

    bad = 0
    for key, want in _state_after(w1, len(w1)).items():
        got, _ = db.get(key)
        if got != want:
            bad += 1
    lost = 0
    for _, key, _ in w2:
        got, _ = db.get(key)
        if got is not None:
            lost += 1  # a post-checkpoint write must read as missing
    if bad or lost:
        result.detail = (
            f"{bad} checkpointed values wrong, "
            f"{lost} post-checkpoint keys resurrected"
        )
    else:
        result.recovered_prefix = len(w1)
        result.ok = True
    return result


# ------------------------------------------------------ transient absorption


def run_transient_absorption(
    engine: str = "rocksdb-like",
    seed: int = 0,
    num_ops: int = 240,
    error_rate: float = 0.02,
) -> TransientReport:
    """Run a workload under a seeded transient-error storm and verify that
    the device retry policy absorbs every fault, values stay intact, and the
    retried traffic shows up in the ledger."""
    report = TransientReport(engine=engine)

    def run(injector: Optional[FaultInjector]) -> tuple[int, int, dict]:
        if engine == "hyperdb":
            store = _build_hyperdb(injector)
            # NVMe writes one command per page per window of 32 puts: four
            # times the puts issue about the write commands that ``num_ops``
            # puts did at one command each, so faults are still drawn.
            ops, _ = _hyperdb_workloads(seed, num_ops * 4, 0)
            devices = [store.nvme_device, store.sata_device]
        else:
            store = _build_lsm(injector, two_tier=(engine == "rocksdb-like"))
            ops = _lsm_ops(seed, num_ops)
            devices = [p.fs.device for p in store.paths]
        surfaced = 0
        mismatches = 0
        for op, key, val in ops:
            try:
                store.put(key, val) if op == "put" else store.delete(key)
            except TransientIOError:
                surfaced += 1
        expected = _state_after(ops, len(ops))
        for key, want in expected.items():
            try:
                got, _ = store.get(key)
            except TransientIOError:
                surfaced += 1
                continue
            if got != want:
                mismatches += 1
        stats = {
            "bytes": sum(d.traffic.total_bytes() for d in devices),
            "retried": sum(d.retried_ios for d in devices),
            "verified": len(expected),
        }
        return surfaced, mismatches, stats

    _, _, clean = run(None)
    injector = FaultInjector(
        FaultPlan(
            seed=seed, read_error_rate=error_rate, write_error_rate=error_rate
        )
    )
    surfaced, mismatches, faulty = run(injector)

    report.clean_bytes = clean["bytes"]
    report.faulty_bytes = faulty["bytes"]
    report.retried_ios = faulty["retried"]
    report.transient_faults = injector.transient_faults
    report.errors_surfaced = surfaced
    report.mismatches = mismatches
    report.values_verified = faulty["verified"]
    return report
