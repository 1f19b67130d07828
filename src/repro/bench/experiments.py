"""One experiment per paper figure.

Each function builds fresh stores at the requested scale, drives the same
workloads the paper uses, and returns a dict with ``title``, ``headers``,
``rows`` (for text rendering) plus the raw series the pytest benches assert
against.  Absolute numbers differ from the paper (simulator, scaled data);
the *shapes* — who wins, by what factor, where crossovers sit — are the
reproduction target recorded in EXPERIMENTS.md.

Every figure is a grid of independent cells (store × thread-count,
store × skew, …).  Each cell is a top-level function that builds its own
stores and RNG streams from explicit seeds, so the grid fans out across
worker processes via :mod:`repro.parallel`: pass ``workers=N`` (or
``python -m repro.bench --workers N``).  Cells are submitted in the same
nested-loop order the serial code used and collected in submission order,
so tables and raw series are byte-identical at every worker count —
``workers=1`` runs the cells in-process with no pool at all.

A figure is a spec: its docstring, its ``points`` — one ``(key, cell
args, label)`` per cell — and a row formatter, handed to :func:`_figure`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from repro.bench.context import BenchScale, build_store, hyperdb_config
from repro.bench.reporting import kops, mb
from repro.chaos.soak import measure_degraded_throughput
from repro.chaos.suites import scenario as soak_scenario
from repro.common.keys import encode_key
from repro.core import HyperDB
from repro.core.interface import KVStore
from repro.health.state import HealthState, HealthWindow
from repro.scrub import ScrubConfig
from repro.simssd.faults import FaultInjector, FaultPlan
from repro.hotness.interval import (
    interval_conditional_probabilities,
    probability_summary,
)
from repro.parallel import Job, JobResult, run_jobs
from repro.parallel.pool import unwrap_all
from repro.ycsb import WorkloadRunner, WorkloadSpec, YCSB_WORKLOADS


def _loaded_runner(
    store: str | KVStore, scale: BenchScale, **runner_kw
) -> WorkloadRunner:
    """A runner over ``store`` — an engine name (built fresh at ``scale``)
    or an already built store — with the dataset loaded."""
    if isinstance(store, str):
        store = build_store(store, scale)
    runner = WorkloadRunner(
        store,
        record_count=scale.record_count,
        value_size=scale.value_size,
        clients=runner_kw.pop("clients", scale.clients),
        background_threads=runner_kw.pop("background_threads", scale.background_threads),
        seed=scale.seed,
        **runner_kw,
    )
    runner.load()
    return runner


WRITE_ONLY = WorkloadSpec("write-only", update=1.0, distribution="uniform")


def _ycsb_a(theta) -> WorkloadSpec:
    """YCSB-A at one skew setting: ``"uniform"`` or a zipfian theta."""
    if theta == "uniform":
        return YCSB_WORKLOADS["A"].with_distribution("uniform")
    return YCSB_WORKLOADS["A"].with_distribution("zipfian", theta=theta)


# ------------------------------------------------------------------ driver


def _run_cells(
    name: str, cell, calls: list[tuple], workers: int
) -> tuple[list, list[JobResult]]:
    """Run ``cell(*args)`` once per ``(args, label)`` of ``calls``, as a job
    labelled ``"<name>:<label>"``.  Returns the cells' values and the
    :class:`JobResult` list, both in submission order; a failed cell raises
    with its label in the message."""
    jobs = [Job(cell, args=args, label=f"{name}:{label}") for args, label in calls]
    outcomes = run_jobs(jobs, workers=workers)
    return unwrap_all(outcomes), outcomes


def _figure(
    name: str, title: str, headers: list[str], *, cell, points, row, workers: int
) -> dict:
    """One grid, one table.  ``points`` lists ``(key, cell args, label)``;
    ``rows`` holds ``row(key, value)`` per point and ``raw`` maps each
    point's key to its cell's value, both in submission order; ``jobs``
    carries the per-cell timings to the CLI."""
    keys = [key for key, _, _ in points]
    values, jobs = _run_cells(
        name, cell, [(args, label) for _, args, label in points], workers
    )
    return {
        "title": title,
        "headers": headers,
        "rows": [row(key, value) for key, value in zip(keys, values)],
        "raw": dict(zip(keys, values)),
        "jobs": jobs,
    }


# ------------------------------------------------------------------- cells
#
# One top-level (hence picklable) function per cell shape.  A cell builds
# everything it needs from its arguments and returns plain data — never a
# live store or runner — so results cross process boundaries cheaply.


def _fig2_cell(store_name: str, bg_threads: int, scale: BenchScale) -> dict:
    runner = _loaded_runner(store_name, scale, background_threads=bg_threads)
    result = runner.run(WRITE_ONLY, scale.operations)
    devices = runner.store.devices()
    return {
        "nvme_read_Bps": result.read_bytes("nvme") / result.elapsed_s,
        "nvme_write_Bps": result.write_bytes("nvme") / result.elapsed_s,
        "nvme_capacity_util": result.space_used["nvme"] / devices["nvme"].capacity_bytes,
        "sata_capacity_util": result.space_used["sata"] / devices["sata"].capacity_bytes,
    }


def _fig3_cell(
    store_name: str, bg_threads: int, scale: BenchScale, want_levels: bool
) -> dict:
    runner = _loaded_runner(store_name, scale, background_threads=bg_threads)
    result = runner.run(WRITE_ONLY, scale.operations)
    comp_bytes = result.read_bytes("sata", "compaction") + result.write_bytes(
        "sata", "compaction"
    )
    bw = comp_bytes / result.elapsed_s
    sata_dev = runner.store.devices()["sata"]
    frac = bw / (sata_dev.profile.write_bandwidth + sata_dev.profile.read_bandwidth)
    levels = None
    if want_levels:
        tree = getattr(runner.store, "tree", None)
        if tree is not None:
            per_level = dict(tree.compactor.stats.write_bytes_by_level)
            per_level_rd = dict(tree.compactor.stats.read_bytes_by_level)
            levels = {
                lvl: per_level.get(lvl, 0) + per_level_rd.get(lvl, 0)
                for lvl in set(per_level) | set(per_level_rd)
            }
    return {"bw": bw, "frac": frac, "levels": levels}


def _fig6a_cell(trace: list, threshold: int, history: int) -> dict:
    summary = probability_summary(
        interval_conditional_probabilities(trace, threshold=threshold, history=history)
    )
    if summary["objects"] == 0:
        # probability_summary signals emptiness with NaN quantiles; NaN
        # never compares equal, which would break row/digest equality
        # checks, so represent empty cells as None here.
        return {"median": None, "p25": None, "p75": None, "objects": 0}
    return summary


def _workload_cell(
    store_name: str, scale: BenchScale, spec: WorkloadSpec, operations: int
):
    """The generic figure cell: load a store, run one workload, return the
    :class:`RunResult` (figs 8, 9a-c, 10, 11)."""
    runner = _loaded_runner(store_name, scale)
    return runner.run(spec, operations)


def _ablation_cell(overrides: dict, scale: BenchScale) -> dict:
    store = build_store("hyperdb", scale, **overrides)
    runner = _loaded_runner(store, scale)
    result = runner.run(YCSB_WORKLOADS["A"], scale.operations)
    return {
        "result": result,
        "space_amp": store.capacity_tier.space_amplification(),
    }


# --------------------------------------------------------------------- Fig 2

def fig2_utilization(
    scale: Optional[BenchScale] = None, threads=(1, 2, 4, 8), workers: int = 1
):
    """Fig. 2: NVMe bandwidth (read vs write) and per-tier capacity
    utilization for RocksDB and PrismDB under a write-only uniform load.

    Uses a constrained NVMe ratio: the paper's §2.3 motivation study runs
    with the caching architecture pinned at its high watermark, where every
    write forces migration."""
    scale = scale or BenchScale.default(nvme_ratio=0.3)
    return _figure(
        "fig2",
        "Fig 2: bandwidth (MiB/s) and capacity utilization (%), write-only",
        ["store", "bg threads", "nvme rd MiB/s", "nvme wr MiB/s",
         "nvme cap %", "sata cap %"],
        cell=_fig2_cell,
        points=[
            ((s, t), (s, t, scale), f"{s}:bg{t}")
            for s in ("rocksdb", "prismdb")
            for t in threads
        ],
        row=lambda key, cell: (
            *key, mb(cell["nvme_read_Bps"]), mb(cell["nvme_write_Bps"]),
            cell["nvme_capacity_util"] * 100, cell["sata_capacity_util"] * 100,
        ),
        workers=workers,
    )


# --------------------------------------------------------------------- Fig 3

def fig3_compaction_overhead(
    scale: Optional[BenchScale] = None, threads=(1, 2, 4, 8), workers: int = 1
):
    """Fig. 3: capacity-tier bandwidth consumed by compaction vs thread
    count (a) and the per-level compaction I/O breakdown (b).

    Constrained NVMe ratio, like Fig. 2 (the same §2.3 motivation setup)."""
    scale = scale or BenchScale.default(nvme_ratio=0.3)
    result = _figure(
        "fig3",
        "Fig 3a: compaction bandwidth on the capacity tier",
        ["store", "bg threads", "compaction MiB/s", "% of device bw"],
        cell=_fig3_cell,
        points=[
            ((s, t), (s, t, scale, t == threads[-1]), f"{s}:bg{t}")
            for s in ("rocksdb", "prismdb")
            for t in threads
        ],
        row=lambda key, cell: (*key, mb(cell["bw"]), cell["frac"] * 100),
        workers=workers,
    )
    # Table (b) is cut from the cells that carry levels (the last thread
    # count's), one row per level rather than per cell, and ``raw`` is two
    # series — neither is a grid, so both are assembled here.
    cells = result["raw"]
    levels_by_store = {
        s: cell["levels"] for (s, _), cell in cells.items() if cell["levels"] is not None
    }
    rows_b = []
    for store_name, levels in levels_by_store.items():
        total = sum(levels.values()) or 1
        for lvl in sorted(levels):
            rows_b.append((store_name, f"L{lvl}", mb(levels[lvl]), levels[lvl] / total * 100))
    result.update(
        title_b="Fig 3b: compaction I/O volume by output level",
        headers_b=["store", "level", "I/O MiB", "% of total"],
        rows_b=rows_b,
        raw={
            "bandwidth": {key: cell["bw"] for key, cell in cells.items()},
            "levels": levels_by_store,
        },
    )
    return result


# -------------------------------------------------------------------- Fig 6a

def fig6a_interval_correlation(
    n_keys: int = 2000, accesses: int = 100_000, seed: int = 3, workers: int = 1
):
    """Fig. 6a: P(next interval < t | s past intervals < t) on an 80/20
    trace, for t in {5%, 10%, 20%} of the workload and s in {1, 3, 5}."""
    rng = np.random.default_rng(seed)
    hot = n_keys // 5
    choose_hot = rng.random(accesses) < 0.8
    hot_keys = rng.integers(0, hot, size=accesses)
    cold_keys = rng.integers(hot, n_keys, size=accesses)
    trace = np.where(choose_hot, hot_keys, cold_keys).tolist()
    return _figure(
        "fig6a",
        "Fig 6a: interval conditional probability, 80/20 trace",
        ["t (of workload)", "s", "median", "p25", "p75", "objects"],
        cell=_fig6a_cell,
        points=[
            ((t_frac, s), (trace, int(t_frac * accesses), s), f"t{t_frac:.0%}:s{s}")
            for t_frac in (0.05, 0.10, 0.20)
            for s in (1, 3, 5)
        ],
        row=lambda key, summary: (
            f"{key[0]:.0%}", key[1], summary["median"], summary["p25"],
            summary["p75"], int(summary["objects"]),
        ),
        workers=workers,
    )


# --------------------------------------------------------------------- Fig 8

def fig8_ycsb(
    scale: Optional[BenchScale] = None,
    stores=("rocksdb", "rocksdb-sc", "prismdb", "hyperdb"),
    workloads=("A", "B", "C", "D", "E", "F"),
    workers: int = 1,
):
    """Fig. 8: YCSB A–F throughput, median latency, and P99 latency for all
    four engines (zipfian 0.99, 8B keys / 128B values)."""
    scale = scale or BenchScale.default()

    def point(wl_name, store_name):
        spec = YCSB_WORKLOADS[wl_name]
        ops = scale.operations if spec.scan == 0 else max(500, scale.operations // 20)
        return (wl_name, store_name), (store_name, scale, spec, ops), f"{wl_name}:{store_name}"

    return _figure(
        "fig8",
        "Fig 8: YCSB throughput (kops/s), median and P99 latency (us)",
        ["workload", "store", "kops/s", "median us", "p99 us"],
        cell=_workload_cell,
        points=[point(wl, s) for wl in workloads for s in stores],
        row=lambda key, result: (
            *key,
            kops(result.throughput_ops),
            result.median_latency() * 1e6,
            result.p99_latency() * 1e6,
        ),
        workers=workers,
    )


# --------------------------------------------------------------------- Fig 9

def fig9a_skew_sweep(
    scale: Optional[BenchScale] = None,
    stores=("rocksdb", "prismdb", "hyperdb"),
    thetas=("uniform", 0.6, 0.8, 0.99, 1.2),
    workers: int = 1,
):
    """Fig. 9a: YCSB-A throughput across request-skew settings."""
    scale = scale or BenchScale.default()
    return _figure(
        "fig9a",
        "Fig 9a: YCSB-A throughput (kops/s) vs skew",
        ["skew", "store", "kops/s"],
        cell=_workload_cell,
        points=[
            ((theta, s), (s, scale, _ycsb_a(theta), scale.operations), f"{theta}:{s}")
            for theta in thetas
            for s in stores
        ],
        row=lambda key, result: (str(key[0]), key[1], kops(result.throughput_ops)),
        workers=workers,
    )


def fig9b_points(base: BenchScale, value_sizes) -> list[BenchScale]:
    """Fig. 9b's sweep points: ``base`` at each value size, the record
    count shrunk so the loaded byte volume stays ``base``'s (floor: 2,000
    records)."""
    points = []
    for vs in value_sizes:
        point = replace(base, value_size=vs)
        point.record_count = max(2000, base.dataset_bytes // point.record_size)
        points.append(point)
    return points


def fig9b_value_size_sweep(
    scale: Optional[BenchScale] = None,
    stores=("rocksdb", "prismdb", "hyperdb"),
    value_sizes=(16, 64, 128, 512, 1024, 4096),
    workers: int = 1,
):
    """Fig. 9b: YCSB-A throughput across value sizes.  The dataset byte
    volume is held fixed (the paper holds the loaded volume constant), so
    record counts shrink as values grow."""
    base = scale or BenchScale.default()
    return _figure(
        "fig9b",
        "Fig 9b: YCSB-A throughput (kops/s) vs value size",
        ["value B", "store", "kops/s"],
        cell=_workload_cell,
        points=[
            ((p.value_size, s), (s, p, YCSB_WORKLOADS["A"], p.operations),
             f"{p.value_size}B:{s}")
            for p in fig9b_points(base, value_sizes)
            for s in stores
        ],
        row=lambda key, result: (*key, kops(result.throughput_ops)),
        workers=workers,
    )


def fig9c_points(base: BenchScale, ratios) -> list[BenchScale]:
    """Fig. 9c's sweep points: ``base`` at each NVMe:dataset ratio, every
    other field — sizes already scaled, seed, clients — as given."""
    return [replace(base, nvme_ratio=ratio) for ratio in ratios]


def fig9c_nvme_ratio_sweep(
    scale: Optional[BenchScale] = None,
    stores=("rocksdb", "prismdb", "hyperdb"),
    ratios=(0.05, 0.1, 0.2, 0.4, 0.8),
    workers: int = 1,
):
    """Fig. 9c: YCSB-A throughput vs NVMe:dataset capacity ratio.

    The paper sweeps 1%–16% of a 100 GB load (1–16 GB of NVMe).  At our
    scaled dataset those percentages land below one device's minimum useful
    size (a few dozen pages), so the sweep covers 5%–80% instead; the
    shapes compared are the same — caching designs improve with the ratio,
    the embedding design barely moves.
    """
    # A larger dataset keeps even the smallest ratio above the device's
    # minimum useful size.
    base = scale or BenchScale.default(record_count=80_000)
    return _figure(
        "fig9c",
        "Fig 9c: YCSB-A throughput (kops/s) vs NVMe capacity ratio",
        ["nvme ratio", "store", "kops/s"],
        cell=_workload_cell,
        points=[
            ((p.nvme_ratio, s), (s, p, YCSB_WORKLOADS["A"], p.operations),
             f"{p.nvme_ratio:.0%}:{s}")
            for p in fig9c_points(base, ratios)
            for s in stores
        ],
        row=lambda key, result: (f"{key[0]:.0%}", key[1], kops(result.throughput_ops)),
        workers=workers,
    )


# -------------------------------------------------------------------- Fig 10

def fig10_latency_breakdown(
    scale: Optional[BenchScale] = None,
    stores=("rocksdb", "hyperdb"),
    thetas=("uniform", 0.8, 0.99),
    workers: int = 1,
):
    """Fig. 10: read/write median and P99 latency across skew settings."""
    scale = scale or BenchScale.default()
    return _figure(
        "fig10",
        "Fig 10: read/write latency (us) vs skew",
        ["skew", "store", "rd med", "rd p99", "wr med", "wr p99"],
        cell=_workload_cell,
        points=[
            ((theta, s), (s, scale, _ycsb_a(theta), scale.operations), f"{theta}:{s}")
            for theta in thetas
            for s in stores
        ],
        row=lambda key, result: (
            str(key[0]),
            key[1],
            result.median_latency("read") * 1e6,
            result.p99_latency("read") * 1e6,
            result.median_latency("update") * 1e6,
            result.p99_latency("update") * 1e6,
        ),
        workers=workers,
    )


# -------------------------------------------------------------------- Fig 11

def fig11_background_traffic(
    scale: Optional[BenchScale] = None,
    stores=("rocksdb", "rocksdb-sc", "prismdb", "hyperdb"),
    workers: int = 1,
):
    """Fig. 11: total write I/O per tier and space usage, uniform YCSB-A
    with 1 KB values (the paper's background-traffic headline: HyperDB
    writes ~60% less than RocksDB)."""
    # NVMe-rich like the paper's testbed (960 GB NVMe vs ~100 GB load):
    # RocksDB cannot exploit the headroom because levels are placed whole
    # (§2.3), while HyperDB absorbs updates in place.
    scale = scale or BenchScale.default(
        value_size=1024, record_count=6000, nvme_ratio=0.8
    )
    return _figure(
        "fig11",
        "Fig 11: write I/O (MiB) and space usage (MiB), uniform 1KB",
        ["store", "nvme wr", "sata wr", "total wr", "nvme space", "sata space"],
        cell=_workload_cell,
        points=[
            (s, (s, scale, _ycsb_a("uniform"), scale.operations), s) for s in stores
        ],
        row=lambda store_name, result: (
            store_name,
            mb(result.write_bytes("nvme")),
            mb(result.write_bytes("sata")),
            mb(result.write_bytes("nvme") + result.write_bytes("sata")),
            mb(result.space_used["nvme"]),
            mb(result.space_used["sata"]),
        ),
        workers=workers,
    )


# ------------------------------------------------------ Service-model figures

#: The migration-active cell of ``queue_depth`` and of ``degraded_cost``'s
#: scrub row.  NVMe holds 35% of the dataset and the dataset is sized past
#: the 512 KiB NVMe capacity floor: smaller datasets leave the fast tier
#: oversized, migration never runs, and there is no background traffic to
#: isolate or to scrub behind.  Built without ``BenchScale.default``: the
#: size is a property of the service model, so ``REPRO_SCALE`` must not
#: shrink it.
_SERVICE_CELL = BenchScale(record_count=6_000, operations=6_000, nvme_ratio=0.35)


def _queue_cell(
    queue_count: int, queue_depth: int, degraded: bool, scale: BenchScale
):
    """One (queue_count, queue_depth) cell: HyperDB on multi-queue devices,
    YCSB-A, optionally inside a whole-run 8x capacity-tier brownout."""
    cell_scale = replace(
        scale, queue_count=queue_count, queue_depth=queue_depth
    )
    injector = None
    if degraded:
        injector = FaultInjector(
            FaultPlan(
                health_windows=(
                    HealthWindow("sata", HealthState.BROWNOUT, 1, 1 << 40, 8.0),
                )
            )
        )
    nvme, sata = cell_scale.devices(injector=injector)
    store = HyperDB(nvme, sata, hyperdb_config(cell_scale))
    runner = _loaded_runner(store, cell_scale)
    return runner.run(YCSB_WORKLOADS["A"], cell_scale.operations)


def queue_depth_isolation(
    scale: Optional[BenchScale] = None, workers: int = 1
):
    """Throughput vs queue count/depth, healthy and degraded (the
    multi-queue service-model figure).

    The shape is migration-heavy (NVMe holds 35% of the dataset, so
    demotions run constantly); the degraded column runs the whole stream
    inside an 8x capacity-tier brownout.  Queue counts 1/2/4 at full depth
    show what isolating background traffic from the foreground queue buys
    back under degradation; shallow depths at 4 queues show the per-queue
    concurrency cap throttling the device.  The default cell is fixed at
    6,000 records / 6,000 ops whatever ``REPRO_SCALE`` says.
    """
    scale = scale or _SERVICE_CELL
    shapes = [(1, 32), (2, 32), (4, 32), (4, 4), (4, 1)]
    cells, jobs = _run_cells(
        "queue_depth",
        _queue_cell,
        [
            ((qc, qd, degraded, scale), f"qc{qc}qd{qd}:{mode}")
            for qc, qd in shapes
            for mode, degraded in (("healthy", False), ("degraded", True))
        ],
        workers,
    )
    # A row is a *pair* of cells (healthy, degraded), which a row per point
    # cannot express; rows and raw are assembled here.
    rows = []
    raw = {}
    for (qc, qd), healthy, degraded in zip(shapes, cells[::2], cells[1::2]):
        rows.append(
            (
                f"qc={qc} qd={qd}",
                kops(healthy.throughput_ops),
                kops(degraded.throughput_ops),
                round(degraded.throughput_ops / healthy.throughput_ops, 3),
            )
        )
        raw[f"qc{qc}_qd{qd}"] = {"healthy": healthy, "degraded": degraded}
    return {
        "title": "Queue depth: YCSB-A kops/s vs queue geometry, "
        "healthy and under an 8x SATA brownout",
        "headers": ["shape", "healthy kops/s", "degraded kops/s", "ratio"],
        "rows": rows,
        "raw": raw,
        "jobs": jobs,
    }


def _scrub_cost_cell(scale: BenchScale, interval_ops: int) -> dict:
    """The same put-then-get stream twice on one cell — scrub disabled,
    then armed every ``interval_ops`` client ops with every scrub read
    charged to the SCRUB lane — and the simulated device time of each."""
    n = scale.record_count
    value = b"s" * 128

    def drive(scrub: Optional[ScrubConfig]):
        store = build_store("hyperdb", scale, scrub=scrub)
        for i in range(n):
            store.put(encode_key(i), value)
            if scrub:
                store.scrubber.maybe_run()
        for i in range(n):
            store.get(encode_key(i))
            if scrub:
                store.scrubber.maybe_run()
        return store, sum(d.busy_seconds() for d in store.devices().values())

    _, busy_off = drive(None)
    store_on, busy_on = drive(ScrubConfig(interval_ops=interval_ops))
    st = store_on.scrubber.stats
    return {
        "sim_busy_s_scrub_off": round(busy_off, 6),
        "sim_busy_s_scrub_on": round(busy_on, 6),
        "scrub_overhead": round(busy_on / busy_off, 4),
        "scrub_passes": st.passes,
        "zone_slots_scanned": st.zone_slots_scanned,
        "semi_blocks_scanned": st.semi_blocks_scanned,
        "detected": st.detected,
    }


def degraded_cost(workers: int = 1):
    """What degradation costs in simulated device time: the same op stream
    healthy vs degraded, one row per kind of degradation.

    * background integrity scrub armed every 1,000 ops on the 6,000-record
      migration-active cell (the cost of periodic full-device
      verification, in device busy seconds; a fault-free store must scrub
      clean, ``detected == 0``);
    * an NVMe outage window over a 900-op single-node soak (failover to
      the capacity tier, in simulated ops per foreground busy second; the
      background busy seconds of both runs ride in the proof column).

    Every value is simulated and deterministic; the cell sizes are fixed
    whatever ``REPRO_SCALE`` says — they are properties of the service
    model, not of the dataset sweep.
    """
    scrub_every = 1_000
    jobs = [
        Job(
            _scrub_cost_cell,
            args=(_SERVICE_CELL, scrub_every),
            label="degraded_cost:scrub",
        ),
        Job(
            measure_degraded_throughput,
            args=(soak_scenario("tier", "hyperdb-nvme-outage", 900),),
            label="degraded_cost:nvme-outage",
        ),
    ]
    # Two unlike cells, one row each with its own proof column: not a
    # grid, so the jobs are listed rather than generated from points.
    outcomes = run_jobs(jobs, workers=workers)
    scrub, outage = unwrap_all(outcomes)
    # Pre-rendered strings: the table's float format keeps three digits,
    # and these are the recorded figures.
    rows = [
        (
            f"scrub every {scrub_every} ops",
            "device busy s",
            str(scrub["sim_busy_s_scrub_off"]),
            str(scrub["sim_busy_s_scrub_on"]),
            str(scrub["scrub_overhead"]),
            f"{scrub['scrub_passes']} passes, {scrub['zone_slots_scanned']} slots"
            f" + {scrub['semi_blocks_scanned']} blocks scanned,"
            f" {scrub['detected']} detected",
        ),
        (
            "nvme outage window",
            "ops per fg busy s",
            str(outage["sim_ops_per_s_healthy"]),
            str(outage["sim_ops_per_s_degraded"]),
            str(outage["degraded_over_healthy"]),
            f"{outage['failover_writes']} failover writes,"
            f" {outage['failover_reads']} failover reads,"
            f" {outage['unavailable_ops']} unavailable;"
            f" bg busy s {outage['bg_busy_s_healthy']}"
            f" / {outage['bg_busy_s_degraded']}",
        ),
    ]
    return {
        "title": "Degraded cost: simulated device time, same op stream "
        "healthy vs degraded",
        "headers": ["degradation", "metric", "healthy", "degraded", "ratio", "proof"],
        "rows": rows,
        "raw": {"scrub": scrub, "nvme_outage": outage},
        "jobs": outcomes,
    }


# ----------------------------------------------------------------- Ablations

def ablations(scale: Optional[BenchScale] = None, workers: int = 1):
    """Design-choice ablations (§3): hot zone, preemptive compaction depth,
    T_clean, and power-of-k victim sampling, measured on skewed YCSB-A with
    a constrained NVMe tier (the knobs only engage under migration and
    compaction pressure)."""
    scale = scale or BenchScale.default(nvme_ratio=0.4)
    # ``no-hot-zone`` shrinks the hot zone's reserve to (effectively)
    # nothing; ``no-preemptive`` compacts one level deep.
    variants = {
        "hyperdb": {},
        "no-hot-zone": {
            "nvme": replace(hyperdb_config(scale).nvme, hot_zone_fraction=1e-9)
        },
        "no-preemptive": {"compaction_depth": 1},
        "t_clean=0.2": {"t_clean": 0.2},
        "t_clean=0.9": {"t_clean": 0.9},
        "candidate_k=1": {"candidate_k": 1},
    }
    result = _figure(
        "ablations",
        "Ablations: YCSB-A, zipfian 0.99",
        ["variant", "kops/s", "p99 us", "write MiB", "sata space amp"],
        cell=_ablation_cell,
        points=[(label, (overrides, scale), label) for label, overrides in variants.items()],
        row=lambda label, cell: (
            label,
            kops(cell["result"].throughput_ops),
            cell["result"].p99_latency() * 1e6,
            mb(cell["result"].write_bytes("nvme") + cell["result"].write_bytes("sata")),
            cell["space_amp"],
        ),
        workers=workers,
    )
    # ``raw`` publishes the RunResult alone; the cell's space amp is a column.
    result["raw"] = {label: cell["result"] for label, cell in result["raw"].items()}
    return result


ALL_EXPERIMENTS = {
    "fig2": fig2_utilization,
    "fig3": fig3_compaction_overhead,
    "fig6a": fig6a_interval_correlation,
    "fig8": fig8_ycsb,
    "fig9a": fig9a_skew_sweep,
    "fig9b": fig9b_value_size_sweep,
    "fig9c": fig9c_nvme_ratio_sweep,
    "fig10": fig10_latency_breakdown,
    "fig11": fig11_background_traffic,
    "queue_depth": queue_depth_isolation,
    "degraded_cost": degraded_cost,
    "ablations": ablations,
}
