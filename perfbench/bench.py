"""The four workloads, one repetition of a workload, and what is derived
from repetitions: end-to-end metrics, output checks and the digest.

Everything here reaches the program only through the public surface listed
in ``perfbench/README.md``.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import struct
import sys
import traceback
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import numpy as np

from repro.bench.context import BenchScale, build_store
from repro.ycsb import YCSB_WORKLOADS, WorkloadRunner

from spans import instrument

RECORDS = 100_000
VALUE_SIZE = 128
KEY_SIZE = 8
#: Bytes a user hands over per put: the paper's 8 B key and the value.
USER_BYTES_PER_PUT = KEY_SIZE + VALUE_SIZE
#: The load order does not follow ``--seed``: where the demotion and
#: compaction sawtooth stands when the load ends moves a scan's host cost
#: by 2x and the background bytes by 10 %, and it lands anywhere with the
#: load order.  Every seed therefore starts its run phase from one store
#: state; the seed makes the values and the request stream.
LOAD_ORDER_SEED = 7
#: Seconds a repetition (set-up, load, run, checks) takes on the reference
#: host, give or take; ``--seconds`` over it is the repetition count.
REP_SECONDS = 6.5
#: Timed slices per phase; a phase's host time is summed slice by slice.
SLICES = 20
#: Set-ups timed per run (the repetitions' own plus extra ones); the
#: reported ``setup_s`` is their median.
SETUPS = 15
#: Iterations of the calibration loop, and the seconds they take on the
#: undisturbed reference host.  Host times are reported at that speed.
CAL_ITERATIONS = 40_000
CAL_REFERENCE_S = 0.0013
#: Lanes that carry user requests; every other lane is background traffic.
USER_LANES = ("foreground", "wal")

#: End-to-end metrics on the simulated clock: identical for one seed.
SIMULATED = (
    "sim_kops", "sim_mean_us", "sim_p99_us",
    "write_amp", "bg_bytes_per_user_byte", "space_amp",
)

CHECK_LOADED = 5_000
CHECK_ABSENT = 1_000
CHECK_FRESH = 1_000
SCAN_LENGTH = 50


@dataclass(frozen=True)
class Workload:
    """One workload; why it is here is in ``BENCHMARK.json`` and the README."""

    name: str
    engine: str
    nvme_ratio: float
    ycsb: str
    #: Run-phase operations at ``RECORDS`` records.
    ops: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("write_tight", "hyperdb", 0.35, "A", 50_000),
        Workload("read_roomy", "hyperdb", 2.0, "B", 200_000),
        Workload("scan_mixed", "hyperdb", 0.35, "E", 2_000),
        Workload("write_tight_rocksdb", "rocksdb", 0.35, "A", 50_000),
    )
}


def repetitions_for(seconds: float) -> int:
    """How many identical repetitions a run of ``seconds`` makes."""
    return max(2, min(8, int(seconds // REP_SECONDS)))


def encode_ids(ids) -> list[bytes]:
    """Fixed-width 8-byte big-endian keys, the program's key format."""
    buf = np.asarray(ids, dtype=np.int64).astype(">u8").tobytes()
    return [buf[i : i + KEY_SIZE] for i in range(0, len(buf), KEY_SIZE)]


def value_for(pool: bytes, key_id: int) -> bytes:
    start = (key_id * 131) % (len(pool) - VALUE_SIZE)
    return pool[start : start + VALUE_SIZE]


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now, best of three."""
    best = float("inf")
    for _ in range(3):
        t = perf_counter()
        acc = 0
        for i in range(CAL_ITERATIONS):
            acc += i * i
        best = min(best, perf_counter() - t)
    return best


class Stopwatch:
    """Times slices and, around each, the speed of the host.

    The reference host's speed moves between regimes 1.3-2x apart that
    last from seconds to minutes (a neighbour on the same core), longer
    than a repetition, so no statistic over a run's repetitions sees
    through them.  Every slice is therefore bracketed by the calibration
    loop and carries its ``slowdown``: the loop's time around the slice
    over ``CAL_REFERENCE_S``.
    """

    def __init__(self) -> None:
        self._cal = calibrate()

    def start(self) -> None:
        self._t = perf_counter()

    def stop(self) -> "Slice":
        raw_s = perf_counter() - self._t
        before, self._cal = self._cal, calibrate()
        return Slice(raw_s, (before + self._cal) / 2 / CAL_REFERENCE_S)


@dataclass(frozen=True)
class Slice:
    raw_s: float
    slowdown: float

    @property
    def seconds(self) -> float:
        """The slice's time at the reference host's undisturbed speed."""
        return self.raw_s / self.slowdown


@dataclass
class Rep:
    """What one repetition produced."""

    setup: Slice = None
    load_slices: list[Slice] = field(default_factory=list)
    run_slices: list[Slice] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Simulated results, identical across repetitions of one seed.
    sim: dict = field(default_factory=dict)
    digest: str = ""

    @property
    def raw_host_s(self) -> float:
        """Wall seconds inside the timed slices, as they passed."""
        return sum(s.raw_s for s in self.load_slices + self.run_slices)

    @property
    def host_s(self) -> float:
        """The same at the reference host's undisturbed speed."""
        return sum(s.seconds for s in self.load_slices + self.run_slices)


def value_pool(rng) -> bytes:
    return rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()


def set_up(workload: Workload, seed: int, records: int):
    """Engine, runner and encoded load inputs: everything before the first
    ``put_many``."""
    scale = BenchScale(
        record_count=records,
        operations=run_ops(workload, records),
        value_size=VALUE_SIZE,
        nvme_ratio=workload.nvme_ratio,
        seed=seed,
    )
    store = build_store(workload.engine, scale)
    runner = WorkloadRunner(
        store,
        record_count=records,
        value_size=VALUE_SIZE,
        clients=scale.clients,
        background_threads=scale.background_threads,
        seed=seed,
    )
    pool = value_pool(np.random.default_rng(seed))
    ids = np.arange(records)
    np.random.default_rng(LOAD_ORDER_SEED).shuffle(ids)
    keys = encode_ids(ids)
    values = [value_for(pool, k) for k in ids.tolist()]
    return store, runner, keys, values


def timed_set_up(watch: Stopwatch, workload: Workload, seed: int, records: int):
    """One timed set-up: its :class:`Slice` and what it built."""
    gc.collect()  # the previous repetition's garbage is not this one's cost
    watch.start()
    built = set_up(workload, seed, records)
    return watch.stop(), built


def run_ops(workload: Workload, records: int) -> int:
    """Run-phase operations, scaled with the dataset (whole slices)."""
    ops = workload.ops * records // RECORDS
    return max(SLICES, ops - ops % SLICES)


def _failure(rep: Rep, what: str, count: int) -> None:
    rep.failed += count
    print(f"FAILED {what}: {count} op(s)", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def repetition(workload: Workload, seed: int, records: int, recorder=None):
    """Set up, load and run one workload once.

    Returns the :class:`Rep` and the store, for :func:`check_outputs` and
    for reading layer counters before the checks disturb them.
    """
    rep = Rep()
    watch = Stopwatch()
    rep.setup, (store, runner, keys, values) = timed_set_up(watch, workload, seed, records)
    if recorder is not None:
        instrument(recorder, workload.engine, store, runner)

    chunk = -(-records // SLICES)
    for lo in range(0, records, chunk):
        ks, vs = keys[lo : lo + chunk], values[lo : lo + chunk]
        last = lo + chunk >= records
        rep.attempted += len(ks)
        watch.start()
        try:
            store.put_many(ks, vs)
            if last:
                store.finalize()
        except Exception:
            _failure(rep, "load slice", len(ks))
        rep.load_slices.append(watch.stop())

    spec = YCSB_WORKLOADS[workload.ycsb]
    ops = run_ops(workload, records)
    per_slice = ops // SLICES
    results = []
    for _ in range(SLICES):
        rep.attempted += per_slice
        watch.start()
        try:
            results.append(runner.run(spec, per_slice))
        except Exception:
            _failure(rep, "run slice", per_slice)
        rep.run_slices.append(watch.stop())

    if recorder is not None:
        recorder.unwrap()  # nothing after the run phase belongs to a span
    rep.sim = simulated_results(store, results, records)
    rep.digest = digest_of(rep.sim)
    return rep, store


# ------------------------------------------------------- simulated results


def simulated_results(store, results, records: int) -> dict:
    """Everything on the simulated clock, from the run's ``RunResult``s and
    the devices' traffic ledgers (load and run together)."""
    samples: dict[str, list] = {}
    for r in results:
        for op, hist in r.latency_by_op.items():
            samples.setdefault(op, []).append(hist.samples())
    samples = {op: np.concatenate(parts) for op, parts in sorted(samples.items())}
    counts = {op: len(a) for op, a in samples.items()}
    devices = store.devices()
    return {
        "run_ops": sum(r.operations for r in results),
        "elapsed_s": sum(r.elapsed_s for r in results),
        "samples": samples,
        "inserts": counts.get("insert", 0),
        "puts": records
        + counts.get("update", 0)
        + counts.get("insert", 0)
        + counts.get("rmw", 0),
        "traffic": {name: d.traffic.snapshot() for name, d in devices.items()},
        "used_bytes": {name: d.used_bytes for name, d in devices.items()},
    }


def digest_of(sim: dict) -> str:
    """sha256 over every simulated result, floats bit for bit."""
    h = hashlib.sha256()

    def feed(x) -> None:
        if isinstance(x, dict):
            for k in sorted(x):
                h.update(str(k).encode())
                feed(x[k])
        elif isinstance(x, np.ndarray):
            h.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
        elif isinstance(x, float):
            h.update(struct.pack("<d", x))
        else:
            h.update(repr(x).encode())

    feed(sim)
    return h.hexdigest()


def lane_sum(traffic: dict, field_names, lanes=None, exclude=()) -> float:
    """Sum ledger fields of ``{device: {lane: fields}}`` over the chosen
    lanes (``lanes=None``: all of them)."""
    total = 0.0
    for dev_lanes in traffic.values():
        for lane, fields in dev_lanes.items():
            if (lanes is None or lane in lanes) and lane not in exclude:
                total += sum(fields[f] for f in field_names)
    return total


def simulated_metrics(sim: dict, records: int) -> dict[str, float]:
    all_samples = np.concatenate(list(sim["samples"].values()))
    user_bytes = sim["puts"] * USER_BYTES_PER_PUT
    live_bytes = (records + sim["inserts"]) * USER_BYTES_PER_PUT
    traffic = sim["traffic"]
    return {
        "sim_kops": sim["run_ops"] / sim["elapsed_s"] / 1e3,
        "sim_mean_us": float(all_samples.mean()) * 1e6,
        "sim_p99_us": float(np.percentile(all_samples, 99)) * 1e6,
        "write_amp": lane_sum(traffic, ["write_bytes"]) / user_bytes,
        "bg_bytes_per_user_byte": lane_sum(
            traffic, ["read_bytes", "write_bytes"], exclude=USER_LANES
        )
        / user_bytes,
        "space_amp": sum(sim["used_bytes"].values()) / live_bytes,
    }


# ----------------------------------------------------------- output checks


def check_outputs(rep: Rep, store, seed: int, records: int) -> None:
    """Read back what the workload wrote; every miss counts as a failure.

    Runs after the simulated results were captured, so the probes and the
    fresh puts below change no metric.
    """
    pool = value_pool(np.random.default_rng(seed))
    inserts = rep.sim["inserts"]
    rng = np.random.default_rng(seed + 1)

    def check(what: str, fn) -> None:
        rep.attempted += 1
        try:
            ok = fn()
        except Exception:
            ok = False
            traceback.print_exc(file=sys.stderr)
        if not ok:
            rep.failed += 1
            print(f"FAILED check: {what}", file=sys.stderr)

    def loaded(key) -> bool:
        value, _ = store.get(key)
        return value is not None and len(value) == VALUE_SIZE

    for key in encode_ids(rng.integers(0, records, size=min(CHECK_LOADED, records))):
        check(f"loaded key {key.hex()} readable", lambda: loaded(key))

    # Ids past the loaded range and the run's inserts, inside the key space
    # BenchScale declares (1.5 x records + 1024).
    free = records + inserts + 512
    n_absent = min(CHECK_ABSENT, records // 10)
    n_fresh = min(CHECK_FRESH, records // 10)
    for key in encode_ids(range(free, free + n_absent)):
        check(f"absent key {key.hex()} is None", lambda: store.get(key)[0] is None)

    fresh_ids = list(range(free + n_absent, free + n_absent + n_fresh))
    fresh = encode_ids(fresh_ids)
    for i, (key, kid) in enumerate(zip(fresh, fresh_ids)):
        value = value_for(pool, kid + 17)

        def put_get() -> bool:
            store.put(key, value)
            return store.get(key)[0] == value

        check(f"fresh key {key.hex()} reads back", put_get)
        if i % 100 == 99:
            start = fresh[i - 99]

            def scan_ok() -> bool:
                pairs, _ = store.scan(start, SCAN_LENGTH)
                ks = [k for k, _ in pairs]
                return (
                    0 < len(ks) <= SCAN_LENGTH
                    and ks == sorted(ks)
                    and ks[0] == start
                    and all(len(v) == VALUE_SIZE for _, v in pairs)
                )

            check(f"scan from {start.hex()} ordered", scan_ok)


# ------------------------------------------------------ across repetitions


def noise_floor_s(reps: list[Rep], phase: str) -> float:
    """Host time of a phase: per slice, the fastest repetition; summed.

    What the calibration leaves over only ever adds time and comes in
    bursts shorter than a phase, so the slice-wise minimum over identical
    repetitions converges on the undisturbed time much faster than the
    minimum or median of whole-phase times.
    """
    per_rep = [getattr(r, phase) for r in reps]
    return sum(min(s.seconds for s in slices) for slices in zip(*per_rep))


def end_to_end(reps: list[Rep], setups: list[Slice], records: int) -> dict:
    """The end-to-end metrics of one run (name -> value)."""
    first = reps[0]
    metrics = {
        "setup_s": median(s.seconds for s in setups),
        "load_kops": records / noise_floor_s(reps, "load_slices") / 1e3,
        "run_kops": first.sim["run_ops"] / noise_floor_s(reps, "run_slices") / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics.update(simulated_metrics(first.sim, records))
    return metrics


def tally(reps: list[Rep]) -> tuple[int, int]:
    """``(attempted, failed)`` over the repetitions; repetitions that
    disagree on any simulated result fail every operation."""
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if len({r.digest for r in reps}) != 1:
        print(
            "FAILED digest: repetitions disagree: "
            + ", ".join(r.digest[:16] for r in reps),
            file=sys.stderr,
        )
        failed = attempted
    return attempted, failed
