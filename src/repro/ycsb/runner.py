"""Closed-loop workload execution and the simulated-time performance model.

The runner executes a workload against a store, recording each operation's
foreground service time (exact, from the device cost model).  Throughput and
latency are then derived:

* **elapsed time** — clients and background threads overlap, but a device's
  data channel does not::

      elapsed = max( (cpu + fg_service) / clients,
                     max over devices d, queues q of d of
                        transfer(d) + fg_latency(q) / min(clients, depth)
                                    + bg_latency(q) / min(bg_threads, depth) )

  Transfer time (bytes/bandwidth) serializes on the device; per-command
  latency overlaps across concurrent requesters, up to the queue's depth.
  More background threads therefore let compaction consume more real
  bandwidth (paper Fig. 3a).  A single-queue device is the one-queue case.

* **per-op latency** — the op's service time plus an M/M/1-style queueing
  penalty ``share(d) × ρ(d)/(1−ρ(d)) × Exp(1)`` summed over the devices the
  op actually touched (attributed by observing per-device busy-time deltas
  around each call).  An NVMe-only put does not queue behind SATA
  compaction, but a capacity-tier read does — so P99 responds to background
  pressure (paper Figs. 8b/8c, 10).
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.common.keys import encode_keys
from repro.common.stats import LatencyHistogram
from repro.core.interface import KVStore
from repro.ycsb.distributions import (
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
)
from repro.ycsb.workload import MIX_TOLERANCE, OpType, WorkloadSpec

#: CPU cost per operation (request parsing, index walk) in seconds.  Small
#: enough that devices dominate, large enough to bound ops/s per core.
CPU_PER_OP = 3e-6
#: Extra CPU per byte of value handled (checksum, memcpy).
CPU_PER_BYTE = 2e-10


@dataclass
class RunResult:
    """Everything a benchmark needs from one workload execution."""

    store_name: str
    workload_name: str
    operations: int
    clients: int
    background_threads: int
    elapsed_s: float
    throughput_ops: float
    latency_by_op: Dict[str, LatencyHistogram]
    #: Per-device traffic deltas for the run phase: device -> lane -> bytes.
    traffic: Dict[str, Dict[str, Dict[str, float]]]
    space_used: Dict[str, int]

    @property
    def overall_latency(self) -> LatencyHistogram:
        """All ops' samples combined, as a fresh histogram.

        The combine path must neither mutate nor alias the per-op
        histograms, which stay live and are combined on every call.
        ``merge`` copies samples into the new histogram's own buffer,
        so writes to the returned histogram can never reach
        ``latency_by_op`` (regression-tested in
        tests/test_parallel_merge.py).
        """
        total = sum(h.count for h in self.latency_by_op.values())
        merged = LatencyHistogram(initial_capacity=max(16, total))
        for hist in self.latency_by_op.values():
            merged.merge(hist)
        return merged

    def median_latency(self, op: Optional[str] = None) -> float:
        hist = self.overall_latency if op is None else self.latency_by_op.get(op)
        return hist.median if hist else 0.0

    def p99_latency(self, op: Optional[str] = None) -> float:
        hist = self.overall_latency if op is None else self.latency_by_op.get(op)
        return hist.p99 if hist else 0.0

    def write_bytes(self, device: str, kind: Optional[str] = None) -> float:
        """Bytes written on ``device`` (optionally one lane) during the run.

        Unknown device or lane names mean "no such traffic happened", so
        they answer 0.0 instead of raising — benchmark tables probe lanes
        (e.g. ``gc``) that some stores never exercise.
        """
        lanes = self.traffic.get(device)
        if lanes is None:
            return 0.0
        if kind is not None:
            return lanes.get(kind, {}).get("write_bytes", 0.0)
        return sum(l["write_bytes"] for l in lanes.values())

    def read_bytes(self, device: str, kind: Optional[str] = None) -> float:
        """Bytes read on ``device`` during the run; 0.0 for unknown names."""
        lanes = self.traffic.get(device)
        if lanes is None:
            return 0.0
        if kind is not None:
            return lanes.get(kind, {}).get("read_bytes", 0.0)
        return sum(l["read_bytes"] for l in lanes.values())

    def digest(self, load_total: float) -> str:
        """A canonical sha256 over one load + run's observable results.

        Floats go in as ``float.hex()`` (exact bits, no rounding), dicts in
        sorted key order, histograms as their raw sample buffers — so two
        runs digest equal iff their results are bit-identical.  This is the
        request-path contract's enforcement hook: tier-1 diffs the smoke
        cell's digest against the pinned ``results/DIGEST_ycsb_e2e_smoke.txt``
        and the runner against the scalar reference executor with it.
        """
        h = hashlib.sha256()
        h.update(float(load_total).hex().encode())
        h.update(str(self.operations).encode())
        h.update(float(self.elapsed_s).hex().encode())
        h.update(float(self.throughput_ops).hex().encode())
        for dev in sorted(self.traffic):
            for lane in sorted(self.traffic[dev]):
                for name in sorted(self.traffic[dev][lane]):
                    v = float(self.traffic[dev][lane][name])
                    h.update(f"{dev}/{lane}/{name}={v.hex()};".encode())
        for dev in sorted(self.space_used):
            h.update(f"s:{dev}={int(self.space_used[dev])};".encode())
        for op in sorted(self.latency_by_op):
            h.update(op.encode())
            h.update(self.latency_by_op[op].samples().tobytes())
        return h.hexdigest()


class WorkloadRunner:
    """Loads a store and executes YCSB workloads against it."""

    def __init__(
        self,
        store: KVStore,
        record_count: int,
        value_size: int = 128,
        clients: int = 8,
        background_threads: int = 8,
        seed: int = 0,
    ) -> None:
        if record_count <= 0:
            raise ValueError(f"record_count must be positive, got {record_count}")
        self.store = store
        self.record_count = record_count
        self.value_size = value_size
        self.clients = clients
        self.background_threads = background_threads
        self.rng = np.random.default_rng(seed)
        self._insert_count = 0
        self._value_pool = self.rng.integers(
            0, 256, size=max(4096, value_size * 4), dtype=np.uint8
        ).tobytes()

    # ---------------------------------------------------------------- load

    def _values(self, key_ids: list[int]) -> list[bytes]:
        pool = self._value_pool
        vs = self.value_size
        m = len(pool) - vs
        return [pool[s : s + vs] for s in [(k * 131) % m for k in key_ids]]

    def load(self, shuffle: bool = True) -> float:
        """Insert the initial dataset (random order, like the paper's load
        phase).  Returns total foreground service seconds."""
        scope = (
            obs.MetricScope("load", self.store.devices())
            if obs.RECORDER is not None
            else nullcontext()
        )
        with scope:
            ids = np.arange(self.record_count)
            if shuffle:
                self.rng.shuffle(ids)
            total = 0.0
            for s in self.store.put_many(encode_keys(ids), self._values(ids.tolist())):
                total += s
            self.store.finalize()
        return total

    # ----------------------------------------------------------------- run

    def _make_generator(self, spec: WorkloadSpec):
        n = self.record_count + self._insert_count
        if spec.distribution == "uniform":
            return UniformGenerator(n, self.rng)
        if spec.distribution == "latest":
            return LatestGenerator(n, self.rng, spec.theta)
        return ScrambledZipfianGenerator(n, self.rng, spec.theta)

    def run(self, spec: WorkloadSpec, operations: int) -> RunResult:
        """Execute ``operations`` requests of the given workload."""
        devices = self.store.devices()
        snap_before = {name: d.traffic.snapshot() for name, d in devices.items()}
        qsnap_before = {
            name: d.traffic.queue_snapshot() for name, d in devices.items()
        }

        generator = self._make_generator(spec)
        mix = np.array(
            [spec.read, spec.update, spec.insert, spec.scan, spec.rmw],
            dtype=np.float64,
        )
        total_mix = float(mix.sum())
        if (
            not np.all(np.isfinite(mix))
            or np.any(mix < 0)
            or abs(total_mix - 1.0) > MIX_TOLERANCE
        ):
            raise ValueError(
                f"workload {spec.name!r}: op mix must be non-negative and sum "
                f"to 1.0 (±{MIX_TOLERANCE:g}), got {mix.tolist()} "
                f"(sum {total_mix!r})"
            )
        if total_mix != 1.0:
            # Tiny float drift (1 - 0.95 - 0.04 ≈ 0.01 + 8e-18) is past
            # rng.choice's own tolerance; renormalize so it always accepts.
            # Skipped for exact mixes so their RNG draw stays bit-identical.
            mix = mix / total_mix
        ops = (OpType.READ, OpType.UPDATE, OpType.INSERT, OpType.SCAN, OpType.RMW)
        choices = self.rng.choice(len(ops), size=operations, p=mix)

        device_names = list(devices)
        trace = obs.RECORDER
        cpu_total, fg_service_total, columns = self._execute(
            spec, ops, choices.tolist(), generator, list(devices.values()), trace
        )

        self.store.finalize()
        traffic = {
            name: d.traffic.diff(snap_before[name], d.traffic.snapshot())
            for name, d in devices.items()
        }
        if trace is not None:
            # The run phase's traffic delta is already computed above, so
            # publish it directly instead of re-snapshotting via MetricScope.
            trace.note_phase(
                {"phase": "run", "workload": spec.name, "traffic": traffic}
            )

        queue_traffic = {
            name: [
                d.traffic.diff(b, a)
                for b, a in zip(qsnap_before[name], d.traffic.queue_snapshot())
            ]
            for name, d in devices.items()
        }

        depths = {name: d.queue_depth for name, d in devices.items()}
        elapsed = self._elapsed(
            traffic, queue_traffic, depths, cpu_total, fg_service_total
        )
        # Foreground ops contend only with queue 0's traffic: background
        # queues don't inflate the queueing penalty (that is the isolation
        # the queues buy); on a one-queue device queue 0 is the device.
        rho_by_device = {
            name: min(0.95, _busy_seconds(queue_traffic[name][0]) / elapsed)
            for name in traffic
        }
        latency_by_op = self._latencies(ops, columns, device_names, rho_by_device)

        return RunResult(
            store_name=self.store.name,
            workload_name=spec.name,
            operations=operations,
            clients=self.clients,
            background_threads=self.background_threads,
            elapsed_s=elapsed,
            throughput_ops=operations / elapsed if elapsed > 0 else 0.0,
            latency_by_op=latency_by_op,
            traffic=traffic,
            space_used={n: d.used_bytes for n, d in devices.items()},
        )

    # ------------------------------------------------------ execution

    def _execute(
        self, spec, ops, choice_list, generator, device_objs, trace
    ) -> tuple[float, float, tuple]:
        """The run loop: contiguous same-type slices of the op stream go
        through the store's batch API, and flat op-ordered columns come back.

        Per-op attribution is deferred: the loop only collects busy rows
        (cumulative per-device busy seconds after every op — ``busy_out``
        rows from the store, or ``busy_seconds()`` snapshots around the
        scalar scan / read-modify-write calls), service times and CPU
        costs; :meth:`_latencies` turns them into shares, queueing
        penalties and histograms with numpy array passes.

        With a recorder installed each slice is cut to one op and
        bracketed by an ``op`` begin/end pair — a traced run is the same
        loop with batches of one, so device I/O events nest inside their
        op and results are bit-identical to the untraced run.
        """
        store = self.store
        insert_code = ops.index(OpType.INSERT)
        n_choices = len(choice_list)
        value_cpu = CPU_PER_OP + CPU_PER_BYTE * self.value_size
        kid_buf: list[int] = []  # key ids of the current insert-free stretch
        key_buf: list[bytes] = []  # ... and their encodings, sliced in step
        buf_pos = 0
        row0 = tuple(d.busy_seconds() for d in device_objs)
        rows: list[tuple] = []
        services: list[float] = []
        cpus: list[float] = []
        i = 0
        while i < n_choices:
            op_idx = choice_list[i]
            op = ops[op_idx]
            j = i + 1
            if trace is None and op is not OpType.INSERT:
                while j < n_choices and choice_list[j] == op_idx:
                    j += 1
            count = j - i
            if trace is not None:
                before = rows[-1] if rows else row0
                op_t0 = sum(before)
                trace.begin("op", t=op_t0, op=op.value)
            if op is OpType.INSERT:
                # The only op that changes the generator's item count.
                kids = [self.record_count + self._insert_count]
                keys = encode_keys(kids)
                self._insert_count += 1
                generator.set_item_count(self.record_count + self._insert_count)
            else:
                # Request keys are drawn and encoded once per insert-free
                # stretch of the stream, so a slice (which never spans an
                # insert) finds the buffer either empty or covering it.
                if buf_pos >= len(kid_buf):
                    k = i
                    while k < n_choices and choice_list[k] != insert_code:
                        k += 1
                    drawn = generator.next_many(k - i)
                    kid_buf, key_buf = drawn.tolist(), encode_keys(drawn)
                    buf_pos = 0
                kids = kid_buf[buf_pos : buf_pos + count]
                keys = key_buf[buf_pos : buf_pos + count]
                buf_pos += count
            if op is OpType.READ:
                services.extend(s for _, s in store.get_many(keys, busy_out=rows))
                cpus.extend([CPU_PER_OP] * count)
            elif op is OpType.UPDATE or op is OpType.INSERT:
                services.extend(
                    store.put_many(keys, self._values(kids), busy_out=rows)
                )
                cpus.extend([value_cpu] * count)
            elif op is OpType.SCAN:
                for key in keys:
                    pairs, service = store.scan(key, spec.scan_length)
                    services.append(service)
                    cpus.append(
                        CPU_PER_OP + CPU_PER_BYTE * sum(len(v) for _, v in pairs)
                    )
                    rows.append(tuple(d.busy_seconds() for d in device_objs))
            else:  # RMW
                for key, value in zip(keys, self._values(kids)):
                    _, s1 = store.get(key)
                    s2 = store.put(key, value)
                    services.append(s1 + s2)
                    cpus.append(value_cpu)
                    rows.append(tuple(d.busy_seconds() for d in device_objs))
            if trace is not None:
                # Busy time is monotonic, so the positive deltas are exactly
                # how far the devices moved during the op.
                moved = 0.0
                for after_k, before_k in zip(rows[-1], before):
                    delta = after_k - before_k
                    if delta > 0:
                        moved += delta
                trace.end(
                    "op", t=op_t0 + moved, op=op.value,
                    service_s=services[-1] + cpus[-1],
                )
            i = j
        service_arr = np.asarray(services, dtype=np.float64)
        cpu_arr = np.asarray(cpus, dtype=np.float64)
        # Sequential left-to-right totals, bit-identical to scalar `+=`.
        cpu_total = float(np.add.accumulate(cpu_arr)[-1]) if len(cpu_arr) else 0.0
        fg_service_total = (
            float(np.add.accumulate(service_arr)[-1]) if len(service_arr) else 0.0
        )
        columns = (np.asarray(choice_list), service_arr, cpu_arr, row0, rows)
        return cpu_total, fg_service_total, columns

    def _latencies(
        self, ops, columns, device_names, rho_by_device,
    ) -> Dict[str, LatencyHistogram]:
        """Service times + sampled queueing delay → latency histograms.

        Each op's foreground service is attributed to the devices whose
        busy time moved during it (background work triggered inside the
        call inflates the deltas, so shares are normalized to the
        foreground service), and its queueing penalty uses the utilization
        of exactly those devices: an NVMe-only put does not wait behind
        SATA compaction, but a read that dips into the capacity tier does.

        Shares, scaling, and queueing sums are elementwise array ops whose
        per-op float math is that of a scalar loop (the reference executor
        in tests/): deltas are the same subtractions, ``min(1.0,
        service/total)`` the same divide and compare, and the per-device
        share×factor sum accumulates in device order starting from zero.
        """
        codes, service_arr, cpu_arr, row0, rows = columns
        n = len(service_arr)
        out: Dict[str, LatencyHistogram] = {}
        if n == 0:
            return out
        rows_arr = np.empty((n + 1, len(row0)), dtype=np.float64)
        rows_arr[0] = row0
        rows_arr[1:] = rows
        deltas = rows_arr[1:] - rows_arr[:-1]
        shares = np.where(deltas > 0.0, deltas, 0.0)
        # Row-wise total of positive deltas, accumulated in device order
        # from 0.0 (scalar: ``total_delta = 0.0; total_delta += delta``).
        total = np.zeros(n, dtype=np.float64)
        for k in range(shares.shape[1]):
            total = total + shares[:, k]
        apply_mask = (total > 0.0) & (service_arr > 0.0)
        safe_total = np.where(apply_mask, total, 1.0)
        scale = np.minimum(1.0, service_arr / safe_total)
        # scalar: shares unscaled when scale == 1.0; ``x * 1.0 == x``
        # bitwise for finite x, so one multiply covers both branches.
        shares = np.where(apply_mask[:, None], shares * scale[:, None], 0.0)
        factor = {d: r / (1.0 - r) for d, r in rho_by_device.items()}
        queued = np.zeros(n, dtype=np.float64)
        for k, name in enumerate(device_names):
            queued = queued + shares[:, k] * factor.get(name, 0.0)
        samples = service_arr + cpu_arr
        for op_idx, op in enumerate(ops):
            mask = codes == op_idx
            m = int(mask.sum())
            if m == 0:
                continue
            arr = samples[mask]
            noise = self.rng.exponential(1.0, size=m)
            latencies = arr + queued[mask] * noise
            hist = LatencyHistogram(initial_capacity=max(16, m))
            hist.record_many(latencies)
            out[op.value] = hist
        return out

    # ------------------------------------------------------------- models

    def _elapsed(
        self,
        traffic: Dict[str, Dict[str, Dict[str, float]]],
        queue_traffic: Dict[str, List[Dict[str, Dict[str, float]]]],
        depths: Dict[str, int],
        cpu_total: float,
        fg_service_total: float,
    ) -> float:
        client_bound = (cpu_total + fg_service_total) / self.clients
        device_bound = 0.0
        bg_threads = max(1, self.background_threads)
        for name, lanes in traffic.items():
            # Queues share the media channel, so transfer serializes
            # device-wide, but per-command latency only serializes within
            # a queue: the device bound is its slowest queue, and a queue
            # hides at most ``queue_depth`` commands' latency.  Each
            # background lane has its own thread pool (the paper runs one
            # migration and one compaction thread per partition), so one
            # lane cannot borrow the other lanes' threads.
            transfer = sum(
                l["read_transfer_s"] + l["write_transfer_s"] for l in lanes.values()
            )
            fg_conc = max(1, min(self.clients, depths[name]))
            bg_conc = max(1, min(bg_threads, depths[name]))
            for qlanes in queue_traffic[name]:
                fg_lat = sum(
                    qlanes[k]["read_latency_s"] + qlanes[k]["write_latency_s"]
                    for k in ("foreground", "wal")
                )
                bg_lat = max(
                    qlanes[k]["read_latency_s"] + qlanes[k]["write_latency_s"]
                    for k in ("flush", "compaction", "migration", "gc", "scrub")
                    if k in qlanes
                )
                bound = transfer + fg_lat / fg_conc + bg_lat / bg_conc
                device_bound = max(device_bound, bound)
        return max(client_bound, device_bound, 1e-9)


def _busy_seconds(lanes: Dict[str, Dict[str, float]]) -> float:
    return sum(
        l["read_latency_s"]
        + l["read_transfer_s"]
        + l["write_latency_s"]
        + l["write_transfer_s"]
        for l in lanes.values()
    )
