"""perfbench: two clocks, four workloads.

    python3 perfbench/run.py                      # every workload, both passes
    python3 perfbench/run.py --workload write_tight --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck          # same code twice, within bounds?

With ``--workload`` the run happens in this interpreter and the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without it every workload runs in a
fresh interpreter of its own, one after the other.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: A ``--trace 1`` run alternates this many untraced and traced repetitions.
TRACE_PAIRS = 2
CHILD_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_program() -> None:
    """Put the program's sources on the path; exit non-zero without them."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"perfbench: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))


# ------------------------------------------------------------ one workload


def measure(workload, seed: int, reps: int, records: int):
    """The untraced pass: ``reps`` identical repetitions.

    Returns ``(metrics, attempted, failed, reps)``.
    """
    import bench

    done = []
    for _ in range(reps):
        rep, store = bench.repetition(workload, seed, records)
        bench.check_outputs(rep, store, seed, records)
        done.append(rep)
    del store
    # More set-ups, built and dropped, for a steadier ``setup_s`` median.
    setups = [r.setup for r in done]
    watch = bench.Stopwatch()
    while len(setups) < bench.SETUPS:
        setups.append(bench.timed_set_up(watch, workload, seed, records)[0])
    attempted, failed = bench.tally(done)
    return bench.end_to_end(done, setups, records), attempted, failed, done


def trace(workload, seed: int, records: int, write_to: Path | None):
    """The traced pass: untraced and traced repetitions in turn, then the
    layer drives.  Returns ``(metrics, attempted, failed, report_lines)``.

    Layer self times come from the less disturbed (faster) traced
    repetition; the overhead compares the calibrated times of both kinds.
    """
    import bench
    import counters
    import layers
    from spans import SpanRecorder

    unresolved: list[str] = []
    metrics: dict = {}
    plain, traced, recorders = [], [], []
    for _ in range(TRACE_PAIRS):
        rep, store = bench.repetition(workload, seed, records)
        if not metrics:  # the counters of a run the checks have not touched
            metrics.update(counters.ledger_metrics(rep.sim, workload.engine))
            metrics.update(counters.store_counters(store, workload.engine, unresolved))
        bench.check_outputs(rep, store, seed, records)
        plain.append(rep)
        recorders.append(SpanRecorder())
        rep, store = bench.repetition(workload, seed, records, recorder=recorders[-1])
        bench.check_outputs(rep, store, seed, records)
        traced.append(rep)
    del store

    best = min(range(TRACE_PAIRS), key=lambda i: traced[i].raw_host_s)
    rec, best_rep = recorders[best], traced[best]
    aggregate = rec.aggregate()
    metrics.update(counters.span_metrics(aggregate, rec.missing, workload.engine, unresolved))
    metrics["trace.overhead_frac"] = (
        sum(r.host_s for r in traced) / sum(r.host_s for r in plain) - 1.0
    )
    metrics["trace.coverage_frac"] = rec.covered_s() / best_rep.raw_host_s
    metrics.update(layers.run_drives(seed, workload.engine, unresolved))
    # Tracing must not change what is simulated: one digest for all.
    attempted, failed = bench.tally(plain + traced)

    wall_s = best_rep.raw_host_s
    lines = [f"traced repetition: {wall_s:.3f} s wall, {len(rec.start)} spans"]
    attributed = 0.0
    for name, agg in sorted(aggregate.items(), key=lambda kv: -kv[1]["self_s"]):
        attributed += agg["self_s"]
        lines.append(f"  {name:<28} self {agg['self_s']:8.3f} s  calls {agg['calls']}")
    lines.append(
        f"  phases = {attributed:.3f} s in layers + {wall_s - attributed:.3f} s unattributed"
    )
    lines += [f"unresolved: {u}" for u in unresolved]
    if write_to is not None:
        rec.write(write_to, {
            "workload": workload.name, "seed": seed, "records": records,
            "wall_s": wall_s, "unresolved": unresolved,
        })
        lines.append(f"trace written to {write_to.relative_to(ROOT)}")
    return metrics, attempted, failed, lines


def result_line(spec_metrics: list[dict], values: dict, attempted: int, failed: int) -> str:
    """The JSON object the driver reads: exactly the declared metrics."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: BENCHMARK.json names metrics nothing measures: {missing}")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics
        },
    })


def run_one(args, spec: dict) -> int:
    import_program()
    import bench

    workload = bench.WORKLOADS[args.workload]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"# {workload.name}: {why}")
    if args.trace:
        declared = spec["per_layer"]
        values, attempted, failed, lines = trace(
            workload, args.seed, bench.RECORDS, OUT / f"trace_{workload.name}.json"
        )
    else:
        declared = spec["end_to_end"]
        reps = bench.repetitions_for(args.seconds)
        values, attempted, failed, done = measure(workload, args.seed, reps, bench.RECORDS)
        samples = sum(len(a) for a in done[0].sim["samples"].values())
        slices = [s for r in done for s in r.load_slices + r.run_slices]
        lines = [
            f"{reps} repetitions, digest {done[0].digest[:16]}, "
            f"{samples} latency samples ({samples // 100} beyond p99)",
            f"host ran at x{median(s.slowdown for s in slices):.2f} the reference time "
            f"(slices x{min(s.slowdown for s in slices):.2f} to "
            f"x{max(s.slowdown for s in slices):.2f}); "
            f"wall {sum(s.raw_s for s in slices):.1f} s in timed slices",
        ]
    for m in declared:
        value = values.get(m["name"])
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{m['name']:<32} {shown:>14} {m['unit']}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted})")
    print("\n".join(lines))
    print(result_line(declared, values, attempted, failed))
    return 0


# ------------------------------------------------------------ all workloads


def child(workload: str, seed: int, seconds: int, traced: int) -> dict:
    """Run one workload in a fresh interpreter; its parsed result line."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    *report, last = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(report), flush=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {workload} exited with {proc.returncode}")
    return json.loads(last)


def run_set(spec: dict, seed: int, seconds: int, traced_too: bool) -> dict:
    """Every workload, one after the other: ``{workload: result}``."""
    results = {}
    for w in spec["workloads"]:
        results[w["name"]] = child(w["name"], seed, seconds, 0)
        if traced_too:
            child(w["name"], seed, seconds, 1)
    return results


def value(results: dict, workload: str, metric: str) -> float:
    return results[workload]["metrics"][metric]["value"]


def run_all(args, spec: dict) -> int:
    results = run_set(spec, args.seed, args.seconds, traced_too=True)
    ratio = value(results, "write_tight", "bg_bytes_per_user_byte") / value(
        results, "write_tight_rocksdb", "bg_bytes_per_user_byte"
    )
    print(f"\npaper.bg_traffic_vs_rocksdb {ratio:.6g} ratio "
          "(write_tight / write_tight_rocksdb background bytes per user byte)")
    failed = sum(r["failed"] for r in results.values())
    print(f"failed operations: {failed}")
    return 1 if failed else 0


def selfcheck(args, spec: dict) -> int:
    """Two sets of runs of the same code must agree within the bounds, and
    exactly on every simulated metric."""
    import_program()
    import bench

    first = run_set(spec, args.seed, args.seconds, traced_too=False)
    second = run_set(spec, args.seed, args.seconds, traced_too=False)
    bad = 0
    print(f"\n{'workload':<20} {'metric':<24} {'first':>12} {'second':>12} {'diff':>8} {'bound':>6}")
    for w in first:
        for m in spec["end_to_end"]:
            a, b = value(first, w, m["name"]), value(second, w, m["name"])
            diff = abs(b - a) / abs(a)
            exact = m["name"] in bench.SIMULATED
            ok = a == b if exact else diff <= m["bound"]
            bad += not ok
            print(
                f"{w:<20} {m['name']:<24} {a:>12.6g} {b:>12.6g} {diff:>8.2%} "
                f"{'exact' if exact else format(m['bound'], '.0%'):>6}{'' if ok else '  <-- FAIL'}"
            )
        for r in (first[w], second[w]):
            bad += r["failed"] > 0
    print("selfcheck", "FAILED" if bad else "ok")
    return 1 if bad else 0


def main() -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                    help="run this one workload here (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=7,
                    help="the values and the request stream are made from it (default 7)")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"],
                    help="how long one run measures (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced pass and the per-layer metrics")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run every workload twice and compare against the bounds")
    args = ap.parse_args()
    if args.selfcheck:
        return selfcheck(args, spec)
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
