"""CLI: ``PYTHONPATH=src python -m repro.perf [--smoke] [--label current]``."""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.perf.harness import (
    PerfScale,
    bench_names,
    format_table,
    record_run,
    run_benches,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.perf", description="hot-path microbenchmark harness"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny iteration counts (CI trajectory mode)",
    )
    parser.add_argument(
        "--label", default="current",
        help="run label in the trajectory file (use 'baseline' to set the "
        "comparison point; default: current)",
    )
    parser.add_argument(
        "--out", default="results/BENCH_perf.json",
        help="trajectory JSON to append to (default: results/BENCH_perf.json)",
    )
    parser.add_argument(
        "--bench", action="append", choices=bench_names(), metavar="NAME",
        help="run only the named bench(es); repeatable",
    )
    parser.add_argument(
        "--no-save", action="store_true", help="print results without recording"
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes: fans independent benches across a pool and "
        "sets the parallel_e2e fan-out width (1 = serial, 0 = one per core)",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="record an obs trace of the benches and export it as JSONL "
        "(tracing itself is timed work here — compare traced runs only "
        "with traced runs)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run each bench under cProfile and dump the top functions by "
        "cumulative time (profiling overhead is real: numbers from a "
        "profiled run are not comparable with unprofiled ones)",
    )
    parser.add_argument(
        "--profile-out", metavar="FILE", default="results/perf_profile.txt",
        help="where --profile writes its per-bench top-N dump "
        "(default: results/perf_profile.txt)",
    )
    args = parser.parse_args(argv)

    scale = PerfScale.smoke() if args.smoke else PerfScale.full()
    recorder = obs.install() if args.trace_out else None
    if args.profile:
        from repro.perf.profiling import profile_benches

        results = profile_benches(
            scale, args.profile_out, only=args.bench
        )
        print(f"profile: per-bench cumulative dump -> {args.profile_out}")
    else:
        results = run_benches(scale, only=args.bench, workers=args.workers)
    if recorder is not None:
        obs.uninstall()
        recorder.export_jsonl(args.trace_out)
        print(
            f"trace: {recorder.total_events} events "
            f"({recorder.dropped} dropped) -> {args.trace_out}"
        )
    run = None
    if args.profile:
        # Profiled timings carry instrumentation overhead; never let them
        # into the trajectory file.
        args.no_save = True
    if not args.no_save:
        run = record_run(args.out, args.label, scale, results, workers=args.workers)
    print(f"repro.perf [{scale.mode}] label={args.label} workers={args.workers}")
    print(format_table(results, run))
    if "parallel_e2e" in results and results["parallel_e2e"].extra:
        extra = results["parallel_e2e"].extra
        print(
            f"parallel_e2e: {extra['cells']} cells, {extra['workers']} workers, "
            f"fan-out speedup {extra['fanout_speedup']:.2f}x "
            f"(merge identical: {extra['merge_identical']})"
        )
    for name, res in results.items():
        if res.extra and "digest" in res.extra:
            print(f"DIGEST {name} {res.extra['digest']}")
    if run and "speedup_vs_baseline" in run:
        headline = run["speedup_vs_baseline"].get("ycsb_e2e")
        if headline is not None:
            print(f"headline (ycsb_e2e) speedup vs baseline: {headline:.2f}x")
    if run and "speedup_skipped" in run:
        print(f"speedup vs baseline skipped: {run['speedup_skipped']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
