"""CLI for the crash-consistency harness.

Examples
--------
Run the full matrix (the CI smoke configuration)::

    PYTHONPATH=src python -m repro.faultcheck

Quick check with fewer points::

    PYTHONPATH=src python -m repro.faultcheck --lsm-points 4 --hyperdb-points 4

Fan the crash matrices across worker processes (reports are identical at
every worker count — CI asserts the digest matches the serial run)::

    PYTHONPATH=src python -m repro.faultcheck --workers 4 --digest

Exit status is non-zero when any crash point or absorption check fails.
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.faultcheck.harness import (
    run_hyperdb_crash_matrix,
    run_lsm_crash_matrix,
    run_transient_absorption,
)
from repro.parallel import add_harness_arguments, finish


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.faultcheck",
        description="Seeded crash-consistency and fault-tolerance matrix.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--lsm-points",
        type=int,
        default=12,
        help="crash points for the RocksDB-like baseline (default 12)",
    )
    parser.add_argument(
        "--hyperdb-points",
        type=int,
        default=10,
        help="crash points for HyperDB (default 10)",
    )
    parser.add_argument(
        "--ops", type=int, default=240, help="workload size per run"
    )
    parser.add_argument(
        "--error-rate",
        type=float,
        default=0.02,
        help="per-I/O transient error rate for the absorption checks",
    )
    parser.add_argument(
        "--skip-transient",
        action="store_true",
        help="run only the crash matrices",
    )
    add_harness_arguments(parser, unit="crash-point")
    args = parser.parse_args(argv)

    recorder = obs.install() if args.trace_out else None
    failed = False
    reports = []
    summaries: list[str] = []
    if args.lsm_points > 0:
        reports.append(
            run_lsm_crash_matrix(
                num_points=args.lsm_points,
                seed=args.seed,
                num_ops=args.ops,
                two_tier=True,
                workers=args.workers,
            )
        )
    if args.hyperdb_points > 0:
        reports.append(
            run_hyperdb_crash_matrix(
                num_points=args.hyperdb_points,
                seed=args.seed,
                workers=args.workers,
            )
        )
    for report in reports:
        summaries.append(report.summary())
        print(summaries[-1])
        failed |= not report.passed

    if not args.skip_transient:
        for engine in ("rocksdb-like", "hyperdb"):
            t = run_transient_absorption(
                engine=engine,
                seed=args.seed,
                num_ops=args.ops,
                error_rate=args.error_rate,
            )
            summaries.append(t.summary())
            print(summaries[-1])
            failed |= not t.passed

    total_points = sum(len(r.results) for r in reports)
    print(f"crash points exercised: {total_points}")
    jobs = [job for r in reports for job in r.jobs]
    finish(args, recorder, "\n".join(summaries), jobs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
