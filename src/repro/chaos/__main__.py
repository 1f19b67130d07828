"""CLI for the chaos soak harness.

Examples
--------
Run the full soak matrix (outages, brownouts, composed restart)::

    PYTHONPATH=src python -m repro.chaos

The CI smoke configuration (one NVMe outage + one capacity brownout)::

    PYTHONPATH=src python -m repro.chaos --smoke

Fan scenarios across worker processes (reports are identical at every
worker count — CI asserts the digest matches the serial run)::

    PYTHONPATH=src python -m repro.chaos --workers 2 --digest

The sharded-cluster matrix (node outage, rolling brownouts, outage during
rebalance, graceful drain, strict quorums) instead of the single-node
tier matrix::

    PYTHONPATH=src python -m repro.chaos --cluster

Exit status is non-zero when any scenario's integrity oracle fails.
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.chaos.cluster import (
    default_cluster_scenarios,
    run_cluster_soak,
    scrub_cluster_scenarios,
    smoke_cluster_scenarios,
)
from repro.chaos.harness import (
    default_scenarios,
    run_soak,
    scrub_scenarios,
    smoke_scenarios,
)
from repro.parallel import add_harness_arguments, finish


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.chaos",
        description="Seeded chaos soak: tier outages/brownouts over long "
        "mixed workloads, checked by an acked-write integrity oracle.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--ops", type=int, default=900, help="ops per scenario (default 900)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the short CI scenario set instead of the full matrix",
    )
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="run the sharded-cluster scenario matrix (quorum writes, node "
        "failover, hinted handoff, rebalance) instead of the single-node "
        "tier matrix",
    )
    parser.add_argument(
        "--scrub",
        action="store_true",
        help="run only the latent-corruption scenarios (background scrub, "
        "repair ladder, cluster anti-entropy) — the scrub CI smoke set",
    )
    add_harness_arguments(parser, unit="scenario")
    args = parser.parse_args(argv)

    if args.cluster:
        # Cluster ops fan out to RF replicas each, so the default op count
        # is scaled down to keep run time comparable to the tier matrix.
        ops = args.ops if args.ops != 900 else 400
        if args.scrub:
            scenarios = scrub_cluster_scenarios(num_ops=ops)
        elif args.smoke:
            scenarios = smoke_cluster_scenarios(num_ops=min(ops, 300))
        else:
            scenarios = default_cluster_scenarios(num_ops=ops)
        run = run_cluster_soak
    else:
        if args.scrub:
            scenarios = scrub_scenarios(num_ops=args.ops)
        elif args.smoke:
            scenarios = smoke_scenarios(num_ops=min(args.ops, 500))
        else:
            scenarios = default_scenarios(num_ops=args.ops)
        run = run_soak
    recorder = obs.install() if args.trace_out else None
    report = run(scenarios, seed=args.seed, workers=args.workers)
    summary = report.summary()
    print(summary)
    print(f"scenarios exercised: {len(report.results)}")
    scenario_timings = [
        {
            "name": r.scenario,
            "engine": getattr(r, "engine", "cluster"),
            "seconds": round(s, 6),
            "ok": r.passed,
        }
        for r, s in zip(report.results, report.scenario_seconds)
    ]
    finish(args, recorder, summary, {"scenarios": scenario_timings})
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
