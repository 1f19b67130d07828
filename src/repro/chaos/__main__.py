"""CLI for the chaos soak harness.

Examples
--------
Run the full single-store matrix (outages, brownouts, composed restart,
latent corruption, the PrismDB-like baseline)::

    PYTHONPATH=src python -m repro.chaos

Any other suite by name — ``tier-smoke`` or ``tier-scrub`` (see
:mod:`repro.chaos.suites`)::

    PYTHONPATH=src python -m repro.chaos tier-scrub

Fan scenarios across worker processes (reports are identical at every
worker count — CI diffs both digests against ``results/DIGEST_soaks.txt``)::

    PYTHONPATH=src python -m repro.chaos tier-smoke --workers 2 --digest

Exit status is non-zero when any scenario's integrity oracle fails.
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.chaos.soak import run_soak
from repro.chaos.suites import SUITES, suite
from repro.parallel import add_harness_arguments, finish


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.chaos",
        description="Seeded chaos soak: outages/brownouts over long mixed "
        "workloads, checked by an acked-write integrity oracle.",
    )
    parser.add_argument(
        "suite", nargs="?", default="tier", choices=sorted(SUITES),
        help="which scenario table to run (default: tier)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--ops", type=int, default=None,
        help="ops per scenario (default: the suite's own)",
    )
    add_harness_arguments(parser, unit="scenario")
    args = parser.parse_args(argv)

    recorder = obs.install() if args.trace_out else None
    report = run_soak(
        suite(args.suite, args.ops), seed=args.seed, workers=args.workers
    )
    summary = report.summary()
    print(summary)
    print(f"scenarios exercised: {len(report.results)}")
    finish(args, recorder, summary, report.jobs)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
