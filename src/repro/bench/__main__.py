"""Command-line entry point: regenerate the paper's figures as text tables.

Usage::

    python -m repro.bench                      # every figure, serially
    python -m repro.bench fig8 fig11           # a subset
    python -m repro.bench --workers 4          # fan cells across 4 processes
    python -m repro.bench --digest             # print a sha256 of all tables
    REPRO_SCALE=4 python -m repro.bench        # larger datasets

``--workers N`` fans each figure's independent cells across N worker
processes (``repro.parallel``); tables are digest-identical at every
worker count, which ``--digest`` makes checkable (CI asserts the
``--workers 2`` digest equals the serial one).  ``--timing-out FILE``
writes per-cell wall-clock timings as JSON for speedup analysis (one
record per cell, labelled ``<figure>:<cell>``).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import obs
from repro.bench.context import env_scale
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.reporting import format_table
from repro.parallel import JobResult, add_harness_arguments, finish


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="regenerate the paper's figures as text tables",
    )
    parser.add_argument(
        "experiments", nargs="*", metavar="FIG",
        help=f"experiments to run (default: all of {list(ALL_EXPERIMENTS)})",
    )
    add_harness_arguments(parser, unit="cell")
    args = parser.parse_args(argv)

    wanted = args.experiments or list(ALL_EXPERIMENTS)
    unknown = [w for w in wanted if w not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {list(ALL_EXPERIMENTS)}")
        return 2
    try:
        env_scale()
    except ValueError as exc:
        print(exc)
        return 2

    recorder = obs.install() if args.trace_out else None
    tables: list[str] = []
    jobs: list[JobResult] = []
    for name in wanted:
        start = time.time()
        result = ALL_EXPERIMENTS[name](workers=args.workers)
        tables.append(format_table(result["title"], result["headers"], result["rows"]))
        if "rows_b" in result:
            tables.append(
                format_table(result["title_b"], result["headers_b"], result["rows_b"])
            )
        print(tables[-1] if "rows_b" not in result else "\n\n".join(tables[-2:]))
        print(f"[{name} took {time.time() - start:.1f}s]\n")
        jobs += result["jobs"]

    finish(args, recorder, "\n\n".join(tables), jobs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
