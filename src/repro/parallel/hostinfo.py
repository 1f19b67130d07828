"""What the harness CLIs share: host-shape metadata for timing records,
the four fan-out / artifact flags, and the tail that writes the artifacts.

Wall-clock numbers only compare meaningfully within one "host shape"
(same core count, same architecture, same worker count), so every timing
document is stamped with :func:`host_metadata`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
from typing import Optional, Sequence

from repro import obs
from repro.parallel.pool import JobResult, timing_records


def host_metadata(workers: int = 1) -> dict:
    """CPU / python / worker-count facts to record next to timings."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "workers": workers,
    }


def add_harness_arguments(parser: argparse.ArgumentParser, unit: str) -> None:
    """``--workers``, ``--digest``, ``--timing-out`` and ``--trace-out`` —
    the same four on ``repro.bench``, ``repro.chaos`` and
    ``repro.faultcheck``.  ``unit`` names what one fanned-out job is
    (cell, scenario, crash point) in the help text."""
    parser.add_argument(
        "--workers", type=int, default=1,
        help=f"worker processes for the {unit} fan-out (1 = serial "
        "in-process, 0 = one per core; results are identical at any count)",
    )
    parser.add_argument(
        "--digest", action="store_true",
        help="print 'DIGEST <sha256>' over the report text (timing lines "
        "excluded), for serial/parallel equivalence checks",
    )
    parser.add_argument(
        "--timing-out", metavar="FILE", default=None,
        help=f"write per-{unit} job timings + host metadata as JSON",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="record an obs trace of the whole run and export it as JSONL "
        "(inspect with 'python -m repro.obs summarize FILE'); tracing "
        "never changes results, verdicts or digests",
    )


def finish(
    args: argparse.Namespace,
    recorder: Optional[obs.TraceRecorder],
    digest_text: str,
    outcomes: Sequence[JobResult],
) -> None:
    """The tail of a harness run, in the order every CLI printed it:
    export the trace (``recorder`` is what ``obs.install()`` returned, or
    None), print the digest of ``digest_text``, write the timing document
    — the host metadata and one :func:`timing_records` row per fanned-out
    job (``outcomes``, in submission order; the job label names the cell,
    scenario or crash point)."""
    if recorder is not None:
        obs.uninstall()
        recorder.export_jsonl(args.trace_out)
        print(
            f"trace: {recorder.total_events} events "
            f"({recorder.dropped} dropped) -> {args.trace_out}"
        )
    if args.digest:
        print(f"DIGEST {hashlib.sha256(digest_text.encode()).hexdigest()}")
    if args.timing_out:
        doc = {
            "host": host_metadata(workers=args.workers),
            "jobs": timing_records(outcomes),
        }
        with open(args.timing_out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
