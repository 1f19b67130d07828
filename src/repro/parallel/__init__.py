"""Deterministic multiprocess fan-out for the repro harnesses.

The evaluation grid — figure cells, sweep points, crash-matrix points —
is embarrassingly parallel: every cell builds its own stores, seeds its
own RNG streams, and returns plain data.  This package supplies the
two pieces that make fanning those cells across processes *safe*:

* :mod:`repro.parallel.pool` — the :class:`Job` abstraction and
  :func:`run_jobs`, a scheduler that preserves submission order and
  captures per-job timing and failures;
* :mod:`repro.parallel.hostinfo` — host-shape metadata recorded next to
  timing numbers so cross-machine comparisons stay interpretable, and the
  flags + artifact tail the harness CLIs share.

The invariant every consumer relies on: ``workers=1`` executes the jobs
in-process, in order, and is byte-identical to the pre-parallel serial
code path; ``workers=N`` changes wall-clock only, never results.
"""

from repro.parallel.hostinfo import add_harness_arguments, finish, host_metadata
from repro.parallel.pool import Job, JobResult, run_jobs

__all__ = [
    "Job",
    "JobResult",
    "run_jobs",
    "host_metadata",
    "add_harness_arguments",
    "finish",
]
