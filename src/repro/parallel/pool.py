"""Process-pool job scheduling with deterministic collection.

A :class:`Job` is a picklable top-level callable plus its arguments and a
label.  :func:`run_jobs` executes a list of jobs either in-process
(``workers=1`` — the exact serial code path) or across a process pool,
and always returns one :class:`JobResult` per job *in submission order*,
regardless of completion order.  Each result carries the job's own
wall-clock seconds (measured inside the worker, excluding queue wait)
and, on failure, the formatted traceback instead of an exception — a
40-cell figure grid should report every broken cell, not die on the
first.

Determinism contract:

* the scheduler never reorders results — whatever a caller folds over
  them (a digest, a merged trace) sees job K after jobs ``0..K-1`` on
  every run at every worker count;
* a job's randomness must come only from seeds carried in its arguments
  (``BenchScale.seed``, a soak's seed, a crash point's injector seed).
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import multiprocessing as mp

from repro import obs


@dataclass(frozen=True)
class Job:
    """One unit of independent work: callable + arguments + label.

    ``fn`` must be picklable (a module-level function) when the pool runs
    with more than one worker.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    label: str = ""


@dataclass
class JobResult:
    """Outcome of one job: its value or its traceback, plus timing."""

    index: int
    label: str
    seconds: float
    ok: bool
    value: Any = None
    error: str = ""

    def unwrap(self) -> Any:
        """The job's value, or a ``RuntimeError`` carrying its traceback."""
        if not self.ok:
            raise RuntimeError(
                f"job {self.index} ({self.label or 'unlabelled'}) failed:\n{self.error}"
            )
        return self.value


def _call(
    payload: tuple[int, Job, Optional[int]]
) -> tuple[JobResult, Optional[dict]]:
    """Execute job ``index``, timing just the call and capturing any failure.

    With a ``trace_capacity`` the job records into a fresh, private trace
    recorder of that capacity and its exported shard rides back with the
    result.  Every traced job — serial or pooled — gets its own recorder,
    so the shards the scheduler absorbs (in submission order) are identical
    at any worker count.  The previous ambient recorder is restored
    afterwards, which on the serial path hands control back to the
    caller's recorder.
    """
    index, job, trace_capacity = payload
    prev = obs.RECORDER
    rec = None if trace_capacity is None else obs.install(capacity=trace_capacity)
    t0 = time.perf_counter()
    try:
        value, error = job.fn(*job.args, **job.kwargs), ""
    except Exception:
        value, error = None, traceback.format_exc()
    finally:
        seconds = time.perf_counter() - t0
        obs.RECORDER = prev
    result = JobResult(index, job.label, seconds, not error, value, error)
    return result, None if rec is None else rec.to_doc()


def _pool_context() -> mp.context.BaseContext:
    # fork keeps worker start-up at milliseconds and needs no re-import of
    # the (numpy-heavy) repro modules; fall back to the platform default
    # where fork is unavailable (the jobs are picklable either way).
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return mp.get_context()


def run_jobs(jobs: Sequence[Job], workers: int = 1) -> list[JobResult]:
    """Run ``jobs`` and return their results in submission order.

    ``workers=1`` executes in-process (no pickling, no subprocesses) —
    the exact serial path.  ``workers>1`` fans jobs across a process pool;
    ``Executor.map`` yields in submission order, so output is independent
    of completion order.  ``workers<=0`` means "one per core".

    Failures are captured per job (``ok=False`` + traceback text);
    :func:`unwrap_all` turns the first one into an exception.
    """
    if workers <= 0:
        workers = os.cpu_count() or 1
    # With an ambient recorder installed, every job records into its own
    # shard (even serially) and the shards are folded back here in
    # submission order — so the merged trace, like the results, is a pure
    # function of the job list at any worker count.
    parent_recorder = obs.RECORDER
    capacity = None if parent_recorder is None else parent_recorder.capacity
    payloads = [(index, job, capacity) for index, job in enumerate(jobs)]
    if workers == 1 or len(payloads) <= 1:
        outcomes = [_call(payload) for payload in payloads]
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(payloads)), mp_context=_pool_context()
        ) as pool:
            outcomes = list(pool.map(_call, payloads, chunksize=1))
    for _, doc in outcomes:
        if doc is not None:
            parent_recorder.absorb(doc)
    return [result for result, _ in outcomes]


def unwrap_all(results: Sequence[JobResult]) -> list[Any]:
    """Values of all results in order; raises on the first failed job."""
    return [r.unwrap() for r in results]


def timing_records(results: Sequence[JobResult]) -> list[dict]:
    """Per-job timing rows, JSON-ready — the ``jobs`` list every harness
    CLI writes under ``--timing-out``."""
    return [
        {
            "index": r.index,
            "label": r.label,
            "seconds": round(r.seconds, 6),
            "ok": r.ok,
        }
        for r in results
    ]
