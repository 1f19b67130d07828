"""Process-pool job scheduling with deterministic collection.

A :class:`Job` is a picklable top-level callable plus its arguments, an
optional per-job seed, and a label.  :func:`run_jobs` executes a list of
jobs either in-process (``workers=1`` — the exact serial code path) or
across a process pool, and always returns one :class:`JobResult` per job
*in submission order*, regardless of completion order.  Each result
carries the job's own wall-clock seconds (measured inside the worker,
excluding queue wait) and, on failure, the formatted traceback instead
of an exception — a 40-cell figure grid should report every broken cell,
not die on the first.

Determinism contract:

* the scheduler never reorders results — whatever a caller folds over
  them (a digest, a merged trace) sees job K after jobs ``0..K-1`` on
  every run at every worker count;
* a job's randomness must come only from its ``seed`` (or from seeds
  baked into its arguments); :func:`derive_seeds` turns one root seed
  into independent, stable per-job streams via
  :class:`numpy.random.SeedSequence`.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import multiprocessing as mp

import numpy as np

from repro import obs


@dataclass(frozen=True)
class Job:
    """One unit of independent work: callable + seed + label.

    ``fn`` must be picklable (a module-level function) when the pool runs
    with more than one worker.  When ``seed`` is not ``None`` it is passed
    to ``fn`` as a ``seed=`` keyword argument, making the job's RNG stream
    an explicit part of its identity.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    seed: Optional[int] = None
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


def derive_seeds(root_seed: int, n: int) -> list[int]:
    """``n`` independent 32-bit seeds derived deterministically from one root.

    Uses :class:`numpy.random.SeedSequence` spawning, so streams are
    statistically independent and stable across numpy versions — the same
    root always yields the same per-job seeds, on every host.
    """
    children = np.random.SeedSequence(root_seed).spawn(n)
    return [int(c.generate_state(1)[0]) for c in children]


def default_workers() -> int:
    """Worker count when the caller asks for "all cores"."""
    return max(1, os.cpu_count() or 1)


def _call(job: Job) -> tuple[float, bool, Any, str]:
    """Execute one job, timing just the call and capturing any failure."""
    kwargs = dict(job.kwargs)
    if job.seed is not None:
        kwargs["seed"] = job.seed
    t0 = time.perf_counter()
    try:
        value = job.fn(*job.args, **kwargs)
        return time.perf_counter() - t0, True, value, ""
    except Exception:
        return time.perf_counter() - t0, False, None, traceback.format_exc()


def _call_indexed(payload: tuple[int, Job]) -> tuple[int, float, bool, Any, str]:
    index, job = payload
    seconds, ok, value, error = _call(job)
    return index, seconds, ok, value, error


def _call_traced(job: Job) -> tuple[float, bool, Any, str, dict]:
    """Run one job under a fresh, private trace recorder.

    Returns the job outcome plus the exported trace shard.  Every traced
    job — serial or pooled — records into its own recorder, so the shards
    the scheduler absorbs (in submission order) are identical at any
    worker count.  The previous ambient recorder is restored afterwards,
    which on the serial path hands control back to the caller's recorder.
    """
    prev = obs.RECORDER
    capacity = prev.capacity if prev is not None else obs.DEFAULT_CAPACITY
    rec = obs.install(capacity=capacity)
    try:
        seconds, ok, value, error = _call(job)
    finally:
        obs.RECORDER = prev
    return seconds, ok, value, error, rec.to_doc()


def _call_traced_indexed(
    payload: tuple[int, Job]
) -> tuple[int, float, bool, Any, str, dict]:
    index, job = payload
    seconds, ok, value, error, doc = _call_traced(job)
    return index, seconds, ok, value, error, doc


def _pool_context() -> mp.context.BaseContext:
    # fork keeps worker start-up at milliseconds and needs no re-import of
    # the (numpy-heavy) repro modules; fall back to the platform default
    # where fork is unavailable (the jobs are picklable either way).
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return mp.get_context()


def run_jobs(
    jobs: Sequence[Job],
    workers: int = 1,
    raise_on_error: bool = False,
) -> list[JobResult]:
    """Run ``jobs`` and return their results in submission order.

    ``workers=1`` executes in-process (no pickling, no subprocesses) —
    the exact serial path.  ``workers>1`` fans jobs across a process pool;
    results are still collected by index, so output is independent of
    completion order.  ``workers<=0`` means "one per core".

    Failures are captured per job (``ok=False`` + traceback text) unless
    ``raise_on_error`` is set, in which case the first failed job (by
    submission order) raises after all jobs finish.
    """
    jobs = list(jobs)
    if workers <= 0:
        workers = default_workers()
    # With an ambient recorder installed, every job records into its own
    # shard (even serially) and the shards are folded back here in
    # submission order — so the merged trace, like the results, is a pure
    # function of the job list at any worker count.
    parent_recorder = obs.RECORDER
    traced = parent_recorder is not None
    trace_docs: list[Optional[dict]] = [None] * len(jobs)
    results: list[JobResult] = []
    if workers == 1 or len(jobs) <= 1:
        for index, job in enumerate(jobs):
            if traced:
                seconds, ok, value, error, doc = _call_traced(job)
                trace_docs[index] = doc
            else:
                seconds, ok, value, error = _call(job)
            results.append(
                JobResult(index, job.label, seconds, ok, value, error)
            )
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(jobs)), mp_context=_pool_context()
        ) as pool:
            by_index: dict[int, JobResult] = {}
            if traced:
                for index, seconds, ok, value, error, doc in pool.map(
                    _call_traced_indexed, list(enumerate(jobs)), chunksize=1
                ):
                    by_index[index] = JobResult(
                        index, jobs[index].label, seconds, ok, value, error
                    )
                    trace_docs[index] = doc
            else:
                for index, seconds, ok, value, error in pool.map(
                    _call_indexed, list(enumerate(jobs)), chunksize=1
                ):
                    by_index[index] = JobResult(
                        index, jobs[index].label, seconds, ok, value, error
                    )
        results = [by_index[i] for i in range(len(jobs))]
    if traced:
        for doc in trace_docs:
            if doc is not None:
                parent_recorder.absorb(doc)
    if raise_on_error:
        for r in results:
            r.unwrap()
    return results


def unwrap_all(results: Sequence[JobResult]) -> list[Any]:
    """Values of all results in order; raises on the first failed job."""
    return [r.unwrap() for r in results]


def timing_records(results: Sequence[JobResult]) -> list[dict]:
    """Per-job timing rows, JSON-ready (for CI artifacts)."""
    return [
        {
            "index": r.index,
            "label": r.label,
            "seconds": round(r.seconds, 6),
            "ok": r.ok,
        }
        for r in results
    ]
