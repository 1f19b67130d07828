"""Zero-cost-when-off tracing and phase metrics (the observability layer).

Instrumented code throughout the stack (``SimDevice``, the LSM engines,
the migration scheduler, the fault injector, the workload runner) emits
typed events into one *ambient* recorder::

    from repro import obs
    ...
    rec = obs.RECORDER
    if rec is not None:
        rec.io("nvme", "compaction", "write", nbytes, ios, t=busy_s)

When no recorder is installed (the default), every instrumentation site
is a single global load and a falsy check — no allocation, no branches
into tracing code — so untraced runs are byte-identical to pre-obs runs.

Hard invariants (see DESIGN.md, enforced by tests and CI digests):

* tracing never consumes RNG streams;
* tracing never advances simulated time (timestamps are *reads* of
  device busy-time);
* sharded traces fold deterministically in job submission order
  (:meth:`~repro.obs.events.TraceRecorder.absorb`, called by
  :func:`repro.parallel.run_jobs`), so ``--trace-out`` output is
  identical at any ``--workers`` count.

Typical harness usage::

    with obs.recording() as rec:
        ... run workload ...
        rec.export_jsonl("trace.jsonl")
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.events import (
    DEFAULT_CAPACITY,
    TraceEvent,
    TraceRecorder,
    events_of,
    read_trace,
)
from repro.obs.metrics import MetricScope

__all__ = [
    "DEFAULT_CAPACITY",
    "MetricScope",
    "RECORDER",
    "TraceEvent",
    "TraceRecorder",
    "events_of",
    "install",
    "read_trace",
    "recording",
    "uninstall",
]

#: The ambient recorder. ``None`` means tracing is off (the default); hot
#: paths read this exactly once per instrumented call.
RECORDER: Optional[TraceRecorder] = None


def install(
    recorder: Optional[TraceRecorder] = None, capacity: int = DEFAULT_CAPACITY
) -> TraceRecorder:
    """Make ``recorder`` (or a fresh one) the ambient recorder."""
    global RECORDER
    if recorder is None:
        recorder = TraceRecorder(capacity=capacity)
    RECORDER = recorder
    return recorder


def uninstall() -> Optional[TraceRecorder]:
    """Turn tracing off; returns the recorder that was installed, if any."""
    global RECORDER
    recorder, RECORDER = RECORDER, None
    return recorder


@contextmanager
def recording(
    capacity: int = DEFAULT_CAPACITY, recorder: Optional[TraceRecorder] = None
) -> Iterator[TraceRecorder]:
    """Install a recorder for the duration of the ``with`` block."""
    rec = install(recorder, capacity=capacity)
    try:
        yield rec
    finally:
        global RECORDER
        if RECORDER is rec:
            RECORDER = None
