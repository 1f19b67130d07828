"""Multi-queue submission model for the simulated SSD.

Real NVMe devices expose many hardware submission queues; commands on
different queues proceed concurrently (sharing the media's bandwidth),
which is why placement papers (Multi-Queue SSD I/O Modeling, Keigo — see
PAPERS.md) argue that *queue concurrency*, not just bandwidth, should
drive background-job placement.  :class:`QueueConfig` is the knob object:
it gives a :class:`repro.simssd.device.SimDevice` ``queue_count``
independently tracked queues of depth ``queue_depth``.  The default is one
queue of depth 32: the classic single service timeline, with the device
ledger as its one queue.

Lane routing
------------

With more than one queue the device statically partitions its traffic
lanes:

* ``FOREGROUND`` and ``WAL`` — the latency-critical lanes — own queue 0
  exclusively;
* every background lane (``FLUSH``, ``COMPACTION``, ``MIGRATION``,
  ``GC``) shares the remaining queues ``1..queue_count-1``.

Which background queue a particular job lands on is decided at job start
by :meth:`repro.simssd.device.SimDevice.begin_background_job`, which
picks the least-busy eligible queue (deterministic tie-break: lowest
index).  That is the Keigo-style concurrency-aware placement primitive:
two compaction jobs started back to back land on *different* queues and
overlap, instead of serializing behind each other — and neither ever
shares a queue with foreground reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.simssd.traffic import TrafficKind

#: Lanes that own the dedicated foreground queue (queue 0) on a
#: multi-queue device.
FOREGROUND_QUEUE_KINDS = (TrafficKind.FOREGROUND, TrafficKind.WAL)


@dataclass(frozen=True)
class QueueConfig:
    """Queue geometry for one device.

    Parameters
    ----------
    queue_count:
        Number of submission queues (default 1).
    queue_depth:
        Commands a single queue can keep in flight.  Caps the effective
        concurrency a queue contributes to the run-time model, one queue
        or many: a queue never hides more latency than
        ``min(threads, queue_depth)`` overlapping commands can.

    Every queue runs the profile's latency curve; a queue-targeted health
    window (:class:`repro.health.HealthWindow` with ``queue`` set) is the
    one way to slow a single queue.
    """

    queue_count: int = 1
    queue_depth: int = 32

    def __post_init__(self) -> None:
        if self.queue_count < 1:
            raise ValueError(f"queue_count must be >= 1, got {self.queue_count}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")


def default_routing(queue_count: int) -> Dict[TrafficKind, Tuple[int, ...]]:
    """Eligible queue set per traffic lane.

    Single-queue devices route every lane to queue 0.  Multi-queue
    devices isolate foreground (queue 0) from background (queues 1+);
    background lanes are eligible for *all* background queues and the
    device picks per job.
    """
    if queue_count == 1:
        return {kind: (0,) for kind in TrafficKind}
    background = tuple(range(1, queue_count))
    return {
        kind: (0,) if kind in FOREGROUND_QUEUE_KINDS else background
        for kind in TrafficKind
    }
