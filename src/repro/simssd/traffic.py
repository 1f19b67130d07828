"""Per-category I/O traffic accounting.

Every device I/O is tagged with a :class:`TrafficKind` so the harness can
break down bandwidth and write volume the way the paper does: foreground
requests vs WAL vs flush vs compaction vs migration (Figs. 2, 3, 11).

Busy time is split into two components:

* **transfer** — ``bytes / bandwidth``; consumes the device's data channel
  and cannot be parallelized away on a single device;
* **latency** — per-command setup time; overlapping requests (more client
  or background threads) hide it.

The run-time model combines them as
``elapsed ≥ transfer + latency / concurrency``, which is what lets a single
compaction thread under-utilize a device while eight threads saturate it
(paper Fig. 3a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional


class TrafficKind(Enum):
    """Why an I/O was issued."""

    FOREGROUND = "foreground"   # client get/put/scan touching media directly
    WAL = "wal"                 # write-ahead-log appends
    FLUSH = "flush"             # memtable -> L1/L0 flushes
    COMPACTION = "compaction"   # LSM merge I/O
    MIGRATION = "migration"     # cross-tier demotion/promotion I/O
    GC = "gc"                   # slab / zone garbage collection
    SCRUB = "scrub"             # background integrity verification + repair

    __hash__ = object.__hash__  # singletons; ``Enum.__hash__`` is a frame per charge


#: Categories charged to background work in utilization breakdowns.
BACKGROUND_KINDS = (
    TrafficKind.FLUSH,
    TrafficKind.COMPACTION,
    TrafficKind.MIGRATION,
    TrafficKind.GC,
    TrafficKind.SCRUB,
)

#: Lanes omitted from snapshots while they carry zero traffic.  Scrubbing
#: is off by default, and an always-present all-zero lane would perturb
#: digests computed over snapshot keys (the CI-pinned ycsb_e2e digest
#: iterates every lane present); runs that never scrub must snapshot
#: exactly as before the lane existed.
_OMIT_IDLE_KINDS = frozenset({TrafficKind.SCRUB})


@dataclass(slots=True)
class _Lane:
    read_bytes: int = 0
    write_bytes: int = 0
    read_ios: int = 0
    write_ios: int = 0
    read_latency_s: float = 0.0
    read_transfer_s: float = 0.0
    write_latency_s: float = 0.0
    write_transfer_s: float = 0.0

    def clear(self) -> None:
        self.read_bytes = self.write_bytes = 0
        self.read_ios = self.write_ios = 0
        self.read_latency_s = self.read_transfer_s = 0.0
        self.write_latency_s = self.write_transfer_s = 0.0


@dataclass
class TrafficStats:
    """Byte / IO / busy-time totals for one device, split by category.

    With ``queue_count > 1`` the ledger additionally keeps one full lane
    set *per submission queue* plus a per-queue busy total.  The
    device-wide lanes stay authoritative (every aggregate, snapshot, and
    digest reads them); the queue ledgers are a pure refinement — summing
    a field across queues reproduces the device-wide field.  At the
    default ``queue_count=1`` no queue structures are allocated: the
    device-wide lanes are queue 0, so :meth:`queue_snapshot` and
    :meth:`queue_busy_seconds` report them as a one-element list.
    """

    lanes: Dict[TrafficKind, _Lane] = field(
        default_factory=lambda: {k: _Lane() for k in TrafficKind}
    )
    #: Running latency+transfer total across all lanes, kept incrementally
    #: so the per-op busy-time snapshots in the runner are O(1).
    _busy_s: float = 0.0
    #: Number of submission queues tracked (1 = classic single timeline).
    queue_count: int = 1
    #: Per-queue lane sets; ``None`` iff ``queue_count == 1``.
    _queue_lanes: Optional[List[Dict[TrafficKind, _Lane]]] = field(
        default=None, init=False, repr=False
    )
    #: Per-queue running busy totals; ``None`` iff ``queue_count == 1``.
    _queue_busy: Optional[List[float]] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.queue_count < 1:
            raise ValueError(f"queue_count must be >= 1, got {self.queue_count}")
        if self.queue_count > 1:
            self._queue_lanes = [
                {k: _Lane() for k in TrafficKind} for _ in range(self.queue_count)
            ]
            self._queue_busy = [0.0] * self.queue_count

    def note_read(
        self,
        kind: TrafficKind,
        nbytes: int,
        ios: int,
        latency_s: float,
        transfer_s: float,
        queue: int = 0,
    ) -> None:
        lane = self.lanes[kind]
        lane.read_bytes += nbytes
        lane.read_ios += ios
        lane.read_latency_s += latency_s
        lane.read_transfer_s += transfer_s
        self._busy_s += latency_s + transfer_s
        if self._queue_lanes is not None:
            qlane = self._queue_lanes[queue][kind]
            qlane.read_bytes += nbytes
            qlane.read_ios += ios
            qlane.read_latency_s += latency_s
            qlane.read_transfer_s += transfer_s
            self._queue_busy[queue] += latency_s + transfer_s

    def note_write(
        self,
        kind: TrafficKind,
        nbytes: int,
        ios: int,
        latency_s: float,
        transfer_s: float,
        queue: int = 0,
    ) -> None:
        lane = self.lanes[kind]
        lane.write_bytes += nbytes
        lane.write_ios += ios
        lane.write_latency_s += latency_s
        lane.write_transfer_s += transfer_s
        self._busy_s += latency_s + transfer_s
        if self._queue_lanes is not None:
            qlane = self._queue_lanes[queue][kind]
            qlane.write_bytes += nbytes
            qlane.write_ios += ios
            qlane.write_latency_s += latency_s
            qlane.write_transfer_s += transfer_s
            self._queue_busy[queue] += latency_s + transfer_s

    # ----------------------------------------------------------- aggregates

    def _select(self, kind: TrafficKind | None) -> list[_Lane]:
        if kind is not None:
            return [self.lanes[kind]]
        return list(self.lanes.values())

    def read_bytes(self, kind: TrafficKind | None = None) -> int:
        return sum(l.read_bytes for l in self._select(kind))

    def write_bytes(self, kind: TrafficKind | None = None) -> int:
        return sum(l.write_bytes for l in self._select(kind))

    def read_ios(self, kind: TrafficKind | None = None) -> int:
        return sum(l.read_ios for l in self._select(kind))

    def write_ios(self, kind: TrafficKind | None = None) -> int:
        return sum(l.write_ios for l in self._select(kind))

    def latency_seconds(self, kind: TrafficKind | None = None) -> float:
        return sum(l.read_latency_s + l.write_latency_s for l in self._select(kind))

    def transfer_seconds(self, kind: TrafficKind | None = None) -> float:
        return sum(l.read_transfer_s + l.write_transfer_s for l in self._select(kind))

    def busy_seconds(self, kind: TrafficKind | None = None) -> float:
        """Total device time consumed (latency + transfer), optionally per lane."""
        if kind is None:
            return self._busy_s
        return self.latency_seconds(kind) + self.transfer_seconds(kind)

    def background_busy_seconds(self) -> float:
        """Busy time from flush + compaction + migration + GC."""
        return sum(self.busy_seconds(k) for k in BACKGROUND_KINDS)

    def background_bytes(self) -> int:
        return sum(
            self.read_bytes(k) + self.write_bytes(k) for k in BACKGROUND_KINDS
        )

    def total_bytes(self) -> int:
        return self.read_bytes() + self.write_bytes()

    def queue_busy_seconds(self) -> List[float]:
        """Per-queue busy totals; ``[busy_seconds()]`` at ``queue_count=1``."""
        if self._queue_busy is None:
            return [self._busy_s]
        return list(self._queue_busy)

    @staticmethod
    def _lane_dict(lanes: Dict[TrafficKind, _Lane]) -> Dict[str, Dict[str, float]]:
        return {
            kind.value: {
                "read_bytes": lane.read_bytes,
                "write_bytes": lane.write_bytes,
                "read_ios": lane.read_ios,
                "write_ios": lane.write_ios,
                "read_latency_s": lane.read_latency_s,
                "read_transfer_s": lane.read_transfer_s,
                "write_latency_s": lane.write_latency_s,
                "write_transfer_s": lane.write_transfer_s,
            }
            for kind, lane in lanes.items()
            if not (
                kind in _OMIT_IDLE_KINDS
                and lane.read_ios == 0
                and lane.write_ios == 0
                and lane.read_bytes == 0
                and lane.write_bytes == 0
            )
        }

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """A plain-dict copy, for diffing run phases."""
        return self._lane_dict(self.lanes)

    def queue_snapshot(self) -> List[Dict[str, Dict[str, float]]]:
        """Per-queue plain-dict copies; ``[snapshot()]`` at ``queue_count=1``."""
        if self._queue_lanes is None:
            return [self.snapshot()]
        return [self._lane_dict(lanes) for lanes in self._queue_lanes]

    @staticmethod
    def diff(
        before: Dict[str, Dict[str, float]], after: Dict[str, Dict[str, float]]
    ) -> Dict[str, Dict[str, float]]:
        """``after - before`` per lane and field of two :meth:`snapshot`
        dicts.  A lane absent from ``before`` (an idle-omitted lane that woke
        up in between) counts from zero."""
        out = {}
        for lane, fields in after.items():
            base = before.get(lane, {})
            out[lane] = {fld: v - base.get(fld, 0) for fld, v in fields.items()}
        return out

    def reset(self) -> None:
        self._busy_s = 0.0
        for lane in self.lanes.values():
            lane.clear()
        if self._queue_lanes is not None:
            for lanes in self._queue_lanes:
                for lane in lanes.values():
                    lane.clear()
            self._queue_busy = [0.0] * self.queue_count
