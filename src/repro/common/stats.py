"""Counters and latency histograms.

The benchmark harness reproduces the paper's throughput / median / P99 plots
from these.  :class:`LatencyHistogram` keeps raw samples in a compact numpy
buffer (geometrically grown) so percentiles are exact rather than bucketed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

import numpy as np


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class LatencyHistogram:
    """Stores raw latency samples and answers percentile queries.

    Samples are appended into a pre-allocated numpy array that doubles when
    full, keeping per-sample overhead to one float store.
    """

    def __init__(self, initial_capacity: int = 4096) -> None:
        # A zero-sized buffer can never grow by doubling (2*0 == 0):
        # record() would step past the end and record_many() would loop
        # forever, so clamp the starting capacity to at least one slot.
        self._buf = np.empty(max(1, initial_capacity), dtype=np.float64)
        self._n = 0

    def record(self, latency: float) -> None:
        if self._n == len(self._buf):
            self._buf = np.concatenate([self._buf, np.empty_like(self._buf)])
        self._buf[self._n] = latency
        self._n += 1

    def record_many(self, latencies: Iterable[float]) -> None:
        if isinstance(latencies, np.ndarray):
            # Take a private copy: ``merge`` hands in a live view of
            # another histogram's buffer, and growing or writing
            # self._buf must never alias or disturb it — this also makes
            # h.merge(h) well-defined.
            arr = latencies.astype(np.float64, copy=True).ravel()
        else:
            arr = np.asarray(list(latencies), dtype=np.float64)
        need = self._n + len(arr)
        while need > len(self._buf):
            self._buf = np.concatenate([self._buf, np.empty_like(self._buf)])
        self._buf[self._n : self._n + len(arr)] = arr
        self._n += len(arr)

    @property
    def count(self) -> int:
        return self._n

    def samples(self) -> np.ndarray:
        """A read-only view of the recorded samples."""
        view = self._buf[: self._n]
        view.flags.writeable = False
        return view

    def percentile(self, q: float) -> float:
        """Exact ``q``-th percentile (0-100) of the recorded samples."""
        if self._n == 0:
            return 0.0
        return float(np.percentile(self._buf[: self._n], q))

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        if self._n == 0:
            return 0.0
        return float(self._buf[: self._n].mean())

    def merge(self, other: "LatencyHistogram") -> None:
        """Append ``other``'s samples; ``other`` is never mutated or aliased."""
        self.record_many(other.samples())


@dataclass
class StatsRegistry:
    """A flat namespace of counters owned by one engine run."""

    counters: Dict[str, Counter] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def snapshot(self) -> Dict[str, Dict]:
        """A plain-dict view of every counter."""
        return {"counters": {name: c.value for name, c in self.counters.items()}}
