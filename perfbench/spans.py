"""Host-time span recorder for the traced repetition.

Spans are recorded from outside the program: :func:`instrument` replaces
the coarse public layer boundaries with timing wrappers, as instance
attributes on the objects the benchmark itself built, so no class and no
file under ``src/`` changes.  A boundary that no longer exists is skipped
and its span name reported as missing, never an error.

Spans stay in memory in four parallel lists (name id, start, end, parent
index) and are written out once, when the run ends.  A layer's self time is
its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

#: Device calls are the one boundary every layer funnels through.
DEVICE_CALLS = (
    "write_pages",
    "read_pages",
    "write_pages_batch",
    "read_pages_batch",
    "write_bytes_io",
    "read_bytes_io",
)

#: Spans written per trace file; the per-name aggregate always covers all.
MAX_SPANS_WRITTEN = 200_000


class SpanRecorder:
    """In-memory spans with parent links."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = [-1]
        #: Span names whose boundary :func:`instrument` could not find.
        self.missing: set[str] = set()
        self._wrapped: list[tuple[object, str]] = []

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` as a span called ``name``."""
        inner = getattr(obj, attr, None)
        if not callable(inner):
            self.missing.add(name)
            return
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return inner(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        try:
            setattr(obj, attr, traced)
        except AttributeError:  # __slots__ without a __dict__
            self.missing.add(name)
        else:
            self._wrapped.append((obj, attr))

    def unwrap(self) -> None:
        """Remove every wrapper: the objects run their class's methods again."""
        for obj, attr in self._wrapped:
            delattr(obj, attr)
        self._wrapped.clear()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        ``total_s`` counts only spans that are not nested inside a span of
        the same name, so recursion does not count an interval twice.
        """
        n = len(self.start)
        if n == 0:
            return {}
        ids = np.asarray(self.name_id)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        outer = ~has_parent | (ids[np.where(has_parent, parent, 0)] != ids)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids[outer], weights=dur[outer], minlength=k)
        selfs = np.bincount(ids, weights=self_s, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(selfs[i]),
            }
            for i, name in enumerate(self.names)
        }

    def covered_s(self) -> float:
        """Wall time inside any span: the summed duration of root spans."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        return float(dur[np.asarray(self.parent) < 0].sum()) if len(dur) else 0.0

    def write(self, path, extra: dict) -> None:
        """Write the aggregate and the first ``MAX_SPANS_WRITTEN`` spans."""
        m = min(len(self.start), MAX_SPANS_WRITTEN)
        t0 = self.start[0] if self.start else 0.0
        doc = dict(extra)
        doc.update(
            spans_total=len(self.start),
            spans_written=m,
            aggregate=self.aggregate(),
            names=self.names,
            # One row per span: [name index, start s, end s, parent row].
            spans=[
                [self.name_id[i], round(self.start[i] - t0, 7),
                 round(self.end[i] - t0, 7), self.parent[i]]
                for i in range(m)
            ],
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def instrument(rec: SpanRecorder, engine: str, store, runner) -> None:
    """Wrap the layer boundaries of one freshly built store and runner."""
    rec.wrap(runner, "run", "runner.run")
    # The store-level calls are the engine's own layer: HyperDB's request
    # dispatch, or the classic LSM behind the RocksDB-like baseline.
    layer = "hyperdb" if engine == "hyperdb" else "lsm"
    for call in ("put_many", "get_many", "put", "get", "scan"):
        rec.wrap(store, call, f"{layer}.{call}")
    for dev_name, dev in store.devices().items():
        for call in DEVICE_CALLS:
            rec.wrap(dev, call, f"simssd.{dev_name}.{call}")
    if engine != "hyperdb":
        return
    # ``wrap`` on a ``None`` owner marks the span name as missing.
    rec.wrap(getattr(store, "migration", None), "run_if_needed", "migration.run")
    tier = getattr(store, "performance_tier", None)
    for partition in getattr(tier, "partitions", None) or [None]:
        rec.wrap(partition, "collect_zone", "nvme.collect_zone")
    cap = getattr(store, "capacity_tier", None)
    rec.wrap(cap, "ingest", "semi.ingest")
    rec.wrap(cap, "get", "semi.get")
    rec.wrap(cap, "scan", "semi.scan")
    rec.wrap(getattr(cap, "compactor", None), "maybe_compact", "semi.compact")
