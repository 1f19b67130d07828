"""Per-layer metrics read from the program: counters and span aggregates.

Every source is a named path in one of the two tables below.  A path that
no longer resolves gives ``None`` for its metric and one line in the
``unresolved`` list, never an error, so renaming a counter cannot break
the end-to-end gate.

Path grammar, from the store: segments separated by ``.``; a segment is an
attribute or a mapping key; ``name()`` calls it without arguments; ``*``
maps the rest of the path over an iterable and sums the results; ``len()``
takes the length; a trailing ``?`` gives 0 when only the last key is absent
(counters that the program creates on first use).

The units, directions and bounds of all metrics are in ``BENCHMARK.json``.
"""

from __future__ import annotations

import numpy as np

from bench import USER_LANES, lane_sum

_MISSING = object()


def resolve(root, path: str):
    """Follow ``path`` from ``root``; ``_MISSING`` if any step fails."""
    optional = path.endswith("?")
    segments = path.rstrip("?").split(".")
    return _walk(root, segments, optional)


def _walk(obj, segments, optional):
    for i, seg in enumerate(segments):
        if seg == "*":
            try:
                parts = [_walk(item, segments[i + 1 :], optional) for item in obj]
            except TypeError:
                return _MISSING
            if any(p is _MISSING for p in parts):
                return _MISSING
            return sum(parts)
        if seg == "len()":
            try:
                obj = len(obj)
            except TypeError:
                return _MISSING
            continue
        call = seg.endswith("()")
        name = seg[:-2] if call else seg
        last = i == len(segments) - 1
        if isinstance(obj, dict):
            if name not in obj:
                return 0 if optional and last else _MISSING
            obj = obj[name]
        else:
            obj = getattr(obj, name, _MISSING)
            if obj is _MISSING:
                return _MISSING
        if call:
            try:
                obj = obj()
            except Exception:
                return _MISSING
    return obj


def _ratio(num, den):
    return num / den if den else 0.0


#: (metric, engine that has the layer, paths, how to combine their values
#: or ``None`` for the one value as it is).  A metric of a layer the
#: workload's engine does not have is reported as 0.
STORE_COUNTERS = [
    ("hyperdb.nvme_hit_frac", "hyperdb",
     ["stats.snapshot().counters.nvme_hits?", "stats.snapshot().counters.gets?"], _ratio),
    ("hyperdb.sata_hit_frac", "hyperdb",
     ["stats.snapshot().counters.sata_hits?", "stats.snapshot().counters.gets?"], _ratio),
    ("hyperdb.staging_hits", "hyperdb",
     ["stats.snapshot().counters.staging_hits?"], None),
    ("hyperdb.promotions_staged", "hyperdb",
     ["stats.snapshot().counters.promotions_staged?"], None),
    ("hyperdb.cache_hit_frac", "hyperdb",
     ["cache.hits", "cache.misses"], lambda h, m: _ratio(h, h + m)),
    ("hyperdb.cache_evictions", "hyperdb", ["cache.evictions"], None),
    ("nvme.fill_frac", "hyperdb",
     ["performance_tier.fill_fraction()"], None),
    ("nvme.objects", "hyperdb", ["performance_tier.object_count()"], None),
    ("nvme.zones", "hyperdb",
     ["performance_tier.partitions.*.zones().len()"], None),
    ("hotness.memory_bytes", "hyperdb",
     ["performance_tier.partitions.*.tracker.memory_bytes"], None),
    ("migration.demotion_jobs", "hyperdb",
     ["migration.stats.demotion_jobs"], None),
    ("migration.demoted_objects", "hyperdb",
     ["migration.stats.demoted_objects"], None),
    ("migration.demoted_bytes", "hyperdb",
     ["migration.stats.demoted_bytes"], None),
    ("migration.promoted_objects", "hyperdb",
     ["migration.stats.promoted_objects"], None),
    ("semi.compactions", "hyperdb",
     ["capacity_tier.compactor.stats.compactions"], None),
    ("semi.full_compactions", "hyperdb",
     ["capacity_tier.compactor.stats.full_compactions"], None),
    # Useful-outcome ratio: records a compaction placed deeper than the
    # child level, out of all records it moved.
    ("semi.preemptive_frac", "hyperdb",
     ["capacity_tier.compactor.stats.preemptive_records",
      "capacity_tier.compactor.stats.normal_records"],
     lambda p, n: _ratio(p, p + n)),
    ("semi.compaction_write_bytes", "hyperdb",
     ["capacity_tier.compactor.stats.total_write_bytes()"], None),
    ("semi.compaction_read_bytes", "hyperdb",
     ["capacity_tier.compactor.stats.total_read_bytes()"], None),
    ("semi.space_amp", "hyperdb",
     ["capacity_tier.space_amplification()"], None),
    ("lsm.flushes", "rocksdb", ["tree.stats.snapshot().counters.flushes?"], None),
    ("lsm.compaction_write_bytes", "rocksdb",
     ["tree.compactor.stats.total_write_bytes()"], None),
    ("lsm.compaction_read_bytes", "rocksdb",
     ["tree.compactor.stats.total_read_bytes()"], None),
]

#: (metric, engine, span names or "prefix." of names, aggregate field).
SPAN_METRICS = [
    ("runner.self_s", None, ["runner.run"], "self_s"),
    ("hyperdb.put_many_self_s", "hyperdb", ["hyperdb.put_many", "hyperdb.put"], "self_s"),
    ("hyperdb.get_many_self_s", "hyperdb", ["hyperdb.get_many", "hyperdb.get"], "self_s"),
    ("hyperdb.scan_self_s", "hyperdb", ["hyperdb.scan"], "self_s"),
    ("nvme.collect_zone_self_s", "hyperdb", ["nvme.collect_zone"], "self_s"),
    ("nvme.collect_zone_calls", "hyperdb", ["nvme.collect_zone"], "calls"),
    ("migration.run_self_s", "hyperdb", ["migration.run"], "self_s"),
    ("migration.run_total_s", "hyperdb", ["migration.run"], "total_s"),
    ("semi.ingest_self_s", "hyperdb", ["semi.ingest"], "self_s"),
    ("semi.compact_self_s", "hyperdb", ["semi.compact"], "self_s"),
    ("semi.get_self_s", "hyperdb", ["semi.get"], "self_s"),
    ("semi.scan_self_s", "hyperdb", ["semi.scan"], "self_s"),
    ("simssd.charge_self_s", None,
     ["simssd.nvme.", "simssd.sata."], "self_s"),
    ("lsm.put_many_self_s", "rocksdb", ["lsm.put_many", "lsm.put"], "self_s"),
    ("lsm.get_many_self_s", "rocksdb", ["lsm.get_many", "lsm.get"], "self_s"),
]

OPS = ("read", "update", "insert", "scan")


def store_counters(store, engine: str, unresolved: list[str]) -> dict:
    """The (c) metrics that live on the store's objects."""
    out = {}
    for metric, layer_engine, paths, combine in STORE_COUNTERS:
        if layer_engine is not None and layer_engine != engine:
            out[metric] = 0.0
            continue
        values = [resolve(store, p) for p in paths]
        bad = [p for p, v in zip(paths, values) if v is _MISSING]
        if bad:
            out[metric] = None
            unresolved.extend(f"{metric}: path {p!r} does not resolve" for p in bad)
        else:
            out[metric] = float(combine(*values) if combine else values[0])
    return out


def span_metrics(aggregate: dict, missing: set, engine: str, unresolved: list[str]) -> dict:
    """The (t) metrics, from the traced repetition's span aggregate.

    A span name that never fired contributes 0: the boundary exists but
    this workload did not cross it.  A boundary ``instrument`` could not
    find (``missing``) makes its metric ``None``.
    """

    def matches(name: str, prefixes) -> bool:
        return any(name == p or (p.endswith(".") and name.startswith(p)) for p in prefixes)

    out = {}
    for metric, layer_engine, prefixes, what in SPAN_METRICS:
        if layer_engine is not None and layer_engine != engine:
            out[metric] = 0.0
        elif any(matches(name, prefixes) for name in missing):
            out[metric] = None
            unresolved.append(f"{metric}: a span boundary of {prefixes} is gone")
        else:
            out[metric] = float(
                sum(agg[what] for name, agg in aggregate.items() if matches(name, prefixes))
            )
    return out


def ledger_metrics(sim: dict, engine: str) -> dict:
    """The (c) metrics computable from the public traffic ledgers and the
    run's latency samples alone."""
    out = {"runner.sim_elapsed_s": sim["elapsed_s"]}
    for op in OPS:
        a = sim["samples"].get(op)
        for q in (50, 99):
            # 0 for an op type the workload's mix does not contain.
            out[f"runner.sim_{op}_p{q}_us"] = (
                float(np.percentile(a, q)) * 1e6 if a is not None else 0.0
            )
    busy = ["read_latency_s", "read_transfer_s", "write_latency_s", "write_transfer_s"]
    for dev, lanes in sim["traffic"].items():
        one = {dev: lanes}
        p = f"simssd.{dev}_"
        out[p + "fg_write_bytes"] = lane_sum(one, ["write_bytes"], lanes=USER_LANES)
        out[p + "fg_read_bytes"] = lane_sum(one, ["read_bytes"], lanes=USER_LANES)
        out[p + "bg_write_bytes"] = lane_sum(one, ["write_bytes"], exclude=USER_LANES)
        out[p + "bg_read_bytes"] = lane_sum(one, ["read_bytes"], exclude=USER_LANES)
        out[p + "write_ios"] = lane_sum(one, ["write_ios"])
        out[p + "read_ios"] = lane_sum(one, ["read_ios"])
        out[p + "busy_s"] = lane_sum(one, busy)
        out[p + "bg_busy_s"] = lane_sum(one, busy, exclude=USER_LANES)
        out[p + "used_bytes"] = float(sim["used_bytes"][dev])
    out["simssd.wal_write_bytes"] = lane_sum(sim["traffic"], ["write_bytes"], lanes=("wal",))
    out["lsm.flush_write_bytes"] = (
        lane_sum(sim["traffic"], ["write_bytes"], lanes=("flush",))
        if engine == "rocksdb" else 0.0
    )
    return out
