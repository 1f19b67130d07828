"""Human-readable renderings of exported trace documents.

All renderers are pure functions of the trace doc (the
:meth:`~repro.obs.events.TraceRecorder.to_doc` /
:func:`~repro.obs.events.read_trace` shape) returning strings, so their
output is byte-stable for a given trace — the CLI layers on top and CI
can diff renderings across runs.
"""

from __future__ import annotations

from repro.obs.events import LANE_FIELDS

#: Canonical lane ordering (matches ``TrafficKind`` declaration order);
#: unknown lanes sort after these, alphabetically.
_LANE_ORDER = ("foreground", "wal", "flush", "compaction", "migration", "gc")

#: Glyph ramp for the timeline heat strips (space = no traffic).
_RAMP = " .:-=+*#%@"


def _lane_key(lane: str):
    try:
        return (0, _LANE_ORDER.index(lane))
    except ValueError:
        return (1, lane)


def _fmt_bytes(n: float) -> str:
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:,.1f}{unit}" if unit != "B" else f"{n:,.0f}B"
        n /= 1024.0
    return f"{n:,.1f}GiB"  # pragma: no cover - loop always returns


def summarize(doc: dict) -> str:
    """Totals view: event census, exact per-device per-lane traffic, phases."""
    header = doc.get("header", {})
    lines = ["== trace summary =="]
    lines.append(
        "events: {retained} retained / {total} emitted ({dropped} dropped)".format(
            retained=header.get("events", len(doc.get("events", ()))),
            total=header.get("total_events", len(doc.get("events", ()))),
            dropped=header.get("dropped", 0),
        )
    )
    counts = header.get("counts", {})
    if counts:
        lines.append("event counts:")
        for etype in sorted(counts):
            lines.append(f"  {etype:<24} {counts[etype]}")
    lane_totals = doc.get("lane_totals", {})
    if lane_totals:
        lines.append("lane totals (exact, aggregated outside the ring):")
        for dev in sorted(lane_totals):
            lines.append(f"  device {dev}:")
            for lane in sorted(lane_totals[dev], key=_lane_key):
                tot = lane_totals[dev][lane]
                lines.append(
                    f"    {lane:<11} read={_fmt_bytes(tot.get('read_bytes', 0)):>12}"
                    f" ({tot.get('read_ios', 0)} ios)"
                    f"  write={_fmt_bytes(tot.get('write_bytes', 0)):>12}"
                    f" ({tot.get('write_ios', 0)} ios)"
                )
    phases = doc.get("phases", ())
    if phases:
        lines.append("phases:")
        for phase in phases:
            total_rd = total_wr = 0
            for lanes in phase.get("traffic", {}).values():
                for tot in lanes.values():
                    total_rd += tot.get("read_bytes", 0)
                    total_wr += tot.get("write_bytes", 0)
            lines.append(
                f"  {phase.get('phase', '?'):<12}"
                f" read={_fmt_bytes(total_rd):>12}  write={_fmt_bytes(total_wr):>12}"
            )
    return "\n".join(lines)


def lane_totals_from_events(doc: dict) -> dict:
    """Recompute lane totals from the retained ``io`` events only.

    Equals ``doc['lane_totals']`` exactly when the ring never dropped;
    used by tests to cross-check the two accounting paths.
    """
    out: dict = {}
    for ev in doc.get("events", ()):
        if ev["type"] != "io":
            continue
        d = ev["data"]
        tot = out.setdefault(d["device"], {}).setdefault(
            d["lane"], dict.fromkeys(LANE_FIELDS, 0)
        )
        tot[f"{d['rw']}_bytes"] += d["bytes"]
        tot[f"{d['rw']}_ios"] += d["ios"]
    return out


def timeline(doc: dict, buckets: int = 24) -> str:
    """Per-device per-lane heat strips over simulated time.

    Buckets retained ``io`` events by timestamp; each strip cell shows
    relative byte volume in that simulated-time slice.  Events without a
    timestamp (clockless emitters) are excluded.
    """
    ios = [
        ev
        for ev in doc.get("events", ())
        if ev["type"] == "io" and ev.get("t") is not None
    ]
    if not ios:
        return "== timeline ==\n(no timestamped io events in the ring)"
    tmax = max(ev["t"] for ev in ios)
    width = tmax / buckets if tmax > 0 else 1.0
    # device -> lane -> list of per-bucket byte totals
    grid: dict = {}
    for ev in ios:
        d = ev["data"]
        idx = min(buckets - 1, int(ev["t"] / width)) if tmax > 0 else 0
        row = grid.setdefault(d["device"], {}).setdefault(d["lane"], [0] * buckets)
        row[idx] += d["bytes"]
    peak = max(max(row) for lanes in grid.values() for row in lanes.values())
    lines = [
        "== timeline ==",
        f"simulated span: 0.000000s .. {tmax:.6f}s across {buckets} buckets"
        f" (peak bucket {_fmt_bytes(peak)})",
    ]
    top = len(_RAMP) - 1
    for dev in sorted(grid):
        lines.append(f"device {dev}:")
        for lane in sorted(grid[dev], key=_lane_key):
            row = grid[dev][lane]
            strip = "".join(
                _RAMP[0 if v == 0 else max(1, round(v / peak * top))] for v in row
            )
            lines.append(f"  {lane:<11} |{strip}| {_fmt_bytes(sum(row))}")
    return "\n".join(lines)


def cascade(doc: dict) -> str:
    """Span tree from retained ``*_begin`` / ``*_end`` events.

    Shows how work nests — a memtable flush fanning out into per-level
    compaction rounds, a migration job into zone demotions.  Depth comes
    from the events themselves, so a ring-truncated prefix degrades to a
    forest rather than failing.
    """
    lines = ["== cascade =="]
    open_spans = 0
    for ev in doc.get("events", ()):
        etype = ev["type"]
        if etype.endswith("_begin"):
            name = etype[: -len("_begin")]
            detail = ", ".join(f"{k}={v}" for k, v in sorted(ev["data"].items()))
            stamp = f" @{ev['t']:.6f}s" if ev.get("t") is not None else ""
            lines.append("  " * ev["depth"] + f"+ {name}{stamp}" + (f" [{detail}]" if detail else ""))
            open_spans += 1
        elif etype.endswith("_end"):
            name = etype[: -len("_end")]
            detail = ", ".join(f"{k}={v}" for k, v in sorted(ev["data"].items()))
            stamp = f" @{ev['t']:.6f}s" if ev.get("t") is not None else ""
            lines.append("  " * ev["depth"] + f"- {name}{stamp}" + (f" [{detail}]" if detail else ""))
            open_spans = max(0, open_spans - 1)
    if len(lines) == 1:
        lines.append("(no span events in the ring)")
    return "\n".join(lines)


def diff(doc_a: dict, doc_b: dict, label_a: str = "A", label_b: str = "B") -> str:
    """Lane-total and event-census differences between two traces (B - A)."""
    lines = [f"== trace diff ({label_b} - {label_a}) =="]
    totals_a = doc_a.get("lane_totals", {})
    totals_b = doc_b.get("lane_totals", {})
    devices = sorted(set(totals_a) | set(totals_b))
    any_delta = False
    for dev in devices:
        lanes = sorted(
            set(totals_a.get(dev, {})) | set(totals_b.get(dev, {})), key=_lane_key
        )
        dev_lines = []
        for lane in lanes:
            ta = totals_a.get(dev, {}).get(lane, {})
            tb = totals_b.get(dev, {}).get(lane, {})
            deltas = {
                fld: tb.get(fld, 0) - ta.get(fld, 0)
                for fld in LANE_FIELDS
                if tb.get(fld, 0) != ta.get(fld, 0)
            }
            if deltas:
                pretty = ", ".join(f"{k}:{v:+,}" for k, v in deltas.items())
                dev_lines.append(f"    {lane:<11} {pretty}")
        if dev_lines:
            any_delta = True
            lines.append(f"  device {dev}:")
            lines.extend(dev_lines)
    counts_a = doc_a.get("header", {}).get("counts", {})
    counts_b = doc_b.get("header", {}).get("counts", {})
    count_lines = []
    for etype in sorted(set(counts_a) | set(counts_b)):
        delta = counts_b.get(etype, 0) - counts_a.get(etype, 0)
        if delta:
            count_lines.append(f"    {etype:<24} {delta:+}")
    if count_lines:
        any_delta = True
        lines.append("  event counts:")
        lines.extend(count_lines)
    if not any_delta:
        lines.append("  (traces agree on lane totals and event counts)")
    return "\n".join(lines)

