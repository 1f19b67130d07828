"""Phase-scoped metric windows over ``TrafficStats`` / ``StatsRegistry``.

Benchmarks and the fault harness care about *phase deltas* — what the load
phase wrote vs what the run phase wrote vs what recovery replayed — not
end-of-process totals.  :class:`MetricScope` makes those windows first-class:
it snapshots every device's traffic ledger (and optionally a
:class:`repro.common.stats.StatsRegistry`) on entry, diffs on exit, and
publishes the delta report both on itself and into the ambient trace
recorder (when one is installed) as a ``phase`` record.

Like every part of :mod:`repro.obs`, entering or exiting a scope consumes
no RNG and moves no simulated time — it only reads counters.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional


class MetricScope:
    """Context manager measuring one named phase of a run.

    Parameters
    ----------
    name:
        Phase label (``"load"``, ``"run"``, ``"recovery"``, ...).
    devices:
        Mapping of device name to an object with a ``.traffic``
        :class:`~repro.simssd.traffic.TrafficStats` (a ``SimDevice``).
    registry:
        Optional :class:`~repro.common.stats.StatsRegistry`; its counter
        deltas are included in the report.
    recorder:
        Explicit :class:`~repro.obs.events.TraceRecorder` to publish into;
        defaults to the ambient ``repro.obs.RECORDER`` at exit time.

    After the ``with`` block, :attr:`report` holds the JSON-safe delta.
    """

    def __init__(
        self,
        name: str,
        devices: Mapping[str, object],
        registry=None,
        recorder=None,
    ) -> None:
        self.name = name
        self.devices = dict(devices)
        self.registry = registry
        self.recorder = recorder
        self.report: Optional[dict] = None
        self._traffic_before: Dict[str, dict] = {}
        self._counters_before: Dict[str, int] = {}

    def __enter__(self) -> "MetricScope":
        self._traffic_before = {
            name: dev.traffic.snapshot() for name, dev in self.devices.items()
        }
        if self.registry is not None:
            self._counters_before = {
                name: c.value for name, c in self.registry.counters.items()
            }
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        traffic = {
            name: dev.traffic.diff(
                self._traffic_before[name], dev.traffic.snapshot()
            )
            for name, dev in self.devices.items()
        }
        report = {"phase": self.name, "traffic": traffic}
        if self.registry is not None:
            report["counters"] = {
                name: c.value - self._counters_before.get(name, 0)
                for name, c in self.registry.counters.items()
            }
        self.report = report
        rec = self.recorder
        if rec is None:
            from repro import obs

            rec = obs.RECORDER
        if rec is not None:
            rec.note_phase(report)
