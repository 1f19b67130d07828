"""Device health states.

A small, dependency-free vocabulary shared by the rest of the stack:
:mod:`repro.health.state` holds the :class:`HealthState` machine
(``HEALTHY`` / ``BROWNOUT`` / ``OFFLINE``) and :class:`HealthWindow`, the
seeded schedule entry that :class:`repro.simssd.faults.FaultPlan` carries
and :class:`repro.simssd.device.SimDevice` enforces.

This package deliberately imports nothing from ``repro.simssd`` or the
engines, so the fault layer can depend on it without cycles.
"""

from repro.health.state import HealthState, HealthWindow, resolve_health

__all__ = [
    "HealthState",
    "HealthWindow",
    "resolve_health",
]
