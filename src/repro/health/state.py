"""The device health-state machine and scheduled health windows.

A device is ``HEALTHY`` unless a :class:`HealthWindow` covering the current
I/O ordinal says otherwise.  Windows are keyed on the *shared* fault
injector's global I/O ordinal (``read_ios + write_ios``), not wall time:
the simulation has no independent clock, and the global ordinal advances on
every charged I/O of every device sharing the injector — so traffic served
by the surviving tier is exactly what ages an outage toward recovery, and
the whole schedule is deterministic for a given workload.

State semantics (enforced by :class:`repro.simssd.device.SimDevice`):

* ``HEALTHY`` — normal service.
* ``BROWNOUT`` — the device serves I/O, but every charge's latency and
  transfer time is scaled by the window's ``latency_multiplier`` (the
  slowdown is real ledger time, visible in traces and utilization).
* ``OFFLINE`` — every I/O is rejected with
  :class:`repro.common.errors.DeviceOfflineError` before anything is
  charged or any fault counter advances.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple


class HealthState(enum.Enum):
    """Service level of one simulated device."""

    HEALTHY = "healthy"
    BROWNOUT = "brownout"
    OFFLINE = "offline"


@dataclass(frozen=True)
class HealthWindow:
    """One scheduled degradation window for one device.

    Parameters
    ----------
    device:
        The :attr:`DeviceProfile.name` this window applies to.
    state:
        ``BROWNOUT`` or ``OFFLINE`` (a ``HEALTHY`` window would be a no-op
        and is rejected).
    start_io / end_io:
        Half-open interval of 1-based global I/O ordinals: the window is
        active for ordinals ``start_io <= n < end_io``.
    latency_multiplier:
        Brownout service-time scale factor (>= 1.0); ignored for
        ``OFFLINE`` windows.
    queue:
        ``None`` (default) degrades the whole device.  A queue index
        degrades only I/O routed to that submission queue of a
        multi-queue device: a queue-``BROWNOUT`` surcharges exactly the
        charges placed on that queue, a queue-``OFFLINE`` rejects only
        I/O bound for it, and the other queues keep serving at full
        speed.  Queue windows are resolved per-I/O (not pinned by a
        health epoch): they model per-queue service degradation rather
        than whole-device loss, so they never tear a multi-I/O mutation.
    """

    device: str
    state: HealthState
    start_io: int
    end_io: int
    latency_multiplier: float = 1.0
    queue: Optional[int] = None

    def __post_init__(self) -> None:
        if self.state is HealthState.HEALTHY:
            raise ValueError("a HEALTHY window is a no-op; schedule only degradations")
        if self.start_io < 1:
            raise ValueError(f"start_io is 1-based and must be >= 1, got {self.start_io}")
        if self.end_io <= self.start_io:
            raise ValueError(
                f"end_io must exceed start_io, got [{self.start_io}, {self.end_io})"
            )
        if self.latency_multiplier < 1.0:
            raise ValueError(
                f"latency_multiplier must be >= 1.0, got {self.latency_multiplier}"
            )
        if self.queue is not None and self.queue < 0:
            raise ValueError(f"queue index must be >= 0, got {self.queue}")

    def covers(self, io_ordinal: int) -> bool:
        return self.start_io <= io_ordinal < self.end_io


def resolve_health(
    windows: Iterable[HealthWindow],
    device: str,
    io_ordinal: int,
    queue: Optional[int] = None,
) -> Tuple[HealthState, float]:
    """Effective ``(state, latency_multiplier)`` for one device at one ordinal.

    ``OFFLINE`` dominates overlapping ``BROWNOUT`` windows; overlapping
    brownouts compound (their multipliers multiply), matching how stacked
    service degradations behave on real hardware.  Only windows whose
    ``queue`` equals ``queue`` participate: the default ``None`` resolves
    the *device-wide* windows, a queue index the windows targeted at that
    submission queue.  The charge site composes the two (a device
    brownout multiplies into every queue's charges).
    """
    state = HealthState.HEALTHY
    multiplier = 1.0
    for w in windows:
        if w.device != device or w.queue != queue or not w.covers(io_ordinal):
            continue
        if w.state is HealthState.OFFLINE:
            return HealthState.OFFLINE, 1.0
        state = HealthState.BROWNOUT
        multiplier *= w.latency_multiplier
    return state, multiplier
