"""The simulated SSD device.

A :class:`SimDevice` owns a page allocator and a traffic ledger.  It does not
store data itself — :class:`repro.simssd.fs.SimFilesystem` layers named files
with page payloads on top — but every page read/write/trim flows through the
device so that capacity and service-time accounting is exact.

A device may carry a :class:`repro.simssd.faults.FaultInjector`: every page
I/O then consults it.  Transient failures are retried under the device's
:class:`repro.simssd.faults.RetryPolicy` — each failed attempt is charged to
the traffic ledger exactly like a successful one (the bus moved the bytes),
plus the backoff delay — and only an exhausted policy surfaces a
:class:`repro.common.errors.TransientIOError`.  Injected power loss raises
:class:`repro.common.errors.PowerLossError` and freezes the device.

When the injector's plan schedules health windows
(:class:`repro.health.state.HealthWindow`), the device additionally
enforces them: during a ``BROWNOUT`` window every charge's latency and
transfer time is scaled by the window's multiplier (the slowdown is real
ledger time); during an ``OFFLINE`` window every I/O raises
:class:`repro.common.errors.DeviceOfflineError` *before* anything is
charged or any injector counter advances.  Health transitions observed by
the device are emitted as typed ``health`` obs events.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.common.errors import (
    DeviceOfflineError,
    OutOfSpaceError,
    RetryExhaustedError,
)
from repro.health.state import HealthState
from repro.simssd.faults import FaultInjector, RetryPolicy
from repro.simssd.profiles import DeviceProfile
from repro.simssd.queues import QueueConfig, default_routing
from repro.simssd.traffic import TrafficKind, TrafficStats


class _HealthEpoch:
    """Reusable context manager pinning a device's health for one operation.

    Multi-I/O mutations (semi-table merges, zone demotions, checkpoint
    images) are not prepared to lose the device halfway through: a health
    window opening between two charged writes would tear their on-media
    state.  An epoch evaluates health exactly once, at operation entry —
    an OFFLINE window rejects the whole operation *before any mutation*,
    and an observed BROWNOUT multiplier is pinned for the operation's
    duration.  Outages therefore begin and end at operation boundaries,
    never inside one; window boundary crossings take effect at the next
    epoch (or un-pinned single I/O).  Epochs nest — only the outermost
    consults the injector.
    """

    __slots__ = ("_device",)

    def __init__(self, device: "SimDevice") -> None:
        self._device = device

    def __enter__(self) -> "SimDevice":
        dev = self._device
        if dev._epoch_depth == 0 and dev._health_guarded:
            dev._pinned_health = dev._observe_health("begin", "epoch")
        dev._epoch_depth += 1
        return dev

    def __exit__(self, exc_type, exc, tb) -> bool:
        dev = self._device
        dev._epoch_depth -= 1
        if dev._epoch_depth == 0:
            dev._pinned_health = None
        return False


class SimDevice:
    """A page-granularity simulated SSD.

    Parameters
    ----------
    profile:
        The cost model and geometry for this device.
    injector:
        Optional fault injector consulted on every page I/O.  May be shared
        by several devices to model whole-node power loss.
    retry_policy:
        Backoff policy for injected transient errors (defaults to a small
        exponential policy; irrelevant when no injector is attached).
    queues:
        Optional :class:`repro.simssd.queues.QueueConfig` (default: one
        queue of depth 32).  Every lane of a one-queue device charges
        queue 0; ``queue_count > 1`` tracks per-queue ledgers, routes
        foreground and background lanes onto disjoint queues, and lets
        :meth:`begin_background_job` spread background jobs across the
        least-busy eligible queues.
    """

    def __init__(
        self,
        profile: DeviceProfile,
        injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        queues: Optional[QueueConfig] = None,
    ) -> None:
        self.profile = profile
        #: Plain attribute (the profile is immutable): ``page_size`` sits on
        #: every I/O charge, where a property lookup is measurable.
        self.page_size = profile.page_size
        self.queues = queues or QueueConfig()
        self.queue_count = self.queues.queue_count
        self.queue_depth = self.queues.queue_depth
        self.traffic = TrafficStats(queue_count=self.queue_count)
        #: Static eligible-queue sets per lane and the per-lane *current*
        #: queue (mutated by :meth:`begin_background_job`).
        self._lane_routes = default_routing(self.queue_count)
        self._lane_queue = {k: routes[0] for k, routes in self._lane_routes.items()}
        self.injector = injector
        #: True when the plan schedules *queue-targeted* health windows —
        #: those are resolved per-I/O on top of device-wide health.
        self._queue_guarded = injector is not None and any(
            w.queue is not None for w in injector.plan.health_windows
        )
        self.retry_policy = retry_policy or RetryPolicy()
        #: Extra I/O attempts issued because a transient fault was retried.
        self.retried_ios = 0
        #: I/Os rejected because the device was in an OFFLINE window.
        self.offline_rejections = 0
        #: I/Os served (and surcharged) inside BROWNOUT windows.
        self.brownout_ios = 0
        self._last_health = HealthState.HEALTHY
        #: True when health windows can apply to this device at all —
        #: precomputed so the hot I/O paths pay one attribute test when the
        #: feature is unused.
        self._health_guarded = (
            injector is not None and bool(injector.plan.health_windows)
        )
        #: With no injector (no faults, retries, crashes or health windows)
        #: and one queue (one ledger), a charge is exactly one lane update
        #: plus one addition.  The I/O paths collapse to that (identical
        #: float math) when this is set and no obs recorder wants events.
        self._fastpath = injector is None and self.queue_count == 1
        #: ``(state, multiplier)`` pinned by an open health epoch, else None.
        self._pinned_health: Optional[tuple[HealthState, float]] = None
        self._epoch_depth = 0
        #: Context manager bracketing one multi-I/O mutation: ``with
        #: dev.health_epoch: ...`` — offline rejects atomically at entry.
        self.health_epoch = _HealthEpoch(self)
        self._allocated_pages = 0

    @property
    def powered_off(self) -> bool:
        """True after an injected power loss (until reboot / reopen)."""
        return self.injector is not None and self.injector.crashed

    def check_power(self) -> None:
        if self.injector is not None:
            self.injector.check_power()

    # ------------------------------------------------------------- health

    def health(self) -> HealthState:
        """Health the next I/O would see.  Pure peek: no events, no RNG."""
        if not self._health_guarded:
            return HealthState.HEALTHY
        return self.injector.health_of(self.profile.name)[0]

    def _consult_health(self, rw: str, lane: str, queue: int = 0) -> float:
        """Health multiplier for one I/O; honours an open epoch's pin.

        Queue-targeted windows compose on top of device-wide health: a
        queue brownout multiplies into the device multiplier, and a
        queue-OFFLINE rejects the I/O (charging nothing) exactly like a
        device-wide outage — but only for I/O routed to that queue.
        Queue windows are never pinned by a health epoch: they model
        per-queue service degradation, not whole-device loss, so they are
        resolved fresh at every charge.
        """
        pinned = self._pinned_health
        if pinned is not None:
            mult = pinned[1]
        else:
            mult = self._observe_health(rw, lane)[1]
        if self._queue_guarded:
            qstate, qmult = self.injector.health_of(self.profile.name, queue)
            if qstate is HealthState.OFFLINE:
                self.offline_rejections += 1
                raise DeviceOfflineError(
                    f"device {self.profile.name!r} queue {queue} offline: "
                    f"{rw} rejected at global I/O "
                    f"#{self.injector.total_ios + 1} ({lane})"
                )
            mult *= qmult
        return mult

    # -------------------------------------------------------------- queues

    def queue_of(self, kind: TrafficKind) -> int:
        """The submission queue lane ``kind`` currently charges to."""
        return self._lane_queue[kind]

    def begin_background_job(self, kind: TrafficKind) -> int:
        """Place the next background job for ``kind`` on a queue.

        Picks the least-busy queue among the lane's eligible set (ties
        break to the lowest index, so placement is deterministic) and
        routes the lane's subsequent charges there until the next job
        begins.  On a single-queue device — or for the dedicated
        foreground lanes — this is a no-op returning the lane's fixed
        queue, so engines can call it unconditionally.
        """
        routes = self._lane_routes[kind]
        if len(routes) == 1:
            return routes[0]
        busy = self.traffic._queue_busy
        queue = min(routes, key=busy.__getitem__)
        self._lane_queue[kind] = queue
        rec = obs.RECORDER
        if rec is not None:
            rec.emit(
                "queue_route", t=self.traffic.busy_seconds(),
                device=self.profile.name, lane=kind.value, queue=queue,
            )
        return queue

    def _observe_health(self, rw: str, lane: str) -> tuple[HealthState, float]:
        """Enforce the current health window; returns ``(state, multiplier)``.

        Raises :class:`DeviceOfflineError` (charging nothing) when the
        device is OFFLINE.  Emits a ``health`` obs event whenever the state
        observed here differs from the last one observed, so traces show
        the transition at the I/O that first saw it.
        """
        state, mult = self.injector.health_of(self.profile.name)
        if state is not self._last_health:
            rec = obs.RECORDER
            if rec is not None:
                rec.emit(
                    "health", t=self.traffic.busy_seconds(),
                    device=self.profile.name, state=state.value,
                    prev=self._last_health.value,
                    io=self.injector.total_ios + 1,
                )
            self._last_health = state
        if state is HealthState.OFFLINE:
            self.offline_rejections += 1
            raise DeviceOfflineError(
                f"device {self.profile.name!r} offline: {rw} rejected at "
                f"global I/O #{self.injector.total_ios + 1} ({lane})"
            )
        return state, mult

    # -------------------------------------------------------------- space

    @property
    def capacity_bytes(self) -> int:
        return self.profile.capacity_bytes

    @property
    def allocated_pages(self) -> int:
        return self._allocated_pages

    @property
    def used_bytes(self) -> int:
        return self._allocated_pages * self.page_size

    @property
    def free_pages(self) -> int:
        return self.profile.num_pages - self._allocated_pages

    @property
    def fill_fraction(self) -> float:
        return self._allocated_pages / self.profile.num_pages

    def allocate(self, num_pages: int) -> None:
        """Reserve pages.  Raises :class:`OutOfSpaceError` when the device is full."""
        if num_pages < 0:
            raise ValueError(f"num_pages must be non-negative, got {num_pages}")
        if self._allocated_pages + num_pages > self.profile.num_pages:
            raise OutOfSpaceError(
                f"device {self.profile.name!r} out of space: requested "
                f"{num_pages} page(s), {self.free_pages} of "
                f"{self.profile.num_pages} free"
            )
        self._allocated_pages += num_pages

    def trim(self, num_pages: int) -> None:
        """Release pages back to the free pool.

        Over-trimming clamps at zero instead of underflowing: freeing paths
        that race a degraded rebuild (which already released everything)
        would otherwise corrupt the allocator on an innocent double-free.
        """
        if num_pages < 0:
            raise ValueError(f"cannot trim a negative page count ({num_pages})")
        self._allocated_pages = max(0, self._allocated_pages - num_pages)

    # ---------------------------------------------------------------- I/O

    def read_pages(
        self, num_pages: int, kind: TrafficKind, sequential: bool = False
    ) -> float:
        """Charge a read of ``num_pages`` pages; returns the service time.

        Injected transient failures are retried under :attr:`retry_policy`;
        every attempt (failed or not) is charged to the ledger.  Raises
        :class:`TransientIOError` when retries are exhausted.
        """
        if num_pages <= 0:
            return 0.0
        ios = 1 if sequential else num_pages
        latency = ios * self.profile.read_latency_s
        transfer = num_pages * self.page_size / self.profile.read_bandwidth
        if self._fastpath and obs.RECORDER is None:
            # Inlined ``traffic.note_read`` (identical field updates in the
            # same order): this is the single hottest call site in the
            # simulator, and the method dispatch is measurable.
            traffic = self.traffic
            lane = traffic.lanes[kind]
            lane.read_bytes += num_pages * self.page_size
            lane.read_ios += ios
            lane.read_latency_s += latency
            lane.read_transfer_s += transfer
            traffic._busy_s += latency + transfer
            return latency + transfer
        return self._charge_guarded(False, num_pages, kind, ios, latency, transfer)

    def write_pages(
        self, num_pages: int, kind: TrafficKind, sequential: bool = True
    ) -> float:
        """Charge a write of ``num_pages`` pages; returns the service time.

        Transient failures retry like :meth:`read_pages`.  An injected
        crash point raises :class:`repro.common.errors.PowerLossError`
        (never retried): the caller decides how much of the in-flight
        payload tore onto media.
        """
        if num_pages <= 0:
            return 0.0
        ios = 1 if sequential else num_pages
        latency = ios * self.profile.write_latency_s
        transfer = num_pages * self.page_size / self.profile.write_bandwidth
        if self._fastpath and obs.RECORDER is None:
            # Inlined ``traffic.note_write``; see read_pages.
            traffic = self.traffic
            lane = traffic.lanes[kind]
            lane.write_bytes += num_pages * self.page_size
            lane.write_ios += ios
            lane.write_latency_s += latency
            lane.write_transfer_s += transfer
            traffic._busy_s += latency + transfer
            return latency + transfer
        return self._charge_guarded(True, num_pages, kind, ios, latency, transfer)

    def _charge_guarded(
        self,
        write: bool,
        num_pages: int,
        kind: TrafficKind,
        ios: int,
        latency: float,
        transfer: float,
    ) -> float:
        """One read or write charge off the fast path (an injector, a
        recorder or more than one queue): the health multiplier, then the
        retry loop of :meth:`read_pages`, noting every attempt on the
        lane's current queue."""
        rw = "write" if write else "read"
        queue = self._lane_queue[kind]
        if self._health_guarded:
            mult = self._consult_health(rw, kind.value, queue)
            if mult != 1.0:
                latency *= mult
                transfer *= mult
                self.brownout_ios += ios
        nbytes = num_pages * self.page_size
        inj = self.injector
        if write:
            note = self.traffic.note_write
            pull_fault = inj.pull_write_fault if inj else None
        else:
            note = self.traffic.note_read
            pull_fault = inj.pull_read_fault if inj else None
        rec = obs.RECORDER
        service = 0.0
        backoff_total = 0.0
        attempt = 0
        while True:
            failed = pull_fault() if pull_fault else False
            note(kind, nbytes, ios, latency, transfer, queue=queue)
            service += latency + transfer
            if rec is not None:
                rec.io(
                    self.profile.name, kind.value, rw, nbytes, ios,
                    t=self.traffic.busy_seconds(),
                )
            if not failed:
                return service
            delay = self.retry_policy.backoff_s(attempt)
            if delay is None:
                raise RetryExhaustedError(
                    f"{rw} of {num_pages} page(s) failed after "
                    f"{attempt + 1} attempts on {self.profile.name!r} "
                    f"({backoff_total:.6f}s of backoff charged)",
                    attempts=attempt + 1,
                    total_backoff_s=backoff_total,
                )
            self.retried_ios += ios
            if rec is not None:
                rec.emit(
                    "retry_backoff", t=self.traffic.busy_seconds(),
                    device=self.profile.name, rw=rw, lane=kind.value,
                    attempt=attempt, backoff_s=delay,
                )
            service += delay
            backoff_total += delay
            attempt += 1

    def write_bytes_io(
        self, nbytes: int, kind: TrafficKind, sequential: bool = True
    ) -> float:
        """Charge a write of ``nbytes`` rounded up to whole pages."""
        return self.write_pages(-(-nbytes // self.page_size), kind, sequential)

    def read_bytes_io(self, nbytes: int, kind: TrafficKind) -> float:
        """Charge a random read of ``nbytes`` rounded up to whole pages."""
        return self.read_pages(-(-nbytes // self.page_size), kind)

    # --------------------------------------------------------- batch I/O
    #
    # No caller in ``src/``: every charge is made where its I/O happens,
    # one at a time (DESIGN.md §11).  The two names stay, as per-charge
    # loops, because ``perfbench/`` times one and wraps both.

    def write_pages_batch(
        self, page_counts: list[int], kind: TrafficKind, sequential: bool = True
    ) -> list[float]:
        """:meth:`write_pages` per element, in order; the service times."""
        return [self.write_pages(p, kind, sequential) for p in page_counts]

    def read_pages_batch(
        self, page_counts: list[int], kind: TrafficKind, sequential: bool = False
    ) -> list[float]:
        """:meth:`read_pages` per element, in order; the service times."""
        return [self.read_pages(p, kind, sequential) for p in page_counts]

    # ------------------------------------------------------------ metrics

    def busy_seconds(self) -> float:
        """Total service time this device has performed."""
        return self.traffic.busy_seconds()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimDevice({self.profile.name}, "
            f"{self.used_bytes / 2**20:.1f}/{self.capacity_bytes / 2**20:.1f} MiB)"
        )
