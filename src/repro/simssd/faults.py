"""Deterministic, seeded fault injection for the simulated SSD stack.

Real heterogeneous deployments treat transient I/O errors, torn writes, and
media corruption as first-class events.  This module models them without
giving up reproducibility: every fault decision comes from one seeded RNG,
so a given :class:`FaultPlan` produces the identical fault sequence on every
run — which is what lets the crash-consistency harness replay a failure and
what keeps CI green or red deterministically.

Fault classes
-------------

* **Transient I/O errors** — an individual read or write I/O fails but the
  device is fine.  :class:`repro.simssd.device.SimDevice` retries these under
  a :class:`RetryPolicy`, charging every failed attempt (plus backoff time)
  to the traffic ledger; only when retries are exhausted does
  :class:`repro.common.errors.TransientIOError` reach the engine.
* **Latent bit-flip corruption** — a page lands on media with flipped
  bit(s) while the write reports success, and no reader is warned: reads
  return the corrupt bytes and the engines' checksums (a tripping reader or
  a scrub pass) are what must catch it.
* **Crash points / torn writes** — power is lost after the Nth write I/O.
  The in-flight write persists only a seeded prefix of its bytes (a torn
  page write); all subsequent I/O raises
  :class:`repro.common.errors.PowerLossError` until the filesystem is
  frozen into a post-crash image
  (:meth:`repro.simssd.fs.SimFilesystem.post_crash_image`) or the injector
  is :meth:`rebooted <FaultInjector.reboot>`.

One injector may be shared by several devices (whole-node power loss): the
I/O counters then advance across all of them and a crash stops every device
at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.common.errors import PowerLossError
from repro.health.state import HealthState, HealthWindow, resolve_health


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults, fully determined by its fields.

    Parameters
    ----------
    seed:
        Seed for every probabilistic decision (error draws, torn fraction,
        latent flips and their bit positions).
    read_error_rate / write_error_rate:
        Per-I/O probability of a transient failure.
    fail_read_ios / fail_write_ios:
        Explicit 1-based I/O ordinals that fail transiently (in addition to
        the rates) — handy for targeting one exact I/O in a test.
    max_transient_faults:
        Optional cap on the total number of injected transient failures.
    latent_bitflip_rate:
        Probability of *latent* corruption per page a file append covers
        (per zone-slot write): it lands with flipped bit(s), the write
        reports success, no reader is warned — only checksums (a tripping
        reader or a scrub pass) can find it.  Drawn from an RNG stream
        independent of the transient-error / torn-write stream, so enabling
        latent faults never perturbs existing fault schedules.
    latent_burst_bits:
        Number of distinct bits flipped per latent corruption event
        (>= 1); models burst/multi-bit media errors.
    crash_after_write_io:
        Power loss fires on the Nth write I/O (1-based); that write is torn.
        ``None`` disables crashing.
    torn_write:
        When True (default) the crashing write persists a seeded prefix of
        its bytes; when False it persists fully before power dies (a clean
        barrier, useful to isolate torn-tail handling from plain loss).
    health_windows:
        Scheduled outage/brownout windows
        (:class:`repro.health.state.HealthWindow`), keyed on the injector's
        *global* I/O ordinal — sustained service degradation, as opposed to
        the one-shot faults above.  Devices consult :meth:`FaultInjector.
        health_of` before charging each I/O.
    """

    seed: int = 0
    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    fail_read_ios: frozenset[int] = field(default_factory=frozenset)
    fail_write_ios: frozenset[int] = field(default_factory=frozenset)
    max_transient_faults: Optional[int] = None
    latent_bitflip_rate: float = 0.0
    latent_burst_bits: int = 1
    crash_after_write_io: Optional[int] = None
    torn_write: bool = True
    health_windows: tuple[HealthWindow, ...] = ()

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "write_error_rate", "latent_bitflip_rate"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        if self.latent_burst_bits < 1:
            raise ValueError(
                f"latent_burst_bits must be >= 1, got {self.latent_burst_bits}"
            )
        if self.crash_after_write_io is not None and self.crash_after_write_io < 1:
            raise ValueError("crash_after_write_io is 1-based and must be >= 1")
        if not isinstance(self.health_windows, tuple):
            # Accept any iterable for convenience but store a hashable tuple
            # (the plan is frozen and often used as a value object).
            object.__setattr__(self, "health_windows", tuple(self.health_windows))


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan`.

    Devices consult the injector on every page I/O; files consult it when
    persisting payload bytes.  All counters are public so tests and the
    harness can assert exactly what was injected.
    """

    #: XOR'd into the seed of the latent-corruption RNG stream, keeping it
    #: independent of the main stream (same seed, different sequence).
    _LATENT_SEED_SALT = 0x5C12_AB1E

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan or FaultPlan()
        self._rng = random.Random(self.plan.seed)
        # Latent corruption draws from its own stream so existing plans'
        # fault sequences (and therefore every digest) are unchanged when
        # latent faults are off — and transient faults and torn writes are
        # unchanged when latent faults are *on*.
        self._latent_rng = (
            random.Random(self.plan.seed ^ self._LATENT_SEED_SALT)
            if self.plan.latent_bitflip_rate > 0.0
            else None
        )
        #: Total read / write I/O calls observed (1-based ordinals).
        self.read_ios = 0
        self.write_ios = 0
        #: Faults actually injected.
        self.transient_read_faults = 0
        self.transient_write_faults = 0
        self.latent_bitflips = 0
        #: True once the crash point fired; cleared only by :meth:`reboot`.
        self.crashed = False
        self._crash_fired = False

    # ------------------------------------------------------------- helpers

    @property
    def transient_faults(self) -> int:
        return self.transient_read_faults + self.transient_write_faults

    @property
    def total_ios(self) -> int:
        """Global I/O ordinal (reads + writes across all sharing devices).

        This is the clock that :attr:`FaultPlan.health_windows` are keyed
        on: traffic served by *any* device sharing this injector advances
        it, so an offline device's window ends exactly when the surviving
        tier has moved the scheduled amount of work.
        """
        return self.read_ios + self.write_ios

    def health_of(
        self, device_name: str, queue: Optional[int] = None
    ) -> tuple[HealthState, float]:
        """Peek the health the *next* I/O on ``device_name`` would see.

        Pure read: consumes no RNG, advances no counter, so engines can
        consult it to decide failover before attempting an I/O.  Returns
        ``(state, latency_multiplier)``.  ``queue=None`` resolves the
        device-wide windows; a queue index only the windows targeted at
        that submission queue, which the charge site composes
        multiplicatively with the device-wide value.
        """
        if not self.plan.health_windows:
            return HealthState.HEALTHY, 1.0
        return resolve_health(
            self.plan.health_windows, device_name, self.total_ios + 1, queue
        )

    def _budget_left(self) -> bool:
        cap = self.plan.max_transient_faults
        return cap is None or self.transient_faults < cap

    def check_power(self) -> None:
        """Raise :class:`PowerLossError` if the node already lost power."""
        if self.crashed:
            raise PowerLossError("device lost power", torn_fraction=0.0)

    def reboot(self) -> None:
        """Restore power after a crash (media state is whatever survived).

        The crash point is considered consumed: the plan will not crash
        again, but rates keep applying.
        """
        self.crashed = False

    # ------------------------------------------------------------ pulls

    def pull_read_fault(self) -> bool:
        """Account one read I/O; True means this attempt fails transiently."""
        self.check_power()
        self.read_ios += 1
        fail = self.read_ios in self.plan.fail_read_ios
        if not fail and self.plan.read_error_rate > 0.0:
            fail = self._rng.random() < self.plan.read_error_rate
        if fail and self._budget_left():
            self.transient_read_faults += 1
            rec = obs.RECORDER
            if rec is not None:
                # The injector has no clock, so fault events carry t=None.
                rec.emit("fault", rw="read", io=self.read_ios)
            return True
        return False

    def pull_write_fault(self) -> bool:
        """Account one write I/O; may raise :class:`PowerLossError`.

        Returns True when this attempt fails transiently.  When the plan's
        crash point is reached, the injector marks itself crashed and raises
        ``PowerLossError`` carrying the torn fraction for the in-flight
        write.
        """
        self.check_power()
        self.write_ios += 1
        crash_at = self.plan.crash_after_write_io
        if crash_at is not None and not self._crash_fired and self.write_ios >= crash_at:
            self.crashed = True
            self._crash_fired = True
            torn = self._rng.random() if self.plan.torn_write else 1.0
            rec = obs.RECORDER
            if rec is not None:
                rec.emit(
                    "crash", io=self.write_ios, torn_fraction=torn,
                    torn=self.plan.torn_write,
                )
            raise PowerLossError(
                f"power loss at write I/O #{self.write_ios}", torn_fraction=torn
            )
        fail = self.write_ios in self.plan.fail_write_ios
        if not fail and self.plan.write_error_rate > 0.0:
            fail = self._rng.random() < self.plan.write_error_rate
        if fail and self._budget_left():
            self.transient_write_faults += 1
            rec = obs.RECORDER
            if rec is not None:
                rec.emit("fault", rw="write", io=self.write_ios)
            return True
        return False

    # ------------------------------------------------------------ payloads

    def corrupt_payload(
        self, data: bytes, pages: Optional[list[tuple[int, int]]] = None
    ) -> bytes:
        """Return ``data``, possibly with seeded bit(s) flipped (on media).

        Latent flips (``latent_bitflip_rate``) draw from the latent stream
        once per ``(start, end)`` byte span in ``pages`` (default: the
        whole payload), flipping ``latent_burst_bits`` bits inside that
        span.
        """
        if data and self._latent_rng is not None:
            lrng = self._latent_rng
            out = bytearray(data)
            for lo, hi in pages or [(0, len(data))]:
                if lrng.random() >= self.plan.latent_bitflip_rate:
                    continue
                self.latent_bitflips += 1
                nbits = self.plan.latent_burst_bits
                flipped: set[tuple[int, int]] = set()
                while len(flipped) < min(nbits, (hi - lo) * 8):
                    pos = lrng.randrange(lo, hi)
                    bit = lrng.randrange(8)
                    if (pos, bit) in flipped:
                        continue
                    flipped.add((pos, bit))
                    out[pos] ^= 1 << bit
                rec = obs.RECORDER
                if rec is not None:
                    rec.emit(
                        "latent_bitflip", bits=len(flipped), nbytes=hi - lo
                    )
            data = bytes(out)
        return data

    def torn_prefix_len(self, nbytes: int, torn_fraction: float) -> int:
        """How many of ``nbytes`` persisted for a torn write."""
        if nbytes <= 0:
            return 0
        return min(nbytes, int(nbytes * torn_fraction))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultInjector(reads={self.read_ios}, writes={self.write_ios}, "
            f"transient={self.transient_faults}, "
            f"latent_bitflips={self.latent_bitflips}, "
            f"crashed={self.crashed})"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Retry-with-backoff for transient I/O errors.

    Attempt ``k`` (0-based) that fails is retried after
    ``backoff_base_s * multiplier**k`` seconds of simulated wall time, up to
    ``max_retries`` retries; every attempt's bytes and I/Os are charged to
    the traffic ledger as real traffic, so absorbed faults remain visible.
    """

    max_retries: int = 4
    backoff_base_s: float = 1e-4
    multiplier: float = 2.0

    def backoff_s(self, attempt: int) -> Optional[float]:
        """Backoff before retrying after failed attempt ``attempt`` (0-based).

        Returns ``None`` when the policy is exhausted and the error must
        surface as :class:`repro.common.errors.TransientIOError`.
        """
        if attempt >= self.max_retries:
            return None
        return self.backoff_base_s * (self.multiplier**attempt)
