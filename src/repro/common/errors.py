"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class KeyNotFoundError(ReproError, KeyError):
    """A point lookup failed to find the requested key."""


class CapacityError(ReproError):
    """A device or tier ran out of space and could not reclaim enough."""


class OutOfSpaceError(CapacityError):
    """A page allocation could not be satisfied by the device's free pool.

    The message always names the device, the requested page count, and the
    pages still free, so the failing allocation is diagnosable from the
    error alone.  Subclasses :class:`CapacityError` so existing callers
    that degrade on capacity pressure keep working.
    """


class DeviceOfflineError(ReproError):
    """An I/O was rejected because the device is in an OFFLINE health window.

    Nothing was charged to the traffic ledger (the bus moved no bytes) and
    no fault-injector counter advanced.  Engines with a failover policy
    catch this and serve from the surviving tier; callers without one see
    honest unavailability instead of silently stale data.
    """


class CorruptionError(ReproError):
    """On-media data failed a structural or checksum validation.

    Raised when a block checksum mismatches, a record header is truncated,
    or a checkpoint fails its CRC — i.e. the bytes read back are not the
    bytes that were written.  Callers that can degrade gracefully (table
    quarantine, checkpoint rebuild) catch this; it is never retried, since
    re-reading corrupt media returns the same corrupt bytes.
    """

    #: The table whose block failed, when its reader names it (an LSM
    #: merge quarantines that input and merges again without it).
    source = None


class TransientIOError(ReproError):
    """A device I/O failed transiently (injected or modeled media hiccup).

    Raised by :class:`repro.simssd.device.SimDevice` only after the
    configured :class:`repro.simssd.faults.RetryPolicy` is exhausted; each
    failed attempt is still charged to the traffic ledger.  Distinct from
    :class:`CorruptionError`: retrying a transient error can succeed.
    """


class RetryExhaustedError(TransientIOError):
    """A transient-error retry policy ran out of retries.

    Subclasses :class:`TransientIOError`, so every existing handler keeps
    working; what it adds is attribution: ``attempts`` is the total number
    of I/O attempts issued (initial try + retries) and
    ``total_backoff_s`` is the simulated backoff time already charged to
    the traffic ledger across those attempts — the caller can surface
    *how much* the device struggled before giving up, not just that it
    did.
    """

    def __init__(
        self, message: str, attempts: int = 0, total_backoff_s: float = 0.0
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.total_backoff_s = total_backoff_s


class PowerLossError(ReproError):
    """The simulated device lost power (an injected crash point).

    The write in flight when power is lost may be torn: only a prefix of
    its bytes reach media.  ``torn_fraction`` is the fraction persisted
    (1.0 = fully durable, 0.0 = nothing).  After power loss every further
    I/O on the device raises this error until the post-crash image is
    reopened (or the injector is rebooted).
    """

    def __init__(self, message: str, torn_fraction: float = 0.0) -> None:
        super().__init__(message)
        self.torn_fraction = torn_fraction


class RecoveryError(ReproError):
    """Recovery could not restore a usable, consistent engine state.

    Raised when a partition is asked to recover without any checkpoint, or
    when a strict recovery finds corrupt metadata and degraded rebuild was
    disallowed.  Non-strict recovery paths catch the underlying
    :class:`CorruptionError` and rebuild degraded instead of raising this.
    """


class ClosedError(ReproError):
    """An operation was attempted on a closed store, file, or device."""


class ConfigError(ReproError, ValueError):
    """A configuration value is invalid or inconsistent."""
