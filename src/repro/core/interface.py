"""The store interface every engine (HyperDB and all baselines) implements.

Service times returned by each operation are *simulated seconds* of device
work on the operation's critical path; the workload runner combines them
with the concurrency model to produce latency and throughput figures.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.common.errors import CorruptionError, DeviceOfflineError
from repro.common.records import paired_columns
from repro.simssd.device import SimDevice


class KVStore(abc.ABC):
    """Abstract tiered key-value store."""

    #: Human-readable engine name used in benchmark tables.
    name: str = "kvstore"

    @abc.abstractmethod
    def put(self, key: bytes, value: bytes) -> float:
        """Insert or update.  Returns foreground service seconds."""

    @abc.abstractmethod
    def get(self, key: bytes) -> tuple[Optional[bytes], float]:
        """Point lookup.  Returns ``(value_or_none, service_seconds)``."""

    @abc.abstractmethod
    def delete(self, key: bytes) -> float:
        """Delete a key.  Returns foreground service seconds."""

    @abc.abstractmethod
    def scan(self, start: bytes, count: int) -> tuple[list[tuple[bytes, bytes]], float]:
        """Range scan.  Returns ``(pairs, service_seconds)``."""

    @abc.abstractmethod
    def devices(self) -> dict[str, SimDevice]:
        """The simulated devices backing this store, keyed by tier name."""

    def finalize(self) -> None:
        """Flush asynchronous state (end-of-run barrier).  Optional."""

    # ------------------------------------------------------- batched ops
    #
    # Batched variants carry a whole slice of the workload through the
    # store in one call.  These defaults are the guarded path — one scalar
    # call per op, so health-window boundaries land between ops — and the
    # only path of every baseline.  ``HyperDB`` alone overrides
    # ``put_many``/``get_many`` with fused loops for unguarded devices and
    # falls back to these under an injector, admission control, or
    # ``capture_errors``.  Results are bit-identical either way (same call
    # order, same float accumulation).
    #
    # ``busy_out``, when given, receives one tuple per op of cumulative
    # per-device busy seconds *after* that op, in ``devices()`` order —
    # the runner differences consecutive rows to attribute latency.
    # ``capture_errors=True`` converts a ``DeviceOfflineError`` on an op
    # (for reads also a ``CorruptionError``: a *detected* corrupt read
    # with no healthy copy left) into that op's result slot instead of
    # aborting the batch.

    def _each(self, op, arg_rows, caught, busy_out, capture_errors) -> list:
        """The guarded loop: ``op(*args)`` per row, one busy row per op."""
        devs = list(self.devices().values()) if busy_out is not None else None
        out = []
        for args in arg_rows:
            try:
                out.append(op(*args))
            except caught as exc:
                if not capture_errors:
                    raise
                out.append(exc)
            if devs is not None:
                busy_out.append(tuple(d.busy_seconds() for d in devs))
        return out

    def put_many(
        self, keys, values, busy_out=None, capture_errors=False
    ) -> list:
        """Batched :meth:`put`.  Returns per-op service seconds (or the
        captured exception in that op's slot)."""
        return self._each(
            self.put, zip(*paired_columns(keys, values)), DeviceOfflineError,
            busy_out, capture_errors,
        )

    def get_many(self, keys, busy_out=None, capture_errors=False) -> list:
        """Batched :meth:`get`.  Returns per-op ``(value_or_none,
        service_seconds)`` tuples (or the captured exception)."""
        return self._each(
            self.get, zip(keys), (DeviceOfflineError, CorruptionError),
            busy_out, capture_errors,
        )

    def delete_many(self, keys, busy_out=None, capture_errors=False) -> list:
        """Batched :meth:`delete`.  Returns per-op service seconds (or the
        captured exception in that op's slot)."""
        return self._each(
            self.delete, zip(keys), DeviceOfflineError, busy_out, capture_errors
        )
