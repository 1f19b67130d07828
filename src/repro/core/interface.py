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
    # store in one call.  These defaults run :func:`each` over the scalar
    # methods, one call per op — the only batch path of the two RocksDB-like
    # baselines.  The tiered engines (``HyperDB``, ``PrismDBStore``) have no
    # scalar body: their ``put`` / ``get`` / ``delete`` are batches of one
    # through :class:`repro.core.tiered.TieredStore`'s loops, which keep the
    # same contract (DESIGN.md §11).
    #
    # ``busy_out``, when given, receives one tuple per op of cumulative
    # per-device busy seconds *after* that op, in ``devices()`` order —
    # the runner differences consecutive rows to attribute latency.
    # ``capture_errors=True`` converts a ``DeviceOfflineError`` on an op
    # (for reads also a ``CorruptionError``: a *detected* corrupt read
    # with no healthy copy left) into that op's result slot instead of
    # aborting the batch.

    def put_many(
        self, keys, values, busy_out=None, capture_errors=False
    ) -> list:
        """Batched :meth:`put`.  Returns per-op service seconds (or the
        captured exception in that op's slot)."""
        return each(
            self.put, zip(*paired_columns(keys, values)), DeviceOfflineError,
            capture_errors, busy_out, self.devices().values(),
        )

    def get_many(self, keys, busy_out=None, capture_errors=False) -> list:
        """Batched :meth:`get`.  Returns per-op ``(value_or_none,
        service_seconds)`` tuples (or the captured exception)."""
        return each(
            self.get, zip(keys), (DeviceOfflineError, CorruptionError),
            capture_errors, busy_out, self.devices().values(),
        )

    def delete_many(self, keys, busy_out=None, capture_errors=False) -> list:
        """Batched :meth:`delete`.  Returns per-op service seconds (or the
        captured exception in that op's slot)."""
        return each(
            self.delete, zip(keys), DeviceOfflineError, capture_errors,
            busy_out, self.devices().values(),
        )


def each(op, arg_rows, caught, capture_errors, busy_out=None, devices=()) -> list:
    """The per-op batch loop: ``op(*args)`` per row.  With
    ``capture_errors`` an op that raises ``caught`` leaves the exception in
    its slot instead of aborting the batch; ``busy_out``, when given, gets
    one row of ``devices``' busy seconds after each op."""
    out = []
    for args in arg_rows:
        try:
            out.append(op(*args))
        except caught as exc:
            if not capture_errors:
                raise
            out.append(exc)
        if busy_out is not None:
            busy_out.append(tuple(d.busy_seconds() for d in devices))
    return out
