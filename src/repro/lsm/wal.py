"""Write-ahead log with group commit.

The WAL sits on whichever device the engine's configuration assigns (NVMe in
the baselines, the performance tier by construction in HyperDB).  Writes are
staged and committed in groups: one ``append`` I/O per batch, which is how
RocksDB keeps write latency low (§4.2's discussion of group commit).

Crash tolerance: a crash can tear the last group commit, leaving a partial
record at the tail of the log.  :meth:`WriteAheadLog.replay` recovers every
complete record before the tear and reports the truncation instead of
raising — a partially-synced log is a recoverable log.
"""

from __future__ import annotations

from repro.common.records import Record
from repro.lsm.blocks import decode_prefix, encode_record
from repro.simssd.fs import SimFilesystem, SimFile
from repro.simssd.traffic import TrafficKind


class ReplayResult(list):
    """The records recovered by :meth:`WriteAheadLog.replay`.

    A plain ``list[Record]`` (oldest first) carrying recovery metadata:

    * ``truncated`` — True when a torn/corrupt tail was dropped;
    * ``valid_bytes`` — length of the clean prefix that decoded;
    * ``dropped_bytes`` — bytes discarded past the tear (0 when clean).
    """

    def __init__(
        self,
        records: list[Record],
        truncated: bool = False,
        valid_bytes: int = 0,
        dropped_bytes: int = 0,
    ) -> None:
        super().__init__(records)
        self.truncated = truncated
        self.valid_bytes = valid_bytes
        self.dropped_bytes = dropped_bytes


class WriteAheadLog:
    """An append-only log of records with batched (group) commits."""

    def __init__(
        self,
        fs: SimFilesystem,
        name: str = "wal",
        group_size: int = 32,
        reuse_existing: bool = False,
    ) -> None:
        if group_size <= 0:
            raise ValueError(f"group_size must be positive, got {group_size}")
        self._fs = fs
        self._name = name
        if reuse_existing and fs.exists(name):
            self._file: SimFile = fs.open(name)
        else:
            self._file = fs.create(name)
        self._group_size = group_size
        self._pending: list[bytes] = []
        self._synced_records = 0
        #: Cumulative records ever synced, across :meth:`reset` rotations.
        #: The crash harness uses this as the durability watermark: the
        #: first ``total_synced_records`` writes are guaranteed recoverable.
        self.total_synced_records = 0

    @property
    def size_bytes(self) -> int:
        return self._file.size

    @property
    def synced_records(self) -> int:
        return self._synced_records

    def append(self, rec: Record) -> float:
        """Stage a record; commits the group when it reaches ``group_size``.

        Returns the service time charged for this call (zero unless this
        append triggered a group commit).
        """
        self._pending.append(encode_record(rec))
        if len(self._pending) >= self._group_size:
            return self.sync()
        return 0.0

    def sync(self) -> float:
        """Force-commit any staged records.  Returns the service time.

        If the append I/O fails (transient error beyond retries, or power
        loss), no staged record is counted as synced: the callers' writes
        were never acknowledged as durable.
        """
        if not self._pending:
            return 0.0
        payload = b"".join(self._pending)
        count = len(self._pending)
        # Staged records are cleared only after the append succeeds, so a
        # failed group commit leaves them staged for the next sync attempt.
        _, service = self._file.append(payload, TrafficKind.WAL)
        self._pending.clear()
        self._synced_records += count
        self.total_synced_records += count
        return service

    def replay(self) -> ReplayResult:
        """Decode every recoverable record, oldest first (crash recovery).

        Tolerates a torn tail: recovery stops at the first truncated or
        structurally corrupt record and returns the clean prefix, with
        ``truncated`` set so callers can log/inspect the data loss.
        """
        data, _ = self._file.read(
            0, self._file.size, TrafficKind.FOREGROUND, sequential=True
        )
        records, consumed, truncated = decode_prefix(data)
        return ReplayResult(
            records,
            truncated=truncated,
            valid_bytes=consumed,
            dropped_bytes=len(data) - consumed,
        )

    def note_recovered(self, count: int) -> None:
        """Reset the synced counters after a tolerant replay re-adopted the
        log's clean prefix (``count`` records)."""
        self._synced_records = count
        self.total_synced_records = count

    def truncate_torn_tail(self, valid_bytes: int) -> None:
        """Cut the log back to its clean prefix after a tolerant replay,
        so post-recovery appends are not shadowed by the old tear."""
        self._file.truncate(valid_bytes)

    def reset(self) -> None:
        """Truncate the log after a successful memtable flush."""
        self._pending.clear()
        self._fs.delete(self._name)
        self._file = self._fs.create(self._name)
        self._synced_records = 0
