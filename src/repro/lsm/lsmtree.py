"""The leveled LSM-tree engine.

This is a complete single-node LSM key-value store over simulated devices:
WAL → memtable → L0 flush → leveled compaction.  It powers the RocksDB-like
baselines directly and (with ``first_level=1``) PrismDB's SATA tree.
HyperDB's capacity tier is :class:`repro.lsm.semi.SemiLevels`, not this.

A flush, an ingested batch and a compaction install their sorted run
through one step (:meth:`LeveledCompactor.install`), and every reader of
a table — a get, a scan, a merge — quarantines it when a block fails its
checksum.

Tier placement follows RocksDB's ``db_paths``: each path is a filesystem plus
a byte budget, and levels are assigned greedily to the first path whose
remaining budget covers the level's target size — reproducing the paper's
observation (§2.3) that a level cannot span storage tiers and that capacity
use of the fast path is therefore coarse-grained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro import obs
from repro.common.bloom import KeyHashes
from repro.common.cache import LRUCache
from repro.common.errors import ConfigError, CorruptionError, ReproError
from repro.common.records import Record
from repro.common.stats import StatsRegistry
from repro.lsm.compaction import LeveledCompactor
from repro.lsm.blocks import Entry, entry_of
from repro.lsm.iterator import keyed, merge_records
from repro.lsm.manifest import (
    MANIFEST_PREFIX,
    HandleMeta,
    ManifestStore,
    TableMeta,
    bloom_from_meta,
)
from repro.lsm.memtable import MemTable
from repro.lsm.sstable import BlockHandle, SSTable
from repro.lsm.version import Version
from repro.lsm.wal import GROUP, WriteAheadLog
from repro.simssd.fs import SimFilesystem
from repro.simssd.traffic import TrafficKind

KiB = 1024
MiB = 1024 * KiB


@dataclass
class LSMOptions:
    """Tuning knobs, with defaults scaled 1/1024 from the paper's RocksDB
    settings (64 MB SSTables, 64 MB memtable)."""

    memtable_bytes: int = 64 * KiB
    table_size_bytes: int = 64 * KiB
    block_size: int = 4 * KiB
    num_levels: int = 7
    first_level: int = 0
    level0_trigger: int = 4
    level_base_bytes: int = 256 * KiB
    level_multiplier: int = 10
    wal_group_size: int = GROUP
    wal_enabled: bool = True
    #: Persist version metadata (a RocksDB-style MANIFEST) after every
    #: flush/compaction so the tree can be reopened from a post-crash image.
    #: Off by default: the paper's benchmark configuration does not model
    #: metadata journaling, and manifest writes are real charged I/O.
    manifest_enabled: bool = False

    def __post_init__(self) -> None:
        if self.memtable_bytes <= 0 or self.table_size_bytes <= 0:
            raise ConfigError("memtable and table sizes must be positive")
        if self.level_multiplier < 2:
            raise ConfigError("level multiplier must be >= 2")
        if self.first_level not in (0, 1):
            raise ConfigError("first_level must be 0 or 1")


@dataclass
class DbPath:
    """One entry of a RocksDB-style ``db_paths`` configuration."""

    fs: SimFilesystem
    target_bytes: int


@dataclass
class RecoveryReport:
    """What :meth:`LSMTree.reopen` found and did."""

    tables_recovered: int = 0
    wal_records_replayed: int = 0
    wal_truncated: bool = False
    wal_dropped_bytes: int = 0
    leaked_files_removed: int = 0
    manifest_found: bool = False
    notes: list[str] = field(default_factory=list)


class LSMTree:
    """A leveled LSM-tree key-value store.

    Parameters
    ----------
    paths:
        One or more :class:`DbPath`.  Levels are placed on paths in order,
        by cumulative target size, like RocksDB's ``db_paths``.
    options:
        Engine tuning.
    cache:
        Optional shared block LRU (DRAM page cache).
    """

    def __init__(
        self,
        paths: list[DbPath] | SimFilesystem,
        options: Optional[LSMOptions] = None,
        cache: Optional[LRUCache] = None,
        recover_existing: bool = False,
    ) -> None:
        if isinstance(paths, SimFilesystem):
            paths = [DbPath(paths, target_bytes=1 << 62)]
        if not paths:
            raise ConfigError("at least one db path is required")
        self.paths = paths
        self.options = options or LSMOptions()
        self.cache = cache
        self.stats = StatsRegistry()

        opts = self.options
        self.version = Version(opts.num_levels, first_level=opts.first_level)
        self._level_paths = self._assign_levels_to_paths()
        self._table_seq = 0
        self._manifest = (
            ManifestStore(paths[0].fs) if opts.manifest_enabled else None
        )
        #: Tables pulled from service after a block failed its checksum.
        #: Their files are kept on media for forensics but never read again.
        self.quarantined: list[SSTable] = []
        #: Every key is hashed once for the tree's lifetime: flushes and
        #: compactions build blooms through the memo, and a get probes its
        #: candidate tables with one hash pair.
        self.key_hashes = KeyHashes()
        self.compactor = LeveledCompactor(
            self.version,
            self.fs_for_level,
            self._next_table_id,
            table_size_bytes=opts.table_size_bytes,
            block_size=opts.block_size,
            level0_trigger=opts.level0_trigger,
            level_base_bytes=opts.level_base_bytes,
            level_multiplier=opts.level_multiplier,
            on_install=self._write_manifest,
            quarantine=self._quarantine,
            key_hashes=self.key_hashes,
        )

        self._seqno = 0
        self._memtable = MemTable(opts.memtable_bytes)
        self._immutables: list[MemTable] = []
        self.wal = (
            WriteAheadLog(
                paths[0].fs,
                name="wal",
                group_size=opts.wal_group_size,
                reuse_existing=recover_existing,
            )
            if opts.wal_enabled
            else None
        )
        #: Populated by :meth:`reopen`.
        self.recovery_report: Optional[RecoveryReport] = None
        if recover_existing:
            self.recovery_report = self._recover_state()

    @classmethod
    def reopen(
        cls,
        paths: list[DbPath] | SimFilesystem,
        options: Optional[LSMOptions] = None,
        cache: Optional[LRUCache] = None,
    ) -> "LSMTree":
        """Open a tree over filesystems that already hold its files.

        Rebuilds the version from the newest intact manifest, garbage-
        collects table files the manifest doesn't reference (half-written
        tables from a crash mid-flush/compaction), replays the WAL's clean
        prefix into the memtable, and truncates any torn WAL tail.  The
        result is readable/writable; ``tree.recovery_report`` says what was
        recovered and what was dropped.
        """
        opts = options or LSMOptions()
        if not opts.manifest_enabled:
            # Without a durable manifest only the WAL is recoverable.
            # reopen() is the crash-recovery entry point, so turn it on.
            from dataclasses import replace

            opts = replace(opts, manifest_enabled=True)
        return cls(paths, opts, cache, recover_existing=True)

    # ------------------------------------------------------- level layout

    def _assign_levels_to_paths(self) -> dict[int, SimFilesystem]:
        opts = self.options
        assignment: dict[int, SimFilesystem] = {}
        path_idx = 0
        # The first path also hosts the WAL; reserve room for it, and place
        # levels with a 2x margin so transient build-ups (L0 accumulating to
        # its trigger, both input and output tables alive mid-compaction)
        # don't overflow a small fast device.
        remaining = self.paths[0].target_bytes
        if opts.wal_enabled:
            remaining -= 2 * opts.memtable_bytes
        first = opts.first_level
        for level_no in range(first, first + opts.num_levels):
            if level_no == 0:
                need = 2 * opts.level0_trigger * opts.memtable_bytes
            elif level_no == max(first, 1):
                need = 2 * opts.level_base_bytes
            else:
                need = 2 * opts.level_base_bytes * (
                    opts.level_multiplier ** (level_no - max(first, 1))
                )
            while need > remaining and path_idx < len(self.paths) - 1:
                path_idx += 1
                remaining = self.paths[path_idx].target_bytes
            remaining -= need
            assignment[level_no] = self.paths[path_idx].fs
        return assignment

    def fs_for_level(self, level_no: int) -> SimFilesystem:
        return self._level_paths[level_no]

    def _next_table_id(self) -> int:
        self._table_seq += 1
        return self._table_seq

    def next_seqno(self) -> int:
        self._seqno += 1
        return self._seqno

    # --------------------------------------------------- durable metadata

    def _write_manifest(self) -> float:
        """Snapshot the version into the manifest (no-op when disabled)."""
        if self._manifest is None:
            return 0.0
        tables: list[TableMeta] = []
        for lvl in self.version.all_levels():
            for t in lvl:
                tables.append(
                    TableMeta(
                        level=lvl.level,
                        table_id=t.table_id,
                        num_records=t.num_records,
                        file_name=t.file.name,
                        bloom=t.bloom.to_bytes(),
                        handles=[
                            HandleMeta(
                                h.first_key, h.last_key, h.offset, h.length,
                                h.num_records,
                            )
                            for h in t.handles
                        ],
                    )
                )
        return self._manifest.write(tables, self._table_seq, self._seqno)

    def _recover_state(self) -> RecoveryReport:
        """Rebuild version + memtable from on-media state (post-crash)."""
        report = RecoveryReport()
        referenced: set[str] = set()
        if self._manifest is not None:
            metas, table_seq, seqno, notes = self._manifest.load_latest()
            report.notes.extend(notes)
            if metas is not None:
                report.manifest_found = True
                self._table_seq = max(self._table_seq, table_seq)
                # The WAL replay below raises it past any unflushed write.
                self._seqno = max(self._seqno, seqno)
                for meta in metas:
                    fs = self._find_fs_with(meta.file_name)
                    if fs is None:
                        report.notes.append(
                            f"manifest references missing file {meta.file_name!r}"
                        )
                        continue
                    handles = [
                        BlockHandle(
                            h.first_key, h.last_key, h.offset, h.length,
                            h.num_records,
                        )
                        for h in meta.handles
                    ]
                    table = SSTable(
                        meta.table_id,
                        fs.open(meta.file_name),
                        handles,
                        bloom_from_meta(meta),
                        meta.num_records,
                    )
                    self.version.add_table(meta.level, table)
                    referenced.add(meta.file_name)
                    report.tables_recovered += 1
        # GC table files no durable metadata references (crash leftovers).
        # Only safe when a manifest was found: without one, "unreferenced"
        # would mean every table file.
        if report.manifest_found:
            for path in self.paths:
                for f in list(path.fs.files()):
                    if f.name.startswith("sst_") and f.name not in referenced:
                        path.fs.delete(f.name)
                        report.leaked_files_removed += 1
        if self.wal is not None:
            replay = self.wal.replay()
            report.wal_records_replayed = len(replay)
            report.wal_truncated = replay.truncated
            report.wal_dropped_bytes = replay.dropped_bytes
            if replay.truncated:
                self.wal.truncate_torn_tail(replay.valid_bytes)
                report.notes.append(
                    f"WAL tail torn: dropped {replay.dropped_bytes} bytes"
                )
            for rec in replay:
                self._memtable.put(rec)
                if rec.seqno > self._seqno:
                    self._seqno = rec.seqno
            self.wal.note_recovered(len(replay))
        return report

    def _find_fs_with(self, name: str) -> Optional[SimFilesystem]:
        for path in self.paths:
            if path.fs.exists(name):
                return path.fs
        return None

    def _quarantine(self, level_no: int, table: SSTable) -> None:
        """Pull a table whose data failed its checksum out of service.

        The corrupt file stays on media (for forensics / re-replication in
        a real deployment) but is dropped from the version — and from the
        durable manifest — so no reader ever sees its bytes again.
        """
        try:
            self.version.remove_table(level_no, table)
        except ReproError:
            return  # a lazy scan met a table already out of service
        self.quarantined.append(table)
        self.stats.counter("quarantined_tables").add()
        rec = obs.RECORDER
        if rec is not None:
            dev = self.fs_for_level(level_no).device
            rec.emit(
                "quarantine", t=dev.busy_seconds(),
                level=level_no, table=table.table_id,
                records=table.num_records,
            )
        self._write_manifest()

    # ------------------------------------------------------------- writes

    def put(self, key: bytes, value: bytes) -> float:
        """Insert or update.  Returns foreground service time."""
        return self._write(Record(key, value, self.next_seqno()))

    def delete(self, key: bytes) -> float:
        """Delete via tombstone.  Returns foreground service time."""
        return self._write(Record.tombstone(key, self.next_seqno()))

    def _write(self, rec: Record) -> float:
        service = 0.0
        if self.wal is not None:
            service += self.wal.append(rec)
        self._memtable.put(rec)
        self.stats.counter("puts").add()
        if self._memtable.is_full:
            service += self.flush()
        return service

    def flush(self) -> float:
        """Rotate the memtable and persist it as an L0 (or L1) table.

        Crash-safe ordering: WAL sync → table build → manifest snapshot →
        WAL reset.  A crash before the manifest is durable leaves the old
        manifest *and* the un-reset WAL, so replay recovers everything; a
        crash after leaves the new manifest referencing the new table.
        """
        if not (len(self._memtable) or self._immutables):
            return 0.0
        rec = obs.RECORDER
        flush_dev = self.fs_for_level(self.options.first_level).device
        if rec is not None:
            rec.begin(
                "flush", t=flush_dev.busy_seconds(),
                records=len(self._memtable), bytes=self._memtable.size_bytes,
            )
        # One health epoch around the whole flush: an OFFLINE device rejects
        # it atomically before the memtable rotates or any table is built.
        with flush_dev.health_epoch:
            if self.wal is not None:
                self.wal.sync()
            if len(self._memtable):
                self._immutables.append(self._memtable)
                self._memtable = MemTable(self.options.memtable_bytes)
            service = self._flush_immutables()
            if self.wal is not None:
                self.wal.reset()
            self.maybe_compact()
        if rec is not None:
            rec.end("flush", t=flush_dev.busy_seconds())
        return service

    def _flush_immutables(self) -> float:
        """Install the immutables oldest first.  Each stays readable until
        its run is installed, so a flush that fails loses no acked write and
        the next one retries it."""
        fs = self.fs_for_level(self.options.first_level)
        service = 0.0
        while self._immutables:
            # One flush job per immutable: spread across background queues
            # on multi-queue devices (no-op otherwise).
            fs.device.begin_background_job(TrafficKind.FLUSH)
            device_before = fs.device.busy_seconds()
            imm = self._immutables[0]
            self._add_run([entry_of(rec) for rec in imm.records()], TrafficKind.FLUSH)
            self._immutables.pop(0)
            service += fs.device.busy_seconds() - device_before
            self.stats.counter("flushes").add()
        return service

    def _add_run(self, entries: list[Entry], kind: TrafficKind) -> None:
        """Install a sorted run in the first level: a fresh L0 table, or a
        merge with the overlapping tables of a sorted first level."""
        first = self.options.first_level
        inputs = []
        if first:
            lo, hi = entries[0][0], entries[-1][0] + b"\x00"
            inputs = [(first, t) for t in self.version.overlapping(first, lo, hi)]
        self.compactor.install(entries, inputs, first, kind)

    def ingest_batch(self, entries: list[Entry], kind=TrafficKind.MIGRATION) -> float:
        """Merge a durable batch of entries, sorted by key with no duplicates,
        straight into the tree, bypassing WAL and memtable (used for
        cross-tier demotions à la PrismDB)."""
        if not entries:
            return 0.0
        fs = self.fs_for_level(self.options.first_level)
        # Atomic under OFFLINE: the epoch rejects the batch at entry, before
        # seqnos advance or any table mutates; the caller still holds it.
        with fs.device.health_epoch:
            busy_before = fs.device.busy_seconds()
            self._seqno = max(self._seqno, max(e[1] for e in entries))
            self._add_run(entries, kind)
            service = fs.device.busy_seconds() - busy_before
            self.maybe_compact()
            return service

    def maybe_compact(self, max_rounds: int = 64) -> int:
        return self.compactor.maybe_compact(max_rounds)

    # -------------------------------------------------------------- reads

    def get(self, key: bytes) -> tuple[Optional[bytes], float]:
        """Point lookup.  Returns ``(value_or_none, service_time)``."""
        self.stats.counter("gets").add()
        rec = self._memtable.get(key)
        if rec is None:
            for imm in reversed(self._immutables):
                rec = imm.get(key)
                if rec is not None:
                    break
        if rec is not None:
            return (None if rec.is_tombstone else rec.value), 0.0

        service = 0.0
        hashes = self.key_hashes.pair(key)
        for level_no, table in self._candidates(key):
            try:
                rec, s = table.get(key, TrafficKind.FOREGROUND, self.cache, hashes)
            except CorruptionError:
                # Checksums caught bad media: take the table out of service
                # rather than surface garbage or crash.
                self._quarantine(level_no, table)
                continue
            service += s
            if rec is not None:
                return (None if rec.is_tombstone else rec.value), service
        return None, service

    def _candidates(self, key: bytes) -> Iterator[tuple[int, SSTable]]:
        """``(level, table)`` for every table that may hold ``key``, newest
        first: each L0 table whose range covers it, then the one table of
        each sorted level, found by bisection (sorted levels are disjoint)."""
        levels = self.version.levels
        if levels[0].level == 0:
            # Copy: quarantine may remove a table mid-walk.
            for table in reversed(list(levels[0].tables)):
                if table.first_key <= key <= table.last_key:
                    yield 0, table
            levels = levels[1:]
        for lvl in levels:
            table = lvl.table_for_key(key)
            if table is not None:
                yield lvl.level, table

    def iter_from(self, start: bytes) -> Iterator[Record]:
        """Lazy merged stream of the live records >= ``start``, in key order:
        a table's block is read when the consumer reaches it."""
        streams = [keyed(self._memtable.records(start=start))]
        for imm in reversed(self._immutables):
            streams.append(keyed(imm.records(start=start)))

        def guarded(level_no: int, table: SSTable) -> Iterator[tuple]:
            # Stop the stream (and quarantine) when a block fails its
            # checksum; the scan degrades to the remaining clean tables
            # instead of surfacing corrupt bytes.
            try:
                yield from keyed(
                    table.iter_from(start, TrafficKind.FOREGROUND, self.cache)
                )
            except CorruptionError:
                self._quarantine(level_no, table)

        levels = self.version.levels
        if levels[0].level == 0:
            for table in reversed(list(levels[0])):
                streams.append(guarded(0, table))
            levels = levels[1:]
        for level in levels:
            def level_stream(tables=level.overlapping(start, None), lvl=level.level):
                for t in tables:
                    yield from guarded(lvl, t)
            streams.append(level_stream())
        return (item[3] for item in merge_records(streams, drop_tombstones=True))

    def scan(self, start: bytes, count: int) -> tuple[list[tuple[bytes, bytes]], float]:
        """Range scan of up to ``count`` live records from ``start``."""
        if count <= 0:
            return [], 0.0
        self.stats.counter("scans").add()
        devices = {id(p.fs.device): p.fs.device for p in self.paths}
        device_busy_before = {k: d.busy_seconds() for k, d in devices.items()}
        out: list[tuple[bytes, bytes]] = []
        for rec in self.iter_from(start):
            out.append((rec.key, rec.value))
            if len(out) >= count:
                break
        service = sum(
            d.busy_seconds() - device_busy_before[k] for k, d in devices.items()
        )
        return out, service

    # ------------------------------------------------------------ metrics

    def size_bytes(self) -> int:
        return self.version.total_size_bytes()
