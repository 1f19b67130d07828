"""Classic leveled compaction.

This is the policy RocksDB's default level compaction uses and the baseline
HyperDB's preemptive block compaction is compared against: pick the level
whose size most exceeds its target, choose a victim table (round-robin by
key), merge it with every overlapping table in the child level, and rewrite
the result as fresh child-level tables.

Every sorted run the tree installs goes through one step,
:meth:`LeveledCompactor.install`: a compaction, and a flush or ingested
batch landing in the first level.  It quarantines a corrupt input table
as reads do and merges again without it.

Per-output-level I/O counters feed the paper's Fig. 3b breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro import obs
from repro.common.bloom import KeyHashes
from repro.common.errors import CorruptionError
from repro.lsm.blocks import Entry
from repro.lsm.iterator import merge_records
from repro.lsm.sstable import SSTable, build_tables
from repro.lsm.version import Version
from repro.simssd.fs import SimFilesystem
from repro.simssd.traffic import TrafficKind


@dataclass
class CompactionStats:
    """I/O volume attributed to compactions, keyed by output level."""

    read_bytes_by_level: Dict[int, int] = field(default_factory=dict)
    write_bytes_by_level: Dict[int, int] = field(default_factory=dict)
    compactions: int = 0

    def note(self, output_level: int, read_bytes: int, write_bytes: int) -> None:
        self.read_bytes_by_level[output_level] = (
            self.read_bytes_by_level.get(output_level, 0) + read_bytes
        )
        self.write_bytes_by_level[output_level] = (
            self.write_bytes_by_level.get(output_level, 0) + write_bytes
        )
        self.compactions += 1

    def total_write_bytes(self) -> int:
        return sum(self.write_bytes_by_level.values())

    def total_read_bytes(self) -> int:
        return sum(self.read_bytes_by_level.values())


class LeveledCompactor:
    """Size-tiered-by-level compaction driver for one :class:`Version`.

    Parameters
    ----------
    version:
        The level structure to maintain.
    fs_for_level:
        Maps a level number to the filesystem (device) its tables live on —
        this is how RocksDB's ``db_paths`` tier placement is expressed.
    next_table_id:
        Allocator for fresh table ids.
    table_size_bytes / block_size:
        Output table geometry.
    level0_trigger:
        Number of L0 tables that makes L0 eligible for compaction.
    level_base_bytes / level_multiplier:
        Target size of the first sorted level and the growth ratio.
    on_install:
        Called once per :meth:`install`, after its version change is applied
        and before its input files are deleted: the tree writes its
        manifest.
    quarantine:
        Called as ``quarantine(level, table)`` for a merge input whose block
        failed its checksum; it must take the table out of the version.
    key_hashes:
        The tree's key-digest memo, which output tables build their blooms
        through.
    """

    def __init__(
        self,
        version: Version,
        fs_for_level: Callable[[int], SimFilesystem],
        next_table_id: Callable[[], int],
        table_size_bytes: int,
        block_size: int = 4096,
        level0_trigger: int = 4,
        level_base_bytes: int = 1 << 20,
        level_multiplier: int = 10,
        on_install: Optional[Callable[[], object]] = None,
        quarantine: Optional[Callable[[int, SSTable], None]] = None,
        key_hashes: Optional[KeyHashes] = None,
    ) -> None:
        self.version = version
        self.fs_for_level = fs_for_level
        self.next_table_id = next_table_id
        self.table_size_bytes = table_size_bytes
        self.block_size = block_size
        self.level0_trigger = level0_trigger
        self.level_base_bytes = level_base_bytes
        self.level_multiplier = level_multiplier
        self.on_install = on_install or (lambda: None)
        self.quarantine = quarantine or version.remove_table
        self.key_hashes = key_hashes
        self.stats = CompactionStats()
        self._cursors: Dict[int, bytes] = {}  # round-robin victim cursor per level

    # ------------------------------------------------------------- policy

    def level_target_bytes(self, level_no: int) -> int:
        """Target size for a sorted level (L1 gets the base size)."""
        exponent = max(0, level_no - max(1, self.version.first_level))
        return self.level_base_bytes * (self.level_multiplier**exponent)

    def level_score(self, level_no: int) -> float:
        """How far past its target the level is; >= 1 means compaction-eligible."""
        lvl = self.version.level(level_no)
        if level_no == 0:
            return len(lvl) / self.level0_trigger
        if level_no == self.version.first_level + self.version.num_levels - 1:
            return 0.0  # the bottom level has no child to push into
        return lvl.size_bytes() / self.level_target_bytes(level_no)

    def pick_compaction_level(self) -> Optional[int]:
        """The level most in need of compaction, or None if all within target."""
        best_level, best_score = None, 1.0
        for lvl in self.version.all_levels():
            score = self.level_score(lvl.level)
            if score >= best_score:
                best_level, best_score = lvl.level, score
        return best_level

    def pick_victim(self, level_no: int) -> Optional[SSTable]:
        """Round-robin by key: the table after the last compacted key."""
        tables = list(self.version.level(level_no))
        if not tables:
            return None
        cursor = self._cursors.get(level_no)
        if cursor is not None:
            for t in tables:
                if t.first_key > cursor:
                    return t
        return tables[0]

    # -------------------------------------------------------------- work

    def maybe_compact(self, max_rounds: int = 64) -> int:
        """Run compactions until every level is within target.

        Returns the number of compactions performed.
        """
        rounds = 0
        while rounds < max_rounds:
            level = self.pick_compaction_level()
            if level is None:
                break
            self.compact_level(level)
            rounds += 1
        return rounds

    def compact_level(self, level_no: int) -> list[SSTable]:
        """One compaction from ``level_no`` into its child level."""
        child_no = level_no + 1
        # Concurrency-aware placement: each compaction job picks the
        # least-busy background queue on every device it will touch, so
        # back-to-back jobs overlap on a multi-queue device instead of
        # serializing (no-op on single-queue devices).
        parent_dev = self.fs_for_level(level_no).device
        child_dev = self.fs_for_level(child_no).device
        parent_dev.begin_background_job(TrafficKind.COMPACTION)
        if child_dev is not parent_dev:
            child_dev.begin_background_job(TrafficKind.COMPACTION)
        if level_no == 0:
            parents = list(self.version.level(0))
        else:
            victim = self.pick_victim(level_no)
            if victim is None:
                return []
            parents = [victim]
            self._cursors[level_no] = victim.last_key
        if not parents:
            return []

        lo = min(t.first_key for t in parents)
        hi = max(t.last_key for t in parents) + b"\x00"
        children = self.version.overlapping(child_no, lo, hi)
        read_bytes = sum(t.size_bytes for t in parents + children)
        trc = obs.RECORDER
        if trc is not None:
            trc.begin(
                "compaction",
                t=child_dev.busy_seconds(),
                parent_level=level_no, child_level=child_no,
                input_tables=len(parents) + len(children),
                read_bytes=read_bytes,
            )
        # Newest first: L0 tables are ordered oldest-first in the version, so
        # reverse them; the parent level is newer than the child level.
        inputs = [(level_no, t) for t in reversed(parents)]
        inputs += [(child_no, t) for t in children]
        outputs = self.install(None, inputs, child_no, TrafficKind.COMPACTION)
        write_bytes = sum(t.size_bytes for t in outputs)
        self.stats.note(child_no, read_bytes, write_bytes)
        if trc is not None:
            trc.end(
                "compaction",
                t=child_dev.busy_seconds(),
                child_level=child_no, output_tables=len(outputs),
                write_bytes=write_bytes,
            )
        return outputs

    def install(
        self,
        run: Optional[list[Entry]],
        inputs: list[tuple[int, SSTable]],
        out_level: int,
        kind: TrafficKind,
    ) -> list[SSTable]:
        """Merge newest-first inputs (an in-memory sorted ``run``, then
        ``(level, table)`` pairs) into ``out_level``: build the output
        tables, swap them for the inputs in the version, make the version
        durable (:attr:`on_install`) and only then delete the inputs' files,
        so a crash in between leaks files instead of losing referenced ones.

        An input table whose block fails its checksum is quarantined, as a
        read would, and the merge re-run without it: none of its bytes
        reach an output.  Level 0 holds overlapping tables, so a run lands
        there as one table.
        """
        fs = self.fs_for_level(out_level)
        table_bytes = None if out_level == 0 else self.table_size_bytes
        bottom = out_level == self.version.first_level + self.version.num_levels - 1
        while True:
            streams = [iter(run)] if run else []
            streams += [t.iter_entries(kind) for _, t in inputs]
            merged = (
                streams[0] if len(streams) == 1 and not bottom
                else merge_records(streams, drop_tombstones=bottom)
            )
            try:
                outputs = build_tables(
                    fs, merged, self.next_table_id, self.block_size,
                    table_bytes, kind, self.key_hashes,
                )
                break
            except CorruptionError as exc:
                bad = next((p for p in inputs if p[1] is exc.source), None)
                if bad is None:
                    raise
                inputs = [p for p in inputs if p is not bad]
                self.quarantine(*bad)
        for level_no, t in inputs:
            self.version.remove_table(level_no, t)
        for t in outputs:
            self.version.add_table(out_level, t)
        self.on_install()
        for level_no, t in inputs:
            self.fs_for_level(level_no).delete(t.file.name)
        return outputs
