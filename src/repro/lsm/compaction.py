"""Classic leveled compaction.

This is the policy RocksDB's default level compaction uses and the baseline
HyperDB's preemptive block compaction is compared against: pick the level
whose size most exceeds its target, choose a victim table (round-robin by
key), merge it with every overlapping table in the child level, and rewrite
the result as fresh child-level tables.

Per-output-level I/O counters feed the paper's Fig. 3b breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro import obs
from repro.common.bloom import KeyHashes
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
        Optional callback invoked after a compaction's version change is
        applied but *before* the input files are deleted — the tree uses it
        to make the new version durable (manifest) first, so a crash in
        between leaks files instead of losing referenced ones.
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
        on_install: Optional[Callable[[], float]] = None,
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
        self.on_install = on_install
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
            inputs_parent = list(self.version.level(0))
        else:
            victim = self.pick_victim(level_no)
            if victim is None:
                return []
            inputs_parent = [victim]
            self._cursors[level_no] = victim.last_key
        if not inputs_parent:
            return []

        lo = min(t.first_key for t in inputs_parent)
        hi = max(t.last_key for t in inputs_parent) + b"\x00"
        inputs_child = self.version.overlapping(child_no, lo, hi)
        return self._merge(level_no, inputs_parent, child_no, inputs_child)

    def _merge(
        self,
        parent_no: int,
        parents: list[SSTable],
        child_no: int,
        children: list[SSTable],
    ) -> list[SSTable]:
        read_bytes = sum(t.size_bytes for t in parents + children)
        trc = obs.RECORDER
        if trc is not None:
            trc.begin(
                "compaction",
                t=self.fs_for_level(child_no).device.busy_seconds(),
                parent_level=parent_no, child_level=child_no,
                input_tables=len(parents) + len(children),
                read_bytes=read_bytes,
            )
        # Newest first: L0 tables are ordered oldest-first in the version, so
        # reverse them; parent level is newer than child level.
        streams = [
            t.iter_entries(TrafficKind.COMPACTION) for t in reversed(parents)
        ] + [t.iter_entries(TrafficKind.COMPACTION) for t in children]
        bottom = child_no >= self.version.first_level + self.version.num_levels - 1
        merged = merge_records(streams, drop_tombstones=bottom)

        outputs = build_tables(
            self.fs_for_level(child_no), merged, self.next_table_id,
            self.block_size, self.table_size_bytes, TrafficKind.COMPACTION,
            self.key_hashes,
        )
        write_bytes = sum(t.size_bytes for t in outputs)
        self.stats.note(child_no, read_bytes, write_bytes)

        # Install outputs, retire inputs; the version change is made durable
        # (on_install → manifest) before any input file is destroyed.
        for t in parents:
            self.version.remove_table(parent_no, t)
        for t in children:
            self.version.remove_table(child_no, t)
        for t in outputs:
            self.version.add_table(child_no, t)
        if self.on_install is not None:
            self.on_install()
        for t in parents:
            self._delete_table_file(parent_no, t)
        for t in children:
            self._delete_table_file(child_no, t)
        if trc is not None:
            trc.end(
                "compaction",
                t=self.fs_for_level(child_no).device.busy_seconds(),
                child_level=child_no, output_tables=len(outputs),
                write_bytes=write_bytes,
            )
        return outputs

    def _delete_table_file(self, level_no: int, table: SSTable) -> None:
        fs = self.fs_for_level(level_no)
        if fs.exists(table.file.name):
            fs.delete(table.file.name)
        else:  # table was written before a path re-assignment; search all
            table.file.delete()
