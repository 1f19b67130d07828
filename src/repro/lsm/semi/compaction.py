"""Preemptive block compaction (paper §3.4, Fig. 7, Algorithm 1).

When a level exceeds its target, a victim semi-SSTable is chosen and its
valid records are pushed down.  Unlike classic leveled compaction, each
record is routed to the **deepest** level within the compaction depth that
already holds an older version of its key — skipping the intermediate-level
rewrites that cause most of the deep-layer write amplification the paper
measures in Fig. 3b.  Stale copies on the intermediate levels are
invalidated through the index without any data-block write.

Victim selection trades write amplification against space amplification:

* space overhead above ``space_amp_limit`` → pick the table with the most
  dead bytes (a full push frees its whole file);
* otherwise → pick the table with the highest *overlap score*
  (Algorithm 1): the count of blocks transitively overlapped across the
  next ``depth`` levels, computed from index blocks alone, over a
  power-of-``k``-choices sample of candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Optional

import numpy as np

from repro import obs
from repro.lsm.blocks import Entry
from repro.lsm.semi.levels import SemiLevels
from repro.lsm.semi.semisstable import SemiSSTable
from repro.simssd.traffic import TrafficKind


@dataclass
class SemiCompactionStats:
    """Volume and composition of preemptive block compactions."""

    read_bytes_by_level: Dict[int, int] = field(default_factory=dict)
    write_bytes_by_level: Dict[int, int] = field(default_factory=dict)
    compactions: int = 0
    full_compactions: int = 0
    preemptive_records: int = 0   # records routed deeper than the child level
    normal_records: int = 0

    def note_io(self, output_level: int, read_bytes: int, write_bytes: int) -> None:
        self.read_bytes_by_level[output_level] = (
            self.read_bytes_by_level.get(output_level, 0) + read_bytes
        )
        self.write_bytes_by_level[output_level] = (
            self.write_bytes_by_level.get(output_level, 0) + write_bytes
        )

    def total_write_bytes(self) -> int:
        return sum(self.write_bytes_by_level.values())

    def total_read_bytes(self) -> int:
        return sum(self.read_bytes_by_level.values())


class PreemptiveBlockCompactor:
    """Drives preemptive block compaction over a :class:`SemiLevels` tree."""

    def __init__(
        self,
        levels: SemiLevels,
        depth: int = 2,
        t_clean: float = 0.5,
        space_amp_limit: float = 1.5,
        candidate_k: int = 8,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if depth < 1:
            raise ValueError(f"compaction depth must be >= 1, got {depth}")
        if not 0.0 < t_clean <= 1.0:
            raise ValueError(f"t_clean must be in (0, 1], got {t_clean}")
        self.levels = levels
        self.depth = depth
        self.t_clean = t_clean
        self.space_amp_limit = space_amp_limit
        self.candidate_k = candidate_k
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = SemiCompactionStats()

    # ------------------------------------------------------------- policy

    def level_score(self, level_no: int) -> float:
        """Valid bytes over target; the bottom level never scores (it only grows)."""
        if level_no >= self.levels.num_levels:
            return 0.0  # the bottom level only grows
        valid = self.levels.level_valid_bytes(level_no)
        return valid / self.levels.config.target_bytes(level_no)

    def pick_compaction_level(self) -> Optional[int]:
        """The level most over target, or None when everything fits."""
        best, best_score = None, 1.0
        for level_no in range(1, self.levels.num_levels):
            score = self.level_score(level_no)
            if score >= best_score:
                best, best_score = level_no, score
        return best

    def maybe_compact(self, max_rounds: int = 64) -> int:
        """Compact until every level is within target; returns rounds run."""
        rounds = 0
        while rounds < max_rounds:
            level_no = self.pick_compaction_level()
            if level_no is None:
                break
            if not self.compact_level(level_no):
                break
            rounds += 1
        return rounds

    # ------------------------------------------------- victim selection

    def overlap_score(self, table: SemiSSTable, level_no: int) -> int:
        """Algorithm 1: transitive overlapping-block count across ``depth``
        child levels, computed from index metadata only."""
        device = self.levels.fs.device
        # Reading the candidate's own index block.
        device.read_bytes_io(table.index_read_size(), TrafficKind.COMPACTION)
        block_meta = [
            (b.first_key, b.last_key + b"\x00")
            for b in table.blocks
            if not b.is_dead
        ]
        score = 0
        for n in range(1, self.depth + 1):
            child_no = level_no + n
            if child_no > self.levels.num_levels:
                break
            next_meta: list[tuple[bytes, bytes]] = []
            seen_tables = set()
            for lo, hi in block_meta:
                for child in self.levels.tables_overlapping(child_no, lo, hi):
                    if id(child) not in seen_tables:
                        seen_tables.add(id(child))
                        device.read_bytes_io(
                            child.index_read_size(), TrafficKind.COMPACTION
                        )
                    for blk in child.overlapping_blocks(lo, hi):
                        next_meta.append((blk.first_key, blk.last_key + b"\x00"))
            score += len(next_meta)
            if not next_meta:
                break
            block_meta = next_meta
        return score

    def select_victim(self, level_no: int) -> Optional[SemiSSTable]:
        """Dirtiest table under space pressure, else highest overlap score over a power-of-k sample (§3.4)."""
        tables = self.levels.level(level_no).live_tables()
        if not tables:
            return None
        if self.levels.space_amplification() > self.space_amp_limit:
            return max(tables, key=lambda t: t.dead_bytes)
        k = min(self.candidate_k, len(tables))
        idx = self.rng.choice(len(tables), size=k, replace=False)
        candidates = [tables[i] for i in idx]
        return max(candidates, key=lambda t: self.overlap_score(t, level_no))

    # --------------------------------------------------------------- work

    def compact_level(self, level_no: int) -> bool:
        """Push one victim table from ``level_no`` down.  Returns success."""
        victim = self.select_victim(level_no)
        if victim is None:
            return False
        device = self.levels.fs.device
        # Each semi-compaction job lands on the least-busy background
        # queue (no-op on single-queue devices).
        device.begin_background_job(TrafficKind.COMPACTION)
        traffic = device.traffic
        read_before = traffic.read_bytes(TrafficKind.COMPACTION)
        write_before = traffic.write_bytes(TrafficKind.COMPACTION)
        rec = obs.RECORDER
        if rec is not None:
            rec.begin(
                "semi_compaction", t=traffic.busy_seconds(),
                level=level_no, victim_records=victim.num_valid_records,
            )

        self._route_records(level_no, victim.live_entries(TrafficKind.COMPACTION))

        # The victim's whole file is reclaimed.
        lvl = self.levels.level(level_no)
        for segment, t in list(lvl.tables.items()):
            if t is victim:
                del lvl.tables[segment]
        victim.destroy()

        self.stats.compactions += 1
        read_delta = traffic.read_bytes(TrafficKind.COMPACTION) - read_before
        write_delta = traffic.write_bytes(TrafficKind.COMPACTION) - write_before
        self.stats.note_io(level_no + 1, read_delta, write_delta)
        if rec is not None:
            rec.end(
                "semi_compaction", t=traffic.busy_seconds(),
                level=level_no, read_bytes=read_delta, write_bytes=write_delta,
            )
        return True

    def _route_records(self, level_no: int, entries: list[Entry]) -> None:
        """Send each entry to the deepest in-depth level holding its key.

        When a record supersedes a copy on an intermediate level, the
        surviving neighbours of that copy's block ride along to the deeper
        destination (paper Fig. 7) — the block dies cleanly instead of
        lingering as dirty data that a full compaction must reclaim later.
        """
        bottom = self.levels.num_levels
        max_level = min(level_no + self.depth, bottom)
        # (dest_level, segment) -> {key: entry}; keyed so duplicates from
        # ride-along extraction resolve by seqno.
        batches: dict[int, dict[int, dict[bytes, Entry]]] = {}
        invalidations: dict[int, dict[int, set[bytes]]] = {}

        def stage(dest: int, entry: Entry) -> None:
            key = entry[0]
            seg = self.levels.level(dest).segment_of(key)
            if dest == bottom and entry[2] & 1:
                # Tombstones reaching the bottom need no physical write.
                t = self.levels.table_for_key(dest, key)
                if t is not None and t.contains_key(key):
                    invalidations.setdefault(dest, {}).setdefault(seg, set()).add(key)
                return
            bucket = batches.setdefault(dest, {}).setdefault(seg, {})
            old = bucket.get(key)
            if old is None or entry[1] > old[1]:
                bucket[key] = entry

        def dest_for(key: bytes, floor: int) -> int:
            for candidate in range(max_level, floor, -1):
                t = self.levels.table_for_key(candidate, key)
                if t is not None and t.contains_key(key):
                    return candidate
            return floor + 1

        staged_keys: set[bytes] = set()
        for entry in entries:
            key = entry[0]
            dest = dest_for(key, level_no)
            if dest > level_no + 1:
                self.stats.preemptive_records += 1
                # Retire the record's stale intermediate copies; their block
                # neighbours travel down with it (ride-along).
                for mid in range(level_no + 1, dest):
                    mt = self.levels.table_for_key(mid, key)
                    if mt is None or not mt.contains_key(key):
                        continue
                    survivors, _ = mt.extract_block_records(
                        key, TrafficKind.COMPACTION
                    )
                    for s in survivors:
                        if s[0] == key or s[0] in staged_keys:
                            continue
                        stage(dest_for(s[0], mid), s)
                        staged_keys.add(s[0])
            else:
                self.stats.normal_records += 1
            stage(dest, entry)
            staged_keys.add(key)

        for dest, segs in sorted(invalidations.items()):
            for seg, keys in segs.items():
                table = self.levels.table_for_key(dest, next(iter(keys)), create=False)
                if table is not None and not batches.get(dest, {}).get(seg):
                    table.merge_append([], TrafficKind.COMPACTION, invalidate_only=keys)
        for dest, segs in sorted(batches.items()):
            for seg, bucket in segs.items():
                batch = sorted(bucket.values(), key=itemgetter(0))
                table = self.levels.table_for_key(dest, batch[0][0], create=True)
                inv = invalidations.get(dest, {}).get(seg)
                table.merge_append(batch, TrafficKind.COMPACTION, invalidate_only=inv)
                self._maybe_full_compact(table)

    def _maybe_full_compact(self, table: SemiSSTable) -> None:
        """Full compaction when stale blocks exceed ``T_clean`` (§3.4)."""
        if table.num_blocks > 0 and table.dirty_ratio > self.t_clean:
            rec = obs.RECORDER
            if rec is not None:
                rec.emit(
                    "full_compaction",
                    t=self.levels.fs.device.busy_seconds(),
                    blocks=table.num_blocks,
                )
            table.full_compact(TrafficKind.COMPACTION)
            self.stats.full_compactions += 1
