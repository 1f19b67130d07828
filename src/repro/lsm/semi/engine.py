"""The capacity-tier engine: semi-SSTable levels + preemptive compaction.

This is the SATA-resident half of HyperDB.  Batches of objects demoted from
the NVMe tier are merged into ``L1`` (the NVMe tier is conceptually ``L0``),
and preemptive block compaction keeps levels within target.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Optional

import numpy as np

from repro.common.records import Record
from repro.lsm.blocks import Entry, as_entries
from repro.lsm.semi.compaction import PreemptiveBlockCompactor
from repro.lsm.semi.levels import SemiLevelConfig, SemiLevels
from repro.lsm.semi.semisstable import SemiSSTable
from repro.simssd.fs import SimFilesystem
from repro.simssd.traffic import TrafficKind


class CapacityTier:
    """HyperDB's SATA-tier store."""

    def __init__(
        self,
        fs: SimFilesystem,
        config: SemiLevelConfig,
        depth: int = 2,
        t_clean: float = 0.5,
        space_amp_limit: float = 1.5,
        candidate_k: int = 8,
        rng: Optional[np.random.Generator] = None,
        cache=None,
    ) -> None:
        self.fs = fs
        self.levels = SemiLevels(fs, config)
        self.compactor = PreemptiveBlockCompactor(
            self.levels,
            depth=depth,
            t_clean=t_clean,
            space_amp_limit=space_amp_limit,
            candidate_k=candidate_k,
            rng=rng,
        )
        self.cache = cache

    # ------------------------------------------------------------- writes

    def ingest(
        self, entries: list[Entry], kind: TrafficKind = TrafficKind.MIGRATION
    ) -> float:
        """Merge a demotion batch of entries (or records, encoded once here)
        into L1 and rebalance.  The batch need not be sorted; it is grouped
        by L1 segment, and the newest copy of a key wins.
        Returns the service time charged for the L1 merge (compaction time
        is background and accounted on the device).

        The whole merge-and-rebalance runs inside one device health epoch:
        an OFFLINE capacity device rejects the batch atomically at entry
        (``DeviceOfflineError`` before any table mutates), so callers can
        requeue the batch without worrying about split state.
        """
        if not entries:
            return 0.0
        entries = as_entries(entries)
        with self.fs.device.health_epoch:
            by_segment: dict[int, dict[bytes, Entry]] = {}
            segment_of = self.levels.level(1).segment_of
            for entry in entries:
                newest = by_segment.setdefault(segment_of(entry[0]), {})
                held = newest.get(entry[0])
                if held is None or entry[1] > held[1]:
                    newest[entry[0]] = entry
            service = 0.0
            for seg, newest in sorted(by_segment.items()):
                deduped = sorted(newest.values(), key=itemgetter(0))
                table = self.levels.table_for_key(1, deduped[0][0], create=True)
                service += table.merge_append(deduped, kind)
                self.compactor._maybe_full_compact(table)
            self.compactor.maybe_compact()
            return service

    # -------------------------------------------------------------- reads

    def get(
        self, key: bytes, kind: TrafficKind = TrafficKind.FOREGROUND
    ) -> tuple[Optional[Record], float]:
        """Newest record for ``key`` across all levels (tombstones included)."""
        service = 0.0
        for level_no in range(1, self.levels.num_levels + 1):
            table = self.levels.table_for_key(level_no, key)
            if table is None:
                continue
            rec, s = table.get(key, kind, self.cache)
            service += s
            if rec is not None:
                return rec, service
        return None, service

    def contains_key(self, key: bytes) -> bool:
        """Index-only membership check across levels (no data I/O)."""
        for level_no in range(1, self.levels.num_levels + 1):
            table = self.levels.table_for_key(level_no, key)
            if table is not None and table.contains_key(key):
                return True
        return False

    def scan(
        self,
        start: bytes,
        count: int,
        kind: TrafficKind = TrafficKind.FOREGROUND,
    ) -> Iterator[Record]:
        """A lazy cursor over the live records >= ``start``, in key order.

        Index-directed sequential point queries (§4.2): the candidate keys
        come from the tables' index blocks (kept on NVMe, no data-tier
        I/O); a record's one block read happens when the consumer asks for
        that record, so a scan is charged for what it pulls.  Blocks being
        unordered between themselves is why HyperDB gains nothing on
        YCSB-E relative to a strictly sorted LSM.

        ``count`` sizes a round: each level lists at most ``count + 16``
        candidates (slack for tombstones).  A level that hit the limit has
        unlisted keys past its last candidate, so a round emits nothing
        beyond the smallest such key (``bound``), and the next round
        resumes from the bound's successor.
        """
        want = count + 16
        while start is not None:
            # key -> the table listing it; shallower levels overwrite.
            owner: dict[bytes, SemiSSTable] = {}
            bound: Optional[bytes] = None
            for level_no in range(self.levels.num_levels, 0, -1):
                got = 0
                live = self.levels.level(level_no).live_tables()
                for t in sorted(
                    (t for t in live if t.declared_range.hi > start),
                    key=lambda t: t.declared_range.lo,
                ):
                    keys = t.keys_from(start, want - got)
                    owner.update(dict.fromkeys(keys, t))
                    got += len(keys)
                    if got >= want:
                        if bound is None or keys[-1] < bound:
                            bound = keys[-1]
                        break
            keys = sorted(owner)
            start = None if bound is None else bound + b"\x00"
            for key in keys:
                if bound is not None and key > bound:
                    break
                rec, _ = owner[key].get_indexed(key, kind, self.cache)
                if not rec.is_tombstone:
                    yield rec

    # --------------------------------------------------------- accounting

    def valid_bytes(self) -> int:
        return self.levels.total_valid_bytes()

    def space_amplification(self) -> float:
        return self.levels.space_amplification()
