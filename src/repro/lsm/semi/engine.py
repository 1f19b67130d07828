"""The capacity-tier engine: semi-SSTable levels + preemptive compaction.

This is the SATA-resident half of HyperDB.  Batches of objects demoted from
the NVMe tier are merged into ``L1`` (the NVMe tier is conceptually ``L0``),
and preemptive block compaction keeps levels within target.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import groupby
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
        (``DeviceOfflineError`` before any table mutates), so a demotion
        that frees its zone only after ingest returns loses nothing.  For
        the same reason, when the compaction a merge sets off drops a
        corrupt block holding one of the batch's entries, that entry is
        merged again: on return the tier holds every entry of the batch or
        a newer copy of its key.
        """
        if not entries:
            return 0.0
        entries = as_entries(entries)
        levels = self.levels
        with self.fs.device.health_epoch:
            corrupt = levels.corrupt_blocks
            service = self._merge(entries, kind)
            while levels.corrupt_blocks != corrupt:
                corrupt = levels.corrupt_blocks
                lost = [e for e in entries if self._newest_seqno(e[0]) < e[1]]
                if not lost:
                    break
                service += self._merge(lost, kind)
            return service

    def _merge(self, entries: list[Entry], kind: TrafficKind) -> float:
        """Merge ``entries`` into L1, the newest copy of a key winning, then
        rebalance the levels; returns the L1 merge's service time."""
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

    def _newest_seqno(self, key: bytes) -> int:
        """The seqno of ``key``'s newest copy in the tier (-1 for none);
        index only, no I/O."""
        for level_no in range(1, self.levels.num_levels + 1):
            table = self.levels.table_for_key(level_no, key)
            if table is not None:
                seqno = table.seqno_of(key)
                if seqno is not None:
                    return seqno
        return -1

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
    ) -> Iterator[Entry]:
        """A lazy cursor over the live entries >= ``start``, in key order.

        Index-directed sequential point queries (§4.2): the candidate keys
        come from the tables' indexes, in-memory maps a scan reads without
        I/O (only Algorithm 1's index reads, when compaction picks a
        victim, are charged, to the capacity device), and go in runs to
        their tables' readers
        (:meth:`SemiSSTable.entries`); a record's page lookup happens when
        the consumer asks for that record, so a scan is charged for what
        it pulls.  Blocks being unordered between themselves is why
        HyperDB gains nothing on YCSB-E relative to a strictly sorted LSM.

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
            if bound is not None:
                del keys[bisect_right(keys, bound) :]
            start = None if bound is None else bound + b"\x00"
            for table, run in groupby(keys, owner.__getitem__):
                for entry in table.entries(run, kind, self.cache):
                    if not entry[2] & 1:
                        yield entry

    # --------------------------------------------------------- accounting

    def valid_bytes(self) -> int:
        return self.levels.total_valid_bytes()

    def space_amplification(self) -> float:
        return self.levels.space_amplification()
