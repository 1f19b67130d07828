"""The level structure of an LSM-tree.

A :class:`Version` tracks which tables live at which level and answers the
overlap queries that compaction and reads need.  Level 0 holds possibly
overlapping tables ordered newest-last; levels >= 1 hold disjoint tables
kept sorted by first key.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional

from repro.common.errors import ReproError
from repro.common.keys import ranges_overlap


class LevelState:
    """Tables resident at one level."""

    def __init__(self, level: int) -> None:
        self.level = level
        self.tables: List = []
        #: Cached ``[t.first_key for t in tables]``; rebuilt lazily after
        #: add/remove so point lookups bisect instead of scanning.
        self._firsts: Optional[List[bytes]] = None

    @property
    def overlapping_allowed(self) -> bool:
        return self.level == 0

    def _first_keys(self) -> List[bytes]:
        if self._firsts is None:
            self._firsts = [t.first_key for t in self.tables]
        return self._firsts

    def add(self, table) -> None:
        if self.overlapping_allowed:
            self.tables.append(table)
            self._firsts = None
            return
        # Keep sorted by first key; reject overlap with neighbours.
        firsts = self._first_keys()
        idx = bisect_left(firsts, table.first_key)
        left = self.tables[idx - 1] if idx > 0 else None
        right = self.tables[idx] if idx < len(self.tables) else None
        if left is not None and left.last_key >= table.first_key:
            raise ReproError(
                f"L{self.level} overlap: new table {table.table_id} "
                f"intersects table {left.table_id}"
            )
        if right is not None and right.first_key <= table.last_key:
            raise ReproError(
                f"L{self.level} overlap: new table {table.table_id} "
                f"intersects table {right.table_id}"
            )
        self.tables.insert(idx, table)
        self._firsts = None

    def remove(self, table) -> None:
        try:
            self.tables.remove(table)
        except ValueError:
            raise ReproError(
                f"table {table.table_id} not present at L{self.level}"
            ) from None
        self._firsts = None

    def overlapping(self, lo: bytes, hi: Optional[bytes]) -> list:
        """Tables whose key range intersects ``[lo, hi)``."""
        return [
            t
            for t in self.tables
            if ranges_overlap(t.first_key, t.last_key + b"\x00", lo, hi)
        ]

    def table_for_key(self, key: bytes):
        """The single table whose range contains ``key``, or ``None``.

        Only valid on sorted (disjoint) levels; bisects the cached first
        keys instead of range-testing every table per lookup.
        """
        if self.overlapping_allowed:
            raise ReproError("table_for_key is undefined on overlapping L0")
        firsts = self._first_keys()
        idx = bisect_right(firsts, key) - 1
        if idx < 0:
            return None
        t = self.tables[idx]
        return t if key <= t.last_key else None

    def size_bytes(self) -> int:
        return sum(t.size_bytes for t in self.tables)

    def __len__(self) -> int:
        return len(self.tables)

    def __iter__(self) -> Iterator:
        return iter(self.tables)


class Version:
    """The full level hierarchy of one tree."""

    def __init__(self, num_levels: int = 7, first_level: int = 0) -> None:
        """Create levels ``first_level .. first_level + num_levels - 1``.

        PrismDB's SATA tree uses ``first_level=1`` (its NVMe tier is
        conceptually L0), so every on-tree level is non-overlapping; only a
        literal level 0 allows overlapping tables.
        """
        if num_levels < 2:
            raise ReproError(f"need at least 2 levels, got {num_levels}")
        self.first_level = first_level
        self.levels: List[LevelState] = [
            LevelState(first_level + i) for i in range(num_levels)
        ]

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def level(self, level_no: int) -> LevelState:
        idx = level_no - self.first_level
        if idx < 0 or idx >= len(self.levels):
            raise ReproError(f"no such level: L{level_no}")
        return self.levels[idx]

    def add_table(self, level_no: int, table) -> None:
        self.level(level_no).add(table)

    def remove_table(self, level_no: int, table) -> None:
        self.level(level_no).remove(table)

    def overlapping(self, level_no: int, lo: bytes, hi: Optional[bytes]) -> list:
        """Tables at the level whose actual key range intersects [lo, hi)."""
        return self.level(level_no).overlapping(lo, hi)

    def total_size_bytes(self) -> int:
        return sum(l.size_bytes() for l in self.levels)

    def total_tables(self) -> int:
        return sum(len(l) for l in self.levels)

    def all_levels(self) -> Iterator[LevelState]:
        return iter(self.levels)

    def deepest_nonempty_level(self) -> int:
        deepest = self.first_level
        for lvl in self.levels:
            if len(lvl) > 0:
                deepest = lvl.level
        return deepest
