"""Segmented level structure for semi-SSTables (paper §3.2).

HyperDB restricts each capacity-tier file to a fixed key segment: the bottom
level ``Ln`` divides the key space into uniform segments, and each level
above owns ranges covering ``T`` contiguous child ranges (``T`` = LSM size
ratio).  The first level is ``L1`` — the NVMe tier plays the role of ``L0``
— which avoids the compaction-efficiency loss of overlapping L0 files.

Tables are created lazily when data first lands in their range.  Uniform
segmentation assumes numeric 8-byte keys (what YCSB produces); a production
system would derive boundaries from sampled key quantiles instead.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.common.errors import ConfigError, ReproError
from repro.common.keys import KeyRange, decode_key, encode_key, ranges_overlap
from repro.lsm.semi.semisstable import SemiSSTable
from repro.simssd.fs import SimFilesystem


@dataclass
class SemiLevelConfig:
    """Geometry of the capacity-tier tree."""

    key_space: KeyRange
    num_levels: int = 3          # L1 .. L{num_levels}
    size_ratio: int = 8          # T: child ranges per parent range
    bottom_segments: int = 64    # segments at the deepest level
    block_size: int = 4096
    level1_target_bytes: int = 256 << 10

    def __post_init__(self) -> None:
        if self.num_levels < 2:
            raise ConfigError("capacity tier needs at least 2 levels")
        if self.size_ratio < 2:
            raise ConfigError("size ratio must be >= 2")
        if self.key_space.hi is None:
            raise ConfigError("key space must be bounded for segmentation")
        min_segments = self.size_ratio ** (self.num_levels - 1)
        if self.bottom_segments < min_segments:
            raise ConfigError(
                f"bottom_segments ({self.bottom_segments}) must be >= "
                f"size_ratio^(num_levels-1) ({min_segments})"
            )

    def segments_at(self, level_no: int) -> int:
        """Number of key ranges at ``level_no`` (1-indexed from the top)."""
        if not 1 <= level_no <= self.num_levels:
            raise ConfigError(f"no such level: L{level_no}")
        shrink = self.size_ratio ** (self.num_levels - level_no)
        return max(1, self.bottom_segments // shrink)

    def target_bytes(self, level_no: int) -> int:
        return self.level1_target_bytes * (self.size_ratio ** (level_no - 1))


class _SemiLevel:
    """All tables of one level, keyed by segment index."""

    def __init__(self, level_no: int, boundaries: list[bytes]) -> None:
        self.level_no = level_no
        #: ``boundaries[i]`` is the inclusive lower bound of segment ``i``;
        #: segment ``i`` spans ``[boundaries[i], boundaries[i+1])`` with the
        #: final segment bounded by the key-space high end.
        self.boundaries = boundaries
        self.tables: dict[int, SemiSSTable] = {}

    def segment_of(self, key: bytes) -> int:
        idx = bisect_right(self.boundaries, key) - 1
        if idx < 0:
            raise ReproError(f"key {key!r} below key space")
        return idx

    def live_tables(self) -> list[SemiSSTable]:
        return [t for t in self.tables.values() if t.num_valid_records > 0]

    def valid_bytes(self) -> int:
        return sum(t.valid_bytes for t in self.tables.values())

    def file_bytes(self) -> int:
        return sum(t.file_bytes for t in self.tables.values())


class SemiLevels:
    """The capacity-tier level hierarchy of semi-SSTables."""

    def __init__(self, fs: SimFilesystem, config: SemiLevelConfig) -> None:
        self.fs = fs
        self.config = config
        self._table_seq = 0
        lo = decode_key(config.key_space.lo)
        hi = decode_key(config.key_space.hi)
        if hi <= lo:
            raise ConfigError("empty key space")
        self._levels: dict[int, _SemiLevel] = {}
        for level_no in range(1, config.num_levels + 1):
            nseg = config.segments_at(level_no)
            step = (hi - lo) / nseg
            bounds = [encode_key(lo + int(i * step)) for i in range(nseg)]
            bounds[0] = config.key_space.lo  # exact lower edge
            self._levels[level_no] = _SemiLevel(level_no, bounds)
        #: Called for every corrupt block a table created here triages — see
        #: :attr:`repro.lsm.semi.semisstable.SemiSSTable.on_corrupt_block`.
        self.on_corrupt_block = None
        #: Corrupt blocks triaged so far: an ingest compares it to learn
        #: whether a block its own merge wrote may have died.
        self.corrupt_blocks = 0

    # ------------------------------------------------------------ lookup

    @property
    def num_levels(self) -> int:
        return self.config.num_levels

    def level(self, level_no: int) -> _SemiLevel:
        lvl = self._levels.get(level_no)
        if lvl is None:
            raise ReproError(f"no such level: L{level_no}")
        return lvl

    def segment_range(self, level_no: int, segment: int) -> KeyRange:
        lvl = self.level(level_no)
        lo = lvl.boundaries[segment]
        if segment + 1 < len(lvl.boundaries):
            hi = lvl.boundaries[segment + 1]
        else:
            hi = self.config.key_space.hi
        return KeyRange(lo, hi)

    def table_for_key(self, level_no: int, key: bytes, create: bool = False) -> Optional[SemiSSTable]:
        """The table owning ``key`` at ``level_no`` (created lazily on demand)."""
        if not self.config.key_space.contains(key):
            raise ReproError(f"key {key!r} outside configured key space")
        lvl = self.level(level_no)
        segment = lvl.segment_of(key)
        table = lvl.tables.get(segment)
        if table is None and create:
            self._table_seq += 1
            table = SemiSSTable(
                table_id=level_no * 1_000_000 + self._table_seq,
                fs=self.fs,
                declared_range=self.segment_range(level_no, segment),
                block_size=self.config.block_size,
            )
            if self.on_corrupt_block is not None:
                table.on_corrupt_block = self._triage
            lvl.tables[segment] = table
        return table

    def _triage(self, table: SemiSSTable, block, superseded) -> int:
        self.corrupt_blocks += 1
        return self.on_corrupt_block(table, block, superseded)

    def tables_overlapping(
        self, level_no: int, lo: bytes, hi: Optional[bytes]
    ) -> list[SemiSSTable]:
        """Tables at ``level_no`` whose declared segment intersects [lo, hi)."""
        if hi is not None and hi <= lo:
            raise ValueError(f"empty key range: lo={lo!r} hi={hi!r}")
        return [
            t
            for t in self.level(level_no).tables.values()
            if ranges_overlap(t.declared_range.lo, t.declared_range.hi, lo, hi)
        ]

    def all_tables(self) -> Iterator[SemiSSTable]:
        for lvl in self._levels.values():
            yield from lvl.tables.values()

    # --------------------------------------------------------- accounting

    def level_valid_bytes(self, level_no: int) -> int:
        return self.level(level_no).valid_bytes()

    def total_valid_bytes(self) -> int:
        return sum(l.valid_bytes() for l in self._levels.values())

    def total_file_bytes(self) -> int:
        return sum(l.file_bytes() for l in self._levels.values())

    def space_amplification(self) -> float:
        valid = self.total_valid_bytes()
        if valid == 0:
            return 1.0
        return self.total_file_bytes() / valid

    def num_valid_records(self) -> int:
        return sum(t.num_valid_records for t in self.all_tables())
