"""LSM-tree storage engine.

This package implements the classic leveled LSM-tree used by the RocksDB-like
baselines and — with the semi-SSTable extensions in :mod:`repro.lsm.semi` —
the capacity tier of HyperDB.

Layout of responsibilities:

* :mod:`repro.lsm.blocks` — on-media record/block encoding with checksums.
* :mod:`repro.lsm.memtable` — hash-map memtable with a sorted key view and
  size accounting.
* :mod:`repro.lsm.wal` — write-ahead log with group commit.
* :mod:`repro.lsm.sstable` — immutable sorted tables (data blocks, bloom
  metadata, index).
* :mod:`repro.lsm.version` — the level structure and overlap queries.
* :mod:`repro.lsm.compaction` — leveled compaction with per-level I/O stats.
* :mod:`repro.lsm.lsmtree` — the engine tying everything together, with
  RocksDB-style ``db_paths`` tier placement.
"""

from repro.lsm.memtable import MemTable
from repro.lsm.wal import WriteAheadLog
from repro.lsm.sstable import SSTable, SSTableBuilder
from repro.lsm.version import Version, LevelState
from repro.lsm.compaction import LeveledCompactor
from repro.lsm.lsmtree import LSMTree, LSMOptions

__all__ = [
    "MemTable",
    "WriteAheadLog",
    "SSTable",
    "SSTableBuilder",
    "Version",
    "LevelState",
    "LeveledCompactor",
    "LSMTree",
    "LSMOptions",
]
