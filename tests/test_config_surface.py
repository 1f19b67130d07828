"""The settable configuration surface is pinned.

Every field of the engine and device config dataclasses is a knob a caller
can turn.  This test lists them literally, so adding, removing or renaming
one shows up as a reviewed diff here rather than as a silent new option.
Values that no caller varies belong in module constants, not in these
classes.  The surface below is 47 fields.
"""

import dataclasses

import pytest

from repro.cluster import ClusterConfig
from repro.core.config import HyperDBConfig
from repro.lsm.lsmtree import LSMOptions
from repro.lsm.semi.levels import SemiLevelConfig
from repro.nvme.config import NVMeConfig
from repro.scrub import ScrubConfig
from repro.simssd.queues import QueueConfig

SURFACE = {
    HyperDBConfig: (
        "key_space",
        "nvme",
        "semi_num_levels",
        "semi_size_ratio",
        "semi_bottom_segments",
        "semi_level1_target_bytes",
        "compaction_depth",
        "t_clean",
        "space_amp_limit",
        "candidate_k",
        "dram_cache_bytes",
        "enable_hot_zone",
        "enable_preemptive_compaction",
        "scrub",
        "rng_seed",
    ),
    NVMeConfig: (
        "num_partitions",
        "migration_batch_bytes",
        "high_watermark",
        "low_watermark",
        "hot_zone_fraction",
        "initial_zones_per_partition",
    ),
    LSMOptions: (
        "memtable_bytes",
        "table_size_bytes",
        "block_size",
        "num_levels",
        "first_level",
        "level0_trigger",
        "level_base_bytes",
        "level_multiplier",
        "wal_group_size",
        "wal_enabled",
        "manifest_enabled",
    ),
    QueueConfig: ("queue_count", "queue_depth"),
    ScrubConfig: ("interval_ops",),
    SemiLevelConfig: (
        "key_space",
        "num_levels",
        "size_ratio",
        "bottom_segments",
        "block_size",
        "level1_target_bytes",
        "bits_per_key",
    ),
    ClusterConfig: (
        "num_nodes",
        "replication_factor",
        "read_quorum",
        "write_quorum",
        "vnodes",
    ),
}


@pytest.mark.parametrize("cls", list(SURFACE), ids=lambda c: c.__name__)
def test_fields_match_pinned_surface(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == SURFACE[cls]
