"""Top-level HyperDB configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.common.errors import ConfigError
from repro.common.keys import KeyRange
from repro.nvme.config import NVMeConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.scrub import ScrubConfig

KiB = 1024
MiB = 1024 * KiB


@dataclass
class HyperDBConfig:
    """All tuning of a HyperDB instance.

    Defaults are scaled 1/1024 from the paper's testbed (§4.1): a 64 MB DRAM
    page LRU becomes 64 KiB, 64 MB SSTables become 64 KiB files, and the
    zone size equals the semi-SSTable file size (§3.6).
    """

    key_space: KeyRange
    nvme: NVMeConfig = field(default_factory=NVMeConfig)
    # Capacity-tier geometry.
    semi_num_levels: int = 3
    semi_size_ratio: int = 8
    semi_bottom_segments: int = 64
    semi_level1_target_bytes: int = 512 * KiB
    # Preemptive block compaction.
    compaction_depth: int = 2
    t_clean: float = 0.5
    space_amp_limit: float = 1.5
    candidate_k: int = 8
    # Shared DRAM page cache.
    dram_cache_bytes: int = 64 * KiB
    # Ablation switches (used by the ablation benches).
    enable_hot_zone: bool = True
    enable_preemptive_compaction: bool = True
    #: Background integrity scrubbing (:mod:`repro.scrub`).  ``None`` — the
    #: default — builds no scrubber at all, so scrub-disabled digests stay
    #: byte-identical.  Pass a :class:`repro.scrub.ScrubConfig` to enable.
    scrub: Optional["ScrubConfig"] = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.key_space.hi is None:
            raise ConfigError("HyperDB requires a bounded key space")
        if self.dram_cache_bytes < 0:
            raise ConfigError("cache size must be non-negative")
