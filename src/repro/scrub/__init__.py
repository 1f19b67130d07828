"""Background integrity scrub & replica repair (DESIGN.md §13)."""

from repro.scrub.scrubber import (
    ScrubConfig,
    ScrubStats,
    Scrubber,
    scrub_lsm_tree,
)

__all__ = ["ScrubConfig", "ScrubStats", "Scrubber", "scrub_lsm_tree"]
