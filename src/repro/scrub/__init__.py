"""Background integrity scrub for HyperDB (DESIGN.md §13)."""

from repro.scrub.scrubber import ScrubConfig, ScrubStats, Scrubber

__all__ = ["ScrubConfig", "ScrubStats", "Scrubber"]
