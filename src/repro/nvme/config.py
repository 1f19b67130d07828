"""Configuration of the NVMe performance tier."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError

KiB = 1024

#: Slot size classes, ascending.  An object takes the smallest class that
#: fits it; larger objects get a dedicated page-rounded slot.
SLOT_CLASSES: tuple[int, ...] = (
    64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096,
)
#: A zone splits when it holds more than this many times the objects of
#: one migration batch (§3.2 periodic re-sizing).
ZONE_SPLIT_FACTOR = 2.0
#: Bloom filters in each partition's cascading hotness discriminator.
TRACKER_MAX_FILTERS = 4
#: The paper uses "present in >= 3 of 4 filters" with each filter's
#: window spanning the full NVMe object capacity.  Our filters each
#: span capacity/max_filters (so the chain covers the same horizon),
#: and the equivalent sustained-interval condition is 2 consecutive
#: quarter-capacity windows.
TRACKER_HOT_THRESHOLD = 2
#: Entries in the promotion staging cache of hot capacity-tier objects.
OBJECT_CACHE_ENTRIES = 256


def slot_class_for(size: int) -> int:
    """Smallest slot class that fits ``size`` bytes.

    Objects larger than the largest class get a dedicated multi-page
    slot rounded up to whole pages by the zone.
    """
    for cls in SLOT_CLASSES:
        if size <= cls:
            return cls
    return size  # oversized: dedicated slot, page-rounded by the zone


@dataclass
class NVMeConfig:
    """Tuning of partitions, zones and migration thresholds.

    Defaults follow the paper's implementation notes (§3.6): 8 partitions
    per device, zone capacity equal to the migration batch (and to the
    semi-SSTable file size) and watermark-driven demotion.  Slot classes,
    the zone split factor and the hotness discriminator's shape are the
    module constants above.
    """

    num_partitions: int = 8
    migration_batch_bytes: int = 64 * KiB
    high_watermark: float = 0.90
    low_watermark: float = 0.80
    hot_zone_fraction: float = 0.10
    initial_zones_per_partition: int = 4

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ConfigError("need at least one partition")
        if not 0.0 < self.low_watermark < self.high_watermark <= 1.0:
            raise ConfigError(
                "watermarks must satisfy 0 < low < high <= 1, got "
                f"low={self.low_watermark} high={self.high_watermark}"
            )
        if self.migration_batch_bytes <= 0:
            raise ConfigError("migration batch must be positive")
