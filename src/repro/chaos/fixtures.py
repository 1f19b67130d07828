"""What the soak and crash harnesses build their runs from: tiny devices,
a small HyperDB geometry and the seeded op-stream generator — sized so a
few hundred operations produce migration, compaction and watermark
pressure, and a health window or crash point lands in real background
activity.  Each harness adjusts what it needs with
:func:`dataclasses.replace`.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.common.keys import KeyRange, encode_key
from repro.core.config import HyperDBConfig
from repro.nvme.config import NVMeConfig
from repro.simssd.profiles import DeviceProfile

KiB = 1024
MiB = 1024 * KiB

NVME_PROFILE = DeviceProfile(
    name="nvme",
    capacity_bytes=1 * MiB,
    page_size=4096,
    read_latency_s=8e-5,
    write_latency_s=2e-5,
    read_bandwidth=6.5e9,
    write_bandwidth=3.5e9,
)
SATA_PROFILE = DeviceProfile(
    name="sata",
    capacity_bytes=64 * MiB,
    page_size=4096,
    read_latency_s=2e-4,
    write_latency_s=6e-5,
    read_bandwidth=5.6e8,
    write_bandwidth=5.1e8,
)

#: One op of a stream: ``("put" | "get" | "del", key, value or None)``.
Op = tuple[str, bytes, Optional[bytes]]

#: ~45 % put, ~45 % get, ~10 % delete (YCSB-A-style), as cumulative
#: thresholds on one uniform draw.
MIXED = (("put", 0.45), ("get", 0.90), ("del", 1.0))


def small_hyperdb_config() -> HyperDBConfig:
    """Two partitions, 16 KiB migration batches, three shallow semi-LSM
    levels over the 50,000-key space the streams and pump keys live in."""
    return HyperDBConfig(
        key_space=KeyRange(encode_key(0), encode_key(50_000)),
        nvme=NVMeConfig(
            num_partitions=2,
            initial_zones_per_partition=2,
            migration_batch_bytes=16 * KiB,
        ),
        semi_num_levels=3,
        semi_size_ratio=4,
        semi_bottom_segments=16,
        semi_level1_target_bytes=128 * KiB,
    )


def ops_stream(
    seed: int,
    n: int,
    universe: int = 2_000,
    key: Callable[[int], bytes] = encode_key,
    mix: tuple[tuple[str, float], ...] = MIXED,
    pad: tuple[int, int] = (600, 1800),
    tag: bytes = b"v%06d.",
) -> list[Op]:
    """Deterministic op stream over ``universe`` keys.

    Each op draws a key, then one uniform number that picks the op type
    from ``mix``; a put's value is ``tag % op_index`` followed by
    ``pad``-bounded random bytes, so every version of every key — and
    every prefix of the stream — is byte-distinguishable.
    """
    rng = random.Random(seed)
    ops: list[Op] = []
    for i in range(n):
        k = key(rng.randrange(universe))
        r = rng.random()
        op = next(name for name, below in mix if r < below)
        if op == "put":
            size = rng.randrange(*pad)
            value = tag % i + bytes(rng.randrange(256) for _ in range(size))
            ops.append((op, k, value))
        else:
            ops.append((op, k, None))
    return ops
