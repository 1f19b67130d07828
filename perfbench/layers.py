"""Layer drives: direct timed calls into one layer's public functions.

The fused batch loops call the per-record layers inline, where a span per
call would cost more than the call.  Each drive instead builds its layer
standalone over a fresh ``SimDevice``, makes ``CALLS`` public calls in
``BATCHES`` batches on inputs drawn from the workload seed, and reports the
per-call microseconds of the fastest batch.

Each drive imports its layer itself: a layer that moved or lost a call
turns that drive's metrics into ``None`` and leaves the others standing.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from bench import VALUE_SIZE, encode_ids

CALLS = 20_000
BATCHES = 10
MiB = 1 << 20


def per_call_us(fn, items, calls_per_item: int = 1) -> float:
    """Run ``fn(item)`` over ``items`` in ``BATCHES`` batches; microseconds
    per call in the fastest batch."""
    size = len(items) // BATCHES
    best = float("inf")
    for b in range(BATCHES):
        batch = items[b * size : (b + 1) * size]
        t = perf_counter()
        for item in batch:
            fn(item)
        best = min(best, perf_counter() - t)
    return best / (size * calls_per_item) * 1e6


def _inputs(seed: int):
    """Shuffled keys, one value and the key range they live in."""
    from repro.common.keys import KeyRange

    rng = np.random.default_rng(seed)
    keys = encode_ids(rng.permutation(CALLS))
    value = rng.integers(0, 256, size=VALUE_SIZE, dtype=np.uint8).tobytes()
    key_space = KeyRange(encode_ids([0])[0], encode_ids([2 * CALLS])[0])
    return keys, value, key_space


def drive_nvme(seed: int) -> dict:
    from repro.common import Record
    from repro.nvme.tier import PerformanceTier
    from repro.simssd import NVME_PROFILE, SimDevice

    keys, value, key_space = _inputs(seed)
    tier = PerformanceTier(SimDevice(NVME_PROFILE.with_capacity(64 * MiB)), key_space)
    fresh = [Record(k, value, i + 1) for i, k in enumerate(keys)]
    again = [Record(k, value, CALLS + i + 1) for i, k in enumerate(keys)]
    return {
        "nvme.partition_put_us": per_call_us(tier.put, fresh),
        "nvme.partition_update_us": per_call_us(tier.put, again),
        "nvme.partition_get_us": per_call_us(tier.get, keys),
    }


def drive_hotness(seed: int) -> dict:
    from repro.hotness.tracker import HotnessTracker

    keys, _, _ = _inputs(seed)
    tracker = HotnessTracker(partition_capacity_objects=CALLS // 4)
    return {
        "hotness.access_us": per_call_us(tracker.record_access, keys),
        "hotness.is_hot_us": per_call_us(tracker.is_hot, keys),
    }


def drive_semi(seed: int) -> dict:
    from repro.common import LRUCache, Record
    from repro.lsm.semi.engine import CapacityTier
    from repro.lsm.semi.levels import SemiLevelConfig
    from repro.simssd import SATA_PROFILE, SimDevice
    from repro.simssd.fs import SimFilesystem
    from repro.simssd.traffic import TrafficKind

    keys, value, key_space = _inputs(seed)
    cap = CapacityTier(
        SimFilesystem(SimDevice(SATA_PROFILE.with_capacity(256 * MiB))),
        SemiLevelConfig(key_space=key_space, level1_target_bytes=64 * MiB),
        cache=LRUCache(256 * 1024),
    )
    # The default geometry has one L1 table spanning the key space; each
    # batch is one demotion-sized sorted run merged into it.
    table = cap.levels.table_for_key(1, keys[0], create=True)
    size = CALLS // BATCHES
    runs = [
        [Record(k, value, b * size + i + 1) for i, k in enumerate(sorted(keys[b * size : (b + 1) * size]))]
        for b in range(BATCHES)
    ]
    append_us = per_call_us(lambda run: table.merge_append(run, TrafficKind.MIGRATION), runs)
    return {
        "semi.merge_append_us_per_rec": append_us / size,
        "semi.get_us": per_call_us(cap.get, keys),
    }


def drive_simssd(seed: int) -> dict:
    from repro.simssd import NVME_PROFILE, SimDevice
    from repro.simssd.traffic import TrafficKind

    rng = np.random.default_rng(seed)
    dev = SimDevice(NVME_PROFILE)
    fg = TrafficKind.FOREGROUND
    pages = rng.integers(1, 5, size=CALLS).tolist()

    def charge(n: int) -> None:
        dev.read_pages(n, fg)
        dev.write_pages(n, fg, sequential=False)

    group = 250
    groups = [pages[i : i + group] for i in range(0, CALLS, group)]
    return {
        "simssd.charge_us": per_call_us(charge, pages, calls_per_item=2),
        "simssd.charge_batch_us_per_io": per_call_us(
            lambda g: dev.write_pages_batch(g, fg, sequential=False),
            groups, calls_per_item=group,
        ),
    }


def drive_lsm(seed: int) -> dict:
    from repro.common import LRUCache
    from repro.lsm.lsmtree import LSMOptions, LSMTree
    from repro.simssd import NVME_PROFILE, SimDevice
    from repro.simssd.fs import SimFilesystem

    keys, value, _ = _inputs(seed)
    tree = LSMTree(
        SimFilesystem(SimDevice(NVME_PROFILE)), LSMOptions(), cache=LRUCache(256 * 1024)
    )

    def put_get(key: bytes) -> None:
        tree.put(key, value)
        tree.get(key)

    return {"lsm.get_put_us": per_call_us(put_get, keys[: CALLS // 2], calls_per_item=2)}


def drive_common(seed: int) -> dict:
    from repro.common import BloomFilter, BTreeIndex, LRUCache, Record
    from repro.lsm.blocks import decode_one, encode_record

    keys, value, _ = _inputs(seed)
    out = {}
    tree = BTreeIndex(order=64)
    out["common.btree_insert_us"] = per_call_us(lambda k: tree.insert(k, 1), keys)
    out["common.btree_get_us"] = per_call_us(tree.get, keys)
    bloom = BloomFilter.for_keys(keys[: CALLS // 2])
    out["common.bloom_probe_us"] = per_call_us(bloom.__contains__, keys)
    # A working set twice the cache, so hits, replacements and evictions
    # are all on the clock.
    cache = LRUCache(CALLS // 8 * 256)

    def touch(i: int) -> None:
        if cache.get(i) is None:
            cache.put(i, i, charge=256)

    rng = np.random.default_rng(seed)
    out["common.lru_us"] = per_call_us(touch, rng.integers(0, CALLS // 4, size=CALLS).tolist())
    records = [Record(k, value, i + 1) for i, k in enumerate(keys)]
    out["common.record_encode_us"] = per_call_us(encode_record, records)
    out["common.record_decode_us"] = per_call_us(decode_one, [encode_record(r) for r in records])
    return out


#: layer -> (drive, engine whose workloads use the layer or None for all,
#: the metrics the drive reports).
DRIVES = {
    "nvme": (drive_nvme, "hyperdb", [
        "nvme.partition_put_us", "nvme.partition_update_us", "nvme.partition_get_us"]),
    "hotness": (drive_hotness, "hyperdb", ["hotness.access_us", "hotness.is_hot_us"]),
    "semi": (drive_semi, "hyperdb", ["semi.merge_append_us_per_rec", "semi.get_us"]),
    "simssd": (drive_simssd, None, ["simssd.charge_us", "simssd.charge_batch_us_per_io"]),
    "lsm": (drive_lsm, "rocksdb", ["lsm.get_put_us"]),
    "common": (drive_common, None, [
        "common.btree_insert_us", "common.btree_get_us", "common.bloom_probe_us",
        "common.lru_us", "common.record_encode_us", "common.record_decode_us"]),
}


def run_drives(seed: int, engine: str, unresolved: list[str]) -> dict:
    """The (d) metrics for a workload on ``engine``: 0 for a layer the
    engine does not have, ``None`` for a drive that no longer runs."""
    out = {}
    for layer, (drive, serves, metrics) in DRIVES.items():
        if serves is not None and serves != engine:
            out.update(dict.fromkeys(metrics, 0.0))
            continue
        try:
            numbers = drive(seed)
        except Exception as exc:  # a moved module or a renamed public call
            unresolved.append(f"drive {layer}: {type(exc).__name__}: {exc}")
            numbers = dict.fromkeys(metrics)
        out.update(numbers)
    return out
