"""Shared primitives used across every HyperDB subsystem.

This package contains the building blocks that the storage engines are
assembled from: key encoding, record formats, probabilistic filters, ordered
in-memory containers, caches, and measurement utilities.  Nothing in here
knows about tiers, devices, or LSM-trees.
"""

from repro.common.errors import (
    ReproError,
    KeyNotFoundError,
    CapacityError,
    OutOfSpaceError,
    DeviceOfflineError,
    CorruptionError,
    TransientIOError,
    RetryExhaustedError,
    PowerLossError,
    RecoveryError,
    ClosedError,
    ConfigError,
)
from repro.common.records import Record
from repro.common.keys import (
    encode_key,
    decode_key,
    ranges_overlap,
    KeyRange,
)
from repro.common.bloom import BloomFilter
from repro.common.btree import BTreeIndex
from repro.common.cache import LRUCache, ObjectCache
from repro.common.stats import Counter, LatencyHistogram, StatsRegistry

__all__ = [
    "ReproError",
    "KeyNotFoundError",
    "CapacityError",
    "OutOfSpaceError",
    "DeviceOfflineError",
    "CorruptionError",
    "TransientIOError",
    "RetryExhaustedError",
    "PowerLossError",
    "RecoveryError",
    "ClosedError",
    "ConfigError",
    "Record",
    "encode_key",
    "decode_key",
    "ranges_overlap",
    "KeyRange",
    "BloomFilter",
    "BTreeIndex",
    "LRUCache",
    "ObjectCache",
    "Counter",
    "LatencyHistogram",
    "StatsRegistry",
]
