"""Reads carry entries: a value is sliced only where one is handed out.

Each tier's one-record reader returns the verified ``(key, seqno, flags,
raw)`` entry, and ``HyperDB.scan`` merges the two entry streams, slicing a
value (:func:`repro.lsm.blocks.value_of`) for the rows it returns and no
others.  These tests pin that no read builds a :class:`Record`, and that
the entry readers charge exactly what the record readers charged: the same
cache calls, media reads and tracker accesses.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.common.keys import encode_key
from repro.simssd import TrafficKind
from tests.test_entry_pipeline import CODEC, count_codec
from tests.test_hyperdb_core import KiB, make_db

FG = TrafficKind.FOREGROUND
DELETED = range(4000, 9000, 48)
#: The mix's charges.  The capacity tier's reader fetches a record's
#: pages, not its block: (323, 102, 99) and (77, 50) while it read blocks.
PINNED_CACHE = (163, 101, 97)  # hits, misses, evictions
PINNED_READS = (71, 42)  # foreground read commands: NVMe, SATA
PINNED_ACCESSES = [1095, 798, 825, 656]  # per partition, load included


def value(i: int) -> bytes:
    return bytes([i % 251]) * 300


@pytest.fixture
def two_tier():
    """A store whose NVMe tier overflowed into the capacity tier during the
    load, with a DRAM LRU smaller than one scan's pages and blocks, and the
    dict it must agree with."""
    db = make_db(nvme_mib=1, dram_cache_bytes=16 * KiB)
    ids = np.arange(0, 48_000, 16)
    np.random.default_rng(3).shuffle(ids)
    for i in ids.tolist():
        db.put(encode_key(i), value(i))
    for i in DELETED:
        db.delete(encode_key(i))
    model = {encode_key(i): value(i) for i in ids.tolist() if i not in DELETED}
    assert db.performance_tier.object_count() > 0
    assert db.capacity_tier.levels.num_valid_records() > 0
    return db, model


def expected_scan(model, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
    return [(k, model[k]) for k in sorted(k for k in model if k >= start)[:count]]


def test_scan_slices_a_value_per_returned_row_only(two_tier, monkeypatch):
    db, model = two_tier
    calls = count_codec(monkeypatch, CODEC + ("value_of",))
    for start, count in ((0, 60), (4000, 120), (12_490, 40), (47_990, 30)):
        calls.clear()
        pairs, _ = db.scan(encode_key(start), count)
        assert pairs == expected_scan(model, encode_key(start), count)
        assert calls == Counter(value_of=len(pairs))


def test_nvme_hit_builds_no_record(two_tier, monkeypatch):
    db, model = two_tier
    tier = db.performance_tier
    live = next(k for k in sorted(model) if tier.partition_for_key(k).contains(k))
    dead = next(
        k for i in DELETED if tier.partition_for_key(k := encode_key(i)).contains(k)
    )
    calls = count_codec(monkeypatch, CODEC + ("value_of",))
    hits = db.stats.counter("nvme_hits").value
    assert [v for v, _ in db.get_many([live, dead])] == [model[live], None]
    assert db.stats.counter("nvme_hits").value == hits + 2
    assert calls == Counter(value_of=1)


def test_scan_and_get_charges_are_pinned(two_tier):
    """A fixed mix of scans and gets charges the figures the record readers
    charged: the same LRU hits, misses and evictions, foreground media
    reads on both devices, and tracker accesses per partition."""
    db, model = two_tier
    nvme_reads = db.nvme_device.traffic.read_ios(FG)
    sata_reads = db.sata_device.traffic.read_ios(FG)
    for start, count in ((0, 60), (4000, 120), (12_490, 40), (30_000, 100)):
        pairs, _ = db.scan(encode_key(start), count)
        assert pairs == expected_scan(model, encode_key(start), count)
        for i in range(start, start + 40 * 16, 40):
            got, _ = db.get(encode_key(i))
            assert got == model.get(encode_key(i))
    cache = db.cache
    assert (cache.hits, cache.misses, cache.evictions) == PINNED_CACHE
    assert (
        db.nvme_device.traffic.read_ios(FG) - nvme_reads,
        db.sata_device.traffic.read_ios(FG) - sata_reads,
    ) == PINNED_READS
    assert [p.tracker.accesses for p in db.performance_tier.partitions] == PINNED_ACCESSES
