"""Regression tests for the accounting bugs found during the batched-
pipeline sweep.  Each test fails on the pre-fix code:

1. ``LatencyHistogram(initial_capacity=0)`` could never grow: the buffer
   doubles on overflow and ``2 * 0 == 0``, so ``record`` stepped past the
   end (IndexError) and ``record_many`` looped forever.
2. ``Partition.put``'s in-place-update path returned before calling
   ``_maybe_calibrate_tracker``, so update-heavy workloads never re-derived
   the hotness window from the measured object size (Eq. 1).
3. ``PageStore.free`` released a page without invalidating its
   ``page_id``-keyed cache entry.  Page ids are never reused, so every
   non-tombstone free path (zone demotion, promoted-entry eviction,
   ``drop_resident``, ``reset_state``) leaked dead bytes into the
   byte-budgeted DRAM LRU forever, evicting live entries.
4. ``write_pages_batch``/``read_pages_batch`` charged non-positive page
   counts through the charge memo (``ios=1`` plus a latency charge) while
   ``write_pages``/``read_pages`` return 0.0 without touching the
   ledger.  Both names are per-charge loops now; empty elements still
   charge nothing.
"""

import numpy as np

from repro.common.cache import LRUCache
from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.common.stats import LatencyHistogram
from repro.nvme import NVMeConfig, PageStore, PerformanceTier
from repro.simssd import DeviceProfile, SimDevice, TrafficKind

KEYSPACE = 100_000


def make_device(mib=32):
    profile = DeviceProfile(
        name="nvme",
        capacity_bytes=mib * (1 << 20),
        page_size=4096,
        read_latency_s=8e-5,
        write_latency_s=2e-5,
        read_bandwidth=6.5e9,
        write_bandwidth=3.5e9,
    )
    return SimDevice(profile)


def key_space():
    return KeyRange(encode_key(0), encode_key(KEYSPACE))


class TestHistogramZeroCapacity:
    def test_record_grows_from_zero_capacity(self):
        h = LatencyHistogram(initial_capacity=0)
        h.record(1.0)
        h.record(2.0)
        assert h.count == 2
        assert list(h.samples()) == [1.0, 2.0]

    def test_record_many_grows_from_zero_capacity(self):
        # Pre-fix this looped forever (the grow loop doubled a zero-length
        # buffer); the fix makes it terminate, so a plain assertion is safe
        # once test 1 (the IndexError form of the same bug) passes.
        h = LatencyHistogram(initial_capacity=0)
        h.record_many(np.array([3.0, 4.0, 5.0]))
        assert h.count == 3
        assert list(h.samples()) == [3.0, 4.0, 5.0]


class TestInPlaceCalibration:
    def test_update_heavy_workload_still_calibrates(self):
        tier = PerformanceTier(
            make_device(), key_space(), NVMeConfig(num_partitions=1)
        )
        part = tier.partitions[0]
        value = b"v" * 100
        seq = 0
        # 100 distinct keys (new-slot writes), then same-size updates that
        # all take the in-place path.  Calibration triggers at 512 written
        # objects — reached only by in-place writes here.
        for i in range(100):
            seq += 1
            part.put(Record(encode_key(i * 7), value, seq))
        assert not part._tracker_calibrated
        for round_no in range(5):
            for i in range(100):
                seq += 1
                part.put(Record(encode_key(i * 7), value, seq))
        assert part._written_objects >= 512
        assert part._tracker_calibrated

    def test_new_slot_path_still_calibrates(self):
        tier = PerformanceTier(
            make_device(), key_space(), NVMeConfig(num_partitions=1)
        )
        part = tier.partitions[0]
        for i in range(520):
            part.put(Record(encode_key(i * 3), b"v" * 100, i + 1))
        assert part._tracker_calibrated


class TestFreeInvalidatesCache:
    def test_pagestore_free_drops_cached_page(self):
        cache = LRUCache(1 << 20)
        ps = PageStore(make_device(1), cache=cache)
        (pid,) = ps.allocate()
        ps.write_spans({pid: [1, 0, b"payload"]}, TrafficKind.FOREGROUND)
        ps.commit()
        ps.read(pid, TrafficKind.FOREGROUND)
        assert pid in cache
        ps.free(pid)
        assert pid not in cache
        assert cache.used_bytes == 0

    def test_drop_resident_leaves_no_dead_cache_bytes(self):
        # End-to-end form: drop_resident frees slot pages without writing a
        # tombstone, which was the leak path (tombstone writes incidentally
        # invalidated; bare frees never did).
        cache = LRUCache(1 << 20)
        tier = PerformanceTier(
            make_device(), key_space(), NVMeConfig(num_partitions=1), cache=cache
        )
        part = tier.partitions[0]
        key = encode_key(42)
        # A big value gets a dedicated (oversized) slot, so freeing it
        # releases its pages immediately.
        part.put(Record(key, b"v" * 8000, 1))
        part.page_store.commit()  # out of the write window, so cacheable
        part.get(key)  # populate the page cache
        loc = part.resident_location(key)
        assert loc.page_id in cache
        assert part.drop_resident(key)
        assert loc.page_id not in cache


class TestBatchFastpathFallbackParity:
    def test_batch_equals_scalar_charge_sequence(self):
        # A batch call must land the ledger exactly where the same charges
        # issued one by one through write_pages/read_pages would.
        counts = [5, 0, 3, 3, 12, 0, 1]
        batch = make_device()
        scalar = make_device()
        batch.write_pages_batch(counts, TrafficKind.FLUSH)
        batch.read_pages_batch(counts, TrafficKind.MIGRATION)
        for p in counts:
            scalar.write_pages(p, TrafficKind.FLUSH)
        for p in counts:
            scalar.read_pages(p, TrafficKind.MIGRATION)
        assert batch.traffic.snapshot() == scalar.traffic.snapshot()
