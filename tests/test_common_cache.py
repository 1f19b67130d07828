"""Unit tests for LRUCache and ObjectCache."""

import pytest

from repro.common.cache import LRUCache, ObjectCache


class TestLRUCache:
    def test_put_get(self):
        c = LRUCache(100)
        c.put("a", 1, charge=10)
        assert c.get("a") == 1
        assert c.used_bytes == 10

    def test_eviction_order(self):
        c = LRUCache(30)
        c.put("a", 1, charge=10)
        c.put("b", 2, charge=10)
        c.put("c", 3, charge=10)
        c.get("a")  # refresh a; b is now LRU
        c.put("d", 4, charge=10)
        assert "b" not in c
        assert "a" in c and "c" in c and "d" in c

    def test_replace_adjusts_charge(self):
        c = LRUCache(100)
        c.put("a", 1, charge=60)
        c.put("a", 2, charge=10)
        assert c.used_bytes == 10
        assert c.get("a") == 2

    def test_oversized_entry_not_cached(self):
        c = LRUCache(10)
        c.put("big", 1, charge=100)
        assert "big" not in c
        assert c.used_bytes == 0

    def test_oversized_replaces_existing(self):
        c = LRUCache(10)
        c.put("k", 1, charge=5)
        c.put("k", 2, charge=100)
        assert "k" not in c

    def test_hit_miss_counters(self):
        c = LRUCache(100)
        c.put("a", 1)
        c.get("a")
        c.get("zz")
        assert c.hits == 1 and c.misses == 1
        assert c.hit_rate == 0.5

    def test_peek_no_side_effects(self):
        c = LRUCache(100)
        c.put("a", 1)
        assert c.peek("a") == 1
        assert c.hits == 0 and c.misses == 0

    def test_invalidate(self):
        c = LRUCache(100)
        c.put("a", 1, charge=7)
        assert c.invalidate("a")
        assert not c.invalidate("a")
        assert c.used_bytes == 0

    def test_uncacheable_overwrite_releases_charge(self):
        # Regression: overwriting a cached entry with an uncacheable value
        # used to drop the entry without refunding its charge, leaking
        # used_bytes until the budget was permanently exhausted.
        c = LRUCache(10)
        c.put("k", 1, charge=8)
        c.put("k", 2, charge=100)  # uncacheable; must release the old 8B
        assert c.used_bytes == 0
        c.put("a", 3, charge=10)  # the full budget is available again
        assert c.get("a") == 3
        assert c.used_bytes == 10

    def test_repeated_uncacheable_overwrites_do_not_leak(self):
        c = LRUCache(10)
        for _ in range(5):
            c.put("k", 1, charge=6)
            c.put("k", 2, charge=11)
        assert len(c) == 0
        assert c.used_bytes == 0

    def test_zero_capacity(self):
        c = LRUCache(0)
        c.put("a", 1, charge=1)
        assert "a" not in c

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)


class TestObjectCache:
    def test_spill_on_eviction(self):
        spilled = []
        c = ObjectCache(2, on_evict=lambda k, v: spilled.append((k, v)))
        c.put("a", 1)
        c.put("b", 2)
        c.put("c", 3)
        assert spilled == [("a", 1)]
        assert "a" not in c

    def test_get_refreshes(self):
        spilled = []
        c = ObjectCache(2, on_evict=lambda k, v: spilled.append(k))
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")
        c.put("c", 3)
        assert spilled == ["b"]

    def test_pop(self):
        c = ObjectCache(4)
        c.put("a", 1)
        assert c.pop("a") == 1
        assert c.pop("a", "dflt") == "dflt"

    def test_drain(self):
        spilled = []
        c = ObjectCache(4, on_evict=lambda k, v: spilled.append(k))
        c.put("a", 1)
        c.put("b", 2)
        out = c.drain()
        assert [k for k, _ in out] == ["a", "b"]
        assert spilled == ["a", "b"]
        assert len(c) == 0

    def test_drain_callback_failure_no_double_spill(self):
        # Regression: drain used to spill an entry before removing it, so a
        # callback failure left the entry in the cache and a retried drain
        # flushed it to the hot zone twice.
        spilled = []

        def on_evict(key, value):
            if key == "b":
                raise RuntimeError("spill target unavailable")
            spilled.append(key)

        c = ObjectCache(4, on_evict=on_evict)
        c.put("a", 1)
        c.put("b", 2)
        c.put("c", 3)
        with pytest.raises(RuntimeError):
            c.drain()
        # "a" spilled once; "b" was popped before its callback failed.
        assert spilled == ["a"]
        assert "a" not in c and "b" not in c
        out = c.drain()
        assert [k for k, _ in out] == ["c"]
        assert spilled == ["a", "c"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ObjectCache(0)
