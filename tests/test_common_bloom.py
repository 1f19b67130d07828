"""Unit tests for the bloom filter."""

import hashlib

import numpy as np
import pytest

from repro.common import bloom
from repro.common.bloom import BloomFilter, KeyHashes, hash_many, hash_pair, key_digest
from repro.common.keys import encode_key


class TestBloomFilter:
    def test_no_false_negatives(self):
        bf = BloomFilter(capacity=1000)
        keys = [encode_key(i) for i in range(1000)]
        for k in keys:
            bf.add(k)
        assert all(k in bf for k in keys)

    def test_false_positive_rate_under_two_percent(self):
        # Paper config: 10 bits/key targets <1%; allow slack for a small sample.
        bf = BloomFilter(capacity=5000, bits_per_key=10)
        for i in range(5000):
            bf.add(encode_key(i))
        fps = sum(1 for i in range(5000, 15000) if encode_key(i) in bf)
        assert fps / 10000 < 0.02

    def test_count_and_is_full(self):
        bf = BloomFilter(capacity=3)
        assert not bf.is_full
        for i in range(3):
            bf.add(encode_key(i))
        assert bf.count == 3
        assert bf.is_full

    def test_duplicates_count_toward_capacity(self):
        bf = BloomFilter(capacity=2)
        bf.add(b"a")
        bf.add(b"a")
        assert bf.is_full

    def test_empty_filter_contains_nothing(self):
        bf = BloomFilter(capacity=10)
        assert encode_key(1) not in bf
        assert bf.fill_ratio() == 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BloomFilter(capacity=0)
        with pytest.raises(ValueError):
            BloomFilter(capacity=10, bits_per_key=0)

    def test_for_keys_builder(self):
        keys = [encode_key(i) for i in range(50)]
        bf = BloomFilter.for_keys(keys)
        assert all(k in bf for k in keys)
        assert bf.capacity == 50

    def test_for_keys_empty(self):
        bf = BloomFilter.for_keys([])
        assert b"x" not in bf

    def test_fill_ratio_grows(self):
        bf = BloomFilter(capacity=100)
        before = bf.fill_ratio()
        for i in range(100):
            bf.add(encode_key(i))
        assert bf.fill_ratio() > before

    @pytest.mark.parametrize("bits_per_key", [4, 16])
    def test_serialization_round_trip_nondefault_bits(self, bits_per_key):
        keys = [encode_key(i) for i in range(64)]
        bf = BloomFilter(capacity=64, bits_per_key=bits_per_key)
        for k in keys:
            bf.add(k)
        clone = BloomFilter.from_bytes(bf.to_bytes())
        assert clone.capacity == 64
        assert clone.bits_per_key == bits_per_key
        assert clone.num_bits == bf.num_bits
        assert clone.num_hashes == bf.num_hashes
        assert clone.count == bf.count
        assert clone.is_full == bf.is_full
        assert all(k in clone for k in keys)
        assert clone.to_bytes() == bf.to_bytes()

    def test_round_trip_partial_fill_preserves_count(self):
        bf = BloomFilter(capacity=100, bits_per_key=16)
        for i in range(10):
            bf.add(encode_key(i))
        clone = BloomFilter.from_bytes(bf.to_bytes())
        assert clone.count == 10
        assert not clone.is_full
        clone.add(encode_key(999))
        assert clone.count == 11

    def test_truncated_bit_array_rejected(self):
        bf = BloomFilter(capacity=64, bits_per_key=16)
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(bf.to_bytes()[:-1])

    def test_add_many_matches_scalar_adds(self):
        # The vectorized and scalar paths must place identical bits.
        keys = [encode_key(i) for i in range(200)]
        scalar = BloomFilter(capacity=200)
        for k in keys:
            scalar.add(k)
        bulk = BloomFilter(capacity=200)
        bulk.add_pairs(hash_many(keys))
        assert scalar.to_bytes() == bulk.to_bytes()

    def test_hashed_api_matches_keyed(self):
        bf = BloomFilter(capacity=10)
        h1, h2 = hash_pair(key_digest(b"k"))
        bf.add_hashed(h1, h2)
        assert b"k" in bf
        assert bf.contains_hashed(h1, h2)
        assert bf.count == 1


def _random_pairs(rng, n, distinct):
    """``n`` base-hash pairs drawn with replacement from ``distinct`` random
    ones, as :func:`hash_many` returns them."""
    pool = rng.integers(0, 2**64, size=(distinct, 2), dtype=np.uint64)
    return pool[rng.integers(0, distinct, size=n)]


def _scalar_build(capacity, *batches):
    bf = BloomFilter(capacity)
    for batch in batches:
        for h1, h2 in batch.tolist():
            bf.add_hashed(h1, h2)
    return bf


class TestPackedPlacement:
    """``add_pairs`` (one packed placement) against per-pair ``add_hashed``."""

    @pytest.mark.parametrize("capacity", [1, 7, 13, 100, 1001])
    def test_matches_per_pair_adds_with_duplicates(self, capacity):
        rng = np.random.default_rng(capacity)
        pairs = _random_pairs(rng, 3 * capacity, max(1, capacity // 2))
        packed = BloomFilter(capacity)
        packed.add_pairs(pairs)
        scalar = _scalar_build(capacity, pairs)
        assert packed.to_bytes() == scalar.to_bytes()
        assert packed.count == scalar.count == len(pairs)

    def test_bit_count_not_a_multiple_of_eight(self):
        # capacity 7 at 10 bits/key: 70 bits, the last byte is part used.
        bf = BloomFilter(capacity=7)
        assert bf.num_bits == 70 and len(bf._bits) * 8 == 72
        pairs = _random_pairs(np.random.default_rng(70), 40, 40)
        bf.add_pairs(pairs)
        assert bf._bits == _scalar_build(7, pairs)._bits
        assert bf._bits[-1] >> 6 == 0  # no position reaches bits 70 and 71

    def test_ors_into_bits_already_set(self):
        rng = np.random.default_rng(3)
        first, second = _random_pairs(rng, 50, 30), _random_pairs(rng, 50, 30)
        packed = BloomFilter(capacity=100)
        packed.add_pairs(first)
        packed.add_pairs(second)
        assert packed.to_bytes() == _scalar_build(100, first, second).to_bytes()

    def test_empty_batch_sets_nothing(self):
        bf = BloomFilter(capacity=10)
        bf.add_pairs(hash_many([]))
        assert bf.fill_ratio() == 0.0 and bf.count == 0

    def test_memo_built_filter_round_trips(self):
        keys = [encode_key(i) for i in range(300)]
        bf = BloomFilter.for_keys(keys, key_hashes=KeyHashes())
        assert bf.to_bytes() == _scalar_build(300, hash_many(keys)).to_bytes()
        clone = BloomFilter.from_bytes(bf.to_bytes())
        assert clone.to_bytes() == bf.to_bytes()
        assert all(k in clone for k in keys)

    def test_contains_many_agrees_with_contains_hashed(self):
        keys = [encode_key(i) for i in range(600)]
        memo = KeyHashes()
        bf = BloomFilter.for_keys(keys[::3], key_hashes=memo)
        hashes = hash_many(keys, memo)
        verdicts = bf.contains_many(hashes).tolist()
        assert verdicts == [bf.contains_hashed(*memo.pair(k)) for k in keys]
        assert hashes.tolist() == [list(hash_pair(key_digest(k))) for k in keys]


class TestKeyHashes:
    def test_memo_hashes_each_key_once(self, monkeypatch):
        calls = []

        def counting(key):
            calls.append(key)
            return hashlib.blake2b(key, digest_size=16).digest()

        monkeypatch.setattr(bloom, "key_digest", counting)
        memo = KeyHashes()
        keys = [b"a", b"b", b"a", b"c", b"b"]
        assert [memo.pair(k) for k in keys] == [
            hash_pair(hashlib.blake2b(k, digest_size=16).digest()) for k in keys
        ]
        hash_many(keys, memo)
        BloomFilter.for_keys(keys, key_hashes=memo)
        assert calls == [b"a", b"b", b"c"]
        assert memo.pairs([memo[b"c"]]).tolist() == [list(memo.pair(b"c"))]

    def test_module_holds_no_mutable_container(self):
        mutable = (dict, list, set, bytearray, np.ndarray)
        found = [
            name for name, value in vars(bloom).items()
            if isinstance(value, mutable) and not name.startswith("__")
        ]
        assert found == []
