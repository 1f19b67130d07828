"""Unit tests for key encoding and key-range arithmetic."""

import pytest

from repro.common.keys import (
    KeyRange,
    decode_key,
    encode_key,
    ranges_overlap,
)


class TestEncodeKey:
    def test_roundtrip(self):
        for kid in (0, 1, 255, 256, 2**32, 2**63 - 1):
            assert decode_key(encode_key(kid)) == kid

    def test_preserves_order(self):
        ids = [0, 1, 2, 100, 255, 256, 65535, 10**6]
        encoded = [encode_key(i) for i in ids]
        assert encoded == sorted(encoded)

    def test_fixed_width(self):
        assert len(encode_key(0)) == 8
        assert len(encode_key(2**63 - 1)) == 8

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_key(-1)

    def test_custom_width(self):
        assert len(encode_key(5, width=4)) == 4


class TestKeyRange:
    def test_contains_half_open(self):
        r = KeyRange(encode_key(10), encode_key(20))
        assert r.contains(encode_key(10))
        assert r.contains(encode_key(19))
        assert not r.contains(encode_key(20))
        assert not r.contains(encode_key(9))

    def test_unbounded_hi(self):
        r = KeyRange(encode_key(10))
        assert r.contains(encode_key(10**9))
        assert not r.contains(encode_key(9))

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            KeyRange(encode_key(10), encode_key(10))
        with pytest.raises(ValueError):
            KeyRange(encode_key(10), encode_key(5))


class TestRangeHelpers:
    def test_ranges_overlap_matrix(self):
        e = encode_key
        assert ranges_overlap(e(0), e(10), e(9), e(20))
        assert not ranges_overlap(e(0), e(10), e(10), e(20))
        assert ranges_overlap(e(0), None, e(999), None)
        assert not ranges_overlap(e(0), e(5), e(5), None)
