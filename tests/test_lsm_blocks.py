"""Unit tests for record/block encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CorruptionError
from repro.common.records import Record
from repro.lsm import blocks
from repro.lsm.blocks import decode_one, encode_record
from tests.reference_codec import decode_block, decode_payload, encode_block

records = st.builds(
    Record,
    key=st.binary(max_size=40),
    value=st.binary(max_size=300),
    seqno=st.integers(min_value=0, max_value=2**64 - 1),
    deleted=st.booleans(),
)


class TestRecordEncoding:
    def test_roundtrip(self):
        rec = Record(b"key", b"value", 42)
        out = list(decode_payload(encode_record(rec)))
        assert len(out) == 1
        assert out[0].key == b"key" and out[0].value == b"value" and out[0].seqno == 42

    def test_tombstone_roundtrip(self):
        rec = Record.tombstone(b"k", 7)
        (out,) = decode_payload(encode_record(rec))
        assert out.is_tombstone

    def test_empty_value(self):
        rec = Record(b"k", b"", 1)
        (out,) = decode_payload(encode_record(rec))
        assert out.value == b"" and not out.is_tombstone

    def test_encoded_size_matches(self):
        rec = Record(b"abc", b"x" * 100, 5)
        assert len(encode_record(rec)) == rec.encoded_size

    def test_truncated_header_rejected(self):
        with pytest.raises(CorruptionError):
            list(decode_payload(b"\x00" * 5))

    def test_truncated_body_rejected(self):
        data = encode_record(Record(b"key", b"value", 1))[:-2]
        with pytest.raises(CorruptionError):
            list(decode_payload(data))


class TestBlockEncoding:
    def test_roundtrip_many(self):
        recs = [Record(bytes([i]), b"v" * i, i) for i in range(1, 50)]
        out = decode_block(encode_block(recs))
        assert [(r.key, r.value, r.seqno) for r in out] == [
            (r.key, r.value, r.seqno) for r in recs
        ]

    def test_empty_block(self):
        assert decode_block(encode_block([])) == []

    def test_corruption_detected(self):
        block = bytearray(encode_block([Record(b"k", b"v", 1)]))
        block[2] ^= 0xFF
        with pytest.raises(CorruptionError):
            decode_block(bytes(block))

    def test_short_block_rejected(self):
        with pytest.raises(CorruptionError):
            decode_block(b"ab")

    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=20), st.binary(max_size=200)),
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, pairs):
        recs = [Record(k, v, i) for i, (k, v) in enumerate(pairs)]
        out = decode_block(encode_block(recs))
        assert [(r.key, r.value, r.seqno) for r in out] == [
            (r.key, r.value, r.seqno) for r in recs
        ]


class TestCodecContract:
    @given(
        recs=st.lists(records, min_size=1, max_size=12),
        pad=st.binary(max_size=32),
        cut=st.integers(min_value=0),
    )
    @settings(max_examples=100, deadline=None)
    def test_codec_roundtrip_and_truncation(self, recs, pad, cut):
        rec = recs[0]
        blob = encode_record(rec)
        assert len(blob) == rec.encoded_size
        assert decode_one(pad + blob, len(pad)) == rec
        assert decode_block(encode_block(recs)) == recs
        # Any proper prefix is a truncated header or a truncated body.
        with pytest.raises(CorruptionError):
            decode_one(pad + blob[: cut % len(blob)], len(pad))

    def test_decoding_equal_bytes_twice_does_not_alias(self):
        block = encode_block([Record(b"a", b"1", 1), Record(b"b", b"2", 2)])
        first = decode_block(block)
        first.clear()
        assert [r.key for r in decode_block(bytes(block))] == [b"a", b"b"]
        blob = encode_record(Record(b"k", b"v", 3))
        assert decode_one(blob) is not decode_one(bytes(blob))

    def test_codec_module_holds_no_mutable_state(self):
        held = {
            name: type(obj).__name__
            for name, obj in vars(blocks).items()
            if isinstance(obj, (dict, list, set)) and not name.startswith("__")
        }
        assert held == {}
