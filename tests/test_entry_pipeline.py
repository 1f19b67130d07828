"""Background work moves entries: bytes in, the same bytes out.

Demotion, the semi-SSTable block merge, preemptive and full compaction and
classic compaction carry each record as ``(key, seqno, flags, raw)`` — its
on-media bytes with the header's fields beside them.  These tests pin that:

* the tables those paths build hold exactly the bytes a record-at-a-time
  reference (:func:`encode_block` over :class:`Record` lists) would write,
  and answer every get the same way;
* none of those paths calls the record codec;
* PrismDB's demotion checks each slot before shipping it, so a flipped
  slot is dropped and counted, not laundered under a fresh block CRC.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.prismdb import PrismDBStore
from repro.common.errors import CorruptionError
from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.lsm import blocks
from repro.lsm.blocks import entry_of
from repro.lsm.iterator import merge_records
from repro.lsm.lsmtree import LSMTree
from repro.lsm.semi import CapacityTier
from repro.lsm.semi.semisstable import SemiSSTable
from repro.lsm.sstable import build_tables
from repro.nvme import NVMeConfig
from repro.simssd import TrafficKind
from tests.reference_codec import build_sstable, encode_block
from tests.test_baselines import KiB, k, nvme, sata, small_lsm_options
from tests.test_hyperdb_core import make_db
from tests.test_semi_levels_compaction import config, make_fs

COMPACTION = TrafficKind.COMPACTION
KEY_IDS = 40


def reference_blocks(records, block_size: int, table_size: int) -> list[bytes]:
    """The data bytes of each table a sorted record stream rolls into, cut
    the way a table writer cuts them: a block closes once its records reach
    ``block_size`` encoded bytes, a table once its blocks and open block
    reach ``table_size``."""
    tables: list[bytes] = []
    data, pending, size, open_table = b"", [], 0, False
    for rec in records:
        open_table = True
        pending.append(rec)
        size += rec.encoded_size
        if size >= block_size:
            data += encode_block(pending)
            pending, size = [], 0
        if len(data) + size >= table_size:
            tables.append(data + (encode_block(pending) if pending else b""))
            data, pending, size, open_table = b"", [], 0, False
    if open_table:
        tables.append(data + (encode_block(pending) if pending else b""))
    return tables


# One batch: (key id, seqno, tombstone, value) tuples.  Seqnos are drawn
# from a small range so ties across batches are common, and key ids from a
# small range so batches re-write each other's keys.
batches_st = st.lists(
    st.lists(
        st.tuples(
            st.integers(0, KEY_IDS - 1),
            st.integers(0, 3),
            st.booleans(),
            st.binary(max_size=60),
        ),
        max_size=30,
    ),
    min_size=1,
    max_size=5,
)


def sorted_batch(batch) -> list[Record]:
    """A batch as one sorted stream: the last write of a key in it wins."""
    by_key = {}
    for kid, seqno, tomb, value in batch:
        key = encode_key(kid)
        by_key[key] = Record.tombstone(key, seqno) if tomb else Record(key, value, seqno)
    return [by_key[key] for key in sorted(by_key)]


def data_bytes(table) -> bytes:
    return bytes(table.file._data[: table.data_bytes])


@given(
    batches=batches_st,
    block_size=st.sampled_from([64, 256, 1024]),
    table_size=st.sampled_from([300, 2000, 1 << 20]),
    bottom=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_classic_tables_hold_the_bytes_records_would(batches, block_size, table_size, bottom):
    fs = make_fs()
    ids = itertools.count(1)
    runs = [sorted_batch(b) for b in batches]
    inputs = [
        build_sstable(fs, next(ids), run)
        for run in runs
        if run
    ]
    for run, table in zip([r for r in runs if r], inputs):
        assert [data_bytes(table)] == reference_blocks(run, 4096, 1 << 62)

    # Compaction: newest table first, so a seqno tie goes to the later batch.
    merged = merge_records(
        [t.iter_entries(COMPACTION) for t in reversed(inputs)], drop_tombstones=bottom
    )
    outputs = build_tables(fs, merged, lambda: next(ids), block_size, table_size, COMPACTION)

    newest: dict[bytes, Record] = {}
    for run in runs:
        for rec in run:
            old = newest.get(rec.key)
            if old is None or rec.seqno >= old.seqno:
                newest[rec.key] = rec
    expected = [newest[key] for key in sorted(newest)]
    if bottom:
        expected = [r for r in expected if not r.deleted]
    assert [data_bytes(t) for t in outputs] == reference_blocks(
        expected, block_size, table_size
    )
    answers = {r.key: r for r in expected}
    for kid in range(KEY_IDS):
        key = encode_key(kid)
        got = [rec for t in outputs if (rec := t.get(key)[0]) is not None]
        assert got == ([answers[key]] if key in answers else [])


@given(
    batches=batches_st,
    block_size=st.sampled_from([64, 256, 1024]),
)
@settings(max_examples=80, deadline=None)
def test_semi_tables_hold_the_bytes_records_would(batches, block_size):
    key_space = KeyRange(encode_key(0), encode_key(KEY_IDS))
    table = SemiSSTable(1, make_fs(), key_space, block_size=block_size)
    newest: dict[bytes, Record] = {}
    for batch in batches:
        run = sorted_batch(batch)
        table.merge_append([entry_of(r) for r in run])
        for rec in run:
            old = newest.get(rec.key)
            if old is None or rec.seqno > old.seqno:  # a tie keeps the copy held
                newest[rec.key] = rec

    def check_gets():
        for kid in range(KEY_IDS):
            key = encode_key(kid)
            assert table.get(key)[0] == newest.get(key)

    check_gets()
    # A full compaction rewrites every live record, in key order, into
    # fresh blocks: the whole file is the reference's one table.
    table.full_compact()
    expected = reference_blocks([newest[key] for key in sorted(newest)], block_size, 1 << 62)
    assert [bytes(table.file._data)] == (expected or [b""])
    check_gets()


# ------------------------------------------------- no codec in the chain


CODEC = ("encode_record", "decode_one", "record_of")


def count_codec(monkeypatch, names=CODEC) -> Counter:
    """Count every call of the record codec (the :mod:`repro.lsm.blocks`
    functions ``names``) from any ``repro`` module."""
    calls = Counter()
    for name in names:
        original = getattr(blocks, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, counted)
    return calls


def entries(ids, value=b"v" * 32, seqno_base=1):
    return [entry_of(Record(encode_key(i), value, seqno_base + n)) for n, i in enumerate(ids)]


def test_hyperdb_demotion_moves_slot_bytes(monkeypatch):
    db = make_db(nvme_mib=2)
    for i in range(200):
        db.put(k(i), b"x" * 512)
    db.delete(k(3))
    part = db.performance_tier.partition_for_key(k(0))
    zone = part.zone_for_key(k(0))
    calls = count_codec(monkeypatch)
    batch, _ = part.collect_zone(zone, db.capacity_tier.ingest)
    assert batch and calls == Counter()
    monkeypatch.undo()
    assert db.get(k(0))[0] == b"x" * 512
    assert db.get(k(3))[0] is None


def test_block_merge_with_survivors_moves_slices(monkeypatch):
    table = SemiSSTable(1, make_fs(), config().key_space, block_size=512)
    table.merge_append(entries(range(100)))
    update = entries([5, 50], value=b"new", seqno_base=1000)
    blocks_before = table.num_blocks
    calls = count_codec(monkeypatch)
    table.merge_append(update)
    assert calls == Counter()
    monkeypatch.undo()
    assert table.num_blocks > blocks_before + 1  # survivors were rewritten
    assert table.num_valid_records == 100
    assert table.get(encode_key(50))[0].value == b"new"
    assert table.get(encode_key(51))[0].value == b"v" * 32


def test_preemptive_round_with_ride_along_moves_slices(monkeypatch):
    tier = CapacityTier(make_fs(), config(), depth=2)
    levels = tier.levels
    # Key 5's oldest copy is on L3 and a newer one on L2, whose block
    # holds neighbours 0..9; the newest copy is in the L1 victim.
    levels.table_for_key(3, encode_key(5), create=True).merge_append(entries([5]))
    levels.table_for_key(2, encode_key(0), create=True).merge_append(
        entries(range(10), seqno_base=100)
    )
    levels.table_for_key(1, encode_key(5), create=True).merge_append(
        entries([5, 90_000], value=b"top", seqno_base=1000)
    )
    calls = count_codec(monkeypatch)
    assert tier.compactor.compact_level(1)
    assert calls == Counter()
    monkeypatch.undo()
    assert tier.compactor.stats.preemptive_records == 1
    assert levels.table_for_key(2, encode_key(0)).num_valid_records == 0  # rode along
    assert tier.get(encode_key(5))[0].value == b"top"
    assert tier.get(encode_key(7))[0].seqno == 107


def test_full_compaction_moves_slices(monkeypatch):
    table = SemiSSTable(1, make_fs(), config().key_space, block_size=256)
    table.merge_append(entries(range(60)))
    table.merge_append(entries(range(0, 60, 3), value=b"u", seqno_base=1000))
    assert table.dead_bytes > 0
    calls = count_codec(monkeypatch)
    table.full_compact()
    assert calls == Counter()
    monkeypatch.undo()
    assert table.dead_bytes == 0 and table.num_valid_records == 60
    assert table.get(encode_key(3))[0].value == b"u"


def test_leveled_compaction_moves_slices(monkeypatch):
    tree = LSMTree(make_fs(), small_lsm_options(wal_enabled=False, first_level=1))
    for i in range(3000):
        tree.put(encode_key(i * 7 % 3000), b"v" * 40)
    tree.delete(encode_key(11))
    tree.flush()
    level = next(lvl for lvl in (1, 2, 3) if len(tree.version.level(lvl)))
    compactions = tree.compactor.stats.compactions
    calls = count_codec(monkeypatch)
    assert tree.compactor.compact_level(level)
    assert calls == Counter()
    monkeypatch.undo()
    assert tree.compactor.stats.compactions == compactions + 1
    assert tree.get(encode_key(12))[0] == b"v" * 40
    assert tree.get(encode_key(11))[0] is None


def prism_store(**cfg):
    return PrismDBStore(
        nvme(2),
        sata(),
        nvme_config=NVMeConfig(migration_batch_bytes=16 * KiB, **cfg),
        lsm_options=small_lsm_options(wal_enabled=False),
    )


def test_prismdb_demotion_moves_slot_bytes(monkeypatch):
    store = prism_store(high_watermark=1.0)
    for i in range(600):
        store.put(k(i), b"x" * 500)
    store.delete(k(2))
    slabs = store.slabs
    slabs.config = dataclasses.replace(slabs.config, high_watermark=0.1, low_watermark=0.05)
    calls = count_codec(monkeypatch)
    store.migration.run_if_needed()
    assert calls == Counter()
    monkeypatch.undo()
    assert store.migration.stats.demoted_objects > 0
    assert store.get(k(0))[0] == b"x" * 500
    assert store.get(k(2))[0] is None


def test_prismdb_demotion_drops_a_flipped_slot():
    store = prism_store()
    store.put(k(0), b"value-xxx")
    store.finalize()  # the slot reaches media before it is flipped
    loc = store.slabs.index.get(k(0))
    page = store.slabs.page_store._pages[loc.page_id]
    page[loc.offset + loc.record_size - 1] ^= 0x01  # b"...xxx" -> b"...xxy"
    try:
        store.get(k(0))
        raise AssertionError("a foreground read of the flipped slot succeeded")
    except CorruptionError:
        pass
    i = 1
    while store.slabs.index.get(k(0)) is not None and i < 50_000:
        store.put(k(i), b"x" * 500)
        i += 1
    assert store.slabs.index.get(k(0)) is None, "k(0) was never demoted"
    assert store.slabs.corrupt_slots == 1
    assert store.get(k(0))[0] is None  # dropped, never shipped
