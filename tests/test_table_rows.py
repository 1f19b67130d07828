"""Tables carry their keys' digest rows.

Every SSTable a tree builds through its :class:`KeyHashes` memo keeps the
memo row of each of its keys, in key order.  A compaction hands those rows
from its inputs to its outputs, so an output's bloom is placed from rows it
already has; only a key that arrives without one (a flush, an ingested
batch, a table reopened from a manifest) is looked up.  These tests pin
that:

* every table's bloom equals the bloom built by hashing its keys, and its
  rows equal the memo's rows for those keys;
* the order and size of every device charge of a fixed workload is the
  one the lookup-per-key build made;
* a compaction whose inputs carry rows makes no memo lookup, and a load
  hashes each distinct key once;
* a merge that meets a corrupt input quarantines it and installs the rest,
  leaving no unheld table file behind.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bloom import BloomFilter, KeyHashes
from repro.common.keys import encode_key
from repro.common.records import Record
from repro.lsm import lsmtree
from repro.lsm.blocks import entry_of
from repro.lsm.lsmtree import DbPath, LSMTree
from tests.test_lsm_tree import make_fs, small_options

#: sha256 of :func:`charge_sequence`'s ordered charges, as the build that
#: looked every output key up in the memo made them.
CHARGE_SEQUENCE_DIGEST = "f148bb2b18010079a7944db75c90e262f5b5c833a135d670e0aca22a3e764051"
#: The same for a ``first_level=1`` tree with PrismDB's options (no WAL, no
#: manifest), as a flush merging straight into L1 made them.
FIRST_LEVEL_ONE_DIGEST = "4c34ba738e2dd239844b6b16349df4f94b4c97c3014f2f9b4ea6e81bbd0321dd"


def tables(tree: LSMTree):
    for lvl in tree.version.all_levels():
        yield from lvl


def table_keys(table) -> list[bytes]:
    return [e[0] for e in table.iter_entries()]


def assert_tables_match_memo(tree: LSMTree, expect_rows: bool = True) -> None:
    memo = tree.key_hashes
    for table in tables(tree):
        keys = table_keys(table)
        assert table.num_records == len(keys)
        assert (
            table.bloom.to_bytes()
            == BloomFilter.for_keys(keys, 10, memo).to_bytes()
        )
        if expect_rows or table.rows is not None:
            assert table.rows.tolist() == [memo[k] for k in keys]


# One step: ("put", key id, value length), ("del", key id) or ("flush",).
steps_st = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 299), st.integers(0, 120)),
        st.tuples(st.just("del"), st.integers(0, 299)),
        st.tuples(st.just("flush")),
    ),
    min_size=100,
    max_size=400,
)


def apply_steps(tree: LSMTree, steps, model: dict[bytes, bytes]) -> None:
    """Apply ``steps`` to key ids ``2 * id``."""
    for step in steps:
        if step[0] == "put":
            key = encode_key(2 * step[1])
            value = bytes([step[1] % 251]) * step[2]
            tree.put(key, value)
            model[key] = value
        elif step[0] == "del":
            key = encode_key(2 * step[1])
            tree.delete(key)
            model.pop(key, None)
        else:
            tree.flush()


def assert_reads(tree: LSMTree, model: dict[bytes, bytes]) -> None:
    for kid in range(600):
        key = encode_key(kid)
        assert tree.get(key)[0] == model.get(key)


@given(steps=steps_st, first_level=st.sampled_from([0, 1]))
@settings(max_examples=40, deadline=None)
def test_blooms_and_rows_equal_the_hashed_build(steps, first_level):
    # Tiny tables and levels: overlapping L0 tables merge into L1 with tied
    # keys, and tombstones reach the bottom of a 3-level tree.
    opts = small_options(
        memtable_bytes=512, table_size_bytes=1 << 10, block_size=256,
        level_base_bytes=1 << 10, level_multiplier=2, num_levels=3,
        first_level=first_level, manifest_enabled=True,
    )
    fs = make_fs()
    tree = LSMTree(fs, opts)
    model: dict[bytes, bytes] = {}
    apply_steps(tree, steps, model)
    tree.flush()
    assert_tables_match_memo(tree)
    assert_reads(tree, model)

    # Reopened from the manifest, the tables carry no rows; the next
    # compactions mix row-less inputs with fresh outputs, and the new
    # writes overwrite the keys those tables hold.
    tree = LSMTree.reopen(fs, opts)
    assert all(t.rows is None for t in tables(tree))
    apply_steps(tree, steps[::-1], model)
    tree.flush()
    assert_tables_match_memo(tree, expect_rows=False)
    assert_reads(tree, model)


@given(
    batches=st.lists(
        st.lists(st.integers(0, 299), min_size=1, max_size=60),
        min_size=1, max_size=12,
    )
)
@settings(max_examples=30, deadline=None)
def test_ingested_batches_match_the_hashed_build(batches):
    opts = small_options(
        table_size_bytes=1 << 10, block_size=256, level_base_bytes=1 << 10,
        level_multiplier=2, num_levels=3, first_level=1, wal_enabled=False,
    )
    tree = LSMTree(make_fs(), opts)
    seqno = 0
    model: dict[bytes, bytes] = {}
    for batch in batches:
        entries = []
        for kid in sorted(set(batch)):
            seqno += 1
            key = encode_key(2 * kid)
            value = bytes([seqno % 251]) * (kid % 90)
            entries.append(entry_of(Record(key, value, seqno)))
            model[key] = value
        tree.ingest_batch(entries)
    assert_tables_match_memo(tree)
    assert_reads(tree, model)


def record_charges(fs, charges: list[tuple]) -> None:
    """Append ``(device, rw, lane, pages, sequential)`` to ``charges`` for
    every read and write the device behind ``fs`` is charged."""
    dev = fs.device
    read, write = dev.read_pages, dev.write_pages

    def read_pages(pages, kind, sequential=False):
        charges.append((dev.profile.name, "read", kind.value, pages, sequential))
        return read(pages, kind, sequential)

    def write_pages(pages, kind, sequential=True):
        charges.append((dev.profile.name, "write", kind.value, pages, sequential))
        return write(pages, kind, sequential)

    dev.read_pages, dev.write_pages = read_pages, write_pages


def charge_sequence(**options) -> str:
    """sha256 of every device charge of a fixed load, in order: a shuffled
    load with updates and deletes over a fast and a slow device, flushing
    and compacting into four levels, then gets and a scan.  ``options``
    override :func:`small_options`."""
    fast, slow = make_fs(mib=4, name="fast"), make_fs(name="slow")
    charges: list[tuple] = []
    record_charges(fast, charges)
    record_charges(slow, charges)
    opts = small_options(**options)
    tree = LSMTree([DbPath(fast, 96 << 10), DbPath(slow, 1 << 40)], opts)
    rng = random.Random(43)
    ids = list(range(3000))
    rng.shuffle(ids)
    for n, i in enumerate(ids):
        tree.put(encode_key(i), bytes([i % 251]) * rng.randrange(20, 200))
        if n % 7 == 0:
            tree.delete(encode_key(ids[n // 2]))
        if n % 5 == 0:
            tree.put(encode_key(ids[n // 3]), b"u" * 60)
    tree.flush()
    assert tree.compactor.stats.compactions > 0
    assert len([lvl for lvl in tree.version.all_levels() if len(lvl)]) >= 4
    for i in range(0, 3000, 37):
        tree.get(encode_key(i))
    tree.scan(encode_key(1000), 200)
    return hashlib.sha256(repr(charges).encode()).hexdigest()


def test_charge_sequence_pinned():
    assert charge_sequence(manifest_enabled=True) == CHARGE_SEQUENCE_DIGEST


def test_first_level_one_charge_sequence_pinned():
    assert (
        charge_sequence(first_level=1, wal_enabled=False)
        == FIRST_LEVEL_ONE_DIGEST
    )


class CountingHashes(KeyHashes):
    """A memo that counts its lookups and the keys it inserts."""

    __slots__ = ("lookups", "inserted")

    def __init__(self) -> None:
        super().__init__()
        self.lookups = 0
        self.inserted = 0

    def __getitem__(self, key: bytes) -> int:
        self.lookups += 1
        return super().__getitem__(key)

    def __missing__(self, key: bytes) -> int:
        self.inserted += 1
        return super().__missing__(key)


def shuffled_keys(n: int, seed: int) -> list[bytes]:
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    return [encode_key(i) for i in ids]


@pytest.mark.parametrize("first_level", [0, 1])
def test_compactions_look_no_key_up(monkeypatch, first_level):
    monkeypatch.setattr(lsmtree, "KeyHashes", CountingHashes)
    tree = LSMTree(make_fs(), small_options(first_level=first_level))
    memo = tree.key_hashes
    merge_lookups: list[int] = []
    compact_level = tree.compactor.compact_level

    def counted_compaction(*args):
        before = memo.lookups
        outputs = compact_level(*args)
        merge_lookups.append(memo.lookups - before)
        return outputs

    tree.compactor.compact_level = counted_compaction
    keys = shuffled_keys(4000, 1)
    for key in keys:
        tree.put(key, b"v" * 100)
    tree.flush()
    assert len(merge_lookups) > 10
    assert set(merge_lookups) == {0}
    assert memo.inserted == len(memo) == len(keys)
    assert_tables_match_memo(tree)


def sst_files(fs) -> set[str]:
    return {f.name for f in fs.files() if f.name.startswith("sst_")}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("first_level", [0, 1])
def test_failed_merge_leaves_no_table_behind(seed, first_level):
    # first_level 0: a leveled compaction into the deepest level reads the
    # corrupt block; first_level 1: a flush merging into L1 does.  Either
    # merge quarantines the table, as a read would, and merges the rest.
    fs = make_fs()
    tree = LSMTree(fs, small_options(first_level=first_level))
    keys = shuffled_keys(4000, seed)
    for key in keys[:2500]:
        tree.put(key, b"v" * 100)
    levels = [lvl for lvl in tree.version.all_levels() if len(lvl)]
    victim = list(levels[-1] if first_level == 0 else levels[0])[-1]
    victim.file._data[victim.handles[-1].offset] ^= 0xFF
    for key in keys[2500:]:
        tree.put(key, b"v" * 100)
    assert tree.quarantined == [victim]
    assert victim not in list(tables(tree))
    assert all(tree.get(key)[0] == b"v" * 100 for key in keys[2500:])
    # Every table file on media is held by the version or quarantined.
    held = {t.file.name for t in tables(tree)}
    assert sst_files(fs) == held | {victim.file.name}
