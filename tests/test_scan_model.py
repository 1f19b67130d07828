"""Range scans against a sorted-dict model, on every engine.

``scan(start, n)`` must return exactly the first ``n`` live items >=
``start`` — keys and values — whatever mix of tiers, tombstones and
compaction state the records sit in.  The stores are sized so that
demotion and capacity-tier compaction run during the load.
"""

from itertools import islice

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.bench import BenchScale, STORE_NAMES, build_store
from repro.common.cache import LRUCache
from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.lsm.blocks import value_of
from repro.lsm.semi import CapacityTier, SemiLevelConfig, SemiSSTable
from repro.simssd import SATA_PROFILE, SimDevice, SimFilesystem, TrafficKind

VALUE_SIZE = 512
#: Keys loaded before a script runs (even ids; odd ids are the absent
#: scan starts).
LOADED = 3000
MAX_SCAN = 120


class ModelledStore:
    """A store, loaded with ``ids`` in shuffled order, and the dict it must
    agree with."""

    def __init__(self, name: str, scale: BenchScale, ids=()) -> None:
        self.store = build_store(name, scale)
        self.value_size = scale.value_size
        self.model: dict[int, bytes] = {}
        ids = np.array(ids, dtype=np.int64)
        np.random.default_rng(7).shuffle(ids)
        for i in ids.tolist():
            self.put(i, i)

    @classmethod
    def small(cls, name: str) -> "ModelledStore":
        """The even ids below ``2 * LOADED``; ``record_count`` spans the odd
        ids too, so the ratio is halved to keep NVMe well under the load."""
        scale = BenchScale(
            record_count=2 * LOADED, value_size=VALUE_SIZE, nvme_ratio=0.35 / 2
        )
        return cls(name, scale, range(0, 2 * LOADED, 2))

    @classmethod
    def dense(cls, name: str, loaded: int = 20_000) -> "ModelledStore":
        """The geometry the scan bugs were first reproduced on."""
        scale = BenchScale(record_count=20_000, nvme_ratio=0.35)
        return cls(name, scale, range(loaded))

    def put(self, key_id: int, tag: int) -> None:
        self.model[key_id] = bytes([tag % 256]) * self.value_size
        self.store.put(encode_key(key_id), self.model[key_id])

    def delete(self, key_id: int) -> None:
        self.model.pop(key_id, None)
        self.store.delete(encode_key(key_id))

    def check_scan(self, start_id: int, n: int) -> None:
        got, _ = self.store.scan(encode_key(start_id), n)
        live = sorted(k for k in self.model if k >= start_id)[:n]
        assert [k for k, _ in got] == [encode_key(k) for k in live]
        assert [v for _, v in got] == [self.model[k] for k in live]


key_ids = st.integers(min_value=0, max_value=2 * LOADED + 50)
scan_lengths = st.integers(min_value=1, max_value=MAX_SCAN)
steps = st.one_of(
    st.tuples(st.just("scan"), key_ids, scan_lengths),
    st.tuples(st.just("put"), key_ids, st.integers(0, 255)),
    # Delete >= 3n consecutive loaded keys from ``start``, then scan across
    # the run: more shadowed candidates than any fixed batch holds.
    st.tuples(st.just("delete_run"), key_ids, scan_lengths),
    # Overwrite a stretch of keys elsewhere: fills the fast tier, so
    # earlier tombstones are demoted into the capacity tier.
    st.tuples(st.just("churn"), key_ids, st.integers(300, 900)),
    st.tuples(st.just("restart"), st.just(0), st.just(0)),
)


@pytest.mark.parametrize("name", STORE_NAMES)
@given(script=st.lists(steps, min_size=4, max_size=12))
@example(script=[("delete_run", 5024, 71), ("churn", 4000, 900), ("scan", 4900, 120)])
# No shrink phase: every example loads a store, and a failing run would
# spend minutes (and a store per candidate, held by its traceback) on it.
@settings(
    max_examples=12, deadline=None, derandomize=True,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
def test_scan_matches_model(name, script):
    m = ModelledStore.small(name)
    tag = 0
    for op, key_id, n in script:
        tag += 1
        if op == "scan":
            m.check_scan(key_id, n)
        elif op == "put":
            m.put(key_id, tag)
        elif op == "delete_run":
            first = key_id - key_id % 2
            for i in range(first, first + 6 * n, 2):
                m.delete(i)
            m.check_scan(key_id, n)
            m.check_scan(max(0, key_id - 2 * n), n)
        elif op == "churn":
            for i in range(n):
                m.put((key_id + 2 * MAX_SCAN * 4 + 2 * i) % (2 * LOADED), tag)
            m.check_scan(key_id, MAX_SCAN)
        elif name == "hyperdb":  # restart
            m.store.checkpoint()
            m.store.recover()
            m.check_scan(key_id, MAX_SCAN)
    m.check_scan(0, MAX_SCAN)


def test_model_store_exercises_both_tiers():
    """The sizing claim above: the load demotes and compacts."""
    m = ModelledStore.small("hyperdb")
    cap = m.store.capacity_tier
    assert cap.levels.num_valid_records() > LOADED // 2
    assert cap.compactor.stats.compactions > 0
    assert m.store.performance_tier.object_count() > 0


# ------------------------------------------------- pinned regressions


class TestCapacityScanTruncation:
    """A round of ``CapacityTier.scan`` lists ``count + 16`` candidates per
    level; it must not walk the union past the last key a truncated level
    listed, and the next round must pick up from there."""

    def test_no_holes_past_a_truncated_level(self):
        m = ModelledStore.dense("hyperdb")
        db, cap = m.store, m.store.capacity_tier
        cap.ingest(
            [Record.tombstone(encode_key(i), db.next_seqno()) for i in range(1000, 1040)]
            + [Record(encode_key(i), b"fresh", db.next_seqno()) for i in range(1300, 1400)]
        )
        live = []
        for i in range(1000, 1500):
            rec, _ = cap.get(encode_key(i))
            if rec is not None and not rec.is_tombstone:
                live.append(rec.key)
        got = islice(cap.scan(encode_key(1000), 50), 50)
        assert [e[0] for e in got] == live[:50]

    def test_not_short_after_a_tombstone_run(self):
        m = ModelledStore.dense("hyperdb", loaded=0)
        db, cap = m.store, m.store.capacity_tier
        cap.ingest([Record(encode_key(i), b"v", db.next_seqno()) for i in range(3000)])
        cap.ingest(
            [Record.tombstone(encode_key(i), db.next_seqno()) for i in range(1000, 1100)]
        )
        want = [encode_key(i) for i in (*range(990, 1000), *range(1100, 1140))]
        got = islice(cap.scan(encode_key(990), 50), 50)
        assert [e[0] for e in got] == want
        pairs, _ = db.scan(encode_key(990), 50)
        assert [k for k, _ in pairs] == want


class TestCapacityCursor:
    """``CapacityTier.scan`` alone, on a tier whose newest versions are
    spread over L1..L3."""

    @pytest.mark.parametrize("start,count", [(0, 1), (100, 50), (1234, 100), (2990, 40)])
    def test_owner_map_equals_rerouted_lookups(self, start, count):
        """The cursor's owner map returns what a dict of the ingested records
        holds and what a rerouted point lookup (``tier.get``) finds."""
        tier = CapacityTier(
            SimFilesystem(SimDevice(SATA_PROFILE.with_capacity(64 * 1024 * 1024))),
            SemiLevelConfig(
                key_space=KeyRange(encode_key(0), encode_key(10_000)),
                num_levels=3,
                size_ratio=4,
                bottom_segments=16,
                level1_target_bytes=64 * 1024,
            ),
            # A cache smaller than one scan's blocks: evictions happen mid-scan.
            cache=LRUCache(32 * 1024),
        )
        tier.ingest([Record(encode_key(i), b"v" * 100, i + 1) for i in range(3000)])
        model = {encode_key(i): (b"v" * 100, i + 1) for i in range(3000)}
        # Overwrites leave the newest versions spread over L1..L3.
        for seq, step in ((10_000, 3), (20_000, 15)):
            recs = [Record(encode_key(i), b"w" * 90, seq + i) for i in range(1, 3000, step)]
            tier.ingest(recs)
            model.update((r.key, (r.value, r.seqno)) for r in recs)
        assert all(tier.levels.level_valid_bytes(n) > 0 for n in (1, 2, 3))
        got = list(islice(tier.scan(encode_key(start), count), count))
        want = sorted(k for k in model if k >= encode_key(start))[:count]
        assert [e[0] for e in got] == want
        assert [(value_of(e), e[1]) for e in got] == [model[k] for k in want]
        for e in got:
            looked_up, _ = tier.get(e[0])
            assert (looked_up.value, looked_up.seqno) == (value_of(e), e[1])


@pytest.mark.parametrize("name", STORE_NAMES)
def test_scan_after_a_long_delete_run(name):
    """Fast-tier tombstones shadow more capacity-tier records than one round
    of the capacity-tier cursor lists (``count + 16``): the merge must keep
    pulling rounds, not carry on with fast-tier residents only."""
    m = ModelledStore.dense(name)
    for i in range(5000, 5300):
        m.delete(i)
    if name == "hyperdb":
        doomed = [encode_key(i) for i in range(5000, 5300)]
        tier, cap = m.store.performance_tier, m.store.capacity_tier
        assert sum(tier.partition_for_key(k).contains(k) for k in doomed) > 50 + 16
        assert sum(cap.contains_key(k) for k in doomed) > 50 + 16
    m.check_scan(5000, 50)


@pytest.mark.parametrize("name", STORE_NAMES)
def test_abandoned_scan_leaves_nothing_behind(name):
    """A scan stops pulling its cursors at ``count``; the next scan of the
    range starts from the store, not from what the last one listed."""
    m = ModelledStore.small(name)
    m.check_scan(100, 20)
    m.put(121, 9)  # an absent (odd) id inside the range just scanned
    m.delete(104)
    m.check_scan(100, 20)


@pytest.mark.parametrize("name", STORE_NAMES)
def test_scan_start_outside_the_key_space(name):
    """A start below the key space scans from its low end, one at or past
    its high end finds nothing and charges nothing — on every engine."""
    scale = BenchScale(record_count=2000, value_size=VALUE_SIZE, nvme_ratio=0.35)
    m = ModelledStore(name, scale, range(2000))
    devices = m.store.devices().values()
    for start, want in (
        (b"", range(5)),
        (encode_key(0)[:4], range(5)),
        (encode_key(5000), ()),
        (b"\xff" * 8, ()),
        (encode_key(10**9), ()),
    ):
        before = [d.traffic.snapshot() for d in devices]
        got, service = m.store.scan(start, 5)
        assert got == [(encode_key(i), m.model[i]) for i in want]
        if not want:
            assert service == 0.0
            assert [d.traffic.snapshot() for d in devices] == before


class TestScanReadsWhatItReturns:
    """§4.2: one page lookup per page of each object the scan returns (plus
    the merge's one record of look-ahead), none for a record on the pages
    its predecessor was read from."""

    N = 50

    def capacity_resident_store(self):
        m = ModelledStore.dense("hyperdb", loaded=0)
        db = m.store
        db.capacity_tier.ingest(
            [Record(encode_key(i), b"v" * 100, db.next_seqno()) for i in range(3000)]
        )
        assert db.performance_tier.object_count() == 0
        return db

    def test_page_lookups_and_read_commands(self, monkeypatch):
        db = self.capacity_resident_store()
        n = self.N
        lookups = []
        inner = SemiSSTable.entries

        def counted(table, keys, kind, cache=None, spent=None):
            # The reader pulls a key just before that key's page lookups.
            def pulled():
                for key in keys:
                    lookups.append((table, key))
                    yield key

            return inner(table, pulled(), kind, cache, spent)

        monkeypatch.setattr(SemiSSTable, "entries", counted)
        cache = db.capacity_tier.cache
        cache_gets = cache.hits + cache.misses
        traffic = db.sata_device.traffic
        reads_before = traffic.read_ios(TrafficKind.FOREGROUND)
        pairs, _ = db.scan(encode_key(1000), n)
        assert [k for k, _ in pairs] == [encode_key(i) for i in range(1000, 1000 + n)]
        assert [k for _, k in lookups] == [encode_key(i) for i in range(1000, 1000 + n + 1)]
        # One lookup per page of each record pulled, skipped while a record
        # lies on the pages the one before it in its table was read from.
        ps = db.sata_device.page_size
        wanted, held, page_lookups = set(), {}, 0
        for table, key in lookups:
            _, _, size, offset, _ = table._key_map[key]
            pages = range(offset // ps, (offset + size - 1) // ps + 1)
            wanted.update((table.table_id, p) for p in pages)
            if not set(pages) <= held.get(table.table_id, set()):
                held[table.table_id] = set(pages)
                page_lookups += len(pages)
        assert cache.hits + cache.misses - cache_gets == page_lookups
        # Cold cache: each distinct page of those records is read, one
        # command per page, and never more than the pages of their blocks
        # (a record across a page boundary reads both pages when one
        # misses).
        reads = traffic.read_ios(TrafficKind.FOREGROUND) - reads_before
        assert reads >= len(wanted)
        blocks = {}
        for table, key in lookups:
            block = table.block_of(key)
            blocks[table.table_id, block.block_id] = table.file._page_span(
                block.offset, block.length
            )
        assert reads <= sum(blocks.values())


@pytest.mark.parametrize("name", STORE_NAMES)
def test_scan_of_no_records_returns_nothing_and_charges_nothing(name):
    """``count <= 0`` is an empty answer, not a refill of a zero-size batch
    (HyperDB / PrismDB: IndexError) nor one pair (the LSM's append-then-test)."""
    m = ModelledStore.small(name)
    devices = m.store.devices().values()
    before = [d.traffic.snapshot() for d in devices]
    for count in (0, -3):
        assert m.store.scan(encode_key(100), count) == ([], 0.0)
    assert [d.traffic.snapshot() for d in devices] == before
