"""Unit and property tests for the B-tree index."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.btree import BTreeIndex
from repro.common.keys import encode_key


class TestBTreeBasics:
    def test_insert_get(self):
        bt = BTreeIndex(order=4)
        assert bt.insert(b"b", 2)
        assert bt.insert(b"a", 1)
        assert bt.get(b"a") == 1
        assert bt.get(b"missing", "dflt") == "dflt"

    def test_replace(self):
        bt = BTreeIndex()
        bt.insert(b"k", 1)
        assert not bt.insert(b"k", 2)
        assert bt.get(b"k") == 2
        assert len(bt) == 1

    def test_splits_stay_sorted(self):
        bt = BTreeIndex(order=4)
        import random

        ids = list(range(1000))
        random.Random(7).shuffle(ids)
        for i in ids:
            bt.insert(encode_key(i), i)
        assert len(bt) == 1000
        keys = [k for k, _ in bt.items()]
        assert keys == [encode_key(i) for i in range(1000)]

    def test_range_scan(self):
        bt = BTreeIndex(order=8)
        for i in range(100):
            bt.insert(encode_key(i), i)
        got = [v for _, v in bt.items(start=encode_key(10), end=encode_key(20))]
        assert got == list(range(10, 20))

    def test_scan_start_between_keys(self):
        bt = BTreeIndex(order=8)
        for i in range(0, 100, 10):
            bt.insert(encode_key(i), i)
        got = [v for _, v in bt.items(start=encode_key(15))]
        assert got[0] == 20

    def test_delete(self):
        bt = BTreeIndex(order=4)
        for i in range(100):
            bt.insert(encode_key(i), i)
        for i in range(0, 100, 2):
            assert bt.delete(encode_key(i))
        assert len(bt) == 50
        assert [v for _, v in bt.items()] == list(range(1, 100, 2))
        assert not bt.delete(encode_key(0))

    def test_contains_none_value(self):
        bt = BTreeIndex()
        bt.insert(b"x", None)
        assert b"x" in bt
        assert b"y" not in bt

    def test_first_key(self):
        bt = BTreeIndex()
        assert next(bt.keys(), None) is None
        bt.insert(encode_key(9), 9)
        bt.insert(encode_key(3), 3)
        assert next(bt.keys(), None) == encode_key(3)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            BTreeIndex(order=2)


class TestBTreeProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10**6)))
    @settings(max_examples=50, deadline=None)
    def test_matches_dict(self, ids):
        bt = BTreeIndex(order=5)
        model = {}
        for i, kid in enumerate(ids):
            k = encode_key(kid)
            bt.insert(k, i)
            model[k] = i
        assert len(bt) == len(model)
        for k, v in model.items():
            assert bt.get(k) == v
        assert [k for k, _ in bt.items()] == sorted(model)

    @given(
        st.lists(st.integers(min_value=0, max_value=500), min_size=1),
        st.lists(st.integers(min_value=0, max_value=500)),
    )
    @settings(max_examples=50, deadline=None)
    def test_delete_matches_dict(self, inserts, deletes):
        bt = BTreeIndex(order=4)
        model = {}
        for kid in inserts:
            bt.insert(encode_key(kid), kid)
            model[encode_key(kid)] = kid
        for kid in deletes:
            k = encode_key(kid)
            assert bt.delete(k) == (k in model)
            model.pop(k, None)
        assert [k for k, _ in bt.items()] == sorted(model)
        assert len(bt) == len(model)


bounds = st.one_of(st.none(), st.integers(min_value=0, max_value=520).map(encode_key))


class TestKeyCursor:
    """``keys(start, end)`` equals the keys of ``items(start, end)`` — on
    trees with under-full and emptied leaves, for ``end`` inside, between
    and past leaves — and survives deletion of what it already yielded."""

    @given(
        st.lists(st.integers(min_value=0, max_value=500), min_size=1),
        st.lists(st.integers(min_value=0, max_value=500)),
        st.lists(st.tuples(bounds, bounds), min_size=1, max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_items(self, inserts, deletes, ranges):
        bt = BTreeIndex(order=4)
        for kid in inserts:
            bt.insert(encode_key(kid), kid)
        for kid in deletes:
            bt.delete(encode_key(kid))
        for start, end in ranges:
            assert list(bt.keys(start, end)) == [k for k, _ in bt.items(start, end)]
        assert list(bt.keys()) == [k for k, _ in bt.items()]

    @given(
        st.sets(st.integers(min_value=0, max_value=300), min_size=1),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_deleting_the_yielded_key_mid_iteration(self, ids, start, every):
        bt = BTreeIndex(order=4)
        for kid in ids:
            bt.insert(encode_key(kid), kid)
        expected = [k for k, _ in bt.items(start=encode_key(start))]
        got = []
        for n, key in enumerate(bt.keys(encode_key(start))):
            got.append(key)
            if n % every == 0:
                bt.delete(key)
        assert got == expected

    def test_lazy(self):
        bt = BTreeIndex(order=4)
        for kid in range(1000):
            bt.insert(encode_key(kid), kid)
        cursor = bt.keys(encode_key(10))
        assert next(cursor) == encode_key(10)
        # Nothing past the first leaf was touched: a key inserted far ahead
        # of the cursor is still seen when the walk gets there.
        bt.insert(encode_key(5000), 5000)
        assert list(cursor)[-1] == encode_key(5000)


def take(cursor, want):
    """At most one more item than ``want`` holds: a cursor that never ends
    fails the comparison instead of hanging it."""
    return list(islice(cursor, len(want) + 1))


OPS = st.sampled_from(["insert", "assign", "delete", "keys", "items", "walk"])


class TestAgainstDictModel:
    """The index against a plain ``dict``: writes interleaved with ordered
    reads, the ordered view first built at a random step."""

    @given(
        st.lists(st.tuples(OPS, st.integers(0, 100), st.integers(0, 100)), min_size=40, max_size=200),
        st.integers(0, 100),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_model(self, ops, build_at):
        bt, model = BTreeIndex(order=4), {}
        for step, (op, a, b) in enumerate(ops):
            if step == build_at:
                assert take(bt.keys(), model) == sorted(model)
            key = encode_key(a)
            if op == "insert":
                assert bt.insert(key, step) == (key not in model)
                model[key] = step
            elif op == "assign" and key in model:
                bt[key] = model[key] = step
            elif op == "delete":
                assert bt.delete(key) == (key in model)
                model.pop(key, None)
            elif op in ("keys", "items") and step >= build_at:
                lo, hi = encode_key(min(a, b)), encode_key(max(a, b))
                want = sorted(k for k in model if lo <= k < hi)
                if op == "keys":
                    assert take(bt.keys(lo, hi), want) == want
                else:
                    assert take(bt.items(lo, hi), want) == [(k, model[k]) for k in want]
            elif op == "walk" and step >= build_at:
                # Each walk's far key is past every key before it.
                self._walk(bt, model, key, encode_key(1000 + step), step)
            assert len(bt) == len(model) and bt.get(key) == model.get(key)
        assert take(bt.items(), model) == sorted(model.items())
        assert dict(bt) == model

    @staticmethod
    def _walk(bt, model, start, far, step):
        """A cursor that deletes every other key it yields and, after its
        first, inserts ``far`` ahead of every other key."""
        want = sorted(k for k in model if k >= start)
        if want:
            want = sorted(set(want) | {far})
        got = []
        for n, key in enumerate(islice(bt.keys(start), len(want) + 1)):
            got.append(key)
            if n == 0:
                bt.insert(far, step)
                model[far] = step
            if n % 2 == 0:
                bt.delete(key)
                del model[key]
        assert got == want

    def test_leaf_emptied_by_deletes(self):
        bt = BTreeIndex(order=4)
        for kid in range(40):
            bt.insert(encode_key(kid), kid)
        assert len(list(bt.keys())) == 40  # the view is built
        for kid in range(8, 24):
            assert bt.delete(encode_key(kid))
        expect = [encode_key(k) for k in (*range(8), *range(24, 40))]
        assert list(bt.keys()) == expect
        assert list(bt.keys(encode_key(10), encode_key(30))) == expect[8:14]
        bt.insert(encode_key(15), 15)
        assert list(bt.keys(encode_key(9))) == [encode_key(15)] + expect[8:]

    def test_insert_below_the_first_key(self):
        bt = BTreeIndex(order=4)
        for kid in range(100, 140):
            bt.insert(encode_key(kid), kid)
        assert next(bt.keys()) == encode_key(100)
        for kid in (50, 3, 7, 1, 60):
            bt.insert(encode_key(kid), kid)
        assert list(bt.keys(end=encode_key(100))) == [encode_key(k) for k in (1, 3, 7, 50, 60)]
        assert next(bt.keys(encode_key(2))) == encode_key(3)
        assert [k for k, _ in bt.items()] == sorted(bt)
