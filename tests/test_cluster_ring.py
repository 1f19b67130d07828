"""Tests for the consistent-hash ring (repro.cluster.ring)."""

import pytest

from repro.cluster.ring import HashRing, _position
from repro.common.keys import encode_key


def keys(n):
    return [encode_key(i) for i in range(n)]


class TestRingBasics:
    def test_requires_a_node(self):
        with pytest.raises(ValueError):
            HashRing([])

    def test_membership(self):
        ring = HashRing(["a", "b", "c"])
        assert ring.nodes == ["a", "b", "c"]
        assert "a" in ring and "z" not in ring
        assert len(ring) == 3

    def test_duplicate_add_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add("a")

    def test_cannot_remove_last_node(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.remove("a")

    def test_remove_unknown_rejected(self):
        ring = HashRing(["a", "b"])
        with pytest.raises(ValueError):
            ring.remove("z")


class TestPlacement:
    def test_deterministic_across_instances(self):
        # sha256 hashing: placement is a pure function of names + key
        # bytes, never of Python's salted hash or insertion order.
        a = HashRing(["n0", "n1", "n2"])
        b = HashRing(["n2", "n0", "n1"])
        for k in keys(200):
            assert a.replicas_for(k, 3) == b.replicas_for(k, 3)

    def test_preference_list_distinct_and_sized(self):
        ring = HashRing(["n0", "n1", "n2", "n3"])
        for k in keys(100):
            reps = ring.replicas_for(k, 3)
            assert len(reps) == 3
            assert len(set(reps)) == 3

    def test_rf_clamped_to_member_count(self):
        ring = HashRing(["n0", "n1"])
        assert len(ring.replicas_for(encode_key(1), 5)) == 2

    def test_ownership_roughly_balanced(self):
        ring = HashRing(["n0", "n1", "n2"])
        counts = {n: 0 for n in ring.nodes}
        for k in keys(3000):
            counts[ring.replicas_for(k, 1)[0]] += 1
        # Every node should own a meaningful share, not a token one.
        assert min(counts.values()) > 3000 * 0.10

    def test_position_is_64_bit(self):
        assert 0 <= _position(b"x") < 2**64


class TestMembershipChanges:
    def test_join_moves_only_ranges_toward_new_node(self):
        # Consistent hashing's defining property: adding a node never
        # reshuffles keys between existing nodes.
        old = HashRing(["n0", "n1", "n2"])
        new = HashRing(["n0", "n1", "n2"])
        new.add("n3")
        gains = old.diff(new, keys(400), 3)
        assert set(gains) <= {"n3"}
        assert sum(len(v) for v in gains.values()) > 0

    def test_leave_redistributes_to_survivors(self):
        old = HashRing(["n0", "n1", "n2", "n3"])
        new = HashRing(["n0", "n1", "n2", "n3"])
        new.remove("n3")
        gains = old.diff(new, keys(400), 3)
        assert gains and "n3" not in gains

    def test_diff_is_exact(self):
        old = HashRing(["n0", "n1", "n2"])
        new = HashRing(["n0", "n1", "n2"])
        new.add("n3")
        gains = old.diff(new, keys(300), 2)
        for node, moved in gains.items():
            for k in moved:
                assert node in new.replicas_for(k, 2)
                assert node not in old.replicas_for(k, 2)

    def test_add_then_remove_restores_placement(self):
        ring = HashRing(["n0", "n1", "n2"])
        before = [ring.replicas_for(k, 3) for k in keys(100)]
        ring.add("n3")
        ring.remove("n3")
        after = [ring.replicas_for(k, 3) for k in keys(100)]
        assert before == after
