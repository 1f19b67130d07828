"""Property-based tests of cross-module invariants.

These drive random operation sequences through the engines and check the
properties a key-value store must never violate: linearizable-at-client
visibility (a store behaves like a dict), ordered iteration, device-space
conservation, and the semi-SSTable's structural invariants.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.lsm.lsmtree import LSMOptions, LSMTree
from repro.lsm.semi import CapacityTier, SemiLevelConfig, SemiSSTable
from repro.simssd import DeviceProfile, SimDevice, SimFilesystem
from tests.test_semi_sstable import check_index_offsets, walk_block


def make_fs(mib=64, page=4096):
    profile = DeviceProfile(
        name="t",
        capacity_bytes=mib * (1 << 20),
        page_size=page,
        read_latency_s=1e-4,
        write_latency_s=5e-5,
        read_bandwidth=5e8,
        write_bandwidth=5e8,
    )
    return SimFilesystem(SimDevice(profile))


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete", "get"]),
        st.integers(min_value=0, max_value=300),
        st.binary(min_size=0, max_size=60),
    ),
    max_size=200,
)


class TestLSMTreeBehavesLikeADict:
    @given(ops_strategy)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_ops(self, ops):
        tree = LSMTree(
            make_fs(),
            LSMOptions(
                memtable_bytes=2 << 10,
                table_size_bytes=4 << 10,
                block_size=512,
                level_base_bytes=8 << 10,
                level_multiplier=4,
                num_levels=4,
                wal_group_size=4,
            ),
        )
        model: dict[bytes, bytes] = {}
        for op, kid, value in ops:
            key = encode_key(kid)
            if op == "put":
                tree.put(key, value)
                model[key] = value
            elif op == "delete":
                tree.delete(key)
                model.pop(key, None)
            else:
                got, _ = tree.get(key)
                assert got == model.get(key)
        for key, value in model.items():
            assert tree.get(key)[0] == value
        # Scans agree with the model too.
        got, _ = tree.scan(encode_key(0), len(model) + 10)
        assert got == sorted(model.items())


class TestCapacityTierInvariants:
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=2000),
                    st.binary(min_size=1, max_size=40),
                ),
                min_size=1,
                max_size=60,
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_ingest_batches_behave_like_dict(self, batches):
        tier = CapacityTier(
            make_fs(),
            SemiLevelConfig(
                key_space=KeyRange(encode_key(0), encode_key(2001)),
                num_levels=3,
                size_ratio=2,
                bottom_segments=8,
                block_size=256,
                level1_target_bytes=2 << 10,
            ),
        )
        model: dict[bytes, bytes] = {}
        seq = 1
        for batch in batches:
            records = []
            for kid, value in batch:
                records.append(Record(encode_key(kid), value, seq))
                seq += 1
            tier.ingest(records)
            for rec in records:
                model[rec.key] = rec.value
        for key, value in model.items():
            rec, _ = tier.get(key)
            assert rec is not None, key
            assert rec.value == value
        # Structural invariants after arbitrary compaction activity:
        for table in tier.levels.all_tables():
            check_semisstable_invariants(table)
        # Levels hold at most one live copy per key, newest shallowest.
        seen: dict[bytes, int] = {}
        for level_no in range(1, tier.levels.num_levels + 1):
            for table in tier.levels.level(level_no).tables.values():
                for key in table.valid_keys():
                    if key in seen:
                        shallow = seen[key]
                        shallow_t = tier.levels.table_for_key(shallow, key)
                        deep_t = tier.levels.table_for_key(level_no, key)
                        assert (
                            shallow_t.get(key)[0].seqno >= deep_t.get(key)[0].seqno
                        ), f"newer version below older for {key!r}"
                    else:
                        seen[key] = level_no


def check_semisstable_invariants(table: SemiSSTable) -> None:
    """Structural checks every semi-SSTable must satisfy."""
    # 1. valid bytes equals the sum of indexed record sizes.
    assert table.valid_bytes == sum(
        entry[2] for entry in table._key_map.values()
    )
    # 2. block valid counts match the index.
    from collections import Counter

    per_block = Counter(entry[0] for entry in table._key_map.values())
    for block in table.blocks:
        assert block.valid_count == per_block.get(block.block_id, 0)
    # 3. every valid key is inside the declared range.
    for key in table._key_map:
        assert table.declared_range.contains(key)
    # 4. records are sorted within each live block (whole-payload walk).
    for block in table.blocks:
        if block.is_dead:
            continue
        keys = [r.key for r in walk_block(table, block)[1]]
        assert keys == sorted(keys)
        assert block.first_key == keys[0]
        assert block.last_key == keys[-1]
    # 5. every index entry points at its own record inside its block.
    check_index_offsets(table)


class TestDeviceSpaceConservation:
    @given(st.integers(min_value=1, max_value=5000), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_tree_teardown_frees_everything(self, n, seed):
        fs = make_fs()
        rng = np.random.default_rng(seed)
        tree = LSMTree(
            fs,
            LSMOptions(
                memtable_bytes=4 << 10,
                table_size_bytes=8 << 10,
                level_base_bytes=16 << 10,
                level_multiplier=4,
                num_levels=4,
            ),
        )
        for kid in rng.integers(0, 10_000, size=min(n, 1500)):
            tree.put(encode_key(int(kid)), b"x" * 40)
        # Allocated pages on the device equal the sum of live file pages.
        assert fs.device.allocated_pages == sum(
            f.allocated_pages for f in fs.files()
        )
