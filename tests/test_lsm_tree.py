"""Integration tests for the leveled LSM engine."""

import random
from itertools import islice

import pytest

from repro.common.cache import LRUCache
from repro.common.errors import RetryExhaustedError
from repro.common.keys import encode_key
from repro.common.records import Record
from repro.lsm.lsmtree import DbPath, LSMOptions, LSMTree
from repro.lsm.memtable import MemTable
from repro.simssd import DeviceProfile, SimDevice, SimFilesystem, TrafficKind
from repro.simssd.faults import FaultInjector, FaultPlan, RetryPolicy


def make_fs(mib=64, name="dev"):
    profile = DeviceProfile(
        name=name,
        capacity_bytes=mib * (1 << 20),
        page_size=4096,
        read_latency_s=1e-4,
        write_latency_s=5e-5,
        read_bandwidth=5e8,
        write_bandwidth=5e8,
    )
    return SimFilesystem(SimDevice(profile))


def small_options(**kw):
    defaults = dict(
        memtable_bytes=4 << 10,
        table_size_bytes=8 << 10,
        block_size=1024,
        level0_trigger=2,
        level_base_bytes=16 << 10,
        level_multiplier=4,
        num_levels=5,
        wal_group_size=8,
    )
    defaults.update(kw)
    return LSMOptions(**defaults)


@pytest.fixture
def tree():
    return LSMTree(make_fs(), small_options())


class TestLSMTreeBasics:
    def test_put_get(self, tree):
        tree.put(b"hello", b"world")
        value, _ = tree.get(b"hello")
        assert value == b"world"

    def test_get_missing(self, tree):
        value, _ = tree.get(b"nope")
        assert value is None

    def test_update_visible(self, tree):
        tree.put(b"k", b"v1")
        tree.put(b"k", b"v2")
        assert tree.get(b"k")[0] == b"v2"

    def test_delete(self, tree):
        tree.put(b"k", b"v")
        tree.delete(b"k")
        assert tree.get(b"k")[0] is None

    def test_many_writes_survive_flushes_and_compactions(self, tree):
        n = 2000
        for i in range(n):
            tree.put(encode_key(i), b"value-%d" % i)
        assert tree.stats.counter("flushes").value > 0
        assert tree.compactor.stats.compactions > 0
        for i in range(0, n, 97):
            assert tree.get(encode_key(i))[0] == b"value-%d" % i

    def test_overwrites_deduplicated_by_compaction(self, tree):
        for round_no in range(5):
            for i in range(300):
                tree.put(encode_key(i), b"round-%d" % round_no)
        for i in range(0, 300, 13):
            assert tree.get(encode_key(i))[0] == b"round-4"

    def test_delete_survives_compaction(self, tree):
        for i in range(1000):
            tree.put(encode_key(i), b"v")
        tree.delete(encode_key(500))
        for i in range(1000, 2000):
            tree.put(encode_key(i), b"v")
        assert tree.get(encode_key(500))[0] is None
        assert tree.get(encode_key(501))[0] == b"v"

    def test_flush_explicit(self, tree):
        tree.put(b"k", b"v")
        tree.flush()
        assert len(tree.version.level(0)) >= 1 or tree.version.total_tables() >= 1
        assert tree.get(b"k")[0] == b"v"


class TestLSMTreeScan:
    def test_scan_ordered(self, tree):
        for i in range(500):
            tree.put(encode_key(i), bytes([i % 256]))
        out, _ = tree.scan(encode_key(100), 50)
        assert [k for k, _ in out] == [encode_key(i) for i in range(100, 150)]

    def test_scan_sees_memtable_and_disk(self, tree):
        for i in range(0, 100, 2):
            tree.put(encode_key(i), b"disk")
        tree.flush()
        for i in range(1, 100, 2):
            tree.put(encode_key(i), b"mem")
        out, _ = tree.scan(encode_key(0), 10)
        assert len(out) == 10
        assert out[0] == (encode_key(0), b"disk")
        assert out[1] == (encode_key(1), b"mem")

    def test_scan_skips_tombstones(self, tree):
        for i in range(20):
            tree.put(encode_key(i), b"v")
        tree.delete(encode_key(5))
        out, _ = tree.scan(encode_key(0), 20)
        keys = [k for k, _ in out]
        assert encode_key(5) not in keys
        assert len(out) == 19

    def test_scan_newest_value_wins(self, tree):
        tree.put(encode_key(1), b"old")
        tree.flush()
        tree.put(encode_key(1), b"new")
        out, _ = tree.scan(encode_key(0), 5)
        assert out[0] == (encode_key(1), b"new")

    def test_scan_is_the_bounded_consumer_of_iter_from(self, tree):
        """Memtable, an immutable, L0 and deeper levels, tombstones in each."""
        for i in range(3000):
            tree.put(encode_key(i), b"deep-%d" % i)
        for i in range(0, 3000, 7):
            tree.delete(encode_key(i))
        tree.flush()  # the second L0 table: level0_trigger = 2 empties L0
        assert len(tree.version.level(0)) == 0
        for i in range(1, 3000, 50):
            tree.put(encode_key(i), b"l0")
        tree.flush()
        imm = MemTable(tree.options.memtable_bytes)
        for i in range(2, 3000, 90):
            imm.put(Record(encode_key(i), b"imm", tree.next_seqno()))
        imm.put(Record.tombstone(encode_key(3), tree.next_seqno()))
        tree._immutables.append(imm)
        tree.put(encode_key(4), b"mem")
        tree.delete(encode_key(5))
        assert len(tree.version.level(0)) > 0
        assert sum(len(tree.version.level(n)) > 0 for n in (1, 2, 3, 4)) >= 2
        for start, n in ((0, 40), (1, 1), (1500, 200), (2990, 50)):
            pairs = ((r.key, r.value) for r in tree.iter_from(encode_key(start)))
            assert tree.scan(encode_key(start), n)[0] == list(islice(pairs, n))
        head = dict(tree.scan(encode_key(0), 6)[0])
        assert head == {
            encode_key(1): b"l0", encode_key(2): b"imm", encode_key(4): b"mem",
            encode_key(6): b"deep-6", encode_key(8): b"deep-8", encode_key(9): b"deep-9",
        }


class TestLSMTreeLevels:
    def test_levels_respect_targets_after_compaction(self, tree):
        for i in range(5000):
            tree.put(encode_key(i), b"x" * 32)
        for lvl in tree.version.all_levels():
            score = tree.compactor.level_score(lvl.level)
            assert score < 1.5, f"L{lvl.level} score {score}"

    def test_sorted_levels_disjoint(self, tree):
        for i in range(5000):
            tree.put(encode_key(i * 7 % 5000), b"x" * 32)
        for lvl in tree.version.all_levels():
            if lvl.level == 0:
                continue
            tables = list(lvl)
            for a, b in zip(tables, tables[1:]):
                assert a.last_key < b.first_key

    def test_db_paths_split_levels_across_devices(self):
        fast = make_fs(8, "fast")
        slow = make_fs(64, "slow")
        opts = small_options()
        tree = LSMTree(
            [DbPath(fast, target_bytes=48 << 10), DbPath(slow, target_bytes=1 << 30)],
            opts,
        )
        # First level(s) on the fast path, deeper levels on the slow path.
        assert tree.fs_for_level(0) is fast
        deepest = opts.first_level + opts.num_levels - 1
        assert tree.fs_for_level(deepest) is slow
        for i in range(3000):
            tree.put(encode_key(i), b"x" * 32)
        assert slow.device.used_bytes > 0
        for i in range(0, 3000, 111):
            assert tree.get(encode_key(i))[0] == b"x" * 32

    def test_first_level_one_tree(self):
        opts = small_options(first_level=1, wal_enabled=False)
        tree = LSMTree(make_fs(), opts)
        for i in range(2000):
            tree.put(encode_key(i), b"v" * 16)
        for i in range(0, 2000, 101):
            assert tree.get(encode_key(i))[0] == b"v" * 16
        # No level 0 exists; every level is sorted and disjoint.
        for lvl in tree.version.all_levels():
            tables = list(lvl)
            for a, b in zip(tables, tables[1:]):
                assert a.last_key < b.first_key

    def test_one_manifest_per_install(self):
        # A flush merging into L1 writes the manifest once, as a compaction
        # does.
        opts = small_options(first_level=1, manifest_enabled=True)
        tree = LSMTree(make_fs(), opts)
        manifest_writes = []
        write = tree._manifest.write

        def counted_write(*args, **kw):
            manifest_writes.append(args)
            return write(*args, **kw)

        tree._manifest.write = counted_write
        for i in random.Random(3).sample(range(3000), 3000):
            tree.put(encode_key(i), b"v" * 60)
        flushes = tree.stats.counter("flushes").value
        compactions = tree.compactor.stats.compactions
        assert flushes > 10 and compactions > 10
        assert len(manifest_writes) == flushes + compactions


class TestLSMTreeAccounting:
    def test_wal_traffic_recorded(self, tree):
        for i in range(100):
            tree.put(encode_key(i), b"v")
        dev = tree.paths[0].fs.device
        assert dev.traffic.write_bytes(TrafficKind.WAL) > 0

    def test_compaction_traffic_recorded(self, tree):
        for i in range(3000):
            tree.put(encode_key(i), b"x" * 32)
        dev = tree.paths[0].fs.device
        assert dev.traffic.write_bytes(TrafficKind.COMPACTION) > 0
        assert dev.traffic.read_bytes(TrafficKind.COMPACTION) > 0

    def test_per_level_compaction_stats(self, tree):
        for i in range(5000):
            tree.put(encode_key(i), b"x" * 32)
        stats = tree.compactor.stats
        assert stats.total_write_bytes() > 0
        assert len(stats.write_bytes_by_level) >= 1

    def test_write_amplification_above_one(self, tree):
        payload = 0
        for i in range(3000):
            tree.put(encode_key(i % 600), b"x" * 64)
            payload += 8 + 64
        dev = tree.paths[0].fs.device
        total_writes = dev.traffic.write_bytes()
        assert total_writes > payload  # WAL + flush + compaction rewrite

    def test_block_cache_reduces_foreground_reads(self):
        cache = LRUCache(4 << 20)
        tree = LSMTree(make_fs(), small_options(), cache=cache)
        for i in range(2000):
            tree.put(encode_key(i), b"x" * 32)
        tree.get(encode_key(123))
        dev = tree.paths[0].fs.device
        dev.traffic.reset()
        tree.get(encode_key(123))
        assert dev.traffic.read_bytes(TrafficKind.FOREGROUND) == 0

    def test_space_reclaimed_by_compaction(self, tree):
        # Overwrite the same small key set many times; stale versions must
        # not accumulate without bound.
        for _ in range(20):
            for i in range(200):
                tree.put(encode_key(i), b"x" * 64)
        live = 200 * (8 + 64)
        assert tree.size_bytes() < live * 30


class TestLSMTreeReopen:
    def test_reopen_resumes_seqnos_above_flushed_tables(self):
        # After a flush the WAL holds nothing to replay, so the seqnos must
        # resume from the manifest's mark; restarted at 0, the next write
        # loses the compaction merge to the older copy in a table.
        fs = make_fs()
        tree = LSMTree(fs, small_options(manifest_enabled=True))
        for i in range(100):
            tree.put(encode_key(1), b"old%d" % i)
        tree.flush()
        tree = LSMTree.reopen(fs, tree.options)
        tree.put(encode_key(1), b"new")
        tree.flush()
        assert tree.get(encode_key(1))[0] == b"new"


class TestFailedFlush:
    """A flush that fails keeps its memtable readable, and the next flush
    installs it before the newer one."""

    @staticmethod
    def load(first_level, fail_io=None):
        """Put shuffled keys into a WAL-less tree whose device fails its
        ``fail_io`` read (``first_level`` 1: the flush's merge into L1) or
        write (``first_level`` 0: the L0 table) with no retry.  Returns the
        tree, the keys acked, the keys written since the last flush, and
        each put's ordinal of that I/O kind before it ran."""
        kind = "fail_read_ios" if first_level else "fail_write_ios"
        plan = FaultPlan() if fail_io is None else FaultPlan(**{kind: frozenset({fail_io})})
        injector = FaultInjector(plan)
        device = SimDevice(
            make_fs().device.profile, injector=injector,
            retry_policy=RetryPolicy(max_retries=0),
        )
        opts = small_options(first_level=first_level, wal_enabled=False)
        tree = LSMTree(SimFilesystem(device), opts)
        keys = [encode_key(i) for i in random.Random(5).sample(range(4000), 1500)]
        acked, pending, ordinals = [], [], []
        flushes = tree.stats.counter("flushes")
        for key in keys:
            ordinals.append(injector.read_ios if first_level else injector.write_ios)
            before = flushes.value
            pending.append(key)
            try:
                tree.put(key, key * 4)
            except RetryExhaustedError:
                return tree, acked, pending, ordinals
            acked.append(key)
            if flushes.value != before:
                pending = []
        return tree, acked, pending, ordinals

    @pytest.mark.parametrize("first_level", [0, 1])
    def test_acked_puts_survive_a_failed_flush(self, first_level):
        _, _, _, ordinals = self.load(first_level)
        # The first I/O of the first put past the 800th that does one: the
        # put whose flush merges into L1 or writes an L0 table.
        target = next(
            i for i in range(800, len(ordinals)) if ordinals[i + 1] != ordinals[i]
        )
        tree, acked, pending, _ = self.load(first_level, ordinals[target] + 1)
        assert len(acked) == target and len(pending) > 10
        for key in acked:
            assert tree.get(key)[0] == key * 4

        runs = []
        install = tree.compactor.install

        def recorded_install(run, *args):
            runs.append(run)
            return install(run, *args)

        tree.compactor.install = recorded_install
        later = [encode_key(i) for i in range(4000, 4400)]
        for key in pending + later:
            tree.put(key, key * 5)
        assert [e[0] for e in runs[0]] == sorted(pending)
        for key in acked:
            assert tree.get(key)[0] == key * (5 if key in pending else 4)
        for key in later:
            assert tree.get(key)[0] == key * 5
