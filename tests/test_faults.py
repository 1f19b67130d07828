"""Tests for the fault-injection layer and the engines' hardening against it:
seeded injectors, device retry accounting, torn writes, post-crash images,
manifest-based reopen, quarantine, and checkpoint CRC/degraded recovery."""

import pytest

from repro.common.errors import (
    CorruptionError,
    PowerLossError,
    RecoveryError,
    TransientIOError,
)
from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.lsm.lsmtree import DbPath, LSMOptions, LSMTree
from repro.lsm.manifest import decode_manifest, encode_manifest, TableMeta
from repro.lsm.wal import WriteAheadLog
from repro.nvme import NVMeConfig
from repro.nvme.pagestore import PageStore
from repro.nvme.partition import Partition
from repro.simssd import (
    DeviceProfile,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    SimDevice,
    TrafficKind,
)
from repro.simssd.fs import SimFilesystem

KiB = 1024
MiB = 1024 * KiB


def profile(mib=8):
    return DeviceProfile(
        name="nvme",
        capacity_bytes=mib * MiB,
        page_size=4096,
        read_latency_s=8e-5,
        write_latency_s=2e-5,
        read_bandwidth=6.5e9,
        write_bandwidth=3.5e9,
    )


def device(plan=None, retry=None, mib=8):
    injector = FaultInjector(plan) if plan is not None else None
    return SimDevice(profile(mib), injector=injector, retry_policy=retry)


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(read_error_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(latent_bitflip_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(crash_after_write_io=0)

    def test_deterministic_given_seed(self):
        def faults(seed):
            inj = FaultInjector(FaultPlan(seed=seed, write_error_rate=0.3))
            return [inj.pull_write_fault() for _ in range(50)]

        assert faults(7) == faults(7)
        assert faults(7) != faults(8)

    def test_explicit_ordinals_fire(self):
        inj = FaultInjector(FaultPlan(fail_write_ios=frozenset({2})))
        assert not inj.pull_write_fault()
        assert inj.pull_write_fault()
        assert not inj.pull_write_fault()
        assert inj.transient_write_faults == 1

    def test_max_transient_faults_caps_injection(self):
        inj = FaultInjector(
            FaultPlan(write_error_rate=0.5, max_transient_faults=3, seed=1)
        )
        for _ in range(200):
            inj.pull_write_fault()
        assert inj.transient_faults == 3


class TestRetryPolicy:
    def test_backoff_grows_then_exhausts(self):
        pol = RetryPolicy(max_retries=2, backoff_base_s=1e-3, multiplier=2.0)
        assert pol.backoff_s(0) == pytest.approx(1e-3)
        assert pol.backoff_s(1) == pytest.approx(2e-3)
        assert pol.backoff_s(2) is None

    def test_device_retries_charge_ledger(self):
        # One injected failure: the write is issued twice and both attempts
        # land in the traffic ledger, plus backoff in the service time.
        plan = FaultPlan(fail_write_ios=frozenset({1}))
        dev = device(plan)
        clean = device()
        s_faulty = dev.write_pages(1, TrafficKind.FOREGROUND)
        s_clean = clean.write_pages(1, TrafficKind.FOREGROUND)
        assert dev.retried_ios == 1
        assert dev.traffic.write_ios() == 2 * clean.traffic.write_ios()
        assert dev.traffic.write_bytes() == 2 * clean.traffic.write_bytes()
        assert s_faulty > s_clean

    def test_exhausted_retries_surface_transient_error(self):
        plan = FaultPlan(fail_write_ios=frozenset(range(1, 10)))
        dev = device(plan, retry=RetryPolicy(max_retries=2))
        with pytest.raises(TransientIOError):
            dev.write_pages(1, TrafficKind.FOREGROUND)
        assert dev.traffic.write_ios() == 3  # initial + 2 retries, all charged

    def test_read_path_retries_too(self):
        plan = FaultPlan(fail_read_ios=frozenset({1}))
        dev = device(plan)
        dev.allocate(1)
        dev.read_pages(1, TrafficKind.FOREGROUND)
        assert dev.retried_ios == 1
        assert dev.traffic.read_ios() == 2


class TestCrashAndTornWrites:
    def test_crash_point_freezes_device(self):
        plan = FaultPlan(crash_after_write_io=1)
        dev = device(plan)
        with pytest.raises(PowerLossError):
            dev.write_pages(1, TrafficKind.FOREGROUND)
        assert dev.powered_off
        with pytest.raises(PowerLossError):
            dev.read_pages(1, TrafficKind.FOREGROUND)

    def test_torn_append_persists_prefix(self):
        plan = FaultPlan(seed=3, crash_after_write_io=2)
        dev = device(plan)
        fs = SimFilesystem(dev)
        f = fs.create("f")
        f.append(b"A" * 100, TrafficKind.FOREGROUND)
        with pytest.raises(PowerLossError) as exc:
            f.append(b"B" * 100, TrafficKind.FOREGROUND)
        torn = dev.injector.torn_prefix_len(100, exc.value.torn_fraction)
        assert f._data[100:] == b"B" * torn
        assert 0 <= torn < 100

    def test_untorn_crash_persists_everything(self):
        plan = FaultPlan(crash_after_write_io=1, torn_write=False)
        dev = device(plan)
        fs = SimFilesystem(dev)
        f = fs.create("f")
        with pytest.raises(PowerLossError):
            f.append(b"C" * 64, TrafficKind.FOREGROUND)
        assert bytes(f._data) == b"C" * 64

    def test_post_crash_image_preserves_bytes_and_powers_on(self):
        plan = FaultPlan(seed=1, crash_after_write_io=3)
        dev = device(plan)
        fs = SimFilesystem(dev)
        f = fs.create("keep")
        f.append(b"D" * 500, TrafficKind.FOREGROUND)
        f.append(b"E" * 500, TrafficKind.FOREGROUND)
        with pytest.raises(PowerLossError):
            f.append(b"F" * 500, TrafficKind.FOREGROUND)
        image = fs.post_crash_image()
        g = image.open("keep")
        data, _ = g.read(0, g.size, TrafficKind.FOREGROUND)
        assert data[:1000] == b"D" * 500 + b"E" * 500
        assert data[1000:] == bytes(f._data[1000:])  # the torn tail, verbatim

    def test_reboot_restores_power_once(self):
        plan = FaultPlan(crash_after_write_io=1)
        dev = device(plan)
        with pytest.raises(PowerLossError):
            dev.write_pages(1, TrafficKind.FOREGROUND)
        dev.injector.reboot()
        dev.write_pages(1, TrafficKind.FOREGROUND)  # crash point consumed

    def test_shared_injector_crashes_all_devices(self):
        inj = FaultInjector(FaultPlan(crash_after_write_io=2))
        a = SimDevice(profile(), injector=inj)
        b = SimDevice(profile(), injector=inj)
        a.write_pages(1, TrafficKind.FOREGROUND)
        with pytest.raises(PowerLossError):
            b.write_pages(1, TrafficKind.FOREGROUND)
        with pytest.raises(PowerLossError):
            a.write_pages(1, TrafficKind.FOREGROUND)


class TestBitflips:
    def test_bitflip_lands_on_media(self):
        plan = FaultPlan(seed=5, latent_bitflip_rate=0.999)
        dev = device(plan)
        fs = SimFilesystem(dev)
        f = fs.create("f")
        f.append(b"\x00" * 64, TrafficKind.FOREGROUND)
        assert dev.injector.latent_bitflips >= 1
        data, _ = f.read(0, 64, TrafficKind.FOREGROUND)
        assert data != b"\x00" * 64
        flipped = sum(bin(byte).count("1") for byte in data)
        assert flipped == dev.injector.latent_bitflips

    def test_latent_flips_are_drawn_per_page_written(self):
        # Exposure follows the pages written, not how appends are batched:
        # one append over three pages draws three times, each flip inside
        # its own page.
        dev = device(FaultPlan(seed=3, latent_bitflip_rate=0.999))
        f = SimFilesystem(dev).create("f")
        f.append(b"\x00" * 100, TrafficKind.FOREGROUND)
        assert dev.injector.latent_bitflips == 1
        f.append(b"\x00" * 8192, TrafficKind.FOREGROUND)  # bytes 100..8291
        assert dev.injector.latent_bitflips == 4
        data, _ = f.read(0, f.size, TrafficKind.FOREGROUND)
        ones = [sum(bin(b).count("1") for b in data[p * 4096 : (p + 1) * 4096]) for p in range(3)]
        assert ones[0] == 2 and ones[1:] == [1, 1]

    def test_engine_checksums_catch_bitflips(self):
        # Write under near-certain latent flips: reads either succeed with
        # the correct value or the table is quarantined — corrupt bytes
        # never surface.
        plan = FaultPlan(seed=11, latent_bitflip_rate=0.999)
        dev = device(plan)
        tree = LSMTree(
            [DbPath(SimFilesystem(dev), target_bytes=1 << 62)],
            LSMOptions(
                memtable_bytes=KiB, table_size_bytes=KiB, block_size=512,
                manifest_enabled=True,
            ),
        )
        expect = {}
        for i in range(120):
            key = b"k%04d" % i
            val = b"value-%04d" % i
            tree.put(key, val)
            expect[key] = val
        for key, want in expect.items():
            got, _ = tree.get(key)
            assert got in (want, None)
        assert tree.stats.counter("quarantined_tables").value >= 1
        assert tree.quarantined


class TestWALTornTail:
    def test_replay_returns_clean_prefix_and_flags_tear(self):
        fs = SimFilesystem(device())
        wal = WriteAheadLog(fs, group_size=4)
        for i in range(8):
            wal.append(Record(b"k%d" % i, b"v%d" % i, i + 1))
        assert wal.total_synced_records == 8
        # Tear the tail mid-record.
        f = fs.open("wal")
        torn_size = f.size - 5
        del f._data[torn_size:]
        replay = wal.replay()
        assert replay.truncated
        assert len(replay) == 7
        assert replay.dropped_bytes == f.size - replay.valid_bytes
        assert [r.key for r in replay] == [b"k%d" % i for i in range(7)]

    def test_clean_replay_not_truncated(self):
        fs = SimFilesystem(device())
        wal = WriteAheadLog(fs, group_size=2)
        for i in range(4):
            wal.append(Record(b"k%d" % i, b"v", i + 1))
        replay = wal.replay()
        assert not replay.truncated
        assert replay.dropped_bytes == 0
        assert len(replay) == 4

    def test_truncate_torn_tail_enables_clean_reuse(self):
        fs = SimFilesystem(device())
        wal = WriteAheadLog(fs, group_size=1)
        for i in range(3):
            wal.append(Record(b"k%d" % i, b"v", i + 1))
        f = fs.open("wal")
        del f._data[-3:]
        replay = wal.replay()
        wal.truncate_torn_tail(replay.valid_bytes)
        wal.append(Record(b"new", b"nv", 99))
        replay2 = wal.replay()
        assert not replay2.truncated
        assert [r.key for r in replay2] == [b"k0", b"k1", b"new"]

    def test_failed_group_commit_keeps_records_staged(self):
        plan = FaultPlan(fail_write_ios=frozenset({1, 2}))
        dev = device(plan, retry=RetryPolicy(max_retries=1))
        fs = SimFilesystem(dev)
        wal = WriteAheadLog(fs, group_size=1)
        with pytest.raises(TransientIOError):
            wal.append(Record(b"k", b"v", 1))
        assert wal.total_synced_records == 0
        wal.sync()  # plan ordinals exhausted: this attempt succeeds
        assert wal.total_synced_records == 1


class TestManifestAndReopen:
    def _tree(self, fs):
        return LSMTree(
            [DbPath(fs, target_bytes=1 << 62)],
            LSMOptions(
                memtable_bytes=2 * KiB, table_size_bytes=2 * KiB,
                block_size=512, manifest_enabled=True,
            ),
        )

    def test_manifest_roundtrip(self):
        meta = TableMeta(
            level=1, table_id=7, num_records=3, file_name="sst_7",
            bloom=b"\x01\x02", handles=[],
        )
        data = encode_manifest([meta], table_seq=9, seqno=41)
        tables, seq, seqno = decode_manifest(data)
        assert seq == 9
        assert seqno == 41
        assert tables[0].file_name == "sst_7"

    def test_manifest_corruption_detected(self):
        data = bytearray(encode_manifest([], table_seq=1, seqno=0))
        data[3] ^= 0x10
        with pytest.raises(CorruptionError):
            decode_manifest(bytes(data))
        with pytest.raises(CorruptionError):
            decode_manifest(b"\x00\x01")

    def test_reopen_recovers_tables_and_wal(self):
        fs = SimFilesystem(device())
        tree = self._tree(fs)
        expect = {}
        for i in range(200):
            key = b"k%04d" % i
            val = b"val-%04d" % i
            tree.put(key, val)
            expect[key] = val
        tree.wal.sync()  # make the memtable tail durable (group commit)
        reopened = LSMTree.reopen([DbPath(fs.post_crash_image(), 1 << 62)],
                                  tree.options)
        report = reopened.recovery_report
        assert report is not None
        assert report.manifest_found
        assert report.tables_recovered >= 1
        for key, want in expect.items():
            got, _ = reopened.get(key)
            assert got == want

    def test_reopen_gcs_unreferenced_tables(self):
        fs = SimFilesystem(device())
        tree = self._tree(fs)
        for i in range(200):
            tree.put(b"k%04d" % i, b"v%04d" % i)
        # A half-written table from a crash mid-flush: on media, not in the
        # manifest.
        leak = fs.create("sst_9999")
        leak.append(b"junk", TrafficKind.FLUSH)
        image = fs.post_crash_image()
        reopened = LSMTree.reopen([DbPath(image, 1 << 62)], tree.options)
        assert reopened.recovery_report.leaked_files_removed >= 1
        assert not image.exists("sst_9999")


class TestCheckpointCRC:
    def _partition(self):
        dev = device()
        store = PageStore(dev)
        return Partition(
            partition_id=0,
            key_range=KeyRange(encode_key(0), encode_key(10_000)),
            page_store=store,
            config=NVMeConfig(num_partitions=1, initial_zones_per_partition=2),
            page_budget=dev.profile.num_pages,
        ), store

    def test_corrupt_checkpoint_detected(self):
        part, store = self._partition()
        for i in range(100):
            part.put(Record(encode_key(i), b"v%03d" % i, i + 1))
        part.checkpoint()
        # Flip a byte inside the stored image.
        pid = part._checkpoint_pages[0]
        store._pages[pid][10] ^= 0xFF
        with pytest.raises(CorruptionError):
            part.recover()

    def test_recover_without_checkpoint_raises_recovery_error(self):
        part, _ = self._partition()
        with pytest.raises(RecoveryError):
            part.recover()

    def test_checkpoint_write_keeps_old_image_until_new_is_durable(self):
        part, store = self._partition()
        for i in range(50):
            part.put(Record(encode_key(i), b"v%03d" % i, i + 1))
        part.checkpoint()
        old_pages = list(part._checkpoint_pages)
        for i in range(50, 80):
            part.put(Record(encode_key(i), b"v%03d" % i, i + 1))
        part.checkpoint()
        assert part._checkpoint_pages != old_pages
        part.recover()  # the new image is intact and recoverable
        assert part.contains(encode_key(79))

    def test_reset_state_rebuilds_empty(self):
        part, store = self._partition()
        for i in range(100):
            part.put(Record(encode_key(i), b"v%03d" % i, i + 1))
        part.checkpoint()
        used_before = part.page_store.device.allocated_pages
        part.reset_state()
        assert part.object_count() == 0
        assert part.page_store.device.allocated_pages < used_before
        part.put(Record(encode_key(5), b"fresh", 1000))
        rec, _ = part.get(encode_key(5))
        assert rec.value == b"fresh"
