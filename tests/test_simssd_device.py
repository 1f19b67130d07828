"""Unit tests for device profiles and the simulated device."""

import pytest

from repro.common.errors import CapacityError
from repro.simssd import NVME_PROFILE, SATA_PROFILE, DeviceProfile, SimDevice, TrafficKind


def tiny_profile(**kw):
    defaults = dict(
        name="tiny",
        capacity_bytes=64 * 4096,
        page_size=4096,
        read_latency_s=100e-6,
        write_latency_s=50e-6,
        read_bandwidth=100e6,
        write_bandwidth=50e6,
    )
    defaults.update(kw)
    return DeviceProfile(**defaults)


class TestDeviceProfile:
    def test_default_profiles_valid(self):
        assert NVME_PROFILE.num_pages > 0
        assert SATA_PROFILE.num_pages > 0
        # The point of the heterogeneous setup: NVMe is strictly faster.
        assert NVME_PROFILE.read_latency_s < SATA_PROFILE.read_latency_s
        assert NVME_PROFILE.read_bandwidth > SATA_PROFILE.read_bandwidth

    def test_sequential_cheaper_than_random(self):
        p = tiny_profile()
        assert p.read_service_time(8, sequential=True) < p.read_service_time(
            8, sequential=False
        )

    def test_single_page_equal_cost(self):
        p = tiny_profile()
        assert p.read_service_time(1, True) == pytest.approx(
            p.read_service_time(1, False)
        )

    def test_service_time_formula(self):
        p = tiny_profile()
        assert p.write_service_time(2, sequential=True) == pytest.approx(
            50e-6 + 2 * 4096 / 50e6
        )
        assert p.write_service_time(2, sequential=False) == pytest.approx(
            2 * (50e-6 + 4096 / 50e6)
        )

    def test_with_capacity_rounds_up(self):
        p = tiny_profile().with_capacity(5000)
        assert p.capacity_bytes == 8192

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_profile(capacity_bytes=0)
        with pytest.raises(ValueError):
            tiny_profile(capacity_bytes=4097)
        with pytest.raises(ValueError):
            tiny_profile(read_bandwidth=0)
        with pytest.raises(ValueError):
            tiny_profile(read_latency_s=-1)


class TestSimDevice:
    def test_allocation_and_capacity(self):
        d = SimDevice(tiny_profile())
        d.allocate(10)
        assert d.allocated_pages == 10
        assert d.free_pages == 54
        assert d.used_bytes == 10 * 4096
        with pytest.raises(CapacityError):
            d.allocate(55)

    def test_trim(self):
        d = SimDevice(tiny_profile())
        d.allocate(10)
        d.trim(4)
        assert d.allocated_pages == 6
        # Over-trim clamps at zero (double-free during degraded rebuild
        # must not underflow the allocator).
        d.trim(7)
        assert d.allocated_pages == 0

    def test_allocate_out_of_space_message(self):
        from repro.common.errors import OutOfSpaceError

        d = SimDevice(tiny_profile())  # 64 pages
        d.allocate(60)
        with pytest.raises(OutOfSpaceError) as exc:
            d.allocate(10)
        msg = str(exc.value)
        assert "'tiny'" in msg          # device name
        assert "10 page(s)" in msg      # requested
        assert "4 of 64 free" in msg    # free pages
        # Still a CapacityError for callers that degrade on capacity.
        assert isinstance(exc.value, CapacityError)
        assert d.allocated_pages == 60  # failed allocation changed nothing

    def test_fill_fraction(self):
        d = SimDevice(tiny_profile())
        d.allocate(32)
        assert d.fill_fraction == 0.5

    def test_io_charges_traffic_by_kind(self):
        d = SimDevice(tiny_profile())
        d.read_pages(4, TrafficKind.FOREGROUND)
        d.write_pages(2, TrafficKind.COMPACTION)
        assert d.traffic.read_bytes(TrafficKind.FOREGROUND) == 4 * 4096
        assert d.traffic.write_bytes(TrafficKind.COMPACTION) == 2 * 4096
        assert d.traffic.read_bytes(TrafficKind.COMPACTION) == 0

    def test_random_read_counts_per_page_ios(self):
        d = SimDevice(tiny_profile())
        d.read_pages(4, TrafficKind.FOREGROUND, sequential=False)
        d.read_pages(4, TrafficKind.FOREGROUND, sequential=True)
        assert d.traffic.read_ios() == 4 + 1

    def test_zero_pages_free(self):
        d = SimDevice(tiny_profile())
        assert d.read_pages(0, TrafficKind.FOREGROUND) == 0.0
        assert d.write_pages(0, TrafficKind.FLUSH) == 0.0
        assert d.busy_seconds() == 0.0

    def test_byte_io_rounds_to_pages(self):
        d = SimDevice(tiny_profile())
        d.write_bytes_io(100, TrafficKind.WAL)
        assert d.traffic.write_bytes(TrafficKind.WAL) == 4096
        d.read_bytes_io(4097, TrafficKind.FOREGROUND)
        assert d.traffic.read_bytes(TrafficKind.FOREGROUND) == 8192

    def test_busy_time_accumulates(self):
        d = SimDevice(tiny_profile())
        t1 = d.read_pages(1, TrafficKind.FOREGROUND)
        t2 = d.write_pages(1, TrafficKind.FLUSH)
        assert d.busy_seconds() == pytest.approx(t1 + t2)

    def test_background_busy_excludes_foreground_and_wal(self):
        d = SimDevice(tiny_profile())
        d.read_pages(1, TrafficKind.FOREGROUND)
        d.write_pages(1, TrafficKind.WAL)
        d.write_pages(5, TrafficKind.COMPACTION)
        d.write_pages(2, TrafficKind.MIGRATION)
        assert d.traffic.background_busy_seconds() == pytest.approx(
            d.traffic.busy_seconds(TrafficKind.COMPACTION)
            + d.traffic.busy_seconds(TrafficKind.MIGRATION)
        )
        assert d.traffic.background_bytes() == 7 * 4096

    def test_latency_transfer_split(self):
        d = SimDevice(tiny_profile())
        d.read_pages(4, TrafficKind.FOREGROUND, sequential=False)
        t = d.traffic
        assert t.latency_seconds() == pytest.approx(4 * 100e-6)
        assert t.transfer_seconds() == pytest.approx(4 * 4096 / 1e8)
        assert t.busy_seconds() == pytest.approx(
            t.latency_seconds() + t.transfer_seconds()
        )

    def test_traffic_snapshot_and_reset(self):
        d = SimDevice(tiny_profile())
        d.write_pages(1, TrafficKind.MIGRATION)
        snap = d.traffic.snapshot()
        assert snap["migration"]["write_bytes"] == 4096
        d.traffic.reset()
        assert d.traffic.total_bytes() == 0
