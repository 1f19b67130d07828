"""Unit tests for the simulated filesystem."""

import pytest

from repro.common.errors import ClosedError, ReproError
from repro.simssd import DeviceProfile, SimDevice, SimFilesystem, TrafficKind


@pytest.fixture
def fs():
    profile = DeviceProfile(
        name="t",
        capacity_bytes=64 * 4096,
        page_size=4096,
        read_latency_s=1e-4,
        write_latency_s=5e-5,
        read_bandwidth=1e8,
        write_bandwidth=5e7,
    )
    return SimFilesystem(SimDevice(profile))


class TestSimFile:
    def test_append_read_roundtrip(self, fs):
        f = fs.create("a")
        off, _ = f.append(b"hello", TrafficKind.FLUSH)
        assert off == 0
        off2, _ = f.append(b"world", TrafficKind.FLUSH)
        assert off2 == 5
        data, _ = f.read(0, 10, TrafficKind.FOREGROUND)
        assert data == b"helloworld"

    def test_page_allocation_lazy(self, fs):
        f = fs.create("a")
        f.append(b"x" * 100, TrafficKind.FLUSH)
        assert f.allocated_pages == 1
        f.append(b"x" * 4096, TrafficKind.FLUSH)
        assert f.allocated_pages == 2

    def test_append_inside_last_page_no_new_allocation(self, fs):
        f = fs.create("a")
        f.append(b"\x00" * 10, TrafficKind.FLUSH)
        before = fs.device.allocated_pages
        fs.device.traffic.reset()
        f.append(b"patch", TrafficKind.FOREGROUND)
        assert fs.device.allocated_pages == before
        # The tail page is rewritten: an append pays every page it spans.
        assert fs.device.traffic.write_bytes() == 4096
        data, _ = f.read(10, 5, TrafficKind.FOREGROUND)
        assert data == b"patch"

    def test_append_is_one_command_over_every_page_it_spans(self, fs):
        f = fs.create("a")
        f.append(b"x" * 100, TrafficKind.FLUSH)
        fs.device.traffic.reset()
        f.append(b"y" * 8192, TrafficKind.FLUSH)  # bytes 100..8291: 3 pages
        assert fs.device.traffic.write_bytes() == 3 * 4096
        assert fs.device.traffic.write_ios() == 1

    def test_read_outside_extent_rejected(self, fs):
        f = fs.create("a")
        f.append(b"abc", TrafficKind.FLUSH)
        with pytest.raises(ReproError):
            f.read(0, 4, TrafficKind.FOREGROUND)

    def test_read_page_span_charging(self, fs):
        f = fs.create("a")
        f.append(b"x" * 8192, TrafficKind.FLUSH)
        fs.device.traffic.reset()
        # Crossing a page boundary touches two pages.
        f.read(4090, 10, TrafficKind.FOREGROUND)
        assert fs.device.traffic.read_bytes() == 2 * 4096

    def test_empty_ops_free(self, fs):
        f = fs.create("a")
        _, service = f.append(b"", TrafficKind.FLUSH)
        assert service == 0.0
        data, service = f.read(0, 0, TrafficKind.FOREGROUND)
        assert data == b"" and service == 0.0

    def test_delete_frees_pages(self, fs):
        f = fs.create("a")
        f.append(b"x" * 10000, TrafficKind.FLUSH)
        assert fs.device.allocated_pages == 3
        fs.delete("a")
        assert fs.device.allocated_pages == 0
        with pytest.raises(ClosedError):
            f.append(b"y", TrafficKind.FLUSH)


class TestSimFilesystem:
    def test_create_open_exists(self, fs):
        fs.create("a")
        assert fs.exists("a")
        assert fs.open("a").name == "a"
        assert not fs.exists("b")
        with pytest.raises(ReproError):
            fs.open("b")

    def test_duplicate_create_rejected(self, fs):
        fs.create("a")
        with pytest.raises(ReproError):
            fs.create("a")

    def test_autonaming(self, fs):
        f1 = fs.create()
        f2 = fs.create()
        assert f1.name != f2.name

    def test_delete_missing_rejected(self, fs):
        with pytest.raises(ReproError):
            fs.delete("nope")

    def test_used_bytes(self, fs):
        fs.create("a").append(b"x" * 5000, TrafficKind.FLUSH)
        assert fs.used_bytes == 2 * 4096
        assert len(fs) == 1
