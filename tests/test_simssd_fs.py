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


class TestReadExtents:
    """``SimFile.read_extents``: a run of file-adjacent extents is one
    sequential read over exactly their bytes, a lone extent one random
    read per page."""

    PAGE = 4096

    def file(self, fs):
        f = fs.create("a")
        f.append(bytes(i % 251 for i in range(5 * self.PAGE)), TrafficKind.FLUSH)
        fs.device.traffic.reset()
        return f

    def test_adjacent_extents_are_one_command_reading_the_shared_page_once(self, fs):
        f = self.file(fs)
        # Page 1 holds bytes of both extents.
        _, service = f.read_extents([(0, 5000), (5000, 4000)], TrafficKind.COMPACTION)
        assert fs.device.traffic.read_ios() == 1
        assert fs.device.traffic.read_bytes() == 3 * self.PAGE
        assert service == pytest.approx(fs.device.profile.read_service_time(3, True))

    def test_a_gap_splits_the_runs(self, fs):
        f = self.file(fs)
        # A run of two in page 0 (one command), then, past a gap, a lone
        # extent over pages 1-3 (one command per page).
        extents = [(0, 100), (100, 100), (5000, 2 * self.PAGE)]
        f.read_extents(extents, TrafficKind.COMPACTION)
        assert fs.device.traffic.read_ios() == 1 + 3
        assert fs.device.traffic.read_bytes() == 4 * self.PAGE

    def test_a_lone_extent_is_one_command_per_page(self, fs):
        f = self.file(fs)
        _, service = f.read_extents([(100, 3 * self.PAGE)], TrafficKind.COMPACTION)
        assert fs.device.traffic.read_ios() == 4
        assert fs.device.traffic.read_bytes() == 4 * self.PAGE
        assert service == pytest.approx(fs.device.profile.read_service_time(4, False))

    def test_returned_bytes_are_the_files_bytes(self, fs):
        f = self.file(fs)
        extents = [(0, 10), (10, 5000), (6000, 7), (8000, self.PAGE), (12096, 1)]
        out, _ = f.read_extents(extents, TrafficKind.COMPACTION)
        data = bytes(f._data)
        assert [bytes(b) for b in out] == [data[o : o + n] for o, n in extents]

    def test_no_extents_cost_nothing(self, fs):
        f = self.file(fs)
        assert f.read_extents([], TrafficKind.COMPACTION) == ([], 0.0)
        assert fs.device.traffic.read_ios() == 0


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
