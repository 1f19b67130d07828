"""Unit tests for the obs trace recorder: ring bounds, exact aggregates,
span depth, JSONL round trips, shard absorption, and the ambient install
lifecycle."""

import pytest

from repro import obs
from repro.obs.events import (
    LANE_FIELDS,
    TraceRecorder,
    events_of,
    read_trace,
)
from repro.simssd import DeviceProfile, SimDevice, TrafficKind

KiB = 1024
MiB = 1024 * KiB


def small_device(name="nvme", mib=8):
    return SimDevice(
        DeviceProfile(
            name=name,
            capacity_bytes=mib * MiB,
            page_size=4096,
            read_latency_s=8e-5,
            write_latency_s=2e-5,
            read_bandwidth=6.5e9,
            write_bandwidth=3.5e9,
        )
    )


class TestRecorderRing:
    def test_emit_sequencing_and_counts(self):
        rec = TraceRecorder(capacity=16)
        rec.emit("a", t=1.0, x=1)
        rec.emit("b")
        rec.emit("a", y=2)
        assert rec.total_events == 3
        assert rec.num_events == 3
        assert rec.dropped == 0
        assert rec.counts == {"a": 2, "b": 1}
        evs = rec.events()
        assert [e.seq for e in evs] == [1, 2, 3]
        assert evs[0].t == 1.0 and evs[1].t is None

    def test_ring_keeps_newest_and_counts_drops(self):
        rec = TraceRecorder(capacity=4)
        for i in range(6):
            rec.emit("tick", i=i)
        assert rec.num_events == 4
        assert rec.total_events == 6
        assert rec.dropped == 2
        # The census still covers every emission, dropped ones included.
        assert rec.counts == {"tick": 6}
        assert [e.data["i"] for e in rec.events()] == [2, 3, 4, 5]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_span_depth_tracked_and_clamped(self):
        rec = TraceRecorder()
        rec.begin("job")
        rec.emit("inner")
        rec.begin("sub")
        rec.end("sub")
        rec.end("job")
        rec.end("job")  # extra end must clamp at 0, not go negative
        depths = [(e.type, e.depth) for e in rec.events()]
        assert depths == [
            ("job_begin", 0),
            ("inner", 1),
            ("sub_begin", 1),
            ("sub_end", 1),
            ("job_end", 0),
            ("job_end", 0),
        ]

    def test_lane_totals_exact_despite_drops(self):
        rec = TraceRecorder(capacity=2)
        for i in range(5):
            rec.io("nvme", "flush", "write", 4096, 1, t=float(i))
        rec.io("nvme", "flush", "read", 8192, 2)
        assert rec.dropped == 4
        tot = rec.lane_totals["nvme"]["flush"]
        assert tot["write_bytes"] == 5 * 4096
        assert tot["write_ios"] == 5
        assert tot["read_bytes"] == 8192
        assert tot["read_ios"] == 2


class TestExportAndMerge:
    def filled(self):
        rec = TraceRecorder(capacity=8)
        rec.begin("flush", t=0.1, records=3)
        rec.io("nvme", "flush", "write", 4096, 1, t=0.2)
        rec.end("flush", t=0.3)
        rec.note_phase({"phase": "load", "traffic": {}})
        return rec

    def test_to_doc_shape(self):
        doc = self.filled().to_doc()
        assert doc["header"]["events"] == 3
        assert doc["header"]["total_events"] == 3
        assert doc["header"]["dropped"] == 0
        assert doc["header"]["counts"] == {
            "flush_begin": 1, "io": 1, "flush_end": 1,
        }
        assert doc["lane_totals"]["nvme"]["flush"]["write_bytes"] == 4096
        assert doc["phases"] == [{"phase": "load", "traffic": {}}]
        assert [e["type"] for e in doc["events"]] == [
            "flush_begin", "io", "flush_end",
        ]

    def test_jsonl_round_trip(self, tmp_path):
        rec = self.filled()
        path = str(tmp_path / "trace.jsonl")
        rec.export_jsonl(path)
        doc = read_trace(path)
        assert doc == rec.to_doc()

    def test_events_of_filter(self):
        doc = self.filled().to_doc()
        assert len(events_of(doc)) == 3
        assert [e["type"] for e in events_of(doc, "io")] == ["io"]
        assert len(events_of(doc, "flush_begin", "flush_end")) == 2

    def test_absorb_renumbers_and_sums(self):
        a = TraceRecorder(capacity=8)
        a.io("nvme", "wal", "write", 4096, 1, t=0.1)
        b = TraceRecorder(capacity=2)
        for i in range(4):  # 2 dropped in the shard
            b.io("nvme", "wal", "write", 4096, 1, t=float(i))
        merged = TraceRecorder(capacity=16)
        merged.absorb(a.to_doc())
        merged.absorb(b.to_doc())
        assert [e.seq for e in merged.events()] == [1, 2, 3]
        assert merged.total_events == 3  # retained shard events replayed
        assert merged.dropped == 2  # the shard's own drops carry through
        assert merged.counts == {"io": 5}  # full census, drops included
        assert merged.lane_totals["nvme"]["wal"]["write_bytes"] == 5 * 4096


class TestAmbientInstall:
    def teardown_method(self):
        obs.uninstall()

    def test_install_uninstall(self):
        assert obs.RECORDER is None
        rec = obs.install(capacity=32)
        assert obs.RECORDER is rec
        assert rec.capacity == 32
        assert obs.uninstall() is rec
        assert obs.RECORDER is None

    def test_recording_context_restores(self):
        with obs.recording(capacity=8) as rec:
            assert obs.RECORDER is rec
        assert obs.RECORDER is None

    def test_recording_context_leaves_foreign_recorder(self):
        with obs.recording() as rec:
            other = obs.install()
            assert other is not rec
        # The context only clears the recorder it installed itself.
        assert obs.RECORDER is other


class TestMetricScope:
    def teardown_method(self):
        obs.uninstall()

    def test_traffic_delta_is_phase_scoped(self):
        dev = small_device()
        dev.write_pages(4, TrafficKind.FLUSH)  # pre-phase traffic
        with obs.MetricScope("run", {"nvme": dev}) as scope:
            dev.write_pages(2, TrafficKind.FLUSH)
            dev.read_pages(3, TrafficKind.FOREGROUND)
        lanes = scope.report["traffic"]["nvme"]
        assert lanes["flush"]["write_bytes"] == 2 * 4096
        assert lanes["flush"]["write_ios"] == 1  # sequential write = 1 io
        assert lanes["foreground"]["read_bytes"] == 3 * 4096
        assert lanes["foreground"]["read_ios"] == 3

    def test_registry_counters_and_histograms(self):
        from repro.common.stats import StatsRegistry

        reg = StatsRegistry()
        reg.counter("ops").add(10)
        with obs.MetricScope("run", {}, registry=reg) as scope:
            reg.counter("ops").add(5)
            reg.histogram("lat").record_many([1.0, 2.0, 3.0])
        assert scope.report["counters"] == {"ops": 5}
        assert scope.report["histograms"]["lat"]["count"] == 3
        assert scope.report["histograms"]["lat"]["median"] == 2.0

    def test_publishes_to_ambient_recorder(self):
        dev = small_device()
        rec = obs.install()
        with obs.MetricScope("recovery", {"nvme": dev}):
            dev.read_pages(1, TrafficKind.FOREGROUND)
        assert len(rec.phases) == 1
        assert rec.phases[0]["phase"] == "recovery"

    def test_explicit_recorder_wins_over_ambient(self):
        dev = small_device()
        ambient = obs.install()
        mine = TraceRecorder()
        with obs.MetricScope("load", {"nvme": dev}, recorder=mine):
            pass
        assert mine.phases and not ambient.phases
