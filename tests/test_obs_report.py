"""Tests for the trace report renderers and the ``python -m repro.obs`` CLI."""

from repro.obs.events import TraceRecorder
from repro.obs.report import (
    cascade,
    diff,
    lane_totals_from_events,
    summarize,
    timeline,
)
from repro.obs.__main__ import main as obs_main


def sample_recorder():
    rec = TraceRecorder(capacity=64)
    rec.begin("flush", t=0.0, records=10)
    rec.io("nvme", "flush", "write", 8192, 1, t=0.001)
    rec.begin("compaction", t=0.002, parent_level=1, child_level=2)
    rec.io("sata", "compaction", "read", 4096, 1, t=0.003)
    rec.io("sata", "compaction", "write", 4096, 1, t=0.004)
    rec.end("compaction", t=0.005, output_tables=1)
    rec.end("flush", t=0.006)
    rec.note_phase(
        {
            "phase": "run",
            "traffic": {"nvme": {"flush": {"read_bytes": 0, "write_bytes": 8192}}},
        }
    )
    return rec


class TestRenderers:
    def test_summarize_lists_census_lanes_and_phases(self):
        out = summarize(sample_recorder().to_doc())
        assert "== trace summary ==" in out
        assert "7 retained / 7 emitted (0 dropped)" in out
        assert "io" in out and "flush_begin" in out
        assert "device nvme:" in out and "device sata:" in out
        assert "8.0KiB" in out  # nvme flush write total
        assert "run" in out  # the phase line

    def test_lane_totals_from_events_cross_check(self):
        doc = sample_recorder().to_doc()
        assert lane_totals_from_events(doc) == doc["lane_totals"]

    def test_lane_totals_diverge_only_when_ring_dropped(self):
        rec = TraceRecorder(capacity=2)
        for i in range(5):
            rec.io("nvme", "wal", "write", 4096, 1, t=float(i))
        doc = rec.to_doc()
        from_ring = lane_totals_from_events(doc)
        assert from_ring["nvme"]["wal"]["write_bytes"] == 2 * 4096  # truncated
        assert doc["lane_totals"]["nvme"]["wal"]["write_bytes"] == 5 * 4096

    def test_timeline_strips_and_empty_case(self):
        out = timeline(sample_recorder().to_doc(), buckets=8)
        assert "== timeline ==" in out
        assert "device nvme:" in out
        assert "|" in out
        empty = timeline({"events": []})
        assert "no timestamped io events" in empty

    def test_cascade_nests_spans(self):
        out = cascade(sample_recorder().to_doc())
        lines = out.splitlines()
        assert lines[1].startswith("+ flush")
        # The compaction span is indented one level under the flush span.
        assert any(l.startswith("  + compaction") for l in lines)
        assert cascade({"events": []}).endswith("(no span events in the ring)")

    def test_diff_agreement_and_delta(self):
        doc = sample_recorder().to_doc()
        assert "traces agree" in diff(doc, doc)
        other = sample_recorder()
        other.io("nvme", "flush", "write", 4096, 1, t=0.01)
        out = diff(doc, other.to_doc(), label_a="base", label_b="cand")
        assert "(cand - base)" in out
        assert "+4,096" in out
        assert "io" in out  # event-count delta section


class TestCli:
    def export(self, tmp_path, name="t.jsonl", rec=None):
        path = str(tmp_path / name)
        (rec or sample_recorder()).export_jsonl(path)
        return path

    def test_summarize_command(self, tmp_path, capsys):
        assert obs_main(["summarize", self.export(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== trace summary ==" in out
        assert "device nvme:" in out

    def test_timeline_command(self, tmp_path, capsys):
        assert obs_main(["timeline", self.export(tmp_path), "--buckets", "4"]) == 0
        out = capsys.readouterr().out
        assert "== timeline ==" in out
        assert "== cascade ==" in out

    def test_diff_command(self, tmp_path, capsys):
        a = self.export(tmp_path, "a.jsonl")
        b = self.export(tmp_path, "b.jsonl")
        assert obs_main(["diff", a, b]) == 0
        assert "traces agree" in capsys.readouterr().out
