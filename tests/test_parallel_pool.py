"""Tests for the deterministic process-pool scheduler (repro.parallel.pool)."""

import argparse
import hashlib
import json

import numpy as np
import pytest

from repro import obs
from repro.parallel import Job, add_harness_arguments, finish, run_jobs
from repro.parallel.pool import JobResult, timing_records, unwrap_all


def square(x):
    return x * x


def seeded_draw(n, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1_000_000, size=n).tolist()


def boom(x):
    raise ValueError(f"boom {x}")


def slow_then_value(x):
    # Jitter completion order a little so parallel collection order is
    # actually exercised (results must come back by index, not finish time).
    import time

    time.sleep(0.01 * ((7 - x) % 3))
    if obs.RECORDER is not None:
        obs.RECORDER.emit("marker", x=x)
    return x


class TestSerialExecution:
    def test_results_in_order_with_labels_and_values(self):
        jobs = [Job(square, args=(i,), label=f"sq{i}") for i in range(5)]
        results = run_jobs(jobs, workers=1)
        assert [r.index for r in results] == list(range(5))
        assert [r.label for r in results] == [f"sq{i}" for i in range(5)]
        assert unwrap_all(results) == [0, 1, 4, 9, 16]
        assert all(r.ok and r.seconds >= 0 for r in results)

    def test_failure_captured_not_raised(self):
        results = run_jobs([Job(boom, args=(3,))], workers=1)
        assert not results[0].ok
        assert "boom 3" in results[0].error
        assert "ValueError" in results[0].error
        with pytest.raises(RuntimeError, match="boom 3"):
            results[0].unwrap()

    def test_raise_on_error(self):
        # unwrap_all is the one way a failed job raises; the label is in it.
        jobs = [Job(square, args=(1,)), Job(boom, args=(9,), label="bad")]
        with pytest.raises(RuntimeError, match="bad"):
            unwrap_all(run_jobs(jobs, workers=1))


class TestParallelExecution:
    def test_parallel_equals_serial(self):
        jobs = [Job(seeded_draw, args=(16, s), label=f"s{s}") for s in range(6)]
        serial = unwrap_all(run_jobs(jobs, workers=1))
        parallel = unwrap_all(run_jobs(jobs, workers=3))
        assert serial == parallel

    def test_collection_order_independent_of_completion(self):
        jobs = [Job(slow_then_value, args=(i,)) for i in range(6)]
        results = run_jobs(jobs, workers=3)
        assert unwrap_all(results) == list(range(6))

    def test_traced_shards_absorbed_in_submission_order(self):
        # Traced or not, serial or pooled, a job runs through the one worker
        # function: the parent recorder absorbs the same event stream, in
        # submission order, at either worker count.
        docs = []
        for workers in (1, 2):
            parent = obs.install()
            try:
                results = run_jobs(
                    [Job(slow_then_value, args=(i,)) for i in range(6)],
                    workers=workers,
                )
            finally:
                obs.uninstall()
            assert unwrap_all(results) == list(range(6))
            docs.append(parent.to_doc())
        assert docs[0] == docs[1]
        markers = [e["data"]["x"] for e in docs[0]["events"] if e["type"] == "marker"]
        assert markers == list(range(6))

    def test_parallel_failure_isolated_to_its_job(self):
        jobs = [Job(square, args=(2,)), Job(boom, args=(1,)), Job(square, args=(3,))]
        results = run_jobs(jobs, workers=2)
        assert [r.ok for r in results] == [True, False, True]
        assert results[0].value == 4 and results[2].value == 9
        assert "boom 1" in results[1].error

    def test_workers_zero_means_per_core(self):
        results = run_jobs([Job(square, args=(5,))], workers=0)
        assert results[0].value == 25


class TestSeedsAndTimings:
    def test_timing_records_shape(self):
        recs = timing_records(
            [JobResult(index=0, label="x", seconds=0.5, ok=True, value=1)]
        )
        assert recs == [{"index": 0, "label": "x", "seconds": 0.5, "ok": True}]


class TestHarnessTail:
    """The flags and the artifact tail that repro.bench, repro.chaos and
    repro.faultcheck share (repro.parallel.hostinfo)."""

    def _parse(self, argv):
        parser = argparse.ArgumentParser()
        add_harness_arguments(parser, unit="cell")
        return parser.parse_args(argv)

    def test_defaults_print_and_write_nothing(self, capsys):
        args = self._parse([])
        assert (args.workers, args.digest, args.timing_out, args.trace_out) == (
            1, False, None, None,
        )
        finish(args, None, "report", [])
        assert capsys.readouterr().out == ""

    def test_trace_then_digest_then_timing_document(self, tmp_path, capsys):
        timing, trace = tmp_path / "t.json", tmp_path / "t.jsonl"
        args = self._parse([
            "--workers", "3", "--digest",
            "--timing-out", str(timing), "--trace-out", str(trace),
        ])
        outcomes = run_jobs([Job(square, args=(3,), label="sq:3")])
        recorder = obs.install()
        finish(args, recorder, "report", outcomes)
        assert obs.RECORDER is None  # uninstalled before the export
        out = capsys.readouterr().out.splitlines()
        assert out == [
            f"trace: 0 events (0 dropped) -> {trace}",
            f"DIGEST {hashlib.sha256(b'report').hexdigest()}",
        ]
        assert trace.exists()
        doc = json.loads(timing.read_text())
        assert list(doc) == ["host", "jobs"]
        assert doc["jobs"] == timing_records(outcomes)
        assert doc["jobs"][0]["label"] == "sq:3" and doc["jobs"][0]["ok"]
        host = doc["host"]
        assert host["workers"] == 3 and host["cpu_count"] >= 1
        assert host["machine"] and host["python"]
