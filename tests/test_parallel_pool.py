"""Tests for the deterministic process-pool scheduler (repro.parallel.pool)."""

import argparse
import hashlib
import json

import numpy as np
import pytest

from repro import obs
from repro.parallel import Job, add_harness_arguments, derive_seeds, finish, run_jobs
from repro.parallel.pool import (
    JobResult,
    default_workers,
    timing_records,
    unwrap_all,
)


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
    return x


class TestSerialExecution:
    def test_results_in_order_with_labels_and_values(self):
        jobs = [Job(square, args=(i,), label=f"sq{i}") for i in range(5)]
        results = run_jobs(jobs, workers=1)
        assert [r.index for r in results] == list(range(5))
        assert [r.label for r in results] == [f"sq{i}" for i in range(5)]
        assert unwrap_all(results) == [0, 1, 4, 9, 16]
        assert all(r.ok and r.seconds >= 0 for r in results)

    def test_seed_passed_as_keyword(self):
        jobs = [Job(seeded_draw, args=(4,), seed=s) for s in (1, 2, 1)]
        a, b, a2 = unwrap_all(run_jobs(jobs, workers=1))
        assert a == a2
        assert a != b

    def test_failure_captured_not_raised(self):
        results = run_jobs([Job(boom, args=(3,))], workers=1)
        assert not results[0].ok
        assert "boom 3" in results[0].error
        assert "ValueError" in results[0].error
        with pytest.raises(RuntimeError, match="boom 3"):
            results[0].unwrap()

    def test_raise_on_error(self):
        jobs = [Job(square, args=(1,)), Job(boom, args=(9,), label="bad")]
        with pytest.raises(RuntimeError, match="bad"):
            run_jobs(jobs, workers=1, raise_on_error=True)


class TestParallelExecution:
    def test_parallel_equals_serial(self):
        jobs = [Job(seeded_draw, args=(16,), seed=s, label=f"s{s}") for s in range(6)]
        serial = unwrap_all(run_jobs(jobs, workers=1))
        parallel = unwrap_all(run_jobs(jobs, workers=3))
        assert serial == parallel

    def test_collection_order_independent_of_completion(self):
        jobs = [Job(slow_then_value, args=(i,)) for i in range(6)]
        results = run_jobs(jobs, workers=3)
        assert unwrap_all(results) == list(range(6))

    def test_parallel_failure_isolated_to_its_job(self):
        jobs = [Job(square, args=(2,)), Job(boom, args=(1,)), Job(square, args=(3,))]
        results = run_jobs(jobs, workers=2)
        assert [r.ok for r in results] == [True, False, True]
        assert results[0].value == 4 and results[2].value == 9
        assert "boom 1" in results[1].error

    def test_workers_zero_means_per_core(self):
        assert default_workers() >= 1
        results = run_jobs([Job(square, args=(5,))], workers=0)
        assert results[0].value == 25


class TestSeedsAndTimings:
    def test_derive_seeds_deterministic_and_distinct(self):
        a = derive_seeds(42, 8)
        b = derive_seeds(42, 8)
        c = derive_seeds(43, 8)
        assert a == b
        assert a != c
        assert len(set(a)) == 8

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
        finish(args, None, "report", {"cells": []})
        assert capsys.readouterr().out == ""

    def test_trace_then_digest_then_timing_document(self, tmp_path, capsys):
        timing, trace = tmp_path / "t.json", tmp_path / "t.jsonl"
        args = self._parse([
            "--workers", "3", "--digest",
            "--timing-out", str(timing), "--trace-out", str(trace),
        ])
        recorder = obs.install()
        finish(args, recorder, "report", {"cells": [1, 2]})
        assert obs.RECORDER is None  # uninstalled before the export
        out = capsys.readouterr().out.splitlines()
        assert out == [
            f"trace: 0 events (0 dropped) -> {trace}",
            f"DIGEST {hashlib.sha256(b'report').hexdigest()}",
        ]
        assert trace.exists()
        doc = json.loads(timing.read_text())
        assert list(doc) == ["host", "cells"] and doc["cells"] == [1, 2]
        host = doc["host"]
        assert host["workers"] == 3 and host["cpu_count"] >= 1
        assert host["machine"] and host["python"]
