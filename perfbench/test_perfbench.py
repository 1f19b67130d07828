"""The benchmark's own test: ``python -m pytest perfbench -q``.

A 2 000-record, two-repetition pass of all four workloads.  At that size the
NVMe floor keeps migration from running, so this checks that the benchmark
emits what ``BENCHMARK.json`` declares, not that the numbers mean anything.
"""

from __future__ import annotations

import math
import re

import pytest

import run

run.import_program()

import bench  # noqa: E402  (needs the program on the path)

SPEC = run.load_spec()
RECORDS = 2_000
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Differences of two noisy host times; everything else is a magnitude.
MAY_BE_NEGATIVE = {"trace.overhead_frac"}


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(m["better"] in ("lower", "higher") for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert set(bench.SIMULATED) < {m["name"] for m in SPEC["end_to_end"]}


def check_values(declared, values):
    for m in declared:
        value = values[m["name"]]
        assert value is not None, f"{m['name']} did not resolve"
        assert math.isfinite(value), m["name"]
        if m["name"] not in MAY_BE_NEGATIVE:
            assert value >= 0, m["name"]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_end_to_end_metrics(name):
    values, attempted, failed, reps = run.measure(bench.WORKLOADS[name], 7, 2, RECORDS)
    check_values(SPEC["end_to_end"], values)
    assert all(values[m["name"]] > 0 for m in SPEC["end_to_end"])
    assert attempted > 0 and failed == 0
    assert reps[0].digest == reps[1].digest
    line = run.result_line(SPEC["end_to_end"], values, attempted, failed)
    assert '"correct": true' in line


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_per_layer_metrics(name):
    values, attempted, failed, report = run.trace(bench.WORKLOADS[name], 7, RECORDS, None)
    assert not [line for line in report if line.startswith("unresolved")]
    check_values(SPEC["per_layer"], values)
    assert attempted > 0 and failed == 0
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}


def test_lookup_that_no_longer_resolves_is_null_not_an_error():
    import counters

    unresolved = []
    values = counters.store_counters(object(), "hyperdb", unresolved)
    assert values["migration.demotion_jobs"] is None
    assert values["lsm.flushes"] == 0.0  # not this engine's layer
    assert any("migration.demotion_jobs" in line for line in unresolved)
