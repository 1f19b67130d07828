"""Light tests of the experiment registry (the heavy runs live in
benchmarks/)."""

import numpy as np

from repro.bench.context import BenchScale
from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    fig6a_interval_correlation,
    fig9b_points,
)


class TestRegistry:
    def test_every_figure_registered(self):
        expected = {
            "fig2", "fig3", "fig6a", "fig8", "fig9a", "fig9b", "fig9c",
            "fig10", "fig11", "queue_depth", "degraded_cost", "ablations",
        }
        assert set(ALL_EXPERIMENTS) == expected

    def test_entries_callable_with_docstrings(self):
        for name, fn in ALL_EXPERIMENTS.items():
            assert callable(fn), name
            assert fn.__doc__, f"{name} lacks a docstring"


class TestFig9bPoints:
    def test_every_point_loads_the_base_byte_volume(self):
        base = BenchScale(record_count=25_000)
        sizes = (16, 64, 128, 512, 1024, 4096)
        for vs, point in zip(sizes, fig9b_points(base, sizes)):
            assert point.value_size == vs
            assert point.operations == base.operations
            on_floor = point.record_count == 2000
            short = base.dataset_bytes - point.dataset_bytes
            assert on_floor or 0 <= short < point.record_size, vs
        assert fig9b_points(base, (128,))[0].record_count == base.record_count


class TestFig6aUnit:
    # fig6a needs no stores, so it is cheap enough to exercise here.
    def test_result_structure(self):
        result = fig6a_interval_correlation(n_keys=200, accesses=5000)
        assert set(result) >= {"title", "headers", "rows", "raw"}
        assert len(result["rows"]) == 9  # 3 thresholds x 3 histories
        for row in result["rows"]:
            assert len(row) == len(result["headers"])

    def test_deterministic(self):
        a = fig6a_interval_correlation(n_keys=200, accesses=5000, seed=5)
        b = fig6a_interval_correlation(n_keys=200, accesses=5000, seed=5)
        assert a["rows"] == b["rows"]

    def test_probabilities_valid(self):
        result = fig6a_interval_correlation(n_keys=200, accesses=5000)
        for summary in result["raw"].values():
            if summary["objects"] == 0:
                # empty cells are normalized to None (never NaN) so that
                # rows/raw stay equality- and digest-stable
                assert summary["median"] is None
                assert summary["p25"] is None
                assert summary["p75"] is None
                continue
            assert 0.0 <= summary["median"] <= 1.0
            assert summary["p25"] <= summary["p75"] + 1e-12

    def test_parallel_workers_identical_to_serial(self):
        serial = fig6a_interval_correlation(n_keys=200, accesses=5000, workers=1)
        fanned = fig6a_interval_correlation(n_keys=200, accesses=5000, workers=2)
        assert serial["rows"] == fanned["rows"]
        assert serial["raw"] == fanned["raw"]
