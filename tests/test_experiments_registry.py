"""Light tests of the experiment registry (the heavy runs live in
benchmarks/)."""

import time
from unittest.mock import MagicMock

import pytest

from repro.bench import experiments
from repro.bench.context import BenchScale
from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    _figure,
    fig6a_interval_correlation,
    fig9b_points,
    fig9c_points,
)
from repro.parallel import JobResult


def _stub_cell(x):
    """No store built: later points finish first, point 13 fails."""
    time.sleep(0.01 * ((7 - x) % 3))
    if x == 13:
        raise ValueError("unlucky")
    return x * x


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

    @pytest.mark.parametrize("name", list(ALL_EXPERIMENTS))
    def test_spec_points_labels_and_row_widths(self, name, monkeypatch):
        # Spec level: the figure builds its points and formats its rows, but
        # no cell runs — every job "returns" a mock that answers anything.
        def stub_run_jobs(jobs, workers=1):
            return [
                JobResult(i, job.label, 0.0, True, MagicMock())
                for i, job in enumerate(jobs)
            ]

        monkeypatch.setattr(experiments, "run_jobs", stub_run_jobs)
        result = ALL_EXPERIMENTS[name]()
        labels = [job.label for job in result["jobs"]]
        assert labels and len(set(labels)) == len(labels)
        assert all(label.startswith(f"{name}:") for label in labels)
        assert result["rows"]
        for suffix in ("", "_b"):  # fig3 carries a second table
            for row in result.get("rows" + suffix, []):
                assert len(row) == len(result["headers" + suffix]), row


class TestDriver:
    """``_figure`` with a stub cell: points in, table out."""

    def run(self, xs, workers):
        return _figure(
            "stub",
            "Stub",
            ["x", "x squared"],
            cell=_stub_cell,
            points=[(("k", x), (x,), f"p{x}") for x in xs],
            row=lambda key, value: (key[1], value),
            workers=workers,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_raw_and_jobs_in_submission_order(self, workers):
        xs = list(range(6))
        result = self.run(xs, workers)
        assert (result["title"], result["headers"]) == ("Stub", ["x", "x squared"])
        assert result["rows"] == [(x, x * x) for x in xs]
        assert list(result["raw"].items()) == [(("k", x), x * x) for x in xs]
        jobs = result["jobs"]
        assert [j.label for j in jobs] == [f"stub:p{x}" for x in xs]
        assert [j.value for j in jobs] == [x * x for x in xs]
        assert all(isinstance(j, JobResult) and j.ok for j in jobs)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_cell_raises_with_its_label(self, workers):
        with pytest.raises(RuntimeError, match=r"stub:p13\b(.|\n)*unlucky"):
            self.run([12, 13, 14], workers)


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


class TestFig9cPoints:
    def test_only_the_ratio_differs_from_base(self, monkeypatch):
        # The sweep used to rebuild every point with BenchScale.default,
        # which applied REPRO_SCALE to the already scaled base a second time
        # and reset seed / clients / device shape to the defaults.
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        base = BenchScale.default(record_count=80_000, seed=11, clients=3)
        assert base.record_count == 40_000
        ratios = (0.05, 0.1, 0.2, 0.4, 0.8)
        points = fig9c_points(base, ratios)
        assert [p.nvme_ratio for p in points] == list(ratios)
        for point, ratio in zip(points, ratios):
            assert point == BenchScale(**{**vars(base), "nvme_ratio": ratio})
            assert (point.record_count, point.operations) == (40_000, 12_500)
            assert (point.seed, point.clients) == (11, 3)


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
