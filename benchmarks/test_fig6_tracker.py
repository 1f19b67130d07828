"""Fig. 6a: correlation between historical access intervals and the next
access, on an 80/20 skewed trace.

Paper shapes asserted:
* conditioning on more past intervals (s = 5 vs s = 1) raises the
  conditional probability (their medians: 62.5% -> 88.9% at t_n = 20%);
* at t = 20% of the workload the median probability is high.
"""

from repro.bench.experiments import fig6a_interval_correlation


def test_fig6a_interval_correlation(benchmark):
    result = benchmark.pedantic(
        lambda: fig6a_interval_correlation(n_keys=2000, accesses=60_000),
        rounds=1,
        iterations=1,
    )
    raw = result["raw"]

    # Precondition, not a shape: a (t, s) cell in which no object produced a
    # conditioning event is reported as ``None`` statistics (see
    # EXPERIMENTS.md, Fig. 6a) and cannot be compared.
    empty = sorted(cell for cell, summary in raw.items() if summary["objects"] == 0)
    assert not empty, (
        f"precondition failed: fig6a cells {empty} are empty — no object has "
        f"s consecutive access intervals below t, so the trace (or "
        f"access_intervals' grouping of it) is too sparse for the shape "
        f"assertions below"
    )

    for t in (0.05, 0.10, 0.20):
        assert raw[(t, 5)]["median"] >= raw[(t, 1)]["median"] - 1e-9

    assert raw[(0.20, 1)]["median"] > 0.6
    assert raw[(0.20, 5)]["median"] > 0.8
