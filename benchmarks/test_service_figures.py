"""The two service-model figures that are not in the paper: what the
multi-queue device model buys under degradation (``queue_depth``) and what
degradation costs in simulated device time (``degraded_cost``).

Shapes asserted:
* an 8x capacity-tier brownout slows every queue geometry;
* isolating background traffic on its own queues buys back >= 10% of
  degraded-mode throughput over the single-queue model (README and
  DESIGN.md §12 quote 12.1 / 10.4 = 1.16x);
* at 4 queues, a shallower per-queue depth throttles the device;
* a periodic scrub costs device time, scans something, and a fault-free
  store scrubs clean;
* an NVMe outage window costs throughput and is served by failover.

Both run with ``REPRO_SCALE=0.08`` set: their cells are properties of the
service model and must not shrink with the dataset sweep (at 480 records
nothing reaches SATA and the brownout has no effect at all).
"""

import pytest

from repro.bench.experiments import degraded_cost, queue_depth_isolation


@pytest.fixture(autouse=True)
def tiny_repro_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.08")


def test_queue_depth_isolation(benchmark):
    result = benchmark.pedantic(queue_depth_isolation, rounds=1, iterations=1)
    kops = {
        shape: {mode: r.throughput_ops / 1e3 for mode, r in cell.items()}
        for shape, cell in result["raw"].items()
    }
    assert set(kops) == {"qc1_qd32", "qc2_qd32", "qc4_qd32", "qc4_qd4", "qc4_qd1"}
    for shape, cell in kops.items():
        assert 0 < cell["degraded"] < cell["healthy"], shape
    assert kops["qc4_qd32"]["degraded"] >= 1.10 * kops["qc1_qd32"]["degraded"]
    for mode in ("healthy", "degraded"):
        assert (
            kops["qc4_qd1"][mode] < kops["qc4_qd4"][mode] < kops["qc4_qd32"][mode]
        ), mode


def test_degraded_cost(benchmark):
    result = benchmark.pedantic(degraded_cost, rounds=1, iterations=1)
    assert len(result["rows"]) == 2
    raw = result["raw"]

    scrub = raw["scrub"]
    assert scrub["scrub_overhead"] > 1
    assert scrub["scrub_passes"] > 0
    assert scrub["zone_slots_scanned"] > 0 and scrub["semi_blocks_scanned"] > 0
    assert scrub["detected"] == 0

    outage = raw["nvme_outage"]
    assert outage["degraded_over_healthy"] < 1
    assert outage["failover_writes"] > 0
