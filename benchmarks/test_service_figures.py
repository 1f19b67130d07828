"""The two service-model figures that are not in the paper: what the
multi-queue device model buys under degradation (``queue_depth``) and what
degradation costs in simulated device time (``degraded_cost``).

Shapes asserted:
* an 8x capacity-tier brownout slows every queue geometry;
* isolating background traffic on its own queues buys back, under the
  brownout, exactly the background command latency the single queue
  serialised behind the foreground (the run-time model's prediction,
  derived in ``_isolation_gain``; README and DESIGN.md §12 quote
  12.6 / 12.0 = 1.05x);
* at 4 queues, a shallower per-queue depth throttles the device;
* a periodic scrub costs device time, scans something, and a fault-free
  store scrubs clean;
* an NVMe outage window costs foreground throughput (ops per foreground
  busy second) and is served by failover.

Both run with ``REPRO_SCALE=0.08`` set: their cells are properties of the
service model and must not shrink with the dataset sweep (at 480 records
nothing reaches SATA and the brownout has no effect at all).
"""

import pytest

from repro.bench.experiments import degraded_cost, queue_depth_isolation


@pytest.fixture(autouse=True)
def tiny_repro_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.08")


def _isolation_gain(cell) -> float:
    """What 1 -> 4 queues at depth 32 should buy on one cell, from the
    run-time model (``YCSBRunner._elapsed``).

    Under the 8x brownout the SATA device binds.  One queue serialises its
    transfer time T, its foreground command latency F over the clients'
    concurrency and its slowest background lane's latency B over the
    background threads'; with background lanes on queues of their own the
    foreground queue is left with T + F, so the gain is (T + F + B) /
    (T + F): fewer background commands leave less to isolate.
    """
    lanes = cell.traffic["sata"]
    transfer = sum(l["read_transfer_s"] + l["write_transfer_s"] for l in lanes.values())
    latency = {k: l["read_latency_s"] + l["write_latency_s"] for k, l in lanes.items()}
    fg = (latency.pop("foreground") + latency.pop("wal", 0.0)) / min(cell.clients, 32)
    bg = max(latency.values()) / min(cell.background_threads, 32)
    return (transfer + fg + bg) / (transfer + fg)


def test_queue_depth_isolation(benchmark):
    result = benchmark.pedantic(queue_depth_isolation, rounds=1, iterations=1)
    kops = {
        shape: {mode: r.throughput_ops / 1e3 for mode, r in cell.items()}
        for shape, cell in result["raw"].items()
    }
    assert set(kops) == {"qc1_qd32", "qc2_qd32", "qc4_qd32", "qc4_qd4", "qc4_qd1"}
    for shape, cell in kops.items():
        assert 0 < cell["degraded"] < cell["healthy"], shape
    single = result["raw"]["qc1_qd32"]["degraded"]
    gain = kops["qc4_qd32"]["degraded"] / kops["qc1_qd32"]["degraded"]
    assert _isolation_gain(single) > 1
    assert gain == pytest.approx(_isolation_gain(single), rel=1e-9)
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
