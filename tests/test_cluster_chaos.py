"""Tests for the cluster soaks (repro.chaos with the cluster target): the
scenario table, the oracle verdicts a cluster relies on, serial/parallel
report equivalence, and the degraded-throughput measurement."""

import pytest

from repro.chaos import (
    ClusterScenario,
    Oracle,
    SoakResult,
    WindowSpec,
    measure_degraded_throughput,
    run_scenario,
    run_soak,
    scenario,
    suite,
)
from repro.chaos.soak import resolve_windows
from repro.health.state import HealthState


class TestScenarioDefinitions:
    def test_full_matrix_shape(self):
        names = [s.name for s in suite("cluster")]
        assert names == [
            "cluster-node-outage",
            "cluster-rolling-brownouts",
            "cluster-outage-during-rebalance",
            "cluster-node-drain",
            "cluster-strict-quorum-outage",
            "cluster-latent-scrub",
            "cluster-latent-outage",
        ]
        assert {s.num_ops for s in suite("cluster")} == {400}

    def test_smoke_is_a_subset(self):
        full = {s.name for s in suite("cluster")}
        smoke = [s.name for s in suite("cluster-smoke")]
        assert set(smoke) <= full and len(smoke) == 2

    def test_every_scenario_config_is_valid(self):
        for s in suite("cluster"):
            cfg = s.config
            assert cfg.read_quorum + cfg.write_quorum > cfg.replication_factor

    def test_window_fractions_resolve_to_op_ordinals(self):
        sc = ClusterScenario(
            name="x",
            num_ops=200,
            windows=(WindowSpec("node-1", HealthState.OFFLINE, 0.25, 0.50),),
        )
        (w,) = resolve_windows(sc.windows, sc.num_ops)
        assert (w.start_io, w.end_io) == (50, 100)
        assert w.device == "node-1"


class TestOracle:
    """The verdicts as a cluster soak meets them; the full verdict table
    is tests/test_chaos_oracle.py."""

    def result(self):
        return SoakResult(scenario="t", engine="cluster")

    def test_acked_value_reads_back_ok(self):
        o, r = Oracle(), self.result()
        o.acked(b"k", b"v1")
        r.score(o.classify(b"k", b"v1"), final=False)
        assert r.reads_ok == 1 and r.lost_writes == 0

    def test_missing_acked_write_is_loss(self):
        o, r = Oracle(), self.result()
        o.acked(b"k", b"v1")
        r.score(o.classify(b"k", None), final=True)
        assert r.lost_writes == 1 and r.keys_verified == 1

    def test_older_value_is_stale(self):
        o, r = Oracle(), self.result()
        o.acked(b"k", b"v1")
        o.acked(b"k", b"v2")
        r.score(o.classify(b"k", b"v1"), final=True)
        assert r.stale_reads == 1

    def test_acked_delete_returning_value_is_resurrection(self):
        o, r = Oracle(), self.result()
        o.acked(b"k", b"v1")
        o.acked(b"k", None)
        r.score(o.classify(b"k", b"v1"), final=True)
        assert r.resurrections == 1

    def test_partial_write_surfacing_is_indeterminate_not_loss(self):
        # A sub-quorum write that landed on a minority replica may win
        # newest-seqno resolution; reading it is legal, never loss.
        o, r = Oracle(), self.result()
        o.acked(b"k", b"v1")
        o.partial(b"k", b"v2")
        r.score(o.classify(b"k", b"v2"), final=True)
        assert r.indeterminate_reads == 1
        assert r.lost_writes == r.stale_reads == r.resurrections == 0

    def test_next_ack_clears_maybe_set(self):
        o, r = Oracle(), self.result()
        o.partial(b"k", b"v-partial")
        o.acked(b"k", b"v-acked")
        r.score(o.classify(b"k", b"v-partial"), final=True)
        assert r.stale_reads == 1 and r.indeterminate_reads == 0

    def test_partial_tombstone_none_read_is_indeterminate(self):
        o, r = Oracle(), self.result()
        o.acked(b"k", b"v1")
        o.partial(b"k", None)  # unacked delete landed on one replica
        r.score(o.classify(b"k", None), final=True)
        assert r.indeterminate_reads == 1 and r.lost_writes == 0


class TestScenarioRuns:
    def test_node_outage_scenario_passes(self):
        r = run_scenario(scenario("cluster", "cluster-node-outage", 160), seed=0)
        assert r.passed, r.summary()
        assert r.counters["hints_stored"] > 0
        assert r.counters["hints_replayed"] > 0
        assert r.keys_verified > 0

    def test_outage_during_rebalance_passes(self):
        sc = scenario("cluster", "cluster-outage-during-rebalance", 160)
        r = run_scenario(sc, seed=0)
        assert r.passed, r.summary()
        assert r.counters["rebalance_jobs"] > 0

    def test_strict_quorum_counts_unavailability_never_loss(self):
        sc = scenario("cluster", "cluster-strict-quorum-outage", 160)
        r = run_scenario(sc, seed=0)
        assert r.passed, r.summary()
        assert r.unavailable_writes > 0
        assert r.partial_writes > 0
        assert r.lost_writes == 0

    def test_scenario_is_deterministic(self):
        sc = suite("cluster-smoke", 120)[0]
        a = run_scenario(sc, seed=3)
        b = run_scenario(sc, seed=3)
        assert a.summary() == b.summary()

    def test_seed_changes_the_run(self):
        sc = suite("cluster-smoke", 120)[0]
        a = run_scenario(sc, seed=0)
        b = run_scenario(sc, seed=7)
        assert a.summary() != b.summary()


class TestSoakFanOut:
    @pytest.fixture(scope="class")
    def reports(self):
        scenarios = suite("cluster-smoke", 120)
        serial = run_soak(scenarios, seed=0, workers=1)
        parallel = run_soak(scenarios, seed=0, workers=2)
        return serial, parallel

    def test_soak_passes(self, reports):
        serial, _ = reports
        assert serial.passed
        assert len(serial.results) == 2

    def test_serial_and_parallel_reports_identical(self, reports):
        serial, parallel = reports
        assert serial.summary() == parallel.summary()


class TestThroughputMeasurement:
    def test_degraded_ratio_and_determinism(self):
        sc = scenario("cluster", "cluster-node-outage", 120)
        a = measure_degraded_throughput(sc, seed=0)
        b = measure_degraded_throughput(sc, seed=0)
        assert a == b
        assert a["sim_ops_per_s_healthy"] > 0
        assert 0 < a["degraded_over_healthy"]
        assert a["hints_stored"] > 0
        assert a["unavailable_ops"] >= 0
