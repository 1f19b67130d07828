"""Chaos soak harness: degraded-mode operation under scheduled faults.

One driver (:mod:`repro.chaos.soak`) runs a seeded mixed workload against
one tiered store (:mod:`repro.chaos.tier`) under scheduled outages,
brownouts, restarts and latent corruption, and checks one acked-write
oracle (:mod:`repro.chaos.oracle`): every acknowledged write stays
readable with its latest value across failover and recovery.  The
scenarios live in a table (:mod:`repro.chaos.suites`).

Run it with ``python -m repro.chaos <suite>`` (see ``--help``).
"""

from repro.chaos.oracle import Oracle, Verdict
from repro.chaos.soak import (
    SoakReport,
    SoakResult,
    measure_degraded_throughput,
    run_scenario,
    run_soak,
)
from repro.chaos.suites import SUITES, scenario, suite
from repro.chaos.tier import TierScenario, WindowSpec

__all__ = [
    "Oracle",
    "SUITES",
    "SoakReport",
    "SoakResult",
    "TierScenario",
    "Verdict",
    "WindowSpec",
    "measure_degraded_throughput",
    "run_scenario",
    "run_soak",
    "scenario",
    "suite",
]
