"""YCSB workload suite (Cooper et al., SoCC '10) and the closed-loop runner.

Implements the standard core workloads A–F with zipfian / uniform / latest
request distributions, plus the runner that executes a workload against any
:class:`repro.core.interface.KVStore` and converts the simulator's exact
I/O accounting into throughput and latency figures via the documented
concurrency model.
"""

from repro.ycsb.distributions import (
    UniformGenerator,
    ZipfianGenerator,
    ScrambledZipfianGenerator,
    LatestGenerator,
)
from repro.ycsb.workload import WorkloadSpec, YCSB_WORKLOADS, OpType
from repro.ycsb.runner import WorkloadRunner, RunResult

__all__ = [
    "UniformGenerator",
    "ZipfianGenerator",
    "ScrambledZipfianGenerator",
    "LatestGenerator",
    "WorkloadSpec",
    "YCSB_WORKLOADS",
    "OpType",
    "WorkloadRunner",
    "RunResult",
]
