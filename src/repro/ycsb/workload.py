"""YCSB core workload definitions."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from repro.common.errors import ConfigError

#: How far an op mix may drift from summing to 1.0 before it is rejected.
#: Mixes built from float arithmetic (``1 - 0.95 - 0.04``) drift by ~1e-8,
#: which is also past numpy's ``rng.choice`` probability tolerance
#: (sqrt(eps) ≈ 1.5e-8) — so drifting mixes are accepted here and
#: normalized by the runner rather than rejected or crashed on.
MIX_TOLERANCE = 1e-6


class OpType(Enum):
    READ = "read"
    UPDATE = "update"
    INSERT = "insert"
    SCAN = "scan"
    RMW = "rmw"  # read-modify-write


@dataclass(frozen=True)
class WorkloadSpec:
    """One YCSB workload: operation mix + request distribution.

    ``distribution`` is one of ``"zipfian"``, ``"uniform"``, ``"latest"``.
    Proportions must sum to 1.
    """

    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    rmw: float = 0.0
    distribution: str = "zipfian"
    theta: float = 0.99
    scan_length: int = 50  # the paper's default range-query length

    def __post_init__(self) -> None:
        for op in ("read", "update", "insert", "scan", "rmw"):
            if getattr(self, op) < 0:
                raise ConfigError(f"{self.name}: {op} proportion is negative")
        total = self.read + self.update + self.insert + self.scan + self.rmw
        if abs(total - 1.0) > MIX_TOLERANCE:
            raise ConfigError(f"{self.name}: op mix sums to {total}, expected 1")
        if self.distribution not in ("zipfian", "uniform", "latest"):
            raise ConfigError(f"unknown distribution {self.distribution!r}")

    def with_distribution(self, distribution: str, theta: float | None = None) -> "WorkloadSpec":
        return replace(
            self,
            distribution=distribution,
            theta=self.theta if theta is None else theta,
        )


#: The standard YCSB core workloads (§4.1: "industry-standard YCSB
#: benchmarks" with both uniform and skewed distributions).
YCSB_WORKLOADS: dict[str, WorkloadSpec] = {
    "A": WorkloadSpec("A", read=0.5, update=0.5),
    "B": WorkloadSpec("B", read=0.95, update=0.05),
    "C": WorkloadSpec("C", read=1.0),
    "D": WorkloadSpec("D", read=0.95, insert=0.05, distribution="latest"),
    "E": WorkloadSpec("E", scan=0.95, insert=0.05),
    "F": WorkloadSpec("F", read=0.5, rmw=0.5),
}
