"""The soak suites, as data: ``name -> (scenarios, default ops each)``.

A new soak is one entry here.  ``python -m repro.chaos <suite>`` runs one
suite; CI runs them all as a matrix over these names and pins each
report's digest in ``results/DIGEST_soaks.txt``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.chaos.cluster import ClusterScenario
from repro.chaos.soak import WindowSpec
from repro.chaos.tier import TierScenario
from repro.cluster import ClusterConfig
from repro.health.state import HealthState

OFFLINE, BROWNOUT = HealthState.OFFLINE, HealthState.BROWNOUT

_NVME_OUTAGE = TierScenario(
    name="hyperdb-nvme-outage",
    windows=(WindowSpec("nvme", OFFLINE, 0.30, 0.45),),
)

#: Latent-corruption soaks: bitflips stick on the media and the scrubber +
#: repair ladder must turn every one into *detected* (and where a
#: redundant copy exists, *healed*) corruption — the oracle rejects any
#: silent loss not explained by a flagged suspect key.
_TIER_SCRUB = (
    TierScenario(
        name="hyperdb-latent-scrub",
        latent_rate=0.01,
        latent_burst=3,
        scrub_interval=150,
    ),
    TierScenario(
        # Latent flips composed with a capacity outage: scrub passes that
        # land inside the window pause and drain via catch-up, exactly
        # like migration.
        name="hyperdb-latent-outage-scrub",
        windows=(WindowSpec("sata", OFFLINE, 0.35, 0.50),),
        latent_rate=0.003,
        scrub_interval=150,
    ),
)

_NODE_OUTAGE = ClusterScenario(
    name="cluster-node-outage",
    windows=(WindowSpec("node-1", OFFLINE, 0.30, 0.55),),
)
_OUTAGE_DURING_REBALANCE = ClusterScenario(
    name="cluster-outage-during-rebalance",
    membership=((0.40, "join", "node-3"),),
    windows=(WindowSpec("node-1", OFFLINE, 0.45, 0.70),),
)

#: Latent-corruption cluster soaks: with RF >= 2 and the scrub +
#: anti-entropy loop running, every quorum-acked write must survive
#: *exactly* — corrupt replicas are re-replicated from healthy ones, so
#: the oracle tolerates no loss at all, silent or detected.
_CLUSTER_SCRUB = (
    ClusterScenario(
        name="cluster-latent-scrub",
        config=ClusterConfig(replication_factor=2, read_quorum=1, write_quorum=2),
        latent_rate=0.008,
        scrub_interval=120,
        anti_entropy_every=100,
    ),
    ClusterScenario(
        # Latent flips composed with a node outage: the offline node skips
        # its scrub passes and is repaired late, after healthy replicas
        # carried the keys through the window.
        name="cluster-latent-outage",
        windows=(WindowSpec("node-1", OFFLINE, 0.30, 0.55),),
        latent_rate=0.015,
        scrub_interval=120,
        anti_entropy_every=120,
    ),
)

SUITES: dict[str, tuple[tuple, int]] = {
    # The single-store matrix: outages, brownouts, a composed restart, a
    # one-queue brownout, latent corruption, the PrismDB-like baseline, and
    # an outage over a hot key set.
    "tier": (
        (
            _NVME_OUTAGE,
            TierScenario(
                name="hyperdb-sata-outage",
                windows=(WindowSpec("sata", OFFLINE, 0.35, 0.50),),
            ),
            TierScenario(
                name="hyperdb-brownout",
                windows=(
                    WindowSpec("nvme", BROWNOUT, 0.20, 0.40, 4.0),
                    WindowSpec("sata", BROWNOUT, 0.50, 0.70, 8.0),
                ),
            ),
            TierScenario(
                name="hyperdb-combo-restart",
                windows=(
                    WindowSpec("nvme", BROWNOUT, 0.15, 0.30, 4.0),
                    WindowSpec("sata", OFFLINE, 0.40, 0.55),
                ),
                restart_frac=0.85,
            ),
            TierScenario(
                # A brownout pinned to one *background* queue of a 4-queue
                # SATA device: migration/compaction traffic routed there is
                # surcharged while queue 0 (foreground) and the other
                # background queues stay at full speed.
                name="hyperdb-queue-brownout",
                windows=(WindowSpec("sata", BROWNOUT, 0.15, 0.75, 8.0, queue=1),),
                queue_count=4,
            ),
            *_TIER_SCRUB,
            replace(_NVME_OUTAGE, name="prismdb-nvme-outage", engine="prismdb"),
            TierScenario(
                name="prismdb-sata-outage",
                engine="prismdb",
                windows=(WindowSpec("sata", OFFLINE, 0.35, 0.50),),
            ),
            # The same outage over 64 hot keys.  A few hundred ops over
            # 2,000 keys almost never read a key written twice, so no other
            # entry can observe a *stale* copy (an NVMe-resident version
            # shadowing a newer failover write); this one overwrites and
            # re-reads every key many times.
            replace(
                _NVME_OUTAGE, name="hyperdb-nvme-outage-hotkeys", key_universe=64
            ),
        ),
        900,
    ),
    # CI smoke: one NVMe outage + one capacity brownout.
    "tier-smoke": (
        (
            _NVME_OUTAGE,
            TierScenario(
                name="hyperdb-sata-brownout",
                windows=(WindowSpec("sata", BROWNOUT, 0.35, 0.60, 6.0),),
            ),
        ),
        500,
    ),
    "tier-scrub": (_TIER_SCRUB, 900),
    # The cluster matrix: outage, rolling brownouts, outage-in-rebalance,
    # a graceful drain, strict quorums, latent corruption.  Cluster ops
    # fan out to RF replicas each, hence fewer of them.
    "cluster": (
        (
            _NODE_OUTAGE,
            ClusterScenario(
                name="cluster-rolling-brownouts",
                windows=(
                    WindowSpec("node-0", BROWNOUT, 0.10, 0.35, 4.0),
                    WindowSpec("node-1", BROWNOUT, 0.30, 0.55, 6.0),
                    WindowSpec("node-2", BROWNOUT, 0.50, 0.75, 4.0),
                ),
            ),
            _OUTAGE_DURING_REBALANCE,
            ClusterScenario(
                name="cluster-node-drain",
                config=ClusterConfig(num_nodes=4),
                membership=((0.50, "leave", "node-3"),),
            ),
            # W=RF: any node outage makes writes sub-quorum — the path
            # where rejections must surface as unavailability (and
            # partially landed values as indeterminate reads), never loss.
            ClusterScenario(
                name="cluster-strict-quorum-outage",
                config=ClusterConfig(read_quorum=1, write_quorum=3),
                windows=(WindowSpec("node-2", OFFLINE, 0.35, 0.60),),
            ),
            *_CLUSTER_SCRUB,
        ),
        400,
    ),
    "cluster-smoke": ((_NODE_OUTAGE, _OUTAGE_DURING_REBALANCE), 300),
    "cluster-scrub": (_CLUSTER_SCRUB, 400),
}


def suite(name: str, num_ops: Optional[int] = None) -> list:
    """The scenarios of one suite, at ``num_ops`` each (default: the
    suite's own)."""
    scenarios, default_ops = SUITES[name]
    ops = default_ops if num_ops is None else num_ops
    return [replace(sc, num_ops=ops) for sc in scenarios]


def scenario(suite_name: str, name: str, num_ops: Optional[int] = None):
    """One scenario of a suite, by name."""
    (found,) = [sc for sc in suite(suite_name, num_ops) if sc.name == name]
    return found
