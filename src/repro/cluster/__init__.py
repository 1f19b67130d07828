"""Sharded HyperDB cluster: consistent-hash routing, replication, quorums.

Composes N single-node :class:`repro.core.hyperdb.HyperDB` instances into
one deterministic cluster simulation:

* :mod:`repro.cluster.ring` — SHA-256 consistent hashing with virtual
  nodes (placement identical in every process);
* :mod:`repro.cluster.node` — one cluster member: a full HyperDB plus the
  versioned value envelope (``seqno | tombstone flag | payload``) that
  orders replica copies;
* :mod:`repro.cluster.router` — the coordinator: quorum reads/writes with
  ``R + W > RF`` validation, node-granularity health windows, hinted
  handoff, read repair, and join/leave rebalance migration jobs.

The cluster soak target lives in :mod:`repro.chaos.cluster`
(``python -m repro.chaos cluster``).
"""

from repro.cluster.node import ClusterNode, pack_envelope, unpack_envelope
from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterConfig, HyperDBCluster

__all__ = [
    "ClusterConfig",
    "ClusterNode",
    "HashRing",
    "HyperDBCluster",
    "pack_envelope",
    "unpack_envelope",
]
