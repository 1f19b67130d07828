"""One cluster member: a full single-node HyperDB plus replica metadata.

A :class:`ClusterNode` owns its own pair of simulated devices and a
complete :class:`repro.core.hyperdb.HyperDB` — tier placement, migration,
and compaction inside a node behave exactly as on a single-node store;
the cluster layer never reaches around the engine.

Replica versioning rides in an *envelope* around every stored value:
``seqno:8 (big-endian) | flag:1 (0=value, 1=tombstone) | payload``.  The
cluster coordinator assigns monotonically increasing sequence numbers, so
any two replicas' copies of a key are ordered by comparing envelopes —
the basis for quorum resolution, read repair, and hint replay (a
last-writer-wins register, the deterministic core of the CRDT-style
conflict resolution in the pyHMSSQL kvstore reference).  Deletes are
*tombstone envelopes*, not engine-level deletes, so version information
survives and a slow replica cannot resurrect an older value.
"""

from __future__ import annotations

from typing import Optional

from repro.common.keys import KeyRange, encode_key
from repro.core.config import HyperDBConfig
from repro.core.hyperdb import HyperDB
from repro.nvme.config import NVMeConfig
from repro.simssd.device import SimDevice
from repro.simssd.profiles import DeviceProfile

KiB = 1024
MiB = 1024 * KiB

_ENVELOPE_HEADER = 9  # 8-byte seqno + 1 flag byte

#: Small per-node devices, sized like the chaos harness's so a few hundred
#: cluster ops exercise real migrations and watermark pressure per node.
_NODE_NVME = DeviceProfile(
    name="nvme",
    capacity_bytes=1 * MiB,
    page_size=4096,
    read_latency_s=8e-5,
    write_latency_s=2e-5,
    read_bandwidth=6.5e9,
    write_bandwidth=3.5e9,
)
_NODE_SATA = DeviceProfile(
    name="sata",
    capacity_bytes=64 * MiB,
    page_size=4096,
    read_latency_s=2e-4,
    write_latency_s=6e-5,
    read_bandwidth=5.6e8,
    write_bandwidth=5.1e8,
)

_NODE_KEY_SPACE = KeyRange(encode_key(0), encode_key(50_000))


def pack_envelope(seqno: int, payload: bytes, tombstone: bool = False) -> bytes:
    """Wrap a payload (or a tombstone) with its cluster sequence number."""
    if seqno < 0:
        raise ValueError(f"seqno must be non-negative, got {seqno}")
    return seqno.to_bytes(8, "big") + (b"\x01" if tombstone else b"\x00") + payload


def unpack_envelope(blob: bytes) -> tuple[int, bool, bytes]:
    """``(seqno, is_tombstone, payload)`` of a stored envelope."""
    if len(blob) < _ENVELOPE_HEADER:
        raise ValueError(f"envelope too short: {len(blob)} byte(s)")
    return (
        int.from_bytes(blob[:8], "big"),
        blob[8] == 1,
        blob[_ENVELOPE_HEADER:],
    )


def _node_config(rng_seed: int, scrub=None) -> HyperDBConfig:
    # Low watermarks keep per-node migration active under cluster traffic,
    # mirroring the single-node chaos configuration.
    return HyperDBConfig(
        key_space=_NODE_KEY_SPACE,
        nvme=NVMeConfig(
            num_partitions=2,
            initial_zones_per_partition=2,
            migration_batch_bytes=16 * KiB,
            high_watermark=0.22,
            low_watermark=0.12,
        ),
        semi_num_levels=3,
        semi_size_ratio=4,
        semi_bottom_segments=16,
        semi_level1_target_bytes=128 * KiB,
        scrub=scrub,
        rng_seed=rng_seed,
    )


class ClusterNode:
    """A named HyperDB instance serving one cluster member's replicas."""

    def __init__(
        self, name: str, rng_seed: int = 0, injector=None, scrub=None
    ) -> None:
        self.name = name
        #: ``injector`` (a :class:`repro.simssd.faults.FaultInjector`) is
        #: shared by both devices so latent media corruption can be
        #: injected per node; ``scrub`` (a :class:`repro.scrub.ScrubConfig`)
        #: arms the node's background scrubber.  Both default to off, so
        #: existing cluster digests are untouched.
        self.nvme = SimDevice(_NODE_NVME, injector=injector)
        self.sata = SimDevice(_NODE_SATA, injector=injector)
        self.db = HyperDB(self.nvme, self.sata, _node_config(rng_seed, scrub))

    # ----------------------------------------------------------- replica ops

    def put_envelope(self, key: bytes, envelope: bytes) -> float:
        """Store one versioned envelope; returns service seconds."""
        return self.db.put(key, envelope)

    def get_envelope(
        self, key: bytes
    ) -> tuple[Optional[tuple[int, bool, bytes]], float]:
        """``(unpacked envelope or None, service seconds)`` for one key."""
        blob, service = self.db.get(key)
        if blob is None:
            return None, service
        return unpack_envelope(blob), service

    # -------------------------------------------------------------- metrics

    def busy_seconds(self) -> float:
        return self.nvme.busy_seconds() + self.sata.busy_seconds()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ClusterNode({self.name!r})"
