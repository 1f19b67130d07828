"""Index checkpointing for the NVMe tier (paper §3.1).

The partition's index is an in-memory structure; the paper keeps "a
backup of the index and metadata" on NVMe so a restart doesn't need to scan
the data pages.  A checkpoint serializes every index entry — key, slot
location, sizes, seqno, promotion flag and the slot's CRC32 — plus the zone
table into dedicated NVMe pages (charged like any other write).  Recovery
reads those pages back, checks and parses them, and hands each zone with
its entries to the partition's slot table
(:meth:`repro.nvme.zone.SlotTable.reseat`), which rebuilds the index, the
zones and their slot-occupancy maps.  The CRC is the slot's only
protection (zone slots carry no checksum on media), so a recovered slot is
verified exactly like one written since the restart.

Durability semantics: a checkpoint captures the partition at one instant;
writes after the last checkpoint are not recovered (the engine checkpoints
at shutdown via :meth:`repro.core.hyperdb.HyperDB.finalize`; a production
system would pair this with the data pages' self-describing headers, which
the simulation omits).

Integrity: the serialized image is sealed like a data block
(:func:`repro.lsm.blocks.seal_block`, a CRC32 trailer).  :meth:`read_image`
checks it with :func:`repro.lsm.blocks.verify_block` and the header's
length: :meth:`recover` trusts no field it has not passed, so a
bit-flipped or torn checkpoint surfaces as
:class:`CorruptionError` — which the engine turns into a degraded (empty)
rebuild — instead of a silently wrong index; the scrubber runs the same
check and rewrites a failed image from the live index.
Crash safety: :meth:`write` builds the new checkpoint in freshly allocated
pages, and :meth:`repro.nvme.partition.Partition.checkpoint` frees the
previous one only after the new image is fully written, so a crash
mid-checkpoint always leaves the old intact image.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from repro.common.errors import CorruptionError, RecoveryError
from repro.common.keys import KeyRange
from repro.lsm.blocks import seal_block, verify_block
from repro.nvme.zone import SlotLocation
from repro.simssd.traffic import TrafficKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.nvme.partition import Partition

_MAGIC = 0xC4EC
_HEADER = struct.Struct(">HHII")          # magic, zone_count, entry_count, reserved
_ZONE_REC = struct.Struct(">QB")          # zone_id, has_range flag (+ lo/hi keys)
_ENTRY = struct.Struct(">HQQIIIQBI")      # klen, zone_id, page_id, slot, slot_sz, rec_sz, seqno, flags, crc


def _encode_key_field(key: bytes) -> bytes:
    return struct.pack(">H", len(key)) + key


class PartitionCheckpoint:
    """Serialize / restore one partition's index and zone table."""

    @staticmethod
    def serialize(partition: "Partition") -> bytes:
        zones = [partition.hot_zone] + partition.zones()
        entries = list(partition.index.items())
        out = [_HEADER.pack(_MAGIC, len(zones), len(entries), 0)]
        for zone in zones:
            has_range = 0 if zone.key_range is None else 1
            out.append(_ZONE_REC.pack(zone.zone_id, has_range))
            if has_range:
                out.append(_encode_key_field(zone.key_range.lo))
                out.append(_encode_key_field(zone.key_range.hi or b""))
        for key, loc in entries:
            out.append(
                _ENTRY.pack(
                    len(key),
                    loc.zone_id,
                    loc.page_id,
                    loc.slot_index,
                    loc.slot_size,
                    loc.record_size,
                    loc.seqno,
                    1 if loc.promoted else 0,
                    loc.crc,
                )
            )
            out.append(key)
        return seal_block(b"".join(out))

    @staticmethod
    def write(
        partition: "Partition", kind: TrafficKind = TrafficKind.GC
    ) -> tuple[list[int], int, float]:
        """Write a checkpoint into *fresh* NVMe pages; returns the pages,
        the image's length and the service time.  The previous checkpoint's
        pages are untouched, so a power loss mid-write leaves it intact and
        recoverable."""
        payload = PartitionCheckpoint.serialize(partition)
        store = partition.page_store
        npages = max(1, -(-len(payload) // store.page_size))
        pages = store.allocate(npages)
        size = store.page_size
        chunks = {pid: [1, 0, payload[i * size : (i + 1) * size]] for i, pid in enumerate(pages)}
        return pages, len(payload), store.write_spans(chunks, kind)

    @staticmethod
    def read_image(
        partition: "Partition", kind: TrafficKind
    ) -> tuple[bytes, float]:
        """Read the checkpoint pages (charged as ``kind``) and check the
        image's seal and length.  Returns ``(payload, service)``, the payload
        without its trailer; raises :class:`RecoveryError` when there is no
        checkpoint and :class:`CorruptionError` when a check fails."""
        if not partition._checkpoint_pages:
            raise RecoveryError(
                f"partition {partition.partition_id} has no checkpoint"
            )
        store = partition.page_store
        service = 0.0
        chunks = []
        for pid in partition._checkpoint_pages:
            # A page at a time, outside the DRAM cache: restore reads are
            # not worth caching.
            service += store.read_many([pid], kind)
            chunks.append(store.peek(pid, 0, store.page_size))
        image = b"".join(chunks)[: partition._checkpoint_len]
        payload = verify_block(image, "checkpoint")
        if len(payload) < _HEADER.size:
            raise CorruptionError("checkpoint shorter than its header")
        return payload, service

    @staticmethod
    def recover(partition: "Partition") -> float:
        """Rebuild the partition's in-memory state from its checkpoint.

        Reads and verifies the image (:meth:`read_image`, charged), parses
        the zone table and the index entries, and only then clears the
        partition's slots and re-seats each zone with its entries, in the
        zone table's order.  Returns the service time.
        """
        payload, service = PartitionCheckpoint.read_image(
            partition, TrafficKind.FOREGROUND
        )
        magic, zone_count, entry_count, _ = _HEADER.unpack_from(payload, 0)
        if magic != _MAGIC:
            raise CorruptionError("bad checkpoint magic")
        pos = _HEADER.size

        # --- zone table -------------------------------------------------
        zones: dict[int, tuple[KeyRange | None, list]] = {}
        for _ in range(zone_count):
            zone_id, has_range = _ZONE_REC.unpack_from(payload, pos)
            pos += _ZONE_REC.size
            key_range = None
            if has_range:
                (klen,) = struct.unpack_from(">H", payload, pos)
                pos += 2
                lo = payload[pos : pos + klen]
                pos += klen
                (klen,) = struct.unpack_from(">H", payload, pos)
                pos += 2
                hi = payload[pos : pos + klen] or None
                pos += klen
                key_range = KeyRange(lo, hi)
            zones[zone_id] = (key_range, [])
        if all(key_range is not None for key_range, _ in zones.values()):
            raise CorruptionError("checkpoint lacks a hot zone")

        # --- index entries ------------------------------------------------
        for _ in range(entry_count):
            klen, zone_id, page_id, slot, slot_sz, rec_sz, seqno, flags, crc = (
                _ENTRY.unpack_from(payload, pos)
            )
            pos += _ENTRY.size
            key = payload[pos : pos + klen]
            pos += klen
            if zone_id not in zones:
                raise CorruptionError(f"entry references unknown zone {zone_id}")
            loc = SlotLocation(
                zone_id, page_id, slot, slot_sz, rec_sz, seqno, crc, bool(flags & 1)
            )
            zones[zone_id][1].append((key, loc))

        partition.clear_slots()
        for zone_id, (key_range, entries) in zones.items():
            partition.reseat(zone_id, key_range, entries)
        return service
