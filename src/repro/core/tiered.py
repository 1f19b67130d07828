"""The one body of a tiered engine: an NVMe slot tier over a capacity tier.

HyperDB (paper §3) and the PrismDB-like baseline (§2.2; PAPERS.md) run this
body: the batched write loop, the failover write, the failover-aware read,
the two-stream scan merge, and, through
:class:`repro.migration.scheduler.MigrationScheduler`, demotion with its
pause and one-shot catch-up.  An engine's constructor supplies only the
policies its paper names:

* ``performance_tier`` — the NVMe layout: ``partition_for_key(key)`` and
  ``partitions``, each a :class:`repro.nvme.zone.SlotTable` (a zoned range
  partition, or the one slab store) that names its demotion victim;
* ``capacity_tier`` — ``get(key)`` as a record, ``ingest(entries, kind)``,
  ``scan(start, count)`` as a merge stream, and ``fs.device``;
* ``promotion`` — ``lookup(key)`` before a capacity-tier read (a staged
  copy, or None), ``offer(partition, rec)`` after one, ``invalidate(key)``
  after a write;
* ``migration``, ``key_space``, and a ``scrubber`` if it has one;

and, as class attributes, what an NVMe copy is worth during an outage
(``corrupt_slot_is_miss``; a ``promoted`` slot is one a read may bypass)
and how a scan row reads its value (``scan_value``).

One body per request (DESIGN.md §11): ``put`` / ``delete`` / ``get`` are
batches of one.  ``busy_out`` and ``capture_errors`` are ``KVStore``'s.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional

from repro import obs
from repro.common.cache import LRUCache
from repro.common.errors import CorruptionError, DeviceOfflineError
from repro.common.records import Record, paired_columns
from repro.common.stats import StatsRegistry
from repro.core.interface import KVStore
from repro.health.state import HealthState
from repro.lsm.blocks import entry_of, value_of
from repro.lsm.iterator import merge_records
from repro.simssd.device import SimDevice
from repro.simssd.traffic import TrafficKind


class TieredStore(KVStore):
    """Write, get, scan, failover and demotion over two devices."""

    #: True: a slot failing its check is dropped by its partition and the
    #: read falls through to the capacity tier.  False: the slot is the
    #: only newest copy, so its :class:`CorruptionError` reaches the caller.
    corrupt_slot_is_miss = True
    #: A merged scan row's value; None while the streams carry entries
    #: (:func:`repro.lsm.blocks.value_of`).
    scan_value = None
    scrubber = None

    def __init__(
        self, nvme_device: SimDevice, sata_device: SimDevice, dram_cache_bytes: int
    ) -> None:
        self.nvme_device = nvme_device
        self.sata_device = sata_device
        #: The DRAM cache both tiers' reads share.
        self.cache = LRUCache(dram_cache_bytes)
        self.stats = StatsRegistry()
        self._seqno = 0

    # -------------------------------------------------------------- write

    def next_seqno(self) -> int:
        self._seqno += 1
        return self._seqno

    def put(self, key: bytes, value: bytes) -> float:
        return self.put_many((key,), (value,))[0]

    def delete(self, key: bytes) -> float:
        return self.delete_many((key,))[0]

    def put_many(self, keys, values, busy_out=None, capture_errors=False) -> list:
        """Insert or update: write to the NVMe tier, migrate if over watermark."""
        keys, values = paired_columns(keys, values)
        return self._write_many("puts", keys, values, False, busy_out, capture_errors)

    def delete_many(self, keys, busy_out=None, capture_errors=False) -> list:
        """Delete by writing a tombstone object into the NVMe tier; it
        shadows any SATA copy and migrates down like a normal object."""
        keys = list(keys)
        return self._write_many(
            "deletes", keys, repeat(b""), True, busy_out, capture_errors
        )

    def _write_many(
        self, counter_name, keys, values, deleted, busy_out, capture_errors
    ) -> list:
        """Per op: fail over while the NVMe device is OFFLINE, else the
        slot write and migration / scrub catch-up."""
        if not keys:
            return []
        nvme = self.nvme_device
        # Health is peeked per op only when windows can apply at all.
        guarded = nvme._health_guarded
        nvme_tr = nvme.traffic
        sata_tr = self.sata_device.traffic
        ops = self.stats.counter(counter_name)
        partition_for_key = self.performance_tier.partition_for_key
        invalidate = self.promotion.invalidate
        migration = self.migration
        scrubber = self.scrubber
        busy_append = busy_out.append if busy_out is not None else None
        fg = TrafficKind.FOREGROUND
        out = []
        append = out.append
        for key, value in zip(keys, values):
            ops.value += 1
            self._seqno += 1
            rec = Record(key, value, self._seqno, deleted)
            try:
                partition = partition_for_key(key)
                if guarded and nvme.health() is HealthState.OFFLINE:
                    service = self._failover_write(partition, rec)
                else:
                    service = partition.put(rec, fg)
                    invalidate(key)
                    if partition.over_high_watermark():
                        migration.run_if_needed()
                    if migration.has_catch_up and migration.capacity_online():
                        migration.run_catch_up()
                    if scrubber is not None and scrubber.has_catch_up:
                        scrubber.run_catch_up()
                append(service)
            except DeviceOfflineError as exc:
                if not capture_errors:
                    raise
                append(exc)
            if busy_append is not None:
                busy_append((nvme_tr._busy_s, sata_tr._busy_s))
        return out

    def _failover_write(self, partition, rec: Record) -> float:
        """NVMe OFFLINE: route the write to the capacity tier directly.

        The stale NVMe-resident copy (if any) is dropped from the in-memory
        index — no device I/O — so it cannot shadow the newer SATA version
        after recovery.  Promotions and migration stay paused; a SATA
        outage overlapping an NVMe outage leaves nowhere to write, so the
        ingest's :class:`DeviceOfflineError` propagates (the op is not
        acked).
        """
        service = self.capacity_tier.ingest([entry_of(rec)], TrafficKind.FOREGROUND)
        partition.drop_resident(rec.key)
        self.promotion.invalidate(rec.key)
        self.stats.counter("failover_writes").add()
        r = obs.RECORDER
        if r is not None:
            r.emit(
                "failover", t=self.sata_device.busy_seconds(),
                op="write", tier="sata",
            )
        return service

    # --------------------------------------------------------------- read

    def get(self, key: bytes) -> tuple[Optional[bytes], float]:
        return self.get_many((key,))[0]

    def get_many(self, keys, busy_out=None, capture_errors=False) -> list:
        """Point lookups: NVMe, then the promotion policy's staged copy,
        then the capacity tier.

        While the NVMe device is OFFLINE, reads fall through to the
        capacity tier — *except* for keys whose only copy is a
        non-promoted NVMe resident, which raise
        :class:`DeviceOfflineError` (honest unavailability; serving the
        older SATA version would be a stale read).  Promoted residents are
        authoritative on SATA and fall through safely.
        """
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        if not keys:
            return []
        nvme = self.nvme_device
        guarded = nvme._health_guarded
        nvme_tr = nvme.traffic
        sata_tr = self.sata_device.traffic
        gets = self.stats.counter("gets")
        # Hit counters are fetched lazily (get-or-create on first hit) so
        # the registry's contents and insertion order match a run of
        # batches of one, then memoized in locals: the registry lookup per
        # increment is measurable at batch frequency.
        counter = self.stats.counter
        nvme_hits = staging_hits = sata_hits = promotions_staged = None
        contains = self.key_space.contains
        partition_for_key = self.performance_tier.partition_for_key
        corrupt_is_miss = self.corrupt_slot_is_miss
        promo_lookup = self.promotion.lookup
        promo_offer = self.promotion.offer
        capacity_get = self.capacity_tier.get
        busy_append = busy_out.append if busy_out is not None else None
        out = []
        append = out.append
        for key in keys:
            gets.value += 1
            try:
                if not contains(key):
                    # Nothing outside the key space was ever stored.
                    result = (None, 0.0)
                else:
                    partition = partition_for_key(key)
                    offline = guarded and nvme.health() is HealthState.OFFLINE
                    entry, service = None, 0.0
                    if offline:
                        loc = partition.resident_location(key)
                        if loc is not None and not loc.promoted:
                            counter("failover_blocked_reads").add()
                            raise DeviceOfflineError(
                                f"key resident only on offline device "
                                f"{nvme.profile.name!r}"
                            )
                        counter("failover_reads").add()
                    else:
                        try:
                            entry, service = partition.get_entry(key)
                        except CorruptionError:
                            if not corrupt_is_miss:
                                raise
                    staged = None if entry is not None else promo_lookup(key)
                    if entry is not None:
                        if nvme_hits is None:
                            nvme_hits = counter("nvme_hits")
                        nvme_hits.value += 1
                        result = (None if entry[2] & 1 else value_of(entry), service)
                    elif staged is not None:
                        if staging_hits is None:
                            staging_hits = counter("staging_hits")
                        staging_hits.value += 1
                        result = (
                            None if staged.is_tombstone else staged.value, service
                        )
                    else:
                        rec, s = capacity_get(key)
                        service += s
                        if rec is not None:
                            if sata_hits is None:
                                sata_hits = counter("sata_hits")
                            sata_hits.value += 1
                        if rec is None or rec.is_tombstone:
                            result = (None, service)
                        else:
                            # Offer a hot object for promotion (§3.5) — but
                            # not while the fast tier is offline (nowhere
                            # to promote *to*).
                            if not offline and promo_offer(partition, rec):
                                if promotions_staged is None:
                                    promotions_staged = counter("promotions_staged")
                                promotions_staged.value += 1
                            result = (rec.value, service)
            except (DeviceOfflineError, CorruptionError) as exc:
                if not capture_errors:
                    raise
                result = exc
            append(result)
            if busy_append is not None:
                busy_append((nvme_tr._busy_s, sata_tr._busy_s))
        return out

    def scan(self, start: bytes, count: int) -> tuple[list[tuple[bytes, bytes]], float]:
        """Range scan: the NVMe tier's ordered stream (``_nvme_scan``)
        merged with the capacity tier's, newest copy of each key first."""
        space = self.key_space
        if count <= 0 or (space.hi is not None and start >= space.hi):
            return [], 0.0
        start = max(start, space.lo)
        self.stats.counter("scans").add()
        busy_before = self.nvme_device.busy_seconds() + self.sata_device.busy_seconds()
        # Both sides are lazy streams: a record is read when the merge pulls
        # it, and a value is read only for a row the scan returns.
        streams = [self._nvme_scan(start), self.capacity_tier.scan(start, count)]
        value = self.scan_value or value_of
        out: list[tuple[bytes, bytes]] = []
        for item in merge_records(streams, drop_tombstones=True):
            out.append((item[0], value(item)))
            if len(out) >= count:
                break
        service = (
            self.nvme_device.busy_seconds()
            + self.sata_device.busy_seconds()
            - busy_before
        )
        return out, service

    # ------------------------------------------------------------- admin

    def devices(self) -> dict[str, SimDevice]:
        return {"nvme": self.nvme_device, "sata": self.sata_device}
