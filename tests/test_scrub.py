"""Tests for the background integrity scrub (DESIGN.md §13).

Covers what the scrubber does on every surface it walks (zone slots and
semi-SSTable blocks go to the engine's one triage per tier, shared with
reads, scans and maintenance; a corrupt checkpoint is rewritten), the
health pause/catch-up discipline, the scrub-disabled digest guarantee,
and a property sweep
asserting the end-to-end corruption contract: a single bit-flip in any
persisted structure is either served around from an intact copy, provably
harmless, or surfaced (suspect/CorruptionError) — never silently served as
wrong bytes.
"""

import random
import zlib

import pytest

from repro import obs
from repro.common.errors import CorruptionError, ReproError
from repro.common.keys import KeyRange, encode_key
from repro.common.records import RECORD_HEADER_SIZE, Record
from repro.core import HyperDB, HyperDBConfig
from repro.health.state import HealthState, HealthWindow
from repro.nvme.config import NVMeConfig
from repro.scrub import ScrubConfig, Scrubber, ScrubStats
from repro.simssd import DeviceProfile, SimDevice, TrafficKind
from repro.simssd.faults import FaultInjector, FaultPlan

KEYSPACE = 50_000
KiB = 1024
MiB = 1024 * KiB


def nvme_device(mib=4, injector=None):
    return SimDevice(
        DeviceProfile(
            name="nvme",
            capacity_bytes=mib * MiB,
            page_size=4096,
            read_latency_s=8e-5,
            write_latency_s=2e-5,
            read_bandwidth=6.5e9,
            write_bandwidth=3.5e9,
        ),
        injector=injector,
    )


def sata_device(mib=64, injector=None):
    return SimDevice(
        DeviceProfile(
            name="sata",
            capacity_bytes=mib * MiB,
            page_size=4096,
            read_latency_s=2e-4,
            write_latency_s=6e-5,
            read_bandwidth=5.6e8,
            write_bandwidth=5.1e8,
        ),
        injector=injector,
    )


def make_db(nvme_mib=4, sata_mib=64, injector=None, **cfg_kw):
    cfg = HyperDBConfig(
        key_space=KeyRange(encode_key(0), encode_key(KEYSPACE)),
        nvme=NVMeConfig(
            num_partitions=4,
            initial_zones_per_partition=2,
            migration_batch_bytes=16 * KiB,
        ),
        semi_num_levels=3,
        semi_size_ratio=4,
        semi_bottom_segments=16,
        semi_level1_target_bytes=128 * KiB,
        **cfg_kw,
    )
    return HyperDB(
        nvme_device(nvme_mib, injector=injector),
        sata_device(sata_mib, injector=injector),
        cfg,
    )


def k(i):
    return encode_key(i)


def corrupt_slot(db, key, bit=0):
    """Flip one bit of ``key``'s resident NVMe slot bytes on media (the
    write window committed first, so the flip is not written over)."""
    partition = db.performance_tier.partition_for_key(key)
    partition.page_store.commit()
    loc = partition.resident_location(key)
    assert loc is not None, "key is not NVMe-resident"
    page = partition.page_store._pages[loc.page_id]
    page[loc.offset + bit // 8] ^= 1 << (bit % 8)
    return partition, loc


def plant_promoted(db, key, value, seqno=None):
    """Install ``key`` as a promoted NVMe resident whose authoritative twin
    sits in the capacity tier (the §3.5 promote-on-read layout)."""
    rec = Record(key, value, db.next_seqno() if seqno is None else seqno)
    db.capacity_tier.ingest([rec], TrafficKind.MIGRATION)
    partition = db.performance_tier.partition_for_key(key)
    partition.promote(rec, TrafficKind.MIGRATION)
    loc = partition.resident_location(key)
    assert loc is not None and loc.promoted
    return rec


def semi_table_for(db, key):
    """The capacity-tier table currently holding ``key``."""
    levels = db.capacity_tier.levels
    for level_no in range(1, levels.num_levels + 1):
        for table in levels.level(level_no).tables.values():
            if key in table._key_map:
                return table
    raise AssertionError("key not found in any capacity table")


def corrupt_semi_block(table, key):
    """Flip one bit of the media block holding ``key``; returns the block."""
    block = table._blocks_by_id[table._key_map[key][0]]
    table.file._data[block.offset] ^= 0x01
    return block


def plant_promoted_block(db, base, n=6):
    """``n`` keys ingested into one capacity table and promoted to NVMe;
    returns ``(keys, table)``."""
    keys = [k(base + i) for i in range(n)]
    recs = [Record(key, b"cap" * 30, db.next_seqno()) for key in keys]
    db.capacity_tier.ingest(recs, TrafficKind.MIGRATION)
    for rec in recs:
        db.performance_tier.partition_for_key(rec.key).promote(
            rec, TrafficKind.MIGRATION
        )
    return keys, semi_table_for(db, keys[0])


def fill_past_watermark(db, value_size=512, start=0):
    i = start
    while db.migration.stats.demotion_jobs == 0 and i < KEYSPACE:
        db.put(k(i), bytes([i % 256]) * value_size)
        i += 1
    assert db.migration.stats.demotion_jobs > 0
    return i


# ---------------------------------------------------------------------------
# Config + cadence
# ---------------------------------------------------------------------------


class TestScrubConfig:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            ScrubConfig(interval_ops=0)

    def test_db_without_scrubber(self):
        db = make_db()
        assert db.scrubber is None
        with pytest.raises(ReproError):
            db.scrub()

    def test_maybe_run_cadence(self):
        db = make_db(scrub=ScrubConfig(interval_ops=10))
        scrubber = db.scrubber
        assert not scrubber.maybe_run(4)
        assert not scrubber.maybe_run(5)
        assert scrubber.maybe_run(1)  # 10 ops accounted -> pass fires
        assert scrubber.stats.passes == 1
        assert not scrubber.maybe_run(9)  # counter reset after the pass


class TestCleanStoreScrub:
    def test_full_pass_scans_everything_and_heals_nothing(self):
        db = make_db(nvme_mib=2, scrub=ScrubConfig())
        written = fill_past_watermark(db)
        assert db.scrub() is True
        st = db.scrubber.stats
        assert st.passes == 1
        assert st.zone_slots_scanned > 0
        assert st.semi_blocks_scanned > 0
        assert st.detected == 0
        assert st.repaired == 0
        assert st.unrecoverable == 0
        # Scrub reads ride the dedicated background lane, not foreground.
        assert db.nvme_device.traffic.read_bytes(TrafficKind.SCRUB) > 0
        for i in range(0, written, max(1, written // 40)):
            assert db.get(k(i))[0] == bytes([i % 256]) * 512

    def test_scrub_traffic_charged_on_both_devices(self):
        db = make_db(nvme_mib=2, scrub=ScrubConfig())
        fill_past_watermark(db)
        db.scrub()
        assert db.sata_device.traffic.read_bytes(TrafficKind.SCRUB) > 0


# ---------------------------------------------------------------------------
# Zone slots: scrub drops through the engine's one rule
# ---------------------------------------------------------------------------


class TestZoneSlotLadder:
    def test_promoted_slot_dropped_twin_serves(self):
        db = make_db(scrub=ScrubConfig())
        plant_promoted(db, k(1), b"twin" * 40)
        corrupt_slot(db, k(1))
        assert db.scrub() is True
        st = db.scrubber.stats
        assert st.detected == 1
        assert st.repaired == 0
        assert st.unrecoverable == 0
        # The corrupt copy is dropped, not rebuilt: the capacity twin is
        # authoritative and serves the read; nothing was lost.
        partition = db.performance_tier.partition_for_key(k(1))
        assert partition.resident_location(k(1)) is None
        assert db.stats.counter("nvme_corrupt_slots").value == 1
        assert db.suspect_keys == []
        assert db.get(k(1))[0] == b"twin" * 40

    def test_nonpromoted_slot_surfaces_as_unrecoverable(self):
        db = make_db(scrub=ScrubConfig())
        db.put(k(2), b"newest")
        corrupt_slot(db, k(2))
        db.scrub()
        st = db.scrubber.stats
        assert st.detected == 1
        assert st.unrecoverable == 1
        assert db.stats.counter("nvme_corrupt_slots").value == 1
        assert db.suspect_keys == [k(2)]
        # The corrupt copy is gone: readers see honest absence, not garbage.
        assert db.get(k(2))[0] is None

    def test_second_pass_finds_nothing_new(self):
        db = make_db(scrub=ScrubConfig())
        plant_promoted(db, k(3), b"v" * 64)
        corrupt_slot(db, k(3))
        db.scrub()
        detected = db.scrubber.stats.detected
        db.scrub()
        assert db.scrubber.stats.detected == detected

    def test_foreground_read_falls_back_for_promoted(self):
        db = make_db()
        plant_promoted(db, k(4), b"safe" * 16)
        corrupt_slot(db, k(4))
        value, _ = db.get(k(4))
        assert value == b"safe" * 16  # served from the capacity twin
        assert db.stats.counter("nvme_corrupt_slots").value == 1
        assert k(4) not in db.suspect_keys

    def test_foreground_read_nonpromoted_counts_stale_fallback(self):
        db = make_db()
        db.put(k(5), b"only-copy")
        corrupt_slot(db, k(5))
        value, _ = db.get(k(5))
        assert value is None
        assert db.stats.counter("nvme_corrupt_slots").value == 1
        assert k(5) in db.suspect_keys


# ---------------------------------------------------------------------------
# Semi-SSTable blocks: scrub hands a corrupt block to the engine's triage
# ---------------------------------------------------------------------------


class TestSemiBlockLadder:
    def test_block_rescued_by_promoted_residents(self):
        db = make_db(scrub=ScrubConfig())
        keys, table = plant_promoted_block(db, 100)
        block = corrupt_semi_block(table, keys[0])
        victims = table.keys_of_block(block)
        db.scrub()
        st = db.scrubber.stats
        assert st.detected >= 1
        assert st.repaired == 0
        assert st.unrecoverable == 0
        assert block.is_dead
        # Each victim's NVMe copy is the same version: it loses its
        # promotion label and becomes the one authoritative copy.
        assert db.stats.counter("semi_corrupt_rescued").value == len(victims)
        for key in victims:
            loc = db.performance_tier.partition_for_key(key).resident_location(key)
            assert loc is not None and not loc.promoted
        for key in keys:
            assert db.get(key)[0] == b"cap" * 30

    def test_block_with_no_resident_copy_is_unrecoverable(self):
        db = make_db(scrub=ScrubConfig())
        rec = Record(k(200), b"gone" * 20, db.next_seqno())
        db.capacity_tier.ingest([rec], TrafficKind.MIGRATION)
        table = semi_table_for(db, k(200))
        corrupt_semi_block(table, k(200))
        db.scrub()
        st = db.scrubber.stats
        assert st.unrecoverable >= 1
        assert k(200) in db.suspect_keys

    def test_superseded_copy_is_harmless(self):
        db = make_db(scrub=ScrubConfig())
        old = Record(k(300), b"old" * 20, db.next_seqno())
        db.capacity_tier.ingest([old], TrafficKind.MIGRATION)
        db.put(k(300), b"newer")  # strictly newer non-promoted NVMe resident
        table = semi_table_for(db, k(300))
        corrupt_semi_block(table, k(300))
        with obs.recording() as trace:
            db.scrub()
        (event,) = [e for e in trace.events() if e.type == "semi_block_corruption"]
        assert event.data["superseded"] >= 1
        assert db.scrubber.stats.unrecoverable == 0
        assert db.suspect_keys == []
        assert db.get(k(300))[0] == b"newer"

    def test_valid_crc_over_a_truncated_record_is_detected(self):
        """Foreground reads decode one record at its indexed offset, so only
        scrub's full walk sees a block that is structurally broken *under*
        a matching checksum (a bug or a torn rewrite, not a bit flip)."""
        db = make_db(scrub=ScrubConfig())
        recs = [Record(k(400 + i), b"cap" * 30, db.next_seqno()) for i in range(4)]
        db.capacity_tier.ingest(recs, TrafficKind.MIGRATION)
        table = semi_table_for(db, k(400))
        block = table._blocks_by_id[table._key_map[k(403)][0]]
        assert table.keys_of_block(block)[-1] == k(403)  # the block's last record
        data = table.file._data
        payload = bytearray(data[block.offset : block.offset + block.length - 4])
        # The last record starts its encoded size before the end: seqno 8B, flags 1B, key_len 2B.
        vlen_at = len(payload) - table._key_map[k(403)][2] + 11
        payload[vlen_at : vlen_at + 4] = (len(b"cap" * 30) + 1).to_bytes(4, "big")
        data[block.offset : block.offset + block.length] = payload + zlib.crc32(
            payload
        ).to_bytes(4, "big")
        assert db.get(k(400))[0] == b"cap" * 30  # the CRC holds: readable
        with obs.recording() as trace:
            db.scrub()
        assert [
            e.data["surface"] for e in trace.events() if e.type == "scrub_detect"
        ] == ["semi_block"]
        assert db.scrubber.stats.detected == 1
        assert block.is_dead and k(403) in db.suspect_keys


# ---------------------------------------------------------------------------
# One corruption rule per tier, whoever detects it
# ---------------------------------------------------------------------------


def _collect_zone(db, key):
    partition = db.performance_tier.partition_for_key(key)
    partition.collect_zone(partition.zone_for_key(key), db.capacity_tier.ingest)


DETECTORS = {
    "get": lambda db, key: db.get(key),
    "scan": lambda db, key: db.scan(key, 5),
    "scrub": lambda db, key: db.scrub(),
    "collect_zone": _collect_zone,
}


class TestOneDropRule:
    @pytest.mark.parametrize(
        "detector, promoted",
        [(d, True) for d in ("get", "scan", "scrub")]
        # Regular zones hold only non-promoted slots (promotion installs
        # into the hot zone, and a park keeps the label in the hot zone).
        + [(d, False) for d in DETECTORS],
    )
    def test_every_detector_drops_through_one_rule(self, detector, promoted):
        db = make_db(scrub=ScrubConfig())
        key = k(9)
        if promoted:
            plant_promoted(db, key, b"twin" * 40)
        else:
            db.put(key, b"newest" * 10)
        partition, _ = corrupt_slot(db, key)
        DETECTORS[detector](db, key)
        assert partition.resident_location(key) is None
        assert db.stats.counter("nvme_corrupt_slots").value == 1
        if promoted:
            # The capacity twin is authoritative: nothing lost, it serves.
            assert db.suspect_keys == []
            assert db.get(key)[0] == b"twin" * 40
        else:
            assert db.suspect_keys == [key]


class TestScrubDetectionCostsNoExtraIO:
    @staticmethod
    def scrub_pass_traffic(db):
        """Run one pass; ``[(SCRUB read I/Os, SCRUB write bytes)]`` per device."""
        db.scrub()
        return [
            (dev.traffic.read_ios(TrafficKind.SCRUB),
             dev.traffic.write_bytes(TrafficKind.SCRUB))
            for dev in (db.nvme_device, db.sata_device)
        ]

    def test_corrupt_slot_costs_no_extra_read(self):
        def build():
            db = make_db(scrub=ScrubConfig())
            for i in range(40):
                db.put(k(i), bytes([i]) * 100)
            return db

        clean, damaged = build(), build()
        corrupt_slot(damaged, k(7))
        assert self.scrub_pass_traffic(damaged) == self.scrub_pass_traffic(clean)
        assert damaged.scrubber.stats.detected == 1

    def test_corrupt_block_rescued_without_scrub_writes(self):
        clean, damaged = make_db(scrub=ScrubConfig()), make_db(scrub=ScrubConfig())
        plant_promoted_block(clean, 100)
        keys, table = plant_promoted_block(damaged, 100)
        block = corrupt_semi_block(table, keys[0])
        victims = table.keys_of_block(block)
        traffic = self.scrub_pass_traffic(damaged)
        assert traffic == self.scrub_pass_traffic(clean)
        assert traffic[1][1] == 0  # no SATA SCRUB write bytes
        assert damaged.stats.counter("semi_corrupt_rescued").value == len(victims)
        for key in keys:
            assert damaged.get(key)[0] == b"cap" * 30


# ---------------------------------------------------------------------------
# Checkpoint scrub + recovered slots keep their checksum
# ---------------------------------------------------------------------------


class TestCheckpointScrub:
    def test_corrupt_checkpoint_rewritten_from_live_index(self):
        db = make_db(scrub=ScrubConfig())
        for i in range(20):
            db.put(k(400 + i), b"c" * 64)
        partition = db.performance_tier.partition_for_key(k(400))
        partition.checkpoint()
        pid = partition._checkpoint_pages[0]
        partition.page_store._pages[pid][3] ^= 0x10
        db.scrub()
        st = db.scrubber.stats
        assert st.checkpoints_scanned >= 1
        assert st.detected >= 1
        assert st.repaired >= 1
        # The rewritten image verifies clean on the next pass.
        detected = st.detected
        db.scrub()
        assert st.detected == detected

    def test_short_image_fails_scrub_and_recovery_alike(self):
        """An image shorter than header + CRC fails the one verifier, even
        when its trailer matches: scrub rewrites it, recovery rejects it."""
        db = make_db(scrub=ScrubConfig())
        db.put(k(600), b"s" * 64)
        partition = db.performance_tier.partition_for_key(k(600))
        partition.checkpoint()
        payload = b"\x00" * 8
        page = partition.page_store._pages[partition._checkpoint_pages[0]]
        page[:12] = payload + zlib.crc32(payload).to_bytes(4, "big")
        partition._checkpoint_len = 12
        with pytest.raises(CorruptionError):
            partition.recover()
        db.scrub()
        assert db.scrubber.stats.detected == 1
        assert db.scrubber.stats.repaired == 1
        assert partition._checkpoint_len > 12

    @pytest.mark.parametrize("cache_bytes", [64 * KiB, 0], ids=["cache", "no-cache"])
    def test_flip_after_recovery_reads_as_a_miss(self, cache_bytes):
        """Recovered slots keep the CRC written before the checkpoint, so a
        flipped value byte goes to the one triage, never to the reader."""
        db = make_db(dram_cache_bytes=cache_bytes)
        for i in range(20):
            db.put(k(500 + i), b"value-%03d" % i)
        db.checkpoint()
        db.recover()
        victim = k(505)
        corrupt_slot(db, victim, bit=8 * (RECORD_HEADER_SIZE + len(victim)))
        assert db.get(victim)[0] is None
        assert db.stats.counter("nvme_corrupt_slots").value == 1
        assert db.suspect_keys == [victim]
        assert db.get(k(506))[0] == b"value-006"

    def test_scrub_after_recovery_detects_a_flipped_slot(self):
        db = make_db(scrub=ScrubConfig())
        for i in range(20):
            db.put(k(500 + i), b"r" * 64)
        partitions = db.performance_tier.partitions
        crcs = {key: loc.crc for p in partitions for key, loc in p.index.items()}
        db.checkpoint()
        db.recover()
        victim = k(505)
        corrupt_slot(db, victim, bit=8 * (RECORD_HEADER_SIZE + len(victim)))
        db.scrub()
        st = db.scrubber.stats
        assert st.detected == 1 and st.unrecoverable == 1
        assert db.suspect_keys == [victim]
        # No checksum is re-derived: every survivor keeps its written CRC.
        del crcs[victim]
        assert {key: loc.crc for p in partitions for key, loc in p.index.items()} == crcs


# ---------------------------------------------------------------------------
# Health pause / catch-up discipline
# ---------------------------------------------------------------------------


class TestScrubHealthDiscipline:
    def test_pass_pauses_in_window_and_drains_after(self):
        window = HealthWindow(
            device="sata", state=HealthState.OFFLINE, start_io=1, end_io=60
        )
        injector = FaultInjector(FaultPlan(seed=0, health_windows=(window,)))
        db = make_db(injector=injector, scrub=ScrubConfig())
        db.put(k(1), b"v")
        assert db.sata_device.health() is HealthState.OFFLINE
        assert db.scrub() is False
        st = db.scrubber.stats
        assert st.paused_passes == 1
        assert st.passes == 0
        assert db.scrubber.has_catch_up
        # Foreground writes advance the shared I/O clock past the window,
        # a command per page each time their write window commits (960
        # puts here); the write path drains the queued pass exactly once.
        i = 2
        while db.scrubber.has_catch_up and i < 3000:
            db.put(k(i), b"v" * 32)
            i += 1
        assert st.catch_up_drains == 1
        assert st.passes == 1

    def test_catch_up_noop_while_still_unhealthy(self):
        window = HealthWindow(
            device="sata", state=HealthState.OFFLINE, start_io=1, end_io=10**9
        )
        injector = FaultInjector(FaultPlan(seed=0, health_windows=(window,)))
        db = make_db(injector=injector, scrub=ScrubConfig())
        assert db.scrub() is False
        assert db.scrubber.run_catch_up() is False
        assert db.scrubber.has_catch_up  # still queued, not dropped


# ---------------------------------------------------------------------------
# Scrub disabled => byte-identical behavior
# ---------------------------------------------------------------------------


class TestScrubDisabledDigest:
    def test_armed_but_idle_scrubber_changes_nothing(self):
        """Arming a scrubber that is never driven must not perturb a single
        service-time float — the digest-neutrality guarantee."""
        plain = make_db()
        armed = make_db(scrub=ScrubConfig())
        rng = random.Random(0)
        for i in range(300):
            key = k(rng.randrange(600))
            if rng.random() < 0.7:
                assert plain.put(key, b"d" * 100) == armed.put(key, b"d" * 100)
            else:
                assert plain.get(key) == armed.get(key)
        assert (
            plain.nvme_device.busy_seconds() == armed.nvme_device.busy_seconds()
        )
        assert (
            plain.sata_device.busy_seconds() == armed.sata_device.busy_seconds()
        )

    def test_scrub_on_clean_store_preserves_foreground_values(self):
        db = make_db(scrub=ScrubConfig())
        for i in range(100):
            db.put(k(i), bytes([i % 251]) * 80)
        db.scrub()
        for i in range(100):
            assert db.get(k(i))[0] == bytes([i % 251]) * 80


# ---------------------------------------------------------------------------
# Property sweep: one bit-flip anywhere is never silent
# ---------------------------------------------------------------------------


class TestBitflipPropertySweep:
    def test_single_bitflip_is_healed_surfaced_or_harmless(self):
        """For a sample of resident slots and capacity blocks: flip one bit,
        then read.  The engine must return the correct value (healed or
        fallback), raise CorruptionError (detected), or have surfaced the
        key via ``suspect_keys`` — silently returning wrong bytes fails."""
        db = make_db(nvme_mib=2, scrub=ScrubConfig())
        written = fill_past_watermark(db, value_size=256)
        expected = {k(i): bytes([i % 256]) * 256 for i in range(written)}
        rng = random.Random(0)

        resident = []
        for partition in db.performance_tier.partitions:
            for key, loc in partition.index.items():
                if key in expected:
                    resident.append((partition, key, loc))
        assert resident
        victims = rng.sample(resident, min(25, len(resident)))
        for partition, key, loc in victims:
            bit = rng.randrange(loc.record_size * 8)
            page = partition.page_store._pages[loc.page_id]
            page[loc.offset + bit // 8] ^= 1 << (bit % 8)

        flipped = {key for _, key, _ in victims}
        for key in sorted(expected):
            try:
                value, _ = db.get(key)
            except CorruptionError:
                assert key in flipped  # detected, attributable, not silent
                continue
            if value != expected[key]:
                # Older/absent version may be served only when the loss was
                # recorded (corrupt newest copy dropped + key surfaced).
                assert key in flipped
                assert key in db.suspect_keys
        # The scrub pass over the damaged store accounts for every
        # remaining flipped slot without inventing data.
        db.scrub()
        st = db.scrubber.stats
        handled = st.detected + db.stats.counter("nvme_corrupt_slots").value
        assert handled >= 1
        for key in sorted(expected):
            try:
                value, _ = db.get(key)
            except CorruptionError:
                assert key in flipped
                continue
            if value != expected[key]:
                assert key in flipped

    def test_bitflip_in_slot_padding_is_harmless(self):
        """Flips beyond the encoded record (slot-class padding) touch bytes
        no reader or checksum covers: reads and scrub both stay clean."""
        db = make_db(scrub=ScrubConfig())
        db.put(k(1), b"pad" * 10)
        partition = db.performance_tier.partition_for_key(k(1))
        loc = partition.resident_location(k(1))
        page = partition.page_store._pages[loc.page_id]
        if loc.offset + loc.record_size < len(page):
            page[loc.offset + loc.record_size] ^= 0xFF
        assert db.get(k(1))[0] == b"pad" * 10
        db.scrub()
        assert db.scrubber.stats.detected == 0

    def test_semi_block_bitflip_never_silent(self):
        db = make_db(scrub=ScrubConfig())
        keys = [k(700 + i) for i in range(6)]
        recs = [Record(key, b"sb" * 40, db.next_seqno()) for key in keys]
        db.capacity_tier.ingest(recs, TrafficKind.MIGRATION)
        table = semi_table_for(db, keys[0])
        block = corrupt_semi_block(table, keys[0])
        victims = {
            key for key, e in table._key_map.items() if e[0] == block.block_id
        }
        for key in keys:
            try:
                value, _ = db.get(key)
            except CorruptionError:
                assert key in victims
                continue
            assert value == b"sb" * 40
