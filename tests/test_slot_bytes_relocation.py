"""Bulk NVMe relocations move verified slot bytes, not records.

A zone split, a demotion's hot-zone parks and the hot-zone eviction
relocation place each object's slot bytes exactly as read: the index CRC
is the one check, nothing is decoded or re-encoded, and the new location
carries the old one's checksum, seqno, record size and promotion label.
A zone every object has left is freed in one pass, to the same state the
per-object frees leave.
"""

import dataclasses
import zlib
from collections import Counter

import pytest

from repro.common.cache import LRUCache
from repro.common.errors import ReproError
from repro.common.keys import KeyRange, decode_key, encode_key
from repro.common.records import Record
from repro.nvme import NVMeConfig, PerformanceTier
from repro.nvme.partition import Partition
from tests.test_entry_pipeline import CODEC, count_codec
from tests.test_zone_relocation import (
    KEYSPACE,
    MIGRATION,
    RecordingIngest,
    _collect_setup,
    _hot_zone_of_unpromoted,
    _loaded_without_split,
    hot_keys,
    make_device,
    rec,
)


def slot_state(part, keys):
    """``{key: (location fields, slot bytes)}`` as the index sees them."""
    out = {}
    for key in keys:
        loc = part.index.get(key)
        raw = part.page_store.peek(loc.page_id, loc.offset, loc.record_size)
        out[key] = (dataclasses.replace(loc), raw)
    return out


def count_codec_calls(monkeypatch):
    """Count the record codec, the entry parser and every CRC32."""
    calls = count_codec(monkeypatch, CODEC + ("entry_at",))
    crc32 = zlib.crc32

    def counted_crc(*args, **kwargs):
        calls["crc"] += 1
        return crc32(*args, **kwargs)

    monkeypatch.setattr(zlib, "crc32", counted_crc)
    return calls


def record_drops(part):
    dropped = []
    part.on_corrupt_slot = lambda key, promoted: dropped.append((key, promoted))
    return dropped


def assert_gone(part, key):
    assert key not in part.index
    zones = part.zones() + [part.hot_zone]
    assert all(key not in z.keys for z in zones)


# ------------------------------------------------------------ the codec guard


def test_split_relocates_slot_bytes_without_the_codec(monkeypatch):
    device = make_device()
    part, zone = _loaded_without_split(device, 300)
    keys = sorted(zone.keys)
    tomb = keys[7]
    part.put(Record.tombstone(tomb, 10_000))  # updated in place
    for key in keys[::5]:
        part.index.get(key).promoted = True
    before = slot_state(part, keys)
    calls = count_codec_calls(monkeypatch)
    part._maybe_split_zone(zone)
    assert len(part.zones()) == 2
    assert calls == Counter(crc=len(keys))  # one check per object, nothing else
    monkeypatch.undo()
    after = slot_state(part, keys)
    for key in keys:
        (old, old_raw), (new, new_raw) = before[key], after[key]
        assert new.zone_id != zone.zone_id
        assert new_raw == old_raw
        for field in ("crc", "seqno", "record_size", "slot_size", "promoted"):
            assert getattr(new, field) == getattr(old, field), (key, field)
    got, _ = part.get(tomb)
    assert got.deleted and got.seqno == 10_000


def test_parks_and_eviction_relocate_slot_bytes(monkeypatch):
    device, part, zone, hot = _collect_setup(monkeypatch)
    before = slot_state(part, hot)
    calls = count_codec_calls(monkeypatch)
    demoted, _ = part.collect_zone(zone, RecordingIngest(), MIGRATION)
    # One check per object; only the demoted ones are sliced into entries.
    assert calls == Counter(crc=len(demoted) + len(hot), entry_at=len(demoted))
    after = slot_state(part, hot)
    for key in hot:
        assert after[key][0].zone_id == part.hot_zone.zone_id
        assert after[key][1] == before[key][1]
        assert after[key][0].crc == before[key][0].crc

    device, part, keys = _hot_zone_of_unpromoted(monkeypatch)
    monkeypatch.setattr(part, "_hot_zone_page_budget", lambda vacated=0: 2)
    before = slot_state(part, keys)
    calls = count_codec_calls(monkeypatch)
    part._evict_hot_zone_if_needed(MIGRATION)
    assert calls == Counter(crc=32)  # the oldest page's 32 objects moved
    after = slot_state(part, keys[:32])
    for key in keys[:32]:
        assert after[key][1] == before[key][1]
        assert after[key][0].crc == before[key][0].crc
        assert after[key][0].zone_id == part.zone_for_key(key).zone_id


# -------------------------------------------------- corrupt slots are dropped


def test_split_drops_a_slot_whose_crc_mismatches():
    device = make_device()
    part, zone = _loaded_without_split(device, 300)
    keys = sorted(zone.keys)
    victim = keys[42]
    part.index.get(victim).crc ^= 1
    dropped = record_drops(part)
    part._maybe_split_zone(zone)
    assert len(part.zones()) == 2
    assert dropped == [(victim, False)]
    assert_gone(part, victim)
    assert sum(z.object_count for z in part.zones()) == len(keys) - 1


def test_park_drops_a_slot_whose_crc_mismatches(monkeypatch):
    device, part, zone, hot = _collect_setup(monkeypatch)
    victim = sorted(hot)[3]
    part.index.get(victim).crc ^= 1
    dropped = record_drops(part)
    demoted, _ = part.collect_zone(zone, RecordingIngest(), MIGRATION)
    assert dropped == [(victim, False)]
    assert victim not in {e[0] for e in demoted}
    assert_gone(part, victim)
    assert part.hot_zone.object_count == len(hot) - 1


def test_eviction_drops_a_slot_whose_crc_mismatches(monkeypatch):
    device, part, keys = _hot_zone_of_unpromoted(monkeypatch)
    monkeypatch.setattr(part, "_hot_zone_page_budget", lambda vacated=0: 2)
    part.index.get(keys[0]).crc ^= 1
    dropped = record_drops(part)
    part._evict_hot_zone_if_needed(MIGRATION)
    assert dropped == [(keys[0], False)]
    assert_gone(part, keys[0])
    for key in keys[1:32]:
        assert part.index.get(key).zone_id == part.zone_for_key(key).zone_id


def test_split_after_recovery_checks_the_checkpointed_crc():
    # The checkpoint carries every slot's CRC: after recovery a flipped slot
    # is dropped and an intact one moves with the CRC written before it.
    device = make_device()
    part, zone = _loaded_without_split(device, 300)
    keys = sorted(zone.keys)
    flipped, intact = keys[10], keys[11]
    before = slot_state(part, [intact])[intact]
    part.checkpoint()
    part.recover()
    (zone,) = part.zones()
    loc = part.index.get(flipped)
    part.page_store._pages[loc.page_id][loc.offset + loc.record_size - 1] ^= 1
    dropped = record_drops(part)
    part._maybe_split_zone(zone)
    assert len(part.zones()) == 2
    assert dropped == [(flipped, False)]
    assert_gone(part, flipped)
    moved, raw = slot_state(part, [intact])[intact]
    assert moved.crc == before[0].crc and moved.zone_id != zone.zone_id
    assert raw == before[1]
    assert part.get(intact)[0].value == rec(decode_key(intact)).value


# ---------------------------------------------------------- one-pass release


def cached_partition(**cfg):
    device = make_device()
    cache = LRUCache(1 << 20)
    defaults = dict(num_partitions=1, initial_zones_per_partition=1)
    defaults.update(cfg)
    tier = PerformanceTier(
        device,
        KeyRange(encode_key(0), encode_key(KEYSPACE)),
        NVMeConfig(**defaults),
        cache=cache,
    )
    return device, tier.partitions[0], cache


def state(device, part, cache, zone):
    return dict(
        allocated=device.allocated_pages,
        used_pages=part.used_pages,
        cache_bytes=cache.used_bytes,
        cached_pages=len(cache),
        zone=(dict(zone.keys), zone.used_bytes, zone.total_pages()),
        hot_zone=(list(part.hot_zone.keys), part.hot_zone.used_bytes),
        index={k: dataclasses.astuple(part.index.get(k)) for k in part.index.keys()},
    )


def split_scenario():
    device, part, cache = cached_partition(migration_batch_bytes=1 << 30)
    for i in range(400):
        part.put(rec(i * 50))
    (zone,) = part.zones()
    for key in list(zone.keys)[::3]:
        part.get(key)  # the zone's pages enter the shared cache
    assert cache.used_bytes > 0
    part.config = NVMeConfig(
        num_partitions=1, initial_zones_per_partition=1, migration_batch_bytes=4 << 10
    )
    part._maybe_split_zone(zone)
    assert len(part.zones()) == 2
    return state(device, part, cache, zone)


def collect_scenario(monkeypatch):
    device, part, cache = cached_partition()
    for i in range(200):
        part.put(rec(i * 10))
    (zone,) = part.zones()
    for key in list(zone.keys)[::3]:
        part.get(key)
    hot_keys(monkeypatch, part, {encode_key(i * 10) for i in range(0, 200, 5)})
    part.collect_zone(zone, RecordingIngest(), MIGRATION)
    assert zone.object_count == 0 and part.hot_zone.object_count == 40
    return state(device, part, cache, zone)


def per_object_frees(monkeypatch):
    """Make every commit free its moved slots one by one."""
    commit = Partition.commit
    monkeypatch.setattr(
        Partition,
        "commit",
        lambda self, batch, moves, kind, vacated=None: commit(self, batch, moves, kind),
    )


def test_one_pass_release_after_split_matches_per_object_frees(monkeypatch):
    one_pass = split_scenario()
    per_object_frees(monkeypatch)
    assert one_pass == split_scenario()
    assert one_pass["zone"] == ({}, 0, 0)


def test_one_pass_release_after_collect_matches_per_object_frees(monkeypatch):
    one_pass = collect_scenario(monkeypatch)
    per_object_frees(monkeypatch)
    assert one_pass == collect_scenario(monkeypatch)
    assert one_pass["zone"] == ({}, 0, 0)


def test_a_key_left_behind_fails_the_release(monkeypatch):
    # A key the loop skips (its index entry names another zone) would lose
    # its slot to the one-pass release: the relocation refuses and rolls
    # back instead.
    device = make_device()
    part, zone = _loaded_without_split(device, 300)
    stray = encode_key(KEYSPACE - 1)
    zone.keys[stray] = None
    allocated = device.allocated_pages
    with pytest.raises(ReproError, match="behind"):
        part._maybe_split_zone(zone)
    assert part.zones() == [zone]
    assert device.allocated_pages == allocated

    device, part, zone, hot = _collect_setup(monkeypatch)
    zone.keys[stray] = None
    allocated = device.allocated_pages
    with pytest.raises(ReproError, match="behind"):
        part.collect_zone(zone, RecordingIngest(), MIGRATION)
    assert part.hot_zone.object_count == 0
    assert device.allocated_pages == allocated
