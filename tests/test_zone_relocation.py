"""Bulk NVMe relocations write each destination page once.

A zone split, a demotion's hot-zone parks and the hot-zone eviction
relocation stage every object into its new slot first, then write each
destination page with one command, and switch the index only after every
write succeeded.  A failed write frees what was staged and leaves every
object in its old slot.
"""

import pytest

from repro.common.errors import OutOfSpaceError, PowerLossError, TransientIOError
from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.nvme import NVMeConfig, PageStore, PerformanceTier
from repro.simssd import (
    DeviceProfile,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    SimDevice,
    TrafficKind,
)

KEYSPACE = 100_000
GC = TrafficKind.GC
MIGRATION = TrafficKind.MIGRATION


def make_device(mib=32, plan=None):
    profile = DeviceProfile(
        name="nvme",
        capacity_bytes=mib * (1 << 20),
        page_size=4096,
        read_latency_s=8e-5,
        write_latency_s=2e-5,
        read_bandwidth=6.5e9,
        write_bandwidth=3.5e9,
    )
    # An injector (even with an empty plan) keeps the device off its
    # fault-free fast path, so tests can swap in a failing plan later.
    return SimDevice(profile, injector=FaultInjector(plan or FaultPlan()))


def make_partition(device, **cfg):
    defaults = dict(num_partitions=1, initial_zones_per_partition=1)
    defaults.update(cfg)
    tier = PerformanceTier(
        device, KeyRange(encode_key(0), encode_key(KEYSPACE)), NVMeConfig(**defaults)
    )
    return tier.partitions[0]


def value(i):
    # Two slot classes (128 B and 384 B slots), interleaved by key.
    return (b"s" * 100) if i % 3 else (b"L" * 300)


def rec(i, seqno=None):
    return Record(encode_key(i), value(i), i + 1 if seqno is None else seqno)


def fail_page_write(device, k):
    """From now on, the ``k``-th write command (1-based) fails on every
    attempt the retry policy allows."""
    attempts = RetryPolicy().max_retries + 1
    plan = FaultPlan(fail_write_ios=frozenset(range(k, k + attempts)))
    device.injector = FaultInjector(plan)


def assert_reads_back(part, keys, expect):
    for key in keys:
        got, _ = part.get(key)
        assert got is not None and got.value == expect[key], key


def hot_keys(monkeypatch, part, hot):
    """Make the tracker call exactly ``hot`` hot."""
    disc = part.tracker.discriminator
    monkeypatch.setattr(disc, "is_hot_many", lambda keys: [k in hot for k in keys])
    monkeypatch.setattr(part.tracker, "is_hot", lambda key: key in hot)


# ------------------------------------------------------------------ splits


def test_zone_split_writes_each_page_once():
    device = make_device()
    part = make_partition(device, migration_batch_bytes=8 << 10)
    traffic = device.traffic
    for i in range(0, KEYSPACE, 37):
        zones_before = set(part.zones())
        reads, writes = traffic.read_ios(GC), traffic.write_ios(GC)
        part.put(rec(i))
        halves = [z for z in part.zones() if z not in zones_before]
        if halves:
            break
    else:
        pytest.fail("no split happened")
    slot_sizes = {part.index.get(k).slot_size for z in halves for k in z.keys}
    assert len(slot_sizes) == 2  # pages summed over two slot classes
    destination_pages = sum(z.total_pages() for z in halves)
    gc_writes = traffic.write_ios(GC) - writes
    gc_reads = traffic.read_ios(GC) - reads
    assert gc_writes == destination_pages
    # Each slot class's halves can end in one partial page more than the
    # old zone did; beyond that the split writes no page it did not read.
    assert gc_writes <= gc_reads + len(slot_sizes)
    # Every moved object is readable from its half.
    for z in halves:
        for key in z.keys:
            assert part.index.get(key).zone_id == z.zone_id


def _loaded_without_split(device, n):
    """A partition holding ``n`` objects in one zone that is due to split."""
    part = make_partition(device, migration_batch_bytes=1 << 30)
    for i in range(n):
        part.put(rec(i * 50))
    (zone,) = part.zones()
    # Shrink the target so the next check splits the now-oversized zone.
    part.config = NVMeConfig(
        num_partitions=1, initial_zones_per_partition=1, migration_batch_bytes=4 << 10
    )
    return part, zone


@pytest.mark.parametrize("k", [1, 3])
def test_split_write_failure_rolls_back(k):
    device = make_device()
    part, zone = _loaded_without_split(device, 400)
    keys = list(zone.keys)
    expect = {key: part.get(key)[0].value for key in keys}
    allocated = device.allocated_pages
    fail_page_write(device, k)
    with pytest.raises(TransientIOError):
        part._maybe_split_zone(zone)
    assert part.zones() == [zone]
    assert device.allocated_pages == allocated
    assert_reads_back(part, keys, expect)
    # The failure is not sticky: the next attempt splits.
    device.injector = FaultInjector(FaultPlan())
    part._maybe_split_zone(zone)
    assert len(part.zones()) == 2
    assert_reads_back(part, keys, expect)


def test_split_power_loss_rolls_back_in_memory():
    device = make_device()
    part, zone = _loaded_without_split(device, 400)
    allocated = device.allocated_pages
    device.injector = FaultInjector(FaultPlan(crash_after_write_io=2))
    with pytest.raises(PowerLossError):
        part._maybe_split_zone(zone)
    assert part.zones() == [zone]
    assert device.allocated_pages == allocated


def test_split_without_room_for_both_halves_waits(monkeypatch):
    device = make_device()
    part, zone = _loaded_without_split(device, 400)
    keys = list(zone.keys)
    expect = {key: part.get(key)[0].value for key in keys}
    allocated = device.allocated_pages
    # The device runs out after the halves' third page.
    store, allocate, calls = part.page_store, part.page_store.allocate, []

    def allocate_three(count=1):
        calls.append(count)
        if len(calls) > 3:
            raise OutOfSpaceError("full")
        return allocate(count)

    monkeypatch.setattr(store, "allocate", allocate_three)
    writes = device.traffic.write_ios(GC)
    part._maybe_split_zone(zone)  # no error: the split just waits
    assert device.traffic.write_ios(GC) == writes  # nothing was written
    assert part.zones() == [zone]
    assert device.allocated_pages == allocated
    assert_reads_back(part, keys, expect)


# ------------------------------------------------------------------- parks


def _collect_setup(monkeypatch, n=200, nhot=40):
    device = make_device()
    part = make_partition(device)
    for i in range(n):
        part.put(rec(i * 10))
    (zone,) = part.zones()
    hot = {encode_key(i * 10) for i in range(0, n, n // nhot)}
    hot_keys(monkeypatch, part, hot)
    return device, part, zone, hot


def test_parks_write_each_hot_zone_page_once(monkeypatch):
    device, part, zone, hot = _collect_setup(monkeypatch)
    writes = device.traffic.write_ios(MIGRATION)
    batch, _ = part.collect_zone(zone, MIGRATION)
    assert {e[0] for e in batch}.isdisjoint(hot)
    pages = {part.index.get(key).page_id for key in hot}
    assert all(part.index.get(key).zone_id == part.hot_zone.zone_id for key in hot)
    assert len(hot) > len(pages)  # several parked objects share a page
    assert device.traffic.write_ios(MIGRATION) - writes == len(pages)


@pytest.mark.parametrize("k", [1, 2])
def test_park_write_failure_rolls_back(monkeypatch, k):
    device, part, zone, hot = _collect_setup(monkeypatch)
    keys = list(zone.keys)
    expect = {key: part.get(key)[0].value for key in keys}
    allocated = device.allocated_pages
    fail_page_write(device, k)
    with pytest.raises(TransientIOError):
        part.collect_zone(zone, MIGRATION)
    assert zone in part.zones()
    assert zone.object_count == len(keys)
    assert part.hot_zone.object_count == 0
    assert device.allocated_pages == allocated
    assert_reads_back(part, keys, expect)


def test_park_budget_counts_pages_the_collection_vacated(monkeypatch):
    # The collected zone keeps its pages until the commit; the hot-zone
    # budget must still see the pages already vacated, as if each object
    # had left its slot as it was handled.
    device, part, zone, hot = _collect_setup(monkeypatch)
    seen = []
    budget = part._hot_zone_page_budget

    def spy(vacated=0):
        seen.append(vacated)
        return budget(vacated)

    monkeypatch.setattr(part, "_hot_zone_page_budget", spy)
    part.collect_zone(zone, MIGRATION)
    assert seen == sorted(seen) and seen[-1] > 0


# -------------------------------------------------------- hot-zone eviction


def _hot_zone_of_unpromoted(monkeypatch, n=96):
    """A hot zone of ``n`` 128 B-slot objects, none promoted: promoted by
    the capacity tier, then updated in place (which clears the label)."""
    device = make_device()
    part = make_partition(device, initial_zones_per_partition=4)
    keys = [encode_key(i * 997) for i in range(n)]
    for s, key in enumerate(keys):
        part.promote(Record(key, b"p" * 100, s + 1))
    for s, key in enumerate(keys):
        part.put(Record(key, b"u" * 100, n + s + 1))
    assert part.hot_zone.total_pages() == 3  # 32 slots per page
    assert not any(part.index.get(k).promoted for k in keys)
    hot_keys(monkeypatch, part, set())
    return device, part, keys


def test_eviction_relocates_just_enough_with_one_write_per_page(monkeypatch):
    device, part, keys = _hot_zone_of_unpromoted(monkeypatch)
    monkeypatch.setattr(part, "_hot_zone_page_budget", lambda vacated=0: 2)
    writes = device.traffic.write_ios(MIGRATION)
    part._evict_hot_zone_if_needed(MIGRATION)
    # FIFO: the oldest page's 32 objects leave, and the scan stops there.
    moved = keys[:32]
    assert part.hot_zone.total_pages() == 2
    assert list(part.hot_zone.keys) == keys[32:]
    pages = set()
    for key in moved:
        loc = part.index.get(key)
        assert loc.zone_id == part.zone_for_key(key).zone_id
        pages.add(loc.page_id)
    assert device.traffic.write_ios(MIGRATION) - writes == len(pages) < len(moved)
    assert_reads_back(part, keys, {key: b"u" * 100 for key in keys})


def test_eviction_write_failure_rolls_back(monkeypatch):
    device, part, keys = _hot_zone_of_unpromoted(monkeypatch)
    monkeypatch.setattr(part, "_hot_zone_page_budget", lambda vacated=0: 2)
    allocated = device.allocated_pages
    fail_page_write(device, 2)
    with pytest.raises(TransientIOError):
        part._evict_hot_zone_if_needed(MIGRATION)
    assert sorted(part.hot_zone.keys) == sorted(keys)
    assert all(part.index.get(k).zone_id == part.hot_zone.zone_id for k in keys)
    assert device.allocated_pages == allocated
    assert_reads_back(part, keys, {key: b"u" * 100 for key in keys})


# ------------------------------------------------------ PageStore.write_spans


def _store(plan):
    device = make_device(1, plan)
    store = PageStore(device)
    return device, store


def test_write_spans_draws_flips_once_per_page():
    # Each page's spans see the flips one write of their concatenation
    # would: same draws, same positions, same counts.
    plan = FaultPlan(seed=5, latent_bitflip_rate=0.5)
    payloads = [bytes([65 + i]) * 100 for i in range(3)]
    spans = [(0, payloads[0]), (200, payloads[1]), (1000, payloads[2])]
    split_dev, split = _store(plan)
    whole_dev, whole = _store(plan)
    for _ in range(8):
        (a,) = split.allocate()
        (b,) = whole.allocate()
        split.write_spans(a, spans, GC)
        whole.write(b, 0, b"".join(payloads), GC)
        landed = whole.peek(b, 0, 300)
        assert split.peek(a, 0, 100) == landed[:100]
        assert split.peek(a, 200, 100) == landed[100:200]
        assert split.peek(a, 1000, 100) == landed[200:]
    for attr in ("latent_bitflips", "write_ios"):
        assert getattr(split_dev.injector, attr) == getattr(whole_dev.injector, attr)
    assert split_dev.injector.latent_bitflips > 0
    assert split_dev.injector.write_ios == 8  # one command per page


def test_write_spans_torn_prefix_spans_two_slots():
    device, store = _store(FaultPlan(seed=0, crash_after_write_io=1))
    (pid,) = store.allocate()
    first, second = b"A" * 100, b"B" * 100
    with pytest.raises(PowerLossError) as err:
        store.write_spans(pid, [(0, first), (128, second)], GC)
    keep = int(200 * err.value.torn_fraction)
    assert 100 < keep < 200  # the prefix ends inside the second slot
    assert store.peek(pid, 0, 100) == first
    assert store.peek(pid, 128, 100) == second[: keep - 100] + bytes(200 - keep)
