"""Every NVMe slot write is one sequence: stage, write each page once, account.

A put, an in-place update, a resize (its tombstone included) and a
promotion all go through :meth:`repro.nvme.zone.SlotTable.write`, on a
partition and on PrismDB's slabs alike, and on the whole PrismDB-like store
(whose put reaches its slabs).  These tests pin what each kind of slot write
charges and where its bytes land, and that a write which fails -- for want
of room or in its page write -- frees what it staged and leaves the old
location indexed and allocated.
"""

import pytest

from repro.baselines.prismdb import PrismDBStore, _SlabStore
from repro.common.errors import OutOfSpaceError, TransientIOError
from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.lsm.blocks import encode_record
from repro.nvme import NVMeConfig, PerformanceTier
from repro.simssd import (
    DeviceProfile,
    FaultInjector,
    FaultPlan,
    SimDevice,
    TrafficKind,
)
from tests.test_zone_relocation import fail_page_write

FG = TrafficKind.FOREGROUND
MIGRATION = TrafficKind.MIGRATION
ENGINES = ("partition", "prismdb", "prismdb_store")
K, N, M, O = (encode_key(i) for i in (10, 11, 12, 13))


def make_device(pages):
    profile = DeviceProfile(
        name="nvme",
        capacity_bytes=pages * 4096,
        page_size=4096,
        read_latency_s=8e-5,
        write_latency_s=2e-5,
        read_bandwidth=6.5e9,
        write_bandwidth=3.5e9,
    )
    return SimDevice(profile, injector=FaultInjector(FaultPlan()))


class Engine:
    """A partition, PrismDB's slab store or the whole PrismDB-like store,
    behind the calls these tests make; ``store`` is the slot table."""

    def __init__(self, name, pages=64):
        self.device = make_device(pages)
        self.db = None
        if name == "partition":
            tier = PerformanceTier(
                self.device,
                KeyRange(encode_key(0), encode_key(1000)),
                NVMeConfig(num_partitions=1, initial_zones_per_partition=1),
            )
            self.store = tier.partitions[0]
        elif name == "prismdb":
            self.store = _SlabStore(self.device, NVMeConfig())
        else:
            self.db = PrismDBStore(self.device, make_device(1024))
            self.store = self.db.slabs
        self.name = name

    def put(self, key, value, seqno):
        if self.db is None:
            self.store.put(Record(key, value, seqno))
        else:  # the store numbers its own writes, as the byte checks do
            self.db.put(key, value)

    def promote(self, key, value, seqno):
        rec = Record(key, value, seqno)
        if self.name == "partition":
            self.store.promote(rec)
        else:  # PrismDB promotes by a MIGRATION put into its slabs
            self.store.put(rec, MIGRATION)

    def value(self, key):
        rec, _ = self.store.get(key)
        return rec.value

    def loc(self, key):
        return self.store.index.get(key)

    def zones(self):
        if self.name == "partition":
            return [self.store.hot_zone] + self.store.zones()
        return list(self.store._slabs.values())

    def state(self):
        """Everything a slot write may change: the index, each zone's keys
        in order, the bytes, slots and pages the zones hold, the device's
        pages."""
        zones = self.zones()
        return (
            list(self.store.index.items()),
            {z.zone_id: list(z.keys) for z in zones if z.keys},
            sum(z.used_bytes for z in zones),
            sum(p.used for z in zones for p in z._pages.values()),
            sum(z.total_pages() for z in zones),
            self.device.allocated_pages,
        )


def tombstone_marker(loc):
    return encode_record(Record.tombstone(b"", loc.seqno))[: loc.slot_size]


def slot_bytes(engine, loc):
    return engine.store.page_store.peek(loc.page_id, loc.offset, loc.record_size)


# ------------------------------------------------------------ what it charges


@pytest.mark.parametrize("name", ENGINES)
def test_fresh_put_is_one_command(name):
    e = Engine(name)
    traffic = e.device.traffic
    e.put(K, b"k" * 20, 1)
    assert (traffic.write_ios(FG), traffic.write_bytes(FG)) == (1, 4096)
    assert traffic.write_ios() == 1
    assert slot_bytes(e, e.loc(K)) == encode_record(Record(K, b"k" * 20, 1))


@pytest.mark.parametrize("name", ENGINES)
def test_in_place_update_is_one_command_on_its_slot(name):
    e = Engine(name)
    e.put(K, b"k" * 20, 1)
    before = e.loc(K)
    traffic = e.device.traffic
    traffic.reset()
    e.put(K, b"K" * 30, 2)
    after = e.loc(K)
    assert (traffic.write_ios(FG), traffic.write_bytes(FG)) == (1, 4096)
    assert (after.page_id, after.slot_index) == (before.page_id, before.slot_index)
    assert after.record_size == before.record_size + 10
    assert slot_bytes(e, after) == encode_record(Record(K, b"K" * 30, 2))


@pytest.mark.parametrize("name", ENGINES)
def test_resize_writes_tombstone_then_new_slot(name, monkeypatch):
    e = Engine(name)
    e.put(K, b"k" * 20, 1)
    e.put(N, b"n" * 20, 2)  # a neighbour keeps the old slot's page alive
    old = e.loc(K)
    marker = tombstone_marker(old)
    store, device = e.store.page_store, e.device
    seen = []  # the old slot's bytes as each write command starts
    real = device.write_pages

    def spy(npages, kind, sequential=False):
        seen.append(store.peek(old.page_id, old.offset, len(marker)))
        return real(npages, kind, sequential=sequential)

    monkeypatch.setattr(device, "write_pages", spy)
    device.traffic.reset()
    e.put(K, b"K" * 900, 3)
    new = e.loc(K)
    assert (device.traffic.write_ios(FG), device.traffic.write_bytes(FG)) == (2, 8192)
    # The tombstone page is written first: the second command already
    # finds the marker in the old slot.
    assert seen == [encode_record(Record(K, b"k" * 20, 1))[: len(marker)], marker]
    assert store.peek(old.page_id, old.offset, len(marker)) == marker
    assert new.page_id != old.page_id and new.slot_size == 1024
    assert slot_bytes(e, new) == encode_record(Record(K, b"K" * 900, 3))
    assert e.value(N) == b"n" * 20


@pytest.mark.parametrize("name", ENGINES)
def test_promotion_is_one_migration_command(name):
    e = Engine(name)
    traffic = e.device.traffic
    e.promote(K, b"k" * 20, 1)
    assert (traffic.write_ios(MIGRATION), traffic.write_bytes(MIGRATION)) == (1, 4096)
    assert traffic.write_ios() == 1
    assert slot_bytes(e, e.loc(K)) == encode_record(Record(K, b"k" * 20, 1))
    assert e.loc(K).promoted == (name == "partition")


# ------------------------------------------------------------ when it fails


@pytest.mark.parametrize("name", ENGINES)
def test_failed_resize_keeps_the_old_slot(name):
    # No room for the resized object's slot: the put fails before any write,
    # and the old slot stays the key's, allocated and intact -- so no later
    # put can land on it and no neighbour pays for it.
    e = Engine(name)
    e.put(K, b"k" * 20, 1)
    e.put(N, b"n" * 20, 2)  # shares K's 64 B slot page
    store = e.store.page_store
    filler = store.allocate(e.device.free_pages)
    before = e.state()
    with pytest.raises(OutOfSpaceError):
        e.put(K, b"K" * 900, 3)
    assert e.state() == before
    assert e.value(K) == b"k" * 20
    store.free(filler.pop())
    e.put(M, b"m" * 20, 4)
    e.put(O, b"o" * 20, 5)
    for key, value in ((K, b"k"), (N, b"n"), (M, b"m"), (O, b"o")):
        assert e.value(key) == value * 20, key


def fresh_put(e):
    e.put(K, b"k" * 20, 1)


def in_place_update(e):
    e.put(K, b"K" * 30, 2)


def resize(e):
    e.put(K, b"K" * 900, 2)


def promotion(e):
    e.promote(M, b"m" * 20, 3)


@pytest.mark.parametrize("name", ENGINES)
@pytest.mark.parametrize(
    "write, existing, failing_command",
    [
        (fresh_put, False, 1),
        (in_place_update, True, 1),
        (resize, True, 2),  # the tombstone lands; the new slot's page fails
        (promotion, False, 1),
    ],
)
def test_failed_page_write_frees_what_it_staged(name, write, existing, failing_command):
    e = Engine(name)
    e.put(N, b"n" * 20, 1)
    if existing:
        e.put(K, b"k" * 20, 1)
    before = e.state()
    fail_page_write(e.device, failing_command)
    with pytest.raises(TransientIOError):
        write(e)
    assert e.state() == before
    assert e.value(N) == b"n" * 20
