"""Every NVMe slot write is one sequence: stage, hand the batch over, account.

A put, an in-place update, a resize (its tombstone included) and a
promotion all go through :meth:`repro.nvme.zone.SlotTable.write`, on a
partition and on PrismDB's slabs alike, and on the whole PrismDB-like store
(whose put reaches its slabs).  A foreground write joins the page store's
write window, which writes each page it holds with one command every
:data:`repro.lsm.wal.GROUP` foreground writes; any other write is written
through.  These tests pin what each kind of slot write charges and where
its bytes land, what the window charges and when, that reads never commit
it (a slot it holds is served from it, another slot of its pages is read
through the DRAM cache, which holds only media bytes), that a demotion
ships its bytes, that a failed commit keeps it, that an NVMe outage loses
none of it, and that a written-through write which fails -- for want of
room or in its page write -- frees what it staged and leaves the old
location indexed and allocated.
"""

import pytest

from repro.baselines.prismdb import PrismDBStore, _SlabStore
from repro.common.cache import LRUCache
from repro.common.errors import (
    CorruptionError,
    DeviceOfflineError,
    OutOfSpaceError,
    TransientIOError,
)
from repro.common.keys import KeyRange, encode_key
from repro.common.records import Record
from repro.health.state import HealthState, HealthWindow
from repro.lsm.blocks import encode_record, entry_of
from repro.lsm.wal import GROUP
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


def make_device(pages, injector=None, name="nvme"):
    profile = DeviceProfile(
        name=name,
        capacity_bytes=pages * 4096,
        page_size=4096,
        read_latency_s=8e-5,
        write_latency_s=2e-5,
        read_bandwidth=6.5e9,
        write_bandwidth=3.5e9,
    )
    return SimDevice(profile, injector=injector or FaultInjector(FaultPlan()))


class Engine:
    """A partition, PrismDB's slab store or the whole PrismDB-like store,
    behind the calls these tests make; ``store`` is the slot table.  Its
    NVMe device shares one injector, and so one I/O clock, with ``sata``.
    With ``cached`` the slot table reads through a DRAM page cache (the
    whole store always has its own)."""

    def __init__(self, name, pages=64, windows=(), cached=False):
        injector = FaultInjector(FaultPlan(health_windows=tuple(windows)))
        self.device = make_device(pages, injector)
        self.sata = make_device(1024, injector, name="sata")
        self.db = None
        cache = LRUCache(1 << 20) if cached else None
        if name == "partition":
            tier = PerformanceTier(
                self.device,
                KeyRange(encode_key(0), encode_key(1000)),
                NVMeConfig(num_partitions=1, initial_zones_per_partition=1),
                cache=cache,
            )
            self.store = tier.partitions[0]
        elif name == "prismdb":
            self.store = _SlabStore(self.device, NVMeConfig(), cache=cache)
        else:
            self.db = PrismDBStore(self.device, self.sata)
            self.store = self.db.slabs
        self.name = name

    def put(self, key, value, seqno, kind=FG):
        """The write's returned service time."""
        if self.db is None or kind is not FG:
            return self.store.put(Record(key, value, seqno), kind)
        # The store numbers its own writes, as the byte checks do.
        return self.db.put(key, value)

    def promote(self, key, value, seqno):
        rec = Record(key, value, seqno)
        if self.name == "partition":
            self.store.promote(rec)
        else:  # PrismDB promotes by a MIGRATION put into its slabs
            self.store.put(rec, MIGRATION)

    def commit(self):
        return self.store.page_store.commit()

    def window(self):
        return self.store.page_store._window

    def held(self):
        """A copy of the window: each held page's spans."""
        return {pid: list(spans) for pid, spans in self.window().items()}

    def demote(self, keys):
        """Demote ``keys`` (one whole zone's, on a partition) through an
        ingest that only keeps what it is given; the shipped entries."""
        shipped = []

        def ingest(entries, kind):
            shipped.extend(entries)
            return 0.0

        victim = keys
        if self.name == "partition":
            (victim,) = [z for z in self.store.zones() if z.keys]
            assert sorted(victim.keys) == sorted(keys)
        self.store.collect_zone(victim, ingest)
        return shipped

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


def on_media(engine, loc):
    """The slot's bytes as the media holds them, without committing."""
    page = engine.store.page_store._pages[loc.page_id]
    return bytes(page[loc.offset : loc.offset + loc.record_size])


# ------------------------------------------------------------ what it charges


@pytest.mark.parametrize("name", ENGINES)
def test_fresh_put_is_one_command(name):
    e = Engine(name)
    traffic = e.device.traffic
    assert e.put(K, b"k" * 20, 1) == 0.0
    assert traffic.write_ios() == 0  # held by the window
    e.commit()
    assert (traffic.write_ios(FG), traffic.write_bytes(FG)) == (1, 4096)
    assert traffic.write_ios() == 1
    assert slot_bytes(e, e.loc(K)) == encode_record(Record(K, b"k" * 20, 1))


@pytest.mark.parametrize("name", ENGINES)
def test_in_place_update_is_one_command_on_its_slot(name):
    e = Engine(name)
    e.put(K, b"k" * 20, 1)
    e.commit()
    before = e.loc(K)
    traffic = e.device.traffic
    traffic.reset()
    e.put(K, b"K" * 30, 2)
    after = e.loc(K)
    assert traffic.write_ios() == 0
    e.commit()
    assert (traffic.write_ios(FG), traffic.write_bytes(FG)) == (1, 4096)
    assert (after.page_id, after.slot_index) == (before.page_id, before.slot_index)
    assert after.record_size == before.record_size + 10
    assert slot_bytes(e, after) == encode_record(Record(K, b"K" * 30, 2))


@pytest.mark.parametrize("name", ENGINES)
def test_resize_writes_tombstone_then_new_slot(name, monkeypatch):
    e = Engine(name)
    e.put(K, b"k" * 20, 1)
    e.put(N, b"n" * 20, 2)  # a neighbour keeps the old slot's page alive
    e.commit()
    old = e.loc(K)
    marker = tombstone_marker(old)
    store, device = e.store.page_store, e.device
    seen = []  # the old slot's bytes as each write command starts
    real = device.write_pages

    def spy(npages, kind, sequential=False):
        seen.append(bytes(store._pages[old.page_id][old.offset : old.offset + len(marker)]))
        return real(npages, kind, sequential=sequential)

    monkeypatch.setattr(device, "write_pages", spy)
    device.traffic.reset()
    e.put(K, b"K" * 900, 3)
    assert seen == []
    e.commit()
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


# ------------------------------------------------------------ the window

#: Value sizes that spread one window over three slot classes' pages.
SIZES = (20, 200, 900)


def window_value(i):
    return bytes([65 + i % 26]) * SIZES[i % 3]


def window_puts(e, count, first=0):
    """Fresh puts of keys ``first`` .. ``first + count - 1``; their
    returned services."""
    return [
        e.put(encode_key(i), window_value(i), i + 1) for i in range(first, first + count)
    ]


@pytest.mark.parametrize("name", ENGINES)
def test_window_commits_every_group_puts(name):
    # 31 puts charge nothing; the 32nd writes each page they touched once,
    # with one command, and pays for all of them.
    e = Engine(name)
    traffic = e.device.traffic
    assert window_puts(e, GROUP - 1) == [0.0] * (GROUP - 1)
    assert traffic.write_ios() == 0 and traffic.read_ios() == 0
    (service,) = window_puts(e, 1, first=GROUP - 1)
    pages = {e.loc(encode_key(i)).page_id for i in range(GROUP)}
    assert len(pages) > 2
    assert (traffic.write_ios(FG), traffic.write_bytes(FG)) == (len(pages), 4096 * len(pages))
    assert traffic.write_ios() == len(pages)
    assert service == pytest.approx(e.device.busy_seconds())
    assert e.window() == {}
    for i in range(GROUP):
        loc = e.loc(encode_key(i))
        assert on_media(e, loc) == encode_record(Record(encode_key(i), window_value(i), i + 1))
    # The next window starts empty: another 31 puts charge nothing.
    assert window_puts(e, GROUP - 1, first=GROUP) == [0.0] * (GROUP - 1)
    assert traffic.write_ios() == len(pages)


def held_update(e, cached=False):
    """K and N share a committed page; K's in-place update is then held by
    the window.  K's slot."""
    e.put(K, b"k" * 20, 1)
    e.put(N, b"n" * 20, 2)
    e.commit()
    e.put(K, b"K" * 20, 3)
    loc = e.loc(K)
    assert loc.page_id == e.loc(N).page_id and loc.page_id in e.window()
    assert on_media(e, loc) == encode_record(Record(K, b"k" * 20, 1))
    return loc


@pytest.mark.parametrize("name", ENGINES)
def test_read_of_a_held_slot_is_served_from_the_window(name):
    e = Engine(name)
    loc = held_update(e)
    held = e.held()
    traffic = e.device.traffic
    traffic.reset()
    rec, service = e.store.get(K)
    assert rec.value == b"K" * 20
    assert service == 0.0
    assert (traffic.read_ios(), traffic.write_ios()) == (0, 0)
    assert e.held() == held
    assert on_media(e, loc) == encode_record(Record(K, b"k" * 20, 1))


@pytest.mark.parametrize("name", ENGINES)
def test_read_of_another_slot_on_a_held_page_is_one_read(name):
    e = Engine(name)
    held_update(e)
    held = e.held()
    traffic = e.device.traffic
    traffic.reset()
    rec, service = e.store.get(N)
    assert rec.value == b"n" * 20
    assert (traffic.read_ios(FG), traffic.read_ios(), traffic.write_ios()) == (1, 1, 0)
    assert service == pytest.approx(e.device.busy_seconds())
    assert e.held() == held


@pytest.mark.parametrize("name", ENGINES)
def test_held_page_never_enters_the_cache(name):
    # The window's bytes never enter the DRAM cache; the page's media copy
    # may, a foreground write leaves it there, and a commit drops it.
    e = Engine(name, cached=True)
    loc = held_update(e)
    cache, pages = e.store.page_store.cache, e.store.page_store._pages
    traffic = e.device.traffic
    traffic.reset()
    assert e.value(K) == b"K" * 20  # from the window
    assert loc.page_id not in cache
    assert e.value(N) == b"n" * 20  # a miss: one device read
    assert cache.peek(loc.page_id) == bytes(pages[loc.page_id])
    assert e.value(N) == b"n" * 20  # a hit, the window laid over it
    assert traffic.read_ios() == 1
    e.put(K, b"Q" * 20, 4)
    assert loc.page_id in e.window() and loc.page_id in cache
    assert e.value(K) == b"Q" * 20 and e.value(N) == b"n" * 20
    assert traffic.read_ios() == 1
    e.commit()
    assert loc.page_id not in cache
    assert e.value(N) == b"n" * 20
    assert cache.peek(loc.page_id) == bytes(pages[loc.page_id])
    assert e.value(K) == b"Q" * 20
    assert traffic.read_ios() == 2  # the last read hit the cache


@pytest.mark.parametrize("name", ENGINES)
def test_demotion_of_held_pages_ships_the_windows_bytes(name):
    e = Engine(name)
    loc = held_update(e)
    traffic = e.device.traffic
    traffic.reset()
    shipped = e.demote([K, N])
    assert traffic.write_ios() == 0  # nothing committed
    assert [(entry[0], entry[1]) for entry in shipped] == [(K, 3), (N, 2)]
    assert dict((entry[0], entry) for entry in shipped)[K] == entry_of(
        Record(K, b"K" * 20, 3)
    )
    assert e.loc(K) is None and e.loc(N) is None
    assert loc.page_id not in e.window()  # freed with its pending bytes


@pytest.mark.parametrize("name", ENGINES)
def test_flip_landing_with_the_commit_is_caught_by_the_next_read(name, monkeypatch):
    # A window-served read sees the bytes as staged; once the commit lands
    # them with a flip, the next read goes to the media and fails its CRC.
    e = Engine(name)
    loc = held_update(e)
    injector = e.device.injector
    monkeypatch.setattr(
        injector, "corrupt_payload", lambda data, pages=None: bytes([data[0] ^ 1]) + data[1:]
    )
    assert e.value(K) == b"K" * 20
    e.commit()
    assert on_media(e, loc) != encode_record(Record(K, b"K" * 20, 3))
    traffic = e.device.traffic
    traffic.reset()
    with pytest.raises(CorruptionError):
        e.store.get(K)
    assert traffic.read_ios(FG) == 1


@pytest.mark.parametrize("name", ENGINES)
def test_failed_commit_keeps_the_window(name):
    # The GROUP-th put's commit fails: it raises, but every put of the
    # window stays indexed and held, and the next commit writes them all.
    e = Engine(name)
    window_puts(e, GROUP - 1)
    fail_page_write(e.device, 1)
    with pytest.raises(TransientIOError):
        window_puts(e, 1, first=GROUP - 1)
    keys = [encode_key(i) for i in range(GROUP)]
    pages = {e.loc(key).page_id for key in keys}
    assert set(e.window()) == pages
    e.device.injector = FaultInjector(FaultPlan())
    e.device.traffic.reset()
    e.commit()
    assert e.device.traffic.write_ios(FG) == len(pages)
    assert e.window() == {}
    for i, key in enumerate(keys):
        assert e.value(key) == window_value(i), key


def failover(e, key):
    """The NVMe side of a failover write of ``key``: the whole store writes
    it to SATA; a bare slot table only drops its resident copy."""
    if e.db is not None:
        e.db.put(key, b"failover")
    else:
        e.store.drop_resident(key)


@pytest.mark.parametrize("name", ENGINES)
def test_window_open_at_nvme_outage_loses_no_acked_write(name):
    # NVMe goes OFFLINE at the second I/O while the window holds three
    # acked puts; SATA I/O moves the shared clock through the outage.
    e = Engine(name, windows=[HealthWindow("nvme", HealthState.OFFLINE, 2, 12)])
    for i, key in enumerate((K, N, M)):
        e.put(key, b"%d" % i * 20, i + 1)
    e.sata.read_pages(1, FG)
    assert e.device.health() is HealthState.OFFLINE
    nvme_ios = (e.device.traffic.write_ios(), e.device.traffic.read_ios())
    failover(e, N)  # a key the window holds
    assert (e.device.traffic.write_ios(), e.device.traffic.read_ios()) == nvme_ios
    with pytest.raises(DeviceOfflineError):
        e.commit()
    assert e.loc(K) is not None and e.loc(N) is None
    while e.device.health() is not HealthState.HEALTHY:
        e.sata.read_pages(1, FG)
    assert e.value(K) == b"0" * 20
    assert e.value(M) == b"2" * 20
    # No read closes the window: it still holds the acked puts, and the
    # next commit writes them.
    pages = set(e.window())
    assert {e.loc(K).page_id, e.loc(M).page_id} <= pages
    e.device.traffic.reset()
    e.commit()
    assert e.device.traffic.write_ios(FG) == len(pages)
    assert e.window() == {}
    assert on_media(e, e.loc(K)) == encode_record(Record(K, b"0" * 20, 1))
    if e.db is not None:
        assert e.db.get(N)[0] == b"failover"
    else:
        assert e.store.get(N)[0] is None


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


# Each write below is written through (a non-foreground write, as a
# promotion is), so its own page write can fail.


def fresh_put(e):
    e.put(K, b"k" * 20, 1, MIGRATION)


def in_place_update(e):
    e.put(K, b"K" * 30, 2, MIGRATION)


def resize(e):
    e.put(K, b"K" * 900, 2, MIGRATION)


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
    e.commit()
    before = e.state()
    fail_page_write(e.device, failing_command)
    with pytest.raises(TransientIOError):
        write(e)
    assert e.state() == before
    assert e.value(N) == b"n" * 20
