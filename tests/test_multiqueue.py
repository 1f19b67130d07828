"""Multi-queue service model: routing, ledgers, health, and isolation.

Covers the queue-granular half of the simulated-SSD contract:

* :class:`QueueConfig` validation and the static lane routing;
* per-queue busy ledgers that always decompose the device totals and
  merge exactly across shards;
* single-queue devices (explicit ``QueueConfig(1)`` or no config at all)
  produce bit-identical ledgers — the digest-compatibility invariant;
* queue-targeted health windows surcharge / reject only I/O routed to
  that queue, and never skip a charge;
* end-to-end queue isolation on both engines: foreground lanes never
  appear on background queues and vice versa.
"""

import pytest

from repro.bench.context import BenchScale, build_store
from repro.common.errors import DeviceOfflineError
from repro.common.keys import encode_key
from repro.health.state import HealthState, HealthWindow, resolve_queue_health
from repro.simssd.device import SimDevice
from repro.simssd.faults import FaultInjector, FaultPlan
from repro.simssd.profiles import DeviceProfile
from repro.simssd.queues import (
    FOREGROUND_QUEUE_KINDS,
    QueueConfig,
    default_routing,
)
from repro.simssd.traffic import TrafficKind, TrafficStats

KiB = 1024
MiB = 1024 * KiB

_PROFILE = DeviceProfile(
    name="nvme",
    capacity_bytes=8 * MiB,
    page_size=4096,
    read_latency_s=1e-4,
    write_latency_s=2e-5,
    read_bandwidth=2e9,
    write_bandwidth=1e9,
)

BACKGROUND_KINDS = tuple(
    k for k in TrafficKind if k not in FOREGROUND_QUEUE_KINDS
)


def _device(queue_count=4, injector=None):
    return SimDevice(
        _PROFILE, injector=injector, queues=QueueConfig(queue_count=queue_count)
    )


class TestQueueConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QueueConfig(queue_count=0)
        with pytest.raises(ValueError):
            QueueConfig(queue_depth=0)

    def test_default_routing_partitions_lanes(self):
        single = default_routing(1)
        assert all(routes == (0,) for routes in single.values())
        multi = default_routing(4)
        for kind in FOREGROUND_QUEUE_KINDS:
            assert multi[kind] == (0,)
        for kind in BACKGROUND_KINDS:
            assert multi[kind] == (1, 2, 3)


class TestQueueLedgers:
    def test_queue_busy_decomposes_device_busy(self):
        t = TrafficStats(queue_count=3)
        t.note_read(TrafficKind.FOREGROUND, 4096, 1, 0.01, 0.002, queue=0)
        t.note_write(TrafficKind.COMPACTION, 8192, 2, 0.03, 0.004, queue=1)
        t.note_write(TrafficKind.MIGRATION, 4096, 1, 0.05, 0.006, queue=2)
        per_queue = t.queue_busy_seconds()
        assert len(per_queue) == 3
        assert sum(per_queue) == pytest.approx(t.busy_seconds())
        assert per_queue[0] == pytest.approx(0.012)
        assert per_queue[1] == pytest.approx(0.034)
        assert per_queue[2] == pytest.approx(0.056)

    def test_queue_snapshot_matches_device_lanes(self):
        t = TrafficStats(queue_count=2)
        t.note_read(TrafficKind.FOREGROUND, 4096, 1, 0.01, 0.002, queue=0)
        t.note_write(TrafficKind.GC, 8192, 2, 0.03, 0.004, queue=1)
        snaps = t.queue_snapshot()
        assert len(snaps) == 2
        total = t.snapshot()
        for lane_name in total:
            for field in total[lane_name]:
                assert sum(s[lane_name][field] for s in snaps) == pytest.approx(
                    total[lane_name][field]
                )

    def test_single_queue_views_collapse(self):
        t = TrafficStats()
        t.note_write(TrafficKind.WAL, 4096, 1, 0.01, 0.002)
        assert t.queue_busy_seconds() == [t.busy_seconds()]
        assert t.queue_snapshot() == [t.snapshot()]

    def test_reset_clears_queue_ledgers(self):
        t = TrafficStats(queue_count=2)
        t.note_write(TrafficKind.FLUSH, 4096, 1, 0.01, 0.002, queue=1)
        t.reset()
        assert t.queue_busy_seconds() == [0.0, 0.0]
        assert t.busy_seconds() == 0.0


class TestRoutingAndPlacement:
    def test_foreground_lanes_pinned_to_queue_zero(self):
        dev = _device(4)
        for kind in FOREGROUND_QUEUE_KINDS:
            assert dev.queue_of(kind) == 0
            assert dev.begin_background_job(kind) == 0  # no-op for fg lanes
            assert dev.queue_of(kind) == 0

    def test_background_jobs_spread_to_least_busy_queue(self):
        dev = _device(4)
        # First compaction job lands on the first background queue...
        assert dev.begin_background_job(TrafficKind.COMPACTION) == 1
        dev.write_pages(64, TrafficKind.COMPACTION)
        # ...so the next background job (any kind) avoids it.
        assert dev.begin_background_job(TrafficKind.MIGRATION) == 2
        dev.write_pages(64, TrafficKind.MIGRATION)
        assert dev.begin_background_job(TrafficKind.GC) == 3
        dev.write_pages(64, TrafficKind.GC)
        # All queues busy: the least-busy wins, ties break to lowest index.
        assert dev.begin_background_job(TrafficKind.COMPACTION) in (1, 2, 3)

    def test_single_queue_placement_is_noop(self):
        dev = SimDevice(_PROFILE)
        assert dev.begin_background_job(TrafficKind.COMPACTION) == 0
        dev = SimDevice(_PROFILE, queues=QueueConfig(queue_count=1))
        assert dev.begin_background_job(TrafficKind.MIGRATION) == 0

    def test_charges_land_on_routed_queue(self):
        dev = _device(3)
        dev.write_pages(8, TrafficKind.FOREGROUND)
        q = dev.begin_background_job(TrafficKind.COMPACTION)
        dev.write_pages(8, TrafficKind.COMPACTION)
        per_queue = dev.traffic.queue_busy_seconds()
        assert per_queue[0] > 0 and per_queue[q] > 0
        snaps = dev.traffic.queue_snapshot()
        assert snaps[q]["compaction"]["write_bytes"] == 8 * 4096
        assert snaps[0]["compaction"]["write_bytes"] == 0


class TestSingleQueueIdentity:
    """``queue_count=1`` must reproduce the classic model bit for bit."""

    def _drive(self, dev):
        dev.write_pages(16, TrafficKind.FOREGROUND)
        dev.read_pages(4, TrafficKind.FOREGROUND)
        dev.write_bytes_io(5000, TrafficKind.WAL)
        dev.begin_background_job(TrafficKind.COMPACTION)
        dev.write_pages(64, TrafficKind.COMPACTION, sequential=True)
        dev.read_pages_batch([3, 1, 2], TrafficKind.MIGRATION)
        dev.write_pages_batch([5, 0, 7], TrafficKind.FLUSH)
        return dev.traffic

    def test_explicit_single_queue_config_is_bit_identical(self):
        classic = self._drive(SimDevice(_PROFILE))
        single = self._drive(SimDevice(_PROFILE, queues=QueueConfig(1)))
        # Exact equality — not approx — is the digest contract.
        assert single.snapshot() == classic.snapshot()
        assert single.busy_seconds() == classic.busy_seconds()

    def test_multi_queue_conserves_totals(self):
        # Routing splits charges across queues but never changes the
        # device-level ledger.
        classic = self._drive(SimDevice(_PROFILE))
        multi = self._drive(_device(4))
        assert multi.snapshot() == classic.snapshot()
        assert sum(multi.queue_busy_seconds()) == pytest.approx(
            multi.busy_seconds()
        )


class TestQueueHealth:
    def _injector(self, *windows):
        return FaultInjector(FaultPlan(health_windows=tuple(windows)))

    def test_resolve_queue_health_scopes_by_queue(self):
        w = HealthWindow(
            device="nvme", state=HealthState.BROWNOUT, start_io=1,
            end_io=100, latency_multiplier=4.0, queue=1,
        )
        assert resolve_queue_health((w,), "nvme", 1, 10) == (
            HealthState.BROWNOUT, 4.0,
        )
        assert resolve_queue_health((w,), "nvme", 0, 10) == (
            HealthState.HEALTHY, 1.0,
        )
        assert resolve_queue_health((w,), "nvme", 1, 500) == (
            HealthState.HEALTHY, 1.0,
        )
        assert resolve_queue_health((w,), "sata", 1, 10) == (
            HealthState.HEALTHY, 1.0,
        )

    def test_queue_brownout_surcharges_only_that_queue(self):
        window = HealthWindow(
            device="nvme", state=HealthState.BROWNOUT, start_io=1,
            end_io=1 << 40, latency_multiplier=8.0, queue=1,
        )
        guarded = _device(4, injector=self._injector(window))
        plain = _device(4, injector=FaultInjector(FaultPlan()))
        for dev in (guarded, plain):
            dev.write_pages(8, TrafficKind.FOREGROUND)
            dev.begin_background_job(TrafficKind.COMPACTION)
            dev.write_pages(8, TrafficKind.COMPACTION)
        gq = guarded.traffic.queue_busy_seconds()
        pq = plain.traffic.queue_busy_seconds()
        # Background charges never inflate the foreground queue...
        assert gq[0] == pq[0]
        # ...while the guarded background queue is surcharged 8x.
        assert gq[1] == pytest.approx(pq[1] * 8.0)
        assert guarded.brownout_ios > 0

    def test_guarded_queue_never_skips_charges(self):
        window = HealthWindow(
            device="nvme", state=HealthState.BROWNOUT, start_io=1,
            end_io=1 << 40, latency_multiplier=6.0, queue=2,
        )
        guarded = _device(4, injector=self._injector(window))
        plain = _device(4, injector=FaultInjector(FaultPlan()))
        for dev in (guarded, plain):
            for _ in range(5):
                dev.begin_background_job(TrafficKind.MIGRATION)
                dev.write_pages(4, TrafficKind.MIGRATION)
                dev.read_pages(2, TrafficKind.MIGRATION)
        gs, ps = guarded.traffic.snapshot(), plain.traffic.snapshot()
        # Every I/O and byte is still charged — brownouts surcharge, they
        # never drop work.
        assert gs["migration"]["write_ios"] == ps["migration"]["write_ios"]
        assert gs["migration"]["read_ios"] == ps["migration"]["read_ios"]
        assert gs["migration"]["write_bytes"] == ps["migration"]["write_bytes"]
        assert guarded.traffic.busy_seconds() > plain.traffic.busy_seconds()

    def test_queue_offline_rejects_only_that_queue(self):
        window = HealthWindow(
            device="nvme", state=HealthState.OFFLINE, start_io=1,
            end_io=1 << 40, queue=1,
        )
        dev = _device(2, injector=self._injector(window))
        # Foreground (queue 0) proceeds untouched...
        assert dev.write_pages(8, TrafficKind.FOREGROUND) > 0
        # ...while the only background queue rejects without charging.
        before = dev.traffic.busy_seconds()
        with pytest.raises(DeviceOfflineError):
            dev.write_pages(8, TrafficKind.COMPACTION)
        assert dev.traffic.busy_seconds() == before
        assert dev.offline_rejections == 1
        # Device-wide health is a pure peek and stays HEALTHY: the outage
        # is queue-granular, not a whole-device loss.
        assert dev.health() is HealthState.HEALTHY

    def test_queue_and_device_windows_compose(self):
        queue_w = HealthWindow(
            device="nvme", state=HealthState.BROWNOUT, start_io=1,
            end_io=1 << 40, latency_multiplier=3.0, queue=1,
        )
        device_w = HealthWindow(
            device="nvme", state=HealthState.BROWNOUT, start_io=1,
            end_io=1 << 40, latency_multiplier=2.0,
        )
        both = _device(2, injector=self._injector(queue_w, device_w))
        plain = _device(2, injector=FaultInjector(FaultPlan()))
        for dev in (both, plain):
            dev.begin_background_job(TrafficKind.GC)
            dev.write_pages(8, TrafficKind.GC)
        assert both.traffic.busy_seconds() == pytest.approx(
            plain.traffic.busy_seconds() * 6.0
        )


class TestEngineQueueIsolation:
    """End to end: foreground and background lanes never share a queue."""

    def _soak(self, engine_name):
        # Sized so the dataset overflows the 512 KiB NVMe capacity floor:
        # demotion/migration must actually run for the background-queue
        # assertions to be non-vacuous.
        scale = BenchScale(
            record_count=4_000, operations=4_000, nvme_ratio=0.35,
            queue_count=4,
        )
        store = build_store(engine_name, scale)
        val = b"x" * 128
        for i in range(scale.record_count):
            store.put(encode_key(i), val)
        for i in range(0, scale.record_count, 3):
            store.get(encode_key(i))
        return store

    @pytest.mark.parametrize("engine", ["hyperdb", "prismdb"])
    def test_foreground_queue_carries_only_foreground_lanes(self, engine):
        store = self._soak(engine)
        saw_background = False
        for name, dev in store.devices().items():
            assert dev.queue_count == 4
            snaps = dev.traffic.queue_snapshot()
            for kind in BACKGROUND_KINDS:
                # Idle lanes (e.g. scrub when no scrubber ran) are omitted
                # from snapshots entirely; absent means zero traffic.
                lane = snaps[0].get(kind.value, {})
                assert all(v == 0 for v in lane.values()), (
                    f"{name}: background lane {kind.value} leaked onto the "
                    f"foreground queue"
                )
            for q in range(1, 4):
                for kind in FOREGROUND_QUEUE_KINDS:
                    lane = snaps[q][kind.value]
                    assert all(v == 0 for v in lane.values()), (
                        f"{name}: foreground lane {kind.value} leaked onto "
                        f"background queue {q}"
                    )
            for q in range(1, 4):
                if any(
                    any(v != 0 for v in snaps[q].get(k.value, {}).values())
                    for k in BACKGROUND_KINDS
                ):
                    saw_background = True
            # The per-queue ledgers decompose the device ledger exactly.
            assert sum(dev.traffic.queue_busy_seconds()) == pytest.approx(
                dev.busy_seconds()
            )
        # The soak is sized to trigger real background work (flush +
        # migration); an all-idle background tier would vacuously pass.
        assert saw_background
