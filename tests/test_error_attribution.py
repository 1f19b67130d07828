"""Tests for typed error attribution: retry-exhaustion metadata.

The retry test is the regression for the silent-exhaustion bug: the device
used to surface a bare ``TransientIOError`` that said nothing about how
hard it had tried, so callers could not distinguish "failed instantly"
from "failed after the full backoff schedule was charged".
"""

import pytest

from repro.common.errors import RetryExhaustedError, TransientIOError
from repro.simssd import (
    DeviceProfile,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    SimDevice,
    TrafficKind,
)

KiB = 1024
MiB = 1024 * KiB


def device(plan=None, retry=None, mib=8):
    profile = DeviceProfile(
        name="nvme",
        capacity_bytes=mib * MiB,
        page_size=4096,
        read_latency_s=8e-5,
        write_latency_s=2e-5,
        read_bandwidth=6.5e9,
        write_bandwidth=3.5e9,
    )
    injector = FaultInjector(plan) if plan is not None else None
    return SimDevice(profile, injector=injector, retry_policy=retry)


class TestRetryExhaustion:
    def test_write_exhaustion_reports_attempts_and_backoff(self):
        policy = RetryPolicy(max_retries=2, backoff_base_s=1e-4, multiplier=2.0)
        dev = device(FaultPlan(fail_write_ios=frozenset(range(1, 10))), retry=policy)
        with pytest.raises(RetryExhaustedError) as ei:
            dev.write_pages(1, TrafficKind.FOREGROUND)
        err = ei.value
        # Initial try + 2 retries; backoff charged after each failed
        # attempt that still had retries left: base * (1 + multiplier).
        assert err.attempts == 3
        assert err.total_backoff_s == pytest.approx(1e-4 * (1 + 2))
        assert "3 attempts" in str(err)

    def test_read_exhaustion_reports_attempts_and_backoff(self):
        policy = RetryPolicy(max_retries=1, backoff_base_s=2e-4)
        dev = device(FaultPlan(fail_read_ios=frozenset(range(1, 10))), retry=policy)
        dev.allocate(1)
        with pytest.raises(RetryExhaustedError) as ei:
            dev.read_pages(1, TrafficKind.FOREGROUND)
        assert ei.value.attempts == 2
        assert ei.value.total_backoff_s == pytest.approx(2e-4)

    def test_zero_retry_policy_charges_no_backoff(self):
        dev = device(
            FaultPlan(fail_write_ios=frozenset({1})),
            retry=RetryPolicy(max_retries=0),
        )
        with pytest.raises(RetryExhaustedError) as ei:
            dev.write_pages(1, TrafficKind.FOREGROUND)
        assert ei.value.attempts == 1
        assert ei.value.total_backoff_s == 0.0

    def test_is_a_transient_io_error(self):
        # Existing handlers catch TransientIOError; the typed subclass must
        # not break them.
        dev = device(
            FaultPlan(fail_write_ios=frozenset(range(1, 10))),
            retry=RetryPolicy(max_retries=1),
        )
        with pytest.raises(TransientIOError):
            dev.write_pages(1, TrafficKind.FOREGROUND)

