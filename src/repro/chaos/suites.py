"""The soak suites, as data: ``name -> (scenarios, default ops each)``.

A new soak is one entry here.  ``python -m repro.chaos <suite>`` runs one
suite; CI runs them all as a matrix over these names and pins each
report's digest in ``results/DIGEST_soaks.txt``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.chaos.tier import TierScenario, WindowSpec
from repro.health.state import HealthState

OFFLINE, BROWNOUT = HealthState.OFFLINE, HealthState.BROWNOUT

_NVME_OUTAGE = TierScenario(
    name="hyperdb-nvme-outage",
    windows=(WindowSpec("nvme", OFFLINE, 0.30, 0.45),),
)

#: Latent-corruption soaks: bitflips stick on the media and the scrubber,
#: like every reader, must turn each one into *detected* corruption — the
#: corrupt copy dropped, and its key flagged suspect unless the other tier
#: holds an intact copy.  The oracle rejects any silent loss not explained
#: by a flagged suspect key.
_TIER_SCRUB = (
    TierScenario(
        name="hyperdb-latent-scrub",
        latent_rate=0.01,
        latent_burst=3,
        scrub_interval=150,
    ),
    TierScenario(
        # Latent flips composed with a capacity outage: scrub passes that
        # land inside the window pause and drain via catch-up, exactly
        # like migration.  Flips are drawn per page written, and the NVMe
        # write window writes each page about a third as often as one
        # command per put did: 0.003 drew no flip in 600 ops.
        name="hyperdb-latent-outage-scrub",
        windows=(WindowSpec("sata", OFFLINE, 0.35, 0.50),),
        latent_rate=0.006,
        scrub_interval=150,
    ),
)

SUITES: dict[str, tuple[tuple[TierScenario, ...], int]] = {
    # The single-store matrix: outages, brownouts, a composed restart, a
    # one-queue brownout, latent corruption, the PrismDB-like baseline, and
    # an outage over a hot key set.
    "tier": (
        (
            _NVME_OUTAGE,
            TierScenario(
                name="hyperdb-sata-outage",
                windows=(WindowSpec("sata", OFFLINE, 0.35, 0.50),),
            ),
            TierScenario(
                name="hyperdb-brownout",
                windows=(
                    WindowSpec("nvme", BROWNOUT, 0.20, 0.40, 4.0),
                    WindowSpec("sata", BROWNOUT, 0.50, 0.70, 8.0),
                ),
            ),
            TierScenario(
                name="hyperdb-combo-restart",
                windows=(
                    WindowSpec("nvme", BROWNOUT, 0.15, 0.30, 4.0),
                    WindowSpec("sata", OFFLINE, 0.40, 0.55),
                ),
                restart_frac=0.85,
            ),
            TierScenario(
                # A brownout pinned to one *background* queue of a 4-queue
                # SATA device: migration/compaction traffic routed there is
                # surcharged while queue 0 (foreground) and the other
                # background queues stay at full speed.
                name="hyperdb-queue-brownout",
                windows=(WindowSpec("sata", BROWNOUT, 0.15, 0.75, 8.0, queue=1),),
                queue_count=4,
            ),
            *_TIER_SCRUB,
            replace(_NVME_OUTAGE, name="prismdb-nvme-outage", engine="prismdb"),
            TierScenario(
                name="prismdb-sata-outage",
                engine="prismdb",
                windows=(WindowSpec("sata", OFFLINE, 0.35, 0.50),),
            ),
            # The same outage over 64 hot keys.  A few hundred ops over
            # 2,000 keys almost never read a key written twice, so no other
            # entry can observe a *stale* copy (an NVMe-resident version
            # shadowing a newer failover write); this one overwrites and
            # re-reads every key many times.
            replace(
                _NVME_OUTAGE, name="hyperdb-nvme-outage-hotkeys", key_universe=64
            ),
        ),
        900,
    ),
    # CI smoke: one NVMe outage + one capacity brownout.
    "tier-smoke": (
        (
            _NVME_OUTAGE,
            TierScenario(
                name="hyperdb-sata-brownout",
                windows=(WindowSpec("sata", BROWNOUT, 0.35, 0.60, 6.0),),
            ),
        ),
        500,
    ),
    "tier-scrub": (_TIER_SCRUB, 900),
}


def suite(name: str, num_ops: Optional[int] = None) -> list[TierScenario]:
    """The scenarios of one suite, at ``num_ops`` each (default: the
    suite's own)."""
    scenarios, default_ops = SUITES[name]
    ops = default_ops if num_ops is None else num_ops
    return [replace(sc, num_ops=ops) for sc in scenarios]


def scenario(
    suite_name: str, name: str, num_ops: Optional[int] = None
) -> TierScenario:
    """One scenario of a suite, by name."""
    (found,) = [sc for sc in suite(suite_name, num_ops) if sc.name == name]
    return found
