"""Each key is hashed once per engine.

A load flushes, compacts, demotes and tracks every key, often many times
over; the engine's digest memo must make the blake2b count the number of
distinct keys written, not compactions x keys.  Building the same store
twice in one process must hash the same count both times: no state carries
over from one engine to the next.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.context import BenchScale, build_store
from repro.common import bloom
from repro.common.keys import encode_key

RECORDS = 4_000
#: Keys written a second time: updates add puts, not distinct keys.
REWRITTEN = 1_000


@pytest.fixture
def blake2b_calls(monkeypatch):
    """The number of blake2b digests computed so far, as ``calls[0]``."""
    calls = [0]
    real = bloom.key_digest

    def counting(key: bytes) -> bytes:
        calls[0] += 1
        return real(key)

    monkeypatch.setattr(bloom, "key_digest", counting)
    return calls


def _load(engine: str):
    """A store of ``engine`` loaded in shuffled order, with some keys
    rewritten: the puts of a perfbench load at a tenth of its size."""
    scale = BenchScale(record_count=RECORDS, operations=0, nvme_ratio=0.35)
    store = build_store(engine, scale)
    ids = np.arange(RECORDS)
    np.random.default_rng(7).shuffle(ids)
    keys = [encode_key(int(i)) for i in ids]
    keys += keys[:REWRITTEN]
    for lo in range(0, len(keys), 500):
        chunk = keys[lo : lo + 500]
        store.put_many(chunk, [b"v" * 128] * len(chunk))
    store.finalize()
    return store


def _background_work(engine: str, store) -> int:
    """How often the load re-read keys it had already hashed."""
    if engine == "rocksdb":
        return store.tree.compactor.stats.compactions
    return store.migration.stats.demoted_objects


def _memo(engine: str, store) -> bloom.KeyHashes:
    if engine == "rocksdb":
        return store.tree.key_hashes
    return store.performance_tier.key_hashes


@pytest.mark.parametrize("engine", ["rocksdb", "hyperdb"])
def test_load_hashes_each_distinct_key_once(engine, blake2b_calls):
    for _ in range(2):  # the second build must not start from the first's state
        blake2b_calls[0] = 0
        store = _load(engine)
        assert _background_work(engine, store) > 0
        assert blake2b_calls[0] == RECORDS
        assert len(_memo(engine, store)) == RECORDS
