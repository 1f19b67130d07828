"""K-way merge of sorted record streams.

Used by compaction (merging a victim table with its children) and by range
scans (merging memtable + every level).  Duplicate keys are resolved by
sequence number, falling back to stream priority (lower priority index =
newer source) when seqnos tie.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator

from repro.common.records import Record


def merge_records(
    streams: Iterable[Iterator[Record]],
    drop_tombstones: bool = False,
) -> Iterator[Record]:
    """Merge sorted record streams into one deduplicated sorted stream.

    ``streams`` must each yield records in strictly increasing key order.
    Earlier streams take precedence on seqno ties (pass newest first).
    When ``drop_tombstones`` is set, deletion markers are elided — only
    valid at the bottom of the tree, where nothing older can resurface.
    """
    heap: list[tuple[bytes, int, int, Record, Iterator[Record]]] = []
    for priority, stream in enumerate(streams):
        it = iter(stream)
        first = next(it, None)
        if first is not None:
            heapq.heappush(heap, (first.key, -first.seqno, priority, first, it))

    prev_key: bytes | None = None
    while heap:
        key, _, priority, rec, it = heapq.heappop(heap)
        nxt = next(it, None)
        if nxt is not None:
            heapq.heappush(heap, (nxt.key, -nxt.seqno, priority, nxt, it))
        if key == prev_key:
            continue  # an older duplicate; the winner was already emitted
        prev_key = key
        if drop_tombstones and rec.is_tombstone:
            continue
        yield rec


def batched_stream(
    fetch: Callable[[bytes], list[Record]], start: bytes, batch: int
) -> Iterator[Record]:
    """A batched range read — ``fetch(pos)`` returns up to ``batch`` sorted
    records >= ``pos`` — as one sorted stream for :func:`merge_records`.

    The first batch is fetched here and now (callers rely on its I/O
    landing before the merge pulls its other streams); a batch that came
    back full is refilled from its last key's successor only when the
    consumer asks past it.
    """

    def stream(records: list[Record]) -> Iterator[Record]:
        while True:
            yield from records
            if len(records) < batch:
                return
            records = fetch(records[-1].key + b"\x00")

    return stream(fetch(start))
