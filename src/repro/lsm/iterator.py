"""K-way merge of sorted record streams.

Used by compaction (merging a victim table with its children) and by range
scans (merging memtable + every level).  Duplicate keys are resolved by
sequence number, falling back to stream priority (lower priority index =
newer source) when seqnos tie.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

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
