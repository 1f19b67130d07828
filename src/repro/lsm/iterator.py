"""K-way merge of sorted entry streams.

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
    streams: Iterable[Iterator[tuple]],
    drop_tombstones: bool = False,
) -> Iterator[tuple]:
    """Merge sorted streams of ``(key, seqno, flags, payload)`` items into
    one deduplicated sorted stream; only the first three fields are read
    (compaction's payload is the record's bytes, a scan's its Record).

    Earlier streams take precedence on seqno ties (pass newest first).
    ``drop_tombstones`` elides deletion markers (``flags & 1``) — only valid
    at the bottom of the tree, where nothing older can resurface.
    """
    heap: list = []
    for priority, stream in enumerate(streams):
        it = iter(stream)
        first = next(it, None)
        if first is not None:
            heapq.heappush(heap, (first[0], -first[1], priority, first, it))

    prev_key: bytes | None = None
    while heap:
        key, _, priority, item, it = heap[0]
        nxt = next(it, None)
        if nxt is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (nxt[0], -nxt[1], priority, nxt, it))
        if key == prev_key:
            continue  # an older duplicate; the winner was already emitted
        prev_key = key
        if drop_tombstones and item[2] & 1:
            continue
        yield item


def keyed(records: Iterable[Record]) -> Iterator[tuple]:
    """A scan's :class:`Record` stream as :func:`merge_records` items."""
    for rec in records:
        yield rec.key, rec.seqno, rec.deleted, rec
