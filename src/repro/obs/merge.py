"""Deterministic reducer for sharded trace documents.

When a traced run fans out across worker processes
(:func:`repro.parallel.run_jobs`), each worker records into its own fresh
:class:`~repro.obs.events.TraceRecorder` and ships the exported document
back with its result.  The parent folds the shard docs back together **in
job submission order**, which makes the merged trace a pure function of
the job list — independent of worker count or completion order, exactly
like the result digests the parallel layer already guarantees.

Inputs are never mutated, and merging is associative over concatenation
of shard lists.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.events import DEFAULT_CAPACITY, TraceRecorder


def merge_traces(docs: Iterable[dict], capacity: Optional[int] = None) -> dict:
    """Fold shard trace docs (in order) into one merged document.

    ``capacity`` bounds the merged ring; by default it is sized to hold
    every retained shard event, so the merge itself never drops (shards'
    own ``dropped`` counts still carry through).
    """
    docs = list(docs)
    if capacity is None:
        capacity = max(
            DEFAULT_CAPACITY,
            sum(len(d.get("events", ())) for d in docs),
            *(d.get("header", {}).get("capacity", 0) for d in docs),
            1,
        )
    merged = TraceRecorder(capacity=capacity)
    for doc in docs:
        merged.absorb(doc)
    return merged.to_doc()
