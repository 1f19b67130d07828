"""Access-interval analysis (reproduces paper Fig. 6a).

Given an access trace (a sequence of keys), these helpers compute, per
object, the conditional probability

    P( t_next < t  |  the last s intervals were all < t )

— the statistical basis for interval-based hotness detection: if the
probability is high, "recently re-accessed within a window" predicts
"will be re-accessed within the window".

Traces of integer key ids (the common case: YCSB key sequences) are grouped
with one stable argsort instead of a per-access Python loop; arbitrary
hashable keys fall back to the loop.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, Sequence

import numpy as np


def access_intervals(trace: Sequence[Hashable]) -> Dict[Hashable, np.ndarray]:
    """Per-object arrays of gaps (in accesses) between consecutive accesses."""
    arr = np.asarray(trace)
    if arr.ndim == 1 and arr.dtype.kind in "iu" and len(arr) > 0:
        # Stable argsort groups each key's access positions in trace order.
        order = np.argsort(arr, kind="stable")
        starts = np.flatnonzero(np.diff(arr[order])) + 1
        groups = np.split(order, starts)
        # ``g`` holds trace positions, so its key is ``arr[g[0]]``.
        return {int(arr[g[0]]): np.diff(g) for g in groups if len(g) >= 2}
    positions: Dict[Hashable, list[int]] = defaultdict(list)
    for pos, key in enumerate(trace):
        positions[key].append(pos)
    return {
        key: np.diff(np.asarray(p))
        for key, p in positions.items()
        if len(p) >= 2
    }


def _run_lengths(below: np.ndarray) -> np.ndarray:
    """``run[i]`` = count of consecutive True values ending at index ``i``."""
    idx = np.arange(len(below))
    last_false = np.maximum.accumulate(np.where(~below, idx, -1))
    return idx - last_false


def interval_conditional_probabilities(
    trace: Sequence[Hashable],
    threshold: int,
    history: int = 1,
) -> np.ndarray:
    """Per-object conditional probabilities for one (threshold, history) cell.

    Parameters
    ----------
    trace:
        The access sequence.
    threshold:
        ``t`` — interval bound, in number of accesses (the paper expresses it
        as a fraction of the workload size).
    history:
        ``s`` — how many consecutive past intervals must be below ``t``.

    Returns
    -------
    One probability per object that produced at least one conditioning event;
    objects with no qualifying history are excluded (as in the paper's
    per-object boxplots).
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if history < 1:
        raise ValueError(f"history must be >= 1, got {history}")
    probs: list[float] = []
    for intervals in access_intervals(trace).values():
        if len(intervals) <= history:
            continue
        below = intervals < threshold
        # Conditioning events: `history` consecutive below-threshold
        # intervals ending at i, with interval i+1 left to test.
        cond = _run_lengths(below)[:-1] >= history
        events = int(np.count_nonzero(cond))
        if events:
            hits = int(np.count_nonzero(cond & below[1:]))
            probs.append(hits / events)
    return np.asarray(probs, dtype=np.float64)


def probability_summary(probs: np.ndarray) -> Dict[str, float]:
    """Median and quartiles of the per-object probabilities (boxplot stats).

    ``objects`` is the integer number of objects summarized.  An empty
    input yields NaN statistics with ``objects == 0`` — distinguishable
    from a populated trace whose objects are all cold (real 0.0 stats).
    """
    if len(probs) == 0:
        return {
            "median": float("nan"),
            "p25": float("nan"),
            "p75": float("nan"),
            "objects": 0,
        }
    return {
        "median": float(np.percentile(probs, 50)),
        "p25": float(np.percentile(probs, 25)),
        "p75": float(np.percentile(probs, 75)),
        "objects": int(len(probs)),
    }
