"""The in-memory index of an NVMe partition (§3.6 "Index").

A hash map, because point lookups and updates are nearly all of the index
traffic, with an ordered view for scans and checkpoints: a B+-tree of
height two (sorted leaves under one sorted list of leaf low keys), built
on the first ordered read and kept up to date from then on, so write-only
traffic never pays for order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Iterator, Optional


class BTreeIndex(dict):
    """Ordered map from ``bytes`` keys to values: a ``dict`` plus an
    ordered view whose leaves split at ``order`` keys.  Only :meth:`insert`
    may add a key and only :meth:`delete` remove one; ``index[key] = value``
    may only replace a present key's value, which leaves the view alone.
    """

    __slots__ = ("_order", "_lows", "_leaves")

    def __init__(self, order: int = 64) -> None:
        if order < 4:
            raise ValueError(f"order must be >= 4, got {order}")
        self._order = order
        #: Leaf ``i`` holds the keys in ``[_lows[i], _lows[i + 1])``;
        #: ``_lows[0]`` is ``b""``.  None until the first ordered read.
        self._lows: Optional[list[bytes]] = None
        self._leaves: list[list[bytes]] = []

    def insert(self, key: bytes, value: Any) -> bool:
        """Insert or replace.  Returns True if the key was new."""
        if key in self:
            self[key] = value
            return False
        self[key] = value
        lows = self._lows
        if lows is not None:
            i = bisect_right(lows, key) - 1
            leaf = self._leaves[i]
            insort(leaf, key)
            if len(leaf) >= self._order:
                right = leaf[len(leaf) // 2 :]
                del leaf[len(leaf) // 2 :]
                lows.insert(i + 1, right[0])
                self._leaves.insert(i + 1, right)
        return True

    def delete(self, key: bytes) -> bool:
        """Remove a key.  Returns True if it was present."""
        if key not in self:
            return False
        del self[key]
        lows = self._lows
        if lows is not None:
            i = bisect_right(lows, key) - 1
            leaf = self._leaves[i]
            del leaf[bisect_left(leaf, key)]
            if not leaf and i:  # an emptied leaf goes; the first stays
                del lows[i], self._leaves[i]
        return True

    def _view(self) -> tuple[list[bytes], list[list[bytes]]]:
        if self._lows is None:
            ordered = sorted(self)
            step = self._order // 2
            self._leaves = [ordered[i : i + step] for i in range(0, len(ordered), step)] or [[]]
            self._lows = [b""] + [leaf[0] for leaf in self._leaves[1:]]
        return self._lows, self._leaves

    def keys(self, start: Optional[bytes] = None, end: Optional[bytes] = None) -> Iterator[bytes]:
        """Lazy ordered key cursor over ``[start, end)``.  Each leaf is
        snapshotted on arrival and the next found again from the last key
        yielded: deleting a yielded key neither skips nor repeats one, a key
        inserted ahead is seen, and one deleted after its snapshot is still
        yielded."""
        lows, leaves = self._view()
        bound, cut = b"" if start is None else start, bisect_left
        while True:
            i = bisect_right(lows, bound) - 1
            snapshot = leaves[i][cut(leaves[i], bound) :]
            while not snapshot:
                i += 1
                if i == len(leaves):
                    return
                snapshot = leaves[i][:]
            if end is not None and snapshot[-1] >= end:
                yield from snapshot[: bisect_left(snapshot, end)]
                return
            yield from snapshot
            bound, cut = snapshot[-1], bisect_right

    def items(self, start: Optional[bytes] = None,
              end: Optional[bytes] = None) -> Iterator[tuple[bytes, Any]]:
        """Ordered ``(key, value)`` pairs over ``[start, end)``."""
        return ((key, self[key]) for key in self.keys(start, end))
