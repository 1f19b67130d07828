"""The in-memory write buffer.

A :class:`MemTable` pairs a hash map — O(1) point lookups, replacement,
and size accounting — with a sorted key view that is built only when
order is observable: the first ordered access (a flush or scan calling
:meth:`records`, :meth:`first_key`, :meth:`last_key`) after a new key
arrived sorts the map's keys once.  The paper's description of the
MemTable ("a skip-list and sorted by keys") holds at every ordered
access; the hot write path just defers the ordering work until something
reads it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional

from repro.common.records import Record


class MemTable:
    """Sorted in-memory buffer of the most recent writes."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._map: dict[bytes, Record] = {}
        #: The map's keys in order, as of the last ordered access.
        #: Replacements never reorder and a memtable never removes a key,
        #: so the view is stale exactly when its length differs from the
        #: map's.
        self._sorted_keys: list[bytes] = []
        self._size = 0

    def __len__(self) -> int:
        return len(self._map)

    @property
    def size_bytes(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        return self._size >= self.capacity_bytes

    def put(self, rec: Record) -> None:
        """Insert or replace; tombstones are stored like any record."""
        old = self._map.get(rec.key)
        if old is not None:
            self._size -= old.encoded_size
        self._map[rec.key] = rec
        self._size += rec.encoded_size

    def get(self, key: bytes) -> Optional[Record]:
        """The newest record for ``key``, tombstones included, else None."""
        return self._map.get(key)

    def __contains__(self, key: bytes) -> bool:
        return key in self._map

    def _ordered_keys(self) -> list[bytes]:
        view = self._sorted_keys
        if len(view) != len(self._map):
            view = self._sorted_keys = sorted(self._map)
        return view

    def records(self, start: Optional[bytes] = None) -> Iterator[Record]:
        """Key-ordered iteration of all live records (tombstones included)."""
        view = self._ordered_keys()
        rec_for = self._map
        first = 0 if start is None else bisect_left(view, start)
        for i in range(first, len(view)):
            yield rec_for[view[i]]

    def first_key(self) -> Optional[bytes]:
        view = self._ordered_keys()
        return view[0] if view else None

    def last_key(self) -> Optional[bytes]:
        view = self._ordered_keys()
        return view[-1] if view else None
