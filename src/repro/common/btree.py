"""An in-memory B-tree index.

HyperDB keeps a per-partition B-tree mapping keys to their NVMe locations
(§3.6 "Index").  This implementation is a B+-tree over the keys — leaves
are chained for range scans, internal nodes hold separator keys — with the
values in a hash mirror beside it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, Optional


class _Leaf:
    __slots__ = ("keys", "next")

    def __init__(self) -> None:
        self.keys: list[bytes] = []
        self.next: Optional["_Leaf"] = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: list[bytes] = []        # separator keys, len == len(children) - 1
        self.children: list[Any] = []


class BTreeIndex:
    """Ordered map from ``bytes`` keys to arbitrary values.

    Parameters
    ----------
    order:
        Maximum number of children per internal node (and keys per leaf).
    """

    def __init__(self, order: int = 64) -> None:
        if order < 4:
            raise ValueError(f"order must be >= 4, got {order}")
        self._order = order
        self._root: Any = _Leaf()
        self._len = 0
        # Hash mirror of the tree's mapping: point lookups dominate the
        # index workload (one ``get`` per store op, plus GC), so they go
        # through this O(1) dict; the tree itself serves ordered scans.
        self._fast: dict[bytes, Any] = {}

    def __len__(self) -> int:
        return self._len

    # ------------------------------------------------------------- lookup

    def _find_leaf(self, key: bytes) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            idx = bisect_right(node.keys, key)
            node = node.children[idx]
        return node

    def get(self, key: bytes, default: Any = None) -> Any:
        return self._fast.get(key, default)

    def __contains__(self, key: bytes) -> bool:
        return key in self._fast

    # ------------------------------------------------------------- insert

    def insert(self, key: bytes, value: Any) -> bool:
        """Insert or replace.  Returns True if the key was new.

        Replacements never touch the tree: values live in the hash
        mirror, so only *new* keys pay the structural walk.
        """
        fast = self._fast
        if key in fast:
            fast[key] = value
            return False
        fast[key] = value
        path: list[tuple[_Internal, int]] = []
        node = self._root
        while isinstance(node, _Internal):
            idx = bisect_right(node.keys, key)
            path.append((node, idx))
            node = node.children[idx]
        leaf: _Leaf = node
        idx = bisect_left(leaf.keys, key)
        leaf.keys.insert(idx, key)
        self._len += 1
        if len(leaf.keys) >= self._order:
            self._split(leaf, path)
        return True

    def _split(self, node: Any, path: list[tuple[_Internal, int]]) -> None:
        if isinstance(node, _Leaf):
            mid = len(node.keys) // 2
            right = _Leaf()
            right.keys = node.keys[mid:]
            right.next = node.next
            node.keys = node.keys[:mid]
            node.next = right
            sep = right.keys[0]
        else:
            mid = len(node.keys) // 2
            right = _Internal()
            sep = node.keys[mid]
            right.keys = node.keys[mid + 1 :]
            right.children = node.children[mid + 1 :]
            node.keys = node.keys[:mid]
            node.children = node.children[: mid + 1]

        if not path:
            new_root = _Internal()
            new_root.keys = [sep]
            new_root.children = [node, right]
            self._root = new_root
            return
        parent, idx = path[-1]
        parent.keys.insert(idx, sep)
        parent.children.insert(idx + 1, right)
        if len(parent.children) > self._order:
            self._split(parent, path[:-1])

    # ------------------------------------------------------------- delete

    def delete(self, key: bytes) -> bool:
        """Remove a key.  Returns True if it was present.

        Uses lazy deletion at the structural level: leaves may become
        under-full, which is fine for an in-memory index that is rebuilt on
        recovery; lookups and scans remain correct.
        """
        leaf = self._find_leaf(key)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            leaf.keys.pop(idx)
            del self._fast[key]
            self._len -= 1
            return True
        return False

    # ------------------------------------------------------------- scans

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node

    def items(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, Any]]:
        """Ordered iteration over ``[start, end)``."""
        leaf = self._leftmost_leaf() if start is None else self._find_leaf(start)
        idx = 0 if start is None else bisect_left(leaf.keys, start)
        fast = self._fast
        while leaf is not None:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if end is not None and key >= end:
                    return
                yield key, fast[key]
                idx += 1
            leaf = leaf.next
            idx = 0

    def keys(self, start: Optional[bytes] = None, end: Optional[bytes] = None) -> Iterator[bytes]:
        """Lazy ordered key cursor over ``[start, end)``: one descent, then
        the leaf chain, touching only the leaves consumed.  Each leaf is
        snapshotted on arrival, so deleting keys already yielded neither
        skips nor repeats a neighbour (a key deleted after its leaf's
        snapshot is still yielded; inserts mid-iteration are unsupported).
        """
        if start is None:
            leaf, idx = self._leftmost_leaf(), 0
        else:
            leaf = self._find_leaf(start)
            idx = bisect_left(leaf.keys, start)
        while leaf is not None:
            snapshot = leaf.keys[idx:]
            if end is not None and snapshot and snapshot[-1] >= end:
                yield from snapshot[: bisect_left(snapshot, end)]
                return
            yield from snapshot
            leaf, idx = leaf.next, 0

    def first_key(self) -> Optional[bytes]:
        leaf = self._leftmost_leaf()
        while leaf is not None and not leaf.keys:
            leaf = leaf.next
        return leaf.keys[0] if leaf else None
