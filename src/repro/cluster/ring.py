"""The consistent-hash ring that places keys on cluster nodes.

Every node owns :data:`VNODES` points on a 64-bit ring; a key hashes to a ring
position and its replica *preference list* is the next ``rf`` distinct
nodes clockwise.  Hashing is SHA-256 (never Python's salted ``hash()``),
so placement is a pure function of the node names and the key bytes —
identical in every process, which is what lets the cluster chaos harness
fan scenarios across workers and still produce byte-identical reports.

Virtual nodes keep ownership balanced and make membership changes cheap:
adding or removing one node moves only the key ranges adjacent to its
vnode points, and :func:`HashRing.diff` computes exactly which keys gained
a replica — the input to the rebalance migration planner.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Sequence

#: Ring points per node.
VNODES = 8


def _position(token: bytes) -> int:
    """64-bit ring position of an arbitrary byte token."""
    return int.from_bytes(hashlib.sha256(token).digest()[:8], "big")


class HashRing:
    """Consistent hashing with virtual nodes over a 64-bit key space."""

    def __init__(self, nodes: Iterable[str]) -> None:
        self._nodes: list[str] = []
        self._points: list[int] = []  # sorted vnode positions
        self._owners: list[str] = []  # owner of each position, parallel
        for name in nodes:
            self.add(name)
        if not self._nodes:
            raise ValueError("a ring needs at least one node")

    # ------------------------------------------------------------ membership

    @property
    def nodes(self) -> list[str]:
        """Current members, sorted by name."""
        return sorted(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def add(self, name: str) -> None:
        if name in self._nodes:
            raise ValueError(f"node {name!r} already on the ring")
        self._nodes.append(name)
        for v in range(VNODES):
            pos = _position(f"{name}#{v}".encode())
            idx = bisect.bisect_left(self._points, pos)
            self._points.insert(idx, pos)
            self._owners.insert(idx, name)

    def remove(self, name: str) -> None:
        if name not in self._nodes:
            raise ValueError(f"node {name!r} not on the ring")
        if len(self._nodes) == 1:
            raise ValueError("cannot remove the last node")
        self._nodes.remove(name)
        keep = [
            (p, o) for p, o in zip(self._points, self._owners) if o != name
        ]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    # ------------------------------------------------------------- placement

    def replicas_for(self, key: bytes, rf: int) -> list[str]:
        """The ordered preference list: ``rf`` distinct nodes for ``key``.

        Walks clockwise from the key's ring position, skipping vnodes of
        nodes already collected.  ``rf`` is clamped to the member count, so
        a shrunken cluster degrades to fewer replicas instead of raising.
        """
        rf = min(rf, len(self._nodes))
        start = bisect.bisect_right(self._points, _position(key))
        out: list[str] = []
        n = len(self._points)
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if owner not in out:
                out.append(owner)
                if len(out) == rf:
                    break
        return out

    # -------------------------------------------------------------- planning

    def diff(
        self, other: "HashRing", keys: Sequence[bytes], rf: int
    ) -> dict[str, list[bytes]]:
        """Keys each node *gains* when membership moves ``self`` → ``other``.

        Returns ``{node: [keys...]}`` for destination nodes that appear in
        ``other``'s preference list for a key but not in ``self``'s — the
        exact copy set a rebalance must move.  Keys are kept in input
        order; node map iteration is sorted for determinism.
        """
        gains: dict[str, list[bytes]] = {}
        for key in keys:
            old = set(self.replicas_for(key, rf))
            for node in other.replicas_for(key, rf):
                if node not in old:
                    gains.setdefault(node, []).append(key)
        return {n: gains[n] for n in sorted(gains)}
