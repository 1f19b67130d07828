"""The acked-write oracle: one model of truth for every soak.

A write is *acked* when the store returned without raising; from then on
the store owes that value (or that delete) to every later read.  The
oracle keeps the owed state per key and classifies each observed read
into one :class:`Verdict`.  Unavailability is not a verdict: an op the
store rejected was never acked, so the owed state does not move.
"""

from __future__ import annotations

import enum
from typing import Optional


class Verdict(enum.Enum):
    #: The read returned the latest acked value.
    OK = "ok"
    #: A mismatch on a key the store itself flagged as a corruption
    #: casualty: *detected* loss, not silent.
    EXCUSED = "excused"
    # The violations:
    #: An acked value read back as missing.
    LOST = "lost"
    #: An older value than the latest acked one.
    STALE = "stale"
    #: A value where an acked delete (or nothing) is owed.
    RESURRECTED = "resurrected"


class Oracle:
    """Owed state per key: the last acked value."""

    def __init__(self) -> None:
        #: Latest acked payload per key (``None`` for an acked delete).
        self.expected: dict[bytes, Optional[bytes]] = {}

    def acked(self, key: bytes, value: Optional[bytes]) -> None:
        self.expected[key] = value

    def classify(
        self, key: bytes, got: Optional[bytes], suspect: bool = False
    ) -> Verdict:
        """Score one observed read of ``key``; ``suspect`` says the store
        flagged the key as a corruption casualty."""
        want = self.expected.get(key)
        if got == want:
            return Verdict.OK
        if suspect:
            return Verdict.EXCUSED
        if want is None:
            return Verdict.RESURRECTED
        if got is None:
            return Verdict.LOST
        return Verdict.STALE

    def live(self) -> list[tuple[bytes, bytes]]:
        """Every key owed a value, in key order — what an ordered scan of
        the whole key space must return."""
        return [
            (key, value)
            for key, value in sorted(self.expected.items())
            if value is not None
        ]
