"""Monotonic identifier generation.

Every subsystem (transactions, vnodes, archive versions, ...) needs small
unique integer identifiers.  Keeping the generators explicit (instead of
relying on ``id()`` or random UUIDs) makes runs deterministic, which matters
for reproducible benchmarks and for crash-recovery tests that replay logs.
"""

from __future__ import annotations

import itertools


class IdGenerator:
    """Hands out consecutive integers starting from ``start``."""

    def __init__(self, start: int = 1, prefix: str = ""):
        self._counter = itertools.count(start)
        self._prefix = prefix

    def next_int(self) -> int:
        """Return the next integer id."""

        return next(self._counter)

    def next_str(self) -> str:
        """Return the next id formatted as ``<prefix><number>``."""

        return f"{self._prefix}{self.next_int()}"
