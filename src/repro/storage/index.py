"""Secondary indexes: hash indexes for equality and an ordered index for ranges."""

from __future__ import annotations

import bisect
from operator import itemgetter

from repro.errors import DuplicateKeyError


class HashIndex:
    """Equality index mapping a key tuple to the set of row ids holding it."""

    def __init__(self, name: str, table: str, columns: tuple[str, ...], unique: bool = False):
        self.name = name
        self.table = table
        self.columns = tuple(columns)
        self.unique = unique
        self._single = self.columns[0] if len(self.columns) == 1 else None
        # Composite keys come out of one C-level call (``itemgetter`` with
        # several names returns the tuple); a single name would return the
        # bare value, hence the ``_single`` special case.
        self._composite = itemgetter(*self.columns) \
            if self._single is None else None
        self._entries: dict[tuple, set[int]] = {}

    def key_of(self, row: dict) -> tuple:
        single = self._single
        if single is not None:
            return (row[single],)
        return self._composite(row)

    def insert(self, row: dict, rid: int) -> None:
        # ``key_of`` is inlined here (and in ``remove``): index maintenance
        # runs once per index per DML row and the extra frame was measurable.
        single = self._single
        key = (row[single],) if single is not None else self._composite(row)
        entries = self._entries
        try:
            bucket = entries[key]
        except KeyError:
            entries[key] = {rid}
            return
        if self.unique and bucket and rid not in bucket:
            raise DuplicateKeyError(
                f"index {self.name}: duplicate key {key!r} on table {self.table}")
        bucket.add(rid)

    def remove(self, row: dict, rid: int) -> None:
        single = self._single
        key = (row[single],) if single is not None else self._composite(row)
        entries = self._entries
        try:
            bucket = entries[key]
        except KeyError:
            return
        bucket.discard(rid)
        if not bucket:
            del entries[key]

    def lookup(self, key: tuple) -> set[int]:
        return set(self._entries.get(tuple(key), ()))

    def bucket(self, key: tuple):
        """The rid collection for *key* without copying (read-only view)."""

        return self._entries.get(tuple(key), ())

    def contains(self, key: tuple) -> bool:
        return tuple(key) in self._entries

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())


class OrderedIndex:
    """A sorted (key, rid) index supporting range scans.

    Backed by a sorted list with binary search -- adequate for the table
    sizes the reproduction works with and entirely deterministic.
    """

    def __init__(self, name: str, table: str, columns: tuple[str, ...], unique: bool = False):
        self.name = name
        self.table = table
        self.columns = tuple(columns)
        self.unique = unique
        self._keys: list[tuple] = []
        self._rids: list[int] = []

    def key_of(self, row: dict) -> tuple:
        return tuple(row[column] for column in self.columns)

    def insert(self, row: dict, rid: int) -> None:
        key = self.key_of(row)
        position = bisect.bisect_left(self._keys, key)
        if self.unique:
            if position < len(self._keys) and self._keys[position] == key \
                    and self._rids[position] != rid:
                raise DuplicateKeyError(
                    f"index {self.name}: duplicate key {key!r} on table {self.table}")
        self._keys.insert(position, key)
        self._rids.insert(position, rid)

    def remove(self, row: dict, rid: int) -> None:
        key = self.key_of(row)
        position = bisect.bisect_left(self._keys, key)
        while position < len(self._keys) and self._keys[position] == key:
            if self._rids[position] == rid:
                del self._keys[position]
                del self._rids[position]
                return
            position += 1

    def lookup(self, key: tuple) -> set[int]:
        key = tuple(key)
        result: set[int] = set()
        position = bisect.bisect_left(self._keys, key)
        while position < len(self._keys) and self._keys[position] == key:
            result.add(self._rids[position])
            position += 1
        return result

    def bucket(self, key: tuple):
        """The rid collection for *key* (same contract as ``HashIndex.bucket``)."""

        return self.lookup(key)

    def range_scan(self, low: tuple | None = None, high: tuple | None = None,
                   include_low: bool = True, include_high: bool = True):
        """Iterate ``(key, rid)`` pairs with keys in ``[low, high]``."""

        if low is None:
            start = 0
        else:
            low = tuple(low)
            start = bisect.bisect_left(self._keys, low) if include_low \
                else bisect.bisect_right(self._keys, low)
        for position in range(start, len(self._keys)):
            key = self._keys[position]
            if high is not None:
                high_t = tuple(high)
                if include_high and key > high_t:
                    break
                if not include_high and key >= high_t:
                    break
            yield key, self._rids[position]

    def clear(self) -> None:
        self._keys.clear()
        self._rids.clear()

    def __len__(self) -> int:
        return len(self._keys)
