"""Secondary indexes: hash indexes for equality and an ordered index for ranges.

An index over a ``DATALINK`` column is keyed by the *file the value
references* (:func:`referenced_file`), not by the URL's spelling: the catalog
passes the per-column derivation (``derive``) when it builds the index from
the schema, and every entry point below -- maintenance and lookup alike --
takes stored column values and derives the key itself.  ``dlfs://a/x``,
``http://b/x`` and ``dlfs://a/x;token=t`` therefore share one bucket, which
is what lets "which rows reference this file?" be answered without a scan.
An equality lookup by URL finds a superset (every row naming that path);
the statement's own predicate narrows it, as it does for any candidate set.
A *unique* index over a DATALINK column admits one row per referenced path.

Indexes hold row ids, never rows: the dicts passed to ``insert`` / ``remove``
are read for their key and not kept (who may hold a row image is
:mod:`repro.storage.heap`'s rule).
"""

from __future__ import annotations

import bisect
from operator import itemgetter

from repro.errors import DuplicateKeyError
from repro.util.urls import parse_url


def referenced_file(value):
    """The file a DATALINK value references: the path of its URL.

    A bare path (what a lookup binds to ask which rows reference a file)
    is its own key, and ``None`` (a NULL DATALINK) stays ``None``.
    """

    if value is None or value[:1] == "/":
        return value
    return parse_url(value).path


def _key(values, derive: tuple | None) -> tuple:
    """The index key for stored column *values* (in column order)."""

    if derive is None:
        return tuple(values)
    return tuple(value if function is None else function(value)
                 for value, function in zip(values, derive))


class HashIndex:
    """Equality index mapping a key tuple to the row ids holding it.

    A bucket is a ``set`` of row ids -- except in a *unique* index, where a
    key has one row and the bucket is the 1-tuple ``(rid,)``: 48 bytes, not
    a one-element set's 216, and most buckets of a keyed table are of this
    kind.  Readers only iterate, size or sort a bucket, which both shapes
    allow; ``insert`` / ``remove`` alone know the difference.

    ``derive`` (one entry per column, ``None`` for "the stored value") makes
    the key a function of the stored values; see the module docstring.
    """

    def __init__(self, name: str, table: str, columns: tuple[str, ...],
                 unique: bool = False, derive: tuple | None = None):
        self.name = name
        self.table = table
        self.columns = tuple(columns)
        self.unique = unique
        self.derive = derive
        self._single = self.columns[0] \
            if len(self.columns) == 1 and derive is None else None
        # Composite keys come out of one C-level call (``itemgetter`` with
        # several names returns the tuple); a single name would return the
        # bare value, hence the ``_single`` special case.  A derived key
        # takes the same slot, so maintenance below needs no third branch.
        if derive is not None:
            self._composite = lambda values, columns=self.columns: _key(
                [values[column] for column in columns], derive)
        else:
            self._composite = itemgetter(*self.columns) \
                if self._single is None else None
        self._entries: dict[tuple, set[int] | tuple[int]] = {}
        #: The key -> rids dict, for callers that probe it with tuples of
        #: stored column values; ``None`` when keys are derived (such callers
        #: must go through :meth:`bucket`, which derives).
        self.raw_entries = self._entries if derive is None else None

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
            entries[key] = (rid,) if self.unique else {rid}
            return
        if self.unique:
            if rid not in bucket:
                raise DuplicateKeyError(
                    f"index {self.name}: duplicate key {key!r} "
                    f"on table {self.table}")
        else:
            bucket.add(rid)

    def remove(self, row: dict, rid: int) -> None:
        single = self._single
        key = (row[single],) if single is not None else self._composite(row)
        entries = self._entries
        try:
            bucket = entries[key]
        except KeyError:
            return
        if self.unique:
            if rid in bucket:
                del entries[key]
            return
        bucket.discard(rid)
        if not bucket:
            del entries[key]

    def lookup(self, key: tuple) -> set[int]:
        return set(self._entries.get(_key(key, self.derive), ()))

    def bucket(self, key: tuple):
        """The rid collection for *key* without copying (read-only view)."""

        return self._entries.get(_key(key, self.derive), ())

    def contains(self, key: tuple) -> bool:
        return _key(key, self.derive) in self._entries

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())


class OrderedIndex:
    """A sorted (key, rid) index supporting range scans.

    Backed by a sorted list with binary search -- adequate for the table
    sizes the reproduction works with and entirely deterministic.  With
    ``derive`` (see :class:`HashIndex`) the order, and the bounds of
    :meth:`range_scan`, are those of the derived keys.
    """

    def __init__(self, name: str, table: str, columns: tuple[str, ...],
                 unique: bool = False, derive: tuple | None = None):
        self.name = name
        self.table = table
        self.columns = tuple(columns)
        self.unique = unique
        self.derive = derive
        self.raw_entries = None     # no key -> rids dict: use :meth:`bucket`
        self._keys: list[tuple] = []
        self._rids: list[int] = []

    def key_of(self, row: dict) -> tuple:
        return _key([row[column] for column in self.columns], self.derive)

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
        key = _key(key, self.derive)
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
