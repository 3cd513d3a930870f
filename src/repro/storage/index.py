"""Secondary indexes: hash indexes for equality.

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
:mod:`repro.storage.heap`'s rule).  A hash index stores no wrapper it can
do without -- a one-column key is the bare value and a one-row bucket the
bare row id (:class:`HashIndex`) -- because its entries live as long as the
rows they index, and some tables gain a row per read.
"""

from __future__ import annotations

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


def _hash_key(values, derive: tuple | None):
    """The hash-index key for stored column *values* (in column order): the
    bare value of a one-column key, a tuple of several."""

    if derive is not None:
        values = [value if function is None else function(value)
                  for value, function in zip(values, derive)]
    return values[0] if len(values) == 1 else tuple(values)


class HashIndex:
    """Equality index mapping a key to the row ids holding it.

    An entry is kept in the smallest shape that holds it, because a keyed
    table has about as many entries as rows and the DLFM token registry
    gains a row per tokenized read:

    * a one-column key is the bare value, not a 1-tuple (48 bytes);
    * a bucket of one row id is that ``int``, not a 1-tuple (48 bytes) or a
      one-element set (216); it becomes a ``set`` at the second row id and
      turns back into an ``int`` when it drops to one.  A unique index's
      buckets are therefore all bare ints.

    :meth:`lookup`, :meth:`contains` and ``len`` hide the shapes; only
    ``insert`` / ``remove`` and the database's two probes of
    :attr:`raw_entries` and :meth:`bucket` see them.

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
        #: ``row -> key``.  ``itemgetter`` returns the bare value for one
        #: name and the tuple for several -- the two key shapes -- in one
        #: C-level call; a derived key takes the same slot.
        if derive is None:
            self.key_of = itemgetter(*self.columns)
        else:
            self.key_of = lambda row, columns=self.columns: _hash_key(
                [row[column] for column in columns], derive)
        self._entries: dict = {}
        #: The key -> bucket dict, for callers that probe it with keys built
        #: from stored column values (bare for one column); ``None`` when
        #: keys are derived (such callers go through :meth:`bucket`).
        self.raw_entries = self._entries if derive is None else None

    def insert(self, row: dict, rid: int) -> None:
        key = self.key_of(row)
        entries = self._entries
        bucket = entries.get(key)
        if bucket is None:
            entries[key] = rid
        elif type(bucket) is int:
            if bucket != rid:
                if self.unique:
                    raise DuplicateKeyError(
                        f"index {self.name}: duplicate key {key!r} "
                        f"on table {self.table}")
                entries[key] = {bucket, rid}
        else:
            bucket.add(rid)

    def remove(self, row: dict, rid: int) -> None:
        key = self.key_of(row)
        entries = self._entries
        bucket = entries.get(key)
        if bucket is None:
            return
        if type(bucket) is int:
            if bucket == rid:
                del entries[key]
            return
        bucket.discard(rid)
        if len(bucket) == 1:
            (entries[key],) = bucket

    def lookup(self, key: tuple) -> set[int]:
        bucket = self.bucket(key)
        return {bucket} if type(bucket) is int else set(bucket)

    def bucket(self, key: tuple):
        """The bucket for the column values *key*, uncopied (read-only): a
        row id, a set of two or more, or ``()`` when no row holds *key*."""

        return self._entries.get(_hash_key(key, self.derive), ())

    def contains(self, key: tuple) -> bool:
        return _hash_key(key, self.derive) in self._entries

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return sum(1 if type(bucket) is int else len(bucket)
                   for bucket in self._entries.values())
