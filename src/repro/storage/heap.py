"""Heap tables: unordered row storage addressed by row id.

Row images -- who holds them, who may change them
-------------------------------------------------
The dict :meth:`TableSchema.validate_row` returns *is* the row.  The heap
stores it, the write-ahead log records it as the statement's ``after`` (and
later as the ``before`` of the UPDATE / DELETE that replaces it),
``Transaction.records`` reaches it through those log records, and a witness
replica's heap adopts it from the shipped record: one object, held by all
four.  The rule that makes the sharing safe: **a row image is never mutated
after ``validate_row`` returns it; whoever wants a changed row copies it
first** (an UPDATE builds its new row from a copy).  What is handed
*out* is a copy the caller owns -- :meth:`HeapTable.get`, :meth:`HeapTable.
scan`, select results.  :meth:`HeapTable.snapshot` (checkpoint bases,
backup images) holds the stored images themselves, in a dict of its own;
:meth:`HeapTable.load_snapshot` copies them row by row on the way back, so a
heap rebuilt from a snapshot shares no image with the heap it was taken
from.
"""

from __future__ import annotations

from repro.errors import NoSuchRowError
from repro.storage.schema import TableSchema


class HeapTable:
    """In-memory heap of rows for one table.

    Rows are plain dicts keyed by column name; the heap hands out
    monotonically increasing integer row ids.  The heap itself is *volatile*:
    durability comes from the write-ahead log and checkpoints managed by the
    database, which call :meth:`snapshot` / :meth:`load_snapshot`.

    Row *values* are always immutable scalars (``validate_value`` normalizes
    every stored value to int/float/str/bool/bytes/None), so where a copy is
    owed (module docstring) a per-row ``dict`` copy is as deep as it ever
    needs to be.  The scan order (sorted row ids) is cached and invalidated
    only when the rid *set* changes, so repeated full scans skip the
    per-call sort.
    """

    __slots__ = ("schema", "_rows", "_next_rid", "_sorted_rids", "mutations")

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: dict[int, dict] = {}
        self._next_rid = 1
        self._sorted_rids: list[int] | None = None
        #: Monotone mutation counter.  Every content change -- insert, update,
        #: delete, snapshot restore, clear -- bumps it, *whoever* the caller
        #: is (DML, replication redo, recovery, rollback), so derived caches
        #: such as the database's column-maximum trackers can validate
        #: against it instead of trusting that all writes funnel through one
        #: code path.
        self.mutations = 0

    # -- basic operations ------------------------------------------------------
    def insert(self, row: dict, rid: int | None = None) -> int:
        """Store *row* -- the dict itself, not a copy -- and return its row id.

        ``rid`` may be forced by recovery/undo so that row ids are stable
        across redo and rollback.
        """

        self.mutations += 1
        if rid is None:
            rid = self._next_rid
            self._next_rid += 1
            # A fresh rid is always the largest: extend the cached order
            # in place instead of throwing it away.
            if self._sorted_rids is not None:
                self._sorted_rids.append(rid)
        else:
            self._next_rid = max(self._next_rid, rid + 1)
            self._sorted_rids = None
        self._rows[rid] = row
        return rid

    def get(self, rid: int) -> dict:
        """Return a copy of the row stored under *rid*."""

        try:
            return dict(self._rows[rid])
        except KeyError:
            raise NoSuchRowError(f"table {self.schema.name}: no row {rid}") from None

    def exists(self, rid: int) -> bool:
        return rid in self._rows

    def update(self, rid: int, row: dict) -> None:
        """Replace the row stored under *rid* with *row* (stored as is)."""

        if rid not in self._rows:
            raise NoSuchRowError(f"table {self.schema.name}: no row {rid}")
        self.mutations += 1
        self._rows[rid] = row

    def delete(self, rid: int) -> dict:
        """Remove and return the row stored under *rid* (the stored image:
        the log may still hold it)."""

        try:
            row = self._rows.pop(rid)
        except KeyError:
            raise NoSuchRowError(f"table {self.schema.name}: no row {rid}") from None
        self.mutations += 1
        self._sorted_rids = None
        return row

    def _scan_order(self) -> list[int]:
        order = self._sorted_rids
        if order is None:
            order = self._sorted_rids = sorted(self._rows)
        return order

    def scan(self):
        """Iterate ``(rid, row copy)`` over all live rows (stable order)."""

        rows = self._rows
        for rid in self._scan_order():
            yield rid, dict(rows[rid])

    def scan_live(self):
        """``(rid, stored row)`` pairs in stable (sorted rid) order -- the
        fast path for read-only predicate evaluation; callers must not
        mutate the returned dicts.  Returns a list, not a generator: the
        comprehension runs at C speed and the callers consume every pair
        anyway."""

        rows = self._rows
        order = self._sorted_rids
        if order is None:
            order = self._sorted_rids = sorted(rows)
        return [(rid, rows[rid]) for rid in order]

    def __len__(self) -> int:
        return len(self._rows)

    # -- checkpoint / backup support -------------------------------------------
    def snapshot(self) -> dict:
        """The heap contents, for checkpoint bases and backups: a dict of
        its own holding the stored row images, which nobody mutates (module
        docstring)."""

        return {"rows": dict(self._rows), "next_rid": self._next_rid}

    def load_snapshot(self, snapshot: dict) -> None:
        """Replace the heap contents with a previously taken snapshot, copying
        each row: per-row shallow copies suffice, stored values are
        immutable scalars."""

        self._rows = {rid: dict(row) for rid, row in snapshot["rows"].items()}
        self._next_rid = snapshot["next_rid"]
        self._sorted_rids = None
        self.mutations += 1

    def clear(self) -> None:
        """Drop all rows (used to simulate loss of volatile state)."""

        self._rows.clear()
        self._next_rid = 1
        self._sorted_rids = None
        self.mutations += 1
