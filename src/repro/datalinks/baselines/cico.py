"""Check-in/check-out (CICO) file update.

Section 3: "An application first checks-out the file it wishes to update.
This, in turn, places a lock on the file in the database.  Before the lock is
removed explicitly, no other application is allowed to check-out the same
file. ... the lock is acquired and held for a longer time, thereby curtailing
concurrency.  Further, the DBMS needs to keep track of who has checked out
what files, which requires an extra database update operation for both
check-out and check-in requests."

The manager keeps the check-out registry in a host-database table, so every
check-out and check-in is one database update, and the lock lifetime spans
the whole edit session rather than a single open/close pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CheckoutConflictError, DataLinksError
from repro.simclock import SimClock
from repro.storage.database import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType

CHECKOUT_TABLE = "_cico_checkouts"


@dataclass
class Checkout:
    """A live check-out of one file by one user."""

    server: str
    path: str
    userid: int
    checked_out_at: float


class CheckInCheckOutManager:
    """DBMS-mediated exclusive check-outs of external files."""

    def __init__(self, host_db: Database, clock: SimClock):
        if not isinstance(clock, SimClock):
            raise TypeError(
                f"CheckInCheckOutManager needs a SimClock, got {clock!r}")
        self._db = host_db
        self._clock = clock
        if not self._db.catalog.has_table(CHECKOUT_TABLE):
            self._db.create_table(TableSchema(CHECKOUT_TABLE, [
                Column("server", DataType.TEXT, nullable=False),
                Column("path", DataType.TEXT, nullable=False),
                Column("userid", DataType.INTEGER, nullable=False),
                Column("checked_out_at", DataType.TIMESTAMP, nullable=False, default=0.0),
            ], primary_key=("server", "path")))
        self.conflicts = 0
        self.checkouts_granted = 0

    # ---------------------------------------------------------------- check-out --
    def check_out(self, server: str, path: str, userid: int) -> Checkout:
        """Acquire the exclusive database lock on (server, path) for *userid*."""

        existing = self._db.select_one(CHECKOUT_TABLE, {"server": server, "path": path},
                                       lock=False)
        if existing is not None:
            self.conflicts += 1
            raise CheckoutConflictError(
                f"{path!r} on {server!r} is checked out by user {existing['userid']}")
        self._db.insert(CHECKOUT_TABLE, {
            "server": server,
            "path": path,
            "userid": userid,
            "checked_out_at": self._clock.now(),
        })
        self.checkouts_granted += 1
        return Checkout(server=server, path=path, userid=userid,
                        checked_out_at=self._clock.now())

    # ----------------------------------------------------------------- check-in --
    def check_in(self, server: str, path: str, userid: int) -> float:
        """Release the lock; returns how long it was held (simulated seconds)."""

        row = self._db.select_one(CHECKOUT_TABLE, {"server": server, "path": path},
                                  lock=False)
        if row is None or row["userid"] != userid:
            raise DataLinksError(
                f"{path!r} on {server!r} is not checked out by user {userid}")
        self._db.delete(CHECKOUT_TABLE, {"server": server, "path": path})
        return self._clock.now() - row["checked_out_at"]

    # --------------------------------------------------------------------- query --
    def holder_of(self, server: str, path: str) -> int | None:
        row = self._db.select_one(CHECKOUT_TABLE, {"server": server, "path": path},
                                  lock=False)
        return row["userid"] if row is not None else None
