"""Storing file content in database LOBs (the Oracle iFS / Informix IXFS way).

Section 1: "both Oracle's and Informix's approaches incur extra overhead in
read/write accesses as they require database processing to read/write files
from/to LOB/BLOB column.  In contrast, DataLinks imposes far less overhead as
it is only involved in open and close of the file and does not interfere in
read/write accesses."

:class:`BlobFileStore` keeps whole files in a BLOB column of the host
database; every read and write therefore passes through the SQL layer and
pays a per-byte database-processing cost in addition to the storage transfer,
which is exactly the overhead DataLinks avoids.
"""

from __future__ import annotations

from repro.errors import DataLinksError
from repro.simclock import SimClock
from repro.storage.database import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType

BLOB_TABLE = "_blob_files"


class BlobFileStore:
    """A file API implemented over a BLOB column."""

    def __init__(self, host_db: Database, clock: SimClock,
                 table: str = BLOB_TABLE):
        if not isinstance(clock, SimClock):
            raise TypeError(f"BlobFileStore needs a SimClock, got {clock!r}")
        self._db = host_db
        self._clock = clock
        self._table = table
        if not self._db.catalog.has_table(table):
            self._db.create_table(TableSchema(table, [
                Column("path", DataType.TEXT, nullable=False),
                Column("content", DataType.BLOB, nullable=False, default=b""),
                Column("size", DataType.INTEGER, nullable=False, default=0),
                Column("mtime", DataType.TIMESTAMP, nullable=False, default=0.0),
            ], primary_key=("path",)))

    def _charge_bytes(self, nbytes: int) -> None:
        self._clock.charge("blob_request_overhead")
        self._clock.charge("blob_db_per_byte", nbytes=nbytes)
        self._clock.charge("disk_transfer_per_byte", nbytes=nbytes)
        self._clock.charge("disk_seek")

    # ----------------------------------------------------------------------- API --
    def write(self, path: str, content: bytes) -> None:
        """Store *content* under *path* (INSERT or UPDATE of the BLOB row)."""

        self._charge_bytes(len(content))
        existing = self._db.select_one(self._table, {"path": path}, lock=False)
        row = {"content": bytes(content), "size": len(content),
               "mtime": self._clock.now()}
        if existing is None:
            row["path"] = path
            self._db.insert(self._table, row)
        else:
            self._db.update(self._table, {"path": path}, row)

    def read(self, path: str) -> bytes:
        """Fetch the content stored under *path* through the SQL layer."""

        row = self._db.select_one(self._table, {"path": path}, lock=False)
        if row is None:
            raise DataLinksError(f"no BLOB file stored under {path!r}")
        self._charge_bytes(row["size"])
        return row["content"]

    def delete(self, path: str) -> None:
        self._db.delete(self._table, {"path": path})

    def exists(self, path: str) -> bool:
        return self._db.select_one(self._table, {"path": path}, lock=False) is not None

    def stat(self, path: str) -> dict:
        row = self._db.select_one(self._table, {"path": path}, lock=False)
        if row is None:
            raise DataLinksError(f"no BLOB file stored under {path!r}")
        return {"size": row["size"], "mtime": row["mtime"]}
