"""A small relational storage engine used as the host DBMS and DLFM repository.

This package provides everything the DataLinks reproduction needs from a
relational database: typed tables (including the ``DATALINK`` column type),
strict two-phase locking (no-wait), write-ahead logging, ARIES-style crash
recovery, two-phase-commit participation, and point-in-time backup/restore
keyed by a log sequence number (the paper's "database state identifier").
Locking is no-wait -- a conflict raises at once -- so no transaction waits
and no deadlock can form; the engine offers what the system calls, with no
savepoints and no DROP TABLE.

The public entry point is :class:`repro.storage.database.Database`.
"""

from repro.storage.values import DataType
from repro.storage.schema import Column, TableSchema
from repro.storage.database import Database
from repro.storage.transaction import Transaction, TxnState
from repro.storage.backup import BackupImage

__all__ = [
    "DataType",
    "Column",
    "TableSchema",
    "Database",
    "Transaction",
    "TxnState",
    "BackupImage",
]
