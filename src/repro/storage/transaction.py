"""Transaction objects and their state machine.

The database (see :mod:`repro.storage.database`) owns the transaction life
cycle; this module defines the per-transaction bookkeeping: state, the chain
of log records written on its behalf (used for rollback), and savepoints.
Two-phase commit is supported through the PREPARED state so a DLFM can act as
a transactional resource manager for the host database, exactly as the paper
describes ("the operations done in DLFM are treated as a sub-transaction of
the host database transaction").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import TransactionNotActive
from repro.storage.wal import LogRecord


class TxnState(enum.Enum):
    ACTIVE = "ACTIVE"
    PREPARED = "PREPARED"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


@dataclass
class Savepoint:
    """Marks a position in the transaction's undo chain."""

    name: str
    record_count: int


class Transaction:
    """One database transaction."""

    __slots__ = ("txn_id", "state", "records", "savepoints", "on_commit",
                 "on_abort")

    def __init__(self, txn_id: int, state: TxnState = TxnState.ACTIVE,
                 records: list[LogRecord] | None = None):
        self.txn_id = txn_id
        self.state = state
        #: Data log records written on the transaction's behalf (undo chain).
        self.records = [] if records is None else records
        self.savepoints: list[Savepoint] = []
        # Callbacks run after commit / after abort (used by higher layers to
        # release external resources such as file ownership).
        self.on_commit: list = []
        self.on_abort: list = []

    @property
    def is_finished(self) -> bool:
        return self.state in (TxnState.COMMITTED, TxnState.ABORTED)

    def require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionNotActive(
                f"transaction {self.txn_id} is {self.state.value}, not ACTIVE")

    def require_active_or_prepared(self) -> None:
        if self.state not in (TxnState.ACTIVE, TxnState.PREPARED):
            raise TransactionNotActive(
                f"transaction {self.txn_id} is {self.state.value}")

    # -- undo chain -------------------------------------------------------------
    def note_record(self, record: LogRecord) -> None:
        """Remember a data log record for potential rollback."""

        self.records.append(record)

    def add_savepoint(self, name: str) -> Savepoint:
        savepoint = Savepoint(name=name, record_count=len(self.records))
        self.savepoints.append(savepoint)
        return savepoint

    def find_savepoint(self, name: str) -> Savepoint | None:
        for savepoint in reversed(self.savepoints):
            if savepoint.name == name:
                return savepoint
        return None

    def drop_savepoints_after(self, savepoint: Savepoint) -> None:
        while self.savepoints and self.savepoints[-1] is not savepoint:
            self.savepoints.pop()
