"""Transaction objects and their state machine.

The database (see :mod:`repro.storage.database`) owns the transaction life
cycle; this module defines the per-transaction bookkeeping: its state and
the log records written on its behalf -- its data records (the chain used
for rollback) and its PREPARE vote.  A finished transaction runs nothing:
a layer above that owes external work on an outcome reads it from these
records, as it would from the log after a crash.
Two-phase commit is supported through the PREPARED state so a DLFM can act as
a transactional resource manager for the host database, exactly as the paper
describes ("the operations done in DLFM are treated as a sub-transaction of
the host database transaction").
"""

from __future__ import annotations

import enum

from repro.errors import TransactionNotActive
from repro.storage.wal import LogRecord


class TxnState(enum.Enum):
    ACTIVE = "ACTIVE"
    PREPARED = "PREPARED"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


class Transaction:
    """One database transaction."""

    __slots__ = ("txn_id", "state", "records")

    def __init__(self, txn_id: int, state: TxnState = TxnState.ACTIVE,
                 records: list[LogRecord] | None = None):
        self.txn_id = txn_id
        self.state = state
        #: Log records written on the transaction's behalf: its data
        #: records (the undo chain) and its PREPARE.
        self.records = [] if records is None else records

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
        """Remember a log record: a data record for rollback, or the vote."""

        self.records.append(record)
