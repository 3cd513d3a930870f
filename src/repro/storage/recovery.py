"""ARIES-style crash recovery: analysis, redo, undo.

Recovery starts from the database's checkpoint base -- the snapshot its last
explicit checkpoint or its last fold of the log took (see
:mod:`repro.storage.wal`) -- plus the log suffix the WAL retains, and is a
faithful (if simplified) ARIES over them: rebuild volatile state from the
base, redo every durable record after the base LSN, classify the
transactions of the retained suffix, then undo the losers while writing
compensation records.  Nothing folded is needed: a fold happens only when no
transaction is open, so every loser and every in-doubt branch has all its
records in the suffix, and the summary's transaction lists are the suffix's
(relative to the base, not to the start of time).  Transactions that voted
PREPARE but had not been resolved at crash time are *in doubt*: their
effects are preserved and their locks re-acquired so the two-phase-commit
coordinator (the DataLinks engine) can later commit or abort them -- this is
what lets a DLFM act as a recoverable resource manager.
"""

from __future__ import annotations

from repro.storage.lock_manager import LockMode
from repro.storage.transaction import Transaction, TxnState
from repro.storage.wal import LogRecordType
from repro.util.lsn import LSN


class RecoveryManager:
    """Runs crash recovery against one :class:`~repro.storage.database.Database`."""

    def __init__(self, database):
        self._db = database

    # -- top level ---------------------------------------------------------------
    def recover(self) -> dict:
        """Perform analysis/redo/undo; returns a summary dict for inspection."""

        db = self._db
        checkpoint_lsn = self._load_checkpoint()
        durable = db.wal.records(durable_only=True)

        redo_count = self._redo(durable, checkpoint_lsn)
        committed, aborted, in_doubt, losers, max_txn_id = \
            self._analyze(durable)
        undo_count = self._undo_losers(durable, losers)
        self._reinstate_in_doubt(durable, in_doubt)

        db.catalog.rebuild_indexes()
        db.wal.flush()
        return {
            "checkpoint_lsn": checkpoint_lsn,
            "redo_records": redo_count,
            "committed": sorted(committed),
            "aborted": sorted(aborted),
            "in_doubt": sorted(in_doubt),
            "losers_undone": sorted(losers),
            "undo_records": undo_count,
            # Transaction ids restart past this (``Database.recover``).
            "max_txn_id": max_txn_id,
        }

    # -- phases -------------------------------------------------------------------
    def _load_checkpoint(self) -> LSN:
        db = self._db
        checkpoint = db.last_checkpoint()
        if checkpoint is None:
            db.reset_catalog()
            return LSN(0)
        db.catalog.load_snapshot(checkpoint["snapshot"])
        return checkpoint["lsn"]

    def _redo(self, durable, checkpoint_lsn: LSN) -> int:
        db = self._db
        count = 0
        for record in durable:
            if record.lsn <= checkpoint_lsn:
                continue
            if record.type is LogRecordType.CREATE_TABLE:
                schema = record.extra["schema"]
                if not db.catalog.has_table(schema.name):
                    db.catalog.create_table(schema.copy())
            elif record.type in (LogRecordType.INSERT, LogRecordType.UPDATE,
                                 LogRecordType.DELETE, LogRecordType.CLR):
                self._apply_redo(record)
            else:
                continue
            count += 1
        return count

    def _apply_redo(self, record) -> None:
        db = self._db
        if record.table is None or not db.catalog.has_table(record.table):
            return
        heap = db.catalog.heap(record.table)
        effective_type = record.type
        if record.type is LogRecordType.CLR:
            effective_type = LogRecordType(record.extra["redo_as"])
        if effective_type is LogRecordType.INSERT:
            heap.insert(record.after, rid=record.rid)
        elif effective_type is LogRecordType.UPDATE:
            if heap.exists(record.rid):
                heap.update(record.rid, record.after)
            else:
                heap.insert(record.after, rid=record.rid)
        elif effective_type is LogRecordType.DELETE:
            if heap.exists(record.rid):
                heap.delete(record.rid)

    def _analyze(self, durable):
        committed: set[int] = set()
        aborted: set[int] = set()
        prepared: set[int] = set()
        seen: set[int] = set()
        for record in durable:
            seen.add(record.txn_id)
            if record.type is LogRecordType.COMMIT:
                committed.add(record.txn_id)
                prepared.discard(record.txn_id)
            elif record.type is LogRecordType.ABORT:
                aborted.add(record.txn_id)
                prepared.discard(record.txn_id)
            elif record.type is LogRecordType.PREPARE:
                prepared.add(record.txn_id)
        in_doubt = prepared - committed - aborted
        losers = seen - committed - aborted - in_doubt
        # Transaction id 0 is the system/bootstrap pseudo-transaction.
        losers.discard(0)
        return committed, aborted, in_doubt, losers, max(seen, default=0)

    def _undo_losers(self, durable, losers: set[int]) -> int:
        db = self._db
        count = 0
        compensated: set[int] = set()
        for record in durable:
            if record.type is LogRecordType.CLR and "undone_lsn" in record.extra:
                compensated.add(record.extra["undone_lsn"])
        for record in reversed(durable):
            if record.txn_id not in losers:
                continue
            if record.type not in (LogRecordType.INSERT, LogRecordType.UPDATE,
                                   LogRecordType.DELETE):
                continue
            if record.lsn.value in compensated:
                continue
            db.apply_undo(record, during_recovery=True)
            count += 1
        for txn_id in losers:
            db.wal.append(txn_id, LogRecordType.ABORT)
        return count

    def _reinstate_in_doubt(self, durable, in_doubt: set[int]) -> None:
        db = self._db
        for txn_id in sorted(in_doubt):
            transaction = Transaction(txn_id=txn_id, state=TxnState.PREPARED)
            for record in durable:
                if record.txn_id != txn_id:
                    continue
                if record.type in (LogRecordType.INSERT, LogRecordType.UPDATE,
                                   LogRecordType.DELETE, LogRecordType.PREPARE):
                    transaction.note_record(record)
                    if record.table is not None:    # the vote locks nothing
                        db.locks.acquire(txn_id, ("row", record.table,
                                                  record.rid),
                                         LockMode.EXCLUSIVE)
            db.register_recovered_transaction(transaction)
