"""The log folds a quiescent prefix into the checkpoint base, at the real
threshold.

``FOLD_AT`` records in one single-statement insert push a log past the
threshold; the commit's flush finds it quiescent and the database's base
swallows everything up to the tail.  Behind the fold the log must answer
what it answered before -- ``len``, ``records_from`` (or a typed error),
``outcome_of`` -- recovery must start from the base, a prepared branch must
pin the log, and nothing simulated may move: a fold appends no record and
charges nothing.  (``tests/storage/test_row_images.py`` runs the model-based
history across many folds at a small threshold.)
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import LogFoldedError
from repro.simclock import SimClock
from repro.storage import wal as wal_module
from repro.storage.database import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.storage.wal import FOLD_AT, LogRecordType

TABLE = "t"


def _make_db(flush_policy: str = "immediate") -> Database:
    db = Database("db", SimClock(), flush_policy=flush_policy,
                  group_commit_window=4)
    db.create_table(TableSchema(TABLE, [
        Column("k", DataType.INTEGER, nullable=False),
        Column("v", DataType.INTEGER),
    ], primary_key=("k",)))
    db.create_index("t_by_v", TABLE, ("v",))
    return db


def _bulk(db: Database, start: int, count: int = FOLD_AT) -> None:
    """``count`` rows in one statement: ``count`` + 2 records, one flush."""

    db.insert_many(TABLE, [{"k": key, "v": key % 7}
                           for key in range(start, start + count)])


def _state(db: Database) -> dict:
    return {"rows": dict(db.catalog.heap(TABLE).scan()),
            "by_v": {value: db.catalog.index_by_name(TABLE, "t_by_v")
                     .lookup((value,)) for value in range(7)},
            "max_key": db.max_key(TABLE)}


class TestBehindTheFold:
    def test_the_log_folds_and_counts_what_it_folded(self):
        db = _make_db()
        db.insert(TABLE, {"k": -1, "v": 0})
        _bulk(db, 0)
        wal = db.wal
        tail = wal.tail_lsn()
        assert wal.records() == [] and wal.flushed_lsn == tail
        assert len(wal) == int(tail) and len(wal) > FOLD_AT
        assert db.last_checkpoint()["lsn"] == tail
        record = db.wal.append(0, LogRecordType.CHECKPOINT)
        assert record.lsn == tail + 1

    def test_a_suffix_below_the_fold_is_a_typed_error(self):
        db = _make_db()
        _bulk(db, 0)
        wal = db.wal
        tail = wal.tail_lsn()
        assert wal.records_from(tail) == []
        for lsn in (0, 1, tail - 1):
            with pytest.raises(LogFoldedError):
                wal.records_from(lsn)
        db.insert(TABLE, {"k": -1, "v": 0})
        assert [record.type for record in wal.records_from(tail)] == [
            LogRecordType.BEGIN, LogRecordType.INSERT, LogRecordType.COMMIT]

    def test_outcomes_are_answered_across_the_fold(self):
        db = _make_db("group")
        committed = db.begin()
        db.insert(TABLE, {"k": -1, "v": 0}, committed)
        db.commit(committed)
        aborted = db.begin()
        db.insert(TABLE, {"k": -2, "v": 0}, aborted)
        db.abort(aborted)                   # forces the log
        lost = db.begin()
        db.insert(TABLE, {"k": -3, "v": 0}, lost)
        db.commit(lost)                     # still in the group window
        db.crash()
        db.recover()
        ids = range(-1, db._next_txn_id)        # every id handed out so far
        before = {txn_id: db.txn_outcome(txn_id) for txn_id in ids}
        assert (before[committed.txn_id], before[aborted.txn_id],
                before[lost.txn_id]) == ("committed", "aborted", "unknown")
        db.set_flush_policy("immediate")
        _bulk(db, 0)
        assert db.wal.records() == []
        assert {txn_id: db.txn_outcome(txn_id) for txn_id in ids} == before
        assert db.wal.records_of(committed.txn_id) == []

    def test_a_crash_after_a_fold_recovers_from_the_base(self):
        db = _make_db()
        _bulk(db, 0)
        db.update(TABLE, {"k": 5}, {"v": 99})
        db.delete(TABLE, {"k": 6})
        want = _state(db)
        db.crash()
        summary = db.recover()
        assert summary["checkpoint_lsn"] == int(db.last_checkpoint()["lsn"])
        assert summary["redo_records"] == 2
        assert _state(db) == want
        db.insert(TABLE, {"k": -1, "v": 1})
        assert db.select_one(TABLE, {"k": -1})["v"] == 1

    def test_a_crashed_database_takes_no_base(self):
        """``flush_logs`` forces every server's log, a crashed one's too: a
        quiescent log must not fold into the empty catalog a crash leaves."""

        db = _make_db()
        stalled = SimpleNamespace(cursor=0)     # a reader that pins the log

        def listener(wal) -> None:
            pass

        db.wal.add_flush_listener(listener, reader=stalled)
        _bulk(db, 0)
        want = _state(db)
        assert len(db.wal.records()) > FOLD_AT
        db.crash()
        db.wal.remove_flush_listener(listener)
        db.wal.flush()
        assert len(db.wal.records()) > FOLD_AT
        db.recover()
        assert _state(db) == want
        db.wal.flush()                          # recovered: now it folds
        assert db.wal.records() == [] and _state(db) == want

    def test_a_prepared_branch_pins_the_log_until_it_resolves(self):
        db = _make_db()
        branch = db.begin()
        db.insert(TABLE, {"k": -1, "v": 0}, branch)
        db.prepare(branch, {"host_txn_id": 7})
        _bulk(db, 0)
        _bulk(db, FOLD_AT)
        assert len(db.wal.records()) > 2 * FOLD_AT
        db.crash()
        db.recover()
        in_doubt, = db.in_doubt_transactions()
        assert db.wal.records_of(in_doubt.txn_id, durable_only=True)[-1] \
            .type is LogRecordType.PREPARE
        _bulk(db, 2 * FOLD_AT, 10)
        assert len(db.wal.records()) > 2 * FOLD_AT
        db.commit_prepared(in_doubt)
        assert db.wal.records() == []
        assert db.txn_outcome(branch.txn_id) == "committed"
        assert db.select_one(TABLE, {"k": -1}) is not None


def test_a_fold_appends_no_record_and_charges_nothing():
    """The same statements with and without folding: the same LSNs, rows,
    clock ticks and ledger -- and the explicit checkpoint in between keeps
    its record and its one ``log_write``."""

    def run() -> tuple:
        db = _make_db()
        _bulk(db, 0)
        db.update(TABLE, {"v": 3}, {"v": 4})
        db.checkpoint()
        _bulk(db, FOLD_AT)
        db.crash()
        db.recover()
        db.delete(TABLE, {"v": 4})
        return (len(db.wal), db.wal.tail_lsn(), _state(db), db.clock.ticks,
                db.clock.stats.ledger()), len(db.wal.records())

    folding, retained = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wal_module, "FOLD_AT", 10 ** 9)
        kept, everything = run()
    assert folding == kept
    assert retained < FOLD_AT < 2 * FOLD_AT < everything
