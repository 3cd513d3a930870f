"""Unit tests for transactions: commit, abort, savepoints, two-phase commit."""

import pytest

from repro.errors import PreparedStateError, TransactionNotActive
from repro.storage.transaction import TxnState


class TestCommitAbort:
    def test_committed_changes_are_visible(self, people_db):
        txn = people_db.begin()
        people_db.insert("people", {"person_id": 10, "name": "new"}, txn)
        people_db.commit(txn)
        assert people_db.select_one("people", {"person_id": 10}) is not None

    def test_aborted_insert_disappears(self, people_db):
        txn = people_db.begin()
        people_db.insert("people", {"person_id": 10, "name": "new"}, txn)
        people_db.abort(txn)
        assert people_db.select_one("people", {"person_id": 10}) is None

    def test_aborted_update_restores_before_image(self, people_db):
        txn = people_db.begin()
        people_db.update("people", {"person_id": 1}, {"name": "changed"}, txn)
        people_db.abort(txn)
        assert people_db.select_one("people", {"person_id": 1})["name"] == "ada"

    def test_aborted_delete_restores_row_with_same_rid(self, people_db):
        original = people_db.select_one("people", {"person_id": 2})
        txn = people_db.begin()
        people_db.delete("people", {"person_id": 2}, txn)
        people_db.abort(txn)
        restored = people_db.select_one("people", {"person_id": 2})
        assert restored["_rid"] == original["_rid"]
        assert restored["name"] == "grace"

    def test_abort_restores_index_entries(self, people_db):
        txn = people_db.begin()
        people_db.delete("people", {"person_id": 2}, txn)
        people_db.abort(txn)
        # the pk index must see the restored row again
        assert people_db.select("people", {"person_id": 2}) != []

    def test_operations_on_finished_transaction_fail(self, people_db):
        txn = people_db.begin()
        people_db.commit(txn)
        with pytest.raises(TransactionNotActive):
            people_db.insert("people", {"person_id": 11, "name": "x"}, txn)
        with pytest.raises(TransactionNotActive):
            people_db.abort(txn)

    def test_commit_releases_locks(self, people_db):
        txn = people_db.begin()
        people_db.update("people", {"person_id": 1}, {"age": 1}, txn)
        people_db.commit(txn)
        assert people_db.locks.locks_of(txn.txn_id) == set()

    def test_on_commit_and_on_abort_callbacks(self, people_db):
        events = []
        txn = people_db.begin()
        txn.on_commit.append(lambda: events.append("commit"))
        txn.on_abort.append(lambda: events.append("abort"))
        people_db.commit(txn)
        assert events == ["commit"]

        txn2 = people_db.begin()
        txn2.on_commit.append(lambda: events.append("commit2"))
        txn2.on_abort.append(lambda: events.append("abort2"))
        people_db.abort(txn2)
        assert events == ["commit", "abort2"]


class TestSavepoints:
    def test_rollback_to_savepoint_undoes_later_changes_only(self, people_db):
        txn = people_db.begin()
        people_db.update("people", {"person_id": 1}, {"age": 40}, txn)
        people_db.savepoint(txn, "s1")
        people_db.insert("people", {"person_id": 50, "name": "temp"}, txn)
        people_db.rollback_to_savepoint(txn, "s1")
        people_db.commit(txn)
        assert people_db.select_one("people", {"person_id": 50}) is None
        assert people_db.select_one("people", {"person_id": 1})["age"] == 40

    def test_unknown_savepoint_raises(self, people_db):
        txn = people_db.begin()
        with pytest.raises(TransactionNotActive):
            people_db.rollback_to_savepoint(txn, "missing")
        people_db.abort(txn)

    def test_nested_savepoints(self, people_db):
        txn = people_db.begin()
        people_db.savepoint(txn, "a")
        people_db.insert("people", {"person_id": 60, "name": "one"}, txn)
        people_db.savepoint(txn, "b")
        people_db.insert("people", {"person_id": 61, "name": "two"}, txn)
        people_db.rollback_to_savepoint(txn, "b")
        people_db.commit(txn)
        assert people_db.select_one("people", {"person_id": 60}) is not None
        assert people_db.select_one("people", {"person_id": 61}) is None


class TestTwoPhaseCommit:
    def test_prepare_then_commit(self, people_db):
        txn = people_db.begin()
        people_db.insert("people", {"person_id": 70, "name": "prep"}, txn)
        people_db.prepare(txn)
        assert txn.state is TxnState.PREPARED
        people_db.commit_prepared(txn)
        assert people_db.select_one("people", {"person_id": 70}) is not None

    def test_prepare_then_abort(self, people_db):
        txn = people_db.begin()
        people_db.insert("people", {"person_id": 71, "name": "prep"}, txn)
        people_db.prepare(txn)
        people_db.abort_prepared(txn)
        assert people_db.select_one("people", {"person_id": 71}) is None

    def test_prepared_transaction_keeps_its_locks(self, people_db):
        from repro.errors import LockConflictError

        txn = people_db.begin()
        people_db.update("people", {"person_id": 1}, {"age": 41}, txn)
        people_db.prepare(txn)
        with pytest.raises(LockConflictError):
            people_db.update("people", {"person_id": 1}, {"age": 42})
        people_db.commit_prepared(txn)

    def test_commit_prepared_requires_prepared_state(self, people_db):
        txn = people_db.begin()
        with pytest.raises(PreparedStateError):
            people_db.commit_prepared(txn)
        people_db.abort(txn)

    def test_dml_rejected_after_prepare(self, people_db):
        txn = people_db.begin()
        people_db.prepare(txn)
        with pytest.raises(TransactionNotActive):
            people_db.insert("people", {"person_id": 72, "name": "late"}, txn)
        people_db.abort_prepared(txn)


class TestFinishedTransactionsAreForgotten:
    """The transaction table holds only what can still be looked up:
    active and prepared (in-doubt) transactions."""

    def test_autocommit_statements_leave_the_table_empty(self, people_db):
        for index in range(200):
            people_db.insert("people", {"person_id": 100 + index,
                                        "name": f"p{index}"})
        people_db.update("people", {"person_id": 100}, {"name": "renamed"})
        people_db.delete("people", {"person_id": 101})
        assert people_db._transactions == {}
        assert people_db.active_transactions() == []

    def test_commit_abort_and_commit_many_all_forget(self, people_db):
        committed, aborted = people_db.begin(), people_db.begin()
        people_db.insert("people", {"person_id": 10, "name": "a"}, committed)
        people_db.insert("people", {"person_id": 11, "name": "b"}, aborted)
        batch = [people_db.begin() for _ in range(3)]
        assert len(people_db.active_transactions()) == 5
        people_db.commit(committed)
        people_db.abort(aborted)
        people_db.commit_many(batch)
        assert people_db._transactions == {}
        with pytest.raises(TransactionNotActive):
            people_db.transaction(committed.txn_id)

    def test_prepared_branch_survives_crash_until_resolved(self, people_db):
        txn = people_db.begin()
        people_db.insert("people", {"person_id": 10, "name": "doubt"}, txn)
        people_db.prepare(txn, extra={"host_txn": 7})
        assert people_db.in_doubt_transactions() == [txn]
        people_db.crash()
        people_db.recover()
        in_doubt = people_db.in_doubt_transactions()
        assert [t.txn_id for t in in_doubt] == [txn.txn_id]
        assert people_db.transaction(txn.txn_id) is in_doubt[0]
        people_db.commit_prepared(in_doubt[0])
        assert people_db.in_doubt_transactions() == []
        assert people_db._transactions == {}
        assert people_db.select_one("people", {"person_id": 10}) is not None

    def test_backup_is_still_refused_while_a_transaction_is_active(
            self, people_db):
        from repro.errors import BackupError

        for index in range(20):           # finished ones do not count
            people_db.insert("people", {"person_id": 50 + index, "name": "x"})
        people_db.delete("people", {"person_id": 50})
        people_db.backup()                # right after autocommit statements
        txn = people_db.begin()
        with pytest.raises(BackupError):
            people_db.backup()
        people_db.commit(txn)
        assert people_db.backup().state_id == people_db.state_identifier()


def _people_twin() -> "Database":
    """A fresh ``people`` database (three rows, unique ``name``) on its own
    clock; two calls give bit-identical twins."""

    from repro.simclock import SimClock
    from repro.storage.database import Database
    from repro.storage.schema import Column, TableSchema
    from repro.storage.values import DataType

    db = Database("twin", SimClock())
    db.create_table(TableSchema("people", [
        Column("person_id", DataType.INTEGER, nullable=False),
        Column("name", DataType.TEXT, nullable=False),
        Column("age", DataType.INTEGER),
    ], primary_key=("person_id",)))
    db.create_index("people_name", "people", ("name",), unique=True)
    for person_id, name in ((1, "ada"), (2, "grace"), (3, "edsger")):
        db.insert("people", {"person_id": person_id, "name": name, "age": 30})
    return db


def _observable_state(db) -> dict:
    """Everything a failed statement could have disturbed."""

    records = db.wal.records()
    heap = db.catalog.heap("people")
    # Through the index API: what each row's key finds, and the entry
    # count, which catches an entry under a key that no row holds.
    return {
        "heap": heap.snapshot(),
        "indexes": {index.name: (len(index), [
            sorted(index.lookup([row[column] for column in index.columns]))
            for _, row in heap.scan()])
            for index in db.catalog.indexes_of("people")},
        "max_key": db.max_key("people"),
        "wal": [(int(r.lsn), r.txn_id, r.type, r.table, r.rid, r.before,
                 r.after, {key: value for key, value in r.extra.items()
                           if key != "schema"}) for r in records],
        "flushed": db.wal.flushed_lsn == db.wal.tail_lsn(),
        "ledger": db.clock.stats.ledger(),
        "ticks": db.clock.ticks,
        "locks": {resource: dict(holders)
                  for resource, holders in db.locks._holders.items()},
        "waits": dict(db.locks._waits_for),
        "transactions": sorted(db._transactions),
    }


class TestSingleStatementTransactions:
    """A write without ``txn`` is BEGIN / statement / COMMIT with no
    transaction object and no lock taken; every failure must leave exactly
    what explicit ``begin`` / statement / ``abort`` leaves."""

    @staticmethod
    def _hold_key_10(db):
        """An open transaction holding key 10's lock but no row."""

        holder = db.begin()
        db.insert("people", {"person_id": 10, "name": "tmp"}, holder)
        db.delete("people", {"person_id": 10}, holder)

    @staticmethod
    def _hold_row_3(db):
        db.update("people", {"person_id": 3}, {"age": 31}, db.begin())

    #: name -> (set-up, statement); the statement must fail after BEGIN.
    CASES = {
        "duplicate primary key": (None, lambda db, txn: db.prepare_insert(
            "people")({"person_id": 2, "name": "new"}, txn=txn)),
        "duplicate unique secondary key": (None, lambda db, txn: db.insert(
            "people", {"person_id": 9, "name": "grace"}, txn)),
        "key lock held by an open transaction": (
            "_hold_key_10", lambda db, txn: db.prepare_insert("people")(
                {"person_id": 10, "name": "new"}, txn=txn)),
        "delete of a locked row": (
            "_hold_row_3", lambda db, txn: db.prepare_delete(
                "people", ("person_id",))(3, txn=txn)),
        "multi-row delete reaching a locked row": (
            "_hold_row_3", lambda db, txn: db.delete("people", None, txn)),
        "multi-row update reaching a duplicate key": (
            None, lambda db, txn: db.prepare_update("people")(
                {"name": "same"}, txn=txn)),
        "multi-row insert reaching a duplicate key": (
            None, lambda db, txn: db.insert_many("people", [
                {"person_id": 60, "name": "ok"},
                {"person_id": 60, "name": "dup"}], txn)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_failure_equals_explicit_begin_statement_abort(self, case):
        from repro.errors import DuplicateKeyError, LockConflictError

        setup, statement = self.CASES[case]
        outcomes = []
        for explicit in (False, True):
            db = _people_twin()
            if setup:
                getattr(self, setup)(db)
            txn = db.begin() if explicit else None
            with pytest.raises((DuplicateKeyError, LockConflictError)) as info:
                statement(db, txn)
            if explicit:
                db.abort(txn)
            state = _observable_state(db)
            assert state["wal"][-1][2].value == "ABORT" and state["flushed"]
            outcomes.append((type(info.value), state))
        assert outcomes[0] == outcomes[1]
        if case.startswith("multi-row"):
            # The rows finished before the failure were undone.
            types = [entry[2].value for entry in outcomes[0][1]["wal"]]
            tail = types[len(types) - 1 - types[::-1].index("BEGIN"):]
            undone = tail.count("CLR")
            assert undone >= 1 and tail == (
                ["BEGIN"] + [case.split()[1].upper()] * undone
                + ["CLR"] * undone + ["ABORT"])

    def test_success_matches_explicit_commit_and_holds_nothing(self):
        outcomes = []
        for explicit in (False, True):
            db = _people_twin()
            txn = db.begin() if explicit else None
            db.insert("people", {"person_id": 7, "name": "new"}, txn)
            if explicit:
                db.commit(txn)
            db.update("people", {"person_id": 7}, {"age": 1})
            db.delete("people", {"name": "ada"})
            outcomes.append(_observable_state(db))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0]["locks"] == {} and outcomes[0]["transactions"] == []

    def test_handles_survive_ddl_crash_restore_and_catalog_reset(self, people_db):
        db = people_db
        by_age = db.prepare_select("people", ("age",))
        by_id = db.prepare_select("people", ("person_id",))
        insert = db.prepare_insert("people")

        def check(expect_ids):
            assert sorted(row["person_id"] for row in by_age(36)) == expect_ids
            assert [row["name"] for row in by_id(1)] == ["ada"]
            assert by_id(999) == []

        check([1])
        db.create_index("people_age", "people", ("age",))
        assert by_age.index is None          # resolved before the DDL ...
        check([1])
        assert by_age.index.name == "people_age"     # ... re-resolved by it
        insert({"person_id": 4, "name": "twin", "age": 36})
        check([1, 4])
        image = db.backup("with 4")
        db.crash()
        db.recover()
        check([1, 4])
        insert({"person_id": 5, "name": "late", "age": 36})
        check([1, 4, 5])
        for index in db.catalog.indexes_of("people"):
            assert len(index) == 5
        db.restore(image)
        check([1, 4])
        insert({"person_id": 5, "name": "again", "age": 36})
        check([1, 4, 5])
        db.reset_catalog()
        from repro.errors import NoSuchTableError
        with pytest.raises(NoSuchTableError):
            by_id(1)
        db.recover()                         # redo from the restore checkpoint
        check([1, 4, 5])

    def test_flush_listener_sees_one_durable_batch_per_policy(self, people_db):
        from repro.storage.wal import FlushPolicy

        db = people_db
        batches = []
        cursor = [db.wal.flushed_lsn]

        def ship(wal):
            records = wal.records_from(cursor[0])
            cursor[0] = wal.flushed_lsn
            batches.append([record.type.value for record in records])

        db.wal.add_flush_listener(ship)
        db.insert("people", {"person_id": 20, "name": "immediate"})
        assert batches == [["BEGIN", "INSERT", "COMMIT"]]
        del batches[:]
        db.set_flush_policy(FlushPolicy.GROUP, group_commit_window=3)
        log_writes = db.clock.stats.count("log_write")
        for person_id in (21, 22):
            db.insert("people", {"person_id": person_id, "name": "grouped"})
        assert batches == [] and db.wal.pending_commits == 2
        assert db.clock.stats.count("log_write") == log_writes
        db.insert("people", {"person_id": 23, "name": "grouped"})
        assert batches == [["BEGIN", "INSERT", "COMMIT"] * 3]
        assert db.clock.stats.count("log_write") == log_writes + 1
