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
        txn = people_db.begin()
        with pytest.raises(BackupError):
            people_db.backup()
        people_db.commit(txn)
        assert people_db.backup().state_id == people_db.state_identifier()
