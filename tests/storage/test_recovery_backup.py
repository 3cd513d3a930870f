"""Crash-recovery and backup/restore tests for the storage engine."""

import pytest

from repro.errors import BackupError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType


def _ids(db, table="people"):
    return sorted(row["person_id"] for row in db.select(table))


class TestCrashRecovery:
    def test_committed_transactions_survive_a_crash(self, people_db):
        txn = people_db.begin()
        people_db.insert("people", {"person_id": 4, "name": "durable"}, txn)
        people_db.commit(txn)
        people_db.crash()
        people_db.recover()
        assert 4 in _ids(people_db)

    def test_uncommitted_flushed_changes_are_undone(self, people_db):
        txn = people_db.begin()
        people_db.insert("people", {"person_id": 5, "name": "loser"}, txn)
        people_db.wal.flush()      # make the loser's records durable
        people_db.crash()
        summary = people_db.recover()
        assert txn.txn_id in summary["losers_undone"]
        assert 5 not in _ids(people_db)

    def test_unflushed_changes_simply_disappear(self, people_db):
        txn = people_db.begin()
        people_db.insert("people", {"person_id": 6, "name": "volatile"}, txn)
        people_db.crash()
        people_db.recover()
        assert 6 not in _ids(people_db)

    def test_update_by_loser_is_rolled_back(self, people_db):
        txn = people_db.begin()
        people_db.update("people", {"person_id": 1}, {"name": "overwritten"}, txn)
        people_db.wal.flush()
        people_db.crash()
        people_db.recover()
        assert people_db.select_one("people", {"person_id": 1})["name"] == "ada"

    def test_recovery_replays_create_table(self, db):
        db.create_table(TableSchema("events", [Column("n", DataType.INTEGER)]))
        db.insert("events", {"n": 1})
        db.crash()
        db.recover()
        assert len(db.select("events", lock=False)) == 1

    def test_recovery_from_checkpoint_plus_tail(self, people_db):
        people_db.checkpoint()
        people_db.insert("people", {"person_id": 7, "name": "after-checkpoint"})
        people_db.crash()
        summary = people_db.recover()
        assert summary["checkpoint_lsn"].value > 0
        assert 7 in _ids(people_db)

    def test_prepared_transaction_survives_as_in_doubt(self, people_db):
        txn = people_db.begin()
        people_db.insert("people", {"person_id": 8, "name": "indoubt"}, txn)
        people_db.prepare(txn)
        people_db.crash()
        summary = people_db.recover()
        assert txn.txn_id in summary["in_doubt"]
        in_doubt = people_db.in_doubt_transactions()
        assert [t.txn_id for t in in_doubt] == [txn.txn_id]
        # the coordinator may later decide to commit it
        people_db.commit_prepared(in_doubt[0])
        assert 8 in _ids(people_db)

    def test_in_doubt_transaction_can_be_aborted_after_recovery(self, people_db):
        txn = people_db.begin()
        people_db.insert("people", {"person_id": 9, "name": "indoubt"}, txn)
        people_db.prepare(txn)
        people_db.crash()
        people_db.recover()
        people_db.abort_prepared(people_db.in_doubt_transactions()[0])
        assert 9 not in _ids(people_db)

    def test_double_crash_recover_is_idempotent(self, people_db):
        txn = people_db.begin()
        people_db.insert("people", {"person_id": 12, "name": "x"}, txn)
        people_db.wal.flush()
        people_db.crash()
        people_db.recover()
        people_db.crash()
        people_db.recover()
        assert 12 not in _ids(people_db)
        assert _ids(people_db) == [1, 2, 3]

    def test_new_transactions_rejected_until_recovery(self, people_db):
        from repro.errors import TransactionNotActive

        people_db.crash()
        with pytest.raises(TransactionNotActive):
            people_db.begin()
        people_db.recover()
        people_db.begin()


class TestBackupRestore:
    def test_restore_returns_to_backup_state(self, people_db):
        image = people_db.backup("baseline")
        people_db.delete("people", {"person_id": 1})
        people_db.insert("people", {"person_id": 40, "name": "later"})
        people_db.restore(image)
        assert _ids(people_db) == [1, 2, 3]

    def test_backup_records_state_identifier(self, people_db):
        image = people_db.backup()
        assert int(image.state_id) == int(people_db.wal.flushed_lsn)

    def test_backup_rejected_with_active_transactions(self, people_db):
        txn = people_db.begin()
        with pytest.raises(BackupError):
            people_db.backup()
        people_db.abort(txn)

    def test_restore_then_crash_recovers_to_restored_state(self, people_db):
        image = people_db.backup()
        people_db.delete("people", {"person_id": 2})
        people_db.restore(image)
        people_db.crash()
        people_db.recover()
        assert 2 in _ids(people_db)

    def test_multiple_backups_restore_out_of_order(self, people_db):
        first = people_db.backup("first")
        people_db.insert("people", {"person_id": 41, "name": "a"})
        second = people_db.backup("second")
        people_db.insert("people", {"person_id": 42, "name": "b"})
        people_db.restore(first)
        assert _ids(people_db) == [1, 2, 3]
        people_db.restore(second)
        assert _ids(people_db) == [1, 2, 3, 41]

    def test_restore_rebuilds_indexes(self, people_db):
        image = people_db.backup()
        people_db.delete("people", {"person_id": 3})
        people_db.restore(image)
        # unique index is consistent: duplicate insert still rejected
        from repro.errors import DuplicateKeyError

        with pytest.raises(DuplicateKeyError):
            people_db.insert("people", {"person_id": 3, "name": "dup"})

    def test_backup_images_listed(self, people_db):
        people_db.backup("one")
        people_db.backup("two")
        labels = [image.label for image in people_db.backups.images()]
        assert labels == ["one", "two"]
        assert people_db.backups.latest().label == "two"
