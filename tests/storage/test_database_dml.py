"""Unit tests for the database DML layer (insert/select/update/delete)."""

import pytest

from repro.errors import (
    DuplicateKeyError,
    LockConflictError,
    NoSuchColumnError,
    NoSuchTableError,
    NullViolationError,
    TableExistsError,
)
from repro.storage.lock_manager import LockMode
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType


class TestDDL:
    def test_create_table(self, db):
        db.create_table(TableSchema("t", [Column("a", DataType.INTEGER)]))
        assert db.catalog.has_table("t")

    def test_duplicate_table_rejected(self, db):
        db.create_table(TableSchema("t", [Column("a", DataType.INTEGER)]))
        with pytest.raises(TableExistsError):
            db.create_table(TableSchema("t", [Column("a", DataType.INTEGER)]))

    def test_unknown_table_rejected(self, db):
        with pytest.raises(NoSuchTableError):
            db.select("missing")

    def test_primary_key_creates_unique_index(self, people_db):
        index = people_db.catalog.index_by_name("people", "people_pk")
        assert index is not None and index.unique

    def test_every_column_type_round_trips(self, db):
        db.create_table(TableSchema("t", [
            Column("id", DataType.INTEGER, nullable=False),
            Column("score", DataType.REAL),
            Column("label", DataType.TEXT),
            Column("flag", DataType.BOOLEAN),
            Column("payload", DataType.BLOB),
            Column("seen", DataType.TIMESTAMP),
        ], primary_key=("id",)))
        assert db.catalog.schema("t").primary_key == ("id",)
        row = {"id": 1, "score": 2.5, "label": "x", "flag": False,
               "payload": b"\x00\xff", "seen": 12.25}
        db.insert("t", row)
        stored = db.select_one("t", {"id": 1})
        del stored["_rid"]
        assert stored == row
        assert [type(stored[name]) for name in row] == \
            [int, float, str, bool, bytes, float]


class TestInsertSelect:
    def test_insert_returns_rid_and_select_finds_row(self, people_db):
        rid = people_db.insert("people", {"person_id": 4, "name": "barbara"})
        rows = people_db.select("people", {"person_id": 4})
        assert rows[0]["_rid"] == rid
        assert rows[0]["name"] == "barbara"

    def test_duplicate_primary_key_rejected(self, people_db):
        with pytest.raises(DuplicateKeyError):
            people_db.insert("people", {"person_id": 1, "name": "dup"})

    def test_not_null_enforced_on_insert(self, people_db):
        with pytest.raises(NullViolationError):
            people_db.insert("people", {"person_id": 9})

    def test_select_all(self, people_db):
        assert len(people_db.select("people")) == 3

    def test_select_with_dict_where(self, people_db):
        rows = people_db.select("people", {"name": "grace"})
        assert [r["person_id"] for r in rows] == [2]

    def test_select_with_callable_where(self, people_db):
        rows = people_db.select("people", lambda r: r["age"] > 40)
        assert sorted(r["name"] for r in rows) == ["edsger", "grace"]

    def test_select_returns_every_column(self, people_db):
        rows = people_db.select("people", {"person_id": 2})
        assert [{key: value for key, value in row.items() if key != "_rid"}
                for row in rows] == \
            [{"person_id": 2, "name": "grace", "age": 45, "active": True}]

    def test_nullable_column_reads_none_when_omitted_or_none(self, people_db):
        people_db.insert("people", {"person_id": 20, "name": "x"})
        people_db.insert("people", {"person_id": 21, "name": "y", "age": None})
        assert [people_db.select_one("people", {"person_id": person_id})["age"]
                for person_id in (20, 21)] == [None, None]
        assert len(people_db.select("people", {"age": None})) == 2

    def test_text_is_stored_verbatim(self, people_db):
        names = ["o'brien", 'say "hi"', "", "x'; DELETE FROM people; --"]
        for person_id, name in enumerate(names, start=10):
            people_db.insert("people", {"person_id": person_id, "name": name})
        assert [people_db.select_one("people", {"name": name})["person_id"]
                for name in names] == [10, 11, 12, 13]
        assert len(people_db.select("people")) == 3 + len(names)

    def test_dict_where_is_a_conjunction_of_equalities(self, people_db):
        assert len(people_db.select("people", {"name": "ada", "age": 36})) == 1
        assert people_db.select("people", {"name": "ada", "age": 45}) == []
        assert len(people_db.select("people", {"active": True})) == 3

    @pytest.mark.parametrize("predicate, names", [
        (lambda r: r["name"] != "ada", ["edsger", "grace"]),
        (lambda r: 45 <= r["age"] < 72, ["grace"]),
        (lambda r: r["age"] >= 36 and not r["name"] == "edsger",
         ["ada", "grace"]),
        (lambda r: r["name"] == "ada" or r["name"] == "edsger",
         ["ada", "edsger"]),
        (lambda r: "ds" in r["name"], ["edsger"]),
    ], ids=["not_equal", "range", "and_not", "or", "substring"])
    def test_callable_where_is_any_row_predicate(self, people_db, predicate,
                                                 names):
        rows = people_db.select("people", predicate)
        assert sorted(r["name"] for r in rows) == names

    def test_dict_where_on_the_primary_key_probes_its_index(self, people_db):
        stats = people_db.clock.stats
        before = stats.count("index_probe")
        assert [r["name"] for r in people_db.select(
            "people", {"person_id": 2})] == ["grace"]
        assert stats.count("index_probe") == before + 1
        before = stats.count("index_probe")
        assert [r["name"] for r in people_db.select(
            "people", {"age": 45})] == ["grace"]
        assert stats.count("index_probe") == before

    def test_select_one_returns_none_when_missing(self, people_db):
        assert people_db.select_one("people", {"person_id": 99}) is None

    def test_internal_rid_key_stripped_on_insert(self, people_db):
        row = people_db.select_one("people", {"person_id": 1})
        row["person_id"] = 10
        people_db.insert("people", row)   # "_rid" key must be ignored
        assert people_db.select_one("people", {"person_id": 10})["name"] == "ada"


class TestUpdateDelete:
    def test_update_changes_matching_rows(self, people_db):
        touched = people_db.update("people", {"name": "ada"}, {"age": 37})
        assert touched == 1
        assert people_db.select_one("people", {"name": "ada"})["age"] == 37

    def test_update_rejects_pk_duplicate(self, people_db):
        with pytest.raises(DuplicateKeyError):
            people_db.update("people", {"person_id": 1}, {"person_id": 2})

    def test_delete_removes_rows(self, people_db):
        removed = people_db.delete("people", lambda r: r["age"] > 40)
        assert removed == 2
        assert len(people_db.select("people")) == 1

    def test_update_and_delete_count_every_matching_row(self, people_db):
        assert people_db.update("people", {"active": True}, {"age": 50}) == 3
        assert people_db.update("people", lambda r: r["name"] < "f",
                                {"active": False}) == 2
        assert len(people_db.select("people",
                                    {"active": False, "age": 50})) == 2
        assert people_db.delete("people", {"active": False}) == 2
        assert people_db.delete("people", {"active": False}) == 0
        assert [r["name"] for r in people_db.select("people")] == ["grace"]

    def test_update_maintains_pk_index(self, people_db):
        people_db.update("people", {"person_id": 3}, {"person_id": 30})
        assert people_db.select_one("people", {"person_id": 30}) is not None
        assert people_db.select_one("people", {"person_id": 3}) is None


class TestRowLocking:
    def test_writers_block_writers(self, people_db):
        txn1 = people_db.begin()
        people_db.update("people", {"person_id": 1}, {"age": 40}, txn1)
        txn2 = people_db.begin()
        with pytest.raises(LockConflictError):
            people_db.update("people", {"person_id": 1}, {"age": 50}, txn2)
        people_db.commit(txn1)
        # after commit the lock is released and txn2 can retry
        assert people_db.update("people", {"person_id": 1}, {"age": 50}, txn2) == 1
        people_db.commit(txn2)

    def test_readers_share_and_block_writers(self, people_db):
        txn1 = people_db.begin()
        txn2 = people_db.begin()
        people_db.select("people", {"person_id": 1}, txn1)
        people_db.select("people", {"person_id": 1}, txn2)   # shared is fine
        txn3 = people_db.begin()
        with pytest.raises(LockConflictError):
            people_db.update("people", {"person_id": 1}, {"age": 1}, txn3)
        for txn in (txn1, txn2, txn3):
            people_db.abort(txn)

    def test_select_for_update_takes_exclusive_lock(self, people_db):
        txn1 = people_db.begin()
        people_db.select("people", {"person_id": 2}, txn1, for_update=True)
        rid = people_db.select_one("people", {"person_id": 2}, lock=False)["_rid"]
        assert people_db.locks.holds(txn1.txn_id, ("row", "people", rid),
                                     LockMode.EXCLUSIVE)
        people_db.commit(txn1)

    def test_unlocked_select_takes_no_locks(self, people_db):
        txn = people_db.begin()
        people_db.select("people", {"person_id": 1}, txn, lock=False)
        assert people_db.locks.locks_of(txn.txn_id) == set()
        people_db.commit(txn)

    def test_failed_autocommit_statement_rolls_back(self, people_db):
        # blocking lock held by txn1 makes the autocommit update fail...
        txn1 = people_db.begin()
        people_db.update("people", {"person_id": 1}, {"age": 99}, txn1)
        with pytest.raises(LockConflictError):
            people_db.update("people", {"person_id": 1}, {"age": 100})
        people_db.abort(txn1)
        # ...and leaves no partial change behind
        assert people_db.select_one("people", {"person_id": 1})["age"] == 36


class TestUnknownWhereColumn:
    """A ``where`` that binds a column the table does not have is refused,
    like ``insert`` and ``changes=`` always were -- it used to match nothing
    (a typo'd update or delete was a silent no-op)."""

    @pytest.mark.parametrize("statement", [
        lambda db: db.select("people", {"zzz": 0}),
        lambda db: db.select_one("people", {"person_id": 1, "zzz": 0}),
        lambda db: db.update("people", {"zzz": 0}, {"age": 1}),
        lambda db: db.delete("people", {"zzz": 0}),
        lambda db: db.prepare_select("people", ("zzz",)),
        lambda db: db.prepare_update("people", ("zzz",)),
        lambda db: db.prepare_delete("people", ("person_id", "zzz")),
    ], ids=["select", "select_one", "update", "delete", "prepare_select",
            "prepare_update", "prepare_delete"])
    def test_every_statement_kind_refuses_it(self, people_db, statement):
        with pytest.raises(NoSuchColumnError, match="zzz"):
            statement(people_db)
        assert len(people_db.select("people")) == 3

    def test_a_handle_outlives_its_column_and_says_so(self, db):
        # A schema changes only when the catalog is replaced: a restore.
        empty = db.backup("empty")
        db.create_table(TableSchema("people", [
            Column("person_id", DataType.INTEGER, nullable=False),
            Column("age", DataType.INTEGER),
        ], primary_key=("person_id",)))
        db.insert("people", {"person_id": 2, "age": 45})
        by_age = db.prepare_select("people", ("age",))
        assert [row["person_id"] for row in by_age(45)] == [2]
        db.restore(empty)
        db.create_table(TableSchema("people", [
            Column("person_id", DataType.INTEGER, nullable=False),
            Column("name", DataType.TEXT, nullable=False),
        ], primary_key=("person_id",)))
        with pytest.raises(NoSuchColumnError, match="age"):
            by_age(45)
        db.insert("people", {"person_id": 1, "name": "ada"})
        by_id = db.prepare_select("people", ("person_id",))
        assert [row["name"] for row in by_id(1)] == ["ada"]


class TestUnsupportedWhere:
    """A ``where`` is ``None``, a dict or a callable; any other shape --
    SQL text included -- is refused before the statement touches a row."""

    @pytest.mark.parametrize("where", [["person_id", 1], "person_id = 1"],
                             ids=["list", "sql_text"])
    @pytest.mark.parametrize("statement", [
        lambda db, where: db.select("people", where),
        lambda db, where: db.select_one("people", where),
        lambda db, where: db.update("people", where, {"age": 1}),
        lambda db, where: db.delete("people", where),
    ], ids=["select", "select_one", "update", "delete"])
    def test_every_statement_kind_refuses_it(self, people_db, statement,
                                             where):
        before = people_db.select("people")
        with pytest.raises(TypeError, match="unsupported where"):
            statement(people_db, where)
        assert people_db.select("people") == before
