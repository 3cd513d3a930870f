"""``Database.max_key`` across deletes, against a ``max(keys)`` model.

The DLFM allocates ids as ``MAX(key) + 1`` and, since version retention,
deletes rows of the same tables on every archive job.  The cached maximum
must survive a delete below it -- or every next allocation walks the whole
table -- and must never survive the delete of the maximum itself: a stale
maximum hands out an id twice.  Random histories of
inserts, deletes (the current maximum among them), transactions that
commit or abort, and crash + recovery hold the answer to a model that is
only a set of keys; a row-walk counter pins that deleting a lower key
costs no rescan.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.simclock import SimClock
from repro.storage.database import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from tests.conftest import examples

KEYS = st.integers(0, 30)
_STEP = st.one_of(
    st.tuples(st.just("insert"), KEYS),
    st.tuples(st.just("allocate")),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("delete_max")),
    st.tuples(st.just("txn"),
              st.lists(st.tuples(st.sampled_from(["insert", "delete",
                                                  "delete_max"]), KEYS),
                       max_size=4),
              st.booleans()),
    st.tuples(st.just("crash")),
)


def _docs_db() -> Database:
    db = Database("maxkeys", SimClock())
    db.create_table(TableSchema("docs", [
        Column("k", DataType.INTEGER, nullable=False),
        Column("v", DataType.INTEGER),
    ], primary_key=("k",)))
    db.create_index("docs_by_v", "docs", ("v",))
    return db


def _apply(db, keys: set, kind: str, key: int = 0, txn=None) -> None:
    """One statement on *db* and on the model *keys*."""

    if kind == "delete_max":
        if not keys:
            return
        kind, key = "delete", max(keys)
    if kind == "insert":
        if key in keys:
            return
        db.insert("docs", {"k": key, "v": key % 3}, txn)
        keys.add(key)
    else:
        assert db.delete("docs", {"k": key}, txn) == (key in keys)
        keys.discard(key)


class TestMaxKeyAcrossDeletes:
    @given(steps=st.lists(_STEP, max_size=40))
    @examples(150)
    def test_matches_the_key_set_model(self, steps):
        db = _docs_db()
        keys: set = set()
        for step in steps:
            if step[0] == "allocate":
                # The DLFM's id allocation; a stale maximum would collide
                # or skip, and the model check below would say so.
                _apply(db, keys, "insert", (db.max_key("docs") or 0) + 1)
            elif step[0] == "txn":
                txn, scratch = db.begin(), set(keys)
                for kind, key in step[1]:
                    _apply(db, scratch, kind, key, txn)
                    assert db.max_key("docs") == max(scratch, default=None)
                if step[2]:
                    db.commit(txn)
                    keys = scratch
                else:
                    db.abort(txn)
            elif step[0] == "crash":
                db.crash()
                db.recover()
            else:
                _apply(db, keys, *step)
            assert db.max_key("docs") == max(keys, default=None), step

    def test_deleting_below_the_maximum_walks_no_rows(self):
        class CountingRows(dict):
            walks = 0

            def values(self):
                CountingRows.walks += 1
                return super().values()

        db = _docs_db()
        for key in range(50):
            db.insert("docs", {"k": key, "v": key % 3})
        heap = db.catalog.heap("docs")
        heap._rows = CountingRows(heap._rows)
        db._plans.clear()
        assert db.max_key("docs") == 49

        def walks_of(operation) -> tuple:
            before = CountingRows.walks
            operation()
            answer = db.max_key("docs")
            return CountingRows.walks - before, answer

        assert walks_of(lambda: db.delete("docs", {"k": 10})) == (0, 49)
        txn = db.begin()
        db.delete("docs", {"k": 20}, txn)
        db.insert("docs", {"k": 60, "v": 0}, txn)
        db.delete("docs", {"k": 30}, txn)
        assert walks_of(lambda: db.commit(txn)) == (0, 60)
        # The maximum itself leaving forces the one rescan.
        assert walks_of(lambda: db.delete("docs", {"k": 60})) == (1, 49)
        assert walks_of(lambda: None) == (0, 49)
