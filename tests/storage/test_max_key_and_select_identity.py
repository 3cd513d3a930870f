"""What ``storage/`` owes its callers for key maxima and equality selects.

:meth:`Database.max_key` (the DLFM's id allocation) is the only path,
charged at constant cost, and is checked here against a brute-force maximum
and a fixed charge ledger.  A dict ``where`` is one prepared statement,
checked against a predicate scan written in the test: same rows, same
order, same per-label ledger and clock ticks.
"""

from __future__ import annotations

import random

import pytest

from repro.simclock import SimClock
from repro.storage.database import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType


def _stats_cells(stats) -> dict:
    """``{label: (count, ticks)}`` -- exact integers."""

    return stats.ledger()


def _make_docs_db(clock=None) -> Database:
    db = Database("fastpaths", clock if clock is not None else SimClock())
    db.create_table(TableSchema("docs", [
        Column("k", DataType.INTEGER, nullable=False),
        Column("v", DataType.INTEGER),
        Column("w", DataType.INTEGER),
    ], primary_key=("k",)))
    db.create_index("docs_by_v", "docs", ("v",))
    return db


class TestMaxKey:
    """``max_key``: brute-force value, constant charges, tracker validity.

    The value is served from a cached maximum keyed to the heap's mutation
    counter; it must equal a brute-force maximum over the live rows across
    arbitrary mutations -- including ones that bypass the Database facade
    entirely (direct heap inserts, the way replication redo lands rows).
    The charge is what a DBMS pays for ``MAX`` over an indexed key and
    must not depend on the table size.
    """

    def _program(self, seed: int):
        rng = random.Random(seed)
        # Keys arrive out of order, so the maximum is not simply the last
        # insert: facade inserts draw even keys, bypassing ones odd keys.
        even = rng.sample(range(0, 2000, 2), 150)
        odd = rng.sample(range(1, 2000, 2), 150)
        ops = []
        deletable = []
        for step in range(150):
            action = rng.randrange(8)
            if action < 4:
                ops.append(("insert", even[step]))
                deletable.append(even[step])
            elif action == 4 and deletable:
                # Half the deletes take the largest facade key, which
                # lowers the answer whenever it was the overall maximum.
                victim = max(deletable) if rng.random() < 0.5 \
                    else deletable[rng.randrange(len(deletable))]
                deletable.remove(victim)
                ops.append(("delete", victim))
            elif action == 5:
                # A redo-style mutation that bypasses the Database facade:
                # the heap sees it, the statement layer never does.
                ops.append(("bypass", odd[step]))
            else:
                ops.append(("probe",))
        ops.append(("probe",))
        return ops

    @pytest.mark.parametrize("seed", [11, 20260807, 555001])
    def test_matches_brute_force_maximum(self, seed):
        db = _make_docs_db()
        live = set()
        for op in self._program(seed):
            if op[0] == "insert":
                db.insert("docs", {"k": op[1], "v": op[1] % 11, "w": None})
                live.add(op[1])
            elif op[0] == "delete":
                db.delete("docs", {"k": op[1]})
                live.discard(op[1])
            elif op[0] == "bypass":
                db._plan("docs").heap.insert({"k": op[1], "v": 0, "w": None})
                live.add(op[1])
            else:
                assert db.max_key("docs") == (max(live) if live else None)

    @pytest.mark.parametrize("rows", [0, 1, 40, 400])
    def test_charge_is_constant_in_table_size(self, rows):
        db = _make_docs_db()
        costs = db.clock.costs
        for key in range(rows):
            db.insert("docs", {"k": key, "v": key, "w": None})
        before, started = _stats_cells(db.clock.stats), db.clock.now()
        assert db.max_key("docs") == (rows - 1 if rows else None)
        after = _stats_cells(db.clock.stats)
        moved = {label: (cell[0] - before.get(label, (0, 0.0))[0])
                 for label, cell in after.items()
                 if cell != before.get(label)}
        assert moved == {"sql_statement_base": 1, "index_probe": 1,
                         "row_read": 1}
        assert db.clock.now() - started == pytest.approx(
            costs.sql_statement_base + costs.index_probe + costs.row_read)

    def test_needs_a_single_column_primary_key(self):
        db = Database("fastpaths", SimClock())
        db.create_table(TableSchema("pairs", [
            Column("a", DataType.INTEGER, nullable=False),
            Column("b", DataType.INTEGER, nullable=False),
        ], primary_key=("a", "b")))
        with pytest.raises(ValueError):
            db.max_key("pairs")

    def test_warm_tracker_survives_facade_inserts(self):
        db = _make_docs_db(SimClock())
        for key in range(20):
            db.insert("docs", {"k": key * 3, "v": key, "w": None})
        assert db.max_key("docs") == 57
        # Facade inserts keep the tracker warm incrementally ...
        db.insert("docs", {"k": 900, "v": 100, "w": None})
        assert db.max_key("docs") == 900
        # ... and a bypassing heap mutation forces the rescan.
        db._plan("docs").heap.insert({"k": 1234, "v": 200, "w": None})
        assert db.max_key("docs") == 1234

    def test_tracker_invalidated_by_crash_recovery(self):
        # A crash rebuilds the catalog with fresh heaps whose mutation
        # counters restart at zero; a tracker taken before the crash must
        # not validate against the new heap's coincidentally equal count
        # (the bug showed up as duplicate token-entry ids after failover).
        # Here the crash loses an uncommitted key 99, and one insert after
        # recovery brings the new heap to the same count of two mutations.
        db = _make_docs_db(SimClock())
        db.insert("docs", {"k": 10, "v": 1, "w": None})
        txn = db.begin()
        db.insert("docs", {"k": 99, "v": 2, "w": None}, txn)
        assert db.max_key("docs") == 99
        db.crash()
        db.recover()
        db.insert("docs", {"k": 20, "v": 2, "w": None})
        assert db.max_key("docs") == 20

    def test_tracker_invalidated_by_restore(self):
        db = _make_docs_db(SimClock())
        db.insert("docs", {"k": 10, "v": 1, "w": None})
        image = db.backup("before")
        db.insert("docs", {"k": 99, "v": 2, "w": None})
        assert db.max_key("docs") == 99
        db.restore(image)
        db.insert("docs", {"k": 20, "v": 2, "w": None})
        assert db.max_key("docs") == 20


class TestPointSelectIdentity:
    """A dict ``where`` is one prepared statement, whatever its access path.

    Seeded property test against a reference written here: the same
    equality conjunction as a Python predicate, which the database can
    only answer by scanning the heap.  The dict form must return the same
    rows in the same order and leave the same per-label ledger and clock
    ticks, plus the ``index_probe`` a complete primary key owes --
    enumerating candidates through any other index is free.
    """

    _WHERE_SHAPES = (
        {"k": 3},            # single-PK hit
        {"k": 999},          # single-PK miss
        {"v": 6},            # secondary-index bucket (duplicates)
        {"v": -1},           # secondary-index miss
        {"w": 2},            # unindexed column: heap scan
        {"k": 3, "v": 9},    # primary key plus a residual column
        None,                # full scan
        {},                  # empty where: full scan
        {"w": 2, "x": 1},    # composite secondary key
        {"x": 0, "w": 3},    # ... bound in the other order
        {"v": 6, "w": 2, "x": 0},   # 3 columns: index on v, residual w, x
        {"link": "dlfs://srv/f/7"},     # DATALINK-derived index
        {"link": "http://other/f/7"},   # same file, other spelling: no row
        {"link": "dlfs://srv/f/7", "w": 2},
    )

    def _make_db(self) -> Database:
        db = Database("shapes", SimClock())
        db.create_table(TableSchema("docs", [
            Column("k", DataType.INTEGER, nullable=False),
            Column("v", DataType.INTEGER),
            Column("w", DataType.INTEGER),
            Column("x", DataType.INTEGER),
            Column("link", DataType.DATALINK),
        ], primary_key=("k",)))
        db.create_index("docs_by_v", "docs", ("v",))
        db.create_index("docs_by_w_x", "docs", ("w", "x"))
        db.create_index("docs_by_link", "docs", ("link",))
        return db

    @staticmethod
    def _measured(db, call):
        before, ticks = _stats_cells(db.clock.stats), db.clock.ticks
        rows = call()
        after = _stats_cells(db.clock.stats)
        moved = {label: (cell[0] - before.get(label, (0, 0))[0],
                         cell[1] - before.get(label, (0, 0))[1])
                 for label, cell in after.items() if cell != before.get(label)}
        return rows, moved, db.clock.ticks - ticks

    @pytest.mark.parametrize("seed", [5, 20260807, 909090])
    def test_dict_where_matches_predicate_scan(self, seed):
        rng = random.Random(seed)
        db = self._make_db()
        for key in range(40):
            db.insert("docs", {"k": key, "v": (key % 10) * 3, "w": key % 5,
                               "x": key % 2,
                               "link": f"dlfs://srv/f/{key % 20}"})
        for victim in rng.sample(range(40), 6):
            db.delete("docs", {"k": victim})
        probe_ticks = db.clock.unit_ticks("index_probe", 1.0)
        for _ in range(80):
            where = self._WHERE_SHAPES[rng.randrange(len(self._WHERE_SHAPES))]
            bound = dict(where or {})
            if bound and rng.random() < 0.5:
                # Re-draw one bound value so hits and misses both occur.
                column = rng.choice(sorted(bound))
                if column != "link":
                    bound[column] = rng.randrange(-1, 12)
            rows, moved, ticks = self._measured(
                db, lambda: db.select(
                    "docs", None if where is None else dict(bound),
                    lock=False))
            expected, owed, owed_ticks = self._measured(
                db, lambda: db.select(
                    "docs", lambda row: all(row[column] == value
                                            for column, value in bound.items()),
                    lock=False))
            if "k" in bound:
                count, total = owed.get("index_probe", (0, 0))
                owed["index_probe"] = (count + 1, total + probe_ticks)
                owed_ticks += probe_ticks
            assert rows == expected, where
            assert moved == owed, where
            assert ticks == owed_ticks, where

    def test_locked_transactional_selects_still_lock(self):
        db = self._make_db()
        for key in range(6):
            db.insert("docs", {"k": key, "v": key % 2, "w": 0, "x": 0,
                               "link": None})
        txn = db.begin()
        rows, moved, _ = self._measured(
            db, lambda: db.select("docs", {"v": 1}, txn))
        assert [row["k"] for row in rows] == [1, 3, 5]
        assert moved["lock_acquire"][0] == moved["row_read"][0] == 3
        assert db.locks.locks_of(txn.txn_id) == {
            ("row", "docs", row["_rid"]) for row in rows}
        db.commit(txn)
        assert db.locks.locks_of(txn.txn_id) == set()
