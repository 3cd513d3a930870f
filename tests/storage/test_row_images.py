"""Row images are built once, shared, and never mutated.

The rule under test (``repro.storage.heap`` module docstring): the dict
``validate_row`` returns is *the* row -- heap, log, ``Transaction.records``
and a witness replica's heap all hold that one object -- and nobody mutates
it; what is handed out, and what a heap is rebuilt with from a checkpoint
base or backup, is a copy.

Two kinds of check:

* identity tests: after ``insert`` -> ``update`` -> ``delete`` of one row
  the heap row, the log images and the witness row are the same objects
  (``is``), and a ``linked_files`` row on a witness is the one deliberate
  copy (its ``ino`` is rebound);
* a model-based history (the first slice of ROADMAP direction 2(a)): a
  ``hypothesis`` sequence of DML, committed and aborted transactions,
  checkpoints, crashes, backups and restores drives a primary
  :class:`Database` feeding a witness through :class:`ReplicaApplier`, and
  after every step both agree with a dict model, no image ever seen in the
  log has changed, ``records_of`` equals a filter over the log, and
  ``outcome_of`` of every transaction id ever handed out is what a scan of
  every record ever made durable says. A second strategy adds bulk
  single-statement writes and two-phase-commit votes and runs with a small
  fold threshold, so the history crosses it many times: the log folds under
  the same checks.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import example, given, strategies as st

from repro.util.failpoints import FailpointTable
from repro.datalinks.replication import ReplicaApplier
from repro.errors import DuplicateKeyError
from repro.simclock import SimClock
from repro.storage import wal as wal_module
from repro.storage.database import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.storage.wal import SYSTEM_TXN_ID, LogRecordType, WriteAheadLog
from tests.conftest import examples

TABLE = "items"
#: Rows a bulk step inserts and deletes again: it moves the log on, never
#: the model.
PAD = "pad"


def _make_db(name: str, flush_policy: str = "immediate",
             window: int = 8) -> Database:
    """A primary key, a unique and a non-unique secondary index."""

    db = Database(name, SimClock(), flush_policy=flush_policy,
                  group_commit_window=window)
    db.create_table(TableSchema(TABLE, [
        Column("k", DataType.INTEGER, nullable=False),
        Column("u", DataType.TEXT, nullable=False),
        Column("g", DataType.INTEGER),
        Column("v", DataType.INTEGER),
    ], primary_key=("k",)))
    db.create_index("items_by_u", TABLE, ("u",), unique=True)
    db.create_index("items_by_g", TABLE, ("g",))
    db.wal.flush()
    return db


def _applier(witness: Database, files=None) -> ReplicaApplier:
    return ReplicaApplier(witness, FailpointTable(), "s0", files=files)


def _feed(primary: Database, applier: ReplicaApplier) -> None:
    """Ship every newly durable record of *primary* to *applier*."""

    cursor = [primary.wal.flushed_lsn]

    def ship(wal) -> None:
        records = wal.records_from(cursor[0])
        if records:
            applier.apply(records)
            cursor[0] = records[-1].lsn

    primary.wal.add_flush_listener(ship)


def _records(db: Database, kind: LogRecordType) -> list:
    return [record for record in db.wal.records() if record.type is kind]


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------

class TestOneImagePerRow:
    def test_heap_log_and_witness_hold_one_object(self):
        primary, witness = _make_db("primary"), _make_db("witness")
        _feed(primary, _applier(witness))
        heap = primary.catalog.heap(TABLE)
        witness_heap = witness.catalog.heap(TABLE)

        rid = primary.insert(TABLE, {"k": 1, "u": "a", "g": 0, "v": 0})
        inserted, = _records(primary, LogRecordType.INSERT)
        assert heap._rows[rid] is inserted.after
        assert witness_heap._rows[rid] is inserted.after

        assert primary.update(TABLE, {"k": 1}, {"v": 5}) == 1
        updated, = _records(primary, LogRecordType.UPDATE)
        assert updated.before is inserted.after
        assert heap._rows[rid] is updated.after
        assert witness_heap._rows[rid] is updated.after
        # The replaced image is what it was: the update copied before it
        # changed anything.
        assert inserted.after == {"k": 1, "u": "a", "g": 0, "v": 0}
        assert updated.after == {"k": 1, "u": "a", "g": 0, "v": 5}

        assert primary.delete(TABLE, {"k": 1}) == 1
        deleted, = _records(primary, LogRecordType.DELETE)
        assert deleted.before is updated.after
        assert rid not in heap._rows and rid not in witness_heap._rows

    def test_what_is_handed_out_is_a_copy(self):
        db = _make_db("primary")
        rid = db.insert(TABLE, {"k": 1, "u": "a", "g": 0, "v": 0})
        heap = db.catalog.heap(TABLE)
        stored = heap._rows[rid]
        handed_out = [db.select(TABLE, {"k": 1}, lock=False)[0],
                      heap.get(rid)]
        for row in handed_out:
            assert row is not stored
            row["v"] = "hacked"
        assert stored == {"k": 1, "u": "a", "g": 0, "v": 0}

    def test_a_snapshot_shares_images_and_loading_one_copies(self):
        """A checkpoint base or backup holds the stored images in a dict of
        its own; a heap rebuilt from it stores copies of its own."""

        db = _make_db("primary")
        rid = db.insert(TABLE, {"k": 1, "u": "a", "g": 0, "v": 0})
        heap = db.catalog.heap(TABLE)
        snapshot = heap.snapshot()
        assert snapshot["rows"][rid] is heap._rows[rid]
        assert snapshot["rows"] is not heap._rows
        db.insert(TABLE, {"k": 2, "u": "b", "g": 0, "v": 0})
        assert list(snapshot["rows"]) == [rid]
        heap.load_snapshot(snapshot)
        assert heap._rows[rid] is not snapshot["rows"][rid]
        assert heap._rows[rid] == snapshot["rows"][rid]

    def test_undo_and_redo_hand_the_logs_image_back_to_the_heap(self):
        db = _make_db("primary")
        rid = db.insert(TABLE, {"k": 1, "u": "a", "g": 0, "v": 0})
        inserted, = _records(db, LogRecordType.INSERT)
        txn = db.begin()
        db.update(TABLE, {"k": 1}, {"v": 9}, txn)
        db.abort(txn)
        assert db.catalog.heap(TABLE)._rows[rid] is inserted.after
        db.crash()
        db.recover()
        assert db.catalog.heap(TABLE)._rows[rid] is inserted.after

    def test_a_witness_link_row_is_the_one_copy(self):
        """``linked_files.ino`` is rebound to the witness's inode number, so
        that row -- and only that row -- is a distinct dict."""

        from repro.fs.inode import FileAttributes, FileType

        class _Files:
            """The one call an applied link row makes: a stat of the
            witness's copy, inode 4242, already read-only."""

            def stat(self, path):
                return FileAttributes(4242, FileType.REGULAR, 0o444, 0, 0,
                                      0, 1, 0.0, 0.0, 0.0)

        def with_link_table(name):
            db = _make_db(name)
            db.create_table(TableSchema("linked_files", [
                Column("path", DataType.TEXT, nullable=False),
                Column("ino", DataType.INTEGER),
                Column("control_mode", DataType.TEXT),
            ], primary_key=("path",)))
            db.wal.flush()
            return db

        primary, witness = with_link_table("primary"), with_link_table("witness")
        _feed(primary, _applier(witness, files=_Files()))
        rid = primary.insert("linked_files", {"path": "/f", "ino": 7,
                                              "control_mode": "rff"})
        inserted, = _records(primary, LogRecordType.INSERT)
        row = witness.catalog.heap("linked_files")._rows[rid]
        assert row is not inserted.after
        assert row == {"path": "/f", "ino": 4242, "control_mode": "rff"}
        assert inserted.after == {"path": "/f", "ino": 7,
                                  "control_mode": "rff"}
        assert primary.catalog.heap("linked_files")._rows[rid] is inserted.after


# ---------------------------------------------------------------------------
# the log's transaction links
# ---------------------------------------------------------------------------

class TestTransactionLinks:
    def test_only_unfinished_transactions_are_retained(self):
        wal = WriteAheadLog()
        wal.append(1, LogRecordType.BEGIN)
        wal.append(2, LogRecordType.BEGIN)
        wal.append(3, LogRecordType.BEGIN)
        wal.append(1, LogRecordType.COMMIT)
        wal.append(2, LogRecordType.ABORT)
        prepare = wal.append(3, LogRecordType.PREPARE)
        # PREPARE keeps an in-doubt branch findable; an outcome drops it.
        assert wal._open == {3: prepare}
        wal.append(3, LogRecordType.COMMIT)
        assert wal._open == {}
        for txn_id in (1, 2, 3):
            assert wal.records_of(txn_id) == [
                record for record in wal.records() if record.txn_id == txn_id]

    def test_prev_is_the_same_transactions_previous_record(self):
        wal = WriteAheadLog()
        begin = wal.append(1, LogRecordType.BEGIN)
        other = wal.append(2, LogRecordType.BEGIN)
        insert = wal.append(1, LogRecordType.INSERT, "t", 1, None, {"a": 1})
        commit = wal.append(1, LogRecordType.COMMIT)
        assert (begin.prev, other.prev) == (None, None)
        assert insert.prev is begin and commit.prev is insert

    def test_a_lost_commit_reopens_its_transaction(self):
        wal = WriteAheadLog()
        wal.append(1, LogRecordType.BEGIN)
        insert = wal.append(1, LogRecordType.INSERT, "t", 1, None, {"a": 1})
        wal.flush()
        wal.append(1, LogRecordType.COMMIT)
        wal.append(2, LogRecordType.BEGIN)          # lost with all it wrote
        wal.lose_unflushed()
        assert wal._open == {1: insert}
        abort = wal.append(1, LogRecordType.ABORT)  # what recovery writes
        assert abort.prev is insert and wal._open == {}
        assert wal.records_of(2) == []

    def test_the_system_pseudo_transaction_is_not_a_transaction(self):
        """CHECKPOINT records are unlinked and never open a transaction, so
        after a checkpoint the table of open transactions is empty (and a
        quiescent log can fold); ``records_of`` the system id is still
        every CHECKPOINT record, and it still has no outcome."""

        db = _make_db("primary")
        first = db.checkpoint()
        db.insert(TABLE, {"k": 1, "u": "a", "g": 0, "v": 0})
        second = db.checkpoint()
        assert db.wal._open == {}
        checkpoints = _records(db, LogRecordType.CHECKPOINT)
        assert [record.lsn for record in checkpoints] == [first, second]
        assert all(record.prev is None for record in checkpoints)
        assert db.wal.records_of(SYSTEM_TXN_ID) == checkpoints
        assert db.wal.outcome_of(SYSTEM_TXN_ID) == "unknown"


# ---------------------------------------------------------------------------
# the model-based history
# ---------------------------------------------------------------------------

_KS = st.integers(0, 7)
_US = st.sampled_from("abcdefgh")
_GS = st.integers(0, 2)
_VS = st.one_of(st.none(), st.integers(0, 3))
_ROW = st.fixed_dictionaries({"k": _KS, "u": _US, "g": _GS, "v": _VS})
_WHERE = st.one_of(st.none(), *(
    st.fixed_dictionaries({column: values})
    for column, values in (("k", _KS), ("u", _US), ("g", _GS), ("v", _VS))))
_CHANGES = st.fixed_dictionaries(
    {}, optional={"k": _KS, "u": _US, "g": _GS, "v": _VS})
_STEP = (
    st.tuples(st.just("insert"), st.lists(_ROW, min_size=1, max_size=1)),
    st.tuples(st.just("insert_many"), st.lists(_ROW, min_size=1, max_size=3)),
    st.tuples(st.just("update"), _WHERE, _CHANGES),
    st.tuples(st.just("delete"), _WHERE),
    st.tuples(st.sampled_from(["begin", "commit", "abort", "checkpoint",
                               "crash", "backup"])),
    st.tuples(st.just("restore"), st.integers(0, 3)),
)
_STEPS = st.lists(st.one_of(*_STEP), min_size=1, max_size=30)
#: The fold threshold the folding history runs at: a bulk step moves the
#: log on by 20 to 52 records, so forty steps cross it many times.
_SMALL_FOLD = 40
_FOLD_STEPS = st.lists(st.one_of(
    *_STEP,
    st.tuples(st.just("bulk"), st.integers(8, 24)),
    st.tuples(st.just("prepare")),
), min_size=1, max_size=40)
#: What a prepared transaction may no longer do.
_ACTIVE_ONLY = {"insert", "insert_many", "update", "delete", "prepare"}


def _copy(state: dict) -> dict:
    return {rid: dict(row) for rid, row in state.items()}


def _matching(state: dict, where: dict | None) -> list[int]:
    return sorted(rid for rid, row in state.items()
                  if all(row[column] == value
                         for column, value in (where or {}).items()))


def _clashes(state: dict, row: dict, own_rid: int | None) -> bool:
    return any(rid != own_rid and (other["k"] == row["k"]
                                   or other["u"] == row["u"])
               for rid, other in state.items())


class _History:
    """The two databases and the dict model they are held to.

    The model is ``{rid: row}`` three times over: ``committed`` (what a
    reader outside any transaction may see), ``working`` (the open
    transaction's view, while there is one) and ``durable`` (``committed``
    as of the last log force -- what a crash falls back to and what the
    witness has).  At most one explicit transaction is open and every write
    to the model's table goes through it, so no lock conflict is part of
    the history.  Once it has voted (``prepare``) it takes no more writes,
    pins the log until it is committed or aborted, and a crash brings it
    back in doubt.  A bulk step writes the pad table in single statements,
    outside any transaction: it moves the log on and leaves the model
    alone.

    ``outcomes`` is the oracle for ``outcome_of``: every record the primary
    ever made durable passes a flush listener (before any fold), and the
    last outcome record of a transaction id is its outcome.
    """

    def __init__(self, policy: str, window: int):
        self.primary = _make_db("primary", policy, window)
        self.witness = _make_db("witness")
        _feed(self.primary, _applier(self.witness))
        self.outcomes: dict[int, str] = {}
        self._watch_outcomes()
        self.primary.create_table(TableSchema(PAD, [
            Column("p", DataType.INTEGER, nullable=False)],
            primary_key=("p",)))
        # Forced like ``_make_db``'s own DDL: under group commit a crash
        # before the next force would lose the table.
        self.primary.wal.flush()
        self.pad_keys = 0
        self.committed: dict[int, dict] = {}
        self.durable: dict[int, dict] = {}
        self.working: dict[int, dict] | None = None
        self.txn = None
        self.prepared = False
        #: ``working`` as of the vote: what an in-doubt branch holds.
        self.prepared_state: dict[int, dict] | None = None
        self.backups: list[tuple] = []
        #: ``{id(record): (record, before, after)}`` with the images deep
        #: copied the first time the record was seen in the log.
        self.images: dict[int, tuple] = {}
        self.txn_ids: set[int] = set()

    def _watch_outcomes(self) -> None:
        cursor = [0]

        def watch(wal) -> None:
            for record in wal.records_from(cursor[0]):
                if record.type is LogRecordType.COMMIT:
                    self.outcomes[record.txn_id] = "committed"
                elif record.type is LogRecordType.ABORT:
                    self.outcomes[record.txn_id] = "aborted"
            cursor[0] = wal.flushed_lsn

        watch(self.primary.wal)
        self.primary.wal.add_flush_listener(watch)

    # -- one step -------------------------------------------------------------
    def step(self, step: tuple) -> None:
        if self.prepared and step[0] in _ACTIVE_ONLY:
            return
        flushes = self.primary.wal.flush_count
        getattr(self, "_" + step[0])(*step[1:])
        if self.primary.wal.flush_count != flushes:
            self.durable = _copy(self.committed)

    def _write(self, statement, model) -> None:
        """Run *statement* (the database call) and *model* (the same
        statement on a ``{rid: row}`` state, returning whether it hit a
        duplicate key) and demand the same outcome.  Outside a transaction
        a failed statement leaves nothing behind; inside one the rows it
        finished before failing stay."""

        target = self.working if self.txn is not None \
            else _copy(self.committed)
        try:
            result = statement()
            raised = False
        except DuplicateKeyError:
            result, raised = None, True
        assert model(target, result) == raised
        if self.txn is None and not raised:
            self.committed = target

    def _insert(self, rows: list, many: bool = False) -> None:
        db, txn = self.primary, self.txn

        def statement():
            if many:
                return db.insert_many(TABLE, rows, txn)
            return [db.insert(TABLE, rows[0], txn)]

        def model(target, rids) -> bool:
            for at, row in enumerate(rows):
                if _clashes(target, row, None):
                    return True
                # A failed multi-row insert returns no row ids: the rows it
                # finished first are found by key (inside a transaction they
                # stay; outside one *target* is thrown away with them).
                if rids is not None:
                    rid = rids[at]
                elif txn is not None:
                    rid = db.select(TABLE, {"k": row["k"]},
                                    lock=False)[0]["_rid"]
                else:
                    rid = -1 - at
                target[rid] = dict(row)
            return False

        self._write(statement, model)

    def _insert_many(self, rows: list) -> None:
        self._insert(rows, many=True)

    def _update(self, where, changes: dict) -> None:
        def model(target, touched) -> bool:
            done = 0
            for rid in _matching(target, where):
                new_row = dict(target[rid], **changes)
                if _clashes(target, new_row, rid):
                    return True
                target[rid] = new_row
                done += 1
            assert touched == done
            return False

        self._write(lambda: self.primary.update(
            TABLE, where and dict(where), changes, self.txn), model)

    def _delete(self, where) -> None:
        def model(target, removed) -> bool:
            doomed = _matching(target, where)
            for rid in doomed:
                del target[rid]
            assert removed == len(doomed)
            return False

        self._write(lambda: self.primary.delete(
            TABLE, where and dict(where), self.txn), model)

    def _begin(self) -> None:
        if self.txn is None:
            self.txn = self.primary.begin()
            self.working = _copy(self.committed)

    def _prepare(self) -> None:
        if self.txn is not None:
            self.primary.prepare(self.txn, {"host_txn_id": self.txn.txn_id})
            self.prepared = True
            self.prepared_state = _copy(self.working)

    def _bulk(self, size: int) -> None:
        first = self.pad_keys
        self.pad_keys += size
        self.primary.insert_many(PAD, [{"p": key} for key in
                                       range(first, self.pad_keys)])
        self.primary.delete(PAD, None)

    def _finish(self, outcome) -> None:
        if self.txn is not None:
            outcome(self.txn)
            self.txn = self.working = None
            self.prepared = False

    def _commit(self) -> None:
        if self.txn is not None:
            self.committed = self.working
        self._finish(self.primary.commit)

    def _abort(self) -> None:
        self._finish(self.primary.abort)

    def _checkpoint(self) -> None:
        self.primary.checkpoint()

    def _crash(self) -> None:
        self.primary.crash()
        self.primary.recover()
        self.committed = _copy(self.durable)
        in_doubt = self.primary.in_doubt_transactions()
        if in_doubt:
            # A vote is forced to the log and a group-committed outcome may
            # not be: the branch is back in doubt, effects and locks held.
            self.txn, = in_doubt
            self.working = _copy(self.prepared_state)
            self.prepared = True
        else:
            self.txn = self.working = None
            self.prepared = False

    def _backup(self) -> None:
        if self.txn is None:
            self.backups.append((self.primary.backup(),
                                 _copy(self.committed)))

    def _restore(self, pick: int) -> None:
        if self.txn is None and self.backups:
            image, state = self.backups[pick % len(self.backups)]
            # Restore is not in the log: a witness is re-seeded from the
            # image the primary went back to.
            self.primary.restore(image)
            self.witness.restore(image)
            self.committed = _copy(state)

    # -- after every step ---------------------------------------------------------
    def check(self, step) -> None:
        visible = self.working if self.txn is not None else self.committed
        self._check_database(self.primary, visible, step)
        self._check_database(self.witness, self.durable, step)
        self._check_images(step)
        self._check_records_of(step)
        self._check_outcomes(step)

    @staticmethod
    def _check_database(db: Database, state: dict, step) -> None:
        where = (db.name, step)
        heap = db.catalog.heap(TABLE)
        assert dict(heap.scan_live()) == state, where
        assert db.max_key(TABLE) == max(
            (row["k"] for row in state.values()), default=None), where
        for index in db.catalog.iter_indexes(TABLE):
            column, = index.columns
            assert len(index) == len(state), where
            for value in {row[column] for row in state.values()} | {-1, "z"}:
                want = {rid for rid, row in state.items()
                        if row[column] == value}
                assert index.lookup((value,)) == want, where
                assert {row["_rid"] for row in db.select(
                    TABLE, {column: value}, lock=False)} == want, where

    def _check_images(self, step) -> None:
        for record in self.primary.wal.records():
            if id(record) not in self.images:
                self.images[id(record)] = (
                    record, copy.deepcopy(record.before),
                    copy.deepcopy(record.after))
                self.txn_ids.add(record.txn_id)
        for record, before, after in self.images.values():
            assert record.before == before and record.after == after, \
                (step, int(record.lsn), record.type)

    def _check_records_of(self, step) -> None:
        wal = self.primary.wal
        for durable_only in (False, True):
            log = wal.records(durable_only=durable_only)
            for txn_id in self.txn_ids:
                assert wal.records_of(txn_id, durable_only=durable_only) == [
                    record for record in log if record.txn_id == txn_id], \
                    (step, txn_id, durable_only)

    def _check_outcomes(self, step) -> None:
        wal = self.primary.wal
        assert len(wal) == int(wal.tail_lsn()), step
        for txn_id in range(-1, self.primary._next_txn_id + 2):
            assert wal.outcome_of(txn_id) == \
                self.outcomes.get(txn_id, "unknown"), (step, txn_id)


_ROW_A = {"k": 1, "u": "a", "g": 0, "v": None}
_ROW_B = {"k": 2, "u": "b", "g": 0, "v": 1}


class TestHistoryAgainstADictModel:
    @given(steps=_STEPS, policy=st.sampled_from(["immediate", "group"]),
           window=st.integers(2, 3))
    # A key change, a multi-row update that trips over a unique key half
    # way, an abort and a crash with a transaction still open.
    @example(steps=[("insert_many", [_ROW_A, _ROW_B]), ("begin",),
                    ("update", {"k": 1}, {"k": 5}),
                    ("update", {"g": 0}, {"u": "c"}), ("abort",),
                    ("checkpoint",), ("begin",), ("delete", {"u": "b"}),
                    ("crash",), ("update", None, {"v": 3})],
             policy="immediate", window=2)
    # A commit the group window still holds is lost with the crash; a
    # restore takes both databases back behind it.
    @example(steps=[("insert", [_ROW_A]), ("backup",), ("insert", [_ROW_B]),
                    ("update", {"k": 2}, {"g": 2}), ("crash",),
                    ("insert", [_ROW_B]), ("restore", 0), ("insert", [_ROW_B]),
                    ("crash",)],
             policy="group", window=3)
    @examples(120)
    def test_both_databases_match_and_no_image_ever_changes(
            self, steps, policy, window):
        history = _History(policy, window)
        for step in steps:
            history.step(step)
            history.check(step)


class TestHistoryAcrossFolds:
    """The history again, with bulk single-statement writes and 2PC votes
    added, at a fold threshold of ``_SMALL_FOLD`` records: the log folds
    again and again -- right before a crash, under a group-commit tail that
    the crash loses, between a checkpoint and a restore -- and after every
    step, every recovery included, the checks above hold against a log of
    which most was folded away."""

    @given(steps=_FOLD_STEPS, policy=st.sampled_from(["immediate", "group"]),
           window=st.integers(2, 3))
    # The pad table's DDL must be durable before the first crash: a group
    # window used to lose it, and the bulk step found no table.
    @example(steps=[("begin",), ("insert", [dict(_ROW_A, k=0)]), ("crash",),
                    ("insert", [dict(_ROW_A, k=0)]), ("bulk", 8)],
             policy="group", window=2)
    @examples(100)
    def test_folding_changes_no_answer(self, steps, policy, window):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wal_module, "FOLD_AT", _SMALL_FOLD)
            history = _History(policy, window)
            for step in steps:
                history.step(step)
                history.check(step)

    @pytest.mark.parametrize("policy", ["immediate", "group"])
    def test_a_long_history_folds_many_times_and_a_vote_pins_it(self, policy):
        row = {"k": 1, "u": "a", "g": 0, "v": None}
        steps = [("insert", [row]), ("bulk", 24), ("crash",),
                 ("begin",), ("update", {"k": 1}, {"v": 2}), ("prepare",),
                 ("bulk", 24), ("bulk", 24), ("crash",), ("bulk", 24),
                 ("commit",), ("checkpoint",), ("backup",), ("bulk", 24),
                 ("insert", [dict(row, k=2, u="b")]), ("bulk", 24),
                 ("restore", 0), ("bulk", 24), ("crash",)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wal_module, "FOLD_AT", _SMALL_FOLD)
            history = _History(policy, 3)
            wal = history.primary.wal
            retained, folded = [], []       # after each step
            for step in steps:
                history.step(step)
                history.check(step)
                retained.append(len(wal.records()))
                folded.append(len(wal) - retained[-1])
        # The first bulk step folded the whole log, and the crash right
        # after it recovered from the base alone.
        assert retained[1] == retained[2] == 0 and folded[1] > 0
        if policy == "group":
            # The crash under the vote lost the group-commit tail the bulk
            # steps left, none of it folded.
            assert retained[8] < retained[7] and folded[8] == folded[7]
        # The vote pinned the log through three bulk steps and a crash, and
        # its commit let that very flush fold.
        assert folded[5] == folded[9] and retained[9] > 3 * _SMALL_FOLD
        assert retained[10] == 0
        assert len(set(folded)) > 3
        assert history.committed == {1: dict(row, v=2)}
