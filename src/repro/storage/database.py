"""The database facade: transactions, DML, checkpoints, crash and backup.

One :class:`Database` instance plays the role of DB2 for the host database
and of the DLFM's private repository on each file server.  It provides:

* typed tables with primary keys and secondary indexes;
* strict two-phase locking at row granularity;
* write-ahead logging with explicit flush, ARIES-style recovery after a
  simulated crash, and two-phase-commit participation
  (``prepare`` / ``commit_prepared`` / ``abort_prepared``);
* full backups tagged with the tail LSN -- the *database state identifier*
  the paper uses to coordinate file and database restore.

All costs are charged to the node's :class:`~repro.simclock.SimClock`
(clock domain), so benchmarks can attribute latency to SQL work;
``stats_prefix`` additionally keeps a scaled embedded store's charges (the
DLFM repository) separate from host-database charges in the statistics.

Prepared statements
-------------------
Equality-keyed DML has one implementation, the *prepared statement*:
``prepare_select`` / ``prepare_insert`` / ``prepare_update`` /
``prepare_delete`` resolve a statement shape -- a table and the columns its
``where`` binds by equality -- once and return a handle called with
positional values (``stmt(*values)``, ``stmt(row)``, ``stmt(changes,
*values)``, optional ``txn=``).  A set-oriented SELECT binds many keys
in one statement: it calls the SELECT handle once per key, all but the
first with ``base=False``, so the statement pays ``sql_statement_base``
once while each key pays its own access path, row reads and locks.
Resolving picks the table plan and the access path: the first index whose
columns are all bound (a complete primary key is the one charged
``index_probe``; any other index enumerates candidates for free), else the
heap scan, plus the equality test left for the unindexed columns.
``Database.select`` / ``insert`` / ``update`` / ``delete`` only fetch the
handle for ``(table, tuple(where))`` from one cache and call it; a
callable, ``None`` or ``{}`` ``where`` is the shape that binds nothing, the
scan.  A handle re-resolves itself whenever ``db.catalog`` or its
``version`` is not what it last saw, so DDL, ``crash()``, ``recover()`` and
``restore()`` need no invalidation hook.

A write handle called without ``txn`` is a *single-statement transaction*:
it logs BEGIN, the statement's records and COMMIT, applies the flush policy
(and so feeds the flush listeners) and charges exactly what ``begin()`` +
statement + ``commit()`` charge, but builds no :class:`Transaction`, never
enters the transaction table and takes no lock -- it *checks* each lock it
owes.  Checking equals taking here: the simulation is single-threaded,
nothing runs between the statement's first row and its COMMIT, and COMMIT
would release the locks, so "does anyone hold this?" is all a lock could
decide.  On a held resource the handle calls ``locks.acquire`` so the
conflict error is a real transaction's, and any failure after BEGIN takes
:meth:`Database.abort` (undo, ABORT record, forced flush).

Row images
----------
A row is built once, by ``TableSchema.validate_row``, and shared: the heap
stores that dict and the statement logs the same dict as ``after`` and, when
the row is replaced or removed, as ``before``; undo and redo hand the log's
image back to the heap.  Nobody mutates one (``PreparedUpdate`` copies the
stored row before applying its changes) and whatever reaches a caller is a
copy; :mod:`repro.storage.heap` states the rule in full.
"""

from __future__ import annotations

from operator import itemgetter

from repro.errors import (
    DuplicateKeyError,
    PreparedStateError,
    TransactionNotActive,
)
from repro.simclock import TICKS_PER_SECOND, SimClock
from repro.storage.backup import BackupImage, BackupManager
from repro.storage.catalog import Catalog
from repro.storage.lock_manager import LockManager, LockMode
from repro.storage.query import compile_where
from repro.storage.recovery import RecoveryManager
from repro.storage.schema import TableSchema
from repro.storage.transaction import Transaction, TxnState
from repro.storage.wal import (
    SYSTEM_TXN_ID,
    FlushPolicy,
    LogRecordType,
    WriteAheadLog,
)
from repro.util.lsn import LSN


class _TablePlan:
    """Pre-resolved per-table execution state shared by a table's statements.

    Everything a statement needs -- schema, heap row store, primary-key
    index, index enumeration order, unique constraints -- resolved once and
    validated per use against the owning catalog's ``version`` counter (and
    catalog identity, which changes on ``reset_catalog``).  ``rows`` aliases
    the heap's internal dict; the heap only rebinds it in ``load_snapshot``,
    which always happens on a fresh heap behind a catalog version bump.
    """

    __slots__ = ("catalog", "version", "schema", "heap", "rows", "pk_index",
                 "pk_cols", "pk_single", "indexes", "unique_plans")


class Database:
    """A single-node relational database with WAL, 2PL and recovery.

    ``flush_policy`` selects when COMMIT records are forced to the durable
    log: ``"immediate"`` (one log force per commit, the default) or
    ``"group"`` (a single force covers up to ``group_commit_window`` commits
    -- see :class:`~repro.storage.wal.FlushPolicy`).  Prepare votes,
    checkpoints and backups always force the log regardless of policy.
    """

    def __init__(self, name: str, clock: SimClock,
                 cost_scale: float = 1.0,
                 flush_policy: FlushPolicy | str = FlushPolicy.IMMEDIATE,
                 group_commit_window: int = 8,
                 stats_prefix: str = ""):
        self.name = name
        self.clock = clock
        self.cost_scale = cost_scale
        #: Prepended to every primitive name in clock statistics, so a scaled
        #: embedded store (the DLFM repository) never conflates its charges
        #: with the host database's charges for the same primitive.
        self.stats_prefix = stats_prefix
        self.catalog = Catalog()
        self.wal = WriteAheadLog(flush_policy=flush_policy,
                                 group_window=group_commit_window)
        self.wal.take_base = self._take_base
        self.locks = LockManager()
        self.backups = BackupManager(self)
        self._transactions: dict[int, Transaction] = {}
        self._prime()
        #: Extended per-table plans (:class:`_TablePlan`), validated against
        #: the catalog's version counter on every probe.
        self._plans: dict[str, _TablePlan] = {}
        #: ``{(kind, table, bound columns): prepared statement}`` -- the one
        #: cache behind :meth:`prepare_select` and friends.
        self._statements: dict[tuple, _Prepared] = {}
        #: ``{table: (max_key, heap_mutations_seen)}`` -- the cached key
        #: maxima behind :meth:`max_key`.  A cached entry is valid only
        #: while its heap's mutation counter is unchanged, so writes that
        #: bypass this facade (replication redo, recovery, rollback)
        #: invalidate it implicitly.
        self._max_keys: dict[str, tuple] = {}
        self._next_txn_id = 1
        self._checkpoint: dict | None = None
        #: Index definitions as of the last crash.  Index DDL is durable
        #: when it returns but is not WAL-logged (no LSN moves for it), so
        #: the definitions are kept beside the checkpoint and replayed by
        #: :meth:`recover` onto whatever tables redo brings back.
        self._index_defs: dict = {}
        #: Crashed and not yet recovered.
        self.crashed = False

    # ------------------------------------------------------------------ utils --
    def now(self) -> float:
        return self.clock.ticks / TICKS_PER_SECOND

    def _charge(self, primitive: str) -> None:
        amount, meter = self._meters[primitive]
        self.clock.ticks += amount
        meter[0] += 1

    def _charge_run(self, primitive: str, times: int) -> None:
        """*times* back-to-back unit charges of *primitive*: one multiply."""

        amount, meter = self._meters[primitive]
        self.clock.ticks += amount * times
        meter[0] += times

    def _prime(self) -> None:
        """Resolve this database's six primitives against its clock, once.

        Each becomes a ``(ticks, meter)`` pair (see :meth:`SimClock.meter`)
        scaled by ``cost_scale`` and booked under ``stats_prefix``; the hot
        entry points write their charges out inline against the pairs, and
        per-row DML charges are multiplied out once per statement.  A
        component's clock never rebinds, so this runs from ``__init__``.
        """

        clock, scale, prefix = self.clock, self.cost_scale, self.stats_prefix
        self._meters = {
            primitive: clock.meter(primitive, scale,
                                   prefix + primitive if prefix else None)
            for primitive in ("sql_statement_base", "index_probe",
                              "log_write", "row_read", "row_write",
                              "lock_acquire")}
        self._stmt = self._meters["sql_statement_base"]
        self._probe = self._meters["index_probe"]
        self._log = self._meters["log_write"]
        self._read = self._meters["row_read"]
        self._write = self._meters["row_write"]
        self._lock = self._meters["lock_acquire"]

    def _build_plan(self, table: str) -> _TablePlan:
        """Build (and cache) the extended :class:`_TablePlan` for *table*."""

        catalog = self.catalog
        schema, heap, pk_index, indexes = catalog.plan_info(table)
        plan = _TablePlan()
        plan.catalog = catalog
        plan.version = catalog.version
        plan.schema = schema
        plan.heap = heap
        plan.rows = heap._rows
        plan.pk_index = pk_index
        pk_cols = schema.primary_key
        plan.pk_cols = pk_cols
        plan.pk_single = pk_cols[0] if len(pk_cols) == 1 else None
        plan.indexes = indexes
        plan.unique_plans = tuple(
            (index, index.columns, index.raw_entries)
            for index in indexes if index.unique)
        self._plans[table] = plan
        return plan

    def _plan(self, table: str) -> _TablePlan:
        """The cached :class:`_TablePlan` for *table* (rebuilt after DDL)."""

        catalog = self.catalog
        try:
            plan = self._plans[table]
        except KeyError:
            return self._build_plan(table)
        if plan.catalog is not catalog or plan.version != catalog.version:
            return self._build_plan(table)
        return plan

    def total_rows(self) -> int:
        return sum(len(self.catalog.heap(name)) for name in self.catalog.table_names())

    def state_identifier(self) -> LSN:
        """The current database state identifier (tail LSN)."""

        return self.wal.tail_lsn()

    def set_flush_policy(self, policy: FlushPolicy | str,
                         group_commit_window: int | None = None) -> None:
        """Change the WAL commit flush policy at runtime."""

        self.wal.set_flush_policy(policy, group_commit_window)

    def force_log(self) -> LSN:
        """Force the WAL if commits are pending, charging one log write.

        Two-phase-commit coordinators call this before telling participants
        to commit: the coordinator's COMMIT record must be durable first,
        and under group commit the force piggybacks every pending commit.
        """

        if self.wal.pending_commits:
            self.wal.flush()
            self._charge("log_write")
        return self.wal.flushed_lsn

    # ----------------------------------------------------------- transactions --
    def begin(self) -> Transaction:
        """Start a new transaction."""

        if self.crashed:
            raise TransactionNotActive(f"database {self.name} crashed; run recover() first")
        transaction = Transaction(txn_id=self._next_txn_id)
        self._next_txn_id += 1
        self._transactions[transaction.txn_id] = transaction
        self.wal.append(transaction.txn_id, LogRecordType.BEGIN)
        amount, meter = self._stmt
        self.clock.ticks += amount
        meter[0] += 1
        return transaction

    def transaction(self, txn_id: int) -> Transaction:
        try:
            return self._transactions[txn_id]
        except KeyError:
            raise TransactionNotActive(f"unknown transaction {txn_id}") from None

    def active_transactions(self) -> list[Transaction]:
        return [t for t in self._transactions.values() if t.state is TxnState.ACTIVE]

    def register_recovered_transaction(self, transaction: Transaction) -> None:
        """Used by recovery to reinstate an in-doubt (prepared) transaction."""

        self._transactions[transaction.txn_id] = transaction
        self._next_txn_id = max(self._next_txn_id, transaction.txn_id + 1)

    def commit(self, txn: Transaction) -> LSN:
        """Commit *txn*: force the log (per flush policy), release locks.

        Under the ``group`` flush policy the COMMIT record may stay in the
        unflushed log tail until the group window fills (or an explicit
        flush); a crash in that window loses the commit and recovery undoes
        the transaction.
        """

        state = txn.state
        if state is not TxnState.ACTIVE and state is not TxnState.PREPARED:
            txn.require_active_or_prepared()
        self.wal.append(txn.txn_id, LogRecordType.COMMIT)
        if self.wal.note_commit():
            amount, meter = self._log
            self.clock.ticks += amount
            meter[0] += 1
        txn.state = TxnState.COMMITTED
        # ``_finish`` inlined: commit is the per-transaction hot path.
        try:
            del self._transactions[txn.txn_id]
        except KeyError:      # begun before a crash() emptied the table
            pass
        self.locks.release_all(txn.txn_id)
        return self.wal.tail_lsn()

    def commit_many(self, txns: list[Transaction]) -> list[LSN]:
        """Group-commit a batch: one log force covers every transaction.

        This is the explicit form of group commit used by the sharded
        deployment's commit queue; it forces the log exactly once no matter
        how many transactions are in the batch (and regardless of policy).
        Returns each transaction's state id, its COMMIT record's LSN, in
        order.
        """

        for txn in txns:
            txn.require_active_or_prepared()
        state_ids = [self.wal.append(txn.txn_id, LogRecordType.COMMIT).lsn
                     for txn in txns]
        if txns:
            self.wal.flush()
            self._charge("log_write")
        for txn in txns:
            txn.state = TxnState.COMMITTED
            self._finish(txn)
        return state_ids

    def abort(self, txn: Transaction) -> None:
        """Roll back *txn*: undo its effects, force the log, release locks."""

        if txn.state in (TxnState.COMMITTED, TxnState.ABORTED):
            raise TransactionNotActive(f"transaction {txn.txn_id} already finished")
        for record in reversed(txn.records):
            self.apply_undo(record)
        self.wal.append(txn.txn_id, LogRecordType.ABORT)
        self.wal.flush()
        self._charge("log_write")
        txn.state = TxnState.ABORTED
        self._finish(txn)

    def _finish(self, txn: Transaction) -> None:
        # A finished transaction leaves the table: only active and prepared
        # (in-doubt) ones are ever looked up again.
        self._transactions.pop(txn.txn_id, None)
        self.locks.release_all(txn.txn_id)

    # two-phase commit -----------------------------------------------------------
    def prepare(self, txn: Transaction, extra: dict | None = None) -> None:
        """First phase of 2PC: make the transaction's effects durable, keep locks.

        ``extra`` is stored in the durable PREPARE record; resource managers
        use it to persist the coordinator's transaction id so an in-doubt
        branch can be mapped back to its host transaction after a crash.
        """

        txn.require_active()
        txn.note_record(self.wal.append(txn.txn_id, LogRecordType.PREPARE,
                                        extra=dict(extra) if extra else {}))
        self.wal.flush()
        self._charge("log_write")
        txn.state = TxnState.PREPARED

    def commit_prepared(self, txn: Transaction) -> LSN:
        if txn.state is not TxnState.PREPARED:
            raise PreparedStateError(f"transaction {txn.txn_id} is not prepared")
        return self.commit(txn)

    def abort_prepared(self, txn: Transaction) -> None:
        if txn.state is not TxnState.PREPARED:
            raise PreparedStateError(f"transaction {txn.txn_id} is not prepared")
        # A prepared transaction recovered after a crash carries durable log
        # records; an in-memory one carries the same records list.  Both undo
        # identically.
        txn.state = TxnState.ACTIVE
        self.abort(txn)

    def in_doubt_transactions(self) -> list[Transaction]:
        return [t for t in self._transactions.values() if t.state is TxnState.PREPARED]

    def txn_outcome(self, txn_id: int) -> str:
        """The durable outcome of *txn_id*: ``"committed"``, ``"aborted"`` or
        ``"unknown"`` (no durable COMMIT/ABORT record -- presumed abort).

        Used by two-phase-commit participants to resolve in-doubt branches
        from the coordinator's log after a crash.
        """

        return self.wal.outcome_of(txn_id)

    def commit_state_of(self, txn_id: int) -> LSN | None:
        """The state identifier *txn_id*'s durable commit produced (the
        LSN of its COMMIT record), ``None`` when it has no durable commit."""

        return self.wal.commit_lsn_of(txn_id)

    # ------------------------------------------------------------------- DDL --
    def create_table(self, schema: TableSchema):
        """Create a table, in a transaction of its own."""

        txn = self.begin()
        try:
            self._charge("sql_statement_base")
            heap = self.catalog.create_table(schema)
            self.wal.append(txn.txn_id, LogRecordType.CREATE_TABLE,
                            schema.name, extra={"schema": schema.copy()})
        except BaseException:
            self.abort(txn)
            raise
        self.commit(txn)
        return heap

    def create_index(self, index_name: str, table: str, columns, *,
                     unique: bool = False):
        self._charge("sql_statement_base")
        return self.catalog.create_index(index_name, table, columns,
                                         unique=unique)

    # ------------------------------------------------------------------- DML --
    def _prepared(self, kind, table: str, columns: tuple):
        key = (kind, table, columns)
        try:
            return self._statements[key]
        except KeyError:
            statement = self._statements[key] = kind(self, table, columns)
            return statement

    def prepare_select(self, table: str, columns=()) -> "PreparedSelect":
        """The SELECT binding *columns* by equality (none: the heap scan)."""

        return self._prepared(PreparedSelect, table, tuple(columns))

    def prepare_insert(self, table: str) -> "PreparedInsert":
        return self._prepared(PreparedInsert, table, ())

    def prepare_update(self, table: str, columns=()) -> "PreparedUpdate":
        return self._prepared(PreparedUpdate, table, tuple(columns))

    def prepare_delete(self, table: str, columns=()) -> "PreparedDelete":
        return self._prepared(PreparedDelete, table, tuple(columns))

    def insert(self, table: str, row: dict, txn: Transaction | None = None) -> int:
        """Insert *row* into *table*; returns the new row id."""

        try:
            statement = self._statements[PreparedInsert, table, ()]
        except KeyError:
            statement = self.prepare_insert(table)
        return statement(row, txn=txn)[0]

    def insert_many(self, table: str, rows: list[dict],
                    txn: Transaction | None = None) -> list[int]:
        """Multi-row INSERT: one statement, many rows; returns the new row ids.

        Parsing/planning (``sql_statement_base``) is charged once for the
        whole statement instead of once per row, which is what makes batched
        ingest measurably cheaper than row-at-a-time inserts.
        """

        return self.prepare_insert(table)(*rows, txn=txn)

    def select(self, table: str, where=None, txn: Transaction | None = None, *,
               for_update: bool = False, lock: bool = True) -> list[dict]:
        """Return matching rows (each carries its row id under ``"_rid"``).

        When called inside a transaction with ``lock=True`` the matched rows
        are locked shared (or exclusive with ``for_update=True``) following
        strict two-phase locking.
        """

        match = None
        if type(where) is not dict:
            match, where = compile_where(where)
        try:
            statement = self._statements[PreparedSelect, table, tuple(where)]
        except KeyError:
            statement = self.prepare_select(table, where)
        return statement(*where.values(), txn=txn, for_update=for_update,
                         lock=lock, match=match)

    def select_one(self, table: str, where=None, txn: Transaction | None = None,
                   **kwargs) -> dict | None:
        rows = self.select(table, where, txn, **kwargs)
        return rows[0] if rows else None

    def max_key(self, table: str):
        """``MAX`` over *table*'s single-column primary key (``None`` if empty).

        Charged as what a DBMS does for ``MAX`` over an indexed key,
        independent of table size: one ``sql_statement_base``, one
        ``index_probe`` (the descent to the last key) and one ``row_read``
        (the aggregate's single result row).  The value comes from a cached
        maximum validated against the heap's mutation counter, so id
        allocation over a growing table does not re-walk every row either.
        A mutation that bypassed this facade (replication redo, recovery,
        rollback, snapshot restore) bumps the counter and forces a rescan,
        so the cached maximum can never go stale.
        """

        plan = self._plan(table)
        column = plan.pk_single
        if column is None:
            raise ValueError(
                f"table {table}: max_key needs a single-column primary key")
        stmt, stmt_meter = self._stmt
        probe, probe_meter = self._probe
        read, read_meter = self._read
        self.clock.ticks += stmt + probe + read
        stmt_meter[0] += 1
        probe_meter[0] += 1
        read_meter[0] += 1
        mutations = plan.heap.mutations
        cached = self._max_keys.get(table)
        if cached is not None and cached[1] == mutations:
            return cached[0]
        best = None
        for row in plan.rows.values():
            value = row[column]
            if value is not None and (best is None or value > best):
                best = value
        self._max_keys[table] = (best, mutations)
        return best

    def update(self, table: str, where, changes: dict,
               txn: Transaction | None = None) -> int:
        """Update matching rows with *changes*; returns the number touched."""

        match = None
        if type(where) is not dict:
            match, where = compile_where(where)
        return self.prepare_update(table, where)(
            changes, *where.values(), txn=txn, match=match)

    def delete(self, table: str, where, txn: Transaction | None = None) -> int:
        """Delete matching rows; returns the number removed."""

        match = None
        if type(where) is not dict:
            match, where = compile_where(where)
        return self.prepare_delete(table, where)(
            *where.values(), txn=txn, match=match)

    # ------------------------------------------------------------ DML helpers --
    def _settle_write_charges(self, finished: int, acquired_pending: bool) -> None:
        """Apply the deferred charges of an update/delete loop.

        *finished* rows each owe a (lock_acquire, row_write) pair;
        *acquired_pending* marks a row whose lock was taken but whose write
        never completed (validation or uniqueness raised), which owes its
        lone lock_acquire.
        """

        locks = finished + 1 if acquired_pending else finished
        lock, lock_meter = self._lock
        write, write_meter = self._write
        self.clock.ticks += lock * locks + write * finished
        lock_meter[0] += locks
        write_meter[0] += finished

    def _check_unique(self, table: str, row: dict, exclude_rid: int | None,
                      plan: _TablePlan) -> None:
        for index, columns, entries in plan.unique_plans:
            # A unique index's bucket is a bare row id; a derived one
            # answers through ``bucket()`` (see ``index.py``).
            if entries is not None:
                bucket = entries.get(index.key_of(row), ())
            else:
                bucket = index.bucket([row[column] for column in columns])
            for rid in (bucket,) if type(bucket) is int else bucket:
                if rid != exclude_rid:
                    key = tuple(row[column] for column in columns)
                    raise DuplicateKeyError(
                        f"table {table}: duplicate key {key!r} for index {index.name}")

    # ---------------------------------------------------------------- undo ----
    def apply_undo(self, record, during_recovery: bool = False) -> None:
        """Apply the inverse of a data log record and write a CLR."""

        if record.table is None or not self.catalog.has_table(record.table):
            return
        heap = self.catalog.heap(record.table)
        if record.type is LogRecordType.INSERT:
            if heap.exists(record.rid):
                row = heap.get(record.rid)
                self.catalog.index_remove(record.table, row, record.rid)
                heap.delete(record.rid)
            redo_as, before, after = LogRecordType.DELETE, record.after, None
        elif record.type is LogRecordType.DELETE:
            if not heap.exists(record.rid):
                heap.insert(record.before, rid=record.rid)
                self.catalog.index_insert(record.table, record.before, record.rid)
            redo_as, before, after = LogRecordType.INSERT, None, record.before
        elif record.type is LogRecordType.UPDATE:
            if heap.exists(record.rid):
                current = heap.get(record.rid)
                self.catalog.index_remove(record.table, current, record.rid)
                heap.update(record.rid, record.before)
            else:
                heap.insert(record.before, rid=record.rid)
            self.catalog.index_insert(record.table, record.before, record.rid)
            redo_as, before, after = LogRecordType.UPDATE, record.after, record.before
        else:
            return
        self.wal.append(record.txn_id, LogRecordType.CLR, table=record.table,
                        rid=record.rid, before=before, after=after,
                        extra={"undone_lsn": record.lsn.value, "redo_as": redo_as.value})
        self._charge("row_write")

    # ------------------------------------------------------- checkpoint/crash --
    def checkpoint(self) -> LSN:
        """Force the log, write a CHECKPOINT record and take the checkpoint
        base at it (a fuzzy checkpoint: open transactions' effects are in
        the snapshot, and recovery undoes the losers among them).

        The base is the one a fold of the log takes too (see
        :mod:`repro.storage.wal`): ``{"lsn", "snapshot", "next_txn_id"}``,
        where recovery starts.  Unlike a fold, an explicit checkpoint is
        logged and charged -- one ``log_write`` -- and drops no record
        itself (its flushes may fold the log, like any other flush).
        """

        self.wal.flush()
        self._charge("log_write")
        record = self.wal.append(SYSTEM_TXN_ID, LogRecordType.CHECKPOINT)
        self.wal.flush()
        self._take_base()
        return record.lsn

    def _take_base(self) -> dict | None:
        """Take the checkpoint base at the log tail and return it -- the one
        place that does, for :meth:`checkpoint` and for a fold of the log
        alike.  The snapshot shares the row images (:mod:`repro.storage.
        heap`).  A crashed or recovering database's catalog is not its
        state: it takes nothing and returns ``None``."""

        if self.crashed:
            return None
        self._checkpoint = {
            "lsn": self.wal.tail_lsn(),
            "snapshot": self.catalog.snapshot(),
            "next_txn_id": self._next_txn_id,
        }
        return self._checkpoint

    def last_checkpoint(self) -> dict | None:
        return self._checkpoint

    def reset_catalog(self) -> None:
        self.catalog = Catalog()
        # The rebuilt catalog gets fresh heaps whose mutation counters
        # restart, so a surviving key maximum could validate against a
        # coincidentally equal count while holding a pre-crash value.
        self._max_keys.clear()

    def crash(self) -> None:
        """Simulate a crash: volatile state and unflushed log records are lost."""

        self.wal.lose_unflushed()
        if not self.crashed:
            self._index_defs = self.catalog.index_defs()
        self.reset_catalog()
        self._transactions.clear()
        self.locks.clear()
        self.crashed = True

    def recover(self) -> dict:
        """Run crash recovery; returns the recovery summary."""

        # Recovery rebuilds the catalog (checkpoint snapshot or reset), so
        # every heap gets a fresh mutation counter; see reset_catalog.
        self._max_keys.clear()
        summary = RecoveryManager(self).recover()
        self.catalog.ensure_indexes(self._index_defs)
        checkpoint = self._checkpoint
        if checkpoint is not None:
            self._next_txn_id = max(self._next_txn_id, checkpoint["next_txn_id"])
        self._next_txn_id = max(self._next_txn_id, summary["max_txn_id"] + 1)
        self.crashed = False
        return summary

    # ----------------------------------------------------------------- backup --
    def backup(self, label: str = "") -> BackupImage:
        """Take a full backup tagged with the current state identifier."""

        self.wal.flush()
        return self.backups.create_backup(label)

    def restore(self, image: BackupImage) -> LSN:
        """Restore from *image*; returns the database state identifier restored to.

        A checkpoint is taken immediately after the restore so that a later
        crash recovers to the restored state rather than replaying log
        records that describe the pre-restore history.
        """

        state_id = self.backups.restore(image)
        # The snapshot load rebuilt every heap (fresh mutation counters);
        # surviving key maxima would validate against stale counts.
        self._max_keys.clear()
        self.checkpoint()
        return state_id


class _Prepared:
    """One statement shape -- a table and the columns its ``where`` binds by
    equality -- resolved against the catalog (see the module docstring)."""

    __slots__ = ("db", "table", "columns", "catalog", "version", "plan",
                 "index", "entries", "charged", "key_at", "raw_key",
                 "residual")

    def __init__(self, db: Database, table: str, columns: tuple):
        self.db = db
        self.table = table
        self.columns = columns
        self._resolve()

    def _resolve(self) -> None:
        """Pick the access path: the first index whose columns are all bound
        (the primary-key index comes first and is the only charged probe).

        A bound column the table does not have raises
        :class:`~repro.errors.NoSuchColumnError` here: once per statement
        shape and catalog version, never per execution.
        """

        columns = self.columns
        plan = self.db._plan(self.table)
        known = plan.schema._by_name        # a membership test, no call
        for column in columns:
            if column not in known:
                plan.schema.column(column)      # raises NoSuchColumnError
        self.index = self.entries = self.key_at = self.raw_key = None
        self.charged = False
        for index in plan.indexes:
            for column in index.columns:
                if column not in columns:
                    break
            else:
                self.index = index
                self.charged = index is plan.pk_index
                self.key_at = tuple([columns.index(column)
                                     for column in index.columns])
                # ``None`` for derived (DATALINK) keys: those go through
                # ``bucket()``, which finds a superset, so the key columns
                # stay in the residual test.
                self.entries = index.raw_entries
                if self.entries is not None:
                    # The stored key from the bound values: the bare value
                    # of a one-column key, a tuple of several.
                    self.raw_key = itemgetter(*self.key_at)
                break
        self.residual = tuple([
            (column, at) for at, column in enumerate(columns)
            if self.entries is None or column not in self.index.columns])
        self.plan = plan
        self.catalog = plan.catalog
        self.version = plan.version

    def _find(self, values: tuple, clock, match) -> list:
        """``(rid, stored row)`` matches in heap order.

        The rows are the heap's *stored* dicts (no copy): callers copy what
        they return, log the dict itself, and nobody mutates a stored dict
        (module docstring) -- an update replaces it -- so a reference taken
        here stays pre-update even while the statement mutates the table.
        Enumerating candidates is free; only a complete primary key owes an
        ``index_probe``.  *match* (a row predicate: a callable where, or
        one a prepared statement's caller passes) replaces the residual
        equality test -- it implies the bindings it came with.
        """

        plan = self.plan
        rows = plan.rows
        index = self.index
        if index is None:
            heap = plan.heap
            order = heap._sorted_rids
            if order is None:
                order = heap._sorted_rids = sorted(rows)
            pairs = [(rid, rows[rid]) for rid in order]
        else:
            if self.charged:
                amount, meter = self.db._probe
                clock.ticks += amount
                meter[0] += 1
            raw_key = self.raw_key
            if raw_key is None:
                bucket = index.bucket([values[at] for at in self.key_at])
            else:
                try:
                    bucket = self.entries[raw_key(values)]
                except KeyError:
                    return ()
            if type(bucket) is int:
                # One row: a hash index's bucket is the bare row id.
                pairs = [(bucket, rows[bucket])] if bucket in rows else ()
            elif len(bucket) == 1:
                for rid in bucket:
                    break
                pairs = [(rid, rows[rid])] if rid in rows else ()
            else:
                # Sorting reproduces the heap's stable scan order.
                pairs = [(rid, rows[rid])
                         for rid in sorted(bucket) if rid in rows]
        if match is not None:
            return [pair for pair in pairs if match(pair[1])]
        residual = self.residual
        if not residual:
            return pairs
        kept = []
        for pair in pairs:
            row = pair[1]
            for column, at in residual:
                if row.get(column) != values[at]:
                    break
            else:
                kept.append(pair)
        return kept


class PreparedSelect(_Prepared):
    """``stmt(*values, txn=None, for_update=False, lock=True)`` -> rows."""

    __slots__ = ()

    def __call__(self, *values, txn: Transaction | None = None,
                 for_update: bool = False, lock: bool = True, match=None,
                 base: bool = True):
        """The rows matching *values*, each a copy carrying ``_rid``.

        *base* ``False`` leaves out the ``sql_statement_base`` charge: a
        later key of a set-oriented statement that already paid it.
        """

        db = self.db
        catalog = db.catalog
        if catalog is not self.catalog or catalog.version != self.version:
            self._resolve()
        clock = db.clock
        if base:
            amount, meter = db._stmt
            clock.ticks += amount
            meter[0] += 1
        pairs = self._find(values, clock, match)
        if not pairs:
            return []
        if txn is not None and lock:
            # Per-match charges are applied as one batch: nothing between
            # two matches reads the clock.  When an acquire raises
            # mid-statement the ``finally`` still charges the completed ones.
            mode = LockMode.EXCLUSIVE if for_update else LockMode.SHARED
            table = self.table
            txn_id = txn.txn_id
            acquire = db.locks.acquire
            rows = []
            try:
                for rid, row in pairs:
                    acquire(txn_id, ("row", table, rid), mode)
                    rows.append(dict(row, _rid=rid))
            finally:
                count = len(rows)
                lock, lock_meter = db._lock
                read, read_meter = db._read
                clock.ticks += (lock + read) * count
                lock_meter[0] += count
                read_meter[0] += count
            return rows
        if len(pairs) == 1:
            rid, row = pairs[0]
            rows = [dict(row, _rid=rid)]
        else:
            rows = [dict(row, _rid=rid) for rid, row in pairs]
        amount, meter = db._read
        count = len(rows)
        clock.ticks += amount * count
        meter[0] += count
        return rows


class _PreparedWrite(_Prepared):
    """A write statement; without ``txn`` it is its own transaction."""

    __slots__ = ()

    def __call__(self, *args, txn: Transaction | None = None, match=None):
        db = self.db
        if txn is None and db.crashed:
            raise TransactionNotActive(
                f"database {db.name} crashed; run recover() first")
        catalog = db.catalog
        if catalog is not self.catalog or catalog.version != self.version:
            self._resolve()
        clock = db.clock
        if txn is not None:
            if txn.state is not TxnState.ACTIVE:
                txn.require_active()
            amount, meter = db._stmt
            clock.ticks += amount
            meter[0] += 1
            return self._run(args, match, txn.txn_id, txn.records, False)
        # Single-statement transaction (module docstring): BEGIN, the
        # statement, COMMIT -- the records, flush and charges of
        # ``begin()`` / statement / ``commit()`` without their bookkeeping.
        txn_id = db._next_txn_id
        db._next_txn_id = txn_id + 1
        wal = db.wal
        wal.append(txn_id, LogRecordType.BEGIN)
        amount, meter = db._stmt    # BEGIN's and the statement's
        clock.ticks += amount * 2
        meter[0] += 2
        records = []
        try:
            result = self._run(args, match, txn_id, records, True)
        except BaseException:
            db.abort(Transaction(txn_id, records=records))
            raise
        wal.append(txn_id, LogRecordType.COMMIT)
        if wal.note_commit():
            amount, meter = db._log
            clock.ticks += amount
            meter[0] += 1
        return result


class PreparedInsert(_PreparedWrite):
    """``stmt(*rows, txn=None)`` -> row ids: one statement, charged once."""

    __slots__ = ()

    def _run(self, rows, match, txn_id: int, records: list, single: bool):
        db = self.db
        table = self.table
        plan = self.plan
        heap = plan.heap
        pk_single = plan.pk_single
        locks = db.locks
        held = locks._holders
        rids = list(rows)       # one slot per row, filled with its row id
        for at, row in enumerate(rows):
            normalized = plan.schema.validate_row(row)
            db._check_unique(table, normalized, None, plan)
            # The per-row charges -- lock_acquire for the key lock (when
            # the table has a primary key) and for the row lock, and
            # row_write -- are contiguous in clock time, so they are charged
            # together when the row completes; on a partial failure only
            # the lock charges actually incurred are.
            locks_taken = 0
            try:
                if plan.pk_cols:
                    key = (normalized[pk_single],) if pk_single is not None \
                        else tuple([normalized[c] for c in plan.pk_cols])
                    resource = ("key", table, key)
                    if not single or resource in held:
                        locks.acquire(txn_id, resource, LockMode.EXCLUSIVE)
                    locks_taken = 1
                rid = heap.insert(normalized)
                cached = db._max_keys.get(table)
                if cached is not None and cached[1] == heap.mutations - 1:
                    # Keep a warm key maximum warm: nothing else touched
                    # the heap since it was taken, so this key is the only
                    # candidate for a new maximum.  Otherwise leave it
                    # stale -- max_key rescans on the counter mismatch.
                    best = cached[0]
                    value = normalized[pk_single]
                    if best is None or (value is not None and value > best):
                        best = value
                    db._max_keys[table] = (best, heap.mutations)
                resource = ("row", table, rid)
                if not single or resource in held:
                    locks.acquire(txn_id, resource, LockMode.EXCLUSIVE)
                locks_taken += 1
                for index in plan.indexes:
                    index.insert(normalized, rid)
                records.append(db.wal.append(
                    txn_id, LogRecordType.INSERT, table, rid, None,
                    normalized))
            except BaseException:
                db._charge_run("lock_acquire", locks_taken)
                raise
            lock, lock_meter = db._lock
            write, write_meter = db._write
            db.clock.ticks += lock * locks_taken + write
            lock_meter[0] += locks_taken
            write_meter[0] += 1
            rids[at] = rid
        return rids


class PreparedUpdate(_PreparedWrite):
    """``stmt(changes, *values, txn=None)`` -> rows touched."""

    __slots__ = ()

    def _run(self, args, match, txn_id: int, records: list, single: bool):
        db = self.db
        table = self.table
        plan = self.plan
        heap = plan.heap
        indexes = plan.indexes
        locks = db.locks
        held = locks._holders
        touched = 0
        # Charges are deferred as in the locked select: each finished row
        # owes a (lock_acquire, row_write) pair, and a row that got its
        # lock but failed validation owes the lone lock_acquire.
        acquired = False
        try:
            for rid, row in self._find(args[1:], db.clock, match):
                resource = ("row", table, rid)
                if not single or resource in held:
                    locks.acquire(txn_id, resource, LockMode.EXCLUSIVE)
                acquired = True
                new_row = dict(row)
                new_row.update(args[0])
                normalized = plan.schema.validate_row(new_row)
                db._check_unique(table, normalized, rid, plan)
                for index in indexes:
                    index.remove(row, rid)
                heap.update(rid, normalized)
                for index in indexes:
                    index.insert(normalized, rid)
                records.append(db.wal.append(
                    txn_id, LogRecordType.UPDATE, table, rid, row,
                    normalized))
                acquired = False
                touched += 1
        finally:
            db._settle_write_charges(touched, acquired)
        return touched


class PreparedDelete(_PreparedWrite):
    """``stmt(*values, txn=None)`` -> rows removed."""

    __slots__ = ()

    def _run(self, values, match, txn_id: int, records: list, single: bool):
        db = self.db
        table = self.table
        plan = self.plan
        heap = plan.heap
        indexes = plan.indexes
        locks = db.locks
        held = locks._holders
        pk_single = plan.pk_single
        removed = 0
        try:
            for rid, row in self._find(values, db.clock, match):
                resource = ("row", table, rid)
                if not single or resource in held:
                    locks.acquire(txn_id, resource, LockMode.EXCLUSIVE)
                for index in indexes:
                    index.remove(row, rid)
                heap.delete(rid)
                cached = db._max_keys.get(table)
                if cached is not None and cached[1] == heap.mutations - 1:
                    # As in insert: a warm maximum stays warm when the key
                    # that left is below it (a NULL key is below all).
                    # Deleting the maximum itself leaves it stale, and
                    # max_key rescans.
                    key = row[pk_single]
                    if key is None or key < cached[0]:
                        db._max_keys[table] = (cached[0], heap.mutations)
                records.append(db.wal.append(
                    txn_id, LogRecordType.DELETE, table, rid, row))
                removed += 1
        finally:
            db._settle_write_charges(removed, False)
        return removed
