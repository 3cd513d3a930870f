"""The database facade: transactions, DML, checkpoints, crash and backup.

One :class:`Database` instance plays the role of DB2 for the host database
and of the DLFM's private repository on each file server.  It provides:

* typed tables with primary keys and secondary indexes;
* strict two-phase locking at row granularity;
* write-ahead logging with explicit flush, ARIES-style recovery after a
  simulated crash, savepoints, and two-phase-commit participation
  (``prepare`` / ``commit_prepared`` / ``abort_prepared``);
* full backups tagged with the tail LSN -- the *database state identifier*
  the paper uses to coordinate file and database restore.

All costs are charged to the node's :class:`~repro.simclock.SimClock`
(clock domain) when one is supplied, so benchmarks can attribute latency to
SQL work; ``stats_prefix`` additionally keeps a scaled embedded store's
charges (the DLFM repository) separate from host-database charges in the
statistics.
"""

from __future__ import annotations

import contextlib

from repro.errors import (
    DuplicateKeyError,
    NoSuchTableError,
    PreparedStateError,
    TransactionNotActive,
)
from repro.simclock import TICKS_PER_SECOND, SimClock
from repro.storage.backup import BackupImage, BackupManager
from repro.storage.catalog import Catalog
from repro.storage.lock_manager import LockManager, LockMode
from repro.storage.query import _match_all, compile_where
from repro.storage.recovery import RecoveryManager
from repro.storage.schema import TableSchema
from repro.storage.transaction import Transaction, TxnState
from repro.storage.wal import FlushPolicy, LogRecordType, WriteAheadLog
from repro.util.lsn import LSN

SYSTEM_TXN_ID = 0

#: Gates the statement fast path that bypasses the general scan machinery:
#: the point-SELECT short cut in :meth:`Database.select`.  ``False`` routes
#: every select through the reference implementation; both modes produce
#: bit-identical rows and simulated charges (see
#: tests/test_bulk_fastpaths.py).
FAST_SCANS = True


class _TablePlan:
    """Pre-resolved per-table execution state for the DML hot paths.

    Everything a statement needs -- schema, heap row store, primary-key
    index internals, secondary-index enumeration order, unique constraints
    -- resolved once and validated per use against the owning catalog's
    ``version`` counter (and catalog identity, which changes on
    ``reset_catalog``).  ``rows`` aliases the heap's internal dict; the heap
    only rebinds it in ``load_snapshot``, which always happens on a fresh
    heap behind a catalog version bump.
    """

    __slots__ = ("catalog", "version", "schema", "heap", "rows", "pk_index",
                 "pk_entries", "pk_cols", "pk_single", "indexes",
                 "index_plans", "unique_plans")


class Database:
    """A single-node relational database with WAL, 2PL and recovery.

    ``flush_policy`` selects when COMMIT records are forced to the durable
    log: ``"immediate"`` (one log force per commit, the default) or
    ``"group"`` (a single force covers up to ``group_commit_window`` commits
    -- see :class:`~repro.storage.wal.FlushPolicy`).  Prepare votes,
    checkpoints and backups always force the log regardless of policy.
    """

    def __init__(self, name: str, clock: SimClock | None = None,
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
        self.locks = LockManager()
        self.backups = BackupManager(self)
        self._transactions: dict[int, Transaction] = {}
        if clock is not None:
            self._prime()
        #: Extended per-table plans (:class:`_TablePlan`), validated against
        #: the catalog's version counter on every probe.
        self._plans: dict[str, _TablePlan] = {}
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
        self._restored_to: LSN | None = None
        self._crashed = False

    # ------------------------------------------------------------------ utils --
    def now(self) -> float:
        clock = self.clock
        return clock.ticks / TICKS_PER_SECOND if clock is not None else 0.0

    def _charge(self, primitive: str) -> None:
        clock = self.clock
        if clock is not None:
            amount, meter = self._meters[primitive]
            clock.ticks += amount
            meter[0] += 1

    def _charge_run(self, primitive: str, times: int) -> None:
        """*times* back-to-back unit charges of *primitive*: one multiply."""

        clock = self.clock
        if clock is not None:
            amount, meter = self._meters[primitive]
            clock.ticks += amount * times
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
        plan.pk_entries = getattr(pk_index, "raw_entries", None)
        pk_cols = schema.primary_key
        plan.pk_cols = pk_cols
        plan.pk_single = pk_cols[0] if len(pk_cols) == 1 else None
        plan.indexes = indexes
        plan.index_plans = tuple(
            (index, index.columns,
             index.columns[0] if len(index.columns) == 1 else None,
             getattr(index, "raw_entries", None))
            for index in indexes)
        plan.unique_plans = tuple(
            entry for entry in plan.index_plans if entry[0].unique)
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

    def note_restored_to(self, state_id: LSN) -> None:
        self._restored_to = state_id

    @property
    def restored_to(self) -> LSN | None:
        return self._restored_to

    # ----------------------------------------------------------- transactions --
    def begin(self) -> Transaction:
        """Start a new transaction."""

        if self._crashed:
            raise TransactionNotActive(f"database {self.name} crashed; run recover() first")
        transaction = Transaction(txn_id=self._next_txn_id)
        self._next_txn_id += 1
        self._transactions[transaction.txn_id] = transaction
        self.wal.append(transaction.txn_id, LogRecordType.BEGIN)
        clock = self.clock
        if clock is not None:
            amount, meter = self._stmt
            clock.ticks += amount
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
        """Commit *txn*: force the log (per flush policy), run callbacks, release locks.

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
            clock = self.clock
            if clock is not None:
                amount, meter = self._log
                clock.ticks += amount
                meter[0] += 1
        txn.state = TxnState.COMMITTED
        # ``_finish`` inlined: commit is the per-transaction hot path.
        try:
            del self._transactions[txn.txn_id]
        except KeyError:      # begun before a crash() emptied the table
            pass
        self.locks.release_all(txn.txn_id)
        callbacks = txn.on_commit
        if callbacks:
            for callback in callbacks:
                callback()
            callbacks.clear()
        return self.wal.tail_lsn()

    def commit_many(self, txns: list[Transaction]) -> LSN:
        """Group-commit a batch: one log force covers every transaction.

        This is the explicit form of group commit used by the sharded
        deployment's commit queue; it forces the log exactly once no matter
        how many transactions are in the batch (and regardless of policy).
        """

        for txn in txns:
            txn.require_active_or_prepared()
        for txn in txns:
            self.wal.append(txn.txn_id, LogRecordType.COMMIT)
        if txns:
            self.wal.flush()
            self._charge("log_write")
        for txn in txns:
            txn.state = TxnState.COMMITTED
            self._finish(txn, txn.on_commit)
        return self.wal.tail_lsn()

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
        self._finish(txn, txn.on_abort)

    def _finish(self, txn: Transaction, callbacks: list) -> None:
        # A finished transaction leaves the table: only active and prepared
        # (in-doubt) ones are ever looked up again.
        self._transactions.pop(txn.txn_id, None)
        self.locks.release_all(txn.txn_id)
        for callback in callbacks:
            callback()
        callbacks.clear()

    # two-phase commit -----------------------------------------------------------
    def prepare(self, txn: Transaction, extra: dict | None = None) -> None:
        """First phase of 2PC: make the transaction's effects durable, keep locks.

        ``extra`` is stored in the durable PREPARE record; resource managers
        use it to persist the coordinator's transaction id so an in-doubt
        branch can be mapped back to its host transaction after a crash.
        """

        txn.require_active()
        self.wal.append(txn.txn_id, LogRecordType.PREPARE,
                        extra=dict(extra) if extra else {})
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

    # savepoints -------------------------------------------------------------------
    def savepoint(self, txn: Transaction, name: str) -> None:
        txn.require_active()
        self.wal.append(txn.txn_id, LogRecordType.SAVEPOINT, extra={"name": name})
        txn.add_savepoint(name)

    def rollback_to_savepoint(self, txn: Transaction, name: str) -> None:
        """Undo every change made after the named savepoint."""

        txn.require_active()
        savepoint = txn.find_savepoint(name)
        if savepoint is None:
            raise TransactionNotActive(
                f"transaction {txn.txn_id}: no savepoint named {name!r}")
        while len(txn.records) > savepoint.record_count:
            record = txn.records.pop()
            self.apply_undo(record)
        txn.drop_savepoints_after(savepoint)

    # ------------------------------------------------------------------- DDL --
    def create_table(self, schema: TableSchema, txn: Transaction | None = None):
        """Create a table (auto-committed when no transaction is supplied)."""

        with self._autotxn(txn) as active:
            self._charge("sql_statement_base")
            heap = self.catalog.create_table(schema)
            self.wal.append(active.txn_id, LogRecordType.CREATE_TABLE,
                            table=schema.name, extra={"schema": schema.copy()})
            return heap

    def drop_table(self, name: str, txn: Transaction | None = None) -> None:
        with self._autotxn(txn) as active:
            self._charge("sql_statement_base")
            schema = self.catalog.schema(name)
            self.catalog.drop_table(name)
            self.wal.append(active.txn_id, LogRecordType.DROP_TABLE,
                            table=name, extra={"schema": schema.copy()})

    def create_index(self, index_name: str, table: str, columns, *,
                     unique: bool = False, ordered: bool = False):
        self._charge("sql_statement_base")
        return self.catalog.create_index(index_name, table, columns,
                                         unique=unique, ordered=ordered)

    # ------------------------------------------------------------------- DML --
    def insert(self, table: str, row: dict, txn: Transaction | None = None) -> int:
        """Insert *row* into *table*; returns the new row id."""

        if txn is not None and txn.state is TxnState.ACTIVE:
            clock = self.clock
            if clock is not None:
                amount, meter = self._stmt
                clock.ticks += amount
                meter[0] += 1
            try:
                plan = self._plans[table]
            except KeyError:
                plan = self._build_plan(table)
            else:
                catalog = self.catalog
                if plan.catalog is not catalog or \
                        plan.version != catalog.version:
                    plan = self._build_plan(table)
            return self._insert_row(table, row, txn, plan)
        with self._autotxn(txn) as active:
            active.require_active()
            self._charge("sql_statement_base")
            return self._insert_row(table, row, active, self._plan(table))

    def insert_many(self, table: str, rows: list[dict],
                    txn: Transaction | None = None) -> list[int]:
        """Multi-row INSERT: one statement, many rows; returns the new row ids.

        Parsing/planning (``sql_statement_base``) is charged once for the
        whole statement instead of once per row, which is what makes batched
        ingest measurably cheaper than row-at-a-time inserts.
        """

        with self._autotxn(txn) as active:
            active.require_active()
            self._charge("sql_statement_base")
            plan = self._plan(table)
            return [self._insert_row(table, row, active, plan) for row in rows]

    def _insert_row(self, table: str, row: dict, active: Transaction,
                    plan: _TablePlan) -> int:
        normalized = plan.schema.validate_row(self._strip_internal(row))
        self._check_unique(table, normalized, None, plan)
        # The per-row charges -- lock_acquire for the key lock (when the
        # table has a primary key), lock_acquire for the row lock, and
        # row_write -- are contiguous in clock time (nothing between them
        # touches the clock), so they are deferred and charged together
        # when the insert completes.  On a partial failure
        # (a lock conflict, a duplicate secondary key) only the lock
        # charges actually incurred are charged.
        clock = self.clock
        txn_id = active.txn_id
        acquire = self.locks.acquire
        locks_taken = 0
        try:
            pk_single = plan.pk_single
            if pk_single is not None:
                acquire(txn_id, ("key", table, (normalized[pk_single],)),
                        LockMode.EXCLUSIVE)
                locks_taken = 1
            elif plan.pk_cols:
                key = tuple(normalized[name] for name in plan.pk_cols)
                acquire(txn_id, ("key", table, key), LockMode.EXCLUSIVE)
                locks_taken = 1
            rid = plan.heap.insert(normalized)
            cached = self._max_keys.get(table)
            if cached is not None:
                # Keep a warm key maximum warm: if nothing else touched the
                # heap since it was taken, this insert's key is the only
                # candidate for a new maximum.  Otherwise leave it stale --
                # max_key rescans on the counter mismatch.
                heap_mutations = plan.heap.mutations
                if cached[1] == heap_mutations - 1:
                    best = cached[0]
                    value = normalized[pk_single]
                    if best is None or \
                            (value is not None and value > best):
                        best = value
                    self._max_keys[table] = (best, heap_mutations)
            acquire(txn_id, ("row", table, rid), LockMode.EXCLUSIVE)
            locks_taken += 1
            for index in plan.indexes:
                index.insert(normalized, rid)
            record = self.wal.append(txn_id, LogRecordType.INSERT, table=table,
                                     rid=rid, after=dict(normalized))
            active.records.append(record)
        except BaseException:
            if locks_taken:
                self._charge_run("lock_acquire", locks_taken)
            raise
        if clock is not None:
            lock, lock_meter = self._lock
            write, write_meter = self._write
            clock.ticks += lock * locks_taken + write
            lock_meter[0] += locks_taken
            write_meter[0] += 1
        return rid

    def select(self, table: str, where=None, txn: Transaction | None = None, *,
               for_update: bool = False, lock: bool = True) -> list[dict]:
        """Return matching rows (each carries its row id under ``"_rid"``).

        When called inside a transaction with ``lock=True`` the matched rows
        are locked shared (or exclusive with ``for_update=True``) following
        strict two-phase locking.
        """

        clock = self.clock
        if clock is not None:
            amount, meter = self._stmt
            clock.ticks += amount
            meter[0] += 1
        # ``self._plan(table)`` written out inline: the cache probe is two
        # attribute loads on the hot hit path, and select is the single
        # most-issued statement on the million-link tier.
        try:
            plan = self._plans[table]
        except KeyError:
            plan = self._build_plan(table)
        else:
            catalog = self.catalog
            if plan.catalog is not catalog or plan.version != catalog.version:
                plan = self._build_plan(table)
        if FAST_SCANS and type(where) is dict and where and \
                (txn is None or not lock):
            matched = self._point_select(plan, where, clock)
            if matched is not None:
                return matched
        predicate, bindings = compile_where(where)
        candidates = self._candidate_rows(plan, bindings, clock)
        # Per-match charges are deferred and applied as one batch after
        # the loop: nothing between two matches reads the clock, and tick
        # sums are exact in any grouping.  When
        # an acquire raises mid-statement the ``finally`` still charges the
        # completed matches.
        # Candidates are the *stored* row dicts: the predicate filters them
        # without a per-candidate copy, and only matches are materialized.
        if txn is not None and lock:
            mode = LockMode.EXCLUSIVE if for_update else LockMode.SHARED
            txn_id = txn.txn_id
            acquire = self.locks.acquire
            rows = []
            try:
                if predicate is _match_all:
                    for rid, row in candidates:
                        acquire(txn_id, ("row", table, rid), mode)
                        rows.append(dict(row, _rid=rid))
                else:
                    for rid, row in candidates:
                        if not predicate(row):
                            continue
                        acquire(txn_id, ("row", table, rid), mode)
                        rows.append(dict(row, _rid=rid))
            finally:
                if clock is not None:
                    count = len(rows)
                    lock, lock_meter = self._lock
                    read, read_meter = self._read
                    clock.ticks += (lock + read) * count
                    lock_meter[0] += count
                    read_meter[0] += count
            return rows
        if predicate is _match_all:
            rows = [dict(row, _rid=rid) for rid, row in candidates]
        else:
            rows = [dict(row, _rid=rid) for rid, row in candidates
                    if predicate(row)]
        if clock is not None and rows:
            amount, meter = self._read
            count = len(rows)
            clock.ticks += amount * count
            meter[0] += count
        return rows

    def select_one(self, table: str, where=None, txn: Transaction | None = None,
                   **kwargs) -> dict | None:
        rows = self.select(table, where, txn, **kwargs)
        return rows[0] if rows else None

    def _point_select(self, plan: _TablePlan, where: dict, clock):
        """Unlocked point-SELECT short cut (:data:`FAST_SCANS`).

        Handles the dominant statement shape -- an equality ``where`` dict
        whose keys are exactly one index's columns -- without compiling a
        predicate or materializing a candidate list, replaying the general
        path's charges verbatim: an ``index_probe`` for a complete
        primary-key probe, nothing for secondary-index enumeration, and a
        ``row_read`` per match.  Returns ``None``, before any charge beyond
        the caller's ``sql_statement_base``, when the shape is not covered
        (the caller falls back to the general path).
        """

        rows = plan.rows
        bucket = None
        pk_single = plan.pk_single
        if pk_single is not None:
            if len(where) != 1:
                return None
            entries = plan.pk_entries
            if pk_single in where and entries is not None:
                if clock is not None:
                    amount, meter = self._probe
                    clock.ticks += amount
                    meter[0] += 1
                try:
                    bucket = entries[(where[pk_single],)]
                except KeyError:
                    return []
        elif plan.pk_cols and len(where) == len(plan.pk_cols):
            complete = True
            for column in plan.pk_cols:
                if column not in where:
                    complete = False
                    break
            entries = plan.pk_entries
            if complete and entries is not None:
                if clock is not None:
                    amount, meter = self._probe
                    clock.ticks += amount
                    meter[0] += 1
                try:
                    bucket = entries[tuple(where[column]
                                           for column in plan.pk_cols)]
                except KeyError:
                    return []
        if bucket is None:
            if len(where) != 1:
                return None
            # Single-column secondary probe: the first index on exactly the
            # bound column, enumeration deliberately uncharged (matching
            # ``_candidate_rows``).
            for index, columns, single, entries in plan.index_plans:
                if single is None or single not in where:
                    continue
                if entries is None:
                    return None
                try:
                    bucket = entries[(where[single],)]
                except KeyError:
                    return []
                break
            if bucket is None:
                return None
        if len(bucket) == 1:
            for rid in bucket:
                break
            row = rows.get(rid)
            if row is None:
                return []
            matched = [dict(row, _rid=rid)]
        else:
            matched = [dict(rows[rid], _rid=rid)
                       for rid in sorted(bucket) if rid in rows]
            if not matched:
                return []
        if clock is not None:
            # ``_charge_run("row_read", n)`` written out: one multiply.
            amount, meter = self._read
            count = len(matched)
            clock.ticks += amount * count
            meter[0] += count
        return matched

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
        clock = self.clock
        if clock is not None:
            stmt, stmt_meter = self._stmt
            probe, probe_meter = self._probe
            read, read_meter = self._read
            clock.ticks += stmt + probe + read
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

        with self._autotxn(txn) as active:
            active.require_active()
            clock = self.clock
            if clock is not None:
                amount, meter = self._stmt
                clock.ticks += amount
                meter[0] += 1
            plan = self._plan(table)
            schema = plan.schema
            heap = plan.heap
            indexes = plan.indexes
            predicate, bindings = compile_where(where)
            changes = self._strip_internal(changes)
            touched = 0
            # Charges are deferred exactly as in ``select``: each finished
            # row owes a (lock_acquire, row_write) pair, and a row that got
            # its lock but failed validation owes the lone lock_acquire the
            # per-row reference would have charged before raising.
            acquired = False
            acquire = self.locks.acquire
            txn_id = active.txn_id
            try:
                for rid, row in self._candidate_rows(plan, bindings, clock):
                    if not predicate(row):
                        continue
                    acquire(txn_id, ("row", table, rid), LockMode.EXCLUSIVE)
                    acquired = True
                    new_row = dict(row)
                    new_row.update(changes)
                    normalized = schema.validate_row(new_row)
                    self._check_unique(table, normalized, rid, plan)
                    for index in indexes:
                        index.remove(row, rid)
                    heap.update(rid, normalized)
                    for index in indexes:
                        index.insert(normalized, rid)
                    record = self.wal.append(txn_id, LogRecordType.UPDATE,
                                             table=table, rid=rid, before=dict(row),
                                             after=dict(normalized))
                    active.records.append(record)
                    acquired = False
                    touched += 1
            finally:
                self._settle_write_charges(touched, acquired)
            return touched

    def delete(self, table: str, where, txn: Transaction | None = None) -> int:
        """Delete matching rows; returns the number removed."""

        with self._autotxn(txn) as active:
            active.require_active()
            clock = self.clock
            if clock is not None:
                amount, meter = self._stmt
                clock.ticks += amount
                meter[0] += 1
            plan = self._plan(table)
            heap = plan.heap
            indexes = plan.indexes
            predicate, bindings = compile_where(where)
            removed = 0
            acquired = False
            acquire = self.locks.acquire
            txn_id = active.txn_id
            try:
                for rid, row in self._candidate_rows(plan, bindings, clock):
                    if not predicate(row):
                        continue
                    acquire(txn_id, ("row", table, rid), LockMode.EXCLUSIVE)
                    acquired = True
                    for index in indexes:
                        index.remove(row, rid)
                    heap.delete(rid)
                    record = self.wal.append(txn_id, LogRecordType.DELETE,
                                             table=table, rid=rid, before=dict(row))
                    active.records.append(record)
                    acquired = False
                    removed += 1
            finally:
                self._settle_write_charges(removed, acquired)
            return removed

    def count(self, table: str, where=None) -> int:
        return len(self.select(table, where, txn=None, lock=False))

    # ------------------------------------------------------------ DML helpers --
    def _settle_write_charges(self, finished: int, acquired_pending: bool) -> None:
        """Apply the deferred charges of an update/delete loop.

        *finished* rows each owe a (lock_acquire, row_write) pair;
        *acquired_pending* marks a row whose lock was taken but whose write
        never completed (validation or uniqueness raised), which owes its
        lone lock_acquire.
        """

        clock = self.clock
        if clock is None:
            return
        locks = finished + 1 if acquired_pending else finished
        lock, lock_meter = self._lock
        write, write_meter = self._write
        clock.ticks += lock * locks + write * finished
        lock_meter[0] += locks
        write_meter[0] += finished

    @staticmethod
    def _strip_internal(row: dict) -> dict:
        # Fast path: rows without internal ("_"-prefixed) keys -- the vast
        # majority -- are returned as-is (callers only read the result).
        # ``key[:1]`` is a zero-call prefix test, unlike ``startswith``.
        for key in row:
            if key[:1] == "_":
                return {k: v for k, v in row.items() if k[:1] != "_"}
        return row

    def _candidate_rows(self, plan: _TablePlan, bindings: dict, clock):
        """(rid, row) candidates, using the primary-key index when possible.

        Returns a fully materialized list rather than a generator: the
        callers drive tight loops and the generator resumption cost was
        measurable.  The rows are the heap's *stored* dicts (no copy): DML
        callers materialize copies only for rows that actually match, and
        the heap replaces (never mutates) stored dicts on update, so a
        reference taken here stays pre-update even while the statement
        mutates the table.
        """

        if bindings:
            rows = plan.rows
            # Single-column keys dominate; the plan pre-resolves the single
            # key column so the common probe is two dict tests.
            key = None
            pk_single = plan.pk_single
            if pk_single is not None:
                if pk_single in bindings:
                    key = (bindings[pk_single],)
            elif plan.pk_cols:
                complete = True
                for column in plan.pk_cols:
                    if column not in bindings:
                        complete = False
                        break
                if complete:
                    key = tuple(bindings[c] for c in plan.pk_cols)
            if key is not None and plan.pk_index is not None:
                if clock is not None:
                    amount, meter = self._probe
                    clock.ticks += amount
                    meter[0] += 1
                entries = plan.pk_entries
                if entries is not None:
                    try:
                        bucket = entries[key]
                    except KeyError:
                        return ()
                else:
                    bucket = plan.pk_index.bucket(key)
                if len(bucket) == 1:
                    for rid in bucket:
                        break
                    return [(rid, rows[rid])] if rid in rows else []
                return [(rid, rows[rid])
                        for rid in sorted(bucket) if rid in rows]
            # Enumerate through any secondary index whose columns are all
            # bound by equality.  This is deliberately NOT charged: the
            # historical cost model full-scanned here without a probe, and
            # candidate enumeration is free (only *matches* are charged
            # ``row_read``).  Sorting the bucket reproduces the heap's
            # stable scan order, so matches, locks and charges come out in
            # exactly the same sequence as the scan they replace.
            for index, columns, single, entries in plan.index_plans:
                if single is not None:
                    if single not in bindings:
                        continue
                    key = (bindings[single],)
                else:
                    # ``bucket`` takes stored column values (it derives a
                    # derived key itself); ``key_of`` on a raw hash index
                    # yields the same tuple in one C-level call.
                    try:
                        key = index.key_of(bindings) if entries is not None \
                            else tuple([bindings[column] for column in columns])
                    except KeyError:    # a key column is not bound
                        continue
                if entries is not None:
                    try:
                        bucket = entries[key]
                    except KeyError:
                        return ()
                else:
                    bucket = index.bucket(key)
                if len(bucket) == 1:
                    for rid in bucket:
                        break
                    return [(rid, rows[rid])] if rid in rows else []
                return [(rid, rows[rid])
                        for rid in sorted(bucket) if rid in rows]
        # Full scan (``HeapTable.scan_live`` inlined, including its cached
        # sorted-rid order maintenance).
        heap = plan.heap
        rows = heap._rows
        order = heap._sorted_rids
        if order is None:
            order = heap._sorted_rids = sorted(rows)
        return [(rid, rows[rid]) for rid in order]

    def _check_unique(self, table: str, row: dict, exclude_rid: int | None,
                      plan: _TablePlan | None = None) -> None:
        if plan is None:
            plan = self._plan(table)
        for index, columns, single, entries in plan.unique_plans:
            key = (row[single],) if single is not None else \
                tuple(row[column] for column in columns)
            if entries is not None:
                try:
                    bucket = entries[key]
                except KeyError:
                    continue
            else:
                bucket = index.bucket(key)
            for rid in bucket:
                if rid != exclude_rid:
                    raise DuplicateKeyError(
                        f"table {table}: duplicate key {key!r} for index {index.name}")

    def _autotxn(self, txn: Transaction | None) -> "_AutoTxn":
        return _AutoTxn(self, txn)

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
        """Force the log and snapshot volatile state (a fuzzy checkpoint)."""

        self.wal.flush()
        self._charge("log_write")
        record = self.wal.append(SYSTEM_TXN_ID, LogRecordType.CHECKPOINT)
        self.wal.flush()
        self._checkpoint = {
            "lsn": record.lsn,
            "snapshot": self.catalog.snapshot(),
            "next_txn_id": self._next_txn_id,
        }
        return record.lsn

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
        if not self._crashed:
            self._index_defs = self.catalog.index_defs()
        self.reset_catalog()
        self._transactions.clear()
        self.locks.clear()
        self._crashed = True

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
        for record in self.wal.records(durable_only=True):
            self._next_txn_id = max(self._next_txn_id, record.txn_id + 1)
        self._crashed = False
        return summary

    @property
    def crashed(self) -> bool:
        return self._crashed

    # -------------------------------------------------------------------- SQL --
    def execute(self, sql: str, txn: Transaction | None = None):
        """Execute one SQL statement (see :mod:`repro.storage.sql` for the dialect)."""

        from repro.storage.sql import SQLExecutor

        return SQLExecutor(self).execute(sql, txn)

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


class _AutoTxn:
    """Plain context manager behind :meth:`Database._autotxn`.

    Hand-rolled instead of ``@contextlib.contextmanager``: auto-transactions
    wrap every DML statement, and the generator-based manager's frame
    juggling showed up in profiles.
    """

    __slots__ = ("_database", "_txn", "_auto")

    def __init__(self, database: Database, txn: Transaction | None):
        self._database = database
        self._txn = txn
        self._auto: Transaction | None = None

    def __enter__(self) -> Transaction:
        if self._txn is not None:
            return self._txn
        self._auto = self._database.begin()
        return self._auto

    def __exit__(self, exc_type, exc, tb) -> bool:
        auto = self._auto
        if auto is None:
            return False
        if exc_type is not None:
            if not auto.is_finished:
                self._database.abort(auto)
            return False
        self._database.commit(auto)
        return False
