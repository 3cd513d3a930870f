"""Write-ahead log.

The log is the durability boundary of the simulated database: records appended
but not yet flushed are lost on :meth:`~repro.storage.database.Database.crash`,
while flushed records survive and drive redo during recovery.  Prepare always
forces a flush (a two-phase-commit vote must be durable); commit flushes
according to the log's *flush policy*:

``FlushPolicy.IMMEDIATE``
    every commit forces its own flush -- the classic WAL protocol and the
    default;
``FlushPolicy.GROUP``
    commits enqueue and a single flush covers a batch of up to
    ``group_window`` commits (group commit).  A transaction whose COMMIT
    record has not yet been flushed can still be lost by a crash; recovery
    then treats it as a loser, and a prepared two-phase-commit branch of it
    is resolved from the coordinator's durable outcome.

Explicit :meth:`WriteAheadLog.flush` calls (checkpoint, backup, prepare)
always drain the pending group.

The flush point is also the *replication* boundary: listeners registered
with :meth:`WriteAheadLog.add_flush_listener` are notified whenever the
durable prefix grows, which is how a shard primary ships its repository WAL
stream to a witness replica (only durable records are ever shipped, so a
replica can never hold a transaction the primary could lose in a crash).
Shipping is a *pipelined* send in simulated time: the witness applies the
batch on its own clock domain and the primary does not wait, so replication
overlaps foreground work (see :mod:`repro.simclock`).

What the log holds, and for how long
------------------------------------
A data record's ``before`` / ``after`` are the row images themselves -- the
dicts the heap stores or stored, not copies (:mod:`repro.storage.heap` has
the ownership rule: nobody mutates one).  A transaction's records are found
through :attr:`LogRecord.prev`, each record's link to the same transaction's
previous one, starting from a table of the *last record of every transaction
that has no COMMIT / ABORT yet*.  The table is all the log keeps per
transaction and an outcome record empties the entry, so a finished
transaction costs its records and nothing else.  A recovering DLFM follows
the links to look up an in-doubt branch's PREPARE
(:meth:`WriteAheadLog.records_of`; PREPARE keeps the entry).  The system
pseudo-transaction
(:data:`SYSTEM_TXN_ID`, which writes only CHECKPOINT records) is not a
transaction: its records are not linked and it never enters the table.

The log keeps only what can still be read.  A flush that leaves it
*quiescent* *folds* it once at least :data:`FOLD_AT` records are retained.
Quiescent means four things: every appended record is durable; no
transaction is open (a prepared or in-doubt branch is open, the system
pseudo-transaction never is); every *reader* has shipped to the tail; and
the owning database is neither crashed nor recovering.  A reader is a flush
listener registered together with the object whose ``cursor`` -- the last
LSN it has consumed -- it ships from (each
:class:`~repro.datalinks.replication.WalShipper`).  A reader behind the
tail, paused or with its witness unreachable, *pins* the log: nothing
folds until it has caught up, so nothing it has not shipped is dropped.
:meth:`WriteAheadLog.shipped_lsn` is that horizon -- durable, and consumed
by every reader -- and a fold needs it at the tail.
To fold, the database takes its checkpoint base at the tail -- the snapshot
recovery starts from -- and the log drops every record up to that LSN.  A
fold appends no record and charges nothing.

Behind the fold the log answers what it answered before.  ``len`` counts
every record appended and not lost to a crash (LSNs are dense, so it is
the tail LSN).
:meth:`~WriteAheadLog.records_from` maps an LSN to a position through the
fold offset and raises :class:`~repro.errors.LogFoldedError` for a suffix
that starts below it.  :meth:`~WriteAheadLog.outcome_of` answers a folded
transaction from two things: the fold *horizon* (at a quiescent fold every
transaction id the database had handed out was finished) and the table of
transactions that ended without a COMMIT -- O(aborts), not O(transactions).
:meth:`~WriteAheadLog.records_of` a folded transaction is empty; open and
prepared transactions, all its callers ask about, are never folded.
"""

from __future__ import annotations

import enum
from types import MappingProxyType

from repro.errors import LogFoldedError
from repro.util.lsn import LSN

#: Retained records at which a quiescent flush folds the log.
FOLD_AT = 4096

#: The system pseudo-transaction's id: it writes CHECKPOINT records and
#: nothing else, is never open and has no outcome.
SYSTEM_TXN_ID = 0


class FlushPolicy(enum.Enum):
    """When COMMIT records are forced to the durable log."""

    IMMEDIATE = "immediate"
    GROUP = "group"

    @classmethod
    def from_string(cls, value: "FlushPolicy | str") -> "FlushPolicy":
        if isinstance(value, FlushPolicy):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown flush policy {value!r}; "
                f"expected one of {[p.value for p in cls]}") from None


class LogRecordType(enum.Enum):
    BEGIN = "BEGIN"
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    PREPARE = "PREPARE"            # two-phase-commit vote
    INSERT = "INSERT"
    UPDATE = "UPDATE"
    DELETE = "DELETE"
    CREATE_TABLE = "CREATE_TABLE"
    CLR = "CLR"                    # compensation record written during undo
    CHECKPOINT = "CHECKPOINT"


#: The ``extra`` of every record that carries none, shared: readers only
#: index, ``.get`` and ``in`` it.
_NO_EXTRA = MappingProxyType({})


class LogRecord:
    """One WAL record.

    ``before``/``after`` carry full row images for data records, keeping undo
    and redo trivially idempotent; they are shared with the heap, never
    copied and never mutated (module docstring).  ``extra`` carries
    record-type specific payload (schema for CREATE_TABLE, undone LSN for
    CLR, ...).  ``prev`` is the same transaction's previous record (ARIES's
    prevLSN), ``None`` on its first.  Records are built only by
    :meth:`WriteAheadLog.append`, which fills the slots in place: a
    constructor frame per record was measurable there.
    """

    __slots__ = ("lsn", "txn_id", "type", "table", "rid", "before", "after",
                 "extra", "prev")


class WriteAheadLog:
    """An append-only sequence of :class:`LogRecord` with an explicit flush point."""

    def __init__(self, flush_policy: FlushPolicy | str = FlushPolicy.IMMEDIATE,
                 group_window: int = 8):
        #: The retained records: every LSN past ``_folded``, in order.
        self._records: list[LogRecord] = []
        #: Last record of each transaction with no COMMIT / ABORT yet.
        self._open: dict[int, LogRecord] = {}
        self._next_lsn = 1
        self._flushed_count = 0
        #: LSN of the last record folded away (0: none yet).
        self._folded = LSN(0)
        #: Every transaction id below this one but the system's had
        #: finished at the last fold.
        self._horizon = 0
        #: How each transaction that ended without a COMMIT ended:
        #: ``"aborted"`` (an ABORT record) or ``"unknown"`` (a crash lost
        #: every record it wrote).
        self._not_committed: dict[int, str] = {}
        self.flush_policy = FlushPolicy.from_string(flush_policy)
        self.group_window = max(1, int(group_window))
        self._pending_commits = 0
        self.flush_count = 0
        #: ``{listener: reader or None}`` (see :meth:`add_flush_listener`).
        self._flush_listeners: dict = {}
        #: Set by the owning database: takes its checkpoint base at the tail
        #: and returns it, or ``None`` while it is crashed or recovering.
        self.take_base = None

    # -- flush policy ----------------------------------------------------------
    def set_flush_policy(self, policy: FlushPolicy | str,
                         group_window: int | None = None) -> None:
        """Change the commit flush policy (and optionally the group window).

        Switching back to IMMEDIATE drains any pending group so no committed
        transaction stays non-durable longer than requested.
        """

        self.flush_policy = FlushPolicy.from_string(policy)
        if group_window is not None:
            self.group_window = max(1, int(group_window))
        if self.flush_policy is FlushPolicy.IMMEDIATE and self._pending_commits:
            self.flush()

    @property
    def pending_commits(self) -> int:
        """Commits appended since the last flush (0 under IMMEDIATE policy)."""

        return self._pending_commits

    # -- append / flush --------------------------------------------------------
    def append(self, txn_id: int, type: LogRecordType, table: str | None = None,
               rid: int | None = None, before: dict | None = None,
               after: dict | None = None, extra=_NO_EXTRA) -> LogRecord:
        """Append a record, assigning the next LSN; does not flush."""

        lsn = self._next_lsn
        self._next_lsn = lsn + 1
        record = LogRecord()
        record.lsn = LSN(lsn)
        record.txn_id = txn_id
        record.type = type
        record.table = table
        record.rid = rid
        record.before = before
        record.after = after
        record.extra = extra
        # Subscripts and statements only: a method call per record here is
        # measurable (and counted by every call-count gate).
        open_txns = self._open
        try:
            prev = record.prev = open_txns[txn_id]
        except KeyError:            # a first record, or a system one
            prev = record.prev = None
        if type is not LogRecordType.COMMIT and type is not LogRecordType.ABORT:
            if txn_id != SYSTEM_TXN_ID:
                open_txns[txn_id] = record
        else:
            if prev is not None:
                del open_txns[txn_id]
            if type is LogRecordType.ABORT:
                self._not_committed[txn_id] = "aborted"
        self._records.append(record)
        return record

    def note_commit(self) -> bool:
        """Apply the flush policy after a COMMIT record was appended.

        Returns ``True`` when the log was actually forced (so the caller can
        charge the flush cost once per physical flush, not once per commit).
        """

        if self.flush_policy is FlushPolicy.IMMEDIATE:
            self.flush()
            return True
        self._pending_commits += 1
        if self._pending_commits >= self.group_window:
            self.flush()
            return True
        return False

    # -- replication hooks -----------------------------------------------------
    def add_flush_listener(self, listener, reader=None) -> None:
        """Register *listener* to be called (with this log) after every flush.

        Listeners see the log only once the durable prefix has been
        extended, so :meth:`records_from` called from a listener returns
        exactly the newly durable records past the listener's cursor.
        *reader*, when given, is the object whose ``cursor`` the listener
        ships from: the log folds nothing while it is behind the tail.
        """

        self._flush_listeners.setdefault(listener, reader)

    def remove_flush_listener(self, listener) -> None:
        self._flush_listeners.pop(listener, None)

    def flush(self) -> LSN:
        """Make every appended record durable; returns the tail LSN."""

        records = self._records
        count = len(records)
        grew = self._flushed_count < count
        self._flushed_count = count
        self._pending_commits = 0
        self.flush_count += 1
        if grew and self._flush_listeners:
            for listener in list(self._flush_listeners):
                listener(self)
        if count >= FOLD_AT and self.take_base is not None:
            self._fold()
        # Tail is re-read after the listeners ran (``tail_lsn`` inlined).
        return records[-1].lsn if records else self._folded

    def shipped_lsn(self) -> LSN:
        """The last LSN that is durable *and* that every reader has
        consumed: what no crash can take back and no witness still lacks
        (module docstring)."""

        horizon = self.flushed_lsn
        for reader in self._flush_listeners.values():
            if reader is not None and reader.cursor < horizon:
                horizon = reader.cursor
        return horizon

    def _fold(self) -> None:
        """Drop every record up to the owner's fresh checkpoint base, if
        the log is quiescent (module docstring)."""

        records = self._records
        if self._open or self.shipped_lsn() < records[-1].lsn:
            return
        base = self.take_base()
        if base is None:
            return
        dropped = base["lsn"] - self._folded
        del records[:dropped]
        self._flushed_count -= dropped
        self._folded = base["lsn"]
        self._horizon = base["next_txn_id"]

    @property
    def flushed_lsn(self) -> LSN:
        """LSN of the last durable record (0 before the first flush); a
        folded record was durable."""

        if self._flushed_count == 0:
            return self._folded
        return self._records[self._flushed_count - 1].lsn

    def tail_lsn(self) -> LSN:
        """LSN of the last appended record (0 before the first), folded or
        retained."""

        if not self._records:
            return self._folded
        return self._records[-1].lsn

    # -- reading ----------------------------------------------------------------
    def records(self, durable_only: bool = False) -> list[LogRecord]:
        """The retained records (or only their durable prefix)."""

        if durable_only:
            return list(self._records[: self._flushed_count])
        return list(self._records)

    def records_from(self, lsn: LSN, durable_only: bool = True) -> list[LogRecord]:
        """Records with LSN strictly greater than *lsn*.

        LSNs are dense -- :meth:`append` numbers from 1 and
        :meth:`lose_unflushed` resumes at last + 1 -- so the record with
        LSN *n* sits at position *n* - 1 - (the last folded LSN) and the
        suffix is one slice.  A suffix that starts below the fold raises
        :class:`~repro.errors.LogFoldedError`.
        """

        limit = self._flushed_count if durable_only else len(self._records)
        start = lsn - self._folded
        if start < 0:
            if self._folded:
                raise LogFoldedError(
                    f"records past LSN {int(lsn)} were folded into the "
                    f"checkpoint base at LSN {int(self._folded)}")
            start = 0
        return self._records[start:limit]

    def records_of(self, txn_id: int, durable_only: bool = False) -> list[LogRecord]:
        """The records of *txn_id*, oldest first: its ``prev`` chain from
        the open-transaction table or, for a finished transaction or the
        system pseudo-transaction (a cold path only tests take), a filter
        of the retained log -- empty once the transaction was folded."""

        record = self._open.get(txn_id)
        if record is None:
            limit = self._flushed_count if durable_only else len(self._records)
            return [candidate for candidate in self._records[:limit]
                    if candidate.txn_id == txn_id]
        durable = self.flushed_lsn.value if durable_only else self._next_lsn
        chain = []
        while record is not None:
            if record.lsn.value <= durable:
                chain.append(record)
            record = record.prev
        chain.reverse()
        return chain

    def outcome_of(self, txn_id: int) -> str:
        """The durable outcome of *txn_id* -- ``"committed"``, ``"aborted"``
        or ``"unknown"`` -- scanning the retained durable records backwards
        without copying them (this runs on every 2PC in-doubt resolution),
        then answering a folded transaction from the fold horizon."""

        record = self._outcome_record(txn_id)
        if record is not None:
            return "committed" if record.type is LogRecordType.COMMIT \
                else "aborted"
        if SYSTEM_TXN_ID < txn_id < self._horizon:
            return self._not_committed.get(txn_id, "committed")
        return "unknown"

    def commit_lsn_of(self, txn_id: int) -> LSN | None:
        """The LSN of *txn_id*'s durable COMMIT, ``None`` when it has none.

        A commit folded away answers the last folded LSN, which it does not
        follow: the fold keeps outcomes, not their positions.
        """

        record = self._outcome_record(txn_id)
        if record is not None:
            return record.lsn if record.type is LogRecordType.COMMIT \
                else None
        if SYSTEM_TXN_ID < txn_id < self._horizon and \
                txn_id not in self._not_committed:
            return self._folded
        return None

    def _outcome_record(self, txn_id: int) -> "LogRecord | None":
        """*txn_id*'s retained durable COMMIT or ABORT record, if any."""

        records = self._records
        for position in range(self._flushed_count - 1, -1, -1):
            record = records[position]
            if record.txn_id == txn_id and (
                    record.type is LogRecordType.COMMIT
                    or record.type is LogRecordType.ABORT):
                return record
        return None

    # -- crash simulation --------------------------------------------------------
    def lose_unflushed(self) -> int:
        """Discard records that were never flushed; returns how many were lost."""

        lost = len(self._records) - self._flushed_count
        # Newest first, each lost record hands its transaction back to the
        # record before it: a transaction ends at its last durable record or
        # leaves the table, and one that lost only its outcome is open again.
        open_txns = self._open
        not_committed = self._not_committed
        for record in reversed(self._records[self._flushed_count:]):
            txn_id = record.txn_id
            if record.type is LogRecordType.ABORT:
                not_committed.pop(txn_id, None)
            if record.prev is not None:
                open_txns[txn_id] = record.prev
            elif txn_id != SYSTEM_TXN_ID:
                # Nothing it wrote survives: it will never have an outcome.
                open_txns.pop(txn_id, None)
                not_committed[txn_id] = "unknown"
        del self._records[self._flushed_count:]
        self._next_lsn = (self._records[-1].lsn if self._records
                          else self._folded) + 1
        self._pending_commits = 0
        return lost

    def __len__(self) -> int:
        """Every record ever appended and not lost, folded ones included."""

        return self._next_lsn - 1
