"""The DLFM repository: its private tables and typed accessors.

"The DLFM maintains its own repository about the transaction state and about
files that are linked to the database" (Section 2.2).  The repository is a
:class:`repro.storage.Database` of its own, so it gets WAL, locking, crash
recovery and backup for free and can act as a prepared (in-doubt) participant
in the host database's two-phase commit.

Tables
------
``linked_files``    one row per linked file (control mode, take-over state,
                    original ownership, last known size/mtime).
``sync_entries``    the Sync table of Section 4.5: one row per open of a
                    managed file, used to reject conflicting opens and
                    unlink operations.
``token_entries``   token registry of Section 4.1: one row per validated
                    token, keyed by file and user id (not process id) and
                    indexed on ``(path, userid)`` so the open-time check
                    examines only the caller's own entries.
``update_tracking`` files with an update in progress (Section 4.4) and the
                    pre-update attributes needed to detect modification.
``file_versions``   committed versions with their archive object and the
                    database state identifier they belong to.
``archive_queue``   asynchronous archive jobs not yet run -- a finished job
                    is deleted, so the table holds unfinished work only; a
                    queued job blocks further updates of the same file.

``sync_entries``, ``token_entries``, ``file_versions`` and ``archive_queue``
draw their integer keys from ``MAX(key) + 1``, which the store answers from
the primary-key index at constant cost (:meth:`Database.max_key`).

Statement catalog
-----------------
Every statement the repository issues is prepared once, on first use (see
:mod:`repro.storage.database`).  Each is charged ``sql_statement_base``;
a select adds ``row_read`` per row returned, a write ``lock_acquire`` +
``row_write`` per row (an insert one more ``lock_acquire`` for its key),
and a write outside a transaction its own BEGIN and COMMIT (one more
``sql_statement_base``, ``log_write`` per forced flush).  "pk" is the one
charged access path (``index_probe``); index enumeration and scans are
free.

=========================  ==============================  ==================
handle                     shape                           access path
=========================  ==============================  ==================
``links_by_path``          select linked_files (path)      pk
``links_by_ino``           select linked_files (ino)       linked_files_ino
``_all_links``             select linked_files             scan
``_insert_link``           insert linked_files             --
``_update_link``           update linked_files (path)      pk
``_delete_link``           delete linked_files (path)      pk
``_sync_by_path``          select sync_entries (path)      sync_entries_path
``_sync_exact``            select sync_entries (path,      sync_entries_path,
                           access, userid)                 residual test
``_insert_sync``           insert sync_entries             --
``_delete_sync``           delete sync_entries (entry_id)  pk
``_delete_sync_by_path``   delete sync_entries (path)      sync_entries_path
``_delete_all_sync``       delete sync_entries             scan
``_tokens_by_owner``       select token_entries (path,     token_entries_
                           userid)                         path_userid
``_insert_token``          insert token_entries            --
``_delete_tokens``         delete token_entries, predicate scan
``_tracking_by_path``      select update_tracking (path)   pk
``_all_tracking``          select update_tracking          scan
``_insert_tracking``       insert update_tracking          --
``_delete_tracking``       delete update_tracking (path)   pk
``_versions_by_path``      select file_versions (path)     file_versions_path
``_insert_version``        insert file_versions            --
``_delete_versions``       delete file_versions (path)     file_versions_path
``_jobs_by_path``          select archive_queue (path)     archive_queue_path
``_all_jobs``              select archive_queue            scan
``_insert_job``            insert archive_queue            --
``_delete_job``            delete archive_queue (job_id)   pk
``_delete_jobs_by_path``   delete archive_queue (path)     archive_queue_path
=========================  ==============================  ==================
"""

from __future__ import annotations

from repro.storage.database import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.transaction import Transaction
from repro.storage.values import DataType


def _table(name: str, columns: list[Column], pk: tuple[str, ...]) -> TableSchema:
    return TableSchema(name, columns, primary_key=pk)


class _Statement:
    """One entry of the statement catalog, declared on the class: prepared
    against the instance's database on first use and from then on a plain
    instance attribute (a repository built for a short experiment issues a
    handful of the 27, and pays for those only)."""

    def __init__(self, kind: str, *shape):
        self.prepare = "prepare_" + kind
        self.shape = shape          # table[, bound columns]

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, repository, owner):
        statement = repository.__dict__[self.name] = getattr(
            repository.db, self.prepare)(*self.shape)
        return statement


class DLFMRepository:
    """Typed accessors over the DLFM's private database."""

    links_by_path = _Statement("select", "linked_files", ("path",))
    links_by_ino = _Statement("select", "linked_files", ("ino",))
    _all_links = _Statement("select", "linked_files")
    _insert_link = _Statement("insert", "linked_files")
    _update_link = _Statement("update", "linked_files", ("path",))
    _delete_link = _Statement("delete", "linked_files", ("path",))
    _sync_by_path = _Statement("select", "sync_entries", ("path",))
    _sync_exact = _Statement("select", "sync_entries",
                             ("path", "access", "userid"))
    _insert_sync = _Statement("insert", "sync_entries")
    _delete_sync = _Statement("delete", "sync_entries", ("entry_id",))
    _delete_sync_by_path = _Statement("delete", "sync_entries", ("path",))
    _delete_all_sync = _Statement("delete", "sync_entries")
    _tokens_by_owner = _Statement("select", "token_entries", ("path", "userid"))
    _insert_token = _Statement("insert", "token_entries")
    _delete_tokens = _Statement("delete", "token_entries")
    _tracking_by_path = _Statement("select", "update_tracking", ("path",))
    _all_tracking = _Statement("select", "update_tracking")
    _insert_tracking = _Statement("insert", "update_tracking")
    _delete_tracking = _Statement("delete", "update_tracking", ("path",))
    _versions_by_path = _Statement("select", "file_versions", ("path",))
    _insert_version = _Statement("insert", "file_versions")
    _delete_versions = _Statement("delete", "file_versions", ("path",))
    _jobs_by_path = _Statement("select", "archive_queue", ("path",))
    _all_jobs = _Statement("select", "archive_queue")
    _insert_job = _Statement("insert", "archive_queue")
    _delete_job = _Statement("delete", "archive_queue", ("job_id",))
    _delete_jobs_by_path = _Statement("delete", "archive_queue", ("path",))

    def __init__(self, database: Database):
        self.db = database
        self._create_tables()

    # ------------------------------------------------------------------ schema --
    def _create_tables(self) -> None:
        db = self.db
        db.create_table(_table("linked_files", [
            Column("path", DataType.TEXT, nullable=False),
            Column("ino", DataType.INTEGER, nullable=False),
            Column("control_mode", DataType.TEXT, nullable=False),
            Column("recovery", DataType.BOOLEAN, nullable=False, default=True),
            Column("on_unlink", DataType.TEXT, nullable=False, default="RESTORE"),
            Column("taken_over", DataType.BOOLEAN, nullable=False, default=False),
            Column("strict_read_sync", DataType.BOOLEAN, nullable=False, default=False),
            Column("original_uid", DataType.INTEGER, nullable=False),
            Column("original_gid", DataType.INTEGER, nullable=False),
            Column("original_mode", DataType.INTEGER, nullable=False),
            Column("linked_at", DataType.TIMESTAMP, nullable=False, default=0.0),
            Column("last_size", DataType.INTEGER, nullable=False, default=0),
            Column("last_mtime", DataType.TIMESTAMP, nullable=False, default=0.0),
        ], ("path",)))
        db.create_index("linked_files_ino", "linked_files", ("ino",), unique=True)

        db.create_table(_table("sync_entries", [
            Column("entry_id", DataType.INTEGER, nullable=False),
            Column("path", DataType.TEXT, nullable=False),
            Column("access", DataType.TEXT, nullable=False),          # "read" | "write"
            Column("userid", DataType.INTEGER, nullable=False),
            Column("opened_at", DataType.TIMESTAMP, nullable=False, default=0.0),
        ], ("entry_id",)))
        db.create_index("sync_entries_path", "sync_entries", ("path",))

        db.create_table(_table("token_entries", [
            Column("entry_id", DataType.INTEGER, nullable=False),
            Column("path", DataType.TEXT, nullable=False),
            Column("userid", DataType.INTEGER, nullable=False),
            Column("token_type", DataType.TEXT, nullable=False),      # "R" | "W"
            Column("expires_at", DataType.TIMESTAMP, nullable=False),
        ], ("entry_id",)))
        db.create_index("token_entries_path_userid", "token_entries",
                        ("path", "userid"))

        db.create_table(_table("update_tracking", [
            Column("path", DataType.TEXT, nullable=False),
            Column("userid", DataType.INTEGER, nullable=False),
            Column("started_at", DataType.TIMESTAMP, nullable=False, default=0.0),
            Column("pre_mtime", DataType.TIMESTAMP, nullable=False, default=0.0),
            Column("pre_size", DataType.INTEGER, nullable=False, default=0),
            Column("restore_version", DataType.INTEGER, nullable=True),
        ], ("path",)))

        db.create_table(_table("file_versions", [
            Column("version_id", DataType.INTEGER, nullable=False),
            Column("path", DataType.TEXT, nullable=False),
            Column("version_no", DataType.INTEGER, nullable=False),
            Column("archive_id", DataType.INTEGER, nullable=False),
            Column("state_id", DataType.INTEGER, nullable=False, default=0),
            Column("created_at", DataType.TIMESTAMP, nullable=False, default=0.0),
        ], ("version_id",)))
        db.create_index("file_versions_path", "file_versions", ("path",))

        db.create_table(_table("archive_queue", [
            Column("job_id", DataType.INTEGER, nullable=False),
            Column("path", DataType.TEXT, nullable=False),
            Column("state_id", DataType.INTEGER, nullable=False, default=0),
            Column("created_at", DataType.TIMESTAMP, nullable=False, default=0.0),
        ], ("job_id",)))
        db.create_index("archive_queue_path", "archive_queue", ("path",))

    # ------------------------------------------------------- WAL-shipping hooks --
    # A shard primary replicates by streaming this repository's durable WAL
    # suffix to its witness; these helpers are the repository-level surface
    # the shipper uses (see :mod:`repro.datalinks.replication`).
    def add_wal_listener(self, listener, reader=None) -> None:
        """Call *listener* with the WAL whenever the durable prefix grows;
        *reader*'s ``cursor`` pins the log (:meth:`WriteAheadLog.
        add_flush_listener`)."""

        self.db.wal.add_flush_listener(listener, reader)

    def remove_wal_listener(self, listener) -> None:
        self.db.wal.remove_flush_listener(listener)

    def durable_lsn(self):
        """LSN of the last durable repository record (the shipping frontier)."""

        return self.db.wal.flushed_lsn

    def wal_records_since(self, lsn) -> list:
        """Durable WAL records with LSN strictly greater than *lsn*."""

        return self.db.wal.records_from(lsn, durable_only=True)

    def wal_records_pending(self, lsn) -> list:
        """*All* records past *lsn*, durable or still buffered.

        The follower-read staleness bound counts these, not just the
        durable suffix: under group commit a transaction can be committed
        and visible on the serving node while its records sit in the WAL
        buffer, and a witness missing them is behind no matter what the
        durable frontier says.
        """

        return self.db.wal.records_from(lsn, durable_only=False)

    # ------------------------------------------------------------------ helpers --
    def _next_id(self, table: str) -> int:
        """The next free integer primary key of *table*."""

        return (self.db.max_key(table) or 0) + 1

    # ------------------------------------------------------------ linked files --
    def insert_linked_file(self, row: dict, txn: Transaction | None = None) -> None:
        self._insert_link(row, txn=txn)

    def delete_linked_file(self, path: str, txn: Transaction | None = None) -> int:
        return self._delete_link(path, txn=txn)

    def linked_file(self, path: str) -> dict | None:
        rows = self.links_by_path(path)
        return rows[0] if rows else None

    def linked_files(self) -> list[dict]:
        return self._all_links()

    def update_linked_file(self, path: str, changes: dict,
                           txn: Transaction | None = None) -> int:
        return self._update_link(changes, path, txn=txn)

    # ------------------------------------------------------------- sync entries --
    def add_sync_entry(self, path: str, access: str, userid: int,
                       txn: Transaction | None = None) -> int:
        entry_id = self._next_id("sync_entries")
        self._insert_sync({
            "entry_id": entry_id,
            "path": path,
            "access": access,
            "userid": userid,
            "opened_at": self.db.now(),
        }, txn=txn)
        return entry_id

    def remove_sync_entry(self, path: str, access: str, userid: int,
                          txn: Transaction | None = None) -> int:
        """Remove one matching Sync-table entry (opens and closes pair up)."""

        rows = self._sync_exact(path, access, userid)
        if not rows:
            return 0
        return self._delete_sync(rows[0]["entry_id"], txn=txn)

    def sync_entries(self, path: str) -> list[dict]:
        return self._sync_by_path(path)

    def clear_sync_entries(self, path: str | None = None) -> int:
        if path is None:
            return self._delete_all_sync()
        return self._delete_sync_by_path(path)

    # ------------------------------------------------------------ token entries --
    def add_token_entry(self, path: str, userid: int, token_type: str,
                        expires_at: float) -> int:
        entry_id = self._next_id("token_entries")
        self._insert_token({
            "entry_id": entry_id,
            "path": path,
            "userid": userid,
            "token_type": token_type,
            "expires_at": expires_at,
        })
        return entry_id

    def find_token_entry(self, path: str, userid: int, *, for_write: bool,
                         now: float) -> dict | None:
        """Find a live token entry authorizing the requested kind of access.

        Served by the ``(path, userid)`` index: only the caller's own
        entries are examined, first live match in registration order.
        """

        for row in self._tokens_by_owner(path, userid):
            if row["expires_at"] < now:
                continue
            if for_write and row["token_type"] != "W":
                continue
            return row
        return None

    def purge_expired_tokens(self, now: float) -> int:
        return self._delete_tokens(match=lambda row: row["expires_at"] < now)

    # ---------------------------------------------------------- update tracking --
    def add_tracking(self, row: dict, txn: Transaction | None = None) -> None:
        self._insert_tracking(row, txn=txn)

    def tracking(self, path: str) -> dict | None:
        rows = self._tracking_by_path(path)
        return rows[0] if rows else None

    def all_tracking(self) -> list[dict]:
        return self._all_tracking()

    def remove_tracking(self, path: str, txn: Transaction | None = None) -> int:
        return self._delete_tracking(path, txn=txn)

    # ------------------------------------------------------------ file versions --
    def add_version(self, path: str, archive_id: int, state_id: int,
                    txn: Transaction | None = None) -> dict:
        version_no = self.latest_version_no(path) + 1
        row = {
            "version_id": self._next_id("file_versions"),
            "path": path,
            "version_no": version_no,
            "archive_id": archive_id,
            "state_id": state_id,
            "created_at": self.db.now(),
        }
        self._insert_version(row, txn=txn)
        return row

    def latest_version_no(self, path: str) -> int:
        best = 0
        for row in self._versions_by_path(path):
            if row["version_no"] > best:
                best = row["version_no"]
        return best

    def versions(self, path: str) -> list[dict]:
        return sorted(self._versions_by_path(path),
                      key=lambda row: row["version_no"])

    def latest_version(self, path: str, *, max_state_id: int | None = None) -> dict | None:
        latest = None
        for row in self._versions_by_path(path):
            if (max_state_id is None or row["state_id"] <= max_state_id) and \
                    (latest is None or row["version_no"] >= latest["version_no"]):
                latest = row
        return latest

    def delete_versions(self, path: str, txn: Transaction | None = None) -> int:
        return self._delete_versions(path, txn=txn)

    def import_version_rows(self, rows: list[dict],
                            txn: Transaction | None = None) -> int:
        """Adopt version rows handed off from another DLFM (prefix rebalance).

        Version numbers, archive ids, state ids and creation times are
        preserved -- the archived objects live on the shared archive server
        and move with their metadata -- while ``version_id`` is reassigned
        from this repository's own sequence.
        """

        next_id = self._next_id("file_versions")
        for offset, row in enumerate(rows):
            clean = {key: value for key, value in row.items()
                     if not key.startswith("_")}
            clean["version_id"] = next_id + offset
            self._insert_version(clean, txn=txn)
        return len(rows)

    # ------------------------------------------------------------ archive queue --
    def enqueue_archive_job(self, path: str, state_id: int,
                            txn: Transaction | None = None) -> int:
        job_id = self._next_id("archive_queue")
        self._insert_job({
            "job_id": job_id,
            "path": path,
            "state_id": state_id,
            "created_at": self.db.now(),
        }, txn=txn)
        return job_id

    def pending_archive_jobs(self, path: str | None = None) -> list[dict]:
        """Queued jobs (of *path*, or all) in enqueue order."""

        rows = self._all_jobs() if path is None else self._jobs_by_path(path)
        return sorted(rows, key=lambda row: row["job_id"])

    def complete_archive_job(self, job_id: int) -> int:
        return self._delete_job(job_id)

    def cancel_archive_jobs(self, path: str) -> int:
        return self._delete_jobs_by_path(path)
