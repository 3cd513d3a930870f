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
``update_tracking`` files with an update in progress (Section 4.4) and the
                    pre-update attributes needed to detect modification.
``file_versions``   committed versions with their archive object and the
                    database state identifier they belong to: per file the
                    newest one, plus each superseded one a retained backup
                    would restore (:meth:`DLFMRepository.add_version`).
``archive_queue``   asynchronous archive jobs not yet run -- a finished job
                    is deleted, so the table holds unfinished work only; a
                    queued job blocks further updates of the same file.
                    Every job is written by the 2PC branch of a link or a
                    close, before its host commit, so it names the host
                    transaction whose commit dates the version.

``file_versions`` and ``archive_queue`` draw their integer keys from
``MAX(key) + 1``, which the store answers from the primary-key index at
constant cost (:meth:`Database.max_key`).

The token registry and the Sync table are not here: they are node-local
soft state, kept beside the repository in the volatile
:class:`~repro.datalinks.dlfm.soft_state.SoftState`, so no tokenized open
writes the repository or its WAL.

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
``_tracking_by_path``      select update_tracking (path)   pk
``_all_tracking``          select update_tracking          scan
``_insert_tracking``       insert update_tracking          --
``_delete_tracking``       delete update_tracking (path)   pk
``_versions_by_path``      select file_versions (path)     file_versions_path
``_insert_version``        insert file_versions            --
``_delete_version``        delete file_versions            pk
                           (version_id)
``_delete_versions``       delete file_versions (path)     file_versions_path
``_jobs_by_path``          select archive_queue (path)     archive_queue_path
``_all_jobs``              select archive_queue            scan
``_insert_job``            insert archive_queue            --
``_delete_job``            delete archive_queue (job_id)   pk
``_delete_jobs_by_path``   delete archive_queue (path)     archive_queue_path
=========================  ==============================  ==================
"""

from __future__ import annotations

from bisect import bisect_left

from repro.storage.database import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.transaction import Transaction
from repro.storage.values import DataType


def _version_no(row: dict) -> int:
    return row["version_no"]


#: The repository's tables in creation order, each with its secondary
#: indexes ``(name, columns, unique)``.  Built once: a schema is immutable,
#: so every repository shares them.
_TABLES = (
    (TableSchema("linked_files", [
        Column("path", DataType.TEXT, nullable=False),
        Column("ino", DataType.INTEGER, nullable=False),
        Column("control_mode", DataType.TEXT, nullable=False),
        Column("recovery", DataType.BOOLEAN, nullable=False, default=True),
        Column("on_unlink", DataType.TEXT, nullable=False, default="RESTORE"),
        Column("taken_over", DataType.BOOLEAN, nullable=False, default=False),
        Column("strict_read_sync", DataType.BOOLEAN, nullable=False,
               default=False),
        Column("original_uid", DataType.INTEGER, nullable=False),
        Column("original_gid", DataType.INTEGER, nullable=False),
        Column("original_mode", DataType.INTEGER, nullable=False),
        Column("linked_at", DataType.TIMESTAMP, nullable=False, default=0.0),
        Column("last_size", DataType.INTEGER, nullable=False, default=0),
        Column("last_mtime", DataType.TIMESTAMP, nullable=False, default=0.0),
    ], primary_key=("path",)), (("linked_files_ino", ("ino",), True),)),
    (TableSchema("update_tracking", [
        Column("path", DataType.TEXT, nullable=False),
        Column("userid", DataType.INTEGER, nullable=False),
        Column("started_at", DataType.TIMESTAMP, nullable=False, default=0.0),
        Column("pre_mtime", DataType.TIMESTAMP, nullable=False, default=0.0),
        Column("pre_size", DataType.INTEGER, nullable=False, default=0),
    ], primary_key=("path",)), ()),
    (TableSchema("file_versions", [
        Column("version_id", DataType.INTEGER, nullable=False),
        Column("path", DataType.TEXT, nullable=False),
        Column("version_no", DataType.INTEGER, nullable=False),
        Column("archive_id", DataType.INTEGER, nullable=False),
        Column("state_id", DataType.INTEGER, nullable=False, default=0),
        Column("created_at", DataType.TIMESTAMP, nullable=False, default=0.0),
    ], primary_key=("version_id",)), (("file_versions_path", ("path",),
                                       False),)),
    (TableSchema("archive_queue", [
        Column("job_id", DataType.INTEGER, nullable=False),
        Column("path", DataType.TEXT, nullable=False),
        Column("host_txn_id", DataType.INTEGER, nullable=False),
        Column("created_at", DataType.TIMESTAMP, nullable=False, default=0.0),
    ], primary_key=("job_id",)), (("archive_queue_path", ("path",), False),)),
)


class _Statement:
    """One entry of the statement catalog, declared on the class: prepared
    against the instance's database on first use and from then on a plain
    instance attribute (a repository built for a short experiment issues a
    handful of the 19, and pays for those only)."""

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
    _tracking_by_path = _Statement("select", "update_tracking", ("path",))
    _all_tracking = _Statement("select", "update_tracking")
    _insert_tracking = _Statement("insert", "update_tracking")
    _delete_tracking = _Statement("delete", "update_tracking", ("path",))
    _versions_by_path = _Statement("select", "file_versions", ("path",))
    _insert_version = _Statement("insert", "file_versions")
    _delete_version = _Statement("delete", "file_versions", ("version_id",))
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
        for schema, indexes in _TABLES:
            db.create_table(schema)
            for name, columns, unique in indexes:
                db.create_index(name, schema.name, columns, unique=unique)

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

    def tail_lsn(self):
        """LSN of the last repository record, durable or still buffered.

        The follower-read staleness bound counts up to here, not just to
        the durable frontier: under group commit a transaction can be
        committed and visible on the serving node while its records sit in
        the WAL buffer, and a witness missing them is behind no matter what
        the durable frontier says.
        """

        return self.db.wal.tail_lsn()

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
                    backup_state_ids=(), job_id: int | None = None
                    ) -> Transaction:
        """Append a version to *path*'s chain, drop every superseded
        version no retained backup would restore and delete the archive
        job *job_id* that cut the version, in one local transaction
        returned open: the archiver commits it once *archive_id* is
        stored, and a crash leaves either the job or the version, never
        both.

        Version V, superseded by V', is picked by a restore to state *b*
        iff ``V.state_id <= b < V'.state_id``, so V stays iff one of the
        ascending *backup_state_ids* lies in that interval.  One read of
        the chain gives the next ``version_no`` and the superseded rows.
        """

        chain = self._versions_by_path(path)
        if len(chain) > 1:
            chain.sort(key=_version_no)
        row = {
            "version_id": self._next_id("file_versions"),
            "path": path,
            "version_no": chain[-1]["version_no"] + 1 if chain else 1,
            "archive_id": archive_id,
            "state_id": state_id,
            "created_at": self.db.now(),
        }
        dropped = []
        successor = state_id
        for version in reversed(chain):
            low = version["state_id"]
            at = bisect_left(backup_state_ids, low)
            if at == len(backup_state_ids) or \
                    backup_state_ids[at] >= successor:
                dropped.append(version)
            successor = low
        db = self.db
        txn = db.begin()
        try:
            self._insert_version(row, txn=txn)
            for version in dropped:
                self._delete_version(version["version_id"], txn=txn)
            if job_id is not None:
                self._delete_job(job_id, txn=txn)
        except BaseException:
            db.abort(txn)
            raise
        return txn

    def versions(self, path: str) -> list[dict]:
        return sorted(self._versions_by_path(path), key=_version_no)

    def latest_version(self, path: str, *, max_state_id: int | None = None) -> dict | None:
        latest = None
        for row in self._versions_by_path(path):
            if (max_state_id is None or row["state_id"] <= max_state_id) and \
                    (latest is None or row["version_no"] >= latest["version_no"]):
                latest = row
        return latest

    def archive_ids(self, path: str) -> list[int]:
        """The archive ids *path*'s version rows and retained backups name:
        no statement, a peek at the index bucket that charges nothing."""

        catalog = self.db.catalog
        rids = catalog.index_by_name(
            "file_versions", "file_versions_path").raw_entries.get(path, ())
        heap = catalog.heap("file_versions")
        names = [heap.get(rid)["archive_id"] for rid in
                 ((rids,) if type(rids) is int else rids)]
        for image in self.db.backups.images():
            names.extend(
                row["archive_id"] for row in image.catalog_snapshot[
                    "heaps"]["file_versions"]["rows"].values()
                if row["path"] == path)
        return names

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
    def enqueue_archive_job(self, path: str, txn: Transaction,
                            host_txn_id: int) -> int:
        """Queue an archive job of *path* in the branch transaction *txn* of
        the host transaction *host_txn_id*, whose commit dates the version."""

        job_id = self._next_id("archive_queue")
        self._insert_job({
            "job_id": job_id,
            "path": path,
            "host_txn_id": host_txn_id,
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
