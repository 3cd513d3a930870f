"""The DataLinks File Manager.

One :class:`DataLinksFileManager` runs on each file server.  It owns the
repository, the link/unlink logic, the token registry and the Sync table (its
volatile :class:`~repro.datalinks.dlfm.soft_state.SoftState`), update
tracking, versioning/archiving and coordinated backup/restore, and it exposes

* a *connection* interface used by the DataLinks engine in the host DBMS
  (link/unlink inside host transactions, two-phase commit), and
* an *upcall* interface used by DLFS (token validation at lookup, access
  checks at open, close processing).

This module is the heart of the paper's Section 4 (update in-place).  The
close of an updated file commits the new version's metadata into the host
(Sections 4.2 and 4.3) in one round trip: the DLFM writes its branch --
size/mtime, the tracking row gone, an rfd file's take-over ended, the
file's archive job -- forces its
PREPARE, and sends the host one request that carries its yes-vote; the host
runs its metadata UPDATE, commits and forces its log, and its reply carries
the commit's state id, on which the branch commits (2PC's "unsolicited
vote").  A refusal rolls the update back; a lost reply leaves the branch in
doubt, resolved from the host's durable outcome like any other branch.

A branch's file half -- a link's constraint undone, an unlink's file
deleted or given back, an rfd file handed back after its close -- is not
run by this module: every way a branch ends (commit, abort, in-doubt
resolution at restart, a loser the restart undid) settles the branch's
log records (:func:`~repro.datalinks.dlfm.link_manager.settle`), so the
live and the recovered outcome do the same to the files.

A file linked with recovery gets its archive job the same way: the link's
branch writes it (:mod:`repro.datalinks.dlfm.link_manager`), so the job
commits, aborts, ships and is resolved in doubt with the branch, and
every participant commit from the host carries the commit's state id, the
date of the archived version.
"""

from __future__ import annotations

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.control_modes import _MODES_BY_CODE as _MODES
from repro.datalinks.datalink_type import DatalinkOptions
from repro.datalinks.dlfm.archive import ArchiveServer
from repro.datalinks.dlfm.branches import BranchManager
from repro.datalinks.dlfm.files import FileServerFiles
from repro.datalinks.dlfm.link_manager import LinkManager, constrain, settle
from repro.datalinks.dlfm.repository import DLFMRepository
from repro.datalinks.dlfm.soft_state import SoftState
from repro.datalinks.tokens import TokenManager, TokenType
from repro.errors import (
    AccessDeniedError,
    ControlModeError,
    DaemonUnavailableError,
    Errno,
    FileSystemError,
    ReproError,
    UpdateInProgressError,
)
from repro.fs.inode import FileAttributes
from repro.simclock import SimClock, synchronized_call
from repro.storage.backup import BackupImage
from repro.storage.database import Database
from repro.storage.wal import LogRecordType
from repro.util.failpoints import fire


class DataLinksFileManager:
    """DLFM for one file server."""

    def __init__(self, server_name: str, files: FileServerFiles,
                 archive: ArchiveServer, clock: SimClock,
                 token_secret: str | None = None):
        self.server_name = server_name
        self.clock = clock
        self.files = files
        self.archive = archive
        archive.namers.append(self)
        self.token_secret = token_secret or f"dlfm-secret-{server_name}"
        self.tokens = TokenManager(self.token_secret, clock)
        repository_scale = clock.costs.dlfm_repository_scale
        # The repository's charges are label-prefixed so its scaled
        # statements never conflate with host-database charges for the same
        # primitive in clock statistics.
        self.repository = DLFMRepository(
            Database(f"dlfm-{server_name}", clock, cost_scale=repository_scale,
                     stats_prefix="dlfm."))
        #: Token registry and Sync table: volatile, charged like the
        #: repository, never logged or shipped.
        self.soft = SoftState(clock, repository_scale)
        self.branches = BranchManager(self.repository.db, files)
        self.links = LinkManager(self.repository, self.soft, files)
        self._engine = None
        self._engine_name: str | None = None
        self.running = True
        #: Epoch lease (:class:`~repro.datalinks.replication.EpochGuard`)
        #: when this DLFM belongs to a replicated shard; ``None`` otherwise.
        self.fencing = None
        #: Placement view (:class:`~repro.datalinks.placement.PlacementGuard`)
        #: when this DLFM belongs to an epoched deployment; link/unlink of a
        #: prefix this shard no longer owns is refused with a
        #: :class:`~repro.errors.PlacementEpochError` redirect.
        self.placement_guard = None
        #: Follower-read gate: a callable that says whether this node may
        #: serve read-path upcalls *despite* not holding the serving lease
        #: (a caught-up witness,
        #: :meth:`~repro.datalinks.replication.ReplicatedShard.serves_read`).
        self.read_gate = None
        self.replica = None
        #: Dual-serve snapshots for prefix hand-offs in flight:
        #: ``host_txn_id -> {ino: linked_file row}``.  The export deletes
        #: the repository rows inside its branch, but reads of the moving
        #: prefix must keep succeeding on this node until the hand-off
        #: commits; the read-path upcalls fall back to these rows.
        #: Volatile by design: a crash aborts the branch (restoring the
        #: real rows) and loses the snapshot with it.
        self._moving_exports: dict[int, dict] = {}
        #: Returns the ascending state ids of the retained backups, asked
        #: when a new version supersedes an old one; none until a backup
        #: coordinator attaches (:meth:`attach_backups`).
        self._backup_state_ids = tuple
        #: ``host_txn_id -> state id`` from the host's participant commits
        #: (and the replies to close-time commits) of branches that wrote
        #: archive jobs, for dating those jobs' versions.  Volatile: a job
        #: whose entry a crash or a promotion lost asks the host's durable
        #: outcome (:meth:`_job_state_id`).
        self._commit_states: dict[int, int] = {}
        #: ``(job, archive id, tick stored)`` the archiver has not committed.
        self._in_flight: tuple | None = None

    # ---------------------------------------------------------------- wiring -----
    def attach_engine(self, engine) -> None:
        """Called by the DataLinks engine when this file server is registered."""

        self._engine = engine

    def attach_backups(self, state_ids) -> None:
        """Called by the backup coordinator: *state_ids* returns the state
        ids of the retained backups, ascending.  Asked afresh each time, so
        retention keeps no pin set of its own for a crash to lose."""

        self._backup_state_ids = state_ids

    # -------------------------------------------------------------- fencing -----
    def set_fencing(self, guard) -> None:
        """Attach an epoch lease; upcalls refuse service once it is revoked."""

        self.fencing = guard

    def set_read_gate(self, gate) -> None:
        """Attach the follower-read gate (see :attr:`read_gate`)."""

        self.read_gate = gate

    def set_placement(self, guard) -> None:
        """Attach this node's view of the cluster placement map.

        The guard derives prefix ownership from the shared map on every
        check (nothing is persisted per node), so a crash cannot lose a
        placement fence and enforcement cannot drift from routing.
        """

        self.placement_guard = guard

    def check_placement(self, path: str) -> None:
        """Refuse write traffic for a prefix this shard does not own.

        Raises :class:`~repro.errors.PlacementEpochError` (naming the
        current owner -- the redirect) for a moved prefix, and a retryable
        :class:`~repro.errors.PlacementError` for a prefix whose hand-off
        is in flight.  A no-op outside epoched deployments.
        """

        if self.placement_guard is not None:
            self.placement_guard.check_path(path)

    def check_placement_epoch(self, observed: int) -> None:
        """Daemon envelope gate: reject requests stamped with a stale epoch."""

        if self.placement_guard is not None:
            self.placement_guard.check_epoch(observed)

    def is_fenced(self) -> bool:
        return self.fencing is not None and self.fencing.fenced

    def _check_fencing(self) -> None:
        if self.fencing is not None:
            self.fencing.check()

    def _check_read_service(self) -> None:
        """Fencing for the read path: serving nodes and eligible witnesses.

        Write-path operations always require the serving lease, but a
        witness its read gate admits (nothing unapplied) may serve token
        validation and read opens -- that is the follower-read path.
        A deposed node (no lease, not back on the stream) still raises
        :class:`~repro.errors.FencedNodeError` here.
        """

        fencing = self.fencing
        if fencing is None:
            return
        # ``fencing.fenced`` written out inline (two frames per read-path
        # upcall otherwise): current-serving lookup straight off the
        # registry, with the property's KeyError convention preserved.
        try:
            if fencing.registry._serving[fencing.shard] == fencing.node:
                return
        except KeyError:
            if fencing.node is None:
                return
        if self.read_gate is not None and self.read_gate():
            return
        fencing.check()

    # ------------------------------------------------- engine-facing operations --
    # Fencing applies to the write path too: a fenced ex-primary must not
    # take new branches or vote on them, or a link committed there would
    # split-brain against the serving witness (which is not consuming the
    # paused WAL stream).  Committing or aborting an *existing* prepared
    # branch stays allowed -- that only executes the coordinator's durable
    # decision, which predates the fence.
    def begin_branch(self, host_txn_id: int) -> None:
        self._check_fencing()
        self.branches.branch_for(host_txn_id)

    def has_branch(self, host_txn_id: int) -> bool:
        return self.branches.has_branch(host_txn_id)

    def prepare_branch(self, host_txn_id: int) -> bool:
        self._check_fencing()
        return self.branches.prepare(host_txn_id)

    def commit_branch(self, host_txn_id: int, state_id: int) -> None:
        """Commit the branch on the host's commit, whose state id *state_id*
        dates the archive jobs the branch wrote."""

        branch = self.branches.commit(host_txn_id)
        self._moving_exports.pop(host_txn_id, None)
        if branch is not None and branch.jobs:
            self._commit_states[host_txn_id] = int(state_id)

    def abort_branch(self, host_txn_id: int) -> None:
        self.branches.abort(host_txn_id)
        self._moving_exports.pop(host_txn_id, None)

    def link_file(self, host_txn_id: int, path: str,
                  options: DatalinkOptions) -> dict:
        """Link *path* as part of the host transaction *host_txn_id*."""

        self._check_fencing()
        self.check_placement(path)
        return self.links.link_file(self.branches.branch_for(host_txn_id),
                                    path, options)

    def unlink_file(self, host_txn_id: int, path: str) -> dict:
        """Unlink *path* as part of the host transaction *host_txn_id*."""

        self._check_fencing()
        self.check_placement(path)
        return self.links.unlink_file(self.branches.branch_for(host_txn_id),
                                      path)

    # ------------------------------------------------- prefix hand-off ----------
    # The two participant sides of an online prefix rebalance (see
    # :mod:`repro.datalinks.placement`).  Both run inside an ordinary
    # two-phase-commit branch of the coordinating host transaction, so
    # crash handling (durable PREPARE votes, presumed abort, in-doubt
    # resolution from the host outcome) is the machinery every other
    # branch already uses.  Neither side consults the placement guard:
    # the hand-off is the operation that *changes* the map.
    def rebalance_export(self, host_txn_id: int, prefix: str) -> dict:
        """Hand the prefix's repository state off: delete and return it.

        Refuses (with a retryable :class:`~repro.errors.PlacementError`)
        while any file under the prefix has an open Sync entry, an update
        in flight or an un-archived job -- the move must not race close
        processing or strand an archive queue entry on the wrong shard.
        """

        from repro.datalinks.placement import path_under
        from repro.errors import PlacementError

        self._check_fencing()
        branch = self.branches.branch_for(host_txn_id)
        branch.handoff = prefix
        rows, versions = [], []
        for row in self.repository.linked_files():
            path = row["path"]
            if not path_under(prefix, path):
                continue
            opens = self.soft.sync_entries(path)
            if opens:
                raise PlacementError(
                    f"cannot hand {prefix!r} off: {path!r} is open "
                    f"({len(opens)} Sync entries); retry when the opens "
                    f"drain")
            if self.repository.tracking(path) is not None:
                raise PlacementError(
                    f"cannot hand {prefix!r} off: an update of {path!r} is "
                    f"in progress; retry after it commits or aborts")
            if self.repository.pending_archive_jobs(path):
                raise PlacementError(
                    f"cannot hand {prefix!r} off: {path!r} has pending "
                    f"archive jobs; run the archiver first")
            rows.append({key: value for key, value in row.items()
                         if not key.startswith("_")})
            versions.extend(
                {key: value for key, value in version.items()
                 if not key.startswith("_")}
                for version in self.repository.versions(path))
        # Dual-serve: reads of the moving prefix keep resolving on this
        # node between these deletes and the hand-off commit (the bytes
        # are still here and the tokens were signed here).  The read-path
        # upcalls fall back to this snapshot; commit or abort drops it.
        self._moving_exports[host_txn_id] = {row["ino"]: dict(row)
                                             for row in rows}
        for row in rows:
            self.repository.delete_versions(row["path"], branch.local_txn)
            self.repository.delete_linked_file(row["path"], branch.local_txn)
        return {"rows": rows, "versions": versions}

    def rebalance_import(self, host_txn_id: int, rows: list,
                         versions: list) -> dict:
        """Adopt a handed-off prefix: re-insert rows bound to this node.

        The file content must already have been copied (below DLFS) by the
        coordinator; inode numbers are rebound to this node's file system,
        link-time access constraints are re-applied to the local copies
        (an abort gives them back, like a fresh link's), and the version
        chain re-attaches to the same shared-archive objects.
        """

        from repro.errors import PlacementError

        self._check_fencing()
        branch = self.branches.branch_for(host_txn_id)
        imported = 0
        for row in rows:
            row = {key: value for key, value in row.items()
                   if not key.startswith("_")}
            path = row["path"]
            if self.repository.linked_file(path) is not None:
                raise PlacementError(
                    f"cannot import {path!r}: already linked on "
                    f"{self.server_name!r}")
            try:
                attrs = self.files.stat(path)
            except FileSystemError as error:
                raise PlacementError(
                    f"content hand-off incomplete: {path!r} has no local "
                    f"copy on {self.server_name!r}") from error
            row["ino"] = attrs.ino
            row["taken_over"] = ControlMode.from_string(
                row["control_mode"]).takes_over_on_link
            self.repository.insert_linked_file(row, branch.local_txn)
            constrain(self.files, row, attrs)
            imported += 1
        self.repository.import_version_rows(versions, branch.local_txn)
        return {"imported": imported, "versions": len(versions)}

    # -------------------------------------------------- upcall-facing operations --
    def _lookup_link_row(self, ino: int) -> dict | None:
        """A linked-file row by inode, dual-serving hand-offs in flight.

        Falls back to the moving-export snapshots so reads of a prefix
        whose rows were just deleted inside an open rebalance branch keep
        resolving until the hand-off commits.  Write paths are unaffected:
        they run :meth:`check_placement` on the row's path, which refuses
        moving prefixes with a retryable error.
        """

        rows = self.repository.links_by_ino(ino)
        if rows:
            return rows[0]
        for snapshot in self._moving_exports.values():
            if ino in snapshot:
                return snapshot[ino]
        return None

    def upcall_validate_token(self, ino: int, token_text: str, userid: int) -> dict:
        """fs_lookup-time token validation; creates a token registry entry.

        The entry is keyed by *user id* (not process id) so that a process-id
        reuse cannot leak access, exactly as argued in Section 4.1.  Served
        by the serving node or -- under the follower-read gate -- a healthy
        witness; either registers the entry in its own soft state.
        """

        self._check_read_service()
        row = self._lookup_link_row(ino)
        if row is None:
            return {"linked": False}
        token = self.tokens.validate(token_text, row["path"])
        # ``_value_`` reads the member's code as a plain attribute; ``.value``
        # goes through the enum's DynamicClassAttribute descriptor, two
        # frames per read on this per-lookup path.
        token_code = token.token_type._value_
        self.soft.add_token_entry(row["path"], userid, token_code,
                                  token.expires_at)
        return {"linked": True, "token_type": token_code,
                "expires_at": token.expires_at}

    def upcall_check_open(self, ino: int, wants_write: bool, userid: int,
                          attrs: FileAttributes) -> dict:
        """fs_open-time access check.

        Invoked for files under full database control (owned by the DBMS) and,
        when the file server runs with strict read upcalls, for read opens of
        any file.  Non-full-control reads without strict synchronization are
        reported as unlinked so DLFS stays out of the data path.  Write opens
        require the serving lease; read opens pass the follower-read gate.
        *attrs* are the open's own ``fs_getattr``: an update's pre-open state.
        """

        if wants_write:
            self._check_fencing()
        else:
            self._check_read_service()
        row = self._lookup_link_row(ino)
        if row is None:
            return {"linked": False}
        code = row["control_mode"]
        try:
            # from_string's canonical-code probe, inline (hot upcall path).
            mode = _MODES[code]
        except KeyError:
            mode = ControlMode.from_string(code)
        if wants_write:
            # A write open of a moved (or moving) prefix must not start an
            # update this shard can no longer commit.
            self.check_placement(row["path"])
            self._begin_file_update(row, mode, userid, attrs)
            return {"linked": True, "open_as_dbms": True, "mode": mode._value_}
        if mode.full_control:
            self._begin_read(row["path"], "RW", userid)
            return {"linked": True, "open_as_dbms": True,
                    "mode": mode._value_, "path": row["path"]}
        if row.get("strict_read_sync"):
            self._begin_read(row["path"], "", userid)
            return {"linked": True, "open_as_dbms": False,
                    "mode": mode._value_, "path": row["path"]}
        return {"linked": False}

    def upcall_write_open_fallback(self, ino: int, userid: int,
                                   attrs: FileAttributes) -> dict:
        """Handles the rfd path: a write open failed because the file is read-only.

        DLFM verifies the file is linked in an update mode, checks the write
        token, takes the file over to grant write permission, and approves the
        retry (Section 4.2).  *attrs* are the pre-open attributes DLFS read.
        """

        self._check_fencing()
        row = self._lookup_link_row(ino)
        if row is None:
            return {"linked": False}
        mode = ControlMode.from_string(row["control_mode"])
        if not mode.supports_update:
            raise ControlModeError(
                f"{row['path']!r} is linked in {mode.value} mode; "
                f"updates are not managed by the database")
        self.check_placement(row["path"])
        self._begin_file_update(row, mode, userid, attrs)
        return {"linked": True, "open_as_dbms": True, "mode": mode._value_}

    def upcall_file_closed(self, ino: int, was_write: bool, userid: int,
                           path: str | None, attrs: FileAttributes | None,
                           opened: FileAttributes | None) -> dict:
        """fs_close-time processing: Sync cleanup, metadata update, archiving.

        A read close names the *path* its open was admitted on and only
        removes its Sync entry -- no link-row lookup, so it finds the entry
        even after the file's row left this node (a prefix handed off while
        the file was open).  It passes the follower-read gate.  A write
        close carries the closed file's *attrs* and those its open read
        (*opened*) and looks the row up; it changed the file if its write
        entry (:meth:`_being_updated`) was there and the two differ.
        Fencing applies to it: only the serving node may commit close-time
        metadata into the host database.
        """

        if not was_write:
            self._check_read_service()
            self.soft.remove_sync_entry(path, "read", userid)
            return {"linked": True, "modified": False}
        self._check_fencing()
        row = self._lookup_link_row(ino)
        if row is None:
            return {"linked": False, "modified": False}
        path, mode = row["path"], ControlMode.from_string(row["control_mode"])
        updating = self.soft.remove_sync_entry(path, "write", userid)
        if updating and (attrs.mtime > opened.mtime
                         or attrs.size != opened.size):
            self._commit_file_update(row, mode, path, attrs)
            return {"linked": True, "modified": True}
        if updating:
            self.repository.remove_tracking(path)
        if mode is ControlMode.RFD:
            self.links.end_update(row)
        return {"linked": True, "modified": False}

    def upcall_is_linked(self, ino: int) -> dict:
        row = self._lookup_link_row(ino)
        if row is None:
            return {"linked": False}
        return {"linked": True, "mode": row["control_mode"], "path": row["path"]}

    # ------------------------------------------------------- update-in-place core --
    def _being_updated(self, path: str) -> bool:
        """Is an update of *path* in progress?

        The serving node reads its Sync table's write entry.  A witness
        holds only its own reads there; it reads the ``update_tracking``
        row the update began with, which replicates with the WAL stream,
        so a follower read is serialized against an in-progress update
        exactly like a local one.  The row exists exactly while the serving
        node's write entry does (an open writes both; a close, an abort and
        a restart remove both), so a write close needs no read of it.
        """

        if self.replica is not None:
            return self.repository.tracking(path) is not None
        return any(access == "write"
                   for access, _userid in self.soft.sync_entries(path))

    def _begin_read(self, path: str, token_types: str, userid: int) -> None:
        """Record a read open in the Sync table: a full-control read with
        its read token (``"RW"``: an ``R`` entry, else a ``W`` one), or a
        strict read of a file the file system controls (no token: this is
        the paper's sketched fix for the rfd window, which serializes
        writers and unlink against the reader)."""

        refusal = None
        if self._being_updated(path):
            refusal = UpdateInProgressError(
                f"{path!r} is being updated; read access is serialized at "
                f"open time")
        self.soft.admit(path, "read", userid, token_types, self.clock.now(),
                        refusal=refusal)

    def _begin_file_update(self, row: dict, mode: ControlMode, userid: int,
                           attrs: FileAttributes) -> None:
        path = row["path"]
        if not mode.supports_update:
            raise AccessDeniedError(
                f"write access to {path!r} is not managed by the database "
                f"(mode {mode.value})")
        refusal = None
        if self.repository.pending_archive_jobs(path):
            refusal = UpdateInProgressError(
                f"the previous update of {path!r} is still being archived")
        self.soft.admit(path, "write", userid, "W", self.clock.now(),
                        exclusive=mode.full_control
                        or row.get("strict_read_sync"),
                        refusal=refusal)
        self.repository.add_tracking({
            "path": path,
            "userid": userid,
            "started_at": self.clock.now(),
            "pre_mtime": attrs.mtime,
            "pre_size": attrs.size,
        })
        # The tracking row is what recovery rolls the update back by: it is
        # durable before the file can change, under group commit too.
        self.repository.db.force_log()
        if mode is ControlMode.RFD:
            self.links.take_over_for_update(row)

    def _commit_file_update(self, row: dict, mode: ControlMode, path: str,
                            attrs) -> None:
        """Commit a closed file update into the host in one round trip.

        The branch -- new size/mtime, an rfd file's take-over ended (its
        commit hands the file back), the tracking row gone, the archive job
        a recovery file is owed --
        is written and its PREPARE forced (with the host transaction id, as
        every vote) before the one request goes out; the request carries
        the vote and the host's reply the commit's state id
        (:meth:`~repro.datalinks.engine.DataLinksEngine.
        commit_file_update`).  On the reply the branch commits; on a
        refusal it aborts and the update rolls back.  With no reply (a
        crash on either side) the branch stays in doubt.
        """

        engine = self._engine
        repository = self.repository
        # Close processing runs on this file server's clock domain but
        # drives a host transaction: the host cannot begin it before the
        # close happened, and the close does not return before the reply.
        with synchronized_call(self.clock, engine.clock):
            host_txn = engine.begin()
            txn_id = host_txn.txn_id
            branch = self.branches.branch_for(txn_id)
            local_txn = branch.local_txn
            changes = {"last_size": attrs.size, "last_mtime": attrs.mtime}
            if mode is ControlMode.RFD:
                changes["taken_over"] = False
            repository.update_linked_file(path, changes, local_txn)
            repository.remove_tracking(path, local_txn)
            if row["recovery"]:
                branch.jobs[path] = repository.enqueue_archive_job(
                    path, local_txn, txn_id)
            self.branches.prepare(txn_id)
            try:
                with synchronized_call(self.clock, engine.clock):
                    state_id = engine.commit_file_update(
                        host_txn, self.server_name, path, attrs.size,
                        attrs.mtime)
            except ReproError:
                self.branches.abort(txn_id)
                self.abort_file_update(path)
                raise
            if not self.running:
                raise DaemonUnavailableError(
                    f"file server {self.server_name!r} crashed before the "
                    f"host's reply; recovery resolves the close from the "
                    f"host's outcome")
            self.commit_branch(txn_id, state_id)
            fire(engine.failpoints, "commit:committed", self.server_name)

    # ----------------------------------------------------------- abort / restore --
    def abort_file_update(self, path: str) -> bool:
        """Roll back an in-progress (or just-closed, uncommitted) file update.

        Restores the last committed version from the archive and parks the
        in-flight content in the temporary directory, as Section 4.2 requires
        for transaction or system failure.
        """

        tracking = self.repository.tracking(path)
        row = self.repository.linked_file(path)
        restored = self.restore_last_committed(path, park_in_flight=True)
        if tracking is not None:
            self.repository.remove_tracking(path)
        self.soft.clear_sync_entries(path)
        if row is not None and ControlMode.from_string(row["control_mode"]) is ControlMode.RFD:
            self.links.end_update(row)
        return restored

    def restore_last_committed(self, path: str, *, max_state_id: int | None = None,
                               park_in_flight: bool = False,
                               create_missing: bool = False) -> bool:
        """Overwrite *path* with its most recent committed (archived) version.

        ``create_missing`` recreates the file (and its directories) when it
        does not exist locally -- the witness-promotion case, where the
        mirror may never have received the content.
        """

        version = self.repository.latest_version(path, max_state_id=max_state_id)
        if version is None:
            return False
        if park_in_flight:
            current = self.files.read(path)
            self.files.park_in_flight(path, current, suffix=version["version_no"] + 1)
        content = self.archive.retrieve(version["archive_id"],
                                        caller_clock=self.clock)
        if create_missing and not self.files.exists(path):
            directory = path.rsplit("/", 1)[0] or "/"
            if directory != "/":
                self.files.lfs.makedirs(directory, self.files.dlfm_cred)
            self.files.lfs.write_file(path, content, self.files.dlfm_cred,
                                      create=True)
        else:
            self.files.overwrite(path, content)
        return True

    # ------------------------------------------------------------------ archiving --
    def process_archive_jobs(self) -> int:
        """Run every step of :meth:`archive_steps`; returns how many jobs
        archived a version."""

        return sum(self.archive_steps())

    def archive_steps(self):
        """Run the pending asynchronous archive jobs, one transfer in flight.

        A generator: each ``next()`` sends the next job's file to the
        archive mover, then commits the previous job's version once it is
        stored and yields 1 for it (0 if the file was gone).  The queue is
        read once, by the first step, so a caller may interleave the steps
        of several servers in simulated time
        (:meth:`repro.api.system.DataLinksSystem.run_archiver`).  A job's
        version row, the rows it supersedes and the job's own delete are
        one local transaction, written during the transfer
        (:meth:`_commit_in_flight`), so a crash re-runs a job only if its
        version never committed.  A read or send error other than ENOENT
        commits the job in flight first (a run abandoned between steps
        leaves it in :attr:`_in_flight`, for the next run to redo): no
        completed job is lost.  The last step forces the repository log (a
        log write only when commits are pending, as under group commit), so
        the run's version rows are durable and shipped when it returns --
        no tokenized read commits any more to push them out of the
        group-commit window, and a witness missing them is not
        read-eligible -- and then sweeps (:meth:`ArchiveServer.sweep`).
        """

        self._in_flight = None      # an abandoned run's: the sweep frees it
        if self.replica is not None:
            # A witness repository is redo-only: its archive_queue rows are
            # replicas of the primary's, and the primary runs those jobs.
            # Acting on them here would archive the (possibly stale) mirror
            # and write local transactions into heaps that must keep
            # mirroring the primary's row ids.
            return
        jobs = self.repository.pending_archive_jobs()
        for job in jobs:
            path = job["path"]
            try:
                content = self.files.read(path)
                sent = job, *self.archive.store(self.server_name, path,
                                                content, caller_clock=self.clock)
            except BaseException as error:
                if isinstance(error, FileSystemError) and error.errno is Errno.ENOENT:
                    self.repository.complete_archive_job(job["job_id"])
                    yield 0
                    continue
                if self._in_flight is not None:
                    self._commit_in_flight()
                raise
            if self._in_flight is None:
                self._in_flight = sent
            else:
                yield self._commit_in_flight(sent)
        if self._in_flight is not None:
            yield self._commit_in_flight()
        self.repository.db.force_log()
        for job in jobs:
            self._commit_states.pop(job["host_txn_id"], None)
        self.archive.sweep(self)

    def _commit_in_flight(self, sent: tuple | None = None) -> int:
        """Write the version of the transfer in flight while the mover
        stores its object, and commit it once it has; *sent* goes in
        flight next.  The write and the commit are one step, so no other
        server's step sees the version uncommitted."""

        (job, archive_id, stored), self._in_flight = self._in_flight, sent
        staged = self.repository.add_version(
            job["path"], archive_id, self._job_state_id(job["host_txn_id"]),
            self._backup_state_ids(), job_id=job["job_id"])
        self.clock.receive_ticks(stored)
        self.repository.db.commit(staged)
        return 1

    def archive_names(self, path: str) -> list[int]:
        """The archive ids of *path* this node names: the archive's roots."""

        names = self.repository.archive_ids(path)
        if self._in_flight is not None and self._in_flight[0]["path"] == path:
            names.append(self._in_flight[1])
        return names

    def _job_state_id(self, host_txn_id: int) -> int:
        """The host state id an archive job's version carries: the commit of
        the host transaction whose branch wrote the job.

        It came with the host's commit of the branch; a job whose entry a
        crash or a promotion lost (its branch committed from the log, or on
        another node) asks the host's durable outcome, once per transaction.
        Entries stay until the run that archives their jobs ends: a branch
        that linked several files wrote a job for each.
        """

        state_id = self._commit_states.get(host_txn_id)
        if state_id is None:
            state_id = self._commit_states[host_txn_id] = int(
                self._engine.host_commit_state(host_txn_id))
        return state_id

    def has_pending_archives(self, path: str | None = None) -> bool:
        return bool(self.repository.pending_archive_jobs(path))

    def run_housekeeping(self) -> dict:
        """Periodic DLFM maintenance: purge token-registry entries whose
        expiry has passed (the paper's token entries are valid "till time
        t"), on every node -- each holds its own.  Version retention needs
        no tick: the archiver drops what no backup can restore as it adds
        each version."""

        return {"purged_tokens":
                self.soft.purge_expired_tokens(self.clock.now())}

    # ------------------------------------------------------------- replica mode --
    def enable_replica_mode(self, shard: str):
        """Turn this DLFM into a witness replica of *shard* consuming a
        shipped WAL stream.

        Returns the :class:`~repro.datalinks.replication.ReplicaApplier`
        that :meth:`replica_apply` feeds; the applier rebinds
        ``linked_files`` inode numbers to this node's file system as rows
        arrive, and fires ``replicate:apply:<shard>`` into the attached
        engine's failpoint table.  The node keeps its token registry but
        drops its Sync table: a demoted serving node's open updates are
        rolled back by the node now serving (their tracking rows go), and a
        close arriving later finds nothing to remove.
        """

        from repro.datalinks.replication import ReplicaApplier

        self.replica = ReplicaApplier(
            self.repository.db, self._engine.failpoints, shard, files=self.files)
        self.soft.sync.clear()
        return self.replica

    def disable_replica_mode(self) -> None:
        """Promote this witness DLFM to a full primary.

        Leaves redo-only mode: archive jobs run locally again and
        link/unlink branches and 2PC votes are accepted (fencing
        permitting).  The token entries and Sync reads it registered as a
        witness are already in its soft state and stay there.
        """

        self.replica = None

    def replica_apply(self, records: list) -> dict:
        """Apply one shipped WAL batch (the ``apply_wal`` daemon operation)."""

        if self.replica is None:
            raise ControlModeError(
                f"DLFM {self.server_name!r} is not a witness replica")
        return self.replica.apply(records)

    def replica_catch_up(self, outcomes: dict) -> dict:
        """Promotion-time catch-up on the witness.

        Resolves the shipped in-doubt transactions against the
        coordinator's durable ``outcomes`` -- a committed link or close
        brings its archive jobs, which this node runs once it is primary
        -- then runs :meth:`replica_rebind` so this node can actually serve
        its replicated link state.
        """

        resolved = self.replica.resolve_in_doubt(outcomes) \
            if self.replica is not None else {"committed": [], "aborted": []}
        return {"in_doubt": resolved, **self.replica_rebind()}

    def rollback_inherited_updates(self) -> list[str]:
        """Roll back file updates the deposed serving node had open.

        Their update-tracking rows replicated over the WAL stream (their
        Sync write entries, soft state, died with that node), but the
        in-flight bytes never did (writes
        land on the serving node's file system; this node's mirror was
        taken at ingest), so the local copy already *is* the last
        committed version.  Clearing the inherited rows mirrors what
        crash recovery does on a restarted primary -- without it, every
        future update of those files would be refused as "already being
        updated" by a writer that can no longer reach this node.

        Must run *after* this node is a full primary and its surviving
        subscribers are re-sourced from its stream: the deletes then ship
        like any other repository write, keeping every witness heap
        positionally identical.
        """

        rolled_back = []
        for tracking in self.repository.all_tracking():
            path = tracking["path"]
            self.repository.remove_tracking(path)
            row = self.repository.linked_file(path)
            if row is not None and row["taken_over"] and \
                    ControlMode.from_string(row["control_mode"]) is ControlMode.RFD:
                self.links.end_update(row)
            rolled_back.append(path)
        return rolled_back

    def replica_rebind(self) -> dict:
        """Bind the replicated link state to this node's own resources.

        Walks the linked files to make this node able to serve them:
        missing file content is restored from the shared archive, inode
        numbers are rebound to the local file system, and the link
        constraints not in effect on the local copies are applied
        (:func:`~repro.datalinks.dlfm.link_manager.constrain`).  Used by
        promotion and by the reversed-ship rejoin, which has no in-doubt
        work to resolve.
        """

        restored, rebound, constrained = [], 0, 0
        stale = self.replica.stale_paths if self.replica is not None \
            else set()
        for row in self.repository.linked_files():
            path = row["path"]
            if self.files.exists(path) and path in stale:
                # The mirrored bytes predate an update-in-place committed
                # on the old serving node; refresh from the shared archive
                # (best effort -- an update committed but never archived
                # only ever lived on the crashed node).
                if self.restore_last_committed(path):
                    restored.append(path)
                stale.discard(path)
            if not self.files.exists(path):
                if not self.restore_last_committed(path, create_missing=True):
                    # No local content and nothing archived: park the row
                    # under a collision-free placeholder inode (unique per
                    # row, never a real inode) until the content shows up.
                    placeholder = -row["_rid"]
                    if row["ino"] != placeholder:
                        self.repository.update_linked_file(
                            path, {"ino": placeholder})
                    continue
                restored.append(path)
            attrs = self.files.stat(path)
            if attrs.ino != row["ino"]:
                self.repository.update_linked_file(path, {"ino": attrs.ino})
                rebound += 1
            constrained += constrain(self.files, row, attrs)
        return {"restored_files": restored,
                "rebound_inos": rebound, "constrained_files": constrained}

    # --------------------------------------------------------------- crash/recover --
    def crash(self) -> None:
        """Simulate a DLFM / file-server crash: volatile state is lost."""

        self.repository.db.crash()
        self.branches.clear()
        self._moving_exports.clear()
        self._commit_states.clear()
        self._in_flight = None
        self.soft.clear()
        self.running = False

    def recover(self) -> dict:
        """Restart after a crash: repository recovery plus file-update rollback.

        Each loser the repository's recovery undid (a branch whose records
        a flush made durable before it voted) settles as an abort.
        In-doubt branches (durable PREPARE, no durable outcome) are resolved
        from the coordinator: the durable PREPARE record carries the host
        transaction id, and the host database's log says whether that
        transaction committed.  Without a reachable coordinator the branch is
        presumed aborted.
        """

        db = self.repository.db
        summary = db.recover()
        for txn_id in summary["losers_undone"]:
            settle(self.files, db.wal.records_of(txn_id, durable_only=True),
                   committed=False)
        resolved = self._resolve_recovered_in_doubt()
        summary["in_doubt_committed"] = resolved["committed"]
        summary["in_doubt_aborted"] = resolved["aborted"]
        rolled_back = []
        for tracking in self.repository.all_tracking():
            self.abort_file_update(tracking["path"])
            rolled_back.append(tracking["path"])
        self.soft.clear()
        self.running = True
        return {"repository": summary, "rolled_back_updates": rolled_back}

    # ------------------------------------------------- in-doubt branch resolution --
    def _resolve_recovered_in_doubt(self) -> dict:
        """Commit or abort the in-doubt transactions reinstated by recovery.

        Each is a branch whose last record is its durable vote, which names
        its host transaction (:meth:`BranchManager.prepare`).
        """

        db = self.repository.db
        in_doubt = {txn.records[-1].extra["host_txn_id"]: txn
                    for txn in db.in_doubt_transactions()}
        outcomes = self._engine.host_transaction_outcomes(list(in_doubt))
        resolved = {"committed": [], "aborted": []}
        for host_txn_id, txn in in_doubt.items():
            won = outcomes.get(host_txn_id) == "committed"
            if won:
                db.commit_prepared(txn)
            else:
                # Presumed abort: no durable COMMIT at the coordinator.
                db.abort_prepared(txn)
            settle(self.files, txn.records, committed=won)
            resolved["committed" if won else "aborted"].append(host_txn_id)
        return resolved

    def resolve_in_doubt(self) -> dict:
        """Resolve live branches after a *coordinator* failure.

        When the host database (the 2PC coordinator) crashes mid-protocol,
        this file server is left with branches and no instruction.  Once the
        host has recovered, prepared branches are driven to the
        coordinator's durable outcome; branches that never voted cannot have
        committed anywhere (prepare precedes the host commit) and are
        presumed aborted.
        """

        committed, aborted = [], []
        outcomes = self._engine.host_transaction_outcomes(
            self.branches.prepared_host_transactions())
        for host_txn_id in list(self.branches.active_host_transactions()):
            if outcomes.get(host_txn_id) == "committed":
                self.branches.commit(host_txn_id)
                committed.append(host_txn_id)
            else:
                # An aborted close leaves its file's new bytes behind with
                # the tracking row back: roll the update back (Section
                # 4.2), as recovery does for a crashed node.
                closed = [record.before["path"] for record
                          in self.branches.get(host_txn_id).local_txn.records
                          if record.table == "update_tracking"
                          and record.type is LogRecordType.DELETE]
                self.branches.abort(host_txn_id)
                for path in closed:
                    self.abort_file_update(path)
                aborted.append(host_txn_id)
        return {"committed": committed, "aborted": aborted}

    # -------------------------------------------------------------------- backup --
    def backup(self, label: str = "") -> BackupImage:
        """Back up the DLFM repository (archives already hold file versions)."""

        self.process_archive_jobs()
        return self.repository.db.backup(label)

    def restore(self, image: BackupImage, host_state_id: int) -> list[str]:
        """Restore repository and files to the given host database state."""

        self.repository.db.restore(image)
        restored = []
        for row in self.repository.linked_files():
            path = row["path"]
            if self.restore_last_committed(path, max_state_id=host_state_id):
                restored.append(path)
        self.soft.clear()
        for tracking in self.repository.all_tracking():
            self.repository.remove_tracking(tracking["path"])
        return restored

    # -------------------------------------------------------------------- helpers --
    def generate_token(self, path: str, token_type: TokenType, ttl: float | None = None) -> str:
        """Generate a token locally (normally the engine's token manager does this)."""

        return self.tokens.generate(path, token_type, ttl)
