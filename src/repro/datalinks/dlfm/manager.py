"""The DataLinks File Manager.

One :class:`DataLinksFileManager` runs on each file server.  It owns the
repository, the link/unlink logic, the token registry, the Sync table, update
tracking, versioning/archiving and coordinated backup/restore, and it exposes

* a *connection* interface used by the DataLinks engine in the host DBMS
  (link/unlink inside host transactions, two-phase commit), and
* an *upcall* interface used by DLFS (token validation at lookup, access
  checks at open, close processing).

This module is the heart of the paper's Section 4 (update in-place).
"""

from __future__ import annotations

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.control_modes import _MODES_BY_CODE as _MODES
from repro.datalinks.datalink_type import DatalinkOptions
from repro.datalinks.dlfm.archive import ArchiveServer
from repro.datalinks.dlfm.branches import BranchManager
from repro.datalinks.dlfm.files import DEFAULT_DBMS_UID, FileServerFiles
from repro.datalinks.dlfm.link_manager import LinkManager, apply_link_constraints
from repro.datalinks.dlfm.repository import DLFMRepository
from repro.datalinks.tokens import TokenManager, TokenType
from repro.errors import (
    AccessDeniedError,
    ControlModeError,
    UpdateInProgressError,
)
from repro.simclock import SimClock, synchronized_call
from repro.storage.backup import BackupImage
from repro.storage.database import Database
from repro.storage.transaction import Transaction

#: Permission given to a taken-over file while an rfd update is in progress.
_TAKEOVER_WRITE_MODE = 0o600
_WRITE_BITS = 0o222


class DataLinksFileManager:
    """DLFM for one file server."""

    def __init__(self, server_name: str, files: FileServerFiles,
                 archive: ArchiveServer, clock: SimClock,
                 token_secret: str | None = None):
        self.server_name = server_name
        self.clock = clock
        self.files = files
        self.archive = archive
        self.token_secret = token_secret or f"dlfm-secret-{server_name}"
        self.tokens = TokenManager(self.token_secret, clock)
        repository_scale = clock.costs.dlfm_repository_scale
        # The repository's charges are label-prefixed so its scaled
        # statements never conflate with host-database charges for the same
        # primitive in clock statistics.
        self.repository = DLFMRepository(
            Database(f"dlfm-{server_name}", clock, cost_scale=repository_scale,
                     stats_prefix="dlfm."))
        self.branches = BranchManager(self.repository.db)
        self.links = LinkManager(self.repository, files,
                                 state_id_provider=self._host_state_id)
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
        #: (a healthy witness within the router's staleness bound).
        self.read_gate = None
        self.replica = None
        self.replica_soft = None
        #: Dual-serve snapshots for prefix hand-offs in flight:
        #: ``host_txn_id -> {ino: linked_file row}``.  The export deletes
        #: the repository rows inside its branch, but reads of the moving
        #: prefix must keep succeeding on this node until the hand-off
        #: commits; the read-path upcalls fall back to these rows.
        #: Volatile by design: a crash aborts the branch (restoring the
        #: real rows) and loses the snapshot with it.
        self._moving_exports: dict[int, dict] = {}

    # ---------------------------------------------------------------- wiring -----
    def attach_engine(self, engine) -> None:
        """Called by the DataLinks engine when this file server is registered."""

        self._engine = engine
        self.links.set_state_id_provider(self._host_state_id)

    def _host_state_id(self) -> int:
        if self._engine is None:
            return int(self.repository.db.state_identifier())
        return int(self._engine.state_identifier())

    @property
    def dbms_uid(self) -> int:
        return self.files.dbms_uid if self.files is not None else DEFAULT_DBMS_UID

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
        healthy witness within the router's staleness bound may serve
        token validation and read opens -- that is the follower-read path.
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

    def commit_branch(self, host_txn_id: int) -> None:
        self.branches.commit(host_txn_id)
        self._moving_exports.pop(host_txn_id, None)

    def abort_branch(self, host_txn_id: int) -> None:
        self.branches.abort(host_txn_id)
        self._moving_exports.pop(host_txn_id, None)

    def link_file(self, host_txn_id: int, path: str,
                  options: DatalinkOptions) -> dict:
        """Link *path* as part of the host transaction *host_txn_id*."""

        self._check_fencing()
        self.check_placement(path)
        branch = self.branches.branch_for(host_txn_id)
        return self.links.link_file(branch.local_txn, path, options)

    def unlink_file(self, host_txn_id: int, path: str) -> dict:
        """Unlink *path* as part of the host transaction *host_txn_id*."""

        self._check_fencing()
        self.check_placement(path)
        branch = self.branches.branch_for(host_txn_id)
        return self.links.unlink_file(branch.local_txn, path)

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
        rows, versions = [], []
        for row in self.repository.linked_files():
            path = row["path"]
            if not path_under(prefix, path):
                continue
            if self.repository.sync_entries(path):
                raise PlacementError(
                    f"cannot hand {prefix!r} off: {path!r} is open "
                    f"({len(self.repository.sync_entries(path))} Sync "
                    f"entries); retry when the opens drain")
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
        (with abort compensation, like a fresh link), and the version
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
            if not self.files.exists(path):
                raise PlacementError(
                    f"content hand-off incomplete: {path!r} has no local "
                    f"copy on {self.server_name!r}")
            attrs = self.files.stat(path)
            row["ino"] = attrs.ino
            mode = ControlMode.from_string(row["control_mode"])
            row["taken_over"] = mode.takes_over_on_link
            self.repository.insert_linked_file(row, branch.local_txn)
            apply_link_constraints(
                self.files, branch.local_txn, path, attrs, mode,
                restore_to=(row["original_uid"], row["original_gid"],
                            row["original_mode"]),
                only_if_needed=True)
            imported += 1
        self.repository.import_version_rows(versions, branch.local_txn)
        return {"imported": imported, "versions": len(versions)}

    # ------------------------------------------------- soft-state dispatch ------
    # Token-registry and Sync entries are node-local soft state.  On a
    # serving node they live in the repository (and replicate with its WAL
    # stream); on a witness serving follower reads they go to the ephemeral
    # WitnessSoftState instead, because the witness repository is redo-only
    # and its heaps must keep mirroring the serving node's row ids.  Reads
    # see the union: entries replicated from the serving node plus the
    # node's own.
    def _register_token_entry(self, path: str, userid: int, token_type: str,
                              expires_at: float) -> None:
        if self.replica_soft is not None:
            self.replica_soft.add_token_entry(path, userid, token_type,
                                               expires_at)
        else:
            self.repository.add_token_entry(path, userid, token_type,
                                            expires_at)

    def _find_token_entry(self, path: str, userid: int, *,
                          for_write: bool) -> dict | None:
        now = self.clock.now()
        if self.replica_soft is not None:
            entry = self.replica_soft.find_token_entry(
                path, userid, for_write=for_write, now=now)
            if entry is not None:
                return entry
        return self.repository.find_token_entry(path, userid,
                                                for_write=for_write, now=now)

    def _sync_entries_of(self, path: str) -> list[dict]:
        entries = list(self.repository.sync_entries(path))
        if self.replica_soft is not None:
            entries.extend(self.replica_soft.sync_entries_for(path))
        return entries

    def _add_sync_entry(self, path: str, access: str, userid: int) -> None:
        if self.replica_soft is not None:
            self.replica_soft.add_sync_entry(path, access, userid)
        else:
            self.repository.add_sync_entry(path, access, userid)

    def _remove_sync_entry(self, path: str, access: str, userid: int) -> None:
        if self.replica_soft is not None:
            # Never fall through to the repository on a witness: its heap
            # rows are replicas of the serving node's and are removed by
            # redo when the serving node's own close ships over.  A close
            # whose soft entry is gone (e.g. wiped by a stream re-source)
            # has nothing local left to clean up.
            self.replica_soft.remove_sync_entry(path, access, userid)
            return
        self.repository.remove_sync_entry(path, access, userid)

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
        witness, whose entry goes to its local soft state.
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
        self._register_token_entry(row["path"], userid, token_code,
                                   token.expires_at)
        return {"linked": True, "token_type": token_code,
                "expires_at": token.expires_at}

    def upcall_check_open(self, ino: int, wants_write: bool, userid: int) -> dict:
        """fs_open-time access check.

        Invoked for files under full database control (owned by the DBMS) and,
        when the file server runs with strict read upcalls, for read opens of
        any file.  Non-full-control reads without strict synchronization are
        reported as unlinked so DLFS stays out of the data path.  Write opens
        require the serving lease; read opens pass the follower-read gate.
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
            self._begin_file_update(row, mode, userid)
            return {"linked": True, "open_as_dbms": True, "mode": mode._value_}
        if mode.full_control:
            self._begin_read(row, mode, userid)
            return {"linked": True, "open_as_dbms": True, "mode": mode._value_}
        if row.get("strict_read_sync"):
            self._begin_strict_read(row, userid)
            return {"linked": True, "open_as_dbms": False, "mode": mode._value_}
        return {"linked": False}

    def upcall_write_open_fallback(self, ino: int, userid: int) -> dict:
        """Handles the rfd path: a write open failed because the file is read-only.

        DLFM verifies the file is linked in an update mode, checks the write
        token, takes the file over to grant write permission, and approves the
        retry (Section 4.2).
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
        self._begin_file_update(row, mode, userid)
        return {"linked": True, "open_as_dbms": True, "mode": mode._value_}

    def upcall_file_closed(self, ino: int, was_write: bool, userid: int) -> dict:
        """fs_close-time processing: Sync cleanup, metadata update, archiving.

        Fencing applies here too: only the serving node may commit
        close-time metadata into the host database; read closes pass the
        follower-read gate (a witness only cleans its local Sync entry).
        """

        if was_write:
            self._check_fencing()
        else:
            self._check_read_service()
        row = self._lookup_link_row(ino)
        if row is None:
            return {"linked": False, "modified": False}
        path = row["path"]
        code = row["control_mode"]
        try:
            # from_string's canonical-code probe, inline (hot upcall path).
            mode = _MODES[code]
        except KeyError:
            mode = ControlMode.from_string(code)
        if was_write:
            self._remove_sync_entry(path, "write", userid)
        elif mode.full_control or row.get("strict_read_sync"):
            self._remove_sync_entry(path, "read", userid)
        if not was_write:
            return {"linked": True, "modified": False}

        tracking = self.repository.tracking(path)
        attrs = self.files.stat(path)
        modified = tracking is not None and (
            attrs.mtime > tracking["pre_mtime"] or attrs.size != tracking["pre_size"])
        if modified:
            self._commit_file_update(row, path, attrs)
        elif tracking is not None:
            self.repository.remove_tracking(path)
        if mode is ControlMode.RFD:
            self._release_takeover(row)
        return {"linked": True, "modified": modified}

    def upcall_is_linked(self, ino: int) -> dict:
        row = self._lookup_link_row(ino)
        if row is None:
            return {"linked": False}
        return {"linked": True, "mode": row["control_mode"], "path": row["path"]}

    # ------------------------------------------------------- update-in-place core --
    def _begin_read(self, row: dict, mode: ControlMode, userid: int) -> None:
        path = row["path"]
        if mode.requires_read_token:
            entry = self._find_token_entry(path, userid, for_write=False)
            if entry is None:
                raise AccessDeniedError(
                    f"no valid read token registered for user {userid} on {path!r}")
        # Writers are visible on a witness too: the serving node's Sync
        # entries replicate with the WAL stream, so a follower read is
        # serialized against an in-progress update exactly like a local one.
        writers = [entry for entry in self._sync_entries_of(path)
                   if entry["access"] == "write"]
        if writers:
            raise UpdateInProgressError(
                f"{path!r} is being updated; read access is serialized at open time")
        self._add_sync_entry(path, "read", userid)

    def _begin_strict_read(self, row: dict, userid: int) -> None:
        """Strict read synchronization for non-full-control files.

        This is the paper's sketched fix for the rfd window: record a read
        entry in the Sync table (so writers and unlink are serialized against
        this reader) without requiring a read token, since read access itself
        remains file-system controlled.
        """

        path = row["path"]
        writers = [entry for entry in self._sync_entries_of(path)
                   if entry["access"] == "write"]
        if writers:
            raise UpdateInProgressError(
                f"{path!r} is being updated; strict read synchronization rejects "
                f"the open")
        self._add_sync_entry(path, "read", userid)

    def _begin_file_update(self, row: dict, mode: ControlMode, userid: int) -> None:
        path = row["path"]
        if not mode.supports_update:
            raise AccessDeniedError(
                f"write access to {path!r} is not managed by the database "
                f"(mode {mode.value})")
        entry = self.repository.find_token_entry(path, userid, for_write=True,
                                                 now=self.clock.now())
        if entry is None:
            raise AccessDeniedError(
                f"no valid write token registered for user {userid} on {path!r}")
        existing = self.repository.sync_entries(path)
        writers = [item for item in existing if item["access"] == "write"]
        if writers:
            raise UpdateInProgressError(
                f"{path!r} is already being updated by user {writers[0]['userid']}")
        if mode.full_control or row.get("strict_read_sync"):
            readers = [item for item in existing if item["access"] == "read"]
            if readers:
                raise UpdateInProgressError(
                    f"{path!r} is open for read by {len(readers)} application(s); "
                    f"write access is serialized at open time")
        if self.repository.pending_archive_jobs(path):
            raise UpdateInProgressError(
                f"the previous update of {path!r} is still being archived")

        attrs = self.files.stat(path)
        self.repository.add_sync_entry(path, "write", userid)
        self.repository.add_tracking({
            "path": path,
            "userid": userid,
            "started_at": self.clock.now(),
            "pre_mtime": attrs.mtime,
            "pre_size": attrs.size,
            "restore_version": self.repository.latest_version_no(path),
        })
        if mode is ControlMode.RFD and not row["taken_over"]:
            # Temporarily take the file over so concurrent readers are kept
            # out by the file system's own access control (Section 4.2).
            self.files.take_over(path, mode=_TAKEOVER_WRITE_MODE)
            self.repository.update_linked_file(path, {"taken_over": True})

    def _commit_file_update(self, row: dict, path: str, attrs) -> None:
        """Commit a completed file update: metadata + repository in one transaction."""

        if self._engine is not None:
            # Close processing runs on this file server's clock domain but
            # drives a host transaction: the host cannot begin it before the
            # close happened, and the close does not return before the host
            # commit (the engine's 2PC back to this server merges the rest).
            with synchronized_call(self.clock, self._engine.clock):
                host_txn = self._engine.begin()
                host_txn.servers.add(self.server_name)
                branch = self.branches.branch_for(host_txn.txn_id)
                self.repository.update_linked_file(
                    path, {"last_size": attrs.size, "last_mtime": attrs.mtime},
                    branch.local_txn)
                self.repository.remove_tracking(path, branch.local_txn)
                self._engine.update_file_metadata(self.server_name, path,
                                                  attrs.size, attrs.mtime,
                                                  host_txn)
                self._engine.commit(host_txn)
        else:
            local_txn = self.repository.db.begin()
            self.repository.update_linked_file(
                path, {"last_size": attrs.size, "last_mtime": attrs.mtime},
                local_txn)
            self.repository.remove_tracking(path, local_txn)
            self.repository.db.commit(local_txn)
        if row["recovery"]:
            self.repository.enqueue_archive_job(path, self._host_state_id())

    def _release_takeover(self, row: dict) -> None:
        """Give an rfd file back to its owner, read-only, after the update."""

        path = row["path"]
        self.files.restore_ownership(path, row["original_uid"], row["original_gid"],
                                     row["original_mode"] & ~_WRITE_BITS)
        self.repository.update_linked_file(path, {"taken_over": False})

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
        self.repository.clear_sync_entries(path)
        if row is not None and ControlMode.from_string(row["control_mode"]) is ControlMode.RFD:
            self._release_takeover(row)
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
        """Run pending asynchronous archive jobs; returns how many completed."""

        if self.replica is not None:
            # A witness repository is redo-only: its archive_queue rows are
            # replicas of the primary's, and the primary runs those jobs.
            # Acting on them here would archive the (possibly stale) mirror
            # and write local transactions into heaps that must keep
            # mirroring the primary's row ids.
            return 0
        completed = 0
        for job in self.repository.pending_archive_jobs():
            path = job["path"]
            if not self.files.exists(path):
                self.repository.complete_archive_job(job["job_id"])
                continue
            content = self.files.read(path)
            archive_id = self.archive.store(self.server_name, path, content,
                                            caller_clock=self.clock)
            self.repository.add_version(path, archive_id, job["state_id"])
            self.repository.complete_archive_job(job["job_id"])
            completed += 1
        return completed

    def has_pending_archives(self, path: str | None = None) -> bool:
        return bool(self.repository.pending_archive_jobs(path))

    def run_housekeeping(self, keep_versions: int | None = None) -> dict:
        """Periodic DLFM maintenance.

        * purge token-registry entries whose expiry has passed (the paper's
          token entries are valid "till time t");
        * optionally prune each file's committed-version chain to its newest
          *keep_versions* entries so the archive metadata stays bounded; the
          newest version is always retained because rollback needs it.
        """

        if self.replica is not None:
            # Redo-only witness: repository maintenance runs on the serving
            # node and replicates over (see process_archive_jobs); only the
            # node-local follower-read soft state is purged here.
            purged = self.replica_soft.purge_expired_tokens(self.clock.now()) \
                if self.replica_soft is not None else 0
            return {"purged_tokens": purged, "pruned_versions": 0}
        purged_tokens = self.repository.purge_expired_tokens(self.clock.now())
        pruned_versions = 0
        if keep_versions is not None and keep_versions >= 1:
            for row in self.repository.linked_files():
                versions = self.repository.versions(row["path"])
                for stale in versions[:-keep_versions]:
                    self.repository.db.delete(
                        "file_versions", {"version_id": stale["version_id"]})
                    pruned_versions += 1
        return {"purged_tokens": purged_tokens, "pruned_versions": pruned_versions}

    # ------------------------------------------------------------- replica mode --
    def enable_replica_mode(self, failpoints: dict | None = None):
        """Turn this DLFM into a witness replica consuming a shipped WAL stream.

        Returns the :class:`~repro.datalinks.replication.ReplicaApplier`
        that :meth:`replica_apply` feeds; the applier rebinds
        ``linked_files`` inode numbers to this node's file system as rows
        arrive.  Follower-read soft state (token-registry and Sync entries)
        goes to an ephemeral side store while replica mode is on, keeping
        the repository heaps redo-only.
        """

        from repro.datalinks.replication import ReplicaApplier, WitnessSoftState

        self.replica = ReplicaApplier(self.repository.db, files=self.files,
                                       failpoints=failpoints)
        self.replica_soft = WitnessSoftState()
        return self.replica

    def disable_replica_mode(self) -> dict:
        """Promote this witness DLFM to a full primary.

        Leaves redo-only mode: archive jobs and housekeeping run locally
        again, link/unlink branches and 2PC votes are accepted (fencing
        permitting), and the follower-read soft state accrued while serving
        as a witness is migrated into the repository -- whose writes now go
        through this node's own WAL and therefore ship to any subscriber.
        """

        soft = self.replica_soft
        self.replica = None
        self.replica_soft = None
        migrated = {"token_entries": 0, "sync_entries": 0}
        if soft is not None:
            for entry in soft.all_token_entries():
                self.repository.add_token_entry(entry["path"], entry["userid"],
                                                entry["token_type"],
                                                entry["expires_at"])
                migrated["token_entries"] += 1
            for entry in soft.all_sync_entries():
                self.repository.add_sync_entry(entry["path"], entry["access"],
                                               entry["userid"])
                migrated["sync_entries"] += 1
        return migrated

    def replica_apply(self, records: list) -> dict:
        """Apply one shipped WAL batch (the ``apply_wal`` daemon operation)."""

        if self.replica is None:
            raise ControlModeError(
                f"DLFM {self.server_name!r} is not a witness replica")
        return self.replica.apply(records)

    def replica_status(self) -> dict:
        if self.replica is None:
            return {"replica": False}
        soft = self.replica_soft
        return {"replica": True,
                "soft_token_entries":
                    len(soft.all_token_entries()) if soft else 0,
                "soft_sync_entries":
                    len(soft.all_sync_entries()) if soft else 0,
                **self.replica.status()}

    def replica_catch_up(self, outcomes: dict) -> dict:
        """Promotion-time catch-up on the witness.

        Resolves the shipped in-doubt transactions against the
        coordinator's durable ``outcomes``, then runs
        :meth:`replica_rebind` so this node can actually serve its
        replicated link state.
        """

        resolved = self.replica.resolve_in_doubt(outcomes) \
            if self.replica is not None else {"committed": [], "aborted": []}
        return {"in_doubt": resolved, **self.replica_rebind()}

    def inherited_sync_entry_ids(self) -> list[int]:
        """Ids of the Sync entries replicated from the deposed serving node.

        Sampled just before promotion migrates this node's own
        follower-read soft state into the repository, so the two
        populations stay distinguishable: inherited entries belong to
        opens against the *old* serving node and must be rolled back,
        while migrated soft entries are this node's own live reads.
        """

        return [row["entry_id"]
                for row in self.repository.db.select("sync_entries", lock=False)]

    def rollback_inherited_updates(self, sync_entry_ids: list[int]) -> list[str]:
        """Roll back file updates the deposed serving node had open.

        Their Sync "write" entries and update-tracking rows replicated
        over the WAL stream, but the in-flight bytes never did (writes
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
                self._release_takeover(row)
            rolled_back.append(path)
        doomed = set(sync_entry_ids)
        if doomed:
            self.repository.db.delete(
                "sync_entries", lambda row: row["entry_id"] in doomed)
        return rolled_back

    def replica_rebind(self) -> dict:
        """Bind the replicated link state to this node's own resources.

        Walks the linked files to make this node able to serve them:
        missing file content is restored from the shared archive, inode
        numbers are rebound to the local file system, and full-control /
        read-only link constraints are re-applied to the local copies (the
        link ran on another node, so its ownership changes never touched
        this node's files).  Used by promotion and by the reversed-ship
        rejoin, which has no in-doubt work to resolve.
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
            mode = ControlMode.from_string(row["control_mode"])
            if mode.takes_over_on_link and attrs.uid != self.dbms_uid:
                self.files.take_over(path, mode=0o400)
                constrained += 1
            elif mode.made_read_only_on_link and attrs.mode & _WRITE_BITS:
                self.files.chmod(path, attrs.mode & ~_WRITE_BITS)
                constrained += 1
        return {"restored_files": restored,
                "rebound_inos": rebound, "constrained_files": constrained}

    # --------------------------------------------------------------- crash/recover --
    def crash(self) -> None:
        """Simulate a DLFM / file-server crash: volatile state is lost."""

        self.repository.db.crash()
        self.branches.clear()
        self._moving_exports.clear()
        if self.replica_soft is not None:
            # Follower-read soft state is volatile, like the branch table.
            self.replica_soft.clear()
        self.running = False

    def recover(self) -> dict:
        """Restart after a crash: repository recovery plus file-update rollback.

        In-doubt branches (durable PREPARE, no durable outcome) are resolved
        from the coordinator: the durable PREPARE record carries the host
        transaction id, and the host database's log says whether that
        transaction committed.  Without a reachable coordinator the branch is
        presumed aborted.
        """

        summary = self.repository.db.recover()
        resolved = self._resolve_recovered_in_doubt()
        summary["in_doubt_committed"] = resolved["committed"]
        summary["in_doubt_aborted"] = resolved["aborted"]
        rolled_back = []
        for tracking in self.repository.all_tracking():
            path = tracking["path"]
            self.restore_last_committed(path, park_in_flight=True)
            self.repository.remove_tracking(path)
            row = self.repository.linked_file(path)
            if row is not None and ControlMode.from_string(row["control_mode"]) is ControlMode.RFD:
                self._release_takeover(row)
            rolled_back.append(path)
        self.repository.clear_sync_entries()
        self.running = True
        return {"repository": summary, "rolled_back_updates": rolled_back}

    # ------------------------------------------------- in-doubt branch resolution --
    def _host_txn_id_of(self, local_txn_id: int) -> int | None:
        """Map a repository transaction back to its host transaction id.

        Reads the durable PREPARE record the branch wrote when it voted.
        """

        from repro.storage.wal import LogRecordType

        for record in self.repository.db.wal.records_of(local_txn_id,
                                                        durable_only=True):
            if record.type is LogRecordType.PREPARE:
                host_txn_id = record.extra.get("host_txn_id")
                if host_txn_id is not None:
                    return int(host_txn_id)
        return None

    def _host_outcome(self, host_txn_id: int | None) -> str:
        if host_txn_id is None or self._engine is None:
            return "unknown"
        return self._engine.host_transaction_outcome(host_txn_id)

    def _resolve_recovered_in_doubt(self) -> dict:
        """Commit or abort the in-doubt transactions reinstated by recovery."""

        committed, aborted = [], []
        for txn in list(self.repository.db.in_doubt_transactions()):
            host_txn_id = self._host_txn_id_of(txn.txn_id)
            if self._host_outcome(host_txn_id) == "committed":
                self.repository.db.commit_prepared(txn)
                committed.append(host_txn_id)
            else:
                # Presumed abort: no durable COMMIT at the coordinator.
                self.repository.db.abort_prepared(txn)
                aborted.append(host_txn_id if host_txn_id is not None else txn.txn_id)
        return {"committed": committed, "aborted": aborted}

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
        prepared = set(self.branches.prepared_host_transactions())
        for host_txn_id in list(self.branches.active_host_transactions()):
            if host_txn_id in prepared and \
                    self._host_outcome(host_txn_id) == "committed":
                self.branches.commit(host_txn_id)
                committed.append(host_txn_id)
            else:
                self.branches.abort(host_txn_id)
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
        self.repository.clear_sync_entries()
        for tracking in self.repository.all_tracking():
            self.repository.remove_tracking(tracking["path"])
        return restored

    # -------------------------------------------------------------------- helpers --
    def generate_token(self, path: str, token_type: TokenType, ttl: float | None = None) -> str:
        """Generate a token locally (normally the engine's token manager does this)."""

        return self.tokens.generate(path, token_type, ttl)
