"""Link and unlink processing.

"When a file is linked to the database, DLFM applies the constraints for
referential integrity, access control, and backup and recovery as specified
in the DATALINK column definition ... All these changes to the DLFM
repository and file system are applied as part of the same DBMS transaction
as the initiating SQL statement.  Later, if the SQL transaction is rolled
back, the changes made by the DLFM are undone as well." (Section 2.2)

Repository changes are undone automatically because they run inside the
branch's local transaction -- the archive job of a file linked with
recovery among them, so the job commits, aborts, ships to the witnesses and
is resolved in doubt with the link itself; file-system changes (ownership
take-over, read-only marking) are compensated through the transaction's
``on_abort`` callbacks, and the deferred effects of an unlink (deleting or
restoring the file) run from ``on_commit`` callbacks.
"""

from __future__ import annotations

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, OnUnlink
from repro.datalinks.dlfm.branches import Branch
from repro.datalinks.dlfm.files import FileServerFiles
from repro.datalinks.dlfm.repository import DLFMRepository
from repro.datalinks.dlfm.soft_state import SoftState
from repro.errors import (
    FileAlreadyLinkedError,
    FileNotLinkedError,
    LinkConflictError,
    ReferentialIntegrityError,
)
from repro.storage.transaction import Transaction

#: Write-permission bits cleared when a file is marked read-only.
_WRITE_BITS = 0o222


def apply_link_constraints(files: FileServerFiles, txn: Transaction,
                           path: str, attrs, mode: ControlMode, *,
                           restore_to: tuple | None = None,
                           only_if_needed: bool = False) -> None:
    """Apply link-time access constraints to *path*, with abort compensation.

    The one protocol both a fresh link and a prefix-rebalance import
    follow: full-control modes take the file over (DBMS ownership,
    read-only), rfb/rfd strip the write bits; either way the transaction's
    ``on_abort`` restores *restore_to* -- the file's current attributes by
    default (the fresh-link case), or the pre-link originals recorded in
    the repository row (the import case, whose copy was created with
    them).  ``only_if_needed`` skips constraints already in effect, so
    re-constraining an imported copy is idempotent.
    """

    if restore_to is None:
        restore_to = (attrs.uid, attrs.gid, attrs.mode)
    if mode.takes_over_on_link:
        # Full-control modes: the DBMS takes over the file by changing its
        # ownership and marking it read-only (Section 2.2, rdb; extended
        # to rdd by the paper).
        if only_if_needed and attrs.uid == files.dbms_uid \
                and not attrs.mode & _WRITE_BITS:
            return
        files.take_over(path, mode=0o400)
        txn.on_abort.append(lambda: files.restore_ownership(path, *restore_to))
    elif mode.made_read_only_on_link:
        # rfb / rfd: ownership is unchanged but write permission is
        # disabled, "effectively making it read-only".
        if only_if_needed and not attrs.mode & _WRITE_BITS:
            return
        files.chmod(path, attrs.mode & ~_WRITE_BITS)
        txn.on_abort.append(lambda: files.chmod(path, attrs.mode))


class LinkManager:
    """Implements the link/unlink operations of one DLFM."""

    def __init__(self, repository: DLFMRepository, soft: SoftState,
                 files: FileServerFiles):
        self._repository = repository
        self._soft = soft
        self._files = files

    # ---------------------------------------------------------------------- link --
    def link_file(self, branch: Branch, path: str, options: DatalinkOptions) -> dict:
        """Put *path* under database control within *branch*.

        A file linked with recovery gets its archive job in the branch too,
        dated by the host commit the branch commits on
        (:meth:`~repro.datalinks.dlfm.manager.DataLinksFileManager.
        commit_branch`).
        """

        txn = branch.local_txn
        if not self._files.exists(path):
            raise ReferentialIntegrityError(
                f"cannot link {path!r}: the file does not exist")
        if self._repository.linked_file(path) is not None:
            raise FileAlreadyLinkedError(f"{path!r} is already linked")

        attrs = self._files.stat(path)
        mode = options.control_mode
        row = {
            "path": path,
            "ino": attrs.ino,
            "control_mode": mode.value,
            "recovery": options.recovery,
            "on_unlink": options.on_unlink.value,
            "taken_over": mode.takes_over_on_link,
            "strict_read_sync": options.strict_read_sync,
            "original_uid": attrs.uid,
            "original_gid": attrs.gid,
            "original_mode": attrs.mode,
            "linked_at": self._repository.db.now(),
            "last_size": attrs.size,
            "last_mtime": attrs.mtime,
        }
        self._repository.insert_linked_file(row, txn)
        self._apply_link_constraints(txn, path, attrs, mode)
        if options.recovery:
            self._repository.enqueue_archive_job(path, txn,
                                                 branch.host_txn_id)
            branch.queued_jobs = True
        return row

    def _apply_link_constraints(self, txn: Transaction, path: str, attrs,
                                mode: ControlMode) -> None:
        apply_link_constraints(self._files, txn, path, attrs, mode)

    # --------------------------------------------------------------------- unlink --
    def unlink_file(self, txn: Transaction, path: str) -> dict:
        """Remove *path* from database control within the branch transaction."""

        row = self._repository.linked_file(path)
        if row is None:
            raise FileNotLinkedError(f"{path!r} is not linked")
        open_entries = self._soft.sync_entries(path)
        if open_entries:
            raise LinkConflictError(
                f"cannot unlink {path!r}: {len(open_entries)} application(s) "
                f"currently have it open")
        self._repository.delete_linked_file(path, txn)
        txn.on_commit.append(lambda: self.finish_unlink(row))
        return row

    def finish_unlink(self, row: dict) -> None:
        """The file-system half of the unlink of *row*, once it committed:
        delete the file or give it back as it was before its link."""

        path = row["path"]
        if OnUnlink(row["on_unlink"]) is OnUnlink.DELETE:
            self._files.unlink(path)
            return
        mode = ControlMode.from_string(row["control_mode"])
        if mode.takes_over_on_link or mode.made_read_only_on_link:
            self._files.restore_ownership(path, row["original_uid"],
                                          row["original_gid"],
                                          row["original_mode"])
