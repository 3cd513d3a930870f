"""Link and unlink processing, and what a link does to its file.

"When a file is linked to the database, DLFM applies the constraints for
referential integrity, access control, and backup and recovery as specified
in the DATALINK column definition ... All these changes to the DLFM
repository and file system are applied as part of the same DBMS transaction
as the initiating SQL statement.  Later, if the SQL transaction is rolled
back, the changes made by the DLFM are undone as well." (Section 2.2)

Repository changes are undone automatically because they run inside the
branch's local transaction -- the archive job of a file linked with
recovery among them, so the job commits, aborts, ships to the witnesses and
is resolved in doubt with the link itself.  The file-system half follows
one rule, written once here: a link (or a prefix import) applies its
constraint at once (:func:`constrain`), and a finished branch's log
records say what its outcome does to the files they name
(:func:`settle`).  Every outcome path calls :func:`settle` with the
records it finished -- a live commit or abort
(:class:`~repro.datalinks.dlfm.branches.BranchManager`), an in-doubt
branch resolved at restart, a loser the restart undid, a transaction a
witness applies -- so a branch does the same to its files whichever way
it ends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, OnUnlink
from repro.datalinks.dlfm.files import FileServerFiles
from repro.datalinks.dlfm.repository import DLFMRepository
from repro.datalinks.dlfm.soft_state import SoftState
from repro.errors import (
    Errno,
    FileAlreadyLinkedError,
    FileNotLinkedError,
    FileSystemError,
    LinkConflictError,
    ReferentialIntegrityError,
)
from repro.fs.inode import FileAttributes
from repro.storage.wal import LogRecordType

if TYPE_CHECKING:
    from repro.datalinks.dlfm.branches import Branch

#: Write-permission bits cleared when a file is marked read-only.
_WRITE_BITS = 0o222
#: Permission given to a taken-over file while an rfd update is in progress.
_UPDATE_MODE = 0o600
#: The key of a prefix hand-off's export in its branch's PREPARE vote.
HANDOFF = "handoff"


def constrain(files: FileServerFiles, row: dict, attrs: FileAttributes) -> bool:
    """Apply *row*'s link constraint to its file, whose attributes are
    *attrs*, unless it is already in effect; returns whether it changed
    the file.

    Full-control modes take the file over (DBMS ownership, read-only;
    Section 2.2, rdb, extended to rdd by the paper); rfb/rfd strip the
    write bits, "effectively making it read-only".  A fresh link, a prefix
    import's copy, a witness's mirror and a promoted witness's rebind all
    come through here.
    """

    mode = ControlMode.from_string(row["control_mode"])
    takes_over = mode.takes_over_on_link
    if not (takes_over or mode.made_read_only_on_link):
        return False
    if not attrs.mode & _WRITE_BITS and (
            not takes_over or attrs.uid == files.dbms_uid):
        return False
    if takes_over:
        files.take_over(row["path"], mode=0o400)
    else:
        files.chmod(row["path"], attrs.mode & ~_WRITE_BITS)
    return True


def give_back(files: FileServerFiles, row: dict) -> None:
    """Give *row*'s file back to its owner as it was before its link."""

    mode = ControlMode.from_string(row["control_mode"])
    if mode.takes_over_on_link or mode.made_read_only_on_link:
        files.restore_ownership(row["path"], row["original_uid"],
                                row["original_gid"], row["original_mode"])


def hand_back(files: FileServerFiles, row: dict) -> None:
    """Give an rfd file taken over for an update back to its owner,
    read-only: it is still linked."""

    files.restore_ownership(row["path"], row["original_uid"],
                            row["original_gid"],
                            row["original_mode"] & ~_WRITE_BITS)


def settle(files: FileServerFiles, records, committed: bool) -> None:
    """Do to the files what the outcome of a branch whose log records are
    *records* owes them.

    Each path's records fold into one net effect, its last record's when
    committed and its first's when aborted.  Committed, an unlink deletes
    its file or gives it back (its ``on_unlink``) and an rfd close hands
    its file back; aborted, a link or a prefix import gives its file back
    and a relinked path goes back under its old row's constraint.  A
    prefix hand-off's export does nothing to its files, whose bytes the
    source sweep owns: its vote, the last record a branch writes, names it
    (:data:`HANDOFF`).  A file this node holds no copy of (a witness whose
    mirror never arrived) has nothing owed.
    """

    if not records or HANDOFF in records[-1].extra:
        return
    net, linked = {}, {}
    for record in records if committed else reversed(records):
        if record.table == "linked_files":
            path = (record.after or record.before)["path"]
            net[path] = record
            if record.type is LogRecordType.INSERT:
                linked.setdefault(path, record.after)
    for path, record in net.items():
        try:
            if not committed:
                if record.type is LogRecordType.INSERT:
                    give_back(files, record.after)
                elif path in linked:    # relinked: back under its old row
                    give_back(files, linked[path])
                    constrain(files, record.before, files.stat(path))
            elif record.type is LogRecordType.DELETE:
                if OnUnlink(record.before["on_unlink"]) is OnUnlink.DELETE:
                    files.unlink(record.before["path"])
                else:
                    give_back(files, record.before)
            elif record.type is LogRecordType.UPDATE and \
                    record.before["taken_over"] and \
                    not record.after["taken_over"]:
                hand_back(files, record.after)
        except FileSystemError as error:
            if error.errno is not Errno.ENOENT:
                raise


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
        commit_branch`), unless the branch relinks *path* and a job of it is
        still queued: no update rewrote the file since, so that job archives
        the same bytes.
        """

        txn = branch.local_txn
        if not self._files.exists(path):
            raise ReferentialIntegrityError(
                f"cannot link {path!r}: the file does not exist")
        if self._repository.linked_file(path) is not None:
            raise FileAlreadyLinkedError(f"{path!r} is already linked")

        if path in branch.unlinked:     # relinked: start from the owner's file
            give_back(self._files, branch.unlinked[path])
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
        constrain(self._files, row, attrs)
        if options.recovery and not (
                path in branch.unlinked
                and self._repository.pending_archive_jobs(path)):
            branch.jobs[path] = self._repository.enqueue_archive_job(
                path, txn, branch.host_txn_id)
        return row

    # --------------------------------------------------------------------- unlink --
    def unlink_file(self, branch: Branch, path: str) -> dict:
        """Remove *path* from database control within *branch*, and the
        archive job the branch's link of it queued; its commit settles the
        file (:func:`settle`)."""

        row = self._repository.linked_file(path)
        if row is None:
            raise FileNotLinkedError(f"{path!r} is not linked")
        open_entries = self._soft.sync_entries(path)
        if open_entries:
            raise LinkConflictError(
                f"cannot unlink {path!r}: {len(open_entries)} application(s) "
                f"currently have it open")
        self._repository.delete_linked_file(path, branch.local_txn)
        if path in branch.jobs:
            self._repository.complete_archive_job(branch.jobs.pop(path),
                                                  branch.local_txn)
        branch.unlinked[path] = row
        return row

    # -------------------------------------------------------------- rfd updates --
    def take_over_for_update(self, row: dict) -> None:
        """Take an rfd file over while it is updated, so concurrent readers
        are kept out by the file system's own access control (Section
        4.2)."""

        if not row["taken_over"]:
            self._files.take_over(row["path"], mode=_UPDATE_MODE)
            self._repository.update_linked_file(row["path"],
                                                {"taken_over": True})

    def end_update(self, row: dict) -> None:
        """Hand an rfd file back after an update that wrote nothing or
        was rolled back; a committed close hands it back through its
        branch (:func:`settle`)."""

        hand_back(self._files, row)
        self._repository.update_linked_file(row["path"], {"taken_over": False})
