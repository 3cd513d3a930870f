"""Copy-and-update (CAU).

Section 3: "applications can first make a private copy of a file before
updating it ... Multiple applications are allowed to make their own copies of
the same file ... transaction semantics is not enforced by DBMS and
applications themselves need to worry about update atomicity. ... a lost
update can occur with this approach, if not done carefully, and it does
occur."

The manager copies files into a per-user scratch area, remembers the base
modification time of each copy, and on check-in either detects that the
master changed (``policy="detect"``) or blindly overwrites it
(``policy="overwrite"``), counting the lost updates that result.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datalinks.dlfm.files import FileServerFiles
from repro.errors import DataLinksError, MergeConflictError

COPIES_ROOT = "/.cau_copies"


@dataclass
class PrivateCopy:
    """One user's private copy of a master file."""

    server: str
    path: str
    userid: int
    copy_path: str
    base_mtime: float
    base_size: int


class CopyAndUpdateManager:
    """Private copies plus explicit check-in with a chosen consistency policy."""

    def __init__(self, files_by_server: dict[str, FileServerFiles]):
        self._files = dict(files_by_server)
        self._copies: dict[tuple[str, str, int], PrivateCopy] = {}
        self.lost_updates = 0
        self.conflicts_detected = 0
        self.checkins = 0

    def _server_files(self, server: str) -> FileServerFiles:
        try:
            return self._files[server]
        except KeyError:
            raise DataLinksError(f"unknown file server {server!r}") from None

    # ----------------------------------------------------------------- copy out --
    def make_copy(self, server: str, path: str, userid: int) -> PrivateCopy:
        """Copy the master file into the user's scratch area (no lock taken)."""

        files = self._server_files(server)
        attrs = files.stat(path)
        content = files.read(path)
        safe_name = path.strip("/").replace("/", "__")
        copy_path = f"{COPIES_ROOT}/{userid}/{safe_name}"
        files.lfs.makedirs(f"{COPIES_ROOT}/{userid}", files.dlfm_cred)
        files.lfs.write_file(copy_path, content, files.dlfm_cred)
        copy = PrivateCopy(server=server, path=path, userid=userid,
                           copy_path=copy_path, base_mtime=attrs.mtime,
                           base_size=attrs.size)
        self._copies[(server, path, userid)] = copy
        return copy

    def write_copy(self, copy: PrivateCopy, content: bytes) -> None:
        """Update the user's private copy (the master is untouched)."""

        files = self._server_files(copy.server)
        files.lfs.write_file(copy.copy_path, content, files.dlfm_cred)

    def read_copy(self, copy: PrivateCopy) -> bytes:
        files = self._server_files(copy.server)
        return files.lfs.read_file(copy.copy_path, files.dlfm_cred)

    # ------------------------------------------------------------------ check-in --
    def check_in(self, copy: PrivateCopy, policy: str = "detect") -> dict:
        """Publish the private copy back to the master file.

        ``policy="detect"`` raises :class:`MergeConflictError` when the master
        changed after the copy was taken; ``policy="overwrite"`` publishes
        anyway and counts a lost update when intervening changes existed.
        Returns a summary dict.
        """

        key = (copy.server, copy.path, copy.userid)
        if key not in self._copies:
            raise DataLinksError(
                f"user {copy.userid} has no outstanding copy of {copy.path!r}")
        files = self._server_files(copy.server)
        master = files.stat(copy.path)
        intervening = master.mtime > copy.base_mtime or master.size != copy.base_size
        if intervening and policy == "detect":
            self.conflicts_detected += 1
            raise MergeConflictError(
                f"{copy.path!r} changed since user {copy.userid} copied it; "
                f"manual merge required")
        if intervening:
            self.lost_updates += 1
        content = self.read_copy(copy)
        files.overwrite(copy.path, content)
        del self._copies[key]
        self.checkins += 1
        return {"published": True, "lost_update": intervening and policy == "overwrite"}
