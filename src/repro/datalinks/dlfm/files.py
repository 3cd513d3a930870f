"""Privileged file access used by the DLFM.

The DLFM daemons run as a privileged user on the file server and reach the
native file system directly (they are *below* DLFS), so their file operations
never recurse into DataLinks interception.  :class:`FileServerFiles` wraps a
logical file system mounted directly over the physical file system together
with the DLFM's credentials and the uid used when files are taken over.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fs.inode import FileAttributes
from repro.fs.logical import LogicalFileSystem
from repro.fs.vfs import Credentials

#: uid given to files taken over by the DBMS ("changing its ownership").
DEFAULT_DBMS_UID = 500
DEFAULT_DBMS_GID = 500

#: Directory where in-flight versions of rolled-back updates are parked
#: ("the in-flight version of the file is moved to a temporary directory").
TEMP_DIRECTORY = "/.dlfm_tmp"


@dataclass
class FileServerFiles:
    """Raw (non-intercepted) file operations for one file server."""

    lfs: LogicalFileSystem
    dlfm_cred: Credentials
    dbms_uid: int = DEFAULT_DBMS_UID
    dbms_gid: int = DEFAULT_DBMS_GID

    # -- queries -------------------------------------------------------------------
    def stat(self, path: str) -> FileAttributes:
        return self.lfs.stat(path, self.dlfm_cred)

    def exists(self, path: str) -> bool:
        return self.lfs.exists(path, self.dlfm_cred)

    def read(self, path: str) -> bytes:
        return self.lfs.read_file(path, self.dlfm_cred)

    # -- mutations -----------------------------------------------------------------
    def overwrite(self, path: str, content: bytes) -> None:
        """Replace a file's content without changing its ownership or mode."""

        self.lfs.write_file(path, content, self.dlfm_cred, create=False)

    def chown(self, path: str, uid: int, gid: int) -> None:
        self.lfs.chown(path, uid, gid, self.dlfm_cred)

    def chmod(self, path: str, mode: int) -> None:
        self.lfs.chmod(path, mode, self.dlfm_cred)

    def unlink(self, path: str) -> None:
        self.lfs.unlink(path, self.dlfm_cred)

    def take_over(self, path: str, mode: int = 0o400) -> None:
        """Transfer ownership of *path* to the DBMS user and set *mode*."""

        self.chown(path, self.dbms_uid, self.dbms_gid)
        self.chmod(path, mode)

    def restore_ownership(self, path: str, uid: int, gid: int, mode: int) -> None:
        """Give *path* back to its original owner with its original mode."""

        self.chown(path, uid, gid)
        self.chmod(path, mode)

    def park_in_flight(self, path: str, content: bytes, suffix: int) -> str:
        """Save an in-flight (rolled back) version under the temp directory."""

        self.lfs.makedirs(TEMP_DIRECTORY, self.dlfm_cred)
        name = path.strip("/").replace("/", "__")
        parked = f"{TEMP_DIRECTORY}/{name}.{suffix}"
        self.lfs.write_file(parked, content, self.dlfm_cred, create=True)
        return parked
