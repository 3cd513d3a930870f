"""Inodes and file attribute snapshots.

**Why the value objects are tuples.**  :class:`FileAttributes` -- like
:class:`repro.fs.vfs.Vnode`, :class:`repro.util.urls.DatalinkURL` and
:class:`repro.datalinks.tokens.AccessToken` -- is a
:class:`typing.NamedTuple`, not a frozen dataclass.  These are built on
every operation (a read takes two attribute snapshots to learn one size),
and a frozen slotted dataclass pays one ``object.__setattr__`` per field
inside a generated ``__init__`` where a tuple is one C call.  The contract
is the same: immutable, hashable, equal by value, built by keyword or by
position, properties and methods kept.  What an inode fixes for life is not
rebuilt at all: the file system makes its :class:`~repro.fs.vfs.Vnode` once,
with the inode, and hands that one out.

**Why ``Inode.content`` is one immutable ``bytes``.**  A regular file's
payload is stored once, whole, on its inode (``blocks`` is only the
allocation record; the block device counts, it does not store).  A whole-file
read returns the stored object and a write that covers the file adopts the
caller's ``bytes``, so the file, its archived version, its witness mirrors
and the client that handed it in share one object none of them can change.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple


class FileType(enum.Enum):
    REGULAR = "REGULAR"
    DIRECTORY = "DIRECTORY"


# Permission bit helpers (standard UNIX rwxrwxrwx layout).
R_OWNER, W_OWNER, X_OWNER = 0o400, 0o200, 0o100
R_GROUP, W_GROUP, X_GROUP = 0o040, 0o020, 0o010
R_OTHER, W_OTHER, X_OTHER = 0o004, 0o002, 0o001

DEFAULT_FILE_MODE = 0o644
DEFAULT_DIR_MODE = 0o755


@dataclass(slots=True)
class Inode:
    """One on-"disk" inode."""

    ino: int
    ftype: FileType
    mode: int
    uid: int
    gid: int
    size: int = 0
    nlink: int = 1
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0
    content: bytes = b""                                    # regular files only
    blocks: list[int] = field(default_factory=list)
    entries: dict[str, int] = field(default_factory=dict)   # directories only
    #: The owning file system's :class:`~repro.fs.vfs.Vnode` for this
    #: inode, made with it: neither half of it can change.
    vnode: tuple | None = None

    def attributes(self) -> "FileAttributes":
        return FileAttributes(self.ino, self.ftype, self.mode, self.uid,
                              self.gid, self.size, self.nlink, self.atime,
                              self.mtime, self.ctime)


class FileAttributes(NamedTuple):
    """An immutable snapshot of an inode's metadata (what ``stat`` returns)."""

    ino: int
    ftype: FileType
    mode: int
    uid: int
    gid: int
    size: int
    nlink: int
    atime: float
    mtime: float
    ctime: float

    @property
    def is_directory(self) -> bool:
        return self.ftype is FileType.DIRECTORY

    @property
    def is_regular(self) -> bool:
        return self.ftype is FileType.REGULAR


def permission_granted(mode: int, uid: int, gid: int, cred_uid: int, cred_gids,
                       want_read: bool, want_write: bool, want_exec: bool = False) -> bool:
    """Standard UNIX owner/group/other permission check (uid 0 bypasses)."""

    if cred_uid == 0:
        return True
    if cred_uid == uid:
        read_bit, write_bit, exec_bit = R_OWNER, W_OWNER, X_OWNER
    elif gid in cred_gids:
        read_bit, write_bit, exec_bit = R_GROUP, W_GROUP, X_GROUP
    else:
        read_bit, write_bit, exec_bit = R_OTHER, W_OTHER, X_OTHER
    if want_read and not mode & read_bit:
        return False
    if want_write and not mode & write_bit:
        return False
    if want_exec and not mode & exec_bit:
        return False
    return True
