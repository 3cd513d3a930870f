"""Whole-file advisory locks used by the ``fs_lockctl`` entry point.

The paper serializes file access "using the fs_lockctl() entry point of the
file system to lock the file in the desired access mode" (Section 4.2).  The
lock table keyed by inode number implements shared/exclusive whole-file
locks; lock owners are opaque (DLFS uses the token-entry user id plus the
open handle so locks are released exactly once per open).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import Errno, fs_error
from repro.fs.vfs import LockKind, LockRequest


@dataclass
class _FileLock:
    owner: object
    exclusive: bool


@dataclass
class FileLockTable:
    """Per-file shared/exclusive locks with immediate (non-blocking) grants."""

    _locks: dict[int, list[_FileLock]] = field(default_factory=dict)

    def apply(self, ino: int, request: LockRequest) -> bool:
        """Apply *request* for the file *ino*; returns True when granted."""

        if request.kind is LockKind.UNLOCK:
            self.release(ino, request.owner)
            return True
        exclusive = request.kind is LockKind.EXCLUSIVE
        holders = self._locks.setdefault(ino, [])
        for lock in holders:
            if lock.owner == request.owner:
                lock.exclusive = lock.exclusive or exclusive
                return True
        conflict = any(lock.exclusive or exclusive for lock in holders)
        if conflict:
            raise fs_error(Errno.EAGAIN,
                           f"file lock on inode {ino} unavailable "
                           f"({len(holders)} holder(s))")
        holders.append(_FileLock(owner=request.owner, exclusive=exclusive))
        return True

    def release(self, ino: int, owner: object) -> None:
        holders = self._locks.get(ino)
        if not holders:
            return
        holders[:] = [lock for lock in holders if lock.owner != owner]
        if not holders:
            del self._locks[ino]

    def holders(self, ino: int) -> list[object]:
        return [lock.owner for lock in self._locks.get(ino, ())]
