"""The virtual file system interface: its value types and entry points.

A VFS is any object with the entry points below; there is no base class.
Two implement them: :class:`~repro.fs.physical.PhysicalFileSystem` (the
native file system) and DLFS
(:class:`~repro.datalinks.dlfs.layer.DataLinksFileSystem`), a filter that
holds the native file system as ``lower`` and forwards to it.  The logical
file system calls, on the VFS mounted at a path:

* ``root_vnode()``;
* ``fs_lookup(dir_vnode, name, cred)``, ``fs_create(dir_vnode, name, mode,
  cred)``, ``fs_mkdir(dir_vnode, name, mode, cred)``,
  ``fs_remove(dir_vnode, name, cred)`` and ``fs_rename(src_dir, src_name,
  dst_dir, dst_name, cred)``;
* ``fs_open(vnode, flags, cred)`` (returns an :class:`OpenHandle`),
  ``fs_close(handle, cred)``, ``fs_readwrite(vnode, offset, *, data=None,
  length=0, write, cred)``, ``fs_getattr(vnode, cred)`` and
  ``fs_setattr(vnode, cred, **attrs)``;
* ``walk_profile()``, for the logical layer's resolution cache: ``None``
  (resolve every component live), or a ``(clock, charge_events, anchor)``
  triple when every successful ``fs_lookup`` charges one fixed sequence of
  ``(primitive, scale, label)`` events to *clock* and the ``anchor``'s
  monotone ``dir_version`` counter changes whenever a directory binding or
  a directory's permissions change (its ``bind_version`` counter, when it
  has one, changes on every create, remove and rename).

DLFS also calls the native file system's ``fs_lockctl(vnode, request,
cred)`` with a :class:`LockRequest`.  Every entry point raises
:class:`repro.errors.FileSystemError` on failure.

The entry points mirror the ones the paper names (``fs_lookup``,
``fs_open``, ``fs_close``, ``fs_readwrite``, ``fs_remove``, ``fs_rename``,
``fs_lockctl``) and preserve the property that makes DataLinks access
control hard: ``fs_lookup`` sees the *name* (and hence the embedded token)
but not the open mode, while ``fs_open`` sees the open mode but only a
vnode, not the name (Section 4.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple


class OpenFlags(enum.Flag):
    """Open mode flags (a small subset of POSIX ``O_*``)."""

    READ = enum.auto()
    WRITE = enum.auto()
    CREATE = enum.auto()
    TRUNCATE = enum.auto()
    APPEND = enum.auto()

    @property
    def wants_write(self) -> bool:
        # A plain int mask test: flag-enum ``&``/``|`` allocate a new Flag
        # member per operation, and this predicate runs on every open.
        return (self._value_ & _WRITE_MASK) != 0


_WRITE_MASK = (OpenFlags.WRITE.value | OpenFlags.APPEND.value
               | OpenFlags.TRUNCATE.value)

#: Plain int masks for per-open flag tests (``flags._value_ & MASK``):
#: flag-enum ``&`` allocates a new Flag member per operation, and these
#: tests sit on the open/read/write hot paths.
CREATE_MASK = OpenFlags.CREATE.value
APPEND_MASK = OpenFlags.APPEND.value
TRUNCATE_MASK = OpenFlags.TRUNCATE.value
READ_MASK = OpenFlags.READ.value
WRITE_MASK = _WRITE_MASK


@dataclass(frozen=True, slots=True)
class Credentials:
    """The identity a process presents to the file system."""

    uid: int
    gid: int = 0
    groups: tuple[int, ...] = ()
    username: str = ""
    # Derived once at construction: the permission check reads this on every
    # VFS call, and rebuilding the tuple per call was measurable.
    all_groups: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "all_groups", (self.gid, *self.groups))

    @property
    def is_superuser(self) -> bool:
        return self.uid == 0


class Vnode(NamedTuple):
    """A reference to a file object inside one VFS instance.

    Vnodes compare by (file system identity, inode number) so a vnode obtained
    through a filter layer equals the vnode of the underlying file.  A file
    system makes one per inode and hands that out (see :mod:`repro.fs.inode`).
    """

    fs_id: str
    ino: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vnode({self.fs_id}:{self.ino})"


class LockKind(enum.Enum):
    SHARED = "SHARED"
    EXCLUSIVE = "EXCLUSIVE"
    UNLOCK = "UNLOCK"


@dataclass(slots=True)
class LockRequest:
    """A whole-file lock request passed to ``fs_lockctl``."""

    kind: LockKind
    owner: object
    nonblocking: bool = True


@dataclass(slots=True)
class OpenHandle:
    """Opaque per-open state returned by ``fs_open`` and passed to ``fs_close``.

    Filter layers may attach their own state under ``layer_state`` keyed by
    layer name; the logical file system treats the handle as opaque.
    """

    vnode: Vnode
    flags: OpenFlags
    layer_state: dict = field(default_factory=dict)
