"""The virtual file system interface and stackable filter layers.

The VFS entry points deliberately mirror the ones the paper names
(``fs_lookup``, ``fs_open``, ``fs_close``, ``fs_readwrite``, ``fs_remove``,
``fs_rename``, ``fs_lookup``, ``fs_lockctl``) and preserve the property that
makes DataLinks access control hard: ``fs_lookup`` sees the *name* (and hence
the embedded token) but not the open mode, while ``fs_open`` sees the open
mode but only a vnode, not the name (Section 4.1).

:class:`FilterVFS` is the stacking mechanism: a filter holds a reference to
the lower VFS and forwards everything by default.  DLFS subclasses it and
overrides only the entry points it needs to intercept.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.fs.inode import FileAttributes


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


class VFSOperations:
    """Abstract VFS entry points.

    Concrete file systems (and filter layers) implement these.  All methods
    raise :class:`repro.errors.FileSystemError` on failure.
    """

    fs_id: str = "vfs"

    def walk_profile(self):
        """Support for the logical layer's resolution cache.

        A VFS whose successful ``fs_lookup`` calls charge a *fixed* event
        sequence to one clock and whose namespace bindings (entries, modes,
        ownership) change only through its mutating entry points returns a
        ``(clock, charge_events, anchor)`` triple:

        * ``charge_events`` -- the ``(primitive, scale, label)`` tuples one
          lookup charges, in order, across every layer of the stack;
        * ``anchor`` -- an object exposing a monotone ``dir_version``
          counter that changes whenever a directory binding or a
          directory's permissions change.  Cached walks resolve directory
          chains only (the final path component is always looked up
          live), so ``dir_version`` fully guards their validity and file
          creates, removes and renames never invalidate anything.

        Returning ``None`` (the default) marks walks through this VFS as
        non-replayable, and the logical layer resolves every component
        live.
        """

        return None

    # directory-level operations -------------------------------------------------
    def root_vnode(self) -> Vnode:
        raise NotImplementedError

    def fs_lookup(self, dir_vnode: Vnode, name: str, cred: Credentials) -> Vnode:
        raise NotImplementedError

    def fs_create(self, dir_vnode: Vnode, name: str, mode: int,
                  cred: Credentials) -> Vnode:
        raise NotImplementedError

    def fs_mkdir(self, dir_vnode: Vnode, name: str, mode: int,
                 cred: Credentials) -> Vnode:
        raise NotImplementedError

    def fs_remove(self, dir_vnode: Vnode, name: str, cred: Credentials) -> None:
        raise NotImplementedError

    def fs_rmdir(self, dir_vnode: Vnode, name: str, cred: Credentials) -> None:
        raise NotImplementedError

    def fs_rename(self, src_dir: Vnode, src_name: str, dst_dir: Vnode,
                  dst_name: str, cred: Credentials) -> None:
        raise NotImplementedError

    def fs_readdir(self, dir_vnode: Vnode, cred: Credentials) -> list[str]:
        raise NotImplementedError

    # file-level operations ---------------------------------------------------------
    def fs_open(self, vnode: Vnode, flags: OpenFlags, cred: Credentials) -> OpenHandle:
        raise NotImplementedError

    def fs_close(self, handle: OpenHandle, cred: Credentials) -> None:
        raise NotImplementedError

    def fs_readwrite(self, vnode: Vnode, offset: int, *, data: bytes | None = None,
                     length: int = 0, write: bool, cred: Credentials) -> bytes | int:
        raise NotImplementedError

    def fs_getattr(self, vnode: Vnode, cred: Credentials) -> FileAttributes:
        raise NotImplementedError

    def fs_setattr(self, vnode: Vnode, cred: Credentials, **attrs) -> FileAttributes:
        raise NotImplementedError

    def fs_lockctl(self, vnode: Vnode, request: LockRequest, cred: Credentials) -> bool:
        raise NotImplementedError


class FilterVFS(VFSOperations):
    """A stackable layer that forwards every entry point to the layer below.

    This is the VFS-stacking mechanism DLFS is built on: subclasses override
    only the entry points they interpose on and call ``self.lower`` for the
    real work, exactly like a vnode-stacking filter in a UNIX kernel.
    """

    def __init__(self, lower: VFSOperations, fs_id: str | None = None):
        self.lower = lower
        self.fs_id = fs_id if fs_id is not None else f"filter({lower.fs_id})"

    def root_vnode(self) -> Vnode:
        return self.lower.root_vnode()

    def fs_lookup(self, dir_vnode, name, cred):
        return self.lower.fs_lookup(dir_vnode, name, cred)

    def fs_create(self, dir_vnode, name, mode, cred):
        return self.lower.fs_create(dir_vnode, name, mode, cred)

    def fs_mkdir(self, dir_vnode, name, mode, cred):
        return self.lower.fs_mkdir(dir_vnode, name, mode, cred)

    def fs_remove(self, dir_vnode, name, cred):
        return self.lower.fs_remove(dir_vnode, name, cred)

    def fs_rmdir(self, dir_vnode, name, cred):
        return self.lower.fs_rmdir(dir_vnode, name, cred)

    def fs_rename(self, src_dir, src_name, dst_dir, dst_name, cred):
        return self.lower.fs_rename(src_dir, src_name, dst_dir, dst_name, cred)

    def fs_readdir(self, dir_vnode, cred):
        return self.lower.fs_readdir(dir_vnode, cred)

    def fs_open(self, vnode, flags, cred):
        return self.lower.fs_open(vnode, flags, cred)

    def fs_close(self, handle, cred):
        return self.lower.fs_close(handle, cred)

    def fs_readwrite(self, vnode, offset, *, data=None, length=0, write, cred):
        return self.lower.fs_readwrite(vnode, offset, data=data, length=length,
                                       write=write, cred=cred)

    def fs_getattr(self, vnode, cred):
        return self.lower.fs_getattr(vnode, cred)

    def fs_setattr(self, vnode, cred, **attrs):
        return self.lower.fs_setattr(vnode, cred, **attrs)

    def fs_lockctl(self, vnode, request, cred):
        return self.lower.fs_lockctl(vnode, request, cred)
