"""The logical file system (LFS): path resolution, file descriptors, syscalls.

Applications use this layer exactly like the POSIX API: ``open`` returns a
file descriptor, ``read``/``write`` move an offset, ``close`` releases it.
Internally ``open`` is decoupled into ``fs_lookup`` followed by ``fs_open``
against the mounted VFS stack, which is the structural property DataLinks
token handling has to work around (Section 4.1 of the paper).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.errors import Errno, FileSystemError, fs_error
from repro.fs.inode import DEFAULT_DIR_MODE, DEFAULT_FILE_MODE, FileAttributes
from repro.fs.vfs import (
    APPEND_MASK,
    CREATE_MASK,
    READ_MASK,
    WRITE_MASK,
    Credentials,
    LockKind,
    LockRequest,
    OpenFlags,
    OpenHandle,
    VFSOperations,
    Vnode,
)
from repro.simclock import SimClock

_WRITE_TRUNC = OpenFlags.WRITE | OpenFlags.TRUNCATE
_WRITE_TRUNC_CREATE = _WRITE_TRUNC | OpenFlags.CREATE


@dataclass(slots=True)
class OpenFile:
    """One entry of the system open-file table."""

    fd: int
    path: str
    vfs: VFSOperations
    vnode: Vnode
    handle: OpenHandle
    flags: OpenFlags
    cred: Credentials
    offset: int = 0


@dataclass(slots=True)
class _Mount:
    prefix: str
    vfs: VFSOperations


#: Sentinel distinguishing "profile not computed yet" from "VFS opted out".
_PROFILE_UNSET = object()


@functools.lru_cache(maxsize=8192)
def _normalize(path: str) -> str:
    """Normalize an absolute path (memoized -- the same few hundred
    directories are re-resolved on every operation of a workload; path
    resolution normalizes parent directories only, so no token-carrying
    name comes here)."""

    if not path.startswith("/"):
        raise fs_error(Errno.EINVAL, f"path must be absolute: {path!r}")
    parts = [part for part in path.split("/") if part not in ("", ".")]
    return "/" + "/".join(parts)


class LogicalFileSystem:
    """Mount table + open-file table + the system-call API."""

    def __init__(self, clock: SimClock):
        self.clock = clock
        # The hot syscalls (open, close, read, write) write
        # ``clock.charge("syscall_base")`` out inline against this
        # meter, like the physical layer's fixed charges.
        self._syscall = clock.meter("syscall_base")
        self._mounts: list[_Mount] = []
        self._open_files: dict[int, OpenFile] = {}
        self._next_fd = 3          # 0..2 are conventionally reserved
        # Normalized path -> (vfs, relative), and relative path -> its
        # components.  Resolution puts only directories here (a path's
        # final component, the one a token rides in, is resolved live),
        # so the keys are the namespace's few hundred directories plus
        # mount roots; the bound is a backstop.  Invalidated on mount().
        self._resolve_cache: dict[str, tuple[VFSOperations, str]] = {}
        self._split_cache: dict[str, list[str]] = {}
        # Mounted prefixes other than "/" (none on a system that mounts
        # only "/"): a path naming one has no final component in its own
        # file system.
        self._mount_points: set[str] = set()
        # Parent-resolution cache: (parent directory, cred.uid) ->
        # everything the resolve produced, plus what a hit must replay
        # (the walk's whole charge pattern, in one batch) and the
        # directory version that guards its validity.  Parent resolution
        # walks only directories, so entries validate against the
        # anchor's ``dir_version`` and survive file creates/removes/
        # renames; the final component of every path is always looked up
        # live, which is also why the key is the parent directory rather
        # than the full path -- token-carrying names never reach it.
        # The key uses the uid (an int, so probing never re-hashes the
        # credential object); the full credential rides in the entry and
        # is identity-compared on hit.  The per-VFS pattern and anchor
        # come from ``walk_profile()``.
        self._parent_cache: dict[tuple, tuple] = {}
        # Full-resolution cache: (path, cred.uid) -> the final vnode as
        # well.  Unlike parent entries this also pins the *binding* of the
        # final component, so it additionally validates against the
        # anchor's ``bind_version`` (bumped on every create/remove/rename)
        # and never holds a token-carrying path (its validation upcall
        # must stay live), so its keys are token-free too.
        self._lookup_cache: dict[tuple, tuple] = {}
        self._walk_profiles: dict[VFSOperations, tuple | None] = {}

    # ------------------------------------------------------------------ mounts --
    def mount(self, prefix: str, vfs: VFSOperations) -> None:
        """Mount *vfs* at *prefix* (longest-prefix match wins at resolution)."""

        prefix = _normalize(prefix)
        self._mounts.append(_Mount(prefix=prefix, vfs=vfs))
        self._mounts.sort(key=lambda mount: len(mount.prefix), reverse=True)
        if prefix != "/":
            self._mount_points.add(prefix)
        self._resolve_cache.clear()
        self._parent_cache.clear()
        self._lookup_cache.clear()
        self._walk_profiles.clear()

    def mounted_vfs(self, path: str) -> tuple[VFSOperations, str]:
        """Return ``(vfs, path relative to the mount root)`` for *path*."""

        normalized = _normalize(path)
        try:
            return self._resolve_cache[normalized]
        except KeyError:
            pass
        for mount in self._mounts:
            if normalized == mount.prefix or normalized.startswith(
                    mount.prefix.rstrip("/") + "/") or mount.prefix == "/":
                if mount.prefix == "/":
                    relative = normalized
                else:
                    relative = normalized[len(mount.prefix.rstrip("/")):] or "/"
                if len(self._resolve_cache) > 4096:
                    self._resolve_cache.clear()
                self._resolve_cache[normalized] = (mount.vfs, relative)
                return mount.vfs, relative
        raise fs_error(Errno.ENOENT, f"no file system mounted for {path!r}")

    # -------------------------------------------------------------- resolution --
    def _walk(self, vfs: VFSOperations, relative: str,
              cred: Credentials) -> Vnode:
        """Walk every component of *relative* inside *vfs*."""

        cache = self._split_cache
        try:
            parts = cache[relative]
        except KeyError:
            parts = [part for part in relative.split("/") if part]
            if len(cache) > 4096:
                cache.clear()
            cache[relative] = parts
        vnode = vfs.root_vnode()
        for part in parts:
            vnode = vfs.fs_lookup(vnode, part, cred)
        return vnode

    def _compile_walk_profile(self, vfs: VFSOperations) -> tuple | None:
        """Resolve and memoize *vfs*'s per-lookup charge pattern."""

        raw = vfs.walk_profile()
        if raw is None:
            profile = None
        else:
            # A stack that charges nothing per lookup still caches: its
            # compiled pattern is empty and replaying it adds nothing.
            clock, events, anchor = raw
            profile = (clock, clock.compile_charges(events), anchor)
        self._walk_profiles[vfs] = profile
        return profile

    def _resolve_parent(self, path: str, cred: Credentials):
        """``(vfs, parent vnode, final name, parent depth)`` for *path*.

        Tokens ride only in the *final* component, and that component is
        always looked up live -- so only the parent directory is
        normalized, resolved and cached, keyed on the directory rather than
        the full path.  (A full-path key would miss on every freshly minted
        token even though the walked chain is the same few directories
        over and over.)  The depth counts the parent's components below
        its mount root.
        """

        if not path.startswith("/"):
            raise fs_error(Errno.EINVAL, f"path must be absolute: {path!r}")
        head, _, name = path.rpartition("/")
        while name in ("", ".") and head:     # a trailing "/" or "/."
            head, _, name = head.rpartition("/")
        parent_dir = _normalize(head) if head else "/"
        if name in ("", ".") or (self._mount_points
                                 and parent_dir.rstrip("/") + "/" + name
                                 in self._mount_points):
            # The root, or a mount root: no final component in its own
            # file system (``_resolve`` walks it live).
            raise fs_error(Errno.EINVAL, f"path {path!r} has no final component")
        try:
            (anchor, version, vfs, parent, clock, compiled, depth,
             owner) = self._parent_cache[(parent_dir, cred.uid)]
        except KeyError:
            pass
        else:
            if anchor.dir_version == version \
                    and (owner is cred or owner == cred):
                clock.charge_batch(compiled, depth)
                return vfs, parent, name, depth
        # The full path's mount is its parent's: a longer prefix matching
        # the path but not its parent would be the path itself, refused
        # above.
        try:
            vfs, relative = self._resolve_cache[parent_dir]
        except KeyError:
            vfs, relative = self.mounted_vfs(parent_dir)
        parent = self._walk(vfs, relative, cred)
        depth = len(self._split_cache[relative])
        profile = self._walk_profiles.get(vfs, _PROFILE_UNSET)
        if profile is _PROFILE_UNSET:
            profile = self._compile_walk_profile(vfs)
        # A token anywhere in the walked chain would skip its validation
        # upcall on replay, so such parents are never cached.
        if profile is not None and ";" not in parent_dir:
            clock, compiled, anchor = profile
            if len(self._parent_cache) > 4096:
                self._parent_cache.clear()
            self._parent_cache[(parent_dir, cred.uid)] = (
                anchor, anchor.dir_version, vfs, parent,
                clock, compiled, depth, cred)
        return vfs, parent, name, depth

    def _store_lookup(self, path: str, cred: Credentials, vfs, vnode,
                      depth: int) -> None:
        """Store-side of the full-resolution cache (miss path only)."""

        if ";" in path:
            # Token validation upcalls must stay live; never cache a
            # token-carrying path end to end.
            return
        profile = self._walk_profiles.get(vfs, _PROFILE_UNSET)
        if profile is _PROFILE_UNSET:
            profile = self._compile_walk_profile(vfs)
        if profile is None:
            return
        clock, compiled, anchor = profile
        bversion = getattr(anchor, "bind_version", None)
        if bversion is None:
            return
        cache = self._lookup_cache
        if len(cache) > 4096:
            cache.clear()
        cache[(path, cred.uid)] = (anchor, anchor.dir_version, bversion, vfs,
                                   vnode, clock, compiled, depth + 1, cred)

    def _lookup(self, path: str, cred: Credentials) -> tuple[VFSOperations, Vnode]:
        """Resolve *path* to its final vnode through the full cache.

        A hit replays the walk's entire charge pattern (every component
        including the final lookup) in one batch; it is valid only while
        the anchor's ``dir_version`` (directory chain) and ``bind_version``
        (final binding) both stand still.
        """

        try:
            (anchor, dversion, bversion, vfs, vnode, clock, compiled,
             cycles, owner) = self._lookup_cache[(path, cred.uid)]
        except KeyError:
            pass
        else:
            if (anchor.dir_version == dversion
                    and anchor.bind_version == bversion
                    and (owner is cred or owner == cred)):
                clock.charge_batch(compiled, cycles)
                return vfs, vnode
        vfs, parent, name, depth = self._resolve_parent(path, cred)
        vnode = vfs.fs_lookup(parent, name, cred)
        self._store_lookup(path, cred, vfs, vnode, depth)
        return vfs, vnode

    def _resolve(self, path: str, cred: Credentials) -> tuple[VFSOperations, Vnode]:
        # Full resolution is parent resolution plus one live ``fs_lookup``
        # of the final component: the charge sequence is identical to
        # walking every component (pattern x (depth-1), then pattern x 1).
        # Between binding changes the whole resolution replays from the
        # full-resolution cache; any create/remove/rename on the anchor
        # falls back to the live path, so token validation upcalls and
        # ENOENT behavior are exactly those of an uncached walk.
        try:
            return self._lookup(path, cred)
        except FileSystemError as error:
            if error.errno is not Errno.EINVAL:
                raise
            # The root or a mount root has no final component; walk it live.
            vfs, relative = self.mounted_vfs(path)
            return vfs, self._walk(vfs, relative, cred)

    # ----------------------------------------------------------------- syscalls --
    def open(self, path: str, flags: OpenFlags, cred: Credentials,
             mode: int = DEFAULT_FILE_MODE) -> int:
        """Open *path* and return a file descriptor.

        The final path component may carry an embedded DataLinks access token
        (``name;token=...``); it is passed verbatim to ``fs_lookup`` so a DLFS
        layer can validate it.
        """

        amount, meter = self._syscall
        self.clock.ticks += amount
        meter[0] += 1
        # Probe the full-resolution cache inline: open() needs the parent
        # vnode when it has to fall back to fs_create, so it cannot use
        # the _lookup() wrapper (a second parent resolution would replay
        # the walk's charges twice).
        hit = False
        try:
            (anchor, dversion, bversion, vfs, vnode, cclock, compiled,
             cycles, owner) = self._lookup_cache[(path, cred.uid)]
        except KeyError:
            pass
        else:
            if (anchor.dir_version == dversion
                    and anchor.bind_version == bversion
                    and (owner is cred or owner == cred)):
                hit = True
                cclock.charge_batch(compiled, cycles)
        if not hit:
            vfs, parent, name, depth = self._resolve_parent(path, cred)
            try:
                vnode = vfs.fs_lookup(parent, name, cred)
            except FileSystemError as error:
                if error.errno is not Errno.ENOENT or not (flags._value_ & CREATE_MASK):
                    raise
                vnode = vfs.fs_create(parent, name, mode, cred)
            else:
                self._store_lookup(path, cred, vfs, vnode, depth)
        handle = vfs.fs_open(vnode, flags, cred)
        fd = self._next_fd
        self._next_fd += 1
        self._open_files[fd] = OpenFile(fd=fd, path=path, vfs=vfs, vnode=vnode,
                                        handle=handle, flags=flags, cred=cred)
        return fd

    def close(self, fd: int) -> None:
        amount, meter = self._syscall
        self.clock.ticks += amount
        meter[0] += 1
        open_file = self._require_fd(fd)
        open_file.vfs.fs_close(open_file.handle, open_file.cred)
        del self._open_files[fd]

    def read(self, fd: int, length: int = -1) -> bytes:
        amount, meter = self._syscall
        self.clock.ticks += amount
        meter[0] += 1
        open_file = self._require_fd(fd)
        if not (open_file.flags._value_ & READ_MASK):
            raise fs_error(Errno.EBADF, f"fd {fd} is not open for reading")
        if length < 0:
            attrs = open_file.vfs.fs_getattr(open_file.vnode, open_file.cred)
            length = attrs.size - open_file.offset
            if length < 0:
                length = 0
        data = open_file.vfs.fs_readwrite(open_file.vnode, open_file.offset,
                                          length=length, write=False,
                                          cred=open_file.cred)
        open_file.offset += len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        amount, meter = self._syscall
        self.clock.ticks += amount
        meter[0] += 1
        open_file = self._require_fd(fd)
        if not (open_file.flags._value_ & WRITE_MASK):
            raise fs_error(Errno.EBADF, f"fd {fd} is not open for writing")
        if open_file.flags._value_ & APPEND_MASK:
            attrs = open_file.vfs.fs_getattr(open_file.vnode, open_file.cred)
            open_file.offset = attrs.size
        written = open_file.vfs.fs_readwrite(open_file.vnode, open_file.offset,
                                             data=data, write=True,
                                             cred=open_file.cred)
        open_file.offset += written
        return written

    def lseek(self, fd: int, offset: int) -> int:
        self.clock.charge("syscall_base")
        open_file = self._require_fd(fd)
        if offset < 0:
            raise fs_error(Errno.EINVAL, "negative seek offset")
        open_file.offset = offset
        return offset

    def stat(self, path: str, cred: Credentials) -> FileAttributes:
        amount, meter = self._syscall
        self.clock.ticks += amount
        meter[0] += 1
        vfs, vnode = self._resolve(path, cred)
        return vfs.fs_getattr(vnode, cred)

    def fstat(self, fd: int) -> FileAttributes:
        open_file = self._require_fd(fd)
        return open_file.vfs.fs_getattr(open_file.vnode, open_file.cred)

    def exists(self, path: str, cred: Credentials) -> bool:
        try:
            self.stat(path, cred)
            return True
        except FileSystemError:
            return False

    def unlink(self, path: str, cred: Credentials) -> None:
        self.clock.charge("syscall_base")
        vfs, parent, name, _ = self._resolve_parent(path, cred)
        vfs.fs_remove(parent, name, cred)

    def rename(self, old_path: str, new_path: str, cred: Credentials) -> None:
        self.clock.charge("syscall_base")
        old_vfs, old_parent, old_name, _ = self._resolve_parent(old_path, cred)
        new_vfs, new_parent, new_name, _ = self._resolve_parent(new_path, cred)
        if old_vfs is not new_vfs:
            raise fs_error(Errno.EXDEV, "rename across file systems")
        old_vfs.fs_rename(old_parent, old_name, new_parent, new_name, cred)

    def mkdir(self, path: str, cred: Credentials, mode: int = DEFAULT_DIR_MODE) -> None:
        self.clock.charge("syscall_base")
        vfs, parent, name, _ = self._resolve_parent(path, cred)
        vfs.fs_mkdir(parent, name, mode, cred)

    def makedirs(self, path: str, cred: Credentials, mode: int = DEFAULT_DIR_MODE) -> None:
        """Create *path* and any missing ancestors (no error when they exist)."""

        normalized = _normalize(path)
        parts = [part for part in normalized.split("/") if part]
        current = ""
        for part in parts:
            current = f"{current}/{part}"
            try:
                self.mkdir(current, cred, mode)
            except FileSystemError as error:
                if error.errno is not Errno.EEXIST:
                    raise

    def rmdir(self, path: str, cred: Credentials) -> None:
        self.clock.charge("syscall_base")
        vfs, parent, name, _ = self._resolve_parent(path, cred)
        vfs.fs_rmdir(parent, name, cred)

    def listdir(self, path: str, cred: Credentials) -> list[str]:
        self.clock.charge("syscall_base")
        vfs, vnode = self._resolve(path, cred)
        return vfs.fs_readdir(vnode, cred)

    def chmod(self, path: str, mode: int, cred: Credentials) -> None:
        amount, meter = self._syscall
        self.clock.ticks += amount
        meter[0] += 1
        vfs, vnode = self._resolve(path, cred)
        vfs.fs_setattr(vnode, cred, mode=mode)

    def chown(self, path: str, uid: int, gid: int, cred: Credentials) -> None:
        amount, meter = self._syscall
        self.clock.ticks += amount
        meter[0] += 1
        vfs, vnode = self._resolve(path, cred)
        vfs.fs_setattr(vnode, cred, uid=uid, gid=gid)

    def truncate(self, path: str, size: int, cred: Credentials) -> None:
        self.clock.charge("syscall_base")
        vfs, vnode = self._resolve(path, cred)
        vfs.fs_setattr(vnode, cred, size=size)

    def lock_file(self, fd: int, exclusive: bool = True) -> bool:
        """Take a whole-file advisory lock on behalf of this descriptor."""

        self.clock.charge("syscall_base")
        open_file = self._require_fd(fd)
        kind = LockKind.EXCLUSIVE if exclusive else LockKind.SHARED
        request = LockRequest(kind=kind, owner=("fd", fd))
        return open_file.vfs.fs_lockctl(open_file.vnode, request, open_file.cred)

    def unlock_file(self, fd: int) -> None:
        self.clock.charge("syscall_base")
        open_file = self._require_fd(fd)
        request = LockRequest(kind=LockKind.UNLOCK, owner=("fd", fd))
        open_file.vfs.fs_lockctl(open_file.vnode, request, open_file.cred)

    # --------------------------------------------------------------- convenience --
    def read_file(self, path: str, cred: Credentials) -> bytes:
        """Open, fully read, and close *path*."""

        fd = self.open(path, OpenFlags.READ, cred)
        try:
            return self.read(fd)
        finally:
            self.close(fd)

    def write_file(self, path: str, data: bytes, cred: Credentials,
                   create: bool = True) -> int:
        """Open (creating/truncating), write *data*, and close *path*."""

        flags = _WRITE_TRUNC_CREATE if create else _WRITE_TRUNC
        fd = self.open(path, flags, cred)
        try:
            return self.write(fd, data)
        finally:
            self.close(fd)

    def open_file_entry(self, fd: int) -> OpenFile:
        """Expose an open-file-table entry (used by tests and the DataLinks API)."""

        return self._require_fd(fd)

    def open_descriptors(self) -> list[int]:
        return sorted(self._open_files)

    def _require_fd(self, fd: int) -> OpenFile:
        try:
            return self._open_files[fd]
        except KeyError:
            raise fs_error(Errno.EBADF, f"bad file descriptor {fd}") from None

