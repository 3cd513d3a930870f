"""The physical (native) file system -- the JFS/UFS stand-in.

Implements every VFS entry point over inodes and a block device, with
standard UNIX permission checks.  This is the layer DLFS sits on top of; it
knows nothing about DataLinks.

A file's bytes are one immutable ``bytes`` on its inode; the device only
allocates blocks and counts the ones a request touches.  So a read is the
accounting plus a slice, a write is allocation, accounting and one splice,
and a truncate is a slice or a zero pad (see the block helpers at the end).

The hot entry points write their fixed charges out inline against
``(ticks, meter)`` pairs (see :meth:`repro.simclock.SimClock.meter`): the
VFS layer is the single hottest surface of the simulator and the call
overhead of routing each fixed-cost event through ``charge()`` dominated
whole-experiment profiles.  Cold entry points call ``charge()``.
"""

from __future__ import annotations

from repro.errors import Errno, fs_error
from repro.fs.blockdev import BlockDevice
from repro.fs.inode import (
    DEFAULT_DIR_MODE,
    DEFAULT_FILE_MODE,
    FileType,
    Inode,
    permission_granted,
)
from repro.fs.locks import FileLockTable
from repro.fs.vfs import (
    READ_MASK,
    TRUNCATE_MASK,
    WRITE_MASK,
    Credentials,
    LockRequest,
    OpenFlags,
    OpenHandle,
    VFSOperations,
    Vnode,
)
from repro.simclock import TICKS_PER_SECOND, SimClock

ROOT_INO = 1


class PhysicalFileSystem(VFSOperations):
    """An inode-based file system on a simulated block device."""

    def __init__(self, name: str = "pfs0", device: BlockDevice | None = None,
                 *, clock: SimClock, root_uid: int = 0, root_gid: int = 0):
        self.fs_id = name
        self.device = device if device is not None else BlockDevice(name=f"{name}-disk")
        self.clock = clock
        self.locks = FileLockTable()
        self._inodes: dict[int, Inode] = {}
        self._next_ino = ROOT_INO
        #: Invalidation counter for the logical layer's resolution caches.
        #: It bumps only when a *directory* binding or a directory's
        #: permissions change: cached walks resolve directory chains, so
        #: file creates/removes/renames -- the overwhelmingly common
        #: mutations on a busy server -- never invalidate parent
        #: resolutions.
        self.dir_version = 0
        #: Companion counter for *final-component* bindings: bumped on
        #: every create/remove/rename (file or directory).  The logical
        #: layer's full-resolution cache checks both counters, so a cached
        #: final vnode never survives its name being rebound.
        self.bind_version = 0
        # Meters of the hot entry points' fixed charges (the clock
        # never rebinds, so they are resolved once, here).
        self._vfs = clock.meter("vfs_op")
        self._lookup = clock.meter("directory_lookup")
        self._seek = clock.meter("disk_seek")
        # The transfer's amount varies: its unit (a zero-byte
        # transfer), its exact per-byte rate and its ledger cell.
        self._transfer = (
            clock.unit_ticks("disk_transfer_per_byte"),
            *clock.byte_rate("disk_transfer_per_byte"),
            clock.stats.cell("disk_transfer_per_byte"))
        root = self._new_inode(FileType.DIRECTORY, DEFAULT_DIR_MODE, root_uid, root_gid)
        assert root.ino == ROOT_INO

    # ------------------------------------------------------------------ helpers --
    def _new_inode(self, ftype: FileType, mode: int, uid: int, gid: int) -> Inode:
        # One clock read: birth timestamps are all stamped at the same
        # instant (no charge can land between the three reads).  Here and
        # at the hot entry points below ``clock.now()`` is written out:
        # inode times are float seconds, the clock is ticks.
        born = self.clock.ticks / TICKS_PER_SECOND
        ino = self._next_ino
        inode = Inode(ino=ino, ftype=ftype, mode=mode, uid=uid, gid=gid,
                      atime=born, mtime=born, ctime=born,
                      vnode=Vnode(self.fs_id, ino))
        self._inodes[ino] = inode
        self._next_ino = ino + 1
        return inode

    def inode(self, ino: int) -> Inode:
        try:
            return self._inodes[ino]
        except KeyError:
            raise fs_error(Errno.ENOENT, f"stale inode {ino}") from None

    def _inode_of(self, vnode: Vnode) -> Inode:
        return self.inode(vnode.ino)

    def _check(self, inode: Inode, cred: Credentials, *, read: bool = False,
               write: bool = False, exec_: bool = False) -> None:
        if not permission_granted(inode.mode, inode.uid, inode.gid, cred.uid,
                                  cred.all_groups, read, write, exec_):
            raise fs_error(Errno.EACCES,
                           f"uid {cred.uid} denied on inode {inode.ino} "
                           f"(mode {oct(inode.mode)}, owner {inode.uid})")

    def _require_dir(self, inode: Inode) -> None:
        if inode.ftype is not FileType.DIRECTORY:
            raise fs_error(Errno.ENOTDIR, f"inode {inode.ino} is not a directory")

    def walk_profile(self):
        events = (("vfs_op", 1.0, None), ("directory_lookup", 1.0, None))
        # The anchor is this file system itself: the cache reads the two
        # version counters straight off it (attribute loads, no calls).
        return (self.clock, events, self)

    # ------------------------------------------------------------ directory ops --
    def root_vnode(self) -> Vnode:
        return self._inodes[ROOT_INO].vnode

    def fs_lookup(self, dir_vnode: Vnode, name: str, cred: Credentials) -> Vnode:
        # The hottest VFS entry point (every path component of every
        # resolution lands here): helpers *and* the two fixed charges are
        # inlined into direct loads and integer additions.
        amount, meter = self._vfs
        second, meter2 = self._lookup
        self.clock.ticks += amount + second
        meter[0] += 1
        meter2[0] += 1
        try:
            directory = self._inodes[dir_vnode.ino]
        except KeyError:
            raise fs_error(Errno.ENOENT, f"stale inode {dir_vnode.ino}") from None
        if directory.ftype is not FileType.DIRECTORY:
            raise fs_error(Errno.ENOTDIR, f"inode {directory.ino} is not a directory")
        # permission_granted(exec) unrolled: the walk only ever asks for
        # the execute bit, so the three-way owner/group/other dispatch
        # collapses to one mask test.
        uid = cred.uid
        if uid != 0:
            if uid == directory.uid:
                exec_bit = 0o100
            elif directory.gid in cred.all_groups:
                exec_bit = 0o010
            else:
                exec_bit = 0o001
            if not directory.mode & exec_bit:
                raise fs_error(Errno.EACCES,
                               f"uid {uid} denied on inode {directory.ino} "
                               f"(mode {oct(directory.mode)}, owner {directory.uid})")
        if name in (".", ""):
            return dir_vnode
        try:
            return self._inodes[directory.entries[name]].vnode
        except KeyError:
            raise fs_error(Errno.ENOENT,
                           f"no entry {name!r} in inode {directory.ino}") from None

    def fs_create(self, dir_vnode: Vnode, name: str, mode: int,
                  cred: Credentials) -> Vnode:
        clock = self.clock
        clock.charge("vfs_op")
        try:
            directory = self._inodes[dir_vnode.ino]
        except KeyError:
            raise fs_error(Errno.ENOENT, f"stale inode {dir_vnode.ino}") from None
        if directory.ftype is not FileType.DIRECTORY:
            raise fs_error(Errno.ENOTDIR, f"inode {directory.ino} is not a directory")
        if name in directory.entries:
            # POSIX reports an existing entry before parent write permission.
            raise fs_error(Errno.EEXIST, f"entry {name!r} already exists")
        self._check(directory, cred, write=True, exec_=True)
        self.bind_version += 1
        inode = self._new_inode(FileType.REGULAR, mode or DEFAULT_FILE_MODE,
                                cred.uid, cred.gid)
        directory.entries[name] = inode.ino
        directory.mtime = clock.ticks / TICKS_PER_SECOND
        clock.charge("fs_metadata_update")
        return inode.vnode

    def fs_mkdir(self, dir_vnode: Vnode, name: str, mode: int,
                 cred: Credentials) -> Vnode:
        clock = self.clock
        clock.charge("vfs_op")
        try:
            directory = self._inodes[dir_vnode.ino]
        except KeyError:
            raise fs_error(Errno.ENOENT, f"stale inode {dir_vnode.ino}") from None
        if directory.ftype is not FileType.DIRECTORY:
            raise fs_error(Errno.ENOTDIR, f"inode {directory.ino} is not a directory")
        if name in directory.entries:
            # POSIX reports an existing entry before parent write permission.
            raise fs_error(Errno.EEXIST, f"entry {name!r} already exists")
        self._check(directory, cred, write=True, exec_=True)
        self.dir_version += 1
        self.bind_version += 1
        inode = self._new_inode(FileType.DIRECTORY, mode or DEFAULT_DIR_MODE,
                                cred.uid, cred.gid)
        directory.entries[name] = inode.ino
        directory.mtime = clock.ticks / TICKS_PER_SECOND
        clock.charge("fs_metadata_update")
        return inode.vnode

    def fs_remove(self, dir_vnode: Vnode, name: str, cred: Credentials) -> None:
        clock = self.clock
        clock.charge("vfs_op")
        try:
            directory = self._inodes[dir_vnode.ino]
        except KeyError:
            raise fs_error(Errno.ENOENT, f"stale inode {dir_vnode.ino}") from None
        if directory.ftype is not FileType.DIRECTORY:
            raise fs_error(Errno.ENOTDIR, f"inode {directory.ino} is not a directory")
        self._check(directory, cred, write=True, exec_=True)
        if name not in directory.entries:
            raise fs_error(Errno.ENOENT, f"no entry {name!r}")
        inode = self.inode(directory.entries[name])
        if inode.ftype is FileType.DIRECTORY:
            raise fs_error(Errno.EISDIR, f"{name!r} is a directory")
        self.bind_version += 1
        del directory.entries[name]
        directory.mtime = clock.ticks / TICKS_PER_SECOND
        inode.nlink -= 1
        if inode.nlink <= 0:
            for block in inode.blocks:
                self.device.free_block(block)
            del self._inodes[inode.ino]
        clock.charge("fs_metadata_update")

    def fs_rmdir(self, dir_vnode: Vnode, name: str, cred: Credentials) -> None:
        self.clock.charge("vfs_op")
        directory = self._inode_of(dir_vnode)
        self._require_dir(directory)
        self._check(directory, cred, write=True, exec_=True)
        if name not in directory.entries:
            raise fs_error(Errno.ENOENT, f"no entry {name!r}")
        target = self.inode(directory.entries[name])
        self._require_dir(target)
        if target.entries:
            raise fs_error(Errno.ENOTEMPTY, f"directory {name!r} is not empty")
        self.dir_version += 1
        self.bind_version += 1
        del directory.entries[name]
        del self._inodes[target.ino]
        directory.mtime = self.clock.now()
        self.clock.charge("fs_metadata_update")

    def fs_rename(self, src_dir: Vnode, src_name: str, dst_dir: Vnode,
                  dst_name: str, cred: Credentials) -> None:
        self.clock.charge("vfs_op")
        source = self._inode_of(src_dir)
        destination = self._inode_of(dst_dir)
        self._require_dir(source)
        self._require_dir(destination)
        self._check(source, cred, write=True, exec_=True)
        self._check(destination, cred, write=True, exec_=True)
        if src_name not in source.entries:
            raise fs_error(Errno.ENOENT, f"no entry {src_name!r}")
        if dst_name in destination.entries:
            raise fs_error(Errno.EEXIST, f"entry {dst_name!r} already exists")
        if self.inode(source.entries[src_name]).ftype is FileType.DIRECTORY:
            self.dir_version += 1
        self.bind_version += 1
        destination.entries[dst_name] = source.entries.pop(src_name)
        source.mtime = self.clock.now()
        destination.mtime = self.clock.now()
        self.clock.charge("fs_metadata_update")

    def fs_readdir(self, dir_vnode: Vnode, cred: Credentials) -> list[str]:
        self.clock.charge("vfs_op")
        try:
            directory = self._inodes[dir_vnode.ino]
        except KeyError:
            raise fs_error(Errno.ENOENT, f"stale inode {dir_vnode.ino}") from None
        if directory.ftype is not FileType.DIRECTORY:
            raise fs_error(Errno.ENOTDIR, f"inode {directory.ino} is not a directory")
        self._check(directory, cred, read=True)
        return sorted(directory.entries)

    # ------------------------------------------------------------------ file ops --
    def fs_open(self, vnode: Vnode, flags: OpenFlags, cred: Credentials) -> OpenHandle:
        # open/close/readwrite/getattr sit on the per-operation data path:
        # their fixed charges are unrolled like ``fs_lookup``'s, one frame
        # fewer per syscall than a ``charge()`` call.
        clock = self.clock
        amount, meter = self._vfs
        clock.ticks += amount
        meter[0] += 1
        try:
            inode = self._inodes[vnode.ino]
        except KeyError:
            raise fs_error(Errno.ENOENT, f"stale inode {vnode.ino}") from None
        flag_bits = flags._value_
        wants_write = (flag_bits & WRITE_MASK) != 0
        if inode.ftype is FileType.DIRECTORY and wants_write:
            raise fs_error(Errno.EISDIR, f"inode {inode.ino} is a directory")
        self._check(inode, cred, read=(flag_bits & READ_MASK) != 0,
                    write=wants_write)
        if flag_bits & TRUNCATE_MASK:
            self._truncate(inode, 0)
        inode.atime = clock.ticks / TICKS_PER_SECOND
        return OpenHandle(vnode=vnode, flags=flags)

    def fs_close(self, handle: OpenHandle, cred: Credentials) -> None:
        amount, meter = self._vfs
        self.clock.ticks += amount
        meter[0] += 1
        # The native file system has no per-open state beyond the handle.

    def fs_readwrite(self, vnode: Vnode, offset: int, *, data: bytes | None = None,
                     length: int = 0, write: bool, cred: Credentials) -> bytes | int:
        clock = self.clock
        amount, meter = self._vfs
        clock.ticks += amount
        meter[0] += 1
        try:
            inode = self._inodes[vnode.ino]
        except KeyError:
            raise fs_error(Errno.ENOENT, f"stale inode {vnode.ino}") from None
        if inode.ftype is FileType.DIRECTORY:
            raise fs_error(Errno.EISDIR, f"inode {inode.ino} is a directory")
        if write:
            if data is None:
                raise fs_error(Errno.EINVAL, "write without data")
            # charge("disk_seek") then charge("disk_transfer_per_byte",
            # nbytes=...) written out; a zero-byte transfer charges one
            # unit, exactly as ``charge`` does.
            nbytes = len(data)
            unit, num2, den, den2, cell = self._transfer
            transfer = (nbytes * num2 + den) // den2 if nbytes else unit
            amount, meter = self._seek
            clock.ticks += amount + transfer
            meter[0] += 1
            cell[0] += 1
            cell[1] += transfer
            self._write_range(inode, offset, data)
            inode.mtime = clock.ticks / TICKS_PER_SECOND
            inode.ctime = inode.mtime
            return len(data)
        amount, meter = self._seek
        clock.ticks += amount
        meter[0] += 1
        content = self._read_range(inode, offset, length)
        nbytes = len(content)
        unit, num2, den, den2, cell = self._transfer
        transfer = (nbytes * num2 + den) // den2 if nbytes else unit
        clock.ticks += transfer
        cell[0] += 1
        cell[1] += transfer
        inode.atime = clock.ticks / TICKS_PER_SECOND
        return content

    def fs_getattr(self, vnode: Vnode, cred: Credentials):
        amount, meter = self._vfs
        self.clock.ticks += amount
        meter[0] += 1
        try:
            return self._inodes[vnode.ino].attributes()
        except KeyError:
            raise fs_error(Errno.ENOENT, f"stale inode {vnode.ino}") from None

    def fs_setattr(self, vnode: Vnode, cred: Credentials, **attrs):
        """Change inode metadata: mode, uid, gid, size (truncate), mtime, atime.

        Only the owner or the superuser may change mode/ownership, matching
        the checks DataLinks relies on when it "takes over" a file.

        The two charges stay *separate* (not folded into one batch): the
        clock is read between them to stamp ``ctime``, so merging them
        would shift the stamped timestamp.
        """

        clock = self.clock
        clock.charge("vfs_op")
        try:
            inode = self._inodes[vnode.ino]
        except KeyError:
            raise fs_error(Errno.ENOENT, f"stale inode {vnode.ino}") from None
        changing_identity = ("mode" in attrs or "uid" in attrs or "gid" in attrs)
        if changing_identity and not (cred.is_superuser or cred.uid == inode.uid):
            raise fs_error(Errno.EPERM,
                           f"uid {cred.uid} may not change attributes of inode {inode.ino}")
        identity = (inode.mode, inode.uid, inode.gid)
        if "size" in attrs:
            self._check(inode, cred, write=True)
            self._truncate(inode, int(attrs["size"]))
        if "mode" in attrs:
            inode.mode = int(attrs["mode"])
        if "uid" in attrs:
            inode.uid = int(attrs["uid"])
        if "gid" in attrs:
            inode.gid = int(attrs["gid"])
        if (inode.ftype is FileType.DIRECTORY
                and identity != (inode.mode, inode.uid, inode.gid)):
            # A walk only permission-checks (and resolves through)
            # directories: a file's chmod/chown, or a no-op one, keeps it valid.
            self.dir_version += 1
        if "mtime" in attrs:
            inode.mtime = float(attrs["mtime"])
        if "atime" in attrs:
            inode.atime = float(attrs["atime"])
        inode.ctime = clock.ticks / TICKS_PER_SECOND
        clock.charge("fs_metadata_update")
        return inode.attributes()

    def fs_lockctl(self, vnode: Vnode, request: LockRequest, cred: Credentials) -> bool:
        self.clock.charge("vfs_op")
        return self.locks.apply(vnode.ino, request)

    # ------------------------------------------------------------- block helpers --
    def _read_range(self, inode: Inode, offset: int, length: int) -> bytes:
        size = inode.size
        if offset >= size:
            return b""
        end = size if length <= 0 or offset + length > size else offset + length
        block_size = self.device.block_size
        self.device.touch_blocks(inode.blocks[
            offset // block_size: (end + block_size - 1) // block_size])
        # A whole-file read is the stored object itself, not a copy.
        return inode.content[offset:end]

    def _write_range(self, inode: Inode, offset: int, data: bytes) -> None:
        device = self.device
        block_size = device.block_size
        content = inode.content
        end = offset + len(data)
        high = end if end > len(content) else len(content)
        needed_blocks = (high + block_size - 1) // block_size
        while len(inode.blocks) < needed_blocks:
            inode.blocks.append(device.allocate_block())
        if data:
            device.touch_blocks(inode.blocks[
                offset // block_size: (end + block_size - 1) // block_size],
                write=True)
        if offset == 0 and end == high:
            # The write covers the file: adopt the caller's ``bytes`` (a
            # mutable buffer is copied here, once, so nobody aliases a file).
            inode.content = bytes(data)
        else:
            # A gap between the old end of file and *offset* reads as zeros.
            inode.content = b"".join((content[:offset].ljust(offset, b"\0"),
                                      data, content[end:]))
        inode.size = high

    def _truncate(self, inode: Inode, size: int) -> None:
        block_size = self.device.block_size
        needed_blocks = (size + block_size - 1) // block_size
        for block_no in inode.blocks[needed_blocks:]:
            self.device.free_block(block_no)
        del inode.blocks[needed_blocks:]
        while len(inode.blocks) < needed_blocks:
            inode.blocks.append(self.device.allocate_block())
        # Cut bytes are gone for good: growing again pads with zeros.
        inode.content = inode.content[:size].ljust(size, b"\0")
        inode.size = size
        inode.mtime = self.clock.now()

    # ------------------------------------------------------------------- utility --
    def read_whole_file(self, ino: int) -> bytes:
        """Read a file's full contents directly (archive/version helpers)."""

        inode = self.inode(ino)
        return self._read_range(inode, 0, inode.size)

    def write_whole_file(self, ino: int, data: bytes) -> None:
        """Replace a file's contents directly (restore helpers)."""

        inode = self.inode(ino)
        self._truncate(inode, 0)
        self._write_range(inode, 0, data)
