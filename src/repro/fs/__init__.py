"""A simulated UNIX file system stack.

The stack mirrors the architecture the paper assumes on AIX:

* a :class:`~repro.fs.blockdev.BlockDevice` (the disk);
* a :class:`~repro.fs.physical.PhysicalFileSystem` (JFS/UFS stand-in) that
  implements the VFS entry points over inodes and blocks;
* on a file server, DLFS over it: a filter that holds the physical file
  system as ``lower`` and intercepts open, close, remove and rename;
* a :class:`~repro.fs.logical.LogicalFileSystem` (LFS) that resolves paths,
  manages file descriptors and exposes the system-call API applications use.

The entry points (``root_vnode``, ``fs_lookup``, ``fs_create``,
``fs_mkdir``, ``fs_remove``, ``fs_rename``, ``fs_open``, ``fs_close``,
``fs_readwrite``, ``fs_getattr``, ``fs_setattr``, ``fs_lockctl`` and
``walk_profile``) are listed with their signatures in :mod:`repro.fs.vfs`;
there is no abstract base class.

Crucially, ``open()`` is decoupled into ``fs_lookup`` followed by ``fs_open``
exactly as described in Section 4.1 of the paper, because that decoupling is
what makes DataLinks token handling non-trivial.
"""

from repro.fs.inode import FileAttributes
from repro.fs.vfs import Credentials, OpenFlags, Vnode
from repro.fs.blockdev import BlockDevice
from repro.fs.physical import PhysicalFileSystem
from repro.fs.logical import LogicalFileSystem

__all__ = [
    "Credentials",
    "OpenFlags",
    "FileAttributes",
    "Vnode",
    "BlockDevice",
    "PhysicalFileSystem",
    "LogicalFileSystem",
]
