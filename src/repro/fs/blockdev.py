"""A simulated block device: block allocation and I/O accounting.

The device hands out and takes back fixed-size block numbers (capacity,
``ENOSPC``, reuse) and counts the blocks every request touches.  It holds no
payload -- a file's bytes live once, on its inode
(:attr:`repro.fs.inode.Inode.content`) -- and charges no simulated time: the
physical file system charges one seek per request plus a per-byte transfer
cost, which avoids double counting and matches the sequential-transfer
assumption behind the paper's "10 ms per megabyte" era hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import Errno, fs_error

DEFAULT_BLOCK_SIZE = 4096


@dataclass
class BlockDeviceStats:
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    allocations: int = 0
    frees: int = 0


@dataclass
class BlockDevice:
    """Fixed-size-block allocation and per-block I/O counters."""

    name: str = "disk0"
    block_size: int = DEFAULT_BLOCK_SIZE
    capacity_blocks: int = 1 << 20          # 4 GiB with the default block size
    _allocated: set = field(default_factory=set, repr=False)
    _next_block: int = 1
    _free_list: list = field(default_factory=list, repr=False)
    stats: BlockDeviceStats = field(default_factory=BlockDeviceStats)

    # -- allocation -------------------------------------------------------------
    def allocate_block(self) -> int:
        """Allocate a block and return its number."""

        if self._free_list:
            block_no = self._free_list.pop()
        else:
            if self._next_block > self.capacity_blocks:
                raise fs_error(Errno.ENOSPC, f"device {self.name} is full")
            block_no = self._next_block
            self._next_block += 1
        self._allocated.add(block_no)
        self.stats.allocations += 1
        return block_no

    def free_block(self, block_no: int) -> None:
        if block_no in self._allocated:
            self._allocated.remove(block_no)
            self._free_list.append(block_no)
            self.stats.frees += 1

    # -- I/O ----------------------------------------------------------------------
    def touch_blocks(self, block_nos: list[int], *, write: bool = False) -> None:
        """Count one request over *block_nos*, block by block.

        A write is a read-modify-write of every block it touches, so it moves
        the read counters too; an unallocated block fails the request uncounted.
        """

        if not self._allocated.issuperset(block_nos):
            bad = next(b for b in block_nos if b not in self._allocated)
            raise fs_error(Errno.EINVAL, f"device {self.name}: bad block {bad}")
        count = len(block_nos)
        stats = self.stats
        stats.reads += count
        stats.bytes_read += count * self.block_size
        if write:
            stats.writes += count
            stats.bytes_written += count * self.block_size

    @property
    def allocated_blocks(self) -> int:
        return len(self._allocated)
