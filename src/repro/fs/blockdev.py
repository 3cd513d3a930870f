"""A simulated block device.

The device stores fixed-size blocks in memory and keeps I/O statistics.  It
does not charge simulated time itself -- the physical file system charges one
seek per request plus a per-byte transfer cost, which avoids double counting
and matches the sequential-transfer assumption behind the paper's "10 ms per
megabyte" era hardware.
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
    """Fixed-size-block storage with allocation tracking."""

    name: str = "disk0"
    block_size: int = DEFAULT_BLOCK_SIZE
    capacity_blocks: int = 1 << 20          # 4 GiB with the default block size
    _blocks: dict = field(default_factory=dict, repr=False)
    _next_block: int = 1
    _free_list: list = field(default_factory=list, repr=False)
    stats: BlockDeviceStats = field(default_factory=BlockDeviceStats)

    # -- allocation -------------------------------------------------------------
    def allocate_block(self) -> int:
        """Allocate a zero-filled block and return its number."""

        if self._free_list:
            block_no = self._free_list.pop()
        else:
            if self._next_block > self.capacity_blocks:
                raise fs_error(Errno.ENOSPC, f"device {self.name} is full")
            block_no = self._next_block
            self._next_block += 1
        self._blocks[block_no] = bytes(self.block_size)
        self.stats.allocations += 1
        return block_no

    def free_block(self, block_no: int) -> None:
        if block_no in self._blocks:
            del self._blocks[block_no]
            self._free_list.append(block_no)
            self.stats.frees += 1

    # -- I/O ----------------------------------------------------------------------
    def read_block(self, block_no: int) -> bytes:
        try:
            data = self._blocks[block_no]
        except KeyError:
            raise fs_error(Errno.EINVAL, f"device {self.name}: bad block {block_no}") from None
        self.stats.reads += 1
        self.stats.bytes_read += self.block_size
        return data

    def read_blocks(self, block_nos: list[int]) -> list[bytes]:
        """The blocks of one request, in order -- counted block by block."""

        try:
            data = list(map(self._blocks.__getitem__, block_nos))
        except KeyError as error:
            raise fs_error(Errno.EINVAL,
                           f"device {self.name}: bad block {error.args[0]}") from None
        count = len(data)
        self.stats.reads += count
        self.stats.bytes_read += count * self.block_size
        return data

    def write_block(self, block_no: int, data: bytes) -> None:
        if block_no not in self._blocks:
            raise fs_error(Errno.EINVAL, f"device {self.name}: bad block {block_no}")
        if len(data) > self.block_size:
            raise fs_error(Errno.EINVAL, "write larger than block size")
        if len(data) < self.block_size:
            data = data + bytes(self.block_size - len(data))
        self._blocks[block_no] = bytes(data)
        self.stats.writes += 1
        self.stats.bytes_written += self.block_size

    @property
    def allocated_blocks(self) -> int:
        return len(self._blocks)
