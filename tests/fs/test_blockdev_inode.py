"""Unit tests for the block device and inode permission helpers."""

import pytest

from repro.errors import Errno, FileSystemError
from repro.fs.blockdev import BlockDevice
from repro.fs.inode import FileType, Inode, permission_granted


class TestBlockDevice:
    """The device allocates and counts; a file's bytes live on its inode."""

    def test_allocation_hands_out_distinct_counted_blocks(self):
        device = BlockDevice(block_size=16)
        blocks = [device.allocate_block() for _ in range(3)]
        assert len(set(blocks)) == 3
        assert device.allocated_blocks == 3
        assert device.stats.allocations == 3
        assert device.stats.reads == device.stats.writes == 0

    def test_a_read_touch_counts_every_block_of_the_span(self):
        device = BlockDevice(block_size=8)
        blocks = [device.allocate_block() for _ in range(3)]
        device.touch_blocks(blocks)
        device.touch_blocks(blocks[1:2])
        device.touch_blocks([])
        assert (device.stats.reads, device.stats.bytes_read) == (4, 32)
        assert (device.stats.writes, device.stats.bytes_written) == (0, 0)

    def test_a_write_touch_is_a_read_modify_write_of_each_block(self):
        device = BlockDevice(block_size=4)
        blocks = [device.allocate_block() for _ in range(2)]
        device.touch_blocks(blocks, write=True)
        assert (device.stats.writes, device.stats.bytes_written) == (2, 8)
        assert (device.stats.reads, device.stats.bytes_read) == (2, 8)

    def test_bad_block_number_rejected(self):
        device = BlockDevice()
        good = device.allocate_block()
        for write in (False, True):
            with pytest.raises(FileSystemError) as info:
                device.touch_blocks([good, 999], write=write)
            assert info.value.errno is Errno.EINVAL
            assert "bad block 999" in str(info.value)
        assert device.stats.reads == device.stats.writes == 0

    def test_free_block_is_reused(self):
        device = BlockDevice()
        block = device.allocate_block()
        device.free_block(block)
        assert device.allocate_block() == block

    def test_a_freed_block_is_bad_until_reallocated_and_frees_once(self):
        device = BlockDevice()
        block = device.allocate_block()
        device.free_block(block)
        device.free_block(block)            # already free: ignored
        device.free_block(4242)             # never allocated: ignored
        assert device.stats.frees == 1 and device.allocated_blocks == 0
        with pytest.raises(FileSystemError):
            device.touch_blocks([block])

    def test_capacity_enforced(self):
        device = BlockDevice(capacity_blocks=2)
        first = device.allocate_block()
        device.allocate_block()
        with pytest.raises(FileSystemError) as info:
            device.allocate_block()
        assert info.value.errno is Errno.ENOSPC
        assert device.stats.allocations == 2
        device.free_block(first)            # room again
        assert device.allocate_block() == first


class TestPermissionCheck:
    def test_owner_uses_owner_bits(self):
        assert permission_granted(0o600, 10, 20, 10, (20,), True, True)
        assert not permission_granted(0o600, 10, 20, 10, (20,), False, False, want_exec=True)

    def test_group_uses_group_bits(self):
        assert permission_granted(0o640, 10, 20, 11, (20,), True, False)
        assert not permission_granted(0o640, 10, 20, 11, (20,), False, True)

    def test_other_uses_other_bits(self):
        assert permission_granted(0o604, 10, 20, 99, (77,), True, False)
        assert not permission_granted(0o600, 10, 20, 99, (77,), True, False)

    def test_superuser_bypasses_checks(self):
        assert permission_granted(0o000, 10, 20, 0, (), True, True, True)

    def test_inode_attribute_snapshot(self):
        inode = Inode(ino=5, ftype=FileType.REGULAR, mode=0o644, uid=1, gid=2, size=10)
        attrs = inode.attributes()
        assert attrs.ino == 5 and attrs.size == 10 and attrs.is_regular
        inode.size = 99
        assert attrs.size == 10    # snapshot is immutable
