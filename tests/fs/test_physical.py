"""Unit tests for the physical (native) file system VFS implementation."""

import pytest

from repro.errors import Errno, FileSystemError
from repro.fs.physical import PhysicalFileSystem
from repro.fs.vfs import Credentials, LockKind, LockRequest, OpenFlags
from repro.simclock import SimClock


@pytest.fixture
def pfs():
    return PhysicalFileSystem("pfs0", clock=SimClock())


@pytest.fixture
def root():
    return Credentials(uid=0, gid=0, username="root")


@pytest.fixture
def user():
    return Credentials(uid=500, gid=100, username="user")


def _create_file(pfs, cred, name="f.txt", content=b""):
    vnode = pfs.fs_create(pfs.root_vnode(), name, 0o644, cred)
    if content:
        pfs.fs_readwrite(vnode, 0, data=content, write=True, cred=cred)
    return vnode


class TestNamespace:
    def test_create_and_lookup(self, pfs, root):
        created = _create_file(pfs, root)
        found = pfs.fs_lookup(pfs.root_vnode(), "f.txt", root)
        assert found == created

    def test_lookup_missing_entry(self, pfs, root):
        with pytest.raises(FileSystemError) as info:
            pfs.fs_lookup(pfs.root_vnode(), "nope", root)
        assert info.value.errno is Errno.ENOENT

    def test_create_duplicate_rejected(self, pfs, root):
        _create_file(pfs, root)
        with pytest.raises(FileSystemError) as info:
            pfs.fs_create(pfs.root_vnode(), "f.txt", 0o644, root)
        assert info.value.errno is Errno.EEXIST

    def test_mkdir_and_lookup(self, pfs, root):
        sub = pfs.fs_mkdir(pfs.root_vnode(), "sub", 0o755, root)
        created = _create_file(pfs, root, "a.txt")
        assert pfs.fs_lookup(pfs.root_vnode(), "sub", root) == sub
        assert pfs.fs_getattr(sub, root).is_directory
        assert pfs.fs_lookup(pfs.root_vnode(), "a.txt", root) == created

    def test_remove_frees_inode_and_blocks(self, pfs, root):
        vnode = _create_file(pfs, root, content=b"x" * 10000)
        allocated = pfs.device.allocated_blocks
        assert allocated > 0
        pfs.fs_remove(pfs.root_vnode(), "f.txt", root)
        assert pfs.device.allocated_blocks < allocated
        with pytest.raises(FileSystemError):
            pfs.fs_getattr(vnode, root)

    def test_remove_directory_with_remove_rejected(self, pfs, root):
        pfs.fs_mkdir(pfs.root_vnode(), "sub", 0o755, root)
        with pytest.raises(FileSystemError) as info:
            pfs.fs_remove(pfs.root_vnode(), "sub", root)
        assert info.value.errno is Errno.EISDIR

    def test_rename_moves_entry(self, pfs, root):
        moved = _create_file(pfs, root, "old.txt", b"data")
        sub = pfs.fs_mkdir(pfs.root_vnode(), "sub", 0o755, root)
        pfs.fs_rename(pfs.root_vnode(), "old.txt", sub, "new.txt", root)
        assert pfs.fs_lookup(sub, "new.txt", root) == moved
        with pytest.raises(FileSystemError):
            pfs.fs_lookup(pfs.root_vnode(), "old.txt", root)

    def test_rename_onto_existing_name_rejected(self, pfs, root):
        _create_file(pfs, root, "a.txt")
        _create_file(pfs, root, "b.txt")
        with pytest.raises(FileSystemError) as info:
            pfs.fs_rename(pfs.root_vnode(), "a.txt", pfs.root_vnode(), "b.txt", root)
        assert info.value.errno is Errno.EEXIST


class TestDataPath:
    def test_write_then_read_back(self, pfs, root):
        vnode = _create_file(pfs, root, content=b"hello world")
        data = pfs.fs_readwrite(vnode, 0, length=0, write=False, cred=root)
        assert data == b"hello world"

    def test_partial_reads_and_offsets(self, pfs, root):
        vnode = _create_file(pfs, root, content=b"0123456789")
        assert pfs.fs_readwrite(vnode, 2, length=3, write=False, cred=root) == b"234"
        assert pfs.fs_readwrite(vnode, 8, length=10, write=False, cred=root) == b"89"
        assert pfs.fs_readwrite(vnode, 50, length=3, write=False, cred=root) == b""

    def test_write_spanning_multiple_blocks(self, pfs, root):
        content = bytes(range(256)) * 64          # 16 KiB > several 4 KiB blocks
        vnode = _create_file(pfs, root, content=content)
        assert pfs.fs_readwrite(vnode, 0, write=False, cred=root) == content

    def test_overwrite_in_the_middle(self, pfs, root):
        vnode = _create_file(pfs, root, content=b"aaaaaaaaaa")
        pfs.fs_readwrite(vnode, 3, data=b"BBB", write=True, cred=root)
        assert pfs.fs_readwrite(vnode, 0, write=False, cred=root) == b"aaaBBBaaaa"

    def test_write_updates_size_and_mtime(self, pfs, root):
        vnode = _create_file(pfs, root)
        before = pfs.fs_getattr(vnode, root)
        pfs.fs_readwrite(vnode, 0, data=b"xyz", write=True, cred=root)
        after = pfs.fs_getattr(vnode, root)
        assert after.size == 3
        assert after.mtime >= before.mtime

    def test_truncate_via_setattr(self, pfs, root):
        vnode = _create_file(pfs, root, content=b"x" * 9000)
        pfs.fs_setattr(vnode, root, size=100)
        assert pfs.fs_getattr(vnode, root).size == 100
        assert len(pfs.fs_readwrite(vnode, 0, write=False, cred=root)) == 100

    def test_open_with_truncate_flag_empties_file(self, pfs, root):
        vnode = _create_file(pfs, root, content=b"old content")
        pfs.fs_open(vnode, OpenFlags.WRITE | OpenFlags.TRUNCATE, root)
        assert pfs.fs_getattr(vnode, root).size == 0


def _truncate(vfs, path, size, cred):
    vnode = vfs.fs_lookup(vfs.root_vnode(), path.lstrip("/"), cred)
    vfs.fs_setattr(vnode, cred, size=size)


@pytest.fixture(params=["physical", "dlfs"])
def truncating_stack(request, fs_stack):
    """The layer a truncate's ``fs_setattr`` goes to, and the LFS over it:
    the native file system itself, or a file server's DLFS, which passes
    ``fs_setattr`` through to the native file system below it."""

    if request.param == "physical":
        return fs_stack
    from repro.api.system import DataLinksSystem

    system = DataLinksSystem()
    system.add_file_server("fs1")
    server = system.file_server("fs1")
    return server.dlfs, server.lfs


class TestTruncatedBytesStayGone:
    """Bytes cut off by a truncate never come back: growing the file again,
    or writing past the cut, reads zeros there (POSIX), also inside the
    block the cut fell in."""

    def test_shrink_then_grow_reads_zeros(self, truncating_stack, root):
        vfs, lfs = truncating_stack
        lfs.write_file("/f", b"A" * 100, root)
        _truncate(vfs, "/f", 10, root)
        _truncate(vfs, "/f", 50, root)
        assert lfs.read_file("/f", root) == b"A" * 10 + bytes(40)

    def test_shrink_then_write_past_the_cut_reads_zeros(self, truncating_stack,
                                                        root):
        vfs, lfs = truncating_stack
        lfs.write_file("/g", b"B" * 100, root)
        _truncate(vfs, "/g", 10, root)
        fd = lfs.open("/g", OpenFlags.WRITE, root)
        lfs.lseek(fd, 40)
        lfs.write(fd, b"ZZ")
        lfs.close(fd)
        assert lfs.read_file("/g", root) == b"B" * 10 + bytes(30) + b"ZZ"


class TestPermissions:
    def test_open_denied_without_permission(self, pfs, root, user):
        vnode = _create_file(pfs, root, content=b"secret")
        pfs.fs_setattr(vnode, root, mode=0o600)
        with pytest.raises(FileSystemError) as info:
            pfs.fs_open(vnode, OpenFlags.READ, user)
        assert info.value.errno is Errno.EACCES

    def test_write_open_denied_on_read_only_file(self, pfs, root, user):
        vnode = _create_file(pfs, root)
        pfs.fs_setattr(vnode, root, uid=user.uid, gid=user.gid)
        pfs.fs_setattr(vnode, user, mode=0o444)
        with pytest.raises(FileSystemError):
            pfs.fs_open(vnode, OpenFlags.WRITE, user)

    def test_only_owner_or_root_may_chown_chmod(self, pfs, root, user):
        vnode = _create_file(pfs, root)
        with pytest.raises(FileSystemError) as info:
            pfs.fs_setattr(vnode, user, mode=0o777)
        assert info.value.errno is Errno.EPERM
        pfs.fs_setattr(vnode, root, uid=user.uid, gid=user.gid)
        pfs.fs_setattr(vnode, user, mode=0o640)    # owner may now chmod
        assert pfs.fs_getattr(vnode, root).mode == 0o640

    def test_directory_write_permission_needed_to_create(self, pfs, root, user):
        sub = pfs.fs_mkdir(pfs.root_vnode(), "locked", 0o755, root)
        with pytest.raises(FileSystemError):
            pfs.fs_create(sub, "f.txt", 0o644, user)


class TestFileLocks:
    def test_exclusive_lock_conflicts(self, pfs, root):
        vnode = _create_file(pfs, root)
        assert pfs.fs_lockctl(vnode, LockRequest(LockKind.EXCLUSIVE, owner="a"), root)
        with pytest.raises(FileSystemError) as info:
            pfs.fs_lockctl(vnode, LockRequest(LockKind.EXCLUSIVE, owner="b"), root)
        assert info.value.errno is Errno.EAGAIN

    def test_shared_locks_coexist_and_block_exclusive(self, pfs, root):
        vnode = _create_file(pfs, root)
        pfs.fs_lockctl(vnode, LockRequest(LockKind.SHARED, owner="a"), root)
        pfs.fs_lockctl(vnode, LockRequest(LockKind.SHARED, owner="b"), root)
        with pytest.raises(FileSystemError):
            pfs.fs_lockctl(vnode, LockRequest(LockKind.EXCLUSIVE, owner="c"), root)

    def test_unlock_releases(self, pfs, root):
        vnode = _create_file(pfs, root)
        pfs.fs_lockctl(vnode, LockRequest(LockKind.EXCLUSIVE, owner="a"), root)
        pfs.fs_lockctl(vnode, LockRequest(LockKind.UNLOCK, owner="a"), root)
        assert pfs.fs_lockctl(vnode, LockRequest(LockKind.EXCLUSIVE, owner="b"), root)
