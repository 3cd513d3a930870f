"""Unit tests for the logical file system (paths, descriptors, syscalls)."""

import pytest

from repro.api.system import DataLinksSystem
from repro.errors import Errno, FileSystemError
from repro.fs.physical import PhysicalFileSystem
from repro.fs.vfs import FilterVFS, OpenFlags


class TestOpenReadWriteClose:
    def test_create_write_read_roundtrip(self, fs_stack, root_cred):
        _, lfs = fs_stack
        fd = lfs.open("/notes.txt", OpenFlags.WRITE | OpenFlags.CREATE, root_cred)
        assert lfs.write(fd, b"hello ") == 6
        assert lfs.write(fd, b"world") == 5
        lfs.close(fd)
        assert lfs.read_file("/notes.txt", root_cred) == b"hello world"

    def test_open_missing_file_without_create(self, fs_stack, root_cred):
        _, lfs = fs_stack
        with pytest.raises(FileSystemError) as info:
            lfs.open("/missing.txt", OpenFlags.READ, root_cred)
        assert info.value.errno is Errno.ENOENT

    def test_read_requires_read_flag(self, fs_stack, root_cred):
        _, lfs = fs_stack
        fd = lfs.open("/w.txt", OpenFlags.WRITE | OpenFlags.CREATE, root_cred)
        with pytest.raises(FileSystemError) as info:
            lfs.read(fd)
        assert info.value.errno is Errno.EBADF
        lfs.close(fd)

    def test_write_requires_write_flag(self, fs_stack, root_cred):
        _, lfs = fs_stack
        lfs.write_file("/r.txt", b"data", root_cred)
        fd = lfs.open("/r.txt", OpenFlags.READ, root_cred)
        with pytest.raises(FileSystemError):
            lfs.write(fd, b"nope")
        lfs.close(fd)

    def test_offset_advances_and_lseek_resets(self, fs_stack, root_cred):
        _, lfs = fs_stack
        lfs.write_file("/seek.txt", b"0123456789", root_cred)
        fd = lfs.open("/seek.txt", OpenFlags.READ, root_cred)
        assert lfs.read(fd, 4) == b"0123"
        assert lfs.read(fd, 4) == b"4567"
        lfs.lseek(fd, 1)
        assert lfs.read(fd, 3) == b"123"
        lfs.close(fd)

    def test_append_flag_writes_at_end(self, fs_stack, root_cred):
        _, lfs = fs_stack
        lfs.write_file("/log.txt", b"line1\n", root_cred)
        fd = lfs.open("/log.txt", OpenFlags.WRITE | OpenFlags.APPEND, root_cred)
        lfs.write(fd, b"line2\n")
        lfs.close(fd)
        assert lfs.read_file("/log.txt", root_cred) == b"line1\nline2\n"

    def test_truncate_flag_discards_old_content(self, fs_stack, root_cred):
        _, lfs = fs_stack
        lfs.write_file("/t.txt", b"old old old", root_cred)
        lfs.write_file("/t.txt", b"new", root_cred)
        assert lfs.read_file("/t.txt", root_cred) == b"new"

    def test_bad_descriptor_rejected(self, fs_stack):
        _, lfs = fs_stack
        with pytest.raises(FileSystemError) as info:
            lfs.read(1234)
        assert info.value.errno is Errno.EBADF

    def test_close_releases_descriptor(self, fs_stack, root_cred):
        _, lfs = fs_stack
        fd = lfs.open("/x.txt", OpenFlags.WRITE | OpenFlags.CREATE, root_cred)
        lfs.close(fd)
        with pytest.raises(FileSystemError):
            lfs.close(fd)
        assert lfs.open_descriptors() == []


class TestNamespaceSyscalls:
    def test_makedirs_and_listdir(self, fs_stack, root_cred):
        _, lfs = fs_stack
        lfs.makedirs("/a/b/c", root_cred)
        lfs.write_file("/a/b/c/file.txt", b"x", root_cred)
        assert lfs.listdir("/a/b", root_cred) == ["c"]
        assert lfs.listdir("/a/b/c", root_cred) == ["file.txt"]

    def test_makedirs_tolerates_existing_prefix(self, fs_stack, root_cred):
        _, lfs = fs_stack
        lfs.makedirs("/a/b", root_cred)
        lfs.makedirs("/a/b/c", root_cred)
        assert lfs.exists("/a/b/c", root_cred)

    def test_stat_and_exists(self, fs_stack, root_cred):
        _, lfs = fs_stack
        lfs.write_file("/s.txt", b"abc", root_cred)
        assert lfs.stat("/s.txt", root_cred).size == 3
        assert lfs.exists("/s.txt", root_cred)
        assert not lfs.exists("/missing", root_cred)

    def test_unlink_and_rename(self, fs_stack, root_cred):
        _, lfs = fs_stack
        lfs.write_file("/old.txt", b"x", root_cred)
        lfs.rename("/old.txt", "/new.txt", root_cred)
        assert lfs.exists("/new.txt", root_cred)
        lfs.unlink("/new.txt", root_cred)
        assert not lfs.exists("/new.txt", root_cred)

    def test_chmod_chown_truncate(self, fs_stack, root_cred, alice_cred):
        _, lfs = fs_stack
        lfs.write_file("/perm.txt", b"payload", root_cred)
        lfs.chown("/perm.txt", alice_cred.uid, alice_cred.gid, root_cred)
        lfs.chmod("/perm.txt", 0o600, alice_cred)
        attrs = lfs.stat("/perm.txt", root_cred)
        assert attrs.uid == alice_cred.uid and attrs.mode == 0o600
        lfs.truncate("/perm.txt", 2, alice_cred)
        assert lfs.stat("/perm.txt", root_cred).size == 2

    def test_relative_path_rejected(self, fs_stack, root_cred):
        _, lfs = fs_stack
        with pytest.raises(FileSystemError) as info:
            lfs.open("relative.txt", OpenFlags.READ, root_cred)
        assert info.value.errno is Errno.EINVAL

    def test_permission_denied_propagates(self, fs_stack, root_cred, alice_cred):
        _, lfs = fs_stack
        lfs.write_file("/private.txt", b"secret", root_cred)
        lfs.chmod("/private.txt", 0o600, root_cred)
        with pytest.raises(FileSystemError) as info:
            lfs.read_file("/private.txt", alice_cred)
        assert info.value.errno is Errno.EACCES

    def test_file_locking_via_descriptor(self, fs_stack, root_cred, alice_cred):
        _, lfs = fs_stack
        lfs.write_file("/locked.txt", b"x", root_cred)
        lfs.chmod("/locked.txt", 0o666, root_cred)
        fd1 = lfs.open("/locked.txt", OpenFlags.WRITE, root_cred)
        fd2 = lfs.open("/locked.txt", OpenFlags.WRITE, alice_cred)
        assert lfs.lock_file(fd1, exclusive=True)
        with pytest.raises(FileSystemError):
            lfs.lock_file(fd2, exclusive=True)
        lfs.unlock_file(fd1)
        assert lfs.lock_file(fd2, exclusive=True)
        lfs.close(fd1)
        lfs.close(fd2)


class TestMountsAndStacking:
    def test_mount_at_subdirectory(self, clock, root_cred):
        from repro.fs.logical import LogicalFileSystem

        root_fs = PhysicalFileSystem("rootfs", clock=clock)
        data_fs = PhysicalFileSystem("datafs", clock=clock)
        lfs = LogicalFileSystem(clock=clock)
        lfs.mount("/", root_fs)
        lfs.mount("/data", data_fs)
        lfs.write_file("/data/d.txt", b"on data fs", root_cred)
        lfs.write_file("/r.txt", b"on root fs", root_cred)
        assert data_fs.inode(2) is not None          # file landed on datafs
        assert lfs.read_file("/data/d.txt", root_cred) == b"on data fs"

    def test_rename_across_mounts_rejected(self, clock, root_cred):
        from repro.fs.logical import LogicalFileSystem

        lfs = LogicalFileSystem(clock=clock)
        lfs.mount("/", PhysicalFileSystem("rootfs", clock=clock))
        lfs.mount("/data", PhysicalFileSystem("datafs", clock=clock))
        lfs.write_file("/a.txt", b"x", root_cred)
        with pytest.raises(FileSystemError) as info:
            lfs.rename("/a.txt", "/data/a.txt", root_cred)
        assert info.value.errno is Errno.EXDEV

    def test_filter_vfs_is_transparent(self, clock, root_cred):
        from repro.fs.logical import LogicalFileSystem

        physical = PhysicalFileSystem("pfs", clock=clock)
        stacked = FilterVFS(physical)
        lfs = LogicalFileSystem(clock=clock)
        lfs.mount("/", stacked)
        lfs.makedirs("/d", root_cred)
        lfs.write_file("/d/f.txt", b"through the filter", root_cred)
        assert lfs.read_file("/d/f.txt", root_cred) == b"through the filter"
        assert lfs.stat("/d/f.txt", root_cred).size == 18
        lfs.rename("/d/f.txt", "/d/g.txt", root_cred)
        lfs.unlink("/d/g.txt", root_cred)
        assert lfs.listdir("/d", root_cred) == []


class TestDirectoryIdentityInvalidation:
    """``dir_version`` drops cached walks only when a directory's owner or
    mode really changes -- naming the value it already has is not a change."""

    def test_repeated_put_file_into_a_directory_keeps_dir_version(self):
        system = DataLinksSystem()
        system.add_file_server("fs1")
        alice = system.session("alice", uid=1001)
        alice.put_file("fs1", "/library/first.dat", b"one")
        physical = system.file_server("fs1").physical
        version = physical.dir_version
        for index in range(5):
            alice.put_file("fs1", f"/library/doc{index}.dat", b"more")
        assert physical.dir_version == version

    def test_a_noop_chown_or_chmod_of_a_directory_is_not_a_change(
            self, fs_stack, root_cred, alice_cred):
        physical, lfs = fs_stack
        lfs.makedirs("/d", root_cred)
        lfs.chown("/d", alice_cred.uid, alice_cred.gid, root_cred)
        lfs.chmod("/d", 0o750, root_cred)
        version = physical.dir_version
        lfs.chown("/d", alice_cred.uid, alice_cred.gid, root_cred)
        lfs.chmod("/d", 0o750, root_cred)
        assert physical.dir_version == version

    @pytest.mark.parametrize("change", ["chmod", "chown"])
    def test_a_real_change_bumps_it_and_the_next_open_sees_it(
            self, fs_stack, root_cred, alice_cred, bob_cred, change):
        physical, lfs = fs_stack
        lfs.makedirs("/d", root_cred)
        lfs.chown("/d", alice_cred.uid, alice_cred.gid, root_cred)
        lfs.chmod("/d", 0o700, root_cred)
        lfs.write_file("/d/f.txt", b"mine", alice_cred)
        # Twice: the second open is served from the resolution caches.
        assert lfs.read_file("/d/f.txt", alice_cred) == b"mine"
        assert lfs.read_file("/d/f.txt", alice_cred) == b"mine"
        version = physical.dir_version
        if change == "chmod":
            lfs.chmod("/d", 0o000, root_cred)
        else:
            lfs.chown("/d", bob_cred.uid, bob_cred.gid, root_cred)
        assert physical.dir_version > version
        with pytest.raises(FileSystemError) as info:
            lfs.read_file("/d/f.txt", alice_cred)
        assert info.value.errno is Errno.EACCES


class TestCachesHoldNoTokens:
    """A token rides only in a path's final component, which is looked up
    live, so the path caches key on token-free strings: reads with ever-new
    tokens leave nothing behind in them."""

    READS = 40

    def test_distinct_tokens_leave_no_cache_key(self, monkeypatch):
        from repro.bench.runner import FILES_TABLE, RunContext
        from repro.datalinks.control_modes import ControlMode
        from repro.fs import logical
        from repro.util.urls import TOKEN_SEPARATOR

        normalized = []
        real = logical._normalize

        def recording(path):
            normalized.append(path)
            return real(path)

        monkeypatch.setattr(logical, "_normalize", recording)
        system, owner, _ = RunContext().build_microsystem(
            ControlMode.RDD, size=64, files=2)
        urls = set()
        for at in range(self.READS):
            url = owner.get_datalink(FILES_TABLE, {"file_id": at % 2}, "doc",
                                     access="read")
            urls.add(url)
            owner.read_url(url)
        assert len(urls) == self.READS and TOKEN_SEPARATOR in url

        lfs = system.file_server("fs1").lfs
        caches = {"_resolve_cache": lfs._resolve_cache,
                  "_split_cache": lfs._split_cache,
                  "_parent_cache": lfs._parent_cache,
                  "_lookup_cache": lfs._lookup_cache}
        assert lfs._parent_cache and lfs._split_cache
        offenders = [(name, key) for name, cache in caches.items()
                     for key in cache
                     if TOKEN_SEPARATOR in (key if type(key) is str else key[0])]
        offenders += [("_normalize", path) for path in normalized
                      if TOKEN_SEPARATOR in path]
        assert not offenders, offenders[:3]

    def test_a_mount_root_has_no_final_component(self, clock, root_cred):
        from repro.fs.logical import LogicalFileSystem

        lfs = LogicalFileSystem(clock=clock)
        lfs.mount("/", PhysicalFileSystem("rootfs", clock=clock))
        lfs.mount("/data", PhysicalFileSystem("datafs", clock=clock))
        lfs.write_file("/data/d.txt", b"on data fs", root_cred)
        # Caches "/" as a parent directory, of the root file system.
        lfs.write_file("/r.txt", b"on root fs", root_cred)
        for path in ("/data", "/data/", "/", "/."):
            with pytest.raises(FileSystemError) as info:
                lfs._resolve_parent(path, root_cred)
            assert info.value.errno is Errno.EINVAL
        # ... which ``_resolve`` answers with a live walk of the mount.
        assert lfs.listdir("/data", root_cred) == ["d.txt"]
        assert lfs.listdir("/data/.", root_cred) == ["d.txt"]
        assert lfs.listdir("/", root_cred) == ["r.txt"]
