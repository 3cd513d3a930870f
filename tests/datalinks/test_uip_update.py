"""Update-in-place semantics the protocol model does not play: reads and
writes inside an update, two files at once, readers that hold the file
open, aborts, version dating and the rfd consistency window.  One file's
updates, their serialization and their crashes are enumerated against the
reference model in ``test_protocol_model.py``."""

from types import SimpleNamespace

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.errors import FileSystemError
from repro.fs.vfs import OpenFlags
from tests.conftest import BOB_UID, FILES_TABLE, build_system


class TestBasicUpdate:
    def test_read_modify_write_without_truncate(self, rfd_system):
        system, alice, paths, _ = rfd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        with alice.update_file(url) as update:
            head = update.read(10)
            update.seek(0)
            update.write(head.upper())
        content = alice.fs("fs1").read_file(paths[0])
        assert content.startswith(b"[DOC0 V0] ")

    def test_replace_shorter_without_truncate_refused(self, rfd_system):
        from repro.errors import DataLinksError

        system, alice, _, _ = rfd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        with pytest.raises(DataLinksError):
            with alice.update_file(url) as update:
                update.replace(b"short")


    @pytest.mark.parametrize("truncate", [True, False],
                             ids=["truncating", "non-truncating"])
    def test_only_a_non_truncating_replace_checks_the_tail(
            self, rfd_system, monkeypatch, truncate):
        """Right after a truncating open the file is empty, so ``replace``
        knows its size without an ``fstat``; otherwise it checks for a
        stale tail."""

        system, alice, paths, _ = rfd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body",
                                 access="write")
        update, calls = alice.update_file(url, truncate=truncate), []
        fstat = update._lfs.fstat
        monkeypatch.setattr(update, "_lfs", SimpleNamespace(
            **{name: getattr(update._lfs, name)
               for name in ("open", "close", "write", "lseek")},
            fstat=lambda fd: (calls.append(fd), fstat(fd))[1]))
        content = b"x" * 8192       # longer than the file: no stale tail
        with update:
            update.replace(content)
        assert len(calls) == (0 if truncate else 1)
        assert alice.fs("fs1").read_file(paths[0]) == content

    def test_a_replace_after_a_longer_write_still_checks_the_tail(
            self, rfd_system):
        from repro.errors import DataLinksError

        system, alice, _, _ = rfd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body",
                                 access="write")
        with pytest.raises(DataLinksError):
            with alice.update_file(url, truncate=True) as update:
                update.write(b"a longer first draft")
                update.replace(b"short")


class TestWriteSerialization:
    def test_updates_of_different_files_do_not_interfere(self):
        system, alice, paths, _ = build_system(ControlMode.RFD, files=2)
        url0 = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        url1 = alice.get_datalink(FILES_TABLE, {"doc_id": 1}, "body", access="write")
        first = alice.update_file(url0, truncate=True)
        first.begin()
        with alice.update_file(url1, truncate=True) as update:
            update.replace(b"independent")
        first.replace(b"also fine")
        first.commit()
        assert alice.fs("fs1").read_file(paths[1]) == b"independent"


class TestReadWriteInteraction:
    def test_rfd_reader_not_serialized_with_writer(self, rfd_system):
        """The documented rfd window: a reader may observe the new content."""

        system, alice, paths, _ = rfd_system
        bob = system.session("bob", uid=BOB_UID)
        fd = system.file_server("fs1").lfs.open(paths[0], OpenFlags.READ, bob.cred)
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        with alice.update_file(url, truncate=True) as update:
            update.replace(b"overwritten while bob reads")
        assert system.file_server("fs1").lfs.read(fd) == b"overwritten while bob reads"
        system.file_server("fs1").lfs.close(fd)

    def test_rdd_write_blocked_by_reader_and_vice_versa(self, rdd_system):
        system, alice, _, _ = rdd_system
        read_url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="read")
        fd = alice.open_url(read_url, OpenFlags.READ)
        write_url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        with pytest.raises(FileSystemError):
            alice.update_file(write_url).begin()
        system.file_server("fs1").lfs.close(fd)

        update = alice.update_file(write_url)
        update.begin()
        read_url2 = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="read")
        with pytest.raises(FileSystemError):
            alice.open_url(read_url2, OpenFlags.READ)
        update.commit()

    def test_rdd_concurrent_readers_are_fine(self, rdd_system):
        system, alice, _, _ = rdd_system
        bob = system.session("bob", uid=BOB_UID)
        url_a = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="read")
        url_b = bob.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="read")
        fd_a = alice.open_url(url_a, OpenFlags.READ)
        fd_b = bob.open_url(url_b, OpenFlags.READ)
        lfs = system.file_server("fs1").lfs
        assert len(lfs.read(fd_a)) == 4096
        assert len(lfs.read(fd_b)) == 4096
        lfs.close(fd_a)
        lfs.close(fd_b)


class TestAtomicityAndVersions:
    def test_abort_restores_last_committed_version(self, rfd_system):
        system, alice, paths, _ = rfd_system
        before = alice.fs("fs1").read_file(paths[0])
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        try:
            with alice.update_file(url, truncate=True) as update:
                update.write(b"partial")
                raise ValueError("application bug")
        except ValueError:
            pass
        assert alice.fs("fs1").read_file(paths[0]) == before
        # and the in-flight content was parked, not silently dropped
        server = system.file_server("fs1")
        (committed,) = server.dlfm.repository.versions(paths[0])
        parked = (f"/.dlfm_tmp/{paths[0].strip('/').replace('/', '__')}"
                  f".{committed['version_no'] + 1}")
        assert server.raw_lfs.read_file(
            parked, server.files.dlfm_cred) == b"partial"

    def test_version_state_ids_are_monotonic(self, rfd_system):
        system, alice, paths, _ = rfd_system
        dlfm = system.file_server("fs1").dlfm
        for _ in range(2):
            url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
            with alice.update_file(url, truncate=True) as update:
                update.replace(b"tick")
            system.run_archiver()
        state_ids = [v["state_id"] for v in dlfm.repository.versions(paths[0])]
        assert state_ids == sorted(state_ids)


class TestTheUpcallsCarryTheAttributes:
    """The DLFM records an update from the attributes DLFS read: the
    tracking row from the open's own ``fs_getattr``, taken before a
    truncating open truncates (through ``check_open`` for rdd, the write
    fallback for rfd), and the new size and mtime from the closed vnode."""

    @pytest.mark.parametrize("mode", [ControlMode.RDD, ControlMode.RFD],
                             ids=["check_open", "write_open_fallback"])
    def test_a_truncating_update_tracks_the_pre_truncate_size(self, mode):
        system, alice, paths, _ = build_system(mode, size=512)
        dlfm = system.file_server("fs1").dlfm
        before = dlfm.files.stat(paths[0])
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body",
                                 access="write")
        update = alice.update_file(url, truncate=True).begin()
        assert dlfm.files.stat(paths[0]).size == 0
        tracking = dlfm.repository.tracking(paths[0])
        assert (tracking["pre_size"], tracking["pre_mtime"]) == \
            (512, before.mtime)
        update.write(b"new")
        update.commit()
        after = dlfm.files.stat(paths[0])
        row = dlfm.repository.linked_file(paths[0])
        assert (row["last_size"], row["last_mtime"]) == (3, after.mtime)
        assert dlfm.repository.tracking(paths[0]) is None


class TestAnArchiveJobWhoseFileIsGone:
    def test_it_completes_with_nothing_archived_and_leaves_no_job(self):
        """The middle of three jobs lost its file below DLFS: its step
        yields 0 while the first job's transfer is in flight, its row goes,
        and the other two archive their versions."""

        system, alice, paths, _ = build_system(ControlMode.RDD, files=3)
        dlfm = system.file_server("fs1").dlfm
        for doc in range(3):
            url = alice.get_datalink(FILES_TABLE, {"doc_id": doc}, "body",
                                     access="write")
            with alice.update_file(url, truncate=True) as update:
                update.replace(b"v2")
        assert len(dlfm.repository.pending_archive_jobs()) == 3
        dlfm.files.unlink(paths[1])
        assert list(dlfm.archive_steps()) == [0, 1, 1]
        assert dlfm.repository.pending_archive_jobs() == []
        assert [dlfm.repository.latest_version(path)["version_no"]
                for path in paths] == [2, 1, 2]
