"""Update-in-place semantics: transaction boundary, serialization, metadata,
versioning and the rfd consistency window."""

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.errors import Errno, FileSystemError
from repro.fs.vfs import OpenFlags
from tests.conftest import BOB_UID, FILES_TABLE, build_system


class TestBasicUpdate:
    def test_update_replaces_content_in_place(self, rfd_system):
        system, alice, paths, _ = rfd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        with alice.update_file(url, truncate=True) as update:
            update.replace(b"version two")
        assert alice.fs("fs1").read_file(paths[0]) == b"version two"

    def test_read_modify_write_without_truncate(self, rfd_system):
        system, alice, paths, _ = rfd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        with alice.update_file(url) as update:
            head = update.read(10)
            update.seek(0)
            update.write(head.upper())
        content = alice.fs("fs1").read_file(paths[0])
        assert content.startswith(b"[DOC0 V0] ")

    def test_url_still_resolves_during_and_after_update(self, rfd_system):
        """The whole point of UIP: no unlink is needed, the reference stays."""

        system, alice, paths, _ = rfd_system
        dlfm = system.file_server("fs1").dlfm
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        update = alice.update_file(url, truncate=True)
        update.begin()
        assert dlfm.repository.linked_file(paths[0]) is not None
        update.replace(b"still linked")
        update.commit()
        assert dlfm.repository.linked_file(paths[0]) is not None

    def test_metadata_updated_automatically_in_same_transaction(self, rfd_system):
        system, alice, paths, _ = rfd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        with alice.update_file(url, truncate=True) as update:
            update.replace(b"x" * 1234)
        row = system.host_db.select_one(FILES_TABLE, {"doc_id": 0}, lock=False)
        assert row["body_size"] == 1234
        assert row["body_mtime"] > 0.0
        dlfm_row = system.file_server("fs1").dlfm.repository.linked_file(paths[0])
        assert dlfm_row["last_size"] == 1234

    def test_unmodified_open_close_updates_nothing(self, rfd_system):
        system, alice, _, _ = rfd_system
        before = system.host_db.select_one(FILES_TABLE, {"doc_id": 0}, lock=False)
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        update = alice.update_file(url)
        update.begin()
        update.commit()
        after = system.host_db.select_one(FILES_TABLE, {"doc_id": 0}, lock=False)
        assert after["body_size"] == before["body_size"]
        assert after["body_mtime"] == before["body_mtime"]

    def test_rfd_ownership_taken_during_update_and_released_after(self, rfd_system):
        system, alice, paths, _ = rfd_system
        server = system.file_server("fs1")
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        update = alice.update_file(url, truncate=True)
        update.begin()
        during = server.files.stat(paths[0])
        assert during.uid == server.dbms_uid
        update.replace(b"done")
        update.commit()
        after = server.files.stat(paths[0])
        assert after.uid == alice.cred.uid
        assert after.mode & 0o222 == 0     # back to read-only between updates

    def test_update_via_rdd_full_control(self, rdd_system):
        system, alice, paths, _ = rdd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        with alice.update_file(url, truncate=True) as update:
            update.replace(b"full control update")
        assert system.file_server("fs1").files.read(paths[0]) == b"full control update"

    def test_replace_shorter_without_truncate_refused(self, rfd_system):
        from repro.errors import DataLinksError

        system, alice, _, _ = rfd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        with pytest.raises(DataLinksError):
            with alice.update_file(url) as update:
                update.replace(b"short")


class TestWriteSerialization:
    def test_second_writer_rejected_while_update_open(self, rfd_system):
        system, alice, _, _ = rfd_system
        bob = system.session("bob", uid=BOB_UID)
        url_a = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        url_b = bob.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        first = alice.update_file(url_a)
        first.begin()
        with pytest.raises(FileSystemError) as info:
            bob.update_file(url_b).begin()
        assert info.value.errno is Errno.EBUSY
        first.commit()
        system.run_archiver()
        # once the first update committed (and archived), the second succeeds
        with bob.update_file(url_b, truncate=True) as update:
            update.replace(b"bob's turn")

    def test_same_user_cannot_open_two_concurrent_updates(self, rfd_system):
        system, alice, _, _ = rfd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        first = alice.update_file(url)
        first.begin()
        with pytest.raises(FileSystemError):
            alice.update_file(url).begin()
        first.commit()

    def test_new_update_blocked_until_archiving_completes(self, rfd_system):
        """Section 4.4: new updates wait for the previous version's archive."""

        system, alice, _, _ = rfd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        with alice.update_file(url, truncate=True) as update:
            update.replace(b"v1")
        # archiver has NOT run yet
        with pytest.raises(FileSystemError) as info:
            alice.update_file(url).begin()
        assert info.value.errno is Errno.EBUSY
        system.run_archiver()
        with alice.update_file(url, truncate=True) as update:
            update.replace(b"v2")

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

    def test_rfd_new_reader_blocked_while_update_in_progress(self, rfd_system):
        """During the take-over the file system itself keeps new readers out."""

        system, alice, paths, _ = rfd_system
        bob = system.session("bob", uid=BOB_UID)
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        update = alice.update_file(url)
        update.begin()
        with pytest.raises(FileSystemError):
            bob.fs("fs1").read_file(paths[0])
        update.commit()
        assert len(bob.fs("fs1").read_file(paths[0])) == 4096

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

    def test_each_committed_update_creates_a_new_version(self, rfd_system):
        system, alice, paths, _ = rfd_system
        dlfm = system.file_server("fs1").dlfm
        (initial,) = dlfm.repository.versions(paths[0])
        for round_number in range(3):
            url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
            with alice.update_file(url, truncate=True) as update:
                update.replace(f"round {round_number}".encode())
            system.run_archiver()
            # No backup can pick the superseded version: the chain holds
            # the newest one only, and its number advances.
            (newest,) = dlfm.repository.versions(paths[0])
            assert newest["version_no"] == initial["version_no"] + round_number + 1
            assert system.archive.retrieve(newest["archive_id"], system.clock) \
                == f"round {round_number}".encode()

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

    def test_archived_content_matches_committed_content(self, rfd_system):
        system, alice, paths, _ = rfd_system
        dlfm = system.file_server("fs1").dlfm
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        with alice.update_file(url, truncate=True) as update:
            update.replace(b"exactly this content")
        system.run_archiver()
        latest = dlfm.repository.latest_version(paths[0])
        assert system.archive.retrieve(latest["archive_id"], system.clock) \
            == b"exactly this content"

    def test_explicit_admin_abort_of_file_update(self, rfd_system):
        system, alice, paths, _ = rfd_system
        before = alice.fs("fs1").read_file(paths[0])
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        update = alice.update_file(url, truncate=True)
        update.begin()
        update.write(b"half done")
        assert system.abort_file_update("fs1", paths[0]) is True
        assert alice.fs("fs1").read_file(paths[0]) == before
