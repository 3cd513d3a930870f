"""The optional extensions: strict read synchronization, multi-file updates,
and DLFM housekeeping."""

import pytest

from repro.api.system import DataLinksSystem
from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.errors import Errno, FileSystemError
from repro.fs.vfs import OpenFlags
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from tests.conftest import BOB_UID, FILES_TABLE, build_system
from repro.workloads.generator import make_content


def build_strict_rfd_system(files: int = 1):
    """An rfd system with strict read synchronization switched on."""

    system = DataLinksSystem()
    system.add_file_server("fs1", strict_read_upcalls=True)
    system.create_table(TableSchema(FILES_TABLE, [
        Column("doc_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(control_mode=ControlMode.RFD,
                                                strict_read_sync=True)),
        Column("body_size", DataType.INTEGER),
        Column("body_mtime", DataType.TIMESTAMP),
    ], primary_key=("doc_id",)))
    system.register_metadata_columns(FILES_TABLE, "body", "body_size", "body_mtime")
    alice = system.session("alice", uid=1001)
    paths = []
    for index in range(files):
        path = f"/library/doc{index:03d}.dat"
        url = alice.put_file("fs1", path, make_content(4096, tag=f"doc{index}"))
        alice.insert(FILES_TABLE, {"doc_id": index, "body": url,
                                   "body_size": 0, "body_mtime": 0.0})
        paths.append(path)
    system.run_archiver()
    return system, alice, paths


class TestStrictReadSync:
    def test_reader_blocks_writer_when_strict(self):
        system, alice, paths = build_strict_rfd_system()
        bob = system.session("bob", uid=BOB_UID)
        fd = system.file_server("fs1").lfs.open(paths[0], OpenFlags.READ, bob.cred)
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        with pytest.raises(FileSystemError) as info:
            alice.update_file(url).begin()
        assert info.value.errno is Errno.EBUSY
        system.file_server("fs1").lfs.close(fd)
        # once the reader is gone the update proceeds
        with alice.update_file(url, truncate=True) as update:
            update.replace(b"after the reader left")

    def test_writer_blocks_new_reader_when_strict(self):
        system, alice, paths = build_strict_rfd_system()
        bob = system.session("bob", uid=BOB_UID)
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        update = alice.update_file(url)
        update.begin()
        with pytest.raises(FileSystemError):
            system.file_server("fs1").lfs.open(paths[0], OpenFlags.READ, bob.cred)
        update.commit()

    def test_strict_reads_record_and_remove_sync_entries(self):
        """The open records alice's read in the node's Sync table and the
        close removes it; neither writes a repository log record."""

        system, alice, paths = build_strict_rfd_system()
        dlfm = system.file_server("fs1").dlfm
        wal = dlfm.repository.db.wal
        records = len(wal)
        fd = system.file_server("fs1").lfs.open(paths[0], OpenFlags.READ, alice.cred)
        assert dlfm.soft.sync == {paths[0]: [("read", 1001)]}
        system.file_server("fs1").lfs.close(fd)
        assert dlfm.soft.sync == {}
        assert len(wal) == records

    def test_strict_read_blocks_unlink_of_open_file(self):
        system, alice, paths = build_strict_rfd_system()
        fd = system.file_server("fs1").lfs.open(paths[0], OpenFlags.READ, alice.cred)
        with pytest.raises(Exception):
            alice.delete(FILES_TABLE, {"doc_id": 0})
        system.file_server("fs1").lfs.close(fd)
        assert alice.delete(FILES_TABLE, {"doc_id": 0}) == 1

    def test_default_mode_keeps_reads_upcall_free(self, rfd_system):
        system, alice, paths, _ = rfd_system
        # upcalls charge the file server's clock domain; count cluster-wide
        before = system.clocks.stats.count("upcall_round_trip")
        alice.fs("fs1").read_file(paths[0])
        assert system.clocks.stats.count("upcall_round_trip") == before

    def test_strict_reads_of_unlinked_files_pass_through(self):
        system, alice, _ = build_strict_rfd_system()
        alice.fs("fs1").write_file("/library/unlinked.txt", b"free")
        assert alice.fs("fs1").read_file("/library/unlinked.txt") == b"free"
        dlfm = system.file_server("fs1").dlfm
        assert dlfm.soft.sync == {}


class TestHousekeeping:
    def test_expired_tokens_are_purged(self, rdd_system):
        system, alice, paths, _ = rdd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body",
                                 access="read", ttl=0.5)
        alice.read_url(url)
        alice.read_url(url)
        dlfm = system.file_server("fs1").dlfm
        # Two validations of alice's read token, one registry entry.
        assert list(dlfm.soft.tokens) == [(paths[0], 1001, "R")]
        system.clock.advance(5.0)
        counts = system.run_housekeeping()
        assert counts["fs1"]["purged_tokens"] == 1
        assert dlfm.soft.tokens == {}

    def test_purges_on_two_servers_overlap(self):
        """The servers purge side by side: the host waits for the slower
        one, not for both in turn."""

        system, alice, _, _ = build_system(ControlMode.RDD, files=3)
        system.add_file_server("fs2")
        url = alice.put_file("fs2", "/library/other.dat",
                             make_content(4096, tag="other"))
        alice.insert(FILES_TABLE, {"doc_id": 10, "body": url,
                                   "body_size": 4096, "body_mtime": 0.0})
        system.run_archiver()
        for doc_id in (0, 1, 2, 10):
            alice.read_url(alice.get_datalink(FILES_TABLE, {"doc_id": doc_id},
                                              "body", access="read", ttl=0.5))
        system.clock.advance(5.0)
        start = system.clock.ticks
        counts = system.run_housekeeping()
        assert list(counts) == ["fs1", "fs2"]
        assert counts["fs1"]["purged_tokens"] == 3
        assert counts["fs2"]["purged_tokens"] == 1
        elapsed = {name: system.file_server(name).clock.ticks - start
                   for name in counts}
        assert 0 < elapsed["fs2"] < elapsed["fs1"]
        assert system.clock.ticks - start == elapsed["fs1"]

    def test_version_chain_pruned_but_newest_kept(self, rfd_system):
        """Without a backup, each archived update replaces the version it
        supersedes, row and archive object alike."""

        system, alice, paths, _ = rfd_system
        dlfm = system.file_server("fs1").dlfm
        for version in range(4):
            url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
            with alice.update_file(url, truncate=True) as update:
                update.replace(f"v{version}".encode())
            system.run_archiver()
            (newest,) = dlfm.repository.versions(paths[0])
            assert newest["version_no"] == version + 2      # initial is 1
            assert len(system.archive) == 1
            assert system.archive.exists(newest["archive_id"])
        # rollback still works from the retained newest version
        assert dlfm.restore_last_committed(paths[0]) is True
        assert alice.fs("fs1").read_file(paths[0]) == b"v3"

    def test_housekeeping_keeps_the_versions_a_backup_picks(self, rfd_system):
        """A superseded version stays exactly while a retained backup would
        restore it; housekeeping only purges tokens."""

        system, alice, paths, _ = rfd_system
        dlfm = system.file_server("fs1").dlfm

        def update(content: bytes) -> None:
            url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body",
                                     access="write")
            with alice.update_file(url, truncate=True) as handle:
                handle.replace(content)
            system.run_archiver()

        update(b"backed up")
        backup = system.backup()
        update(b"superseded")
        update(b"newest")
        assert system.run_housekeeping() == {"fs1": {"purged_tokens": 0}}
        versions = dlfm.repository.versions(paths[0])
        assert [v["version_no"] for v in versions] == [2, 4]
        assert versions[0]["state_id"] <= backup.state_id < versions[1]["state_id"]
        assert len(system.archive) == 2
        system.restore(backup)
        assert alice.fs("fs1").read_file(paths[0]) == b"backed up"
