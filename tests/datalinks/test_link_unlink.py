"""Link/unlink semantics: constraints applied, transactionality, integrity."""

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import OnUnlink, options_of_column
from repro.errors import (
    DataLinksError,
    DuplicateKeyError,
    Errno,
    FileAlreadyLinkedError,
    FileSystemError,
    LinkConflictError,
    ReferentialIntegrityError,
)
from repro.fs.vfs import OpenFlags
from repro.ipc.channel import Channel
from tests.conftest import FILES_TABLE, build_system


class TestLinkConstraints:
    def test_rfd_link_marks_file_read_only(self):
        system, alice, paths, _ = build_system(ControlMode.RFD)
        attrs = system.file_server("fs1").files.stat(paths[0])
        assert attrs.mode & 0o222 == 0              # write bits cleared
        assert attrs.uid == alice.cred.uid           # ownership unchanged

    def test_rdd_link_takes_over_ownership(self):
        system, _, paths, _ = build_system(ControlMode.RDD)
        server = system.file_server("fs1")
        attrs = server.files.stat(paths[0])
        assert attrs.uid == server.dbms_uid
        assert attrs.mode == 0o400

    def test_rff_link_leaves_file_untouched(self):
        system, alice, paths, _ = build_system(ControlMode.RFF)
        attrs = system.file_server("fs1").files.stat(paths[0])
        assert attrs.uid == alice.cred.uid
        assert attrs.mode & 0o200                   # still writable by owner

    @pytest.mark.parametrize("mode", list(ControlMode),
                             ids=lambda mode: mode.value)
    def test_link_records_the_column_declared_mode(self, mode):
        system, _, paths, _ = build_system(mode)
        column = system.host_db.catalog.schema(FILES_TABLE).column("body")
        assert options_of_column(column).control_mode is mode
        linked = system.file_server("fs1").dlfm.repository.linked_file(paths[0])
        assert linked["control_mode"] == mode.value

    def test_linking_missing_file_fails_and_aborts_insert(self):
        system, alice, _, _ = build_system(None)
        url = system.engine.make_url("fs1", "/library/ghost.dat")
        with pytest.raises(ReferentialIntegrityError):
            alice.insert(FILES_TABLE, {"doc_id": 7, "body": url,
                                       "body_size": 0, "body_mtime": 0.0})
        # the SQL insert was rolled back together with the failed link
        assert system.host_db.select(FILES_TABLE, {"doc_id": 7}) == []

    def test_double_link_rejected(self):
        system, alice, _, urls = build_system(ControlMode.RFD)
        with pytest.raises(FileAlreadyLinkedError):
            alice.insert(FILES_TABLE, {"doc_id": 50, "body": urls[0],
                                       "body_size": 0, "body_mtime": 0.0})

    def test_link_rollback_restores_permissions(self):
        system, alice, paths, _ = build_system(ControlMode.RFD, link=False)
        before = system.file_server("fs1").files.stat(paths[0])
        url = system.engine.make_url("fs1", paths[0])
        alice.begin()
        alice.insert(FILES_TABLE, {"doc_id": 0, "body": url,
                                   "body_size": 0, "body_mtime": 0.0})
        # while the transaction is open the constraints are already applied
        during = system.file_server("fs1").files.stat(paths[0])
        assert during.mode & 0o222 == 0
        alice.abort()
        after = system.file_server("fs1").files.stat(paths[0])
        assert after.mode == before.mode
        assert system.file_server("fs1").dlfm.repository.linked_file(paths[0]) is None

    def test_link_commit_schedules_initial_archive(self):
        system, _, paths, _ = build_system(ControlMode.RFD, recovery=True)
        dlfm = system.file_server("fs1").dlfm
        assert dlfm.repository.versions(paths[0]) != []

    def test_link_without_recovery_archives_nothing(self):
        system, _, paths, _ = build_system(ControlMode.RFD, recovery=False)
        dlfm = system.file_server("fs1").dlfm
        assert dlfm.repository.versions(paths[0]) == []
        assert not dlfm.has_pending_archives(paths[0])


class TestReferentialIntegrity:
    def test_remove_of_linked_file_rejected(self, rfd_system):
        system, alice, paths, _ = rfd_system
        with pytest.raises(FileSystemError) as info:
            alice.fs("fs1").unlink(paths[0])
        assert info.value.errno is Errno.EBUSY

    def test_rename_of_linked_file_rejected(self, rfd_system):
        system, alice, paths, _ = rfd_system
        with pytest.raises(FileSystemError) as info:
            alice.fs("fs1").rename(paths[0], "/library/renamed.dat")
        assert info.value.errno is Errno.EBUSY

    def test_unlinked_files_can_still_be_removed(self, rfd_system):
        system, alice, _, _ = rfd_system
        alice.fs("fs1").write_file("/library/scratch.txt", b"temporary")
        alice.fs("fs1").unlink("/library/scratch.txt")
        assert not alice.fs("fs1").exists("/library/scratch.txt")

    def test_nff_mode_does_not_guarantee_integrity(self):
        system, alice, paths, _ = build_system(ControlMode.NFF)
        # nff: no referential integrity, the file system may remove the file
        alice.fs("fs1").unlink(paths[0])
        assert not alice.fs("fs1").exists(paths[0])


class TestUnlink:
    def test_delete_row_unlinks_and_restores_ownership(self, rdd_system):
        system, alice, paths, _ = rdd_system
        alice.delete(FILES_TABLE, {"doc_id": 0})
        dlfm = system.file_server("fs1").dlfm
        assert dlfm.repository.linked_file(paths[0]) is None
        attrs = system.file_server("fs1").files.stat(paths[0])
        assert attrs.uid == alice.cred.uid
        # the owner can write to the file again
        alice.fs("fs1").write_file(paths[0], b"mine again", create=False)

    def test_unlink_with_delete_option_removes_file(self):
        system, alice, paths, _ = build_system(ControlMode.RFD,
                                               on_unlink=OnUnlink.DELETE)
        alice.delete(FILES_TABLE, {"doc_id": 0})
        assert not system.file_server("fs1").files.exists(paths[0])

    def test_unlink_rejected_while_file_open(self, rdd_system):
        system, alice, _, _ = rdd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="read")
        fd = alice.open_url(url, OpenFlags.READ)
        with pytest.raises((LinkConflictError, DataLinksError)):
            alice.delete(FILES_TABLE, {"doc_id": 0})
        system.file_server("fs1").lfs.close(fd)
        # once closed, the unlink goes through
        assert alice.delete(FILES_TABLE, {"doc_id": 0}) == 1

    def test_unlink_rollback_keeps_file_linked(self, rfd_system):
        system, alice, paths, _ = rfd_system
        alice.begin()
        alice.delete(FILES_TABLE, {"doc_id": 0})
        alice.abort()
        assert system.file_server("fs1").dlfm.repository.linked_file(paths[0]) is not None
        # constraints still in force after the rollback
        with pytest.raises(FileSystemError):
            alice.fs("fs1").unlink(paths[0])


class TestRelinkByDeleteAndInsert:
    """A DATALINK value changes through ``delete`` + ``insert``: the old
    file is unlinked, the new one linked, and inside one host transaction
    the two steps commit or roll back together."""

    NEW_PATH = "/library/replacement.dat"

    def replace(self, alice, url):
        alice.delete(FILES_TABLE, {"doc_id": 0})
        alice.insert(FILES_TABLE, {"doc_id": 0, "title": "Doc 0",
                                   "body": url})

    def test_the_link_moves_to_the_new_file(self, rfd_system):
        system, alice, paths, _ = rfd_system
        new_url = alice.put_file("fs1", self.NEW_PATH, b"new file body")
        self.replace(alice, new_url)
        dlfm = system.file_server("fs1").dlfm
        assert dlfm.repository.linked_file(paths[0]) is None
        assert dlfm.repository.linked_file(self.NEW_PATH) is not None
        assert alice.select(FILES_TABLE, {"doc_id": 0})[0]["body"] == new_url
        # the old file is the user's again, the new one is under control
        alice.fs("fs1").unlink(paths[0])
        with pytest.raises(FileSystemError):
            alice.fs("fs1").unlink(self.NEW_PATH)

    def test_the_same_url_is_linked_again(self, rfd_system):
        system, alice, paths, urls = rfd_system
        self.replace(alice, urls[0])
        assert system.file_server("fs1").dlfm.repository.linked_file(
            paths[0]) is not None
        with pytest.raises(FileSystemError):
            alice.fs("fs1").unlink(paths[0])

    def test_one_transaction_commits_both_steps(self, rfd_system):
        system, alice, paths, _ = rfd_system
        new_url = alice.put_file("fs1", self.NEW_PATH, b"new file body")
        alice.begin()
        self.replace(alice, new_url)
        alice.commit()
        dlfm = system.file_server("fs1").dlfm
        assert dlfm.repository.linked_file(paths[0]) is None
        assert dlfm.repository.linked_file(self.NEW_PATH) is not None
        assert system.host_db.count(FILES_TABLE) == 1

    def test_abort_keeps_the_old_link_and_links_nothing_new(self, rfd_system):
        system, alice, paths, urls = rfd_system
        new_url = alice.put_file("fs1", self.NEW_PATH, b"new file body")
        alice.begin()
        self.replace(alice, new_url)
        alice.abort()
        dlfm = system.file_server("fs1").dlfm
        assert dlfm.repository.linked_file(paths[0]) is not None
        assert dlfm.repository.linked_file(self.NEW_PATH) is None
        assert alice.select(FILES_TABLE, {"doc_id": 0})[0]["body"] == urls[0]
        with pytest.raises(FileSystemError):
            alice.fs("fs1").unlink(paths[0])
        alice.fs("fs1").unlink(self.NEW_PATH)


class TestMultiRowInsert:
    """A multi-row INSERT is one statement: ``insert_many`` pays one
    statement base for its rows and, through the DataLinks engine, one
    DBMS-to-DLFM link message per enlisted file server."""

    def test_one_link_batch_instead_of_a_message_per_row(self):
        system, alice, paths, _ = build_system(ControlMode.RFD, files=6,
                                               link=False)
        urls = [system.engine.make_url("fs1", path) for path in paths]
        # DBMS-to-DLFM wire latency accrues on the receiving file server's
        # clock domain; count it cluster-wide through the merged group stats.
        stats = system.clocks.stats

        def row(doc_id):
            return {"doc_id": doc_id, "body": urls[doc_id], "body_size": 0,
                    "body_mtime": 0.0}

        before = stats.count("db_dlfm_message")
        alice.insert_many(FILES_TABLE, [row(doc_id) for doc_id in range(3)])
        batched = stats.count("db_dlfm_message") - before

        before = stats.count("db_dlfm_message")
        for doc_id in range(3, 6):
            alice.insert(FILES_TABLE, row(doc_id))
        per_row = stats.count("db_dlfm_message") - before

        assert batched < per_row
        dlfm = system.file_server("fs1").dlfm
        assert all(dlfm.repository.linked_file(path) is not None
                   for path in paths)

    def test_duplicate_key_links_none_of_the_rows(self):
        system, alice, paths, urls = build_system(ControlMode.RFD, files=3,
                                                  link=False)
        rows = [{"doc_id": doc_id, "body": url}
                for doc_id, url in zip((0, 1, 0), urls)]
        with pytest.raises(DuplicateKeyError):
            alice.insert_many(FILES_TABLE, rows)
        assert system.host_db.count(FILES_TABLE) == 0
        repository = system.file_server("fs1").dlfm.repository
        assert [repository.linked_file(path) for path in paths] == [None] * 3

    def test_aborted_host_transaction_links_none_of_the_rows(self):
        system, alice, paths, urls = build_system(ControlMode.RFD, files=3,
                                                  link=False)
        alice.begin()
        alice.insert_many(FILES_TABLE, [{"doc_id": doc_id, "body": url}
                                        for doc_id, url in enumerate(urls)])
        repository = system.file_server("fs1").dlfm.repository
        assert all(repository.linked_file(path) is not None for path in paths)
        alice.abort()
        assert system.host_db.count(FILES_TABLE) == 0
        assert [repository.linked_file(path) for path in paths] == [None] * 3

    def test_one_statement_base_instead_of_one_per_row(self, people_db):
        stats = people_db.clock.stats
        before = stats.count("sql_statement_base")
        rids = people_db.insert_many("people", [
            {"person_id": person_id, "name": f"batch{person_id}"}
            for person_id in range(40, 44)])
        batched = stats.count("sql_statement_base") - before

        before = stats.count("sql_statement_base")
        for person_id in range(50, 54):
            people_db.insert("people", {"person_id": person_id,
                                        "name": f"row{person_id}"})
        per_row = stats.count("sql_statement_base") - before

        assert batched < per_row
        assert [people_db.select_one("people", {"person_id": person_id})["_rid"]
                for person_id in range(40, 44)] == rids
        assert people_db.count("people") == 3 + 8


class TestUnsupportedWhere:
    """The engine's statements refuse a ``where`` that is not ``None``, a
    dict or a callable before any link or unlink is shipped."""

    @pytest.mark.parametrize("statement", [
        lambda alice: alice.select(FILES_TABLE, ["doc_id", 0]),
        lambda alice: alice.delete(FILES_TABLE, ["doc_id", 0]),
    ], ids=["select", "delete"])
    def test_every_statement_kind_refuses_it(self, statement):
        system, alice, paths, urls = build_system(ControlMode.RFD, files=2)
        repository = system.file_server("fs1").dlfm.repository
        linked = [repository.linked_file(path) for path in paths]
        with pytest.raises(TypeError, match="unsupported where"):
            statement(alice)
        assert [row["body"] for row in system.host_db.select(FILES_TABLE)] \
            == urls
        assert [repository.linked_file(path) for path in paths] == linked


class TestMultiRowUnlink:
    """``engine.delete`` pays one IPC round trip per enlisted server: a
    multi-row DELETE ships one ``unlink`` message, and it unlinks, commits
    and rolls back exactly as the same rows deleted one at a time."""

    ROWS = 3

    @pytest.fixture
    def posted(self, monkeypatch):
        """Kinds of the pipelined messages sent, in order."""

        kinds = []
        post = Channel.post

        def recording(channel, kind, **payload):
            kinds.append(kind)
            return post(channel, kind, **payload)

        monkeypatch.setattr(Channel, "post", recording)
        return kinds

    def _delete(self, posted, wheres, *, commit=True):
        """Delete each of *wheres* in one transaction on a fresh system of
        ``ROWS`` rdd-linked files.  Returns the system, the paths, each
        file's linked-file row from before the delete, the kinds posted
        and ``{domain: {label: (count, ticks)}}`` charged by the
        transaction."""

        system, alice, paths, _ = build_system(ControlMode.RDD,
                                               files=self.ROWS)
        repository = system.file_server("fs1").dlfm.repository
        linked = [repository.linked_file(path) for path in paths]
        posted.clear()
        with system.clocks.window() as window:
            alice.begin()
            for where in wheres:
                alice.delete(FILES_TABLE, where)
            if commit:
                alice.commit()
            else:
                alice.abort()
        return system, paths, linked, list(posted), window.domains

    def test_one_unlink_batch_instead_of_a_message_per_row(self, posted):
        _, _, _, batch_kinds, batched = self._delete(
            posted, [lambda row: True])
        _, _, _, row_kinds, per_row = self._delete(
            posted, [{"doc_id": doc_id} for doc_id in range(self.ROWS)])
        assert batch_kinds == ["unlink"]
        assert row_kinds == ["unlink"] * self.ROWS

        # The file server does the same work for the rows; the batch
        # saves ROWS - 1 engine <-> DLFM messages, and the agent still
        # demultiplexes every item (same daemon_dispatch time).
        saved = self.ROWS - 1
        fs_batched, fs_per_row = batched["fs1"], per_row["fs1"]
        assert fs_per_row.pop("db_dlfm_message")[0] \
            - fs_batched.pop("db_dlfm_message")[0] == saved
        assert {label: ticks for label, (_, ticks) in fs_batched.items()} \
            == {label: ticks for label, (_, ticks) in fs_per_row.items()}
        assert per_row["host"]["message_send"][0] \
            - batched["host"]["message_send"][0] == saved

    def test_committed_batch_restores_every_owner_and_mode(self, posted):
        system, paths, linked, _, _ = self._delete(posted, [None])
        server = system.file_server("fs1")
        for path, row in zip(paths, linked):
            assert server.dlfm.repository.linked_file(path) is None
            attrs = server.files.stat(path)
            assert (attrs.uid, attrs.gid, attrs.mode) == (
                row["original_uid"], row["original_gid"],
                row["original_mode"])

    def test_aborted_batch_leaves_every_file_linked(self, posted):
        system, paths, linked, kinds, _ = self._delete(posted, [None],
                                                       commit=False)
        assert kinds == ["unlink"]
        server = system.file_server("fs1")
        assert system.host_db.count(FILES_TABLE) == self.ROWS
        for path, row in zip(paths, linked):
            assert server.dlfm.repository.linked_file(path) == row
            attrs = server.files.stat(path)
            assert (attrs.uid, attrs.mode) == (server.dbms_uid, 0o400)
