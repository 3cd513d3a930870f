"""Link/unlink semantics: constraints applied, transactionality, integrity.

A single link and unlink of an rdd, rdb or rfd file -- the constraint it
applies and takes back, its archive job, the refusal to remove a linked
file, and their crashes -- are enumerated against the reference model in
``test_protocol_model.py``; the cases here are the ones it does not play."""

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import (DatalinkOptions, OnUnlink,
                                           datalink_column, options_of_column)
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
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from tests.conftest import ALICE_UID, FILES_TABLE, build_system


class TestLinkConstraints:
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

    def test_link_without_recovery_archives_nothing(self):
        system, _, paths, _ = build_system(ControlMode.RFD, recovery=False)
        dlfm = system.file_server("fs1").dlfm
        assert dlfm.repository.versions(paths[0]) == []
        assert not dlfm.has_pending_archives(paths[0])


class TestReferentialIntegrity:
    def test_rename_of_linked_file_rejected(self, rfd_system):
        system, alice, paths, _ = rfd_system
        with pytest.raises(FileSystemError) as info:
            alice.fs("fs1").rename(paths[0], "/library/renamed.dat")
        assert info.value.errno is Errno.EBUSY

    def test_unlinked_files_can_still_be_removed(self, rfd_system):
        system, alice, _, _ = rfd_system
        alice.fs("fs1").write_file("/library/scratch.txt", b"temporary")
        alice.fs("fs1").unlink("/library/scratch.txt")
        assert not system.file_server("fs1").files.exists("/library/scratch.txt")

    def test_nff_mode_does_not_guarantee_integrity(self):
        system, alice, paths, _ = build_system(ControlMode.NFF)
        # nff: no referential integrity, the file system may remove the file
        alice.fs("fs1").unlink(paths[0])
        assert not system.file_server("fs1").files.exists(paths[0])


    def test_nff_mode_leaves_rename_free(self):
        system, alice, paths, _ = build_system(ControlMode.NFF)
        alice.fs("fs1").rename(paths[0], "/library/renamed.dat")
        files = system.file_server("fs1").files
        assert files.exists("/library/renamed.dat")
        assert not files.exists(paths[0])

    @pytest.mark.parametrize("mode", [ControlMode.RDD, ControlMode.RDB],
                             ids=["rdd", "rdb"])
    def test_every_integrity_mode_guards_the_namespace(self, mode):
        system, alice, paths, _ = build_system(mode)
        with pytest.raises(FileSystemError) as removed:
            alice.fs("fs1").unlink(paths[0])
        with pytest.raises(FileSystemError) as renamed:
            alice.fs("fs1").rename(paths[0], "/library/renamed.dat")
        assert (removed.value.errno, renamed.value.errno) == (Errno.EBUSY,
                                                              Errno.EBUSY)
        assert system.file_server("fs1").files.exists(paths[0])

    def test_the_data_path_of_a_linked_file_is_not_intercepted(self,
                                                                rfd_system):
        # DLFS guards the namespace only: reads and writes of a linked
        # file's blocks go straight to the native file system (Section 1).
        system, _, paths, _ = rfd_system
        server = system.file_server("fs1")
        dbms = server.dlfs.dbms_cred
        vnode = server.physical.fs_lookup(
            server.physical.fs_lookup(server.physical.root_vnode(),
                                      "library", dbms),
            paths[0].rsplit("/", 1)[1], dbms)
        filtered = server.clock.stats.count("dlfs_filter")
        assert server.dlfs.fs_readwrite(vnode, 0, length=4096, write=False,
                                        cred=dbms) == server.files.read(paths[0])
        assert server.dlfs.fs_readwrite(vnode, 0, data=b"XY", write=True,
                                        cred=dbms) == 2
        assert server.files.read(paths[0])[:2] == b"XY"
        assert server.clock.stats.count("dlfs_filter") == filtered

class TestUnlink:
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
        assert len(system.host_db.select(FILES_TABLE, lock=False)) == 1

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


class TestRelinkInOneTransaction:
    """Doc 0's row deleted and doc 5 inserted with the same URL in one host
    transaction: the file is linked before and after it, so it stays
    constrained whether the transaction commits or aborts, and the new row
    keeps the owner and mode the file had before its first link, which a
    later unlink gives back."""

    #: ``(owner, mode)`` of a file under each mode's link constraint.
    CONSTRAINED = {ControlMode.RDD: ("dbms", 0o400),
                   ControlMode.RFD: (ALICE_UID, 0o444),
                   ControlMode.RFF: (ALICE_UID, 0o644)}

    @staticmethod
    def relink(alice, url: str, commit: bool) -> None:
        alice.begin()
        alice.delete(FILES_TABLE, {"doc_id": 0})
        alice.insert(FILES_TABLE, {"doc_id": 5, "title": "Doc 5",
                                   "body": url})
        alice.commit() if commit else alice.abort()

    @staticmethod
    def owner(system, path: str) -> tuple:
        server = system.file_server("fs1")
        attrs = server.files.stat(path)
        return ("dbms" if attrs.uid == server.dbms_uid else attrs.uid,
                attrs.mode & 0o777)

    @pytest.mark.parametrize("commit", [True, False],
                             ids=["committed", "aborted"])
    @pytest.mark.parametrize("mode", [ControlMode.RDD, ControlMode.RFD],
                             ids=lambda mode: mode.value)
    def test_the_file_stays_constrained(self, mode, commit):
        system, alice, paths, urls = build_system(mode)
        self.relink(alice, urls[0], commit)
        assert self.owner(system, paths[0]) == self.CONSTRAINED[mode]
        row = system.file_server("fs1").dlfm.repository.linked_file(paths[0])
        assert (row["original_uid"], row["original_mode"]) == \
            (ALICE_UID, 0o644)
        assert [doc["doc_id"] for doc in alice.select(FILES_TABLE)] == \
            [5 if commit else 0]

    @pytest.mark.parametrize("mode", [ControlMode.RDD, ControlMode.RFD],
                             ids=lambda mode: mode.value)
    def test_a_later_unlink_gives_the_file_back(self, mode):
        system, alice, paths, urls = build_system(mode)
        self.relink(alice, urls[0], commit=True)
        assert alice.delete(FILES_TABLE, {"doc_id": 5}) == 1
        assert self.owner(system, paths[0]) == (ALICE_UID, 0o644)

    @pytest.mark.parametrize("commit", [True, False],
                             ids=["committed", "aborted"])
    @pytest.mark.parametrize("old, new", [
        (ControlMode.RDD, ControlMode.RFD), (ControlMode.RFD, ControlMode.RDD),
        (ControlMode.RDD, ControlMode.RFF), (ControlMode.RFF, ControlMode.RDD),
    ], ids=lambda mode: mode.value)
    def test_a_relink_into_another_mode(self, old, new, commit):
        """Doc 0's row deleted and the URL inserted into a column of
        another mode: the file ends under the constraint of the row the
        outcome keeps, and that row's unlink gives it back as it was."""

        system, alice, paths, urls = build_system(old)
        system.create_table(TableSchema("other_docs", [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(control_mode=new,
                                                    recovery=True)),
        ], primary_key=("doc_id",)))
        alice.begin()
        alice.delete(FILES_TABLE, {"doc_id": 0})
        alice.insert("other_docs", {"doc_id": 0, "body": urls[0]})
        alice.commit() if commit else alice.abort()
        assert self.owner(system, paths[0]) == \
            self.CONSTRAINED[new if commit else old]
        kept = "other_docs" if commit else FILES_TABLE
        assert alice.delete(kept, {"doc_id": 0}) == 1
        assert self.owner(system, paths[0]) == (ALICE_UID, 0o644)


class TestOneArchiveJobPerLinkedFile:
    """A link with recovery owes one archive job for its bytes: a link
    undone in its own transaction owes none, and a relink while the
    file's job is still pending owes no second one."""

    modes = pytest.mark.parametrize(
        "mode", [ControlMode.RDD, ControlMode.RFD, ControlMode.RDB],
        ids=lambda mode: mode.value)

    @staticmethod
    def _row(doc_id: int, url: str) -> dict:
        return {"doc_id": doc_id, "title": "t", "body": url,
                "body_size": 0, "body_mtime": 0.0}

    @modes
    def test_a_link_unlinked_in_its_transaction_archives_nothing(self, mode):
        system, alice, paths, urls = build_system(mode, link=False)
        alice.begin()
        alice.insert(FILES_TABLE, self._row(0, urls[0]))
        alice.delete(FILES_TABLE, {"doc_id": 0})
        alice.commit()
        repository = system.file_server("fs1").dlfm.repository
        assert repository.pending_archive_jobs() == []
        system.run_archiver()
        assert repository.versions(paths[0]) == []
        assert len(system.archive) == 0

    @modes
    def test_a_relink_with_its_job_pending_queues_no_second(self, mode):
        system, alice, paths, urls = build_system(mode, link=False)
        alice.insert(FILES_TABLE, self._row(0, urls[0]))
        alice.begin()
        alice.delete(FILES_TABLE, {"doc_id": 0})
        alice.insert(FILES_TABLE, self._row(5, urls[0]))
        alice.commit()
        repository = system.file_server("fs1").dlfm.repository
        assert len(repository.pending_archive_jobs(paths[0])) == 1
        system.run_archiver()
        assert [version["version_no"]
                for version in repository.versions(paths[0])] == [1]


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
        assert len(system.host_db.select(FILES_TABLE, lock=False)) == 0
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
        assert len(system.host_db.select(FILES_TABLE, lock=False)) == 0
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
        assert len(people_db.select("people", lock=False)) == 3 + 8


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
        assert len(system.host_db.select(FILES_TABLE, lock=False)) == self.ROWS
        for path, row in zip(paths, linked):
            assert server.dlfm.repository.linked_file(path) == row
            attrs = server.files.stat(path)
            assert (attrs.uid, attrs.mode) == (server.dbms_uid, 0o400)
