"""DataLinks engine transaction plumbing and the Section 3 baseline schemes."""

import pytest

from repro.datalinks.baselines.blob_store import BlobFileStore
from repro.datalinks.baselines.cau import CopyAndUpdateManager
from repro.datalinks.baselines.cico import CheckInCheckOutManager
from repro.datalinks.control_modes import ControlMode
from repro.errors import (
    CheckoutConflictError,
    DataLinksError,
    MergeConflictError,
)
from repro.storage.transaction import TxnState
from tests.conftest import ALICE_UID, BOB_UID, FILES_TABLE, build_system


class TestEngineTransactions:
    def test_multi_statement_transaction_commits_links_atomically(self):
        system, alice, paths, _ = build_system(ControlMode.RFD, files=2, link=False)
        urls = [system.engine.make_url("fs1", path) for path in paths]
        alice.begin()
        for doc_id, url in enumerate(urls):
            alice.insert(FILES_TABLE, {"doc_id": doc_id, "body": url,
                                       "body_size": 0, "body_mtime": 0.0})
        dlfm = system.file_server("fs1").dlfm
        # before commit the work is held in one open DLFM branch (sub-transaction)
        assert len(dlfm.branches.active_host_transactions()) == 1
        assert dlfm.repository.db.active_transactions() != []
        alice.commit()
        assert dlfm.branches.active_host_transactions() == []
        assert dlfm.repository.linked_file(paths[0]) is not None
        assert dlfm.repository.linked_file(paths[1]) is not None

    def test_abort_rolls_back_both_sides(self):
        system, alice, paths, _ = build_system(ControlMode.RFD, files=1, link=False)
        url = system.engine.make_url("fs1", paths[0])
        alice.begin()
        alice.insert(FILES_TABLE, {"doc_id": 0, "body": url,
                                   "body_size": 0, "body_mtime": 0.0})
        alice.abort()
        assert system.host_db.select(FILES_TABLE) == []
        assert system.file_server("fs1").dlfm.repository.linked_file(paths[0]) is None

    def test_branch_goes_through_prepared_state(self):
        system, alice, paths, _ = build_system(ControlMode.RFD, files=1, link=False)
        dlfm = system.file_server("fs1").dlfm
        observed_states = []
        original_prepare = dlfm.repository.db.prepare

        def spying_prepare(txn, extra=None):
            original_prepare(txn, extra)
            observed_states.append(txn.state)

        dlfm.repository.db.prepare = spying_prepare
        url = system.engine.make_url("fs1", paths[0])
        alice.insert(FILES_TABLE, {"doc_id": 0, "body": url,
                                   "body_size": 0, "body_mtime": 0.0})
        assert observed_states == [TxnState.PREPARED]

    def test_transaction_spanning_two_file_servers(self):
        system, alice, paths, _ = build_system(ControlMode.RFD, files=1, link=False)
        system.add_file_server("fs2")
        url1 = system.engine.make_url("fs1", paths[0])
        url2 = alice.put_file("fs2", "/mirror/copy.dat", b"mirror")
        alice.begin()
        alice.insert(FILES_TABLE, {"doc_id": 0, "body": url1,
                                   "body_size": 0, "body_mtime": 0.0})
        alice.insert(FILES_TABLE, {"doc_id": 1, "body": url2,
                                   "body_size": 0, "body_mtime": 0.0})
        alice.commit()
        assert system.file_server("fs1").dlfm.repository.linked_file(paths[0])
        assert system.file_server("fs2").dlfm.repository.linked_file("/mirror/copy.dat")

    def test_unknown_file_server_in_url_rejected(self, rfd_system):
        system, alice, _, _ = rfd_system
        with pytest.raises(DataLinksError):
            alice.insert(FILES_TABLE, {"doc_id": 77,
                                       "body": "dlfs://nowhere/f.bin",
                                       "body_size": 0, "body_mtime": 0.0})

    def test_session_requires_matching_begin_commit(self, rfd_system):
        _, alice, _, _ = rfd_system
        with pytest.raises(DataLinksError):
            alice.commit()
        alice.begin()
        with pytest.raises(DataLinksError):
            alice.begin()
        alice.abort()


class TestCheckInCheckOut:
    def test_exclusive_checkout(self, rfd_system):
        system, _, paths, _ = rfd_system
        cico = CheckInCheckOutManager(system.host_db, system.clock)
        cico.check_out("fs1", paths[0], ALICE_UID)
        with pytest.raises(CheckoutConflictError):
            cico.check_out("fs1", paths[0], BOB_UID)
        assert cico.conflicts == 1
        assert cico.holder_of("fs1", paths[0]) == ALICE_UID

    def test_check_in_releases_and_reports_hold_time(self, rfd_system):
        system, _, paths, _ = rfd_system
        cico = CheckInCheckOutManager(system.host_db, system.clock)
        cico.check_out("fs1", paths[0], ALICE_UID)
        system.clock.advance(5.0)
        held = cico.check_in("fs1", paths[0], ALICE_UID)
        assert held >= 5.0
        # now another user can check the file out
        cico.check_out("fs1", paths[0], BOB_UID)

    def test_check_in_by_non_holder_rejected(self, rfd_system):
        system, _, paths, _ = rfd_system
        cico = CheckInCheckOutManager(system.host_db, system.clock)
        cico.check_out("fs1", paths[0], ALICE_UID)
        with pytest.raises(DataLinksError):
            cico.check_in("fs1", paths[0], BOB_UID)

    def test_each_checkout_is_a_database_update(self, rfd_system):
        system, _, paths, _ = rfd_system
        cico = CheckInCheckOutManager(system.host_db, system.clock)
        before = len(system.host_db.wal)
        cico.check_out("fs1", paths[0], ALICE_UID)
        cico.check_in("fs1", paths[0], ALICE_UID)
        assert len(system.host_db.wal) > before


class TestCopyAndUpdate:
    def _manager(self, system):
        return CopyAndUpdateManager({"fs1": system.file_server("fs1").files})

    def test_private_copies_do_not_touch_master(self):
        system, _, paths, _ = build_system(None)
        cau = self._manager(system)
        copy = cau.make_copy("fs1", paths[0], ALICE_UID)
        cau.write_copy(copy, b"private edit")
        assert system.file_server("fs1").files.read(paths[0]) != b"private edit"

    def test_lost_update_with_blind_overwrite(self):
        system, _, paths, _ = build_system(None)
        cau = self._manager(system)
        alice_copy = cau.make_copy("fs1", paths[0], ALICE_UID)
        bob_copy = cau.make_copy("fs1", paths[0], BOB_UID)
        cau.write_copy(alice_copy, b"alice's work")
        cau.write_copy(bob_copy, b"bob's work")
        cau.check_in(alice_copy, policy="overwrite")
        result = cau.check_in(bob_copy, policy="overwrite")
        assert result["lost_update"] is True
        assert cau.lost_updates == 1
        # Bob's blind overwrite erased Alice's published work
        assert system.file_server("fs1").files.read(paths[0]) == b"bob's work"

    def test_detect_policy_raises_merge_conflict(self):
        system, _, paths, _ = build_system(None)
        cau = self._manager(system)
        alice_copy = cau.make_copy("fs1", paths[0], ALICE_UID)
        bob_copy = cau.make_copy("fs1", paths[0], BOB_UID)
        cau.write_copy(alice_copy, b"alice's work")
        cau.check_in(alice_copy)
        cau.write_copy(bob_copy, b"bob's work")
        with pytest.raises(MergeConflictError):
            cau.check_in(bob_copy, policy="detect")
        assert cau.conflicts_detected == 1

    def test_sequential_checkins_conflict_free(self):
        system, _, paths, _ = build_system(None)
        cau = self._manager(system)
        copy = cau.make_copy("fs1", paths[0], ALICE_UID)
        cau.write_copy(copy, b"first")
        cau.check_in(copy)
        copy2 = cau.make_copy("fs1", paths[0], ALICE_UID)
        cau.write_copy(copy2, b"second")
        cau.check_in(copy2)
        assert system.file_server("fs1").files.read(paths[0]) == b"second"
        assert cau.lost_updates == 0


class TestBlobStore:
    def test_blob_store_roundtrip_and_stat(self, clock):
        from repro.storage.database import Database

        store = BlobFileStore(Database("host", clock), clock)
        store.write("/pages/a.html", b"<html>a</html>")
        assert store.read("/pages/a.html") == b"<html>a</html>"
        assert store.exists("/pages/a.html")
        assert store.stat("/pages/a.html")["size"] == 14
        store.write("/pages/a.html", b"<html>aa</html>")
        assert store.stat("/pages/a.html")["size"] == 15
        store.delete("/pages/a.html")
        assert not store.exists("/pages/a.html")
        with pytest.raises(DataLinksError):
            store.read("/pages/a.html")

    def test_blob_reads_pay_per_byte_database_cost(self, clock):
        from repro.storage.database import Database

        store = BlobFileStore(Database("host", clock), clock)
        store.write("/big.bin", b"x" * (1024 * 1024))
        before = clock.now()
        store.read("/big.bin")
        elapsed_large = clock.now() - before
        store.write("/small.bin", b"x")
        before = clock.now()
        store.read("/small.bin")
        elapsed_small = clock.now() - before
        assert elapsed_large > elapsed_small * 10
