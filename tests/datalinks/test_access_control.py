"""Access-control tests: tokens, control modes and the open-time checks."""

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.errors import ControlModeError, Errno, FileSystemError
from repro.fs.vfs import OpenFlags
from tests.conftest import BOB_UID, FILES_TABLE, build_system


class TestReadAccess:
    def test_rfd_read_needs_no_token(self, rfd_system):
        system, alice, paths, _ = rfd_system
        data = alice.fs("fs1").read_file(paths[0])
        assert len(data) == 4096

    def test_rdd_read_without_token_denied(self, rdd_system):
        system, alice, paths, _ = rdd_system
        with pytest.raises(FileSystemError) as info:
            alice.fs("fs1").read_file(paths[0])
        assert info.value.errno is Errno.EACCES

    def test_rdd_read_with_token_allowed(self, rdd_system):
        system, alice, _, _ = rdd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="read")
        assert ";token=" in url
        assert len(alice.read_url(url)) == 4096

    def test_rdb_read_with_token_allowed_but_write_blocked(self, rdb_system):
        system, alice, _, _ = rdb_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="read")
        assert len(alice.read_url(url)) == 4096
        with pytest.raises(ControlModeError):
            alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")

    def test_read_token_of_another_user_does_not_help(self, rdd_system):
        """Token entries are keyed by user id (Section 4.1)."""

        system, alice, paths, _ = rdd_system
        bob = system.session("bob", uid=BOB_UID)
        alice_url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="read")
        # Alice's lookup registers *her* token entry; Bob opening with the
        # same tokenized name registers an entry for Bob (the token itself is
        # not user-bound), so both users can read -- but Bob cannot reuse
        # Alice's *entry* without presenting the token: a bare open fails.
        with pytest.raises(FileSystemError):
            bob.fs("fs1").read_file(paths[0])
        assert len(bob.read_url(alice_url)) == 4096

    def test_rff_read_goes_through_plain_file_system(self):
        system, alice, paths, _ = build_system(ControlMode.RFF)
        # upcalls charge the file server's clock domain; count cluster-wide
        before = system.clocks.stats.count("upcall_round_trip")
        alice.fs("fs1").read_file(paths[0])
        assert system.clocks.stats.count("upcall_round_trip") == before


class TestWriteAccess:
    def test_write_without_token_denied_in_every_update_mode(self):
        for mode in (ControlMode.RFD, ControlMode.RDD):
            system, alice, paths, _ = build_system(mode)
            with pytest.raises(FileSystemError) as info:
                alice.fs("fs1").write_file(paths[0], b"overwrite", create=False)
            assert info.value.errno is Errno.EACCES

    def test_write_blocked_modes_cannot_get_write_tokens(self):
        for mode in (ControlMode.RFB, ControlMode.RDB):
            system, alice, _, _ = build_system(mode)
            with pytest.raises(ControlModeError):
                alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")

    def test_rfb_file_is_read_only_for_everyone(self):
        system, alice, paths, _ = build_system(ControlMode.RFB)
        with pytest.raises(FileSystemError):
            alice.fs("fs1").write_file(paths[0], b"x", create=False)
        assert len(alice.fs("fs1").read_file(paths[0])) == 4096

    def test_read_token_cannot_be_used_for_write(self, rdd_system):
        """The token type must match the open mode (Section 4.1)."""

        system, alice, _, _ = rdd_system
        read_url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="read")
        with pytest.raises(FileSystemError) as info:
            alice.open_url(read_url, OpenFlags.READ | OpenFlags.WRITE)
        assert info.value.errno is Errno.EACCES

    def test_write_token_allows_update(self, rfd_system):
        system, alice, paths, _ = rfd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        with alice.update_file(url, truncate=True) as update:
            update.replace(b"new content")
        assert alice.fs("fs1").read_file(paths[0]) == b"new content"

    def test_expired_write_token_rejected(self, rfd_system):
        system, alice, _, _ = rfd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body",
                                 access="write", ttl=0.5)
        system.clock.advance(2.0)
        with pytest.raises(FileSystemError) as info:
            alice.update_file(url).begin()
        assert info.value.errno is Errno.EACCES

    def test_forged_token_rejected(self, rfd_system):
        system, alice, _, _ = rfd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        forged = url.replace(";token=W-", ";token=W-9")
        with pytest.raises(FileSystemError):
            alice.update_file(forged).begin()

    def test_token_for_one_file_does_not_open_another(self):
        system, alice, paths, _ = build_system(ControlMode.RFD, files=2)
        url0 = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        token = url0.rsplit(";token=", 1)[1]
        with pytest.raises(FileSystemError):
            system.file_server("fs1").lfs.open(
                f"{paths[1]};token={token}", OpenFlags.READ | OpenFlags.WRITE,
                alice.cred)

    def test_unlinked_file_with_token_suffix_opens_normally(self):
        system, alice, _, _ = build_system(None)
        alice.fs("fs1").write_file("/library/free.txt", b"not linked")
        data = alice.fs("fs1").read_file("/library/free.txt;token=R-1.0-bogus")
        assert data == b"not linked"


class TestTokenHandout:
    def test_get_datalink_returns_none_for_missing_row(self, rfd_system):
        _, alice, _, _ = rfd_system
        assert alice.get_datalink(FILES_TABLE, {"doc_id": 99}, "body") is None

    def test_get_datalink_requires_datalink_column(self, rfd_system):
        _, alice, _, _ = rfd_system
        with pytest.raises(ControlModeError):
            alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "title")

    def test_read_of_fs_controlled_mode_gets_no_token(self):
        system, alice, _, _ = build_system(ControlMode.RFF)
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="read")
        assert ";token=" not in url

    def test_unknown_access_kind_rejected(self, rfd_system):
        _, alice, _, _ = rfd_system
        with pytest.raises(ControlModeError):
            alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="execute")
