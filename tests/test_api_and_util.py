"""Public API surface, simulated clock, and small utility modules."""

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.errors import (DaemonUnavailableError, DataLinksError,
                          MalformedURLError, ReproError)
from repro.fs.vfs import OpenFlags
from repro.simclock import CostModel, SimClock
from repro.util.lsn import LSN, NULL_LSN
from tests.conftest import FILES_TABLE, build_system


class TestSimClock:
    def test_charge_advances_time_and_records_stats(self):
        clock = SimClock()
        spent = clock.charge("sql_statement_base", times=2)
        assert clock.now() == pytest.approx(spent)
        assert clock.stats.count("sql_statement_base") == 1
        assert clock.stats.total("sql_statement_base") == pytest.approx(spent)

    def test_per_byte_charges(self):
        clock = SimClock()
        one_mb = clock.charge("disk_transfer_per_byte", nbytes=1024 * 1024)
        assert one_mb == pytest.approx(clock.costs.disk_transfer_per_byte * 1024 * 1024)

    def test_scale_parameter(self):
        clock = SimClock()
        full = clock.costs.sql_statement_base
        charged = clock.charge("sql_statement_base", scale=0.1)
        assert charged == pytest.approx(full * 0.1)

    def test_advance_rejects_negative(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_stopwatch_measures_interval(self):
        clock = SimClock()
        with clock.measure() as timer:
            clock.advance(0.25)
        assert timer.elapsed == pytest.approx(0.25)
        assert timer.elapsed_ms == pytest.approx(250.0)

    def test_cost_model_scaled_copy(self):
        model = CostModel()
        doubled = model.scaled(2.0)
        assert doubled.disk_seek == pytest.approx(model.disk_seek * 2)
        assert model.disk_seek == CostModel().disk_seek   # original untouched
        # A DLFM statement scales by the factor, not its square.
        base, half = SimClock(model), SimClock(model.scaled(0.5))
        assert 2 * half.unit_ticks("row_write", half.costs.dlfm_repository_scale) \
            == base.unit_ticks("row_write", model.dlfm_repository_scale)


class TestUtilities:
    def test_lsn_ordering_and_hash(self):
        assert LSN(2) > LSN(1)
        assert LSN(3) == 3
        assert LSN(0) == NULL_LSN
        assert hash(LSN(7)) == hash(LSN(7))
        assert LSN(4).next() == LSN(5)
        assert int(LSN(9)) == 9


class TestSessionAPI:
    def test_put_file_creates_directories_and_returns_url(self, rfd_system):
        system, alice, _, _ = rfd_system
        url = alice.put_file("fs1", "/deep/nested/dir/file.txt", b"payload")
        assert url == "dlfs://fs1/deep/nested/dir/file.txt"
        assert alice.fs("fs1").read_file("/deep/nested/dir/file.txt") == b"payload"

    def test_put_file_to_a_down_server_is_refused(self, rfd_system):
        """A crashed plain file server takes no put: nothing reaches its
        disk and its clock does not move.  After its restart the put goes."""

        system, alice, _, _ = rfd_system
        server = system.file_server("fs1")
        system.crash("fs1")
        ticks = server.clock.ticks
        with pytest.raises(DaemonUnavailableError, match="fs1"):
            alice.put_file("fs1", "/down/file.txt", b"payload")
        assert server.clock.ticks == ticks
        assert not server.files.exists("/down/file.txt")
        system.restart("fs1")
        alice.put_file("fs1", "/down/file.txt", b"payload")
        assert server.files.read("/down/file.txt") == b"payload"

    def test_select_returns_the_stored_url(self, rfd_system):
        _, alice, _, urls = rfd_system
        rows = alice.select(FILES_TABLE, {"doc_id": 0})
        assert [row["body"] for row in rows] == [urls[0]]

    def test_open_url_respects_flags(self, rdd_system):
        system, alice, _, _ = rdd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="read")
        fd = alice.open_url(url, OpenFlags.READ)
        assert len(system.file_server("fs1").lfs.read(fd, 10)) == 10
        system.file_server("fs1").lfs.close(fd)

    def test_bound_fs_operations(self, rfd_system):
        system, alice, _, _ = rfd_system
        fs = alice.fs("fs1")
        assert fs.write_file("/library/x.txt", b"abc") == 3
        assert fs.read_file("/library/x.txt") == b"abc"
        fs.write_file("/library/x.txt", b"abcd", create=False)
        fs.rename("/library/x.txt", "/library/y.txt")
        assert fs.read_file("/library/y.txt") == b"abcd"
        assert not system.file_server("fs1").files.exists("/library/x.txt")
        fs.unlink("/library/y.txt")
        assert not system.file_server("fs1").files.exists("/library/y.txt")

    def test_duplicate_file_server_name_rejected(self, rfd_system):
        system, _, _, _ = rfd_system
        with pytest.raises(DataLinksError):
            system.add_file_server("fs1")

    def test_unknown_file_server_lookup_rejected(self, rfd_system):
        system, _, _, _ = rfd_system
        with pytest.raises(DataLinksError):
            system.file_server("does-not-exist")

    def test_top_level_package_exports(self):
        import repro

        assert repro.__version__
        system = repro.DataLinksSystem()
        assert isinstance(system.clock, repro.SimClock)
        assert repro.ControlMode.RFD.supports_update

    def test_sessions_are_isolated_by_credentials(self):
        system, alice, paths, _ = build_system(ControlMode.RFD)
        mallory = system.session("mallory", uid=6666)
        with pytest.raises(Exception):
            mallory.fs("fs1").write_file(paths[0], b"defaced", create=False)
        # mallory can still read (rfd leaves read access with the file system)
        assert len(mallory.fs("fs1").read_file(paths[0])) == 4096


MALFORMED_URLS = ["garbage", "dlfs://fs1", "dlfs:///x"]


@pytest.mark.parametrize("text", MALFORMED_URLS)
class TestMalformedURLIsATypedError:
    """Text that is not ``scheme://server/path`` is a typed error on the
    read side too (the write side always said ``TypeMismatchError``): a
    ``ReproError`` a caller can catch, and still the ``ValueError`` it
    used to be."""

    def test_parse_url_raises_the_typed_error(self, text):
        from repro.util.urls import parse_url

        with pytest.raises(MalformedURLError) as excinfo:
            parse_url(text)
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, ValueError)
        assert text in str(excinfo.value)

    def test_session_entry_points(self, rfd_system, text):
        _, alice, _, _ = rfd_system
        for call in (lambda: alice.read_url(text),
                     lambda: alice.open_url(text, OpenFlags.READ),
                     lambda: alice.update_file(text)):
            with pytest.raises(ReproError):
                call()

    def test_sharded_read_and_update_in_place_entry_points(self, text):
        from repro.datalinks.sharding import ShardedDataLinksDeployment
        from repro.datalinks.uip import FileUpdateTransaction, tokenized_path

        deployment = ShardedDataLinksDeployment(shards=2)
        session = deployment.session("alice", uid=1001)
        with pytest.raises(ReproError):
            deployment.read_url(session, text)
        with pytest.raises(ReproError):
            tokenized_path(text)
        shard = deployment.shard(deployment.shard_names[0])
        with pytest.raises(ReproError):
            FileUpdateTransaction(shard.lfs, text, session.cred)
