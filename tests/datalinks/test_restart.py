"""``crash(node)`` / ``restart(node)`` over every kind of node.

A restart is the whole recovery: the host's restart resolves every running
DLFM's live branches, a file server's restart resolves its own in-doubt
branches and gives a replicated node what its current role is owed, and
nothing else is left for the caller to run.
"""

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.routing import NodeRole
from repro.errors import DataLinksError, ReproError
from repro.util.urls import parse_url
from tests.conftest import (ALICE_UID, FILES_TABLE, SHARD_TABLE, InjectedCrash,
                            assert_archive_reachable, boom, build_deployment,
                            build_system, prefix_on)
from tests.datalinks.test_recovery_and_backup import (
    REPL_TABLE, _read_all, _rebalance_setup, assert_placement_agreement,
    assert_replicated_agreement)


def assert_host_dlfm_agreement(system, table=FILES_TABLE, column="body"):
    """The linked files on every DLFM equal the DATALINK column contents."""

    expected = {name: set() for name in system.file_servers}
    for row in system.host_db.select(table, lock=False):
        url = row.get(column)
        if url:
            parsed = parse_url(url)
            expected[parsed.server].add(parsed.path)
    for name, server in system.file_servers.items():
        linked = {row["path"] for row in server.dlfm.repository.linked_files()}
        assert linked == expected[name], (
            f"{name}: DLFM has {sorted(linked)}, host says {sorted(expected[name])}")


def assert_archive_owed(system):
    """Every linked recovery file has an archived version or a queued
    archive job: no committed link or update lost the job it is owed."""

    for name, server in system.file_servers.items():
        repository = server.dlfm.repository
        for row in repository.linked_files():
            if row["recovery"]:
                assert repository.versions(row["path"]) or \
                    repository.pending_archive_jobs(row["path"]), \
                    f"{name}: {row['path']!r} has no version and no job"


def _two_server_setup():
    """A system with fs1 and fs2 and an unlinked file on each; returns the
    system, the session and the two files' URLs."""

    system, alice, _, (url,) = build_system(None)
    system.add_file_server("fs2")
    return system, alice, url, alice.put_file("fs2", "/mirror/doc0.dat",
                                              b"mirror copy")


def _start_linking_txn(system, url1, url2):
    host_txn = system.engine.begin()
    system.engine.insert_many(FILES_TABLE, [
        {"doc_id": 0, "title": "a", "body": url1, "body_size": 0, "body_mtime": 0.0},
        {"doc_id": 1, "title": "b", "body": url2, "body_size": 0, "body_mtime": 0.0},
    ], host_txn)
    return host_txn


class TestRestartIsRecovery:
    """``crash(node)`` then ``restart(node)`` is the whole recovery of every
    kind of node: with no other step, the host and every DLFM agree, every
    linked file reads back and every replicated node holds the role its
    restart owes it."""

    S, W = NodeRole.SERVING, NodeRole.WITNESS
    #: kind -> (replicated, fail shard0 over first, node, shard0 roles after)
    KINDS = {
        "host": (True, False, "host", {"shard0": S, "shard0-r": W}),
        "plain file server": (False, False, "shard0", None),
        "shard primary": (True, False, "shard0", {"shard0": S, "shard0-r": W}),
        "witness": (True, False, "shard0-r", {"shard0": S, "shard0-r": W}),
        "serving witness": (True, True, "shard0-r",
                            {"shard0": NodeRole.DOWN, "shard0-r": S}),
        "deposed primary": (True, True, "shard0",
                            {"shard0": NodeRole.FENCED, "shard0-r": S}),
    }

    @staticmethod
    def _link(deployment, session, shards):
        """Link one more file on each of *shards* in one transaction."""

        host_txn = deployment.begin()
        for index, shard in enumerate(shards):
            path = f"{prefix_on(deployment, shard, '/new')}/doc.dat"
            deployment.engine.insert(REPL_TABLE, {
                "doc_id": 10 + index,
                "body": deployment.put_file(session, path, b"payload")},
                host_txn)
        deployment.commit(host_txn)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_restart_alone_recovers_every_kind_of_node(self, kind):
        replicated, fail_over, node, roles = self.KINDS[kind]
        deployment, session, _, _ = _rebalance_setup(replicated)
        if fail_over:
            deployment.crash("shard0")
            deployment.fail_over("shard0")
        if node == "host":
            # The crash interrupts a link once the host's COMMIT is durable
            # and every branch is prepared.
            deployment.engine.failpoints["commit:after_host_commit"] = boom(
                lambda: deployment.crash("host"))
            with pytest.raises(InjectedCrash):
                self._link(deployment, session, deployment.shard_names)
            deployment.engine.failpoints.clear()
            linked = 2
        else:
            if deployment.shard(node).running:
                deployment.crash(node)
            # Links go on wherever a shard still serves.
            serving = [shard for shard in deployment.shard_names
                       if (deployment.replicas[shard].serving if replicated
                           else deployment.shard(shard)).running]
            self._link(deployment, session, serving)
            linked = len(serving)
        deployment.restart(node)
        assert_archive_reachable(deployment)

        if replicated:
            assert deployment.router.roles("shard0") == roles
            assert_replicated_agreement(deployment)
            assert_placement_agreement(deployment)
        else:
            assert_host_dlfm_agreement(deployment.system, REPL_TABLE)
        assert len(deployment.host_db.select(REPL_TABLE, lock=False)) == \
            2 + linked
        _read_all(deployment, session)

    @pytest.mark.parametrize("replicated", [False, True])
    def test_an_unknown_node_or_a_running_one_is_refused(self, replicated):
        deployment, _, _, _ = _rebalance_setup(replicated)
        for verb in (deployment.crash, deployment.restart):
            with pytest.raises(DataLinksError, match="known nodes"):
                verb("fs9")
        for node in ["host", *deployment.system.file_servers]:
            with pytest.raises(DataLinksError, match="it is running"):
                deployment.restart(node)

    def test_admin_fan_out_skips_a_down_server(self):
        """A down file server stops neither the archiver nor housekeeping
        elsewhere; its own jobs wait in its queue for its restart."""

        system, alice, url1, url2 = _two_server_setup()
        system.engine.commit(_start_linking_txn(system, url1, url2))
        system.crash("fs2")
        assert system.run_archiver() == 1
        assert set(system.run_housekeeping()) == {"fs1"}
        system.restart("fs2")
        assert system.run_archiver() == 1
        assert_archive_owed(system)

    def test_admin_fan_out_skips_a_deposed_primary_that_is_down(self):
        """After a fail-over the promoted witness archives the shard's
        queue, and the archiver and housekeeping pass the deposed primary
        by while it is down."""

        deployment, session = build_deployment()
        url = deployment.put_file(
            session, f"{prefix_on(deployment, 'shard0')}/doc.dat", b"owed")
        session.insert(SHARD_TABLE, {"doc_id": 0, "body": url,
                                     "body_size": 0, "body_mtime": 0.0})
        deployment.crash("shard0")
        deployment.fail_over("shard0")
        assert deployment.system.run_archiver() == 1
        assert "shard0" not in deployment.system.run_housekeeping()


class TestALoserGivesItsFileBack:
    """A link branch whose records another branch's flush made durable
    before it voted is a loser at restart: recovery undoes its row, and
    the file goes back to its owner as it was before the link."""

    @pytest.mark.parametrize("mode", [ControlMode.RDD, ControlMode.RFD],
                             ids=lambda mode: mode.value)
    def test_a_link_undone_at_restart_gives_its_file_back(self, mode):
        system, _, paths, urls = build_system(mode, files=2, link=False)
        engine = system.engine
        lost = engine.begin()
        engine.insert(FILES_TABLE, {"doc_id": 0, "body": urls[0]}, lost)
        # fs1's prepare of this commit forces the lost link's records too.
        done = engine.begin()
        engine.insert(FILES_TABLE, {"doc_id": 1, "body": urls[1]}, done)
        engine.commit(done)

        system.crash("fs1")
        summary = system.restart("fs1")["repository"]
        assert summary["losers_undone"] and summary["undo_records"] == 2
        with pytest.raises(ReproError, match="must abort"):
            engine.commit(lost)
        engine.abort(lost)

        dlfm = system.file_server("fs1").dlfm
        assert dlfm.repository.linked_file(paths[0]) is None
        attrs = dlfm.files.stat(paths[0])
        assert (attrs.uid, attrs.mode) == (ALICE_UID, 0o644)
        assert dlfm.repository.linked_file(paths[1]) is not None
        assert_host_dlfm_agreement(system)
