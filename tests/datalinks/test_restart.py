"""``crash(node)`` / ``restart(node)`` over every kind of node.

A restart is the whole recovery: the host's restart resolves every running
DLFM's live branches, a file server's restart resolves its own in-doubt
branches and gives a replicated node what its current role is owed, and
nothing else is left for the caller to run.
"""

import pytest

from repro.datalinks.routing import NodeRole
from repro.errors import DataLinksError
from tests.conftest import (SHARD_TABLE, InjectedCrash, boom,
                            build_deployment, prefix_on)
from tests.datalinks.test_recovery_and_backup import (
    REPL_TABLE, _read_all, _rebalance_setup, _start_linking_txn,
    _two_server_setup, assert_archive_owed, assert_host_dlfm_agreement,
    assert_placement_agreement, assert_replicated_agreement)


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
