"""Behavioral tests for epoched placement and the online prefix hand-off.

Covers the error polish of ``rebalance_prefix`` (descriptive
:class:`~repro.errors.PlacementError` for every refusal), the end-to-end
semantics of a committed move (old URLs resolve on the new owner, tokens
re-sign with the destination's secret, the archived version chain moves,
new links land on the destination), and the session-routing behavior:
update-in-place through the router across failover, and the retryable
:class:`~repro.errors.LeaseMovedError` when the lease moves mid-update.
"""

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.errors import (
    LeaseMovedError,
    PlacementEpochError,
    PlacementError,
)
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from tests.conftest import boom

TABLE = "moved_docs"


def build_deployment(shards=2, witnesses=1, replication=True,
                     mode=ControlMode.RFD, recovery=True,
                     follower_reads=True):
    deployment = ShardedDataLinksDeployment(
        shards, replication=replication, witnesses=witnesses,
        flush_policy="immediate", group_commit_window=1,
        follower_reads=follower_reads)
    deployment.create_table(TableSchema(TABLE, [
        Column("doc_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(control_mode=mode,
                                                recovery=recovery)),
        Column("body_size", DataType.INTEGER),
        Column("body_mtime", DataType.TIMESTAMP),
    ], primary_key=("doc_id",)))
    deployment.register_metadata_columns(TABLE, "body", "body_size",
                                         "body_mtime")
    return deployment, deployment.session("mover", uid=6001)


def link_docs(deployment, session, prefix, count, start=0):
    urls = []
    for index in range(count):
        doc_id = start + index
        url = deployment.put_file(session, f"{prefix}/doc{doc_id:04d}.dat",
                                  f"doc {doc_id}".encode())
        session.insert(TABLE, {"doc_id": doc_id, "body": url,
                               "body_size": 0, "body_mtime": 0.0})
        urls.append(url)
    deployment.system.run_archiver()
    deployment.system.flush_logs()
    return urls


def other_shard(deployment, shard):
    return next(name for name in deployment.shard_names if name != shard)


class TestRebalanceErrors:
    def test_unknown_destination_shard(self):
        deployment, session = build_deployment()
        link_docs(deployment, session, "/p", 1)
        with pytest.raises(PlacementError, match="no such shard"):
            deployment.rebalance_prefix("/p", "shard9")

    def test_unknown_prefix(self):
        deployment, session = build_deployment()
        with pytest.raises(PlacementError, match="unknown prefix"):
            deployment.rebalance_prefix("/never-linked", "shard1")

    def test_prefix_already_on_destination(self):
        deployment, session = build_deployment()
        link_docs(deployment, session, "/p", 1)
        home = deployment.shard_of("/p/doc0000.dat")
        with pytest.raises(PlacementError, match="already lives"):
            deployment.rebalance_prefix("/p", home)

    def test_non_replicated_destination(self):
        deployment, session = build_deployment(replication=False)
        link_docs(deployment, session, "/p", 1)
        dest = other_shard(deployment, deployment.shard_of("/p/doc0000.dat"))
        with pytest.raises(PlacementError, match="no witness replica"):
            deployment.rebalance_prefix("/p", dest)

    def test_not_a_routed_prefix(self):
        deployment, session = build_deployment()
        link_docs(deployment, session, "/p", 1)
        with pytest.raises(PlacementError, match="not a routed prefix"):
            deployment.rebalance_prefix("/p/doc0000.dat", "shard1")

    def test_in_flight_open_aborts_the_move_retryably(self):
        deployment, session = build_deployment()
        link_docs(deployment, session, "/p", 1)
        source = deployment.shard_of("/p/doc0000.dat")
        dest = other_shard(deployment, source)
        write_url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                         access="write", ttl=1e9)
        update = session.update_file(write_url, truncate=True)
        update.begin()
        with pytest.raises(PlacementError, match="in progress|is open"):
            deployment.rebalance_prefix("/p", dest)
        assert deployment.router.placement.epoch == 1
        update.abort()
        assert deployment.rebalance_prefix("/p", dest)["moved"]


class TestMoveSemantics:
    def test_old_urls_resolve_versions_move_and_new_links_land_on_dest(self):
        deployment, session = build_deployment(mode=ControlMode.RDB)
        urls = link_docs(deployment, session, "/p", 3)
        source = deployment.shard_of("/p/doc0000.dat")
        dest = other_shard(deployment, source)

        summary = deployment.rebalance_prefix("/p", dest)
        assert summary["moved_files"] == 3
        assert summary["moved_versions"] == 3
        assert summary["epoch"] == 2

        # old URLs (naming the source) read through the new owner, with
        # tokens signed by the destination's secret
        for doc_id, url in enumerate(urls):
            assert f"//{source}/" in url
            tokenized = session.get_datalink(TABLE, {"doc_id": doc_id},
                                             "body", access="read", ttl=1e9)
            assert deployment.read_url(session, tokenized) \
                == f"doc {doc_id}".encode()

        # the archived version chain re-attached on the destination
        dest_repo = deployment.replicas[dest].serving.dlfm.repository
        for doc_id in range(3):
            versions = dest_repo.versions(f"/p/doc{doc_id:04d}.dat")
            assert [row["version_no"] for row in versions] == [1]
        source_repo = deployment.replicas[source].serving.dlfm.repository
        assert source_repo.versions("/p/doc0000.dat") == []
        assert source_repo.linked_file("/p/doc0000.dat") is None

        # new links to the moved prefix land on the destination
        url = deployment.put_file(session, "/p/new.dat", b"new")
        session.insert(TABLE, {"doc_id": 99, "body": url,
                               "body_size": 0, "body_mtime": 0.0})
        assert f"//{dest}/" in url
        assert dest_repo.linked_file("/p/new.dat") is not None

    def test_update_in_place_and_rollback_work_on_the_new_owner(self):
        """The moved version chain is live: an aborted update on the
        destination restores the last committed version archived on the
        *source* before the move."""

        deployment, session = build_deployment()
        link_docs(deployment, session, "/p", 1)
        source = deployment.shard_of("/p/doc0000.dat")
        dest = other_shard(deployment, source)
        deployment.rebalance_prefix("/p", dest)

        write_url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                         access="write", ttl=1e9)
        try:
            with session.update_file(write_url, truncate=True) as update:
                update.write(b"partial garbage")
                raise RuntimeError("application failure")
        except RuntimeError:
            pass
        read_url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                        access="read", ttl=1e9)
        assert deployment.read_url(session, read_url) == b"doc 0"

    def test_metadata_maintenance_follows_the_move(self):
        """Close processing on the destination updates the registered
        size/mtime columns even though the row's URL names the source."""

        deployment, session = build_deployment()
        link_docs(deployment, session, "/p", 1)
        source = deployment.shard_of("/p/doc0000.dat")
        deployment.rebalance_prefix("/p", other_shard(deployment, source))

        write_url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                         access="write", ttl=1e9)
        with session.update_file(write_url, truncate=True) as update:
            update.replace(b"resized content after the move")
        row = deployment.host_db.select_one(TABLE, {"doc_id": 0}, lock=False)
        assert row["body_size"] == len(b"resized content after the move")

    def test_moving_prefix_refuses_links_with_retryable_error(self):
        deployment, session = build_deployment()
        link_docs(deployment, session, "/p", 1)
        source = deployment.shard_of("/p/doc0000.dat")
        dest = other_shard(deployment, source)
        observed = {}

        def probe():
            try:
                url = deployment.put_file(session, "/p/mid-move.dat", b"x")
                session.insert(TABLE, {"doc_id": 50, "body": url,
                                       "body_size": 0, "body_mtime": 0.0})
                observed["outcome"] = "linked"
            except PlacementError as error:
                observed["outcome"] = "refused"
                observed["error"] = str(error)

        deployment.engine.failpoints["rebalance:import"] = probe
        try:
            deployment.rebalance_prefix("/p", dest)
        finally:
            deployment.engine.failpoints.clear()
        assert observed["outcome"] == "refused"
        assert "being rebalanced" in observed["error"]
        # after the hand-off the same link succeeds, on the destination
        url = deployment.put_file(session, "/p/mid-move.dat", b"x")
        session.insert(TABLE, {"doc_id": 50, "body": url,
                               "body_size": 0, "body_mtime": 0.0})
        assert f"//{dest}/" in url

    def test_stale_engine_dispatch_redirects_and_commits(self):
        """An engine acting on a stale map dispatches to the old owner;
        the refusal redirects the batch to the new owner and the
        transaction still *commits* -- the refused server must not stay
        enlisted, or the prepare fan-out would abort it."""

        deployment, session = build_deployment()
        link_docs(deployment, session, "/p", 1)
        source = deployment.shard_of("/p/doc0000.dat")
        dest = other_shard(deployment, source)
        deployment.rebalance_prefix("/p", dest)

        engine = deployment.engine
        deployment.put_file(session, "/p/stale-dispatch.dat", b"late")
        host_txn = engine.begin()
        options = DatalinkOptions(control_mode=ControlMode.RFF,
                                  recovery=False)
        # Simulate the stale consumer: dispatch straight at the ex-owner.
        engine._dispatch_links(host_txn, source, None,
                               [("/p/stale-dispatch.dat", options)])
        assert host_txn.servers == {dest}
        engine.commit(host_txn)
        assert deployment.router.stale_epoch_redirects == 1
        dest_repo = deployment.replicas[dest].serving.dlfm.repository
        assert dest_repo.linked_file("/p/stale-dispatch.dat") is not None
        source_repo = deployment.replicas[source].serving.dlfm.repository
        assert source_repo.linked_file("/p/stale-dispatch.dat") is None

    def test_placement_stats_surface_epoch_and_overrides(self):
        deployment, session = build_deployment()
        link_docs(deployment, session, "/p", 1)
        source = deployment.shard_of("/p/doc0000.dat")
        dest = other_shard(deployment, source)
        deployment.rebalance_prefix("/p", dest)
        placement = deployment.stats()["routing"]["placement"]
        assert placement["epoch"] == 2
        assert placement["moves"] == 1
        assert placement["overrides"] == {"/p": dest}
        assert placement["moving"] == {}


class TestSessionRouting:
    def test_update_in_place_keeps_working_after_crash_failover(self):
        """The ROADMAP satellite: session file handles resolve through the
        router, so a write-token update of a failed-over shard reaches the
        promoted witness instead of the crashed primary."""

        deployment, session = build_deployment()
        link_docs(deployment, session, "/p", 1)
        shard = deployment.shard_of("/p/doc0000.dat")
        write_url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                         access="write", ttl=1e9)
        deployment.crash(shard)
        deployment.fail_over(shard)
        with session.update_file(write_url, truncate=True) as update:
            update.replace(b"updated on the promoted witness")
        read_url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                        access="read", ttl=1e9)
        assert deployment.read_url(session, read_url) \
            == b"updated on the promoted witness"
        row = deployment.host_db.select_one(TABLE, {"doc_id": 0}, lock=False)
        assert row["body_size"] == len(b"updated on the promoted witness")

    def test_lease_moving_mid_update_aborts_with_retryable_error(self):
        # Follower reads off: in-place updates do not ship file bytes to
        # witnesses yet (the "mirror the data path" ROADMAP item), so the
        # post-retry reads must deterministically hit the serving node.
        deployment, session = build_deployment(follower_reads=False)
        link_docs(deployment, session, "/p", 1)
        shard = deployment.shard_of("/p/doc0000.dat")
        write_url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                         access="write", ttl=1e9)
        update = session.update_file(write_url, truncate=True)
        update.begin()
        update.write(b"doomed")
        # a planned hand-off moves the lease mid-update
        replica = deployment.replicas[shard]
        replica.promote_to(replica.witness.name)
        with pytest.raises(LeaseMovedError):
            update.commit()
        assert update.aborted and not update.committed
        # the update rolled back and a retry against the new serving
        # node succeeds
        read_url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                        access="read", ttl=1e9)
        assert deployment.read_url(session, read_url) == b"doc 0"
        retry_url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                         access="write", ttl=1e9)
        with session.update_file(retry_url, truncate=True) as retry:
            retry.replace(b"retried on the new serving node")
        read_url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                        access="read", ttl=1e9)
        assert deployment.read_url(session, read_url) \
            == b"retried on the new serving node"

    def test_session_read_url_routes_without_explicit_server(self):
        """Session.read_url with no server override resolves through the
        router: a crashed primary's URL reads from the promoted witness."""

        deployment, session = build_deployment(mode=ControlMode.RDB)
        link_docs(deployment, session, "/p", 1)
        shard = deployment.shard_of("/p/doc0000.dat")
        tokenized = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                         access="read", ttl=1e9)
        deployment.crash(shard)
        deployment.fail_over(shard)
        assert session.read_url(tokenized) == b"doc 0"

    def test_straggler_write_to_ex_owner_names_the_new_owner(self):
        deployment, session = build_deployment()
        link_docs(deployment, session, "/p", 1)
        source = deployment.shard_of("/p/doc0000.dat")
        dest = other_shard(deployment, source)
        deployment.rebalance_prefix("/p", dest)
        with pytest.raises(PlacementEpochError) as excinfo:
            deployment.shard(source).dlfm.check_placement("/p/doc0000.dat")
        assert excinfo.value.owner == dest
        assert excinfo.value.prefix == "/p"
        assert excinfo.value.epoch == 2


class TestDualServe:
    """Reads of a moving prefix are served throughout the hand-off window."""

    POINTS = ("rebalance:export", "rebalance:archive",
              "rebalance:import", "rebalance:fence")

    def test_reads_of_moving_prefix_never_fail_mid_move(self):
        """Between rebalance_export's in-branch deletes and the commit the
        source repository has no rows for the moving files; the pre-export
        dual-serve snapshot must keep resolving their ino upcalls so every
        read inside the window succeeds (the move is read-invisible)."""

        deployment, session = build_deployment(mode=ControlMode.RDB)
        link_docs(deployment, session, "/p", 3)
        source = deployment.shard_of("/p/doc0000.dat")
        dest = other_shard(deployment, source)
        tokenized = [session.get_datalink(TABLE, {"doc_id": doc_id}, "body",
                                          access="read", ttl=1e9)
                     for doc_id in range(3)]
        served = {"reads": 0}

        def read_all():
            for doc_id, url in enumerate(tokenized):
                assert deployment.read_url(session, url) \
                    == f"doc {doc_id}".encode()
                served["reads"] += 1

        for point in self.POINTS:
            deployment.engine.failpoints[point] = read_all
        try:
            summary = deployment.rebalance_prefix("/p", dest)
        finally:
            deployment.engine.failpoints.clear()
        assert summary["moved"]
        assert served["reads"] == 3 * len(self.POINTS)
        # the snapshot is released once the hand-off resolves
        for node in deployment.replicas[source].nodes.values():
            assert not node.dlfm._moving_exports

    def test_snapshot_released_when_the_move_aborts(self):
        deployment, session = build_deployment(mode=ControlMode.RDB)
        link_docs(deployment, session, "/p", 1)
        source = deployment.shard_of("/p/doc0000.dat")
        dest = other_shard(deployment, source)

        deployment.engine.failpoints["rebalance:import"] = boom(
            raises=PlacementError("injected mid-move failure"))
        try:
            with pytest.raises(PlacementError, match="injected"):
                deployment.rebalance_prefix("/p", dest)
        finally:
            deployment.engine.failpoints.clear()
        for node in deployment.replicas[source].nodes.values():
            assert not node.dlfm._moving_exports
        tokenized = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                         access="read", ttl=1e9)
        assert deployment.read_url(session, tokenized) == b"doc 0"


class TestSourceSweep:
    """Post-move GC: the moved prefix's bytes leave the fenced source."""

    def test_committed_move_sweeps_source_bytes(self):
        deployment, session = build_deployment()
        link_docs(deployment, session, "/p", 2)
        source = deployment.shard_of("/p/doc0000.dat")
        dest = other_shard(deployment, source)
        paths = ["/p/doc0000.dat", "/p/doc0001.dat"]
        source_nodes = list(deployment.replicas[source].nodes.values())
        for path in paths:
            assert any(node.files.exists(path) for node in source_nodes)

        summary = deployment.rebalance_prefix("/p", dest)
        assert summary["moved"]
        assert summary["swept_files"] > 0
        assert not summary["sweep_deferred"]
        assert not deployment.pending_sweeps
        # physical bytes are gone from every source node, present on dest
        for path in paths:
            for node in source_nodes:
                assert not node.files.exists(path)
            assert deployment.router.serving_server(dest).files.exists(path)
        # and the moved files still read end to end
        for doc_id in range(2):
            tokenized = session.get_datalink(TABLE, {"doc_id": doc_id},
                                             "body", access="read", ttl=1e9)
            assert deployment.read_url(session, tokenized) \
                == f"doc {doc_id}".encode()

    def test_sweep_defers_while_a_source_node_is_down(self):
        """The sweep refuses to delete while any source node is down (a
        partially swept prefix would leak on the recovering node); the
        entry stays pending and the node's restart finishes the job."""

        deployment, session = build_deployment()
        link_docs(deployment, session, "/p", 1)
        source = deployment.shard_of("/p/doc0000.dat")
        dest = other_shard(deployment, source)
        deployment.engine.failpoints["rebalance:sweep"] = boom(
            lambda: deployment.crash(f"{source}-r"), raises=None)
        try:
            summary = deployment.rebalance_prefix("/p", dest)
        finally:
            deployment.engine.failpoints.clear()
        assert summary["moved"]
        assert summary["sweep_deferred"]
        assert "/p" in deployment.pending_sweeps

        restarted = deployment.restart(f"{source}-r")
        assert restarted["redriven_sweeps"]["/p"] > 0
        assert not deployment.pending_sweeps
        for node in deployment.replicas[source].nodes.values():
            assert not node.files.exists("/p/doc0000.dat")
