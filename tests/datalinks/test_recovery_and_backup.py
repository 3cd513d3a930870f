"""Crash recovery beyond the protocol model, replication, rebalance and
backup/restore.

Every recovery here is ``crash(node)`` then ``restart(node)``, with no
other step.  The crashes of one host and its file servers at every step
and every two-phase-commit point of link, unlink and update in place are
enumerated against the reference model in ``test_protocol_model.py``;
what stays here is what that model does not play: a read while a server
is down, the archive sweep across crashes, the replication failover matrix
(an injected primary crash swept through every replication step -- ship,
apply, promote, catch-up, fence -- and through every two-phase-commit step
with witness replication enabled), the rebalance crash matrix and
coordinated backup/restore.
"""

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.errors import PlacementEpochError, ReproError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.util.urls import parse_url
from tests.conftest import (FILES_TABLE, SHARD_TABLE, InjectedCrash,
                            assert_archive_reachable, boom, build_deployment,
                            build_system, crash_once_a_version_is_durable,
                            crash_once_a_version_is_staged, link_docs,
                            prefix_on)


def bounce(system, *nodes) -> dict:
    """Crash every node of *nodes* at once, then restart them in order;
    returns the restart summaries by node."""

    for node in nodes:
        system.crash(node)
    return {node: system.restart(node) for node in nodes}


def _update(system, session, doc_id, content, archive=True):
    url = session.get_datalink(FILES_TABLE, {"doc_id": doc_id}, "body", access="write")
    with session.update_file(url, truncate=True) as update:
        update.replace(content)
    if archive:
        system.run_archiver()


def test_upcalls_rejected_while_file_server_down(rdd_system):
    """A read needs the file server's DLFM: while it is down the read is
    refused, and after its restart it is served again."""

    system, alice, _, _ = rdd_system
    url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="read")
    system.crash("fs1")
    with pytest.raises(ReproError):
        alice.read_url(url)
    system.restart("fs1")
    assert len(alice.read_url(url)) == 4096


NEW_BYTES = b"the new version of the file"


class TestRestartFreesOnlyUnnamedObjects:
    """The archive frees, after a crash too, the objects no version row,
    backup or transfer names any more, on every kind of node, and no
    object another name still reaches or a crash could name again."""

    @staticmethod
    def _updated(replication: bool = True):
        """A 2-shard deployment with one linked file on ``shard0``, updated
        once: its archive job is pending.  Returns the deployment and the
        archive id of the file's first version."""

        deployment, session = build_deployment(replication=replication)
        prefix = prefix_on(deployment, "shard0")
        link_docs(deployment, session, prefix, [0])
        (first,) = deployment.system.file_server(
            "shard0").dlfm.repository.versions(f"{prefix}/doc000.dat")
        url = session.get_datalink(SHARD_TABLE, {"doc_id": 0}, "body",
                                   access="write")
        with session.update_file(url, truncate=True) as update:
            update.replace(NEW_BYTES)
        return deployment, first["archive_id"]

    @pytest.mark.parametrize("replication", [False, True],
                             ids=["sharded", "replicated"])
    def test_a_shard_crash_before_the_sweep_leaks_nothing(self, replication):
        deployment, first = self._updated(replication)
        crash_once_a_version_is_durable(deployment, "shard0")
        deployment.restart("shard0")
        deployment.system.run_archiver()
        assert not deployment.system.archive.exists(first)
        assert_archive_reachable(deployment)

    def test_a_drop_a_crash_may_undo_keeps_its_object(self):
        """fs1 and fs2 hold the same path.  fs2's version is committed and
        its drop not yet durable (group commit) when fs1's run ends: fs1's
        sweep frees nothing, and fs2's crash, which undoes the drop, finds
        the object its restored row names."""

        system, alice, paths, _ = build_system(ControlMode.RDD,
                                               flush_policy="group")
        system.add_file_server("fs2")
        url = alice.put_file("fs2", paths[0], b"the other copy")
        alice.insert(FILES_TABLE, {"doc_id": 1, "body": url})
        system.run_archiver()
        dlfm = system.file_server("fs2").dlfm
        (first,) = dlfm.repository.versions(paths[0])
        for doc_id in (0, 1):
            _update(system, alice, doc_id, NEW_BYTES, archive=False)
        system.flush_logs()
        fs2_run = dlfm.archive_steps()
        assert next(fs2_run) == 1
        assert list(system.file_server("fs1").dlfm.archive_steps()) == [1]
        system.crash("fs2")
        system.restart("fs2")
        assert dlfm.repository.versions(paths[0]) == [first]
        assert system.archive.exists(first["archive_id"])
        system.run_archiver()
        assert_archive_reachable(system)

    def test_a_crash_while_a_version_is_staged_leaves_its_job_owed(self):
        """fs1 crashes once its run has sent the file and written the
        version row, before the commit: after its restart the job is still
        owed, no row names the sent object, and the next run archives
        exactly one version."""

        system, alice, paths, _ = build_system(ControlMode.RDD)
        _update(system, alice, 0, NEW_BYTES, archive=False)
        repository = system.file_server("fs1").dlfm.repository
        ((job_id, first),) = [(job["job_id"], repository.versions(job["path"]))
                              for job in repository.pending_archive_jobs()]
        crash_once_a_version_is_staged(system, "fs1")
        system.restart("fs1")
        assert [job["job_id"] for job in repository.pending_archive_jobs()] \
            == [job_id]
        assert repository.versions(paths[0]) == first
        assert_archive_reachable(system, settled=False)
        assert system.run_archiver() == 1
        assert [version["version_no"] for version
                in repository.versions(paths[0])] == [2]
        assert system.file_server("fs1").dlfm.archive.retrieve(
            repository.latest_version(paths[0])["archive_id"],
            system.clock) == NEW_BYTES
        assert_archive_reachable(system)

    def test_a_sweep_between_steps_sees_no_uncommitted_version(self):
        """fs1 and fs2 hold the same path, and fs2's run sweeps it between
        fs1's steps, with fs1's next version of it in flight: fs1 writes a
        version only inside the step that commits it, so the sweep finds
        the row that version will drop still committed and frees neither
        its object nor the one in flight; an abandoned run drops nothing."""

        system, alice, paths, _ = build_system(ControlMode.RDD, files=2)
        system.add_file_server("fs2")
        url = alice.put_file("fs2", paths[1], b"the other copy")
        alice.insert(FILES_TABLE, {"doc_id": 2, "body": url})
        system.run_archiver()
        fs1 = system.file_server("fs1").dlfm
        (dropped,) = fs1.repository.versions(paths[1])
        for doc_id in (0, 1, 2):
            _update(system, alice, doc_id, NEW_BYTES, archive=False)
        fs1_run = fs1.archive_steps()
        assert next(fs1_run) == 1       # doc 1's transfer is in flight
        assert fs1.repository.versions(paths[1]) == [dropped]
        (in_flight,) = set(fs1.archive_names(paths[1])) - {
            dropped["archive_id"]}
        assert system.file_server("fs2").process_archive_jobs() == 1
        for archive_id in (in_flight, dropped["archive_id"]):
            assert system.archive.exists(archive_id)
        fs1_run.close()
        assert fs1.repository.versions(paths[1]) == [dropped]
        assert_archive_reachable(system, settled=False)
        assert system.run_archiver() == 1
        assert [version["version_no"] for version
                in fs1.repository.versions(paths[1])] == [2]
        assert_archive_reachable(system)

    def test_a_transfer_in_flight_names_its_object(self):
        """fs1 and fs2 hold the same path, and fs2's run ends while fs1's
        transfer of it is stored and its version not yet committed: the
        transfer names the object, so the version fs1 commits next finds
        it."""

        system, alice, paths, _ = build_system(ControlMode.RDD, files=2)
        system.add_file_server("fs2")
        url = alice.put_file("fs2", paths[1], b"the other copy")
        alice.insert(FILES_TABLE, {"doc_id": 2, "body": url})
        system.run_archiver()
        for doc_id in (0, 1, 2):
            _update(system, alice, doc_id, NEW_BYTES, archive=False)
        fs1_run = system.file_server("fs1").dlfm.archive_steps()
        assert next(fs1_run) == 1       # doc 1's transfer is in flight
        assert system.file_server("fs2").process_archive_jobs() == 1
        assert list(fs1_run) == [1]
        assert_archive_reachable(system)

    def test_a_down_witness_holds_every_object_until_its_restart(self):
        """A down witness's rows are unknown, so the sweep frees nothing;
        after its restart one run frees what it no longer names."""

        deployment, first = self._updated()
        deployment.crash("shard0-r")
        deployment.system.run_archiver()
        assert deployment.system.archive.exists(first)
        deployment.restart("shard0-r")
        deployment.system.run_archiver()
        assert not deployment.system.archive.exists(first)
        assert_archive_reachable(deployment)

    def test_a_newer_backup_keeps_its_versions_across_an_older_restore(
            self, rfd_system):
        """After a restore to an older backup the repository no longer
        names the versions a newer backup picks; a restart then must not
        free them, or the restore to the newer backup reads nothing."""

        system, alice, paths, _ = rfd_system
        backups = {}
        for version in (1, 2):
            _update(system, alice, 0, f"version {version}".encode())
            backups[version] = system.backup(f"v{version}")
        system.restore(backups[1])
        bounce(system, "fs1")
        system.run_archiver()
        system.restore(backups[2])
        assert system.file_server("fs1").files.read(paths[0]) == b"version 2"

    def test_a_hand_off_source_keeps_the_objects_it_moved(self):
        """A prefix hand-off moves version rows naming the source's objects
        to the destination: the source's restart must not free them."""

        from tests.datalinks.test_placement import (build_deployment,
                                                    link_docs, other_shard)

        deployment, session = build_deployment(mode=ControlMode.RDB)
        link_docs(deployment, session, "/p", 2)
        source = deployment.shard_of("/p/doc0000.dat")
        dest = other_shard(deployment, source)
        deployment.rebalance_prefix("/p", dest)
        deployment.crash(source)
        deployment.restart(source)
        deployment.system.run_archiver()
        serving = deployment.replicas[dest].serving.dlfm
        for doc_id in range(2):
            version = serving.repository.latest_version(f"/p/doc{doc_id:04d}.dat")
            assert serving.archive.exists(version["archive_id"])


REPL_TABLE = "replicated_docs"


def _replicated_setup(flush_policy="immediate", group_commit_window=1,
                      replication=True):
    """A 2-shard (by default replicated) deployment plus one path per shard."""

    deployment = ShardedDataLinksDeployment(
        2, replication=replication, flush_policy=flush_policy,
        group_commit_window=group_commit_window)
    deployment.create_table(TableSchema(REPL_TABLE, [
        Column("doc_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(control_mode=ControlMode.RFF,
                                                recovery=False)),
    ], primary_key=("doc_id",)))
    session = deployment.session("alice", uid=1001)
    paths = {}
    for index in range(1000):
        path = f"/zone{index}/doc.dat"
        shard = deployment.shard_of(path)
        if shard not in paths:
            paths[shard] = path
        if len(paths) == 2:
            break
    return deployment, session, paths


def assert_replicated_agreement(deployment):
    """Host DATALINK contents == the serving repository of every shard.

    When a shard's primary is up and shipping is drained, the witness must
    agree as well (replica convergence).
    """

    deployment.system.flush_logs()
    expected = {name: set() for name in deployment.shard_names}
    for row in deployment.host_db.select(REPL_TABLE, lock=False):
        url = row.get("body")
        if url:
            parsed = parse_url(url)
            expected[parsed.server].add(parsed.path)
    for name in deployment.shard_names:
        replica = deployment.replicas[name]
        serving_repo = replica.serving.dlfm.repository
        linked = {row["path"] for row in serving_repo.linked_files()}
        assert linked == expected[name], (
            f"{name} (served by {replica.serving_name}): has {sorted(linked)}, "
            f"host says {sorted(expected[name])}")
        if not replica.failed_over and replica.primary.running:
            witness_linked = {row["path"] for row in
                              replica.witness.dlfm.repository.linked_files()}
            assert witness_linked == expected[name], (
                f"{name} witness diverged: {sorted(witness_linked)} != "
                f"{sorted(expected[name])}")


class TestReplicationFailoverMatrix:
    """Injected primary crashes at every replication and 2PC step."""

    VICTIM = "shard0"

    def _start_txn(self, deployment, session, paths):
        host_txn = deployment.begin()
        rows = [{"doc_id": index, "body": deployment.put_file(
                    session, paths[shard], b"payload")}
                for index, shard in enumerate(sorted(paths))]
        deployment.engine.insert_many(REPL_TABLE, rows, host_txn)
        return host_txn

    # -- crash during the shipping pipeline -------------------------------------
    @pytest.mark.parametrize("point", ["replicate:ship", "replicate:apply"])
    @pytest.mark.parametrize("fail_over", [False, True])
    def test_primary_crash_mid_shipping(self, point, fail_over):
        """The primary dies inside a WAL shipment (primary-side hook) or
        while the witness applies it (witness-side hook); the interrupted
        transaction aborts and every surviving view agrees."""

        deployment, session, paths = _replicated_setup()
        failpoints = deployment.engine.failpoints

        host_txn = self._start_txn(deployment, session, paths)
        failpoints[f"{point}:{self.VICTIM}"] = boom(
            lambda: deployment.crash(self.VICTIM))
        with pytest.raises(InjectedCrash):
            deployment.engine.commit(host_txn)
        failpoints.clear()
        bounce(deployment, "host")

        if fail_over:
            deployment.fail_over(self.VICTIM)
            assert_replicated_agreement(deployment)
            deployment.fail_back(self.VICTIM)
        else:
            deployment.restart(self.VICTIM)
        assert_replicated_agreement(deployment)
        assert deployment.host_db.select(REPL_TABLE, lock=False) == []

    # -- crash during promotion ---------------------------------------------------
    @pytest.mark.parametrize("point", ["replicate:promote", "replicate:catchup",
                                       "replicate:fence"])
    def test_interrupted_promotion_retries_to_completion(self, point):
        """A crash inside promotion leaves a retryable, idempotent failover."""

        deployment, session, paths = _replicated_setup()
        failpoints = deployment.engine.failpoints
        for index, shard in enumerate(sorted(paths)):
            url = deployment.put_file(session, paths[shard], b"stable")
            session.insert(REPL_TABLE, {"doc_id": index, "body": url})

        deployment.crash(self.VICTIM)
        failpoints[f"{point}:{self.VICTIM}"] = boom()
        with pytest.raises(InjectedCrash):
            deployment.fail_over(self.VICTIM)
        failpoints.clear()

        summary = deployment.fail_over(self.VICTIM)
        assert summary["promoted"] and summary["serving"] == "shard0-r"
        assert_replicated_agreement(deployment)
        url = session.get_datalink(REPL_TABLE, {"doc_id": 0}, "body",
                                   access="read", ttl=1e9)
        assert deployment.read_url(session, url) == b"stable"
        deployment.fail_back(self.VICTIM)
        assert_replicated_agreement(deployment)

    # -- crash at every 2PC step with replication enabled -------------------------
    TWO_PC_POINTS = [
        ("commit:begin", "aborted"),
        ("commit:prepared:shard0", "aborted"),
        ("commit:before_host_commit", "aborted"),
        ("commit:after_host_commit", "committed"),
        ("commit:committed:shard0", "committed"),
    ]

    @pytest.mark.parametrize("point,expected", TWO_PC_POINTS)
    def test_primary_crash_at_every_2pc_step_with_failover(self, point, expected):
        """In-doubt resolution works across a failover: whatever 2PC step
        the primary dies at, the promoted witness converges to the host's
        durable outcome, and so does the primary after fail-back."""

        deployment, session, paths = _replicated_setup()
        host_txn = self._start_txn(deployment, session, paths)
        deployment.engine.failpoints[point] = boom(
            lambda: deployment.crash(self.VICTIM))
        with pytest.raises(InjectedCrash):
            deployment.engine.commit(host_txn)
        deployment.engine.failpoints.clear()
        # The coordinator's restart drives the surviving shard's branch to
        # the durable outcome.
        bounce(deployment, "host")

        deployment.fail_over(self.VICTIM)
        assert_replicated_agreement(deployment)
        rows = deployment.host_db.select(REPL_TABLE, lock=False)
        assert bool(rows) == (expected == "committed")
        if expected == "committed":
            assert deployment.host_db.txn_outcome(host_txn.txn_id) == "committed"

        deployment.fail_back(self.VICTIM)
        assert_replicated_agreement(deployment)

    def test_a_link_committed_in_doubt_at_promotion_gets_its_job(self):
        """The primary dies with a recovery link's branch prepared and the
        host committed: the witness commits the branch at promotion, and
        the archive job the branch's commit hook would have queued on the
        primary is queued on the promoted node, which archives it."""

        from tests.conftest import SHARD_TABLE, build_deployment, prefix_on

        deployment, session = build_deployment()
        path = f"{prefix_on(deployment, self.VICTIM)}/doc.dat"
        url = deployment.put_file(session, path, b"owed an archive job")
        host_txn = deployment.begin()
        deployment.engine.insert(SHARD_TABLE, {
            "doc_id": 0, "body": url, "body_size": 0, "body_mtime": 0.0},
            host_txn)
        deployment.engine.failpoints["commit:after_host_commit"] = boom(
            lambda: deployment.crash(self.VICTIM))
        with pytest.raises(InjectedCrash):
            deployment.engine.commit(host_txn)
        deployment.engine.failpoints.clear()

        deployment.fail_over(self.VICTIM)
        serving = deployment.replicas[self.VICTIM].serving
        assert serving.name != self.VICTIM
        repository = serving.dlfm.repository
        assert repository.linked_file(path) is not None
        assert len(repository.pending_archive_jobs(path)) == 1
        assert serving.dlfm.process_archive_jobs() == 1
        (version,) = repository.versions(path)
        assert serving.dlfm.archive.retrieve(
            version["archive_id"], serving.clock) == b"owed an archive job"
        assert version["state_id"] == \
            deployment.host_db.commit_state_of(host_txn.txn_id)

    def test_group_commit_drain_failure_resolves_through_witness(self):
        """A primary crash after the host group commit: the drain redrives
        the survivors, and the witness resolves the crashed shard's
        in-doubt branch from the host outcome at promotion."""

        deployment, session, paths = _replicated_setup(
            flush_policy="group", group_commit_window=4)
        host_txn = self._start_txn(deployment, session, paths)
        deployment.engine.failpoints["commit:after_host_commit"] = boom(
            lambda: deployment.crash(self.VICTIM), raises=None)
        deployment.commit(host_txn)
        with pytest.raises(ReproError):
            deployment.drain()
        deployment.engine.failpoints.clear()

        deployment.fail_over(self.VICTIM)
        assert_replicated_agreement(deployment)
        assert len(deployment.host_db.select(REPL_TABLE, lock=False)) == 2
        assert deployment.host_db.txn_outcome(host_txn.txn_id) == "committed"
        deployment.fail_back(self.VICTIM)
        assert_replicated_agreement(deployment)


def _rebalance_setup(replication=True):
    """A 2-shard (by default replicated) deployment with one linked file
    per shard.

    Returns ``(deployment, session, paths, prefix)`` where *prefix* is the
    URL prefix owned by ``shard0`` (the hand-off source of every case).
    """

    deployment, session, paths = _replicated_setup(replication=replication)
    for index, shard in enumerate(sorted(paths)):
        url = deployment.put_file(session, paths[shard], b"payload")
        session.insert(REPL_TABLE, {"doc_id": index, "body": url})
    deployment.system.flush_logs()
    prefix = deployment.router.prefix_of(paths["shard0"])
    return deployment, session, paths, prefix


def assert_placement_agreement(deployment):
    """Host DATALINK contents == the *owner* shard's serving repository.

    The placement-aware variant of :func:`assert_replicated_agreement`:
    after a rebalance the owning shard differs from the shard the URL
    names, so expectations go through the router's owner resolution.
    """

    deployment.system.flush_logs()
    expected = {name: set() for name in deployment.shard_names}
    for row in deployment.host_db.select(REPL_TABLE, lock=False):
        url = row.get("body")
        if url:
            parsed = parse_url(url)
            owner = deployment.router.owner_shard(parsed.server, parsed.path)
            expected[owner].add(parsed.path)
    for name in deployment.shard_names:
        replica = deployment.replicas[name]
        if not replica.serving.running:
            continue
        linked = {row["path"]
                  for row in replica.serving.dlfm.repository.linked_files()}
        assert linked == expected[name], (
            f"{name} (served by {replica.serving_name}): has {sorted(linked)}, "
            f"placement says {sorted(expected[name])}")


def _read_all(deployment, session):
    """Every committed DATALINK row must be readable through the router."""

    for row in deployment.host_db.select(REPL_TABLE, lock=False):
        url = session.get_datalink(REPL_TABLE, {"doc_id": row["doc_id"]},
                                   "body", access="read", ttl=1e9)
        assert deployment.read_url(session, url) == b"payload"


class TestRebalanceCrashMatrix:
    """Injected crashes at every step of the prefix hand-off 2PC.

    Source crashes before the move is marked (prepare), at relink
    (export), archive hand-off and fence must
    roll the move back cleanly (map untouched, prefix still served by the
    source side, retry possible); destination crashes at apply must do the
    same; a destination crash *mid-commit* -- after the coordinator's
    durable outcome -- must complete the move anyway, with the crashed
    side resolving its in-doubt branch from the host outcome during
    recovery or witness promotion.
    """

    SOURCE, DEST = "shard0", "shard1"

    @pytest.mark.parametrize("point", ["rebalance:prepare",
                                       "rebalance:export",
                                       "rebalance:archive",
                                       "rebalance:fence"])
    @pytest.mark.parametrize("fail_over", [False, True])
    def test_source_crash_during_handoff_rolls_back(self, point, fail_over):
        deployment, session, paths, prefix = _rebalance_setup()
        deployment.engine.failpoints[point] = boom(
            lambda: deployment.crash(self.SOURCE))
        with pytest.raises(InjectedCrash):
            deployment.rebalance_prefix(prefix, self.DEST)
        deployment.engine.failpoints.clear()

        # the move rolled back: map untouched, no hand-off in flight
        assert deployment.router.placement.epoch == 1
        assert not deployment.router.placement.moving
        if fail_over:
            deployment.fail_over(self.SOURCE)
        else:
            deployment.restart(self.SOURCE)
        assert_placement_agreement(deployment)
        _read_all(deployment, session)

        # the hand-off is retryable once the source side serves again
        summary = deployment.rebalance_prefix(prefix, self.DEST)
        assert summary["moved"] and summary["epoch"] == 2
        assert deployment.shard_of(paths[self.SOURCE]) == self.DEST
        assert_placement_agreement(deployment)
        _read_all(deployment, session)

    @pytest.mark.parametrize("point", ["rebalance:import",
                                       "rebalance:fence"])
    def test_dest_crash_at_apply_rolls_back(self, point):
        deployment, session, paths, prefix = _rebalance_setup()
        deployment.engine.failpoints[point] = boom(
            lambda: deployment.crash(self.DEST))
        with pytest.raises(InjectedCrash):
            deployment.rebalance_prefix(prefix, self.DEST)
        deployment.engine.failpoints.clear()

        assert deployment.router.placement.epoch == 1
        deployment.restart(self.DEST)
        assert_placement_agreement(deployment)
        _read_all(deployment, session)

        summary = deployment.rebalance_prefix(prefix, self.DEST)
        assert summary["moved"]
        assert_placement_agreement(deployment)
        _read_all(deployment, session)

    @pytest.mark.parametrize("recovery", ["recover", "fail_over"])
    def test_dest_crash_mid_commit_completes_the_move(self, recovery):
        """Past the coordinator's durable outcome the move must finish:
        the commit is redriven, the map swings, and the crashed
        destination resolves its in-doubt branch from the host outcome --
        on restart, or on its witness at promotion (witness placement
        followed the prefix through the move)."""

        deployment, session, paths, prefix = _rebalance_setup()
        deployment.engine.failpoints["commit:after_host_commit"] = boom(
            lambda: deployment.crash(self.DEST), raises=None)
        summary = deployment.rebalance_prefix(prefix, self.DEST)
        deployment.engine.failpoints.clear()

        assert summary["moved"] and summary["redriven_commit"]
        assert deployment.router.placement.epoch == 2
        assert deployment.shard_of(paths[self.SOURCE]) == self.DEST

        if recovery == "recover":
            recovered = deployment.restart(self.DEST)
            assert recovered["repository"]["in_doubt_committed"]
        else:
            deployment.fail_over(self.DEST)
        assert_placement_agreement(deployment)
        _read_all(deployment, session)
        # the source refuses straggler writes for the moved prefix
        with pytest.raises(PlacementEpochError) as excinfo:
            deployment.shard(self.SOURCE).dlfm.check_placement(
                paths[self.SOURCE])
        assert excinfo.value.owner == self.DEST

    def test_crash_between_commit_and_sweep_redrives_the_sweep(self):
        """A source crash after the committed map swing but before the
        source GC sweep: the move stands (it is durable), the sweep entry
        stays pending, and recovery redrives it -- the moved prefix's
        physical bytes leave the fenced source then, not never."""

        deployment, session, paths, prefix = _rebalance_setup()
        moved_path = paths[self.SOURCE]
        deployment.engine.failpoints["rebalance:sweep"] = boom(
            lambda: deployment.crash(self.SOURCE))
        with pytest.raises(InjectedCrash):
            deployment.rebalance_prefix(prefix, self.DEST)
        deployment.engine.failpoints.clear()

        # the move committed before the crash: map swung, sweep pending
        assert deployment.router.placement.epoch == 2
        assert deployment.shard_of(moved_path) == self.DEST
        assert prefix in deployment.pending_sweeps

        recovered = deployment.restart(self.SOURCE)
        assert recovered["redriven_sweeps"].get(prefix, 0) > 0
        assert prefix not in deployment.pending_sweeps
        for node in deployment.replicas[self.SOURCE].nodes.values():
            assert not node.files.exists(moved_path)
        assert_placement_agreement(deployment)
        _read_all(deployment, session)


class TestCoordinatedBackupRestore:
    def test_restore_brings_metadata_and_content_back_in_sync(self, rfd_system):
        system, alice, paths, _ = rfd_system
        original = system.file_server("fs1").files.read(paths[0])
        backup = system.backup("baseline")
        _update(system, alice, 0, b"post-backup content " * 10)
        restored = system.restore(backup)
        assert paths[0] in restored["fs1"]
        assert system.file_server("fs1").files.read(paths[0]) == original
        row = system.host_db.select_one(FILES_TABLE, {"doc_id": 0}, lock=False)
        assert row["body_size"] == len(original)

    def test_point_in_time_restore_selects_version_by_state_id(self, rfd_system):
        system, alice, paths, _ = rfd_system
        contents = {}
        backups = {}
        for version in (1, 2, 3):
            content = f"version {version}".encode() * 100
            _update(system, alice, 0, content)
            contents[version] = content
            backups[version] = system.backup(f"v{version}")
        for version in (2, 1, 3):
            system.restore(backups[version])
            assert system.file_server("fs1").files.read(paths[0]) == contents[version]

    def test_restore_covers_multiple_files_and_servers(self):
        system, alice, paths, _ = build_system(ControlMode.RFD, files=3)
        system.add_file_server("fs2")
        extra_url = alice.put_file("fs2", "/other/file.bin", b"fs2 original")
        alice.insert(FILES_TABLE, {"doc_id": 10, "body": extra_url,
                                   "body_size": 12, "body_mtime": 0.0})
        system.run_archiver()
        backup = system.backup("two-servers")
        _update(system, alice, 1, b"changed on fs1")
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 10}, "body", access="write")
        with alice.update_file(url, truncate=True) as update:
            update.replace(b"changed on fs2")
        system.run_archiver()
        restored = system.restore(backup)
        assert paths[1] in restored["fs1"]
        assert "/other/file.bin" in restored["fs2"]
        assert system.file_server("fs2").files.read("/other/file.bin") == b"fs2 original"

    def test_rows_inserted_after_backup_disappear_on_restore(self, rfd_system):
        system, alice, _, _ = rfd_system
        backup = system.backup()
        new_url = alice.put_file("fs1", "/library/late.dat", b"late arrival")
        alice.insert(FILES_TABLE, {"doc_id": 99, "body": new_url,
                                   "body_size": 12, "body_mtime": 0.0})
        system.restore(backup)
        assert system.host_db.select(FILES_TABLE, {"doc_id": 99}) == []
        assert system.file_server("fs1").dlfm.repository.linked_file(
            "/library/late.dat") is None

    def test_backup_drains_pending_archive_jobs(self, rfd_system):
        system, alice, paths, _ = rfd_system
        _update(system, alice, 0, b"not yet archived", archive=False)
        dlfm = system.file_server("fs1").dlfm
        assert dlfm.has_pending_archives(paths[0])
        system.backup("drain")
        assert not dlfm.has_pending_archives(paths[0])
