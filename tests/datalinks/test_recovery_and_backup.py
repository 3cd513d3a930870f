"""File-server crash recovery, the 2PC crash matrix, and backup/restore.

Every recovery here is ``crash(node)`` then ``restart(node)``, with no
other step.  Includes the replication failover matrix: an injected primary
crash swept through every replication step (ship, apply, promote,
catch-up, fence) and through every two-phase-commit step with witness
replication enabled, asserting host/DLFM agreement after recovery in
every case.
"""

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.errors import FileSystemError, PlacementEpochError, ReproError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.util.urls import parse_url
from tests.conftest import FILES_TABLE, InjectedCrash, boom, build_system


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


class TestCrashRecovery:
    def test_in_flight_update_rolled_back_on_recovery(self, rfd_system):
        system, alice, paths, _ = rfd_system
        before = system.file_server("fs1").files.read(paths[0])
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        update = alice.update_file(url, truncate=True)
        update.begin()
        update.write(b"doomed")
        summary = bounce(system, "fs1")["fs1"]
        assert paths[0] in summary["rolled_back_updates"]
        assert system.file_server("fs1").files.read(paths[0]) == before

    def test_committed_update_survives_crash_before_archiving(self, rfd_system):
        system, alice, paths, _ = rfd_system
        _update(system, alice, 0, b"committed content", archive=False)
        bounce(system, "fs1")
        assert system.file_server("fs1").files.read(paths[0]) == b"committed content"
        # the pending archive job survived the crash and can still run
        assert system.run_archiver() >= 1

    def test_recovery_clears_sync_entries_and_allows_new_updates(self, rfd_system):
        system, alice, paths, _ = rfd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        update = alice.update_file(url, truncate=True)
        update.begin()
        bounce(system, "fs1")
        dlfm = system.file_server("fs1").dlfm
        assert dlfm.soft.sync == {}
        assert dlfm.repository.all_tracking() == []
        # the writer slot is free again
        url2 = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        with alice.update_file(url2, truncate=True) as retry:
            retry.replace(b"after recovery")

    def test_rfd_takeover_released_by_recovery(self, rfd_system):
        system, alice, paths, _ = rfd_system
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="write")
        update = alice.update_file(url)
        update.begin()
        bounce(system, "fs1")
        attrs = system.file_server("fs1").files.stat(paths[0])
        assert attrs.uid == alice.cred.uid
        assert attrs.mode & 0o222 == 0

    def test_upcalls_rejected_while_file_server_down(self, rdd_system):
        system, alice, _, _ = rdd_system
        system.crash("fs1")
        url_ok = False
        try:
            url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body", access="read")
            alice.read_url(url)
            url_ok = True
        except (FileSystemError, Exception):
            pass
        assert not url_ok
        system.restart("fs1")

    def test_link_state_survives_crash(self, rfd_system):
        system, alice, paths, _ = rfd_system
        bounce(system, "fs1")
        dlfm = system.file_server("fs1").dlfm
        row = dlfm.repository.linked_file(paths[0])
        assert row is not None and row["control_mode"] == "rfd"
        # integrity still enforced after recovery
        with pytest.raises(FileSystemError):
            alice.fs("fs1").unlink(paths[0])


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


def _two_server_setup(flush_policy: str = "immediate"):
    """A system with fs1+fs2, one unlinked file on each; returns the URLs."""

    system, alice, paths, urls = build_system(None, files=1,
                                              flush_policy=flush_policy)
    system.add_file_server("fs2")
    url2 = alice.put_file("fs2", "/mirror/doc.dat", b"mirror copy")
    return system, alice, urls[0], url2


def _start_linking_txn(system, url1, url2):
    host_txn = system.engine.begin()
    system.engine.insert_many(FILES_TABLE, [
        {"doc_id": 0, "title": "a", "body": url1, "body_size": 0, "body_mtime": 0.0},
        {"doc_id": 1, "title": "b", "body": url2, "body_size": 0, "body_mtime": 0.0},
    ], host_txn)
    return host_txn


class TestCrashMatrix:
    """Sweep a coordinator crash through every step of a linking 2PC.

    Each case injects a crash at one protocol point, crashes and restarts
    the affected nodes, and asserts that the host database and every DLFM
    agree on the set of linked files.
    """

    # (failpoint, also crash+recover fs1, expected durable outcome)
    CRASH_POINTS = [
        ("commit:begin", False, "aborted"),
        ("commit:begin", True, "aborted"),
        ("commit:prepared:fs1", False, "aborted"),
        ("commit:prepared:fs1", True, "aborted"),
        ("commit:before_host_commit", False, "aborted"),
        ("commit:before_host_commit", True, "aborted"),
        ("commit:after_host_commit", False, "committed"),
        ("commit:after_host_commit", True, "committed"),
        ("commit:committed:fs1", False, "committed"),
        ("commit:committed:fs1", True, "committed"),
    ]

    @pytest.mark.parametrize("point,crash_fs1,expected", CRASH_POINTS)
    def test_coordinator_crash_at_every_2pc_step(self, point, crash_fs1, expected):
        system, alice, url1, url2 = _two_server_setup()
        host_txn = _start_linking_txn(system, url1, url2)
        system.engine.failpoints[point] = boom()
        with pytest.raises(InjectedCrash):
            system.engine.commit(host_txn)
        system.engine.failpoints.clear()

        # The coordinator (host database) crashes and restarts; optionally a
        # participant crashes too, exercising durable in-doubt resolution.
        bounce(system, *(["host", "fs1"] if crash_fs1 else ["host"]))

        assert_host_dlfm_agreement(system)
        # A link branch committed from the log at recovery gets the archive
        # job its live commit hook would have queued.
        assert_archive_owed(system)
        rows = system.host_db.select(FILES_TABLE, lock=False)
        outcome = system.host_db.txn_outcome(host_txn.txn_id)
        if expected == "committed":
            assert {row["doc_id"] for row in rows} == {0, 1}
            assert outcome == "committed"
        else:
            assert rows == []
            # "unknown" when no record of the transaction survived the crash:
            # presumed abort, the same resolution as a durable ABORT.
            assert outcome in ("aborted", "unknown")

    def test_crash_mid_flush_loses_group_committed_txn(self):
        """Group commit: host crashes after COMMIT is appended but before the
        group flush -- the commit is lost and every branch rolls back."""

        system, alice, url1, url2 = _two_server_setup("group")
        system.flush_logs()     # the set-up's own commits are durable
        host_txn = _start_linking_txn(system, url1, url2)
        system.engine.failpoints["commit:mid_flush"] = boom()
        with pytest.raises(InjectedCrash):
            system.engine.commit(host_txn)
        system.engine.failpoints.clear()
        assert system.host_db.wal.pending_commits == 1

        bounce(system, "host")

        assert_host_dlfm_agreement(system)
        assert system.host_db.select(FILES_TABLE, lock=False) == []
        assert system.host_db.txn_outcome(host_txn.txn_id) != "committed"

    def test_group_commit_forces_log_before_participant_commits(self):
        """The positive control for the mid-flush point: a completed commit
        forced the host log before any DLFM committed, so the same crash
        preserves the transaction everywhere."""

        system, alice, url1, url2 = _two_server_setup("group")
        system.flush_logs()     # the set-up's own commits are durable
        host_txn = _start_linking_txn(system, url1, url2)
        system.engine.commit(host_txn)
        assert system.host_db.wal.pending_commits == 0  # forced by the 2PC rule

        bounce(system, "host")

        assert_host_dlfm_agreement(system)
        assert len(system.host_db.select(FILES_TABLE, lock=False)) == 2
        assert system.host_db.txn_outcome(host_txn.txn_id) == "committed"

    @pytest.mark.parametrize("point,expected", [
        ("group:begin", "aborted"),
        ("group:prepared:fs1", "aborted"),
        ("group:before_host_commit", "aborted"),
        ("group:after_host_commit", "committed"),
        ("group:committed:fs1", "committed"),
    ])
    def test_coordinator_crash_during_group_commit(self, point, expected):
        system, alice, url1, url2 = _two_server_setup()
        host_txn = _start_linking_txn(system, url1, url2)
        system.engine.failpoints[point] = boom()
        with pytest.raises(InjectedCrash):
            system.engine.commit_group([host_txn])
        system.engine.failpoints.clear()

        bounce(system, "host", "fs2")

        assert_host_dlfm_agreement(system)
        assert_archive_owed(system)
        rows = system.host_db.select(FILES_TABLE, lock=False)
        assert bool(rows) == (expected == "committed")

    def test_a_link_under_group_commit_keeps_its_job_across_a_crash(self):
        """A DLFM crash that loses the unflushed tail after a link commits
        leaves the branch in doubt; recovery commits it from the host's
        outcome and queues the archive job its commit hook never did."""

        system, alice, paths, urls = build_system(
            ControlMode.RDD, link=False, flush_policy="group")
        system.flush_logs()
        alice.insert(FILES_TABLE, {"doc_id": 0, "title": "a", "body": urls[0],
                                   "body_size": 0, "body_mtime": 0.0})
        recovered = bounce(system, "fs1")["fs1"]
        assert recovered["repository"]["in_doubt_committed"]
        assert_host_dlfm_agreement(system)
        assert_archive_owed(system)
        assert system.run_archiver() == 1

    def test_participant_crash_before_prepare_rolls_branch_back(self):
        """A file server that crashes before voting loses its volatile
        branch; the coordinator's commit fails, and restarts presume the
        transaction aborted everywhere."""

        system, alice, url1, url2 = _two_server_setup()
        host_txn = _start_linking_txn(system, url1, url2)
        system.crash("fs1")
        with pytest.raises(Exception):
            system.engine.commit(host_txn)
        bounce(system, "host")
        system.restart("fs1")
        assert_host_dlfm_agreement(system)
        assert system.host_db.select(FILES_TABLE, lock=False) == []


NEW_BYTES = b"the new version of the file"


def _open_update(system, alice):
    """An update of doc 0 that wrote NEW_BYTES and is about to close."""

    url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body",
                             access="write")
    update = alice.update_file(url, truncate=True)
    update.begin()
    update.write(NEW_BYTES)
    return update


def assert_one_version(system, alice, path, content):
    """E6's sentence (Section 4.2) after the dust settles: the file's bytes,
    the host's metadata columns, the DLFM's link row and its version chain
    all hold *content*; no update is in progress, no job is left, and the
    file reads back through a read URL (an rfd file is its owner's again)."""

    server = system.file_server("fs1")
    repository = server.dlfm.repository
    assert_archive_owed(system)
    system.run_archiver()
    assert server.files.read(path) == content
    row = system.host_db.select_one(FILES_TABLE, {"doc_id": 0}, lock=False)
    assert row["body_size"] == len(content)
    assert repository.linked_file(path)["last_size"] == len(content)
    assert repository.all_tracking() == []
    assert repository.pending_archive_jobs() == []
    latest = repository.latest_version(path)
    assert server.dlfm.archive.retrieve(latest["archive_id"],
                                        server.clock) == content
    url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body",
                             access="read")
    assert alice.read_url(url) == content


class TestCloseCrashMatrix:
    """A crash of the host, the DLFM or both at every step of a close-time
    commit: the DLFM writes its branch and forces its PREPARE, its one
    request carries the vote, and the host's reply carries the commit.

    Whatever crashed where, after recovery the file, the host's metadata
    and the DLFM's tracking and versions agree on the old version or the
    new one, a committed new version is archived, and the file takes its
    next update.  A DLFM crash does not stop the host: the vote it sent
    is in, so the host commits, and the DLFM learns it when it recovers.
    """

    #: Protocol order; whether the host's COMMIT is durable there (under
    #: the immediate flush policy the COMMIT is forced as it is appended).
    POINTS = {
        "commit:begin": False,
        "commit:prepared:fs1": False,
        "commit:before_host_commit": False,
        "commit:mid_flush": True,
        "commit:after_host_commit": True,
        "commit:committed:fs1": True,
    }

    @pytest.mark.parametrize("mode", [ControlMode.RDD, ControlMode.RFD],
                             ids=["rdd", "rfd"])
    @pytest.mark.parametrize("victim", ["host", "dlfm", "both"])
    @pytest.mark.parametrize("point", list(POINTS))
    def test_crash_at_every_step_of_the_close(self, point, victim, mode):
        system, alice, paths, _ = build_system(mode)
        old = system.file_server("fs1").files.read(paths[0])
        update = _open_update(system, alice)
        nodes = {"host": ["host"], "dlfm": ["fs1"],
                 "both": ["host", "fs1"]}[victim]

        def crash():
            for node in nodes:
                system.crash(node)

        if victim == "dlfm":
            system.engine.failpoints[point] = boom(crash, raises=None)
            try:
                update.commit()
            except ReproError:
                pass        # the host's reply found the DLFM down
        else:
            system.engine.failpoints[point] = boom(crash)
            with pytest.raises(InjectedCrash):
                update.commit()
        system.engine.failpoints.clear()
        for node in nodes:
            system.restart(node)

        committed = victim == "dlfm" or self.POINTS[point]
        assert_one_version(system, alice, paths[0],
                           NEW_BYTES if committed else old)
        versions = system.file_server("fs1").dlfm.repository.versions(paths[0])
        assert [version["version_no"] for version in versions] == \
            ([2] if committed else [1])
        _update(system, alice, 0, b"the next update")
        assert_one_version(system, alice, paths[0], b"the next update")

    def test_a_host_refusal_after_the_vote_rolls_the_update_back(self):
        """The host cannot run the metadata UPDATE (another transaction
        holds the row): its refusal is the reply, the DLFM aborts its
        prepared branch and the file goes back to the last version."""

        from repro.errors import LockConflictError

        system, alice, paths, _ = build_system(ControlMode.RDD)
        old = system.file_server("fs1").files.read(paths[0])
        blocker = system.engine.begin()
        system.engine.select(FILES_TABLE, {"doc_id": 0}, blocker,
                             for_update=True)
        update = _open_update(system, alice)
        with pytest.raises(LockConflictError):
            update.commit()
        system.engine.abort(blocker)
        dlfm = system.file_server("fs1").dlfm
        assert dlfm.branches.active_host_transactions() == []
        assert dlfm.soft.sync == {}
        assert_one_version(system, alice, paths[0], old)
        _update(system, alice, 0, b"the next update")
        assert_one_version(system, alice, paths[0], b"the next update")

    def test_a_close_under_group_commit_keeps_its_job_across_a_crash(self):
        """The close's archive job is written inside its branch: a DLFM
        crash that loses the unflushed tail after the close loses neither
        the update nor the job that archives it."""

        system, alice, paths, _ = build_system(ControlMode.RDD,
                                               flush_policy="group")
        system.flush_logs()
        _update(system, alice, 0, NEW_BYTES, archive=False)
        bounce(system, "fs1")
        assert_one_version(system, alice, paths[0], NEW_BYTES)


class TestArchiveJobRunsOnce:
    def test_a_crash_after_the_version_commits_does_not_rerun_the_job(self):
        """The version row, the rows it supersedes and the job's delete
        are one local transaction: a crash the moment the version is
        durable leaves no job to re-run, so one update is one version and
        one archive object."""

        system, alice, paths, _ = build_system(ControlMode.RDD)
        dlfm = system.file_server("fs1").dlfm
        stores = dlfm.archive._next_id
        _update(system, alice, 0, NEW_BYTES, archive=False)
        wal = dlfm.repository.db.wal
        seen = wal.flushed_lsn

        def crash_once_a_version_is_durable(log):
            if any(record.table == "file_versions"
                   for record in log.records_from(seen, durable_only=True)):
                dlfm.repository.remove_wal_listener(
                    crash_once_a_version_is_durable)
                system.crash("fs1")
                raise InjectedCrash

        dlfm.repository.add_wal_listener(crash_once_a_version_is_durable)
        with pytest.raises(InjectedCrash):
            system.run_archiver()
        system.restart("fs1")
        assert_one_version(system, alice, paths[0], NEW_BYTES)
        assert [version["version_no"]
                for version in dlfm.repository.versions(paths[0])] == [2]
        assert dlfm.archive._next_id == stores + 1


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
        deployment.engine.failpoints["group:after_host_commit"] = boom(
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
