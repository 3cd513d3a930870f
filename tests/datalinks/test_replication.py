"""Unit tests for the shard-replication subsystem.

Covers the pieces in isolation -- WAL shipping and lag, witness apply
semantics (commit/abort/in-doubt), epoch fencing, content mirroring and
archive-based restore at promotion -- while the crash matrix and the seeded
property test (test_recovery_and_backup.py / test_shard_properties.py)
cover the composed failure behaviour.
"""

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.replication import EpochGuard, EpochRegistry
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.errors import (DaemonUnavailableError, FencedNodeError,
                          FileSystemError, LogFoldedError, ReproError)
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.storage.wal import FOLD_AT
from repro.util.urls import parse_url

TABLE = "replica_docs"


def build_deployment(shards=2, mode=ControlMode.RFF, recovery=False,
                     flush_policy="immediate", group_commit_window=1,
                     witnesses=1):
    deployment = ShardedDataLinksDeployment(
        shards, replication=True, witnesses=witnesses,
        flush_policy=flush_policy, group_commit_window=group_commit_window)
    deployment.create_table(TableSchema(TABLE, [
        Column("doc_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(control_mode=mode,
                                                recovery=recovery)),
    ], primary_key=("doc_id",)))
    return deployment, deployment.session("alice", uid=1001)


def path_on(deployment, shard: str, tag: str = "f") -> str:
    """A fresh path the router places on *shard*."""

    for index in range(1000):
        path = f"/{tag}{index}/{tag}{index}.dat"
        if deployment.shard_of(path) == shard:
            return path
    raise AssertionError(f"no prefix found for shard {shard}")


def link(deployment, session, doc_id, path, content=b"payload"):
    url = deployment.put_file(session, path, content)
    session.insert(TABLE, {"doc_id": doc_id, "body": url})
    return url


class TestEpochs:
    def test_registry_promote_bumps_and_is_idempotent(self):
        registry = EpochRegistry()
        assert registry.register("s0", "a") == 1
        assert registry.promote("s0", "a") == 1       # no-op: already serving
        assert registry.promote("s0", "b") == 2
        assert registry.promote("s0", "b") == 2
        assert registry.promote("s0", "a") == 3
        assert registry.serving_node("s0") == "a"

    def test_guard_fences_the_non_serving_node(self):
        registry = EpochRegistry()
        registry.register("s0", "a")
        guard_a = EpochGuard(registry, "s0", "a")
        guard_b = EpochGuard(registry, "s0", "b")
        guard_a.check()
        assert guard_b.fenced
        with pytest.raises(FencedNodeError):
            guard_b.check()
        registry.promote("s0", "b")
        guard_b.check()
        with pytest.raises(FencedNodeError):
            guard_a.check()


class TestWalShipping:
    def test_commits_stream_continuously_to_the_witness(self):
        deployment, session = build_deployment()
        replica = deployment.replicas["shard0"]
        link(deployment, session, 0, path_on(deployment, "shard0"))
        assert replica.shipper.lag() == 0
        witness_paths = {row["path"] for row in
                         replica.witness.dlfm.repository.linked_files()}
        primary_paths = deployment.linked_paths("shard0")
        assert witness_paths == primary_paths and witness_paths

    def test_group_commit_ships_on_window_drain(self):
        deployment, session = build_deployment(flush_policy="group",
                                               group_commit_window=4)
        replica = deployment.replicas["shard0"]
        host_txn = deployment.begin()
        url = deployment.put_file(session, path_on(deployment, "shard0"),
                                  b"grouped")
        deployment.engine.insert(TABLE, {"doc_id": 0, "body": url}, host_txn)
        deployment.commit(host_txn)            # enqueued, not yet durable
        deployment.drain()
        # The branch COMMIT sits in the repository's group-commit window:
        # not durable at the primary, so -- correctly -- not on the witness.
        witness_repo = replica.witness.dlfm.repository
        assert {row["path"] for row in witness_repo.linked_files()} == set()
        deployment.system.flush_logs()         # window drains -> records ship
        assert replica.shipper.lag() == 0
        assert {row["path"] for row in
                replica.witness.dlfm.repository.linked_files()} == \
            deployment.linked_paths("shard0")

    def test_witness_outage_accumulates_lag_then_resyncs(self):
        deployment, session = build_deployment()
        replica = deployment.replicas["shard0"]
        deployment.crash("shard0-r")
        link(deployment, session, 0, path_on(deployment, "shard0", "down"))
        assert replica.shipper.ship_errors > 0
        assert replica.shipper.lag() > 0
        assert replica.mirror_misses == 1   # a down witness misses the mirror
        # the primary committed regardless of the dead witness
        assert deployment.linked_paths("shard0")
        deployment.restart("shard0-r")
        assert replica.shipper.lag() == 0
        assert {row["path"] for row in
                replica.witness.dlfm.repository.linked_files()} == \
            deployment.linked_paths("shard0")

    def test_witness_and_primary_both_down_does_not_wipe_witness(self):
        """Restarting a witness while the primary is also down must not copy
        the crashed primary's (reset) catalog over the witness; the resync
        waits for the primary's restart, which runs it."""

        deployment, session = build_deployment()
        link(deployment, session, 0, path_on(deployment, "shard0", "both"))
        deployment.crash("shard0-r")
        deployment.crash("shard0")
        summary = deployment.restart("shard0-r")
        assert summary["resync"] == {"shard0-r": {
            "resynced": False, "deferred": "primary is down"}}
        summary = deployment.restart("shard0")
        assert summary["resync"]["shard0-r"]["resynced"]
        assert {row["path"] for row in
                deployment.replicas["shard0"].witness.dlfm.repository
                .linked_files()} == deployment.linked_paths("shard0")

    def test_archive_jobs_run_on_the_primary_only(self):
        """The witness repository is redo-only: its replicated archive_queue
        rows are executed by the primary, and the completion (plus the
        file_versions row) replicates over instead of being produced
        locally from the witness's mirror."""

        deployment, session = build_deployment(recovery=True)
        replica = deployment.replicas["shard0"]
        path = path_on(deployment, "shard0", "aj")
        link(deployment, session, 0, path)
        assert replica.witness.dlfm.process_archive_jobs() == 0
        completed = deployment.system.run_archiver()
        assert completed == 1   # one job system-wide, on the primary
        deployment.system.flush_logs()
        primary_versions = deployment.shard("shard0").dlfm.repository.versions(path)
        witness_versions = replica.witness.dlfm.repository.versions(path)
        assert [v["archive_id"] for v in witness_versions] == \
            [v["archive_id"] for v in primary_versions]

    def test_aborted_transactions_never_reach_witness_heaps(self):
        deployment, session = build_deployment()
        replica = deployment.replicas["shard0"]
        path = path_on(deployment, "shard0", "abort")
        url = deployment.put_file(session, path, b"doomed")
        session.begin()
        session.insert(TABLE, {"doc_id": 9, "body": url})
        session.abort()
        deployment.system.flush_logs()
        assert path not in {row["path"] for row in
                            replica.witness.dlfm.repository.linked_files()}


class TestFailover:
    def test_reads_fail_over_with_token_validation(self):
        deployment, session = build_deployment(mode=ControlMode.RDB)
        path = path_on(deployment, "shard0", "rdb")
        link(deployment, session, 0, path, b"token protected")
        url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                   access="read", ttl=1e9)
        assert deployment.read_url(session, url) == b"token protected"
        deployment.crash("shard0")
        with pytest.raises(DaemonUnavailableError):
            deployment.read_url(session, url)
        deployment.fail_over("shard0")
        assert deployment.read_url(session, url) == b"token protected"

    def test_fenced_ex_primary_refuses_token_validation(self):
        deployment, session = build_deployment(mode=ControlMode.RDB)
        path = path_on(deployment, "shard0", "fence")
        link(deployment, session, 0, path)
        url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                   access="read", ttl=1e9)
        deployment.crash("shard0")
        deployment.fail_over("shard0")
        deployment.restart("shard0")
        manager = deployment.shard("shard0").dlfm
        parsed = parse_url(url)
        ino = manager.repository.linked_file(parsed.path)["ino"]
        attrs = manager.files.stat(parsed.path)
        with pytest.raises(FencedNodeError):
            manager.upcall_validate_token(ino, parsed.token, 1001)
        with pytest.raises(FencedNodeError):
            manager.upcall_check_open(ino, False, 1001, attrs)
        # close processing is fenced too: an ex-primary must not commit
        # close-time metadata into the host database while the witness serves
        with pytest.raises(FencedNodeError):
            manager.upcall_file_closed(ino, True, 1001, None, attrs, attrs)

    def test_fenced_ex_primary_refuses_link_writes(self):
        """Engine-facing ops are fenced at the DLFM: a link branch taken on
        a recovered ex-primary (whose WAL stream is paused) would
        split-brain against the serving witness.  The *routed* write path
        succeeds -- that is writable failover -- because the router sends
        it to the promoted witness, never the fenced node."""

        deployment, session = build_deployment()
        link(deployment, session, 0, path_on(deployment, "shard0", "pre"))
        deployment.crash("shard0")
        deployment.fail_over("shard0")
        deployment.restart("shard0")

        # Split-brain guard: talking to the fenced ex-primary directly (as
        # a mis-routed engine would) is refused branch by branch.
        fenced = deployment.shard("shard0").dlfm
        with pytest.raises(FencedNodeError):
            fenced.begin_branch(4242)
        with pytest.raises(FencedNodeError):
            fenced.link_file(4242, "/split/x.dat", None)
        with pytest.raises(FencedNodeError):
            fenced.prepare_branch(4242)

        # Writable failover: the same logical write routed through the
        # deployment lands on the promoted witness and commits.
        path = path_on(deployment, "shard0", "split")
        url = deployment.put_file(session, path, b"late write")
        session.insert(TABLE, {"doc_id": 77, "body": url})
        assert len(deployment.host_db.select(TABLE, {"doc_id": 77},
                                             lock=False)) == 1
        witness_repo = deployment.replicas["shard0"].witness.dlfm.repository
        assert witness_repo.linked_file(path) is not None
        # the fenced ex-primary took no branch and holds no such link
        assert deployment.shard("shard0").dlfm.repository.linked_file(path) is None

    def test_witness_enforces_tokens_during_healthy_operation(self):
        """The witness applies the link's control-mode constraints as rows
        replicate: a bare (tokenless) URL read through the witness is
        refused exactly like on the primary, with no failover involved."""

        deployment, session = build_deployment(mode=ControlMode.RDB)
        path = path_on(deployment, "shard0", "sec")
        bare_url = link(deployment, session, 0, path, b"top secret")
        stranger = deployment.session("stranger", uid=6666)
        with pytest.raises(ReproError):
            stranger.read_url(bare_url)
        with pytest.raises(ReproError):
            stranger.read_url(bare_url, server="shard0-r")

    def test_promote_refuses_unsynced_witness(self):
        """A witness that lost its replica state (crash) and could not
        resync (primary down too) must not be promoted to serve an empty
        repository; recovery order resolves it."""

        from repro.errors import ReplicationError

        deployment, session = build_deployment()
        link(deployment, session, 0, path_on(deployment, "shard0", "sync"))
        deployment.crash("shard0-r")
        deployment.crash("shard0")
        deployment.restart("shard0-r")      # resync deferred
        with pytest.raises(ReplicationError):
            deployment.fail_over("shard0")
        deployment.restart("shard0")          # re-syncs the witness
        deployment.crash("shard0")
        summary = deployment.fail_over("shard0")  # now legitimate
        assert summary["promoted"]
        assert deployment.linked_paths("shard0")

    def test_fail_back_returns_service_and_refences_witness(self):
        deployment, session = build_deployment(mode=ControlMode.RDB)
        path = path_on(deployment, "shard0", "back")
        link(deployment, session, 0, path, b"original")
        deployment.crash("shard0")
        deployment.fail_over("shard0")
        summary = deployment.fail_back("shard0")
        assert summary["serving"] == "shard0"
        url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                   access="read", ttl=1e9)
        assert deployment.read_url(session, url) == b"original"
        assert deployment.replicas["shard0"].witness.dlfm.is_fenced()
        assert not deployment.shard("shard0").dlfm.is_fenced()

    def test_promotion_restores_missing_content_from_archive(self):
        deployment, session = build_deployment(mode=ControlMode.RDB,
                                               recovery=True)
        replica = deployment.replicas["shard0"]
        path = path_on(deployment, "shard0", "arch")
        link(deployment, session, 0, path, b"archived content")
        deployment.system.run_archiver()
        # lose the witness's mirrored copy (e.g. the mirror lagged)
        replica.witness.raw_lfs.unlink(path, replica.witness.files.dlfm_cred)
        deployment.crash("shard0")
        summary = deployment.fail_over("shard0")
        assert path in summary["restored_files"]
        url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                   access="read", ttl=1e9)
        assert deployment.read_url(session, url) == b"archived content"

    def test_unreplicated_deployment_refuses_failover(self):
        deployment = ShardedDataLinksDeployment(2)
        with pytest.raises(Exception):
            deployment.fail_over("shard0")

    def test_stats_surface_replication_state(self):
        deployment, session = build_deployment()
        link(deployment, session, 0, path_on(deployment, "shard0"))
        stats = deployment.stats()["replication"]
        assert stats["shard0"]["serving"] == "shard0"
        assert stats["shard0"]["shipped_records"] > 0
        deployment.crash("shard0")
        deployment.fail_over("shard0")
        stats = deployment.stats()["replication"]
        assert stats["shard0"]["serving"] == "shard0-r"
        assert stats["shard0"]["failed_over"]
        assert stats["shard0"]["epoch"] == 2


class TestSessionServerOverride:
    def test_read_url_accepts_explicit_server(self):
        deployment, session = build_deployment()
        path = path_on(deployment, "shard0", "ovr")
        url = link(deployment, session, 0, path, b"mirrored")
        assert session.read_url(url) == b"mirrored"
        assert session.read_url(url, server="shard0-r") == b"mirrored"


class TestWritableFailover:
    def test_promoted_witness_takes_links_and_unlinks(self):
        """After promotion the witness is a full primary: link and unlink
        branches plus their 2PC traffic for the failed-over prefix commit
        through the router-resolved connection."""

        deployment, session = build_deployment(mode=ControlMode.RDB)
        pre_path = path_on(deployment, "shard0", "pre")
        link(deployment, session, 0, pre_path, b"before crash")
        deployment.crash("shard0")
        deployment.fail_over("shard0")

        # link during failover
        new_path = path_on(deployment, "shard0", "during")
        url = deployment.put_file(session, new_path, b"during failover")
        session.insert(TABLE, {"doc_id": 1, "body": url})
        witness_repo = deployment.replicas["shard0"].witness.dlfm.repository
        assert witness_repo.linked_file(new_path) is not None

        # the new link is fully served: token handout + validated read
        read_url = session.get_datalink(TABLE, {"doc_id": 1}, "body",
                                        access="read", ttl=1e9)
        assert deployment.read_url(session, read_url) == b"during failover"

        # unlink during failover
        session.delete(TABLE, {"doc_id": 0})
        assert witness_repo.linked_file(pre_path) is None

    def test_write_metrics_roles_in_stats(self):
        deployment, session = build_deployment()
        link(deployment, session, 0, path_on(deployment, "shard0"))
        routing = deployment.stats()["routing"]
        assert routing["writes_routed"] > 0
        assert routing["roles"]["shard0"]["shard0"] == "serving"
        assert routing["roles"]["shard0"]["shard0-r"] == "witness"
        deployment.crash("shard0")
        deployment.fail_over("shard0")
        deployment.restart("shard0")
        routing = deployment.stats()["routing"]
        assert routing["roles"]["shard0"]["shard0-r"] == "serving"
        # recovered but not rejoined: the deposed ex-primary is fenced
        assert routing["roles"]["shard0"]["shard0"] == "fenced"

    def test_mid_transaction_failover_aborts_cleanly(self):
        """A transaction whose branch lives on a node deposed before the
        prepare fan-out must abort: the new serving node has no branch for
        it and votes no, and nothing leaks on either side."""

        deployment, session = build_deployment()
        link(deployment, session, 0, path_on(deployment, "shard0", "seed"))
        path = path_on(deployment, "shard0", "mid")
        url = deployment.put_file(session, path, b"in flight")
        host_txn = deployment.begin()
        deployment.engine.insert(TABLE, {"doc_id": 5, "body": url}, host_txn)
        deployment.crash("shard0")
        deployment.fail_over("shard0")
        with pytest.raises(ReproError):
            deployment.engine.commit(host_txn)
        deployment.engine.abort(host_txn)
        assert deployment.host_db.select(TABLE, {"doc_id": 5}, lock=False) == []
        witness_repo = deployment.replicas["shard0"].witness.dlfm.repository
        assert witness_repo.linked_file(path) is None


class TestReversedShipFailBack:
    def test_fail_back_catches_up_from_last_applied_lsn(self):
        """Fail-back runs the reversed WAL stream from the LSN the deposed
        primary was caught up to -- no snapshot resync -- and carries the
        failover-era writes (rows and file content) back to it."""

        deployment, session = build_deployment(mode=ControlMode.RDB)
        replica = deployment.replicas["shard0"]
        pre_path = path_on(deployment, "shard0", "pre")
        link(deployment, session, 0, pre_path, b"original")
        deployment.crash("shard0")
        deployment.fail_over("shard0")

        during_path = path_on(deployment, "shard0", "fb")
        url = deployment.put_file(session, during_path, b"written on witness")
        session.insert(TABLE, {"doc_id": 9, "body": url})

        resyncs_before = replica.full_resyncs
        summary = deployment.fail_back("shard0")
        assert summary["serving"] == "shard0"
        assert summary["rejoin"]["mode"] == "reversed-ship"
        assert summary["rejoin"]["caught_up_records"] > 0
        # the failover-era file content was mirrored back, not resynced
        assert summary["rejoin"]["mirrored_files"] >= 1
        assert replica.full_resyncs == resyncs_before
        assert replica.reversed_catchups == 1

        # the home primary serves the failover-era link, bytes included
        primary_repo = deployment.shard("shard0").dlfm.repository
        assert primary_repo.linked_file(during_path) is not None
        read_url = session.get_datalink(TABLE, {"doc_id": 9}, "body",
                                        access="read", ttl=1e9)
        assert deployment.read_url(session, read_url) == b"written on witness"
        # and the ex-witness is a subscriber again, converged
        deployment.system.flush_logs()
        witness_repo = replica.witness.dlfm.repository
        assert {row["path"] for row in witness_repo.linked_files()} == \
            deployment.linked_paths("shard0")

    def test_diverged_ex_primary_falls_back_to_snapshot_resync(self):
        """A primary that crashed with unshipped durable records diverged
        from the serving lineage: its reversed-ship base is voided and the
        rejoin runs the snapshot fallback instead."""

        deployment, session = build_deployment()
        replica = deployment.replicas["shard0"]
        link(deployment, session, 0, path_on(deployment, "shard0", "seed"))

        # pause shipping, commit a link the witness never sees, crash
        replica.shipper.pause()
        url = deployment.put_file(session, path_on(deployment, "shard0", "lost"),
                                  b"never shipped")
        session.insert(TABLE, {"doc_id": 3, "body": url})
        deployment.system.flush_logs()
        assert replica.shipper.lag() > 0
        deployment.crash("shard0")
        deployment.fail_over("shard0")

        summary = deployment.fail_back("shard0")
        assert summary["rejoin"]["mode"] == "snapshot"
        assert replica.full_resyncs > 0
        # converged on the serving lineage (the unshipped link was aborted
        # at the host? no -- it committed, so the host still references it;
        # the snapshot resync rebuilt the primary from the witness lineage,
        # and the host row's file is restored on neither side)
        deployment.system.flush_logs()
        witness_repo = replica.witness.dlfm.repository
        assert {row["path"] for row in witness_repo.linked_files()} == \
            deployment.linked_paths("shard0")

    def test_serving_witness_survives_its_own_crash(self):
        """The promotion-time checkpoint makes the promoted witness's
        redo-applied state durable: a crash while serving recovers from its
        own WAL, not from a resync."""

        deployment, session = build_deployment(mode=ControlMode.RDB)
        path = path_on(deployment, "shard0", "ck")
        link(deployment, session, 0, path, b"checkpointed")
        deployment.crash("shard0")
        deployment.fail_over("shard0")
        during = path_on(deployment, "shard0", "ck2")
        url = deployment.put_file(session, during, b"post promotion")
        session.insert(TABLE, {"doc_id": 2, "body": url})

        deployment.crash("shard0-r")
        deployment.restart("shard0-r")
        witness_repo = deployment.replicas["shard0"].witness.dlfm.repository
        assert witness_repo.linked_file(path) is not None
        assert witness_repo.linked_file(during) is not None
        read_url = session.get_datalink(TABLE, {"doc_id": 2}, "body",
                                        access="read", ttl=1e9)
        assert deployment.read_url(session, read_url) == b"post promotion"


def _pad(repository, start: int, count: int = FOLD_AT) -> None:
    """Move a repository log on by ``count`` + 2 records in one
    single-statement insert into a table of its own (created, and shipped,
    the first time)."""

    db = repository.db
    if not db.catalog.has_table("pad"):
        db.create_table(TableSchema("pad", [
            Column("p", DataType.INTEGER, nullable=False)], primary_key=("p",)))
    db.insert_many("pad", [{"p": key} for key in range(start, start + count)])


def _repository_rows(node) -> dict:
    """Every repository table's rows, ``linked_files.ino`` left out (a
    witness rebinds it to its own inode numbers)."""

    db = node.dlfm.repository.db
    return {table: {rid: {column: value for column, value in row.items()
                          if column != "ino"}
                    for rid, row in db.catalog.heap(table).scan_live()}
            for table in db.catalog.table_names()}


class TestTheLogFolds:
    """A repository log folds once it is quiescent and ``FOLD_AT`` records
    long; a shipper behind the tail pins it, and a rejoin whose missed
    suffix was folded away takes the snapshot path."""

    def test_a_paused_shipper_pins_the_log_until_it_has_shipped(self):
        deployment, session = build_deployment()
        replica = deployment.replicas["shard0"]
        link(deployment, session, 0, path_on(deployment, "shard0"))
        shipper = replica.shipper
        wal = replica.serving.dlfm.repository.db.wal
        shipper.pause()
        cursor = shipper.cursor
        _pad(replica.serving.dlfm.repository, 0)
        # Quiescent but for the paused stream: nothing past its cursor went.
        assert len(wal.records()) > FOLD_AT
        assert len(wal.records_from(cursor)) == len(wal) - cursor
        assert shipper.lag() == len(wal) - cursor
        shipper.resume()
        assert shipper.ship() == len(wal) - cursor
        wal.flush()
        assert wal.records() == []
        with pytest.raises(LogFoldedError):
            wal.records_from(cursor)
        assert shipper.lag() == 0
        assert _repository_rows(replica.witness) == \
            _repository_rows(replica.serving)
        assert len(_repository_rows(replica.witness)["pad"]) == FOLD_AT

    def test_an_unreachable_witness_pins_the_log_too(self):
        deployment, session = build_deployment()
        replica = deployment.replicas["shard0"]
        wal = replica.serving.dlfm.repository.db.wal
        deployment.crash("shard0-r")
        _pad(replica.serving.dlfm.repository, 0)
        assert replica.shipper.ship_errors > 0
        assert len(wal.records()) > FOLD_AT
        deployment.restart("shard0-r")        # a snapshot resync
        _pad(replica.serving.dlfm.repository, FOLD_AT, 1)
        assert wal.records() == []
        assert _repository_rows(replica.witness) == \
            _repository_rows(replica.serving)

    def test_a_rejoin_below_the_fold_resyncs_from_a_snapshot(self):
        deployment, session = build_deployment(mode=ControlMode.RDB)
        replica = deployment.replicas["shard0"]
        link(deployment, session, 0, path_on(deployment, "shard0", "pre"),
             b"original")
        deployment.crash("shard0")
        deployment.fail_over("shard0")
        serving = replica.serving
        during_path = path_on(deployment, "shard0", "fb")
        url = deployment.put_file(session, during_path, b"written on witness")
        session.insert(TABLE, {"doc_id": 9, "body": url})
        # The promoted node's log folds past the deposed primary's
        # catch-up point.
        _pad(serving.dlfm.repository, 0)
        assert serving.dlfm.repository.db.wal.records() == []

        summary = deployment.fail_back("shard0")
        assert summary["rejoin"]["mode"] == "snapshot"
        assert replica.full_resyncs == 1 and replica.reversed_catchups == 0
        deployment.system.flush_logs()
        assert _repository_rows(replica.primary) == \
            _repository_rows(replica.witness)
        read_url = session.get_datalink(TABLE, {"doc_id": 9}, "body",
                                        access="read", ttl=1e9)
        assert deployment.read_url(session, read_url) == b"written on witness"


class TestFollowerReads:
    def test_reads_load_balance_across_serving_and_witness(self):
        deployment, session = build_deployment(mode=ControlMode.RDB)
        link(deployment, session, 0, path_on(deployment, "shard0", "lb"),
             b"balanced")
        url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                   access="read", ttl=1e9)
        for _ in range(4):
            assert deployment.read_url(session, url) == b"balanced"
        routing = deployment.stats()["routing"]
        assert routing["reads_by_role"]["serving"] >= 2
        assert routing["reads_by_role"]["witness"] >= 2

    def test_stale_follower_is_skipped_and_gated(self):
        """A witness past the staleness bound is skipped by the router and
        refuses direct reads through the DLFM gate."""

        deployment, session = build_deployment(mode=ControlMode.RDB)
        replica = deployment.replicas["shard0"]
        link(deployment, session, 0, path_on(deployment, "shard0", "st"),
             b"stale test")
        url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                   access="read", ttl=1e9)

        replica.shipper.pause()        # stream stalls; lag will accrue
        for _ in range(3):             # router falls back to the serving node
            assert deployment.read_url(session, url) == b"stale test"
        routing = deployment.stats()["routing"]
        assert routing["follower_rejects"] > 0
        assert routing["reads_by_role"]["witness"] == 0
        with pytest.raises(ReproError):
            session.read_url(url, server="shard0-r")

        replica.shipper.resume()
        replica.shipper.ship()
        assert session.read_url(url, server="shard0-r") == b"stale test"

    @pytest.mark.parametrize("read", [
        lambda deployment, session, url: deployment.read_url(session, url),
        lambda deployment, session, url: session.read_url(url),
    ], ids=["deployment", "session"])
    def test_update_in_place_disqualifies_stale_witness_copy(self, read):
        """Regression: after an update-in-place commit, the witness's
        mirrored copy still holds the old bytes (the data path is not in
        the WAL stream; only the linked_files metadata row ships).  The
        router must disqualify that witness for reads of that file, so a
        routed read -- through the deployment or a session's own routing
        -- never returns stale content, and each is counted on the
        file's prefix."""

        deployment, session = build_deployment(mode=ControlMode.RDD,
                                               recovery=True)
        replica = deployment.replicas["shard0"]
        path = path_on(deployment, "shard0", "uip")
        link(deployment, session, 0, path, b"old bytes v0")
        deployment.system.run_archiver()
        deployment.system.flush_logs()

        write_url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                         access="write", ttl=1e9)
        with session.update_file(write_url, truncate=True) as update:
            update.write(b"new bytes v1 - longer")
        deployment.system.flush_logs()   # ship the metadata UPDATE

        read_url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                        access="read", ttl=1e9)
        # the witness's copy is known-stale for exactly this path...
        assert replica.serves_read("shard0-r")
        assert not replica.serves_read("shard0-r", path)
        assert session.read_url(read_url, server="shard0-r") \
            == b"old bytes v0"
        # ...so every *routed* read returns the committed bytes
        router = deployment.router
        prefix = router.prefix_of(path)
        reads = router.prefix_reads.get(prefix, 0)
        skips = replica.stale_content_skips
        for _ in range(4):
            assert read(deployment, session, read_url) \
                == b"new bytes v1 - longer"
        routing = deployment.stats()["routing"]
        assert routing["stale_content_skips"] == skips + 4
        assert routing["reads_by_role"]["witness"] == 0
        assert router.prefix_reads[prefix] == reads + 4

    def test_promotion_refreshes_stale_witness_copy_from_archive(self):
        """At promotion the witness restores archived versions of its
        known-stale paths, so a failover right after an archived
        update-in-place serves the updated bytes, not the stale mirror."""

        deployment, session = build_deployment(mode=ControlMode.RDD,
                                               recovery=True)
        replica = deployment.replicas["shard0"]
        path = path_on(deployment, "shard0", "uipf")
        link(deployment, session, 0, path, b"old bytes v0")
        deployment.system.run_archiver()   # drain the link's archive job
        write_url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                         access="write", ttl=1e9)
        with session.update_file(write_url, truncate=True) as update:
            update.write(b"archived new bytes")
        deployment.system.run_archiver()   # the updated version is archived
        deployment.system.flush_logs()
        assert replica.serves_read("shard0-r")
        assert not replica.serves_read("shard0-r", path)

        deployment.crash("shard0")
        deployment.fail_over("shard0")
        read_url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                        access="read", ttl=1e9)
        assert deployment.read_url(session, read_url) == b"archived new bytes"
        assert replica.serves_read("shard0-r", path)


class TestMultiWitness:
    def test_reads_spread_over_all_witnesses(self):
        deployment, session = build_deployment(mode=ControlMode.RDB,
                                               witnesses=2)
        replica = deployment.replicas["shard0"]
        assert [node.name for node in replica.witnesses] == \
            ["shard0-r", "shard0-r2"]
        link(deployment, session, 0, path_on(deployment, "shard0", "mw"),
             b"many witnesses")
        url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                   access="read", ttl=1e9)
        for _ in range(6):
            assert deployment.read_url(session, url) == b"many witnesses"
        routing = deployment.stats()["routing"]
        assert routing["reads_by_role"]["serving"] >= 2
        assert routing["reads_by_role"]["witness"] >= 4

    def test_failover_rewires_surviving_witness_to_new_serving(self):
        deployment, session = build_deployment(mode=ControlMode.RDB,
                                               witnesses=2)
        replica = deployment.replicas["shard0"]
        link(deployment, session, 0, path_on(deployment, "shard0", "rw"),
             b"rewire")
        deployment.crash("shard0")
        summary = deployment.fail_over("shard0")
        new_serving = summary["serving"]
        assert new_serving in ("shard0-r", "shard0-r2")
        other = next(node.name for node in replica.witnesses
                     if node.name != new_serving)
        assert replica.is_subscribed(other)

        # a failover-era write replicates over the rewired stream
        path = path_on(deployment, "shard0", "rw2")
        url = deployment.put_file(session, path, b"over the new stream")
        session.insert(TABLE, {"doc_id": 1, "body": url})
        deployment.system.flush_logs()
        other_repo = replica.nodes[other].dlfm.repository
        assert other_repo.linked_file(path) is not None

        # and fail-back converges every node on the home primary again
        deployment.fail_back("shard0")
        deployment.system.flush_logs()
        for node in replica.witnesses:
            assert {row["path"] for row in
                    node.dlfm.repository.linked_files()} == \
                deployment.linked_paths("shard0")


class TestReplicationErrors:
    def test_failover_on_unreplicated_deployment_names_the_cause(self):
        from repro.errors import ReplicationError

        deployment = ShardedDataLinksDeployment(2)
        with pytest.raises(ReplicationError) as excinfo:
            deployment.fail_over("shard0")
        assert "shard0" in str(excinfo.value)
        assert "replication=False" in str(excinfo.value)
        with pytest.raises(ReplicationError) as excinfo:
            deployment.fail_back("shard0")
        assert "shard0" in str(excinfo.value)

    def test_a_crashed_shard_with_no_witness_is_down_until_restart(self):
        """An unreplicated shard is a shard with no witness: its crash
        makes its reads fail without the fail-over hint, and its restart
        serves them again."""

        from repro.errors import DaemonUnavailableError

        deployment = ShardedDataLinksDeployment(2)
        deployment.create_table(TableSchema(TABLE, [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(
                control_mode=ControlMode.RDD)),
        ], primary_key=("doc_id",)))
        session = deployment.session("alice", uid=1001)
        path = path_on(deployment, "shard0", "solo")
        url = deployment.put_file(session, path, b"one node")
        session.insert(TABLE, {"doc_id": 0, "body": url})
        read = session.get_datalink(TABLE, {"doc_id": 0}, "body")
        assert deployment.replicas["shard0"].witness is None
        assert "replication" not in deployment.stats()
        deployment.crash("shard0")
        assert deployment.router.roles("shard0") == {"shard0": "down"}
        with pytest.raises(DaemonUnavailableError) as excinfo:
            deployment.read_url(session, read)
        assert "is down" in str(excinfo.value)
        assert "fail_over" not in str(excinfo.value)
        deployment.restart("shard0")
        assert deployment.read_url(session, read) == b"one node"
        assert deployment.router.roles("shard0") == {"shard0": "serving"}

    def test_routing_to_an_unknown_shard_names_the_shard(self):
        from repro.errors import DataLinksError

        router = ShardedDataLinksDeployment(2).router
        with pytest.raises(DataLinksError, match="unknown shard 'shard9'"):
            router.route_read("shard9")
        assert router.writable_node("shard9") == "shard9"

    def test_failover_on_unknown_shard_names_the_shard(self):
        from repro.errors import ReplicationError

        deployment = ShardedDataLinksDeployment(2, replication=True)
        with pytest.raises(ReplicationError) as excinfo:
            deployment.fail_over("shard9")
        assert "shard9" in str(excinfo.value)
        assert "no such shard" in str(excinfo.value)

    @pytest.mark.parametrize("witnesses", [0, -1])
    def test_replication_without_a_witness_is_refused(self, witnesses):
        """``witnesses`` below one under replication is an error, like
        ``shards`` below one -- not a silent single witness."""

        from repro.errors import DataLinksError

        with pytest.raises(DataLinksError, match="at least one witness"):
            ShardedDataLinksDeployment(2, replication=True,
                                       witnesses=witnesses)
        # Without replication the witness count is unused.
        assert not ShardedDataLinksDeployment(2, witnesses=0).replicated


class TestStalenessBoundCoversBufferedCommits:
    def test_follower_never_serves_unconstrained_mirror_under_group_commit(self):
        """Under group commit a link can be committed and visible on the
        primary while its records sit in the WAL buffer: the witness has
        neither the linked_files row nor the link-time access constraints
        on its mirrored copy.  The staleness bound counts those *pending*
        records, so the router must keep every read on the primary -- a
        tokenless read of the rdb file is rejected on every route."""

        deployment = ShardedDataLinksDeployment(
            2, replication=True, flush_policy="group", group_commit_window=8)
        deployment.create_table(TableSchema(TABLE, [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(
                control_mode=ControlMode.RDB, recovery=False)),
        ], primary_key=("doc_id",)))
        alice = deployment.session("alice", uid=1001)
        stranger = deployment.session("stranger", uid=6666)
        path = path_on(deployment, "shard0", "buf")
        bare_url = deployment.put_file(alice, path, b"top secret")
        alice.insert(TABLE, {"doc_id": 0, "body": bare_url})

        replica = deployment.replicas["shard0"]
        # the branch COMMIT is buffered: witness is behind despite lag()==0
        assert replica.shipper.pending_lag() > 0
        assert not replica.serves_read("shard0-r")
        for _ in range(4):
            with pytest.raises(ReproError):
                deployment.read_url(stranger, bare_url)
        assert deployment.router.reads_by_role["witness"] == 0

        # once the window drains the witness is eligible again -- and its
        # mirrored copy is constrained, so the tokenless read still fails
        deployment.system.flush_logs()
        assert replica.shipper.pending_lag() == 0
        assert replica.serves_read("shard0-r")
        for _ in range(2):
            with pytest.raises(ReproError):
                deployment.read_url(stranger, bare_url)


def _record_batches(monkeypatch, node) -> list:
    """The LSNs of every WAL batch *node*'s applier receives, per batch."""

    applier = node.dlfm.replica
    apply = applier.apply
    batches = []

    def recording(records):
        batches.append([record.lsn for record in records])
        return apply(records)

    monkeypatch.setattr(applier, "apply", recording)
    return batches


class TestReadsLeaveTheLogAlone:
    """A tokenized read registers its token and opens and closes its Sync
    entry in the soft state of the node that serves it: no repository log
    record, no log force and no shipment, whichever node that is."""

    def test_a_read_on_either_node_writes_and_ships_nothing(
            self, monkeypatch):
        deployment, session = build_deployment(mode=ControlMode.RDB)
        replica = deployment.replicas["shard0"]
        path = path_on(deployment, "shard0", "quiet")
        link(deployment, session, 0, path, b"read quietly")
        shipper = replica.shipper
        assert shipper.lag() == shipper.pending_lag() == 0
        batches = _record_batches(monkeypatch, replica.witness)
        wals = [node.dlfm.repository.db.wal
                for node in (replica.serving, replica.witness)]
        before = [(len(wal), wal.flush_count) for wal in wals]
        url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                   access="read", ttl=1e9)
        for node in ("shard0", "shard0-r") * 3:
            assert session.read_url(url, server=node) == b"read quietly"
        assert [(len(wal), wal.flush_count) for wal in wals] == before
        assert batches == []
        assert shipper.lag() == shipper.pending_lag() == 0
        assert replica.serves_read("shard0-r")
        registries = [node.dlfm.soft.tokens
                      for node in (replica.serving, replica.witness)]
        assert registries[0] == registries[1]
        assert list(registries[0]) == [(path, 1001, "R")]
        assert replica.serving.dlfm.soft.sync == \
            replica.witness.dlfm.soft.sync == {}

    def test_a_crash_after_reads_keeps_every_fast_path(self):
        """Reads leave no unshipped record behind, so a crash right after
        them neither resyncs the second witness nor voids the deposed
        node's reversed-ship base (E12's ``failover_ms``)."""

        deployment, session = build_deployment(mode=ControlMode.RDB,
                                               witnesses=2)
        replica = deployment.replicas["shard0"]
        path = path_on(deployment, "shard0", "quiet")
        link(deployment, session, 0, path, b"before the crash")
        url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                   access="read", ttl=1e9)
        for _ in range(3):
            assert session.read_url(url, server="shard0") == \
                b"before the crash"
        streams = [replica._streams[node.name] for node in replica.witnesses]
        assert all(shipper.lag() == 0 for shipper in streams)
        deployment.crash("shard0")
        serving = deployment.fail_over("shard0")["serving"]
        other = next(node.name for node in replica.witnesses
                     if node.name != serving)
        assert replica.is_subscribed(other)
        assert replica.full_resyncs == 0

        summary = deployment.fail_back("shard0")
        assert summary["rejoin"]["mode"] == "reversed-ship"
        assert replica.full_resyncs == 0 and replica.reversed_catchups == 1
        later = path_on(deployment, "shard0", "after")
        link(deployment, session, 1, later, b"after fail-back")
        for node in replica.witnesses:
            assert {row["path"] for row in
                    node.dlfm.repository.linked_files()} == \
                deployment.linked_paths("shard0") == {path, later}
            assert _repository_rows(node) == \
                _repository_rows(replica.serving)

    def test_an_aborted_update_frees_the_witness_on_its_own_flush(self):
        """A witness refuses a read of a file under update on the strength
        of the replicated ``update_tracking`` row, so the abort that removes
        it ships at once: a witness read of the file succeeds with no other
        write in between."""

        deployment, session = build_deployment(mode=ControlMode.RDD,
                                               recovery=True)
        replica = deployment.replicas["shard0"]
        path = path_on(deployment, "shard0", "abort")
        link(deployment, session, 0, path, b"committed bytes")
        deployment.system.run_archiver()
        deployment.system.flush_logs()
        write_url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                         access="write", ttl=1e9)
        update = session.update_file(write_url, truncate=True)
        update.begin()
        update.write(b"half done")
        assert replica.witness.dlfm.repository.tracking(path) is not None
        read_url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                        access="read", ttl=1e9)
        with pytest.raises(FileSystemError, match="being updated"):
            session.read_url(read_url, server="shard0-r")
        assert deployment.system.abort_file_update("shard0", path)
        assert replica.shipper.pending_lag() == 0
        assert replica.witness.dlfm.repository.tracking(path) is None
        assert session.read_url(read_url, server="shard0-r") == \
            b"committed bytes"


class TestCaughtUpWitnessesMirror:
    """The staleness bound is honest: after every step of a seeded history
    -- reads on either node, updates begun and aborted, padding, links,
    group-commit-buffered transactions, pause / resume, crash / recover,
    promotion and fail-back -- every running, unpaused subscriber whose
    pending lag is 0 holds the serving node's repository rows exactly, and
    its pending lag is never below its durable lag."""

    @staticmethod
    def check(replica) -> None:
        if not replica.serving.running:
            return
        for name, shipper in replica._streams.items():
            assert shipper.pending_lag() >= shipper.lag() >= 0, name
            if shipper.paused or not replica.nodes[name].running \
                    or shipper.pending_lag():
                continue
            assert _repository_rows(replica.nodes[name]) == \
                _repository_rows(replica.serving), name

    @pytest.mark.parametrize("seed", [3, 11, 2026])
    def test_a_seeded_history(self, seed):
        import random

        rng = random.Random(seed)
        deployment, session = build_deployment(
            mode=ControlMode.RDD, flush_policy="group",
            group_commit_window=3, witnesses=2)
        replica = deployment.replicas["shard0"]
        path = path_on(deployment, "shard0", "memo")
        link(deployment, session, 0, path)
        deployment.drain()
        docs = 1
        steps = ["read"] * 4 + ["write", "hard", "link", "flush", "pause",
                                "resume", "crash", "promote"]
        for _ in range(40):
            step = rng.choice(steps)
            serving = replica.serving
            if step == "read":
                url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                           access="read", ttl=1e9)
                try:
                    session.read_url(url, server=rng.choice(
                        list(replica.nodes)))
                except ReproError:
                    pass        # a fenced, stale or down node refuses
            elif step == "write":
                serving.dlfm.repository.add_tracking(
                    {"path": path, "userid": 1001})
                serving.dlfm.repository.remove_tracking(path)
            elif step == "hard":
                _pad(serving.dlfm.repository, 1000 * docs, 1)
                docs += 1
            elif step == "link":
                link(deployment, session, docs,
                     path_on(deployment, "shard0", f"m{docs}x"))
                deployment.drain()
                docs += 1
            elif step == "flush":
                deployment.system.flush_logs()
            elif step == "pause":
                rng.choice(list(replica._streams.values())).pause()
            elif step == "resume":
                for shipper in replica._streams.values():
                    shipper.resume()
                    shipper.ship()
            elif step == "crash":
                deployment.crash(replica.serving_name)
                self.check(replica)
                deployment.restart(replica.serving_name)
            elif replica.failed_over:
                deployment.fail_back("shard0")
            else:
                for shipper in replica._streams.values():
                    shipper.resume()
                deployment.crash("shard0")
                self.check(replica)
                deployment.fail_over("shard0")
            self.check(replica)


class TestAWitnessMirrorsARelink:
    #: ``(owner, mode)`` of a file under each mode's link constraint.
    CONSTRAINED = {ControlMode.RDD: ("dbms", 0o400),
                   ControlMode.RFD: (1001, 0o444)}

    @pytest.mark.parametrize("old, new", [
        (ControlMode.RDD, ControlMode.RFD), (ControlMode.RFD, ControlMode.RDD),
    ], ids=lambda mode: mode.value)
    def test_the_mirror_ends_under_the_new_row(self, old, new):
        """A file unlinked and linked into a column of another mode in one
        transaction: the witness's mirror ends under the new row's
        constraint, as the serving copy does."""

        deployment, alice = build_deployment(mode=old)
        deployment.create_table(TableSchema("other_docs", [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(control_mode=new)),
        ], primary_key=("doc_id",)))
        path = path_on(deployment, "shard0")
        url = link(deployment, alice, 0, path)
        alice.begin()
        alice.delete(TABLE, {"doc_id": 0})
        alice.insert("other_docs", {"doc_id": 0, "body": url})
        alice.commit()
        owners = {}
        for name, node in deployment.replicas["shard0"].nodes.items():
            attrs = node.files.stat(path)
            owners[name] = ("dbms" if attrs.uid == node.dbms_uid
                            else attrs.uid, attrs.mode & 0o777)
        assert owners == dict.fromkeys(("shard0", "shard0-r"),
                                       self.CONSTRAINED[new])


class TestAWitnessStatsEachLinkRowOnce:
    """An applied transaction stats each link row's mirror once: the stat
    that picks the constraint also gives the inode the row is rebound to,
    and a relinked path is stat'ed after its give-back."""

    @pytest.mark.parametrize("mode", [ControlMode.RDD, ControlMode.RFD],
                             ids=lambda mode: mode.value)
    def test_one_stat_per_applied_link_row(self, mode, monkeypatch):
        deployment, alice = build_deployment(mode=mode)
        witness = deployment.replicas["shard0"].witness
        paths = [path_on(deployment, "shard0", tag) for tag in "abc"]
        urls = [deployment.put_file(alice, path, b"mirrored")
                for path in paths]
        stat, stats = witness.files.stat, []

        def counted(path):
            stats.append(path)
            return stat(path)

        monkeypatch.setattr(witness.files, "stat", counted)
        alice.insert_many(TABLE, [{"doc_id": doc_id, "body": url}
                                  for doc_id, url in enumerate(urls)])
        assert sorted(stats) == sorted(paths)
        del stats[:]
        alice.begin()                           # a relink: one row written
        alice.delete(TABLE, {"doc_id": 0})
        alice.insert(TABLE, {"doc_id": 5, "body": urls[0]})
        alice.commit()
        assert stats == [paths[0]]
        for path in paths:
            row = witness.dlfm.repository.linked_file(path)
            assert row["ino"] == stat(path).ino
