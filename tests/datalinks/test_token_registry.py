"""The DLFM token registry against oracles that are not the code.

Two checks on the constant-time registry (a third -- the ``(path, userid)``
index moves no simulated charge -- sits with the other ledger-identity
suites in ``tests/datalinks/test_ledger_identities.py``):

* a seeded property test drives random register / expire / purge / find
  sequences through :class:`DLFMRepository` and :class:`WitnessSoftState`
  and holds both to a brute-force list: the entry returned is the *first
  live match in registration order*, whatever index serves the lookup;
* ids handed out by ``MAX(key) + 1`` stay unique among live rows across
  the events that rebuild or bypass the cached maximum -- crash + recovery,
  failover with soft-state migration, prefix hand-off (the PR 9 bug class)
  -- and archive jobs, whose rows live only until the archiver has run
  them, still complete in enqueue order.
"""

from __future__ import annotations

import random

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.dlfm.repository import DLFMRepository
from repro.datalinks.replication import WitnessSoftState
from repro.simclock import SimClock
from repro.storage.database import Database
from tests.conftest import (FILES_TABLE, SHARD_TABLE, build_deployment,
                            build_system, link_docs, prefix_on)

ID_COLUMNS = {"token_entries": "entry_id", "sync_entries": "entry_id",
              "file_versions": "version_id"}


# ---------------------------------------------------------------------------
# find_token_entry vs a brute-force list
# ---------------------------------------------------------------------------
class ListOracle:
    """The registry as the paper states it: a list, scanned in order."""

    def __init__(self):
        self.entries: list[tuple] = []       # (path, userid, type, expires_at)

    def add_token_entry(self, path, userid, token_type, expires_at):
        self.entries.append((path, userid, token_type, expires_at))

    def find_token_entry(self, path, userid, *, for_write, now):
        for entry in self.entries:
            if entry[0] == path and entry[1] == userid \
                    and entry[3] >= now \
                    and (entry[2] == "W" or not for_write):
                return entry
        return None

    def purge_expired_tokens(self, now):
        before = len(self.entries)
        self.entries = [entry for entry in self.entries if entry[3] >= now]
        return before - len(self.entries)


def _as_tuple(entry):
    if entry is None:
        return None
    return (entry["path"], entry["userid"], entry["token_type"],
            entry["expires_at"])


class TestFindTokenEntryOracle:
    PATHS = ("/a/hot.html", "/a/warm.html", "/b/cold.html")
    USERS = (3001, 3002, 3003, 3004)

    @pytest.mark.parametrize("seed", [7, 20260926, 424242])
    def test_repository_and_soft_state_match_the_list(self, seed):
        rng = random.Random(seed)
        repository = DLFMRepository(Database(
            "registry", SimClock(), cost_scale=0.1, stats_prefix="dlfm."))
        soft, oracle = WitnessSoftState(), ListOracle()
        now = 0.0
        finds = hits = 0
        for step in range(600):
            action = rng.random()
            if action < 0.40:
                # Every expiry is distinct, so it identifies its entry:
                # returning a later registration instead of the first live
                # one cannot pass.
                expires_at = now + rng.choice((4.0, 20.0, 60.0)) + step * 1e-6
                entry = (rng.choice(self.PATHS), rng.choice(self.USERS),
                         rng.choice("RRW"), expires_at)
                for store in (repository, soft, oracle):
                    store.add_token_entry(*entry)
            elif action < 0.55:
                now += rng.uniform(0.0, 6.0)
            elif action < 0.62:
                purged = oracle.purge_expired_tokens(now)
                assert repository.purge_expired_tokens(now) == purged
                assert soft.purge_expired_tokens(now) == purged
            else:
                path, userid = rng.choice(self.PATHS), rng.choice(self.USERS)
                for_write = rng.random() < 0.4
                want = oracle.find_token_entry(path, userid,
                                               for_write=for_write, now=now)
                for store in (repository, soft):
                    got = store.find_token_entry(path, userid,
                                                 for_write=for_write, now=now)
                    assert _as_tuple(got) == want, \
                        f"step {step}: {type(store).__name__}"
                finds += 1
                hits += want is not None
        # The program must exercise both outcomes to mean anything.
        assert finds > 100 and 0 < hits < finds
        assert sorted(map(_as_tuple, soft.all_token_entries())) == \
            sorted(oracle.entries)


# ---------------------------------------------------------------------------
# id uniqueness across the events that invalidate the cached maximum
# ---------------------------------------------------------------------------
def _assert_unique_ids(session, table, doc_ids, repository, run_archiver):
    """Every id column is duplicate-free, with rows in all four tables.

    Archive jobs only live until the archiver runs them, so one update per
    document is left queued: the job ids are distinct and the archiver then
    completes the jobs in enqueue order (one new version each, in that
    order) and leaves the queue empty.  Sync entries only live while a
    file is open, so the other three tables are checked with an update
    held open on every document (one live ``write`` entry each).
    """

    order = list(doc_ids)[::-1]
    _read_and_edit(session, table, order, lambda: None, "queued")
    jobs = repository.pending_archive_jobs()
    job_ids = [job["job_id"] for job in jobs]
    assert len(jobs) == len(order) and len(set(job_ids)) == len(job_ids)
    newest_before = max(row["version_id"] for row in
                        repository.db.select("file_versions", lock=False))
    run_archiver()
    assert repository.db.select("archive_queue", lock=False) == []
    archived = sorted((row for row in
                       repository.db.select("file_versions", lock=False)
                       if row["version_id"] > newest_before),
                      key=lambda row: row["version_id"])
    assert [row["path"] for row in archived] == [job["path"] for job in jobs]

    updates = []
    try:
        for doc_id in doc_ids:
            url = session.get_datalink(table, {"doc_id": doc_id}, "body",
                                       access="write", ttl=1e9)
            updates.append(session.update_file(url, truncate=True))
            updates[-1].begin()
        for name, column in ID_COLUMNS.items():
            ids = [row[column]
                   for row in repository.db.select(name, lock=False)]
            assert ids, f"the scenario left {name} empty"
            assert len(ids) == len(set(ids)), \
                f"{name}.{column} repeats: {sorted(ids)}"
    finally:
        for update in updates:
            update.abort()


def _read_and_edit(session, table, doc_ids, run_archiver, tag):
    """Tokenized reads plus one update-in-place per document: every id
    sequence (token, Sync, version, archive job) advances."""

    for doc_id in doc_ids:
        where = {"doc_id": doc_id}
        session.read_url(session.get_datalink(table, where, "body",
                                              access="read", ttl=1e9))
        url = session.get_datalink(table, where, "body", access="write",
                                   ttl=1e9)
        with session.update_file(url, truncate=True) as update:
            update.replace(f"{tag} {doc_id}".encode())
        run_archiver()


class TestIdsStayUnique:
    def test_across_crash_and_recover(self):
        system, alice, _, _ = build_system(ControlMode.RDD, files=3)
        repository = system.file_server("fs1").dlfm.repository
        _read_and_edit(alice, FILES_TABLE, range(3), system.run_archiver,
                       "before")
        system.flush_logs()
        system.crash_file_server("fs1")
        system.recover_file_server("fs1")
        _read_and_edit(alice, FILES_TABLE, range(3), system.run_archiver,
                       "after")
        _assert_unique_ids(alice, FILES_TABLE, range(3), repository,
                           system.run_archiver)

    def test_across_failover_soft_state_migration(self):
        deployment, session = build_deployment()
        prefix = prefix_on(deployment, "shard0")
        link_docs(deployment, session, prefix, range(3))
        replica = deployment.replicas["shard0"]
        witness = replica.witness
        urls = [session.get_datalink(SHARD_TABLE, {"doc_id": doc_id}, "body",
                                     access="read", ttl=1e9)
                for doc_id in range(3)]
        # Serving-node entries replicate into the witness heaps; reads
        # through the witness accrue soft entries beside them.
        for url in urls:
            assert deployment.read_url(session, url)
            assert session.read_url(url, server=witness.name)
        assert witness.dlfm.replica_status()["soft_token_entries"] >= 3
        deployment.system.flush_logs()
        deployment.crash_shard("shard0")
        summary = deployment.fail_over("shard0")
        assert summary["soft_state"]["token_entries"] >= 3
        # The restarted ex-primary stays fenced; it only has to be up for
        # the system-wide archiver pass.
        deployment.recover_shard("shard0")
        _read_and_edit(session, SHARD_TABLE, range(3),
                       deployment.system.run_archiver, "promoted")
        _assert_unique_ids(session, SHARD_TABLE, range(3),
                           witness.dlfm.repository,
                           deployment.system.run_archiver)

    def test_across_rebalance_import(self):
        deployment, session = build_deployment()
        link_docs(deployment, session, "/moving", range(3))
        source = deployment.shard_of("/moving/doc000.dat")
        dest = next(name for name in deployment.shard_names if name != source)
        # The destination already owns versions of its own, so imported
        # version rows must be renumbered past them.
        own = prefix_on(deployment, dest, "/own")
        link_docs(deployment, session, own, range(10, 13))
        run_archiver = deployment.system.run_archiver
        _read_and_edit(session, SHARD_TABLE, range(3), run_archiver, "source")
        _read_and_edit(session, SHARD_TABLE, range(10, 13), run_archiver,
                       "dest")
        deployment.system.flush_logs()
        assert deployment.rebalance_prefix("/moving", dest)["moved"]
        everything = list(range(3)) + list(range(10, 13))
        _read_and_edit(session, SHARD_TABLE, everything, run_archiver,
                       "moved")
        repository = deployment.router.serving_server(dest).dlfm.repository
        moved = [row for row in repository.db.select("file_versions",
                                                     lock=False)
                 if row["path"].startswith("/moving/")]
        assert len(moved) >= 6          # imported chain + post-move versions
        _assert_unique_ids(session, SHARD_TABLE, everything, repository,
                           run_archiver)


# ---------------------------------------------------------------------------
# the archive queue holds unfinished work only
# ---------------------------------------------------------------------------
def _queue(repository):
    return repository.db.select("archive_queue", lock=False)


class TestArchiveQueueDrains:
    def test_empty_on_primary_and_witness_after_every_cycle(self):
        deployment, session = build_deployment()
        prefix = prefix_on(deployment, "shard0")
        link_docs(deployment, session, prefix, range(3))
        replica = deployment.replicas["shard0"]
        primary = deployment.system.file_server("shard0").dlfm.repository
        witness = replica.witness.dlfm.repository
        versions = len(primary.db.select("file_versions", lock=False))
        for cycle in range(4):
            _read_and_edit(session, SHARD_TABLE, range(3),
                           deployment.system.run_archiver, f"cycle {cycle}")
            deployment.system.flush_logs()
            assert _queue(primary) == [] and _queue(witness) == []
        # The jobs ran: one more version per update, mirrored on the witness.
        assert len(primary.db.select("file_versions", lock=False)) == \
            versions + 12
        assert len(witness.db.select("file_versions", lock=False)) == \
            versions + 12

    def test_a_promoted_witness_archives_the_jobs_it_inherited(self):
        deployment, session = build_deployment()
        prefix = prefix_on(deployment, "shard0")
        link_docs(deployment, session, prefix, range(2))
        witness = deployment.replicas["shard0"].witness.dlfm
        _read_and_edit(session, SHARD_TABLE, range(2), lambda: None, "queued")
        deployment.system.flush_logs()
        paths = [job["path"] for job in witness.repository.pending_archive_jobs()]
        assert len(paths) == 2          # replicated, and left alone: redo-only
        assert witness.process_archive_jobs() == 0
        before = {path: witness.repository.latest_version_no(path)
                  for path in paths}
        deployment.crash_shard("shard0")
        deployment.fail_over("shard0")
        assert witness.process_archive_jobs() == 2
        assert _queue(witness.repository) == []
        assert {path: witness.repository.latest_version_no(path)
                for path in paths} == {path: number + 1
                                       for path, number in before.items()}

    def test_a_queued_job_blocks_the_next_update_until_cancelled(self):
        from repro.errors import FileSystemError, UpdateInProgressError

        system, alice, paths, _ = build_system(ControlMode.RDD, files=3)
        dlfm = system.file_server("fs1").dlfm
        _read_and_edit(alice, FILES_TABLE, range(3), lambda: None, "queued")
        assert [job["path"] for job in dlfm.repository.pending_archive_jobs()] \
            == paths
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 1}, "body",
                                 access="write", ttl=1e9)
        with pytest.raises(FileSystemError) as info:
            alice.update_file(url, truncate=True).begin()
        assert isinstance(info.value.__cause__, UpdateInProgressError)
        assert dlfm.repository.cancel_archive_jobs(paths[1]) == 1
        assert [job["path"] for job in dlfm.repository.pending_archive_jobs()] \
            == [paths[0], paths[2]]
        with alice.update_file(url, truncate=True) as update:
            update.replace(b"unblocked")
        assert dlfm.has_pending_archives(paths[1])
        assert system.run_archiver() == 3
        assert _queue(dlfm.repository) == []


class TestVersionChainOrder:
    def test_latest_version_ignores_row_order_after_an_import(self):
        """A prefix hand-off imports version rows in whatever order the
        exporter held them; "latest" is by ``version_no``, not by row."""

        repository = DLFMRepository(Database("repo", SimClock()))
        imported = [{"version_id": 90 + index, "_rid": 7, "path": "/f",
                     "version_no": number, "archive_id": 100 + number,
                     "state_id": 10 * number, "created_at": 0.0}
                    for index, number in enumerate((3, 1, 2))]
        assert repository.import_version_rows(imported) == 3
        assert [row["version_no"] for row in repository.versions("/f")] \
            == [1, 2, 3]
        assert repository.latest_version_no("/f") == 3
        assert repository.latest_version("/f")["archive_id"] == 103
        assert repository.latest_version(
            "/f", max_state_id=25)["version_no"] == 2
        assert repository.latest_version("/f", max_state_id=5) is None
        assert repository.add_version("/f", 104, 40)["version_no"] == 4
        assert repository.latest_version_no("/other") == 0
