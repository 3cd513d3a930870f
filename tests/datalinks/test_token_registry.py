"""The DLFM token registry against oracles that are not the code.

Every node keeps its token registry in its volatile soft state
(:class:`~repro.datalinks.dlfm.soft_state.SoftState`), one entry per
``(path, userid, token_type)`` whose expiry a repeat validation moves to the
later of the two (the token upsert).  Three checks:

* a seeded property test drives random register / expire / purge / find
  sequences through the store and holds it to a brute-force list of every
  registration: a lookup finds a live entry exactly when a live
  registration exists, the entry's expiry is the latest registered, the
  store holds one entry per triple and a lookup examines at most one row
  per token type;
* across the events that reset or move a node's state -- crash and
  recovery, failover, prefix hand-off -- repeated reads and updates leave
  exactly one entry per live (path, user, type) on the node that served
  them, and the version ids handed out by ``MAX(key) + 1`` stay unique;
* archive jobs, whose rows live only until the archiver has run them,
  complete in enqueue order and leave the queue empty.
"""

from __future__ import annotations

import random

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.dlfm.repository import DLFMRepository
from repro.datalinks.dlfm.soft_state import SoftState
from repro.simclock import SimClock
from repro.storage.database import Database
from repro.util.urls import parse_url
from tests.conftest import (ALICE_UID, FILES_TABLE, SHARD_TABLE,
                            build_deployment, build_system, link_docs,
                            prefix_on)


# ---------------------------------------------------------------------------
# the upsert vs a brute-force list
# ---------------------------------------------------------------------------
class ListOracle:
    """Every registration since its triple was last purged, in order."""

    def __init__(self):
        self.entries: list[tuple] = []       # (path, userid, type, expires_at)

    def add_token_entry(self, path, userid, token_type, expires_at):
        self.entries.append((path, userid, token_type, expires_at))

    def latest(self, path, userid, token_type):
        return max((entry[3] for entry in self.entries
                    if entry[:3] == (path, userid, token_type)), default=None)

    def find_token_entry(self, path, userid, *, for_write, now):
        """``(type, expiry)`` a lookup must return: a read prefers a live
        ``R`` entry to a live ``W`` one."""

        for token_type in ("W",) if for_write else ("R", "W"):
            latest = self.latest(path, userid, token_type)
            if latest is not None and latest >= now:
                return token_type, latest
        return None

    def triples(self) -> set:
        return {entry[:3] for entry in self.entries}

    def purge_expired_tokens(self, now):
        dead = {triple for triple in self.triples()
                if self.latest(*triple) < now}
        self.entries = [entry for entry in self.entries
                        if entry[:3] not in dead]
        return len(dead)


class TestTokenUpsertOracle:
    PATHS = ("/a/hot.html", "/a/warm.html", "/b/cold.html")
    USERS = (3001, 3002, 3003, 3004)

    @pytest.mark.parametrize("seed", [7, 20260926, 424242])
    def test_the_store_matches_the_list(self, seed):
        rng = random.Random(seed)
        clock = SimClock()
        store, oracle = SoftState(clock, 0.1), ListOracle()
        stats = clock.stats
        now = 0.0
        finds = hits = extended = 0
        for step in range(600):
            action = rng.random()
            statements = stats.count("dlfm.sql_statement_base")
            reads = stats.count("dlfm.row_read")
            if action < 0.40:
                # Expiries are drawn, not increasing: a registration may
                # land before the entry's expiry and must not shorten it.
                entry = (rng.choice(self.PATHS), rng.choice(self.USERS),
                         rng.choice("RRW"),
                         now + rng.choice((4.0, 20.0, 60.0)) + step * 1e-6)
                before = oracle.latest(*entry[:3])
                store.add_token_entry(*entry)
                oracle.add_token_entry(*entry)
                extended += before is not None and before < entry[3]
            elif action < 0.55:
                now += rng.uniform(0.0, 6.0)
            elif action < 0.62:
                assert store.purge_expired_tokens(now) == \
                    oracle.purge_expired_tokens(now)
            else:
                path, userid = rng.choice(self.PATHS), rng.choice(self.USERS)
                for_write = rng.random() < 0.4
                want = oracle.find_token_entry(path, userid,
                                               for_write=for_write, now=now)
                got = store.find_token_entry(path, userid,
                                             for_write=for_write, now=now)
                assert (got and (got["token_type"], got["expires_at"])) == \
                    (want or None), f"step {step}"
                assert stats.count("dlfm.row_read") - reads <= \
                    (1 if for_write else 2)
                finds += 1
                hits += want is not None
            if action < 0.40 or action >= 0.62:
                assert stats.count("dlfm.sql_statement_base") == \
                    statements + 1
            assert set(store.tokens) == oracle.triples()
            assert all(expires_at == oracle.latest(*triple)
                       for triple, expires_at in store.tokens.items())
        # The program must exercise every outcome to mean anything.
        assert finds > 100 and 0 < hits < finds and extended > 10


# ---------------------------------------------------------------------------
# one entry per live triple across crash, failover and hand-off
# ---------------------------------------------------------------------------
def _paths(session, table, doc_ids) -> list[str]:
    return [parse_url(session.select(table, {"doc_id": doc_id})[0]["body"])
            .path for doc_id in doc_ids]


def _assert_one_entry_per_triple(paths, serving, *witnesses) -> None:
    """Alice read and updated each of *paths*, more than once, on a shard
    whose nodes are *serving* and *witnesses*: their registries hold her
    ``R`` and ``W`` entry per file and nothing else of hers -- every write
    entry on the serving node, each read entry on the node(s) that served
    her reads -- and every Sync table is empty (each open was closed)."""

    nodes = (serving,) + witnesses
    held = [key for dlfm in nodes for key in dlfm.soft.tokens
            if key[0] in paths]
    assert set(held) == {(path, ALICE_UID, token_type)
                         for path in paths for token_type in "RW"}
    assert {(path, ALICE_UID, "W") for path in paths} <= \
        set(serving.soft.tokens)
    assert all(not dlfm.soft.sync.get(path)
               for dlfm in nodes for path in paths)


def _assert_unique_ids(session, table, doc_ids, dlfm, run_archiver):
    """Version ids are duplicate-free and queued archive jobs complete in
    enqueue order.

    One update per document is left queued: the job ids are distinct and
    the archiver then completes the jobs in enqueue order (one new version
    each, in that order) and leaves the queue empty.  Then an update held
    open on every document shows as one Sync write entry each.
    """

    repository = dlfm.repository
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
    ids = [row["version_id"]
           for row in repository.db.select("file_versions", lock=False)]
    assert len(ids) == len(set(ids)), f"version ids repeat: {sorted(ids)}"

    updates = []
    try:
        for doc_id in doc_ids:
            url = session.get_datalink(table, {"doc_id": doc_id}, "body",
                                       access="write", ttl=1e9)
            updates.append(session.update_file(url, truncate=True))
            updates[-1].begin()
        for path in _paths(session, table, doc_ids):
            assert dlfm.soft.sync[path] == [("write", ALICE_UID)]
    finally:
        for update in updates:
            update.abort()


def _read_and_edit(session, table, doc_ids, run_archiver, tag):
    """A tokenized read plus one update-in-place per document: each
    validates a fresh read and write token and opens and closes the file."""

    for doc_id in doc_ids:
        where = {"doc_id": doc_id}
        session.read_url(session.get_datalink(table, where, "body",
                                              access="read", ttl=1e9))
        url = session.get_datalink(table, where, "body", access="write",
                                   ttl=1e9)
        with session.update_file(url, truncate=True) as update:
            update.replace(f"{tag} {doc_id}".encode())
        run_archiver()


class TestOneEntryPerTripleAcrossResets:
    def test_across_crash_and_recover(self):
        system, alice, paths, _ = build_system(ControlMode.RDD, files=3)
        dlfm = system.file_server("fs1").dlfm
        for tag in ("before", "again"):
            _read_and_edit(alice, FILES_TABLE, range(3), system.run_archiver,
                           tag)
        _assert_one_entry_per_triple(paths, dlfm)
        system.flush_logs()
        system.crash("fs1")
        assert dlfm.soft.tokens == {} and dlfm.soft.sync == {}
        system.restart("fs1")
        for tag in ("after", "again"):
            _read_and_edit(alice, FILES_TABLE, range(3), system.run_archiver,
                           tag)
        _assert_one_entry_per_triple(paths, dlfm)
        _assert_unique_ids(alice, FILES_TABLE, range(3), dlfm,
                           system.run_archiver)

    def test_across_failover(self):
        """The entries a witness registers serving follower reads are its
        own and stay with it through promotion; the deposed node's die
        with its crash."""

        deployment, session = build_deployment()
        prefix = prefix_on(deployment, "shard0")
        link_docs(deployment, session, prefix, range(3))
        replica = deployment.replicas["shard0"]
        witness = replica.witness
        paths = _paths(session, SHARD_TABLE, range(3))
        urls = [session.get_datalink(SHARD_TABLE, {"doc_id": doc_id}, "body",
                                     access="read", ttl=1e9)
                for doc_id in range(3)]
        for _ in range(2):
            for url in urls:
                assert session.read_url(url, server=witness.name)
        registered = dict(witness.dlfm.soft.tokens)
        assert sorted(registered) == sorted((path, ALICE_UID, "R")
                                            for path in paths)
        deployment.system.flush_logs()
        deployment.crash("shard0")
        assert replica.primary.dlfm.soft.tokens == {}
        deployment.fail_over("shard0")
        assert witness.dlfm.soft.tokens == registered
        # The restarted ex-primary stays fenced; it only has to be up for
        # the system-wide archiver pass.
        deployment.restart("shard0")
        for tag in ("promoted", "again"):
            _read_and_edit(session, SHARD_TABLE, range(3),
                           deployment.system.run_archiver, tag)
        _assert_one_entry_per_triple(paths, witness.dlfm)
        _assert_unique_ids(session, SHARD_TABLE, range(3), witness.dlfm,
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
        # A backup picks every version archived so far, so the imported
        # chains are retained beside the post-move versions.
        deployment.system.backup()
        assert deployment.rebalance_prefix("/moving", dest)["moved"]
        everything = list(range(3)) + list(range(10, 13))
        for tag in ("moved", "again"):
            _read_and_edit(session, SHARD_TABLE, everything, run_archiver,
                           tag)
        replica = deployment.replicas[dest]
        dlfm = replica.serving.dlfm
        repository = dlfm.repository
        moved = [row for row in repository.db.select("file_versions",
                                                     lock=False)
                 if row["path"].startswith("/moving/")]
        assert len(moved) >= 6          # imported chain + post-move versions
        _assert_one_entry_per_triple(
            _paths(session, SHARD_TABLE, everything), dlfm,
            *(node.dlfm for node in replica.witnesses))
        _assert_unique_ids(session, SHARD_TABLE, everything, dlfm,
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
        # The jobs ran: each update's version replaced the one it
        # superseded (no backup picks it), on the witness by redo.
        for repository in (primary, witness):
            rows = repository.db.select("file_versions", lock=False)
            assert len(rows) == versions == 3
            assert {row["version_no"] for row in rows} == {5}

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
        deployment.crash("shard0")
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
        # Version 4 supersedes 3; a backup at state 25 picks version 2.
        assert repository.add_version("/f", 104, 40, [25]) == [103, 101]
        assert [(row["version_no"], row["archive_id"])
                for row in repository.versions("/f")] == [(2, 102), (4, 104)]
        assert repository.latest_version_no("/other") == 0
