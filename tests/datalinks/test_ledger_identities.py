"""The simulated ledger of an operation, against a reference spelled out here.

Each check compares the one implementation in ``src/`` with a reference
written in the test -- same result values and a simulated ledger (every
:class:`~repro.simclock.ClockStats` label's count and total, every domain
timestamp) that is the reference's exactly, or differs from it by exactly
the charges the check names.

* ``TestBulkHandoutIsOneStatementPerShape``: ``get_datalink_many`` hands
  out what the loop of per-row ``get_datalink`` calls over its distinct
  keys hands out, checked against that loop on twin systems, and a
  repeated key its first occurrence's URL; its ledger is the loop's less
  exactly the charges of one statement per shape and one engine dispatch
  per call.
* ``TestARepeatedKeyIsReadOnce``: k copies of one key cost one row read,
  one index probe and one token.
* ``TestServingAndWitnessReadsChargeAlike``: a tokenized read of one file
  on a replicated deployment charges the same ledger whichever node serves
  it (ROADMAP direction 6(b)).
* ``TestUpdateInPlaceIsTableSizeIndependent``: the file-keyed reference
  index moves no simulated charge, and update-in-place costs the same
  number of Python calls whatever the table size.
* ``TestCloseCommitIsOneRoundTrip``: the close of an updated file commits
  with one message between the DLFM and the host.
* ``TestLinkJobIsABranchWrite``: a file linked with recovery gets its
  archive job inside the link's branch, dated by the host commit.
* ``TestAnUpdateResolvesItsFileOnce``: an update's open, close and archive
  job walk no path the DLFS upcalls already resolved.
"""

from __future__ import annotations

import random

import pytest


def _group_snapshot(group) -> dict:
    return {
        "global": group.ticks,
        "domains": {name: domain.ticks
                    for name, domain in group.domains.items()},
        "merged": group.stats.ledger(),
        "per_domain": {name: domain.stats.ledger()
                       for name, domain in group.domains.items()},
    }


class TestBulkHandoutIsOneStatementPerShape:
    """``get_datalink_many(wheres)`` against the loop ``[get_datalink(where)
    for where in distinct]`` on a twin system, *distinct* being *wheres*
    less each dict ``where`` whose items repeat an earlier one's.

    Per ``where``: the loop's outcome for its first occurrence -- ``None``,
    the same bare URL, or a token of the same type for the same path that
    validates on its owner server -- and a repeat the very URL its first
    occurrence got; the same refusal at the same ``where``, and equal
    token-cache counters.  A call is one set-oriented SELECT: one
    ``datalink_engine_dispatch`` and one ``sql_statement_base`` per
    statement (per distinct dict shape, per non-dict ``where``), so the
    bulk host ledger is the loop's less ``len(distinct) - 1`` dispatches
    and ``len(distinct) - statements`` bases; every other label, and every
    other domain, is the loop's.  Inside a host transaction both hold the
    same locks.  A refused call is compared with the loop up to and
    including the refused ``where``: nothing after it is selected.
    """

    #: file_ids 0..5 are linked files, 50 holds a NULL url, 99 is no row.
    FILES = 6
    SIZE = 512

    def _twin(self, mode, token_cache: bool):
        from repro.bench.runner import FILES_TABLE, RunContext

        system, _, _ = RunContext().build_microsystem(mode, size=self.SIZE,
                                                      files=self.FILES)
        system.engine.insert(FILES_TABLE, {"file_id": 50, "doc": None,
                                           "doc_size": 0, "doc_mtime": 0.0})
        if token_cache:
            system.engine.enable_token_cache()
        return system

    def _wheres(self, rng, count: int, mixed: bool = True) -> list:
        """*count* wheres; unless *mixed*, all of one shape, the key."""

        wheres = []
        for _ in range(count):
            kind = rng.randrange(9) if mixed else rng.choice([0, 1, 4])
            if kind == 0:
                wheres.append({"file_id": 99})
            elif kind == 1:
                wheres.append({"file_id": 50})
            elif kind == 2:
                # Not a dict: the statement goes through ``db.select``.
                wanted = rng.randrange(self.FILES)
                wheres.append(lambda row, wanted=wanted:
                              row["file_id"] == wanted)
            elif kind == 3:
                # A second shape, whose residual test may reject the row.
                wheres.append({"file_id": rng.randrange(self.FILES),
                               "doc_size": rng.choice([self.SIZE, 0])})
            else:
                # Repeats included: they are what the token cache serves.
                wheres.append({"file_id": rng.randrange(self.FILES)})
        return wheres

    @staticmethod
    def _distinct(wheres) -> tuple[list, list]:
        """``(distinct, firsts)``: *wheres* less each dict ``where`` whose
        items repeat an earlier one's, and per ``where`` the index in
        *distinct* of its first occurrence."""

        distinct, firsts, seen = [], [], {}
        for where in wheres:
            key = tuple(where.items()) if type(where) is dict else where
            if key not in seen:
                seen[key] = len(distinct)
                distinct.append(where)
            firsts.append(seen[key])
        return distinct, firsts

    @staticmethod
    def _statements(wheres) -> int:
        shapes = {tuple(where) for where in wheres if type(where) is dict}
        return len(shapes) + sum(type(where) is not dict for where in wheres)

    @staticmethod
    def _call(call):
        from repro.errors import DataLinksError

        try:
            return call()
        except DataLinksError as error:
            return (type(error).__name__, str(error))

    @staticmethod
    def _outcome(system, url):
        """``None``, a bare URL, or ``(bare URL, token type)`` of a token
        that validates on its owner server."""

        from repro.util.urls import parse_url

        if url is None:
            return None
        parsed = parse_url(url)
        if parsed.token is None:
            return url
        token = system.file_server(parsed.server).dlfm.tokens.validate(
            parsed.token, parsed.path)
        return parsed.with_token(None).render(), token.token_type

    def _saved(self, clock, wheres) -> dict:
        """``{label: (count, ticks)}`` the bulk call charges less."""

        fewer = {"datalink_engine_dispatch": len(wheres) - 1,
                 "sql_statement_base": len(wheres) - self._statements(wheres)}
        return {label: (count, count * clock.unit_ticks(label))
                for label, count in fewer.items()}

    @staticmethod
    def _locks(system, host_txn) -> dict:
        """``{resource: mode}`` of every lock *host_txn* holds."""

        if host_txn is None:
            return {}
        locks, txn_id = system.engine.db.locks, host_txn.txn.txn_id
        return {resource: locks.holders_of(resource)[txn_id]
                for resource in locks.locks_of(txn_id)}

    def _assert_ledgers(self, bulk, loop, wheres) -> None:
        saved = self._saved(bulk.clock, wheres)
        got, want = _group_snapshot(bulk.clocks), _group_snapshot(loop.clocks)
        for name in want["domains"]:
            if name == "host":
                continue
            assert got["domains"][name] == want["domains"][name], name
            assert got["per_domain"][name] == want["per_domain"][name], name
        host = dict(want["per_domain"]["host"])
        for label, (count, ticks) in saved.items():
            have_count, have_ticks = host.get(label, (0, 0))
            host[label] = (have_count - count, have_ticks - ticks)
        assert got["per_domain"]["host"] == \
            {label: cell for label, cell in host.items() if cell[0]}
        assert got["domains"]["host"] == want["domains"]["host"] - \
            sum(ticks for _, ticks in saved.values())

    @pytest.mark.parametrize("ttl", [None, 30.0])
    @pytest.mark.parametrize("token_cache", [False, True])
    @pytest.mark.parametrize("seed, mixed", [(3, False), (3, True),
                                             (777, True), (20261002, True)])
    def test_outcomes_refusals_and_the_statement_ledger(self, seed, mixed,
                                                        token_cache, ttl):
        from repro.bench.runner import FILES_TABLE
        from repro.datalinks.control_modes import ControlMode

        rng = random.Random(seed)
        seen = {"token": 0, "bare": 0, "none": 0, "refused": 0, "locked": 0,
                "repeated": 0}
        for mode in (ControlMode.RDB, ControlMode.RFD, ControlMode.RDD):
            for access in ("read", "write", "append"):
                for in_txn in (False, True):
                    wheres = self._wheres(rng, 14, mixed)
                    distinct, firsts = self._distinct(wheres)
                    bulk = self._twin(mode, token_cache)
                    loop = self._twin(mode, token_cache)
                    bulk_txn = bulk.engine.begin() if in_txn else None
                    loop_txn = loop.engine.begin() if in_txn else None
                    got = self._call(lambda: bulk.engine.get_datalink_many(
                        FILES_TABLE, wheres, "doc", access=access,
                        host_txn=bulk_txn, ttl=ttl))
                    want = []
                    for where in distinct:
                        want.append(self._call(
                            lambda: loop.engine.get_datalink(
                                FILES_TABLE, where, "doc", access=access,
                                host_txn=loop_txn, ttl=ttl)))
                        if type(want[-1]) is tuple:
                            break
                    # The loop stops at a refusal; so must the bulk call:
                    # ledger and locks are the loop's through that where.
                    self._assert_ledgers(bulk, loop, distinct[:len(want)])
                    locks = self._locks(bulk, bulk_txn)
                    assert locks == self._locks(loop, loop_txn), (mode, access)
                    seen["locked"] += bool(locks)
                    assert bulk.engine.token_cache_stats() == \
                        loop.engine.token_cache_stats(), (mode, access)
                    if want and type(want[-1]) is tuple:
                        assert got == want[-1], (mode, access)
                        seen["refused"] += 1
                        continue
                    outcomes = [self._outcome(bulk, url) for url in got]
                    assert outcomes == [self._outcome(loop, want[first])
                                        for first in firsts]
                    assert got == [got[firsts.index(first)]
                                   for first in firsts]
                    seen["repeated"] += len(wheres) - len(distinct)
                    for outcome in outcomes:
                        kind = "none" if outcome is None else \
                            "bare" if type(outcome) is str else "token"
                        seen[kind] += 1
        assert all(seen.values()), seen

    @pytest.mark.parametrize("token_cache", [False, True])
    def test_empty_and_single_calls(self, token_cache):
        """No wheres: one dispatch and nothing else.  One where:
        ``get_datalink(where)`` *is* ``get_datalink_many([where])[0]`` --
        the same URL, token text included, and the same ledger."""

        from repro.bench.runner import FILES_TABLE
        from repro.datalinks.control_modes import ControlMode

        for mode in (ControlMode.RDB, ControlMode.RFD, ControlMode.RDD):
            bulk = self._twin(mode, token_cache)
            loop = self._twin(mode, token_cache)
            assert bulk.engine.get_datalink_many(FILES_TABLE, [], "doc") == []
            self._assert_ledgers(bulk, loop, [])
            bulk = self._twin(mode, token_cache)
            for access in ("read", "write"):
                for where in self._wheres(random.Random(5), 12):
                    got = self._call(lambda: bulk.engine.get_datalink_many(
                        FILES_TABLE, [where], "doc", access=access)[0])
                    want = self._call(lambda: loop.engine.get_datalink(
                        FILES_TABLE, where, "doc", access=access))
                    assert got == want, (mode, access)
                    assert _group_snapshot(bulk.clocks) == \
                        _group_snapshot(loop.clocks), (mode, access)


class TestARepeatedKeyIsReadOnce:
    """``get_datalink_many`` of *k* copies of one key: one ``row_read``,
    one ``index_probe`` and one ``token_generate``, and *k* identical URLs,
    on a plain system (which mints per SELECT) and on a sharded deployment
    (which runs the token cache)."""

    COPIES = 5

    def _copies(self) -> list:
        """Equal wheres, not one object: a repeat is told by its items."""

        return [{"doc_id": 0} for _ in range(self.COPIES)]

    def _assert_read_once(self, clocks, handout) -> None:
        labels = ("row_read", "index_probe", "token_generate")
        with clocks.window() as window:
            urls = handout()
        assert {label: window.merged[label][0] for label in labels} == \
            dict.fromkeys(labels, 1)
        assert len(urls) == self.COPIES and len(set(urls)) == 1
        assert urls[0] is not None

    def test_a_plain_system(self):
        from repro.datalinks.control_modes import ControlMode
        from tests.conftest import FILES_TABLE, build_system

        system, alice, _, _ = build_system(ControlMode.RDD)
        self._assert_read_once(system.clocks, lambda: alice.get_datalink_many(
            FILES_TABLE, self._copies(), "body"))

    def test_a_sharded_deployment(self):
        from tests.conftest import (SHARD_TABLE, build_deployment, link_docs,
                                    prefix_on)

        deployment, session = build_deployment()
        link_docs(deployment, session, prefix_on(deployment, "shard0"), [0])
        self._assert_read_once(
            deployment.system.clocks, lambda: session.get_datalink_many(
                SHARD_TABLE, self._copies(), "body",
                ttl=600.0))
        assert deployment.stats()["token_cache"]["hits"] == 0


class TestServingAndWitnessReadsChargeAlike:
    """Every node keeps its own token registry and Sync table and charges
    them alike, so a read served by a witness pays the paper's read-path
    work exactly as one served by the serving node: the per-label ledger of
    the read is the same, label for label, count for count, on the first
    read a node serves and on a repeat."""

    @pytest.mark.parametrize("mode", ["rdb", "rdd", "rfd"])
    def test_one_file_read_on_each_node(self, mode):
        from repro.datalinks.control_modes import ControlMode
        from tests.datalinks.test_replication import (TABLE, build_deployment,
                                                      link, path_on)

        deployment, session = build_deployment(
            mode=ControlMode.from_string(mode))
        link(deployment, session, 0, path_on(deployment, "shard0", "read"),
             b"served anywhere")
        url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                   access="read", ttl=1e9)
        ledgers = {}
        for node in ("shard0", "shard0-r") * 2:
            with deployment.system.clocks.window() as window:
                assert session.read_url(url, server=node) == b"served anywhere"
            ledgers.setdefault(node, []).append(window.merged)
        assert ledgers["shard0"] == ledgers["shard0-r"]
        first, repeat = ledgers["shard0"]
        if mode == "rfd":
            # rfd reads are file-system controlled: no upcall at all.
            assert not any(label.startswith("dlfm.") for label in first)
        else:
            # Three upcalls: the lookup's link-row probe and token upsert;
            # the open's link-row probe, update check and admission (token
            # check and Sync insert in one statement); the close's Sync
            # removal, on the path the open named.  No BEGIN, lock or log
            # force.
            assert first["dlfm.sql_statement_base"][0] == 6
            assert "dlfm.log_write" not in first
            assert "dlfm.lock_acquire" not in first
        # The repeat validates the same token again: the upsert is the same
        # keyed write whether it inserts the entry or finds it there.
        assert repeat == first


def _update_in_place_mix(files: int, updates: int, seed: int = 42):
    """A seeded read/update-in-place mix with an archiver poll per update;
    returns ``(system, run)`` where ``run()`` drives the mix."""

    from repro.datalinks.control_modes import ControlMode
    from tests.conftest import FILES_TABLE, build_system

    # One multi-row insert links every file: the table's size, not how it
    # was filled, is what the mix must not feel.
    system, alice, _, urls = build_system(ControlMode.RDD, size=512,
                                          files=files, link=False)
    alice.insert_many(FILES_TABLE, [
        {"doc_id": doc_id, "title": f"Doc {doc_id}", "body": url,
         "body_size": 512, "body_mtime": 0.0}
        for doc_id, url in enumerate(urls)])
    system.run_archiver()
    rng = random.Random(seed)
    plan = [(rng.randrange(files), rng.random() < 0.5, rng.randrange(64, 512))
            for _ in range(updates * 2)]

    def run() -> None:
        for doc_id, is_update, size in plan:
            where = {"doc_id": doc_id}
            if is_update:
                url = alice.get_datalink(FILES_TABLE, where, "body",
                                         access="write")
                with alice.update_file(url, truncate=True) as update:
                    update.replace(b"u" * size)
                system.run_archiver()
            else:
                alice.read_url(alice.get_datalink(FILES_TABLE, where, "body",
                                                  access="read"))
    return system, run


class TestUpdateInPlaceIsTableSizeIndependent:
    """The file-keyed reference index and the draining archive queue are
    simulator-only, and they make update-in-place O(rows touched)."""

    def test_reference_index_moves_no_simulated_charge(self, monkeypatch):
        """Candidate enumeration is uncharged and the matched rows are the
        same, so every clock cell in every domain equals the run whose
        metadata statement falls back to the full scan."""

        from repro.storage.catalog import Catalog
        from tests.conftest import FILES_TABLE

        system, run = _update_in_place_mix(files=12, updates=30)
        index = system.host_db.catalog.index_by_name(
            FILES_TABLE, f"{FILES_TABLE}_body_file")
        assert index is not None and len(index) == 12
        run()
        indexed = _group_snapshot(system.clocks)
        assert indexed["merged"]["row_write"][0] > 30

        create_index = Catalog.create_index
        skipped = []

        def no_reference_index(self, index_name, table, columns, **options):
            if index_name.endswith("_file"):
                skipped.append(index_name)
                return None
            return create_index(self, index_name, table, columns, **options)

        monkeypatch.setattr(Catalog, "create_index", no_reference_index)
        system, run = _update_in_place_mix(files=12, updates=30)
        assert skipped == [f"{FILES_TABLE}_body_file"]
        assert [index.name for index in
                system.host_db.catalog.iter_indexes(FILES_TABLE)] == \
            [f"{FILES_TABLE}_pk"]
        run()
        assert _group_snapshot(system.clocks) == indexed

    def test_call_count_does_not_grow_with_the_table(self):
        """Deterministic scaling guard: the same 50 operations (updates
        with archiver polls, and reads) cost the same number of Python
        calls on 100 documents as on 1 600 -- counts, not wall clock."""

        import cProfile

        calls = {}
        for files in (100, 1600):
            _, run = _update_in_place_mix(files=files, updates=25, seed=7)
            profile = cProfile.Profile()
            profile.enable()
            run()
            profile.disable()
            calls[files] = sum(entry.callcount
                               for entry in profile.getstats())
        small, large = calls[100], calls[1600]
        assert abs(large - small) / small < 0.05, calls


class TestCloseCommitIsOneRoundTrip:
    """The close of an updated rdd file on a plain system, against the
    protocol spelled out: the DLFM writes its branch and forces its PREPARE
    (one ``dlfm.log_write``), its one request to the host carries the vote
    (one ``db_dlfm_message``, charged on the host, which has no daemon to
    dispatch it), the host forces its COMMIT (one ``log_write``) and the
    reply commits the branch (the second ``dlfm.log_write``).  The only
    ``daemon_dispatch`` is the close upcall's.  A coordinator-driven
    two-phase commit charged two messages here, a prepare and a commit
    (each dispatched by the DLFM's agent), and left the request free."""

    def test_one_close_is_one_message(self):
        from repro.datalinks.control_modes import ControlMode
        from repro.storage.wal import LogRecordType
        from tests.conftest import FILES_TABLE, build_system

        system, alice, paths, _ = build_system(ControlMode.RDD, size=512)
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body",
                                 access="write")
        update = alice.update_file(url, truncate=True)
        update.begin()
        update.write(b"one round trip")
        dlfm = system.file_server("fs1").dlfm
        wal = dlfm.repository.db.wal
        mark = wal.tail_lsn()
        with system.clocks.window() as window:
            update.commit()
        counts = {label: count for label, (count, _) in window.merged.items()}
        assert counts["db_dlfm_message"] == 1
        assert window.domains["host"]["db_dlfm_message"][0] == 1
        assert counts["daemon_dispatch"] == 1
        assert counts["log_write"] == 1
        assert counts["dlfm.log_write"] == 2
        records = wal.records_from(mark)
        prepares = [record for record in records
                    if record.type is LogRecordType.PREPARE]
        assert len(prepares) == 1
        host_txn_id = prepares[0].extra["host_txn_id"]
        assert system.host_db.txn_outcome(host_txn_id) == "committed"
        # The close's archive job is one of the branch's own writes.
        assert any(record.table == "archive_queue"
                   and record.txn_id == prepares[0].txn_id
                   for record in records)


class TestLinkJobIsABranchWrite:
    """The archive job of a file linked with recovery is one of the link
    branch's own writes, as a close's is: its ``archive_queue`` INSERT is
    logged in the branch before the PREPARE, and no other repository
    transaction runs.  The link's ``fs1`` ledger is the pin below; a job
    queued after the commit as a transaction of its own charged one more
    ``dlfm.sql_statement_base`` (its BEGIN) and one more ``dlfm.log_write``
    (its COMMIT force).  The archived version carries the state id of the
    host commit the branch committed on, which the commit message brought:
    the host's log is never asked."""

    #: ``fs1``'s ledger of one rdd link with recovery: label -> (count,
    #: picoseconds).
    PIN = {
        "syscall_base": (4, 200_000_000),
        "vfs_op": (12, 240_000_000),
        "fs_metadata_update": (2, 100_000_000),
        "directory_lookup": (8, 240_000_000),
        "daemon_dispatch": (3, 60_000_000),
        "db_dlfm_message": (3, 1_800_000_000),
        "dlfm.sql_statement_base": (5, 250_000_000),
        "dlfm.index_probe": (2, 4_000_000),
        "dlfm.row_read": (1, 5_000_000),
        "dlfm.row_write": (2, 20_000_000),
        "dlfm.lock_acquire": (4, 4_000_000),
        "dlfm.log_write": (2, 40_000_000),
    }

    @staticmethod
    def _row(doc_id: int, url: str) -> dict:
        return {"doc_id": doc_id, "title": "t", "body": url, "body_size": 0,
                "body_mtime": 0.0}

    def test_the_job_is_written_before_the_prepare_at_the_pinned_cost(self):
        from repro.datalinks.control_modes import ControlMode
        from repro.storage.wal import LogRecordType
        from tests.conftest import FILES_TABLE, build_system

        system, alice, _, urls = build_system(ControlMode.RDD, size=512,
                                              link=False)
        wal = system.file_server("fs1").dlfm.repository.db.wal
        mark = wal.tail_lsn()
        with system.clocks.window() as window:
            alice.insert(FILES_TABLE, self._row(0, urls[0]))
        assert window.domains["fs1"] == self.PIN
        records = wal.records_from(mark)
        assert {record.txn_id for record in records} == {records[0].txn_id}
        kinds = [record.type for record in records]
        prepare = kinds.index(LogRecordType.PREPARE)
        assert [record.table for record in records[:prepare]
                if record.type is LogRecordType.INSERT] == \
            ["linked_files", "archive_queue"]
        assert kinds[prepare + 1:] == [LogRecordType.COMMIT]

    @pytest.mark.parametrize("grouped", [False, True],
                             ids=["commit", "group"])
    def test_the_version_carries_the_host_commits_state_id(self, grouped,
                                                           monkeypatch):
        from repro.datalinks.control_modes import ControlMode
        from tests.conftest import FILES_TABLE, build_system

        system, _, paths, urls = build_system(ControlMode.RDD, size=512,
                                              files=3, link=False)
        engine = system.engine
        # Two files in one branch (two jobs of one host transaction), one
        # in another.
        first, second = engine.begin(), engine.begin()
        engine.insert_many(FILES_TABLE, [self._row(0, urls[0]),
                                         self._row(1, urls[1])], first)
        engine.insert(FILES_TABLE, self._row(2, urls[2]), second)

        def asked(host_txn_id):
            raise AssertionError("the commit message carries the state id")

        monkeypatch.setattr(engine, "host_commit_state", asked)
        if grouped:
            assert engine.commit(first, second) == \
                system.host_db.commit_state_of(second.txn_id)
        else:
            engine.commit(first)
            engine.commit(second)
        # In a group too, each transaction's versions carry its own COMMIT
        # record's LSN, as a branch resolved in doubt dates them.
        state_ids = [system.host_db.commit_state_of(host_txn.txn_id)
                     for host_txn in (first, second)]
        assert state_ids[0] < state_ids[1]
        assert system.run_archiver() == 3
        repository = system.file_server("fs1").dlfm.repository
        assert [repository.versions(path)[0]["state_id"] for path in paths] \
            == [state_ids[0], state_ids[0], state_ids[1]]

    def test_a_group_resolved_in_doubt_dates_each_version_alike(self):
        """A window-2 drain over two shards, the first shard crashed once
        the host COMMITs are durable: the live shard's commit comes from
        the redrive and the restarted shard's from its in-doubt branches;
        both date each transaction's versions by its own COMMIT."""

        from repro.errors import ReproError
        from tests.conftest import (SHARD_TABLE, boom, build_deployment,
                                    prefix_on)

        deployment, alice = build_deployment(group_commit_window=2,
                                             replication=False)
        prefixes = [prefix_on(deployment, shard) for shard in
                    ("shard0", "shard1")]
        host_txns = []
        for doc in range(2):
            host_txn = deployment.begin()
            deployment.engine.insert_many(SHARD_TABLE, [
                {"doc_id": 2 * doc + index, "body_size": 0,
                 "body_mtime": 0.0, "body": deployment.put_file(
                     alice, f"{prefix}/doc{doc}.dat", b"payload")}
                for index, prefix in enumerate(prefixes)], host_txn)
            host_txns.append(host_txn)
        deployment.engine.failpoints["commit:after_host_commit"] = boom(
            lambda: deployment.crash("shard0"), raises=None)
        assert deployment.commit(host_txns[0]) is None
        with pytest.raises(ReproError):
            deployment.commit(host_txns[1])
        deployment.engine.failpoints.clear()
        deployment.restart("shard0")
        deployment.system.run_archiver()

        host_db = deployment.system.host_db
        for doc, host_txn in enumerate(host_txns):
            dates = [deployment.system.file_server(shard).dlfm.repository
                     .versions(f"{prefix}/doc{doc}.dat")[0]["state_id"]
                     for shard, prefix in zip(("shard0", "shard1"), prefixes)]
            assert dates == [host_db.commit_state_of(host_txn.txn_id)] * 2


class TestAnUpdateResolvesItsFileOnce:
    """One rdd update (open, write, close) and its archive job, on the file
    server's domain.  DLFS hands the DLFM the attributes it read: the open
    upcall carries the pre-open ``fs_getattr``, the write close one
    ``fs_getattr`` of the closed vnode (one ``vfs_op``) next to the
    pre-open attributes, and the archive job reads its file once, ENOENT
    being its "file gone".  Each path walk the DLFM made instead -- a
    ``stat`` at the open, a ``stat`` at the close, an ``exists`` before the
    archive read -- charged one ``syscall_base``, two ``directory_lookup``
    and three ``vfs_op``; the open also read the chain's latest version
    number for a column nothing read (one ``dlfm.sql_statement_base``, one
    ``dlfm.row_read``), and the close read the update-tracking row back
    for the pre-open attributes (one ``dlfm.sql_statement_base``, one
    ``dlfm.index_probe``, one ``dlfm.row_read``).  The job's version row is
    written while the mover stores the object, so only its commit waits
    for the transfer."""

    #: ``fs1``'s ledger of the update and its archive job: label ->
    #: (count, picoseconds).
    PIN = {
        "daemon_dispatch": (3, 60_000_000),
        "directory_lookup": (4, 120_000_000),
        "disk_seek": (2, 16_000_000_000),
        "disk_transfer_per_byte": (2, 2_975_464),
        "dlfm.index_probe": (10, 20_000_000),
        "dlfm.lock_acquire": (10, 10_000_000),
        "dlfm.log_write": (4, 80_000_000),
        "dlfm.row_read": (8, 40_000_000),
        "dlfm.row_write": (10, 100_000_000),
        "dlfm.sql_statement_base": (21, 1_050_000_000),
        "dlfs_filter": (4, 200_000_000),
        "syscall_base": (6, 300_000_000),
        "token_validate": (1, 300_000_000),
        "upcall_round_trip": (3, 750_000_000),
        "vfs_op": (15, 300_000_000),
    }

    def test_the_update_and_its_archive_job_at_the_pinned_cost(self):
        from repro.datalinks.control_modes import ControlMode
        from tests.conftest import FILES_TABLE, build_system

        system, alice, paths, _ = build_system(ControlMode.RDD, size=512)
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body",
                                 access="write")
        system.clocks.barrier()
        with system.clocks.window() as window:
            with alice.update_file(url, truncate=True) as update:
                update.write(b"resolved once")
            assert system.run_archiver() == 1
        assert window.domains["fs1"] == self.PIN
        assert window.elapsed["fs1"] == 22_879_835_129
        repository = system.file_server("fs1").dlfm.repository
        assert repository.linked_file(paths[0])["last_size"] == 13
        assert repository.pending_archive_jobs() == []
