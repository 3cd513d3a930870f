"""The simulated ledger of an operation, against a reference spelled out here.

Each check compares the one implementation in ``src/`` with a reference
written in the test -- same result values and a simulated ledger (every
:class:`~repro.simclock.ClockStats` label's count and total, every domain
timestamp) that is the reference's exactly, or differs from it by exactly
the charges the check names.

* ``TestBulkHandoutIsOneStatementPerShape``: ``get_datalink_many`` hands
  out what the loop of per-row ``get_datalink`` calls hands out, checked
  against that loop on twin systems; its ledger is the loop's less exactly
  the charges of one statement per shape and one engine dispatch per call.
* ``TestSmokeWorkloadLedgerIdentity``: the composite ``(path, userid)``
  token-registry index moves no simulated charge of the E9 smoke run.
* ``TestUpdateInPlaceIsTableSizeIndependent``: the file-keyed reference
  index moves no simulated charge, and update-in-place costs the same
  number of Python calls whatever the table size.
"""

from __future__ import annotations

import random

import pytest

from repro.storage.database import Database


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
    for where in wheres]`` on a twin system.

    Per ``where``: the same outcome -- ``None``, the same bare URL, or a
    token of the same type for the same path that validates on its owner
    server -- the same refusal at the same ``where``, and equal token-cache
    counters.  A call is one set-oriented SELECT: one
    ``datalink_engine_dispatch`` and one ``sql_statement_base`` per
    statement (per distinct dict shape, per non-dict ``where``), so the
    bulk host ledger is the loop's less ``len(wheres) - 1`` dispatches and
    ``len(wheres) - statements`` bases; every other label, and every other
    domain, is the loop's.  Inside a host transaction both hold the same
    locks.  A refused call is compared with the loop up to and including
    the refused ``where``: nothing after it is selected.
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
        seen = {"token": 0, "bare": 0, "none": 0, "refused": 0, "locked": 0}
        for mode in (ControlMode.RDB, ControlMode.RFD, ControlMode.RDD):
            for access in ("read", "write", "append"):
                for in_txn in (False, True):
                    wheres = self._wheres(rng, 14, mixed)
                    bulk = self._twin(mode, token_cache)
                    loop = self._twin(mode, token_cache)
                    bulk_txn = bulk.engine.begin() if in_txn else None
                    loop_txn = loop.engine.begin() if in_txn else None
                    got = self._call(lambda: bulk.engine.get_datalink_many(
                        FILES_TABLE, wheres, "doc", access=access,
                        host_txn=bulk_txn, ttl=ttl))
                    want = []
                    for where in wheres:
                        want.append(self._call(
                            lambda: loop.engine.get_datalink(
                                FILES_TABLE, where, "doc", access=access,
                                host_txn=loop_txn, ttl=ttl)))
                        if type(want[-1]) is tuple:
                            break
                    # The loop stops at a refusal; so must the bulk call:
                    # ledger and locks are the loop's through that where.
                    self._assert_ledgers(bulk, loop, wheres[:len(want)])
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
                    assert outcomes == [self._outcome(loop, url)
                                        for url in want]
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


class TestSmokeWorkloadLedgerIdentity:
    """The real E9 smoke configuration as the fixture of the
    composite-index check."""

    def _run_e9(self) -> dict:
        from repro.bench.runner import EXPERIMENTS
        from repro.datalinks.control_modes import ControlMode
        from repro.workloads.clients import closed_loop_sweep
        from repro.workloads.webserver import WebServerWorkload, WebSiteConfig

        sizes = EXPERIMENTS["E9"].sizes("smoke")
        config = WebSiteConfig(pages=sizes["pages"],
                               operations=sizes["operations"],
                               page_size=sizes["page_size"],
                               file_servers=2,
                               control_mode=ControlMode.RDD,
                               clients=2)
        workload = WebServerWorkload(config).setup()
        workload.run()
        steps = list(closed_loop_sweep(
            workload.system, sizes["sweep"], workload.sweep_step,
            admission_limit=sizes["admission_limit"],
            think_s=sizes["think_s"]))
        snapshot = _group_snapshot(workload.system.clocks)
        snapshot["sweep"] = steps
        return snapshot

    def test_composite_token_index_moves_no_simulated_charge(self,
                                                             monkeypatch):
        """The ``(path, userid)`` index on ``token_entries`` is
        simulator-only: candidate enumeration is uncharged and the matched
        rows are the same, so every clock cell of the E9 smoke run (mix
        plus session sweep) equals the path-only index's bit for bit."""

        composite = self._run_e9()
        assert "dlfm.row_read" in composite["merged"]

        create_index = Database.create_index
        narrowed = []

        def path_only(self, index_name, table, columns, **options):
            if table == "token_entries":
                narrowed.append(tuple(columns))
                columns = ("path",)
            return create_index(self, index_name, table, columns, **options)

        monkeypatch.setattr(Database, "create_index", path_only)
        reference = self._run_e9()
        assert narrowed and set(narrowed) == {("path", "userid")}
        assert composite == reference


def _update_in_place_mix(files: int, updates: int, seed: int = 42):
    """A seeded read/update-in-place mix with an archiver poll per update;
    returns ``(system, run)`` where ``run()`` drives the mix."""

    from repro.datalinks.control_modes import ControlMode
    from tests.conftest import FILES_TABLE, build_system

    system, alice, _, _ = build_system(ControlMode.RDD, size=512, files=files)
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
                system.host_db.catalog.indexes_of(FILES_TABLE)] == \
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
