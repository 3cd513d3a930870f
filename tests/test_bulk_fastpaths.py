"""Bulk per-link paths vs scalar models written here.

No path in ``src/`` has a flag-gated twin; each check below compares the
one implementation with a reference spelled out in the test: same result
values, same token streams, and the same simulated ledger -- every
:class:`~repro.simclock.ClockStats` label's count and total, every domain
timestamp, and the cluster wall clock.

``get_datalink_many`` loops the per-row handout ``get_datalink`` calls, and
is checked against the scalar loop written here, on twin systems.

:meth:`Database.max_key` (the DLFM's id allocation) has no reference twin:
it is the only path, charged at constant cost, and is checked here against
a brute-force maximum and a fixed charge ledger.  Neither has a dict
``where``: it is one prepared statement (no flag), checked against a
predicate scan written in the test.
"""

from __future__ import annotations

import random

import pytest

from repro.simclock import SimClock
from repro.storage.database import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType

def _stats_cells(stats) -> dict:
    """``{label: (count, ticks)}`` -- exact integers."""

    return stats.ledger()


def _group_snapshot(group) -> dict:
    return {
        "global": group.ticks,
        "domains": {name: domain.ticks
                    for name, domain in group.domains.items()},
        "merged": _stats_cells(group.stats),
        "per_domain": {name: _stats_cells(domain.stats)
                       for name, domain in group.domains.items()},
    }


def _make_docs_db(clock=None) -> Database:
    db = Database("fastpaths", clock if clock is not None else SimClock())
    db.create_table(TableSchema("docs", [
        Column("k", DataType.INTEGER, nullable=False),
        Column("v", DataType.INTEGER),
        Column("w", DataType.INTEGER),
    ], primary_key=("k",)))
    db.create_index("docs_by_v", "docs", ("v",))
    return db


class TestMaxKey:
    """``max_key``: brute-force value, constant charges, tracker validity.

    The value is served from a cached maximum keyed to the heap's mutation
    counter; it must equal a brute-force maximum over the live rows across
    arbitrary mutations -- including ones that bypass the Database facade
    entirely (direct heap inserts, the way replication redo lands rows).
    The charge is what a DBMS pays for ``MAX`` over an indexed key and
    must not depend on the table size.
    """

    def _program(self, seed: int):
        rng = random.Random(seed)
        # Keys arrive out of order, so the maximum is not simply the last
        # insert: facade inserts draw even keys, bypassing ones odd keys.
        even = rng.sample(range(0, 2000, 2), 150)
        odd = rng.sample(range(1, 2000, 2), 150)
        ops = []
        deletable = []
        for step in range(150):
            action = rng.randrange(8)
            if action < 4:
                ops.append(("insert", even[step]))
                deletable.append(even[step])
            elif action == 4 and deletable:
                # Half the deletes take the largest facade key, which
                # lowers the answer whenever it was the overall maximum.
                victim = max(deletable) if rng.random() < 0.5 \
                    else deletable[rng.randrange(len(deletable))]
                deletable.remove(victim)
                ops.append(("delete", victim))
            elif action == 5:
                # A redo-style mutation that bypasses the Database facade:
                # the heap sees it, the statement layer never does.
                ops.append(("bypass", odd[step]))
            else:
                ops.append(("probe",))
        ops.append(("probe",))
        return ops

    @pytest.mark.parametrize("seed", [11, 20260807, 555001])
    def test_matches_brute_force_maximum(self, seed):
        db = _make_docs_db()
        live = set()
        for op in self._program(seed):
            if op[0] == "insert":
                db.insert("docs", {"k": op[1], "v": op[1] % 11, "w": None})
                live.add(op[1])
            elif op[0] == "delete":
                db.delete("docs", {"k": op[1]})
                live.discard(op[1])
            elif op[0] == "bypass":
                db._plan("docs").heap.insert({"k": op[1], "v": 0, "w": None})
                live.add(op[1])
            else:
                assert db.max_key("docs") == (max(live) if live else None)

    @pytest.mark.parametrize("rows", [0, 1, 40, 400])
    def test_charge_is_constant_in_table_size(self, rows):
        db = _make_docs_db()
        costs = db.clock.costs
        for key in range(rows):
            db.insert("docs", {"k": key, "v": key, "w": None})
        before, started = _stats_cells(db.clock.stats), db.clock.now()
        assert db.max_key("docs") == (rows - 1 if rows else None)
        after = _stats_cells(db.clock.stats)
        moved = {label: (cell[0] - before.get(label, (0, 0.0))[0])
                 for label, cell in after.items()
                 if cell != before.get(label)}
        assert moved == {"sql_statement_base": 1, "index_probe": 1,
                         "row_read": 1}
        assert db.clock.now() - started == pytest.approx(
            costs.sql_statement_base + costs.index_probe + costs.row_read)

    def test_needs_a_single_column_primary_key(self):
        db = Database("fastpaths", SimClock())
        db.create_table(TableSchema("pairs", [
            Column("a", DataType.INTEGER, nullable=False),
            Column("b", DataType.INTEGER, nullable=False),
        ], primary_key=("a", "b")))
        with pytest.raises(ValueError):
            db.max_key("pairs")

    def test_warm_tracker_survives_facade_inserts(self):
        db = _make_docs_db(SimClock())
        for key in range(20):
            db.insert("docs", {"k": key * 3, "v": key, "w": None})
        assert db.max_key("docs") == 57
        # Facade inserts keep the tracker warm incrementally ...
        db.insert("docs", {"k": 900, "v": 100, "w": None})
        assert db.max_key("docs") == 900
        # ... and a bypassing heap mutation forces the rescan.
        db._plan("docs").heap.insert({"k": 1234, "v": 200, "w": None})
        assert db.max_key("docs") == 1234

    def test_tracker_invalidated_by_crash_recovery(self):
        # A crash rebuilds the catalog with fresh heaps whose mutation
        # counters restart at zero; a tracker taken before the crash must
        # not validate against the new heap's coincidentally equal count
        # (the bug showed up as duplicate token-entry ids after failover).
        # Here the crash loses an uncommitted key 99, and one insert after
        # recovery brings the new heap to the same count of two mutations.
        db = _make_docs_db(SimClock())
        db.insert("docs", {"k": 10, "v": 1, "w": None})
        txn = db.begin()
        db.insert("docs", {"k": 99, "v": 2, "w": None}, txn)
        assert db.max_key("docs") == 99
        db.crash()
        db.recover()
        db.insert("docs", {"k": 20, "v": 2, "w": None})
        assert db.max_key("docs") == 20

    def test_tracker_invalidated_by_restore(self):
        db = _make_docs_db(SimClock())
        db.insert("docs", {"k": 10, "v": 1, "w": None})
        image = db.backup("before")
        db.insert("docs", {"k": 99, "v": 2, "w": None})
        assert db.max_key("docs") == 99
        db.restore(image)
        db.insert("docs", {"k": 20, "v": 2, "w": None})
        assert db.max_key("docs") == 20


class TestPointSelectIdentity:
    """A dict ``where`` is one prepared statement, whatever its access path.

    Seeded property test against a reference written here: the same
    equality conjunction as a Python predicate, which the database can
    only answer by scanning the heap.  The dict form must return the same
    rows in the same order and leave the same per-label ledger and clock
    ticks, plus the ``index_probe`` a complete primary key owes --
    enumerating candidates through any other index is free.
    """

    _WHERE_SHAPES = (
        {"k": 3},            # single-PK hit
        {"k": 999},          # single-PK miss
        {"v": 6},            # secondary-index bucket (duplicates)
        {"v": -1},           # secondary-index miss
        {"w": 2},            # unindexed column: heap scan
        {"k": 3, "v": 9},    # primary key plus a residual column
        None,                # full scan
        {},                  # empty where: full scan
        {"w": 2, "x": 1},    # composite secondary key
        {"x": 0, "w": 3},    # ... bound in the other order
        {"v": 6, "w": 2, "x": 0},   # 3 columns: index on v, residual w, x
        {"link": "dlfs://srv/f/7"},     # DATALINK-derived index
        {"link": "http://other/f/7"},   # same file, other spelling: no row
        {"link": "dlfs://srv/f/7", "w": 2},
    )

    def _make_db(self) -> Database:
        db = Database("shapes", SimClock())
        db.create_table(TableSchema("docs", [
            Column("k", DataType.INTEGER, nullable=False),
            Column("v", DataType.INTEGER),
            Column("w", DataType.INTEGER),
            Column("x", DataType.INTEGER),
            Column("link", DataType.DATALINK),
        ], primary_key=("k",)))
        db.create_index("docs_by_v", "docs", ("v",))
        db.create_index("docs_by_w_x", "docs", ("w", "x"))
        db.create_index("docs_by_link", "docs", ("link",))
        return db

    @staticmethod
    def _measured(db, call):
        before, ticks = _stats_cells(db.clock.stats), db.clock.ticks
        rows = call()
        after = _stats_cells(db.clock.stats)
        moved = {label: (cell[0] - before.get(label, (0, 0))[0],
                         cell[1] - before.get(label, (0, 0))[1])
                 for label, cell in after.items() if cell != before.get(label)}
        return rows, moved, db.clock.ticks - ticks

    @pytest.mark.parametrize("seed", [5, 20260807, 909090])
    def test_dict_where_matches_predicate_scan(self, seed):
        rng = random.Random(seed)
        db = self._make_db()
        for key in range(40):
            db.insert("docs", {"k": key, "v": (key % 10) * 3, "w": key % 5,
                               "x": key % 2,
                               "link": f"dlfs://srv/f/{key % 20}"})
        for victim in rng.sample(range(40), 6):
            db.delete("docs", {"k": victim})
        probe_ticks = db.clock.unit_ticks("index_probe", 1.0)
        for _ in range(80):
            where = self._WHERE_SHAPES[rng.randrange(len(self._WHERE_SHAPES))]
            bound = dict(where or {})
            if bound and rng.random() < 0.5:
                # Re-draw one bound value so hits and misses both occur.
                column = rng.choice(sorted(bound))
                if column != "link":
                    bound[column] = rng.randrange(-1, 12)
            rows, moved, ticks = self._measured(
                db, lambda: db.select(
                    "docs", None if where is None else dict(bound),
                    lock=False))
            expected, owed, owed_ticks = self._measured(
                db, lambda: db.select(
                    "docs", lambda row: all(row[column] == value
                                            for column, value in bound.items()),
                    lock=False))
            if "k" in bound:
                count, total = owed.get("index_probe", (0, 0))
                owed["index_probe"] = (count + 1, total + probe_ticks)
                owed_ticks += probe_ticks
            assert rows == expected, where
            assert moved == owed, where
            assert ticks == owed_ticks, where

    def test_locked_transactional_selects_still_lock(self):
        db = self._make_db()
        for key in range(6):
            db.insert("docs", {"k": key, "v": key % 2, "w": 0, "x": 0,
                               "link": None})
        txn = db.begin()
        rows, moved, _ = self._measured(
            db, lambda: db.select("docs", {"v": 1}, txn))
        assert [row["k"] for row in rows] == [1, 3, 5]
        assert moved["lock_acquire"][0] == moved["row_read"][0] == 3
        assert db.locks.locks_of(txn.txn_id) == {
            ("row", "docs", row["_rid"]) for row in rows}
        db.commit(txn)
        assert db.locks.locks_of(txn.txn_id) == set()


class TestBulkHandoutIsTheScalarLoop:
    """``get_datalink_many(wheres)`` against the reference written here:
    ``[get_datalink(where) for where in wheres]`` on a twin system -- same
    values (hence the same token stream), same error at the same row, same
    per-label ledger in every domain and the same ticks."""

    #: file_ids 0..5 are linked files, 50 holds a NULL url, 99 is no row.
    FILES = 6

    def _twin(self, mode, token_cache: bool):
        from repro.bench.runner import FILES_TABLE, RunContext

        system, _, _ = RunContext().build_microsystem(mode, size=512,
                                                      files=self.FILES)
        system.engine.insert(FILES_TABLE, {"file_id": 50, "doc": None,
                                           "doc_size": 0, "doc_mtime": 0.0})
        if token_cache:
            system.engine.enable_token_cache()
        return system

    def _wheres(self, rng, count: int) -> list:
        wheres = []
        for _ in range(count):
            kind = rng.randrange(8)
            if kind == 0:
                wheres.append({"file_id": 99})
            elif kind == 1:
                wheres.append({"file_id": 50})
            elif kind == 2:
                # Not a dict: the statement goes through ``db.select``.
                wanted = rng.randrange(self.FILES)
                wheres.append(lambda row, wanted=wanted:
                              row["file_id"] == wanted)
            else:
                # Repeats included: they are what the token cache serves.
                wheres.append({"file_id": rng.randrange(self.FILES)})
        return wheres

    @staticmethod
    def _outcome(system, call) -> tuple:
        from repro.errors import DataLinksError

        try:
            value = call()
        except DataLinksError as error:
            value = (type(error).__name__, str(error))
        return value, _group_snapshot(system.clocks)

    @pytest.mark.parametrize("token_cache", [False, True])
    @pytest.mark.parametrize("seed", [3, 777, 20261002])
    def test_values_errors_ledger_and_ticks_match(self, seed, token_cache):
        from repro.bench.runner import FILES_TABLE
        from repro.datalinks.control_modes import ControlMode

        rng = random.Random(seed)
        seen = {"token": 0, "bare": 0, "none": 0, "refused": 0}
        for mode in (ControlMode.RDB, ControlMode.RFD, ControlMode.RDD):
            for access in ("read", "write"):
                wheres = self._wheres(rng, 14)
                ttl = rng.choice([None, 30.0])
                bulk = self._twin(mode, token_cache)
                scalar = self._twin(mode, token_cache)
                got = self._outcome(bulk, lambda: bulk.engine.get_datalink_many(
                    FILES_TABLE, wheres, "doc", access=access, ttl=ttl))
                want = self._outcome(scalar, lambda: [
                    scalar.engine.get_datalink(FILES_TABLE, where, "doc",
                                               access=access, ttl=ttl)
                    for where in wheres])
                assert got == want, (mode, access)
                urls = got[0]
                if mode is ControlMode.RDB and access == "write":
                    # rdb blocks writes: refused at the first row with a url.
                    assert urls[0] == "ControlModeError" \
                        and "cannot be updated" in urls[1]
                    seen["refused"] += 1
                    continue
                for url in urls:
                    kind = "none" if url is None else \
                        "token" if ";token=" in url else "bare"
                    seen[kind] += 1
                if token_cache:
                    assert bulk.engine.token_cache_stats() == \
                        scalar.engine.token_cache_stats()
        assert all(seen.values()), seen

    def test_unknown_access_kind_is_refused_like_the_scalar(self):
        from repro.bench.runner import FILES_TABLE
        from repro.datalinks.control_modes import ControlMode

        bulk = self._twin(ControlMode.RDD, False)
        scalar = self._twin(ControlMode.RDD, False)
        got = self._outcome(bulk, lambda: bulk.engine.get_datalink_many(
            FILES_TABLE, [{"file_id": 99}, {"file_id": 1}], "doc",
            access="append"))
        want = self._outcome(scalar, lambda: [
            scalar.engine.get_datalink(FILES_TABLE, where, "doc",
                                       access="append")
            for where in ({"file_id": 99}, {"file_id": 1})])
        assert got == want
        assert got[0] == ("ControlModeError", "unknown access kind 'append'")


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
        import pstats

        calls = {}
        for files in (100, 1600):
            _, run = _update_in_place_mix(files=files, updates=25, seed=7)
            profile = cProfile.Profile()
            profile.enable()
            run()
            profile.disable()
            calls[files] = pstats.Stats(profile).total_calls
        small, large = calls[100], calls[1600]
        assert abs(large - small) / small < 0.05, calls
