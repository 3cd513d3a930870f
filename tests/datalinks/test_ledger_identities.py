"""Simulator-side structures leave the simulated ledger exactly as it was.

Each check compares the one implementation in ``src/`` with a reference
spelled out here -- same result values, same token streams, and the same
simulated ledger: every :class:`~repro.simclock.ClockStats` label's count
and total, every domain timestamp, and the cluster wall clock.

* ``TestBulkHandoutIsTheScalarLoop``: ``get_datalink_many`` is the loop of
  per-row ``get_datalink`` handouts, checked against that loop on twin
  systems.
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
