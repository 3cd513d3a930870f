"""The file-keyed DATALINK index against oracles that are not the code.

Metadata maintenance (``engine.update_file_metadata``) finds the rows that
reference a closed file through an index over the DATALINK column keyed by
the referenced *path*.  Two checks:

* secondary indexes -- that one and every DLFM repository index, with its
  unique constraint -- survive crash + recover (index DDL is not
  WAL-logged);
* a seeded property test drives random DML, aborted transactions, crashes
  and restores through a host table and holds ``update_file_metadata`` to
  a brute-force scan with the pre-index ``references`` test, and equality
  SELECTs by URL to a brute-force comparison -- including with a router
  (promoted witness, rebalanced prefix).
"""

from __future__ import annotations

import random

import pytest

from repro.api.system import DataLinksSystem
from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.errors import DuplicateKeyError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.util.urls import parse_url
from tests.conftest import (FILES_TABLE, SHARD_TABLE, build_deployment,
                            build_system, link_docs, prefix_on)


def _references(router, row, column, server, path) -> bool:
    """The pre-index row test of ``update_file_metadata``, verbatim."""

    url = row.get(column)
    if not url:
        return False
    parsed = parse_url(url)
    if parsed.path != path:
        return False
    if parsed.server == server:
        return True
    if router is None:
        return False
    owner = router.owner_shard(parsed.server, parsed.path)
    return router.writable_node(owner) == server


def _assert_metadata_matches_scan(engine, table, key, server, path, marker):
    """``update_file_metadata`` touches exactly the brute-force rows."""

    rows = engine.db.select(table, lock=False)
    want = sorted(row[key] for row in rows
                  if _references(engine.router, row, "body", server, path))
    host_txn = engine.begin()
    touched = engine.update_file_metadata(server, path, marker, 1.0, host_txn)
    got = sorted(row[key] for row in engine.db.select(table, lock=False)
                 if row["body_size"] == marker)
    # Rolling back also drives the index through undo.
    engine.abort(host_txn)
    assert (touched, got) == (len(want), want), (server, path)
    return len(want)


class TestIndexesSurviveCrash:
    def test_host_and_repository_indexes_and_the_unique_constraint(self):
        system, alice, _, _ = build_system(ControlMode.RDD, files=3)
        host = system.host_db
        repository = system.file_server("fs1").dlfm.repository
        host_before = host.catalog.index_defs()
        assert f"{FILES_TABLE}_body_file" in \
            [d["name"] for d in host_before[FILES_TABLE]]
        before = repository.db.catalog.index_defs()
        assert sorted(d["name"] for defs in before.values() for d in defs
                      if not d["name"].endswith("_pk")) == [
            "archive_queue_path", "file_versions_path", "linked_files_ino"]
        system.flush_logs()
        system.crash("host")
        system.restart("host")
        system.crash("fs1")
        system.restart("fs1")
        assert host.catalog.index_defs() == host_before
        assert repository.db.catalog.index_defs() == before
        taken = repository.linked_files()[0]
        clash = {key: value for key, value in taken.items()
                 if not key.startswith("_")}
        clash["path"] = "/library/elsewhere.dat"
        with pytest.raises(DuplicateKeyError):
            repository.insert_linked_file(clash)
        # The recovered indexes serve lookups: update-in-place still
        # maintains the metadata columns.
        url = alice.get_datalink(FILES_TABLE, {"doc_id": 1}, "body",
                                 access="write")
        with alice.update_file(url, truncate=True) as update:
            update.replace(b"after recovery")
        row = host.select_one(FILES_TABLE, {"doc_id": 1}, lock=False)
        assert row["body_size"] == len(b"after recovery")

    def test_a_second_crash_before_recovery_keeps_the_definitions(self):
        system, _, _, _ = build_system(ControlMode.RDD)
        host = system.host_db
        before = host.catalog.index_defs()
        system.crash("host")
        system.crash("host")
        system.restart("host")
        assert host.catalog.index_defs() == before


TABLE = "refs"
SERVERS = ("fs1", "fs2")
PATHS = tuple(f"/p/f{index}.dat" for index in range(5))


def _spellings(server, path):
    return (f"dlfs://{server}{path}", f"http://{server}{path}",
            f"dlfs://{server}{path};token=R.abc.123")


def _bare_system():
    """A host database with the ``refs`` table and no metadata rule yet."""

    system = DataLinksSystem()
    system.create_table(TableSchema(TABLE, [
        Column("ref_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(control_mode=ControlMode.RDD)),
        Column("body_size", DataType.INTEGER),
        Column("body_mtime", DataType.TIMESTAMP),
    ], primary_key=("ref_id",)))
    return system


class TestUpdateFileMetadataOracle:
    """Random DML on the host table; no files, no DLFM -- the statement
    under test only reads and writes host rows."""

    def _system(self):
        system = _bare_system()
        system.register_metadata_columns(TABLE, "body", "body_size",
                                         "body_mtime")
        return system

    def _check(self, system, rng, step):
        engine, db = system.engine, system.host_db
        assert db.catalog.index_by_name(TABLE, f"{TABLE}_body_file") \
            is not None, f"step {step}: the reference index is gone"
        matched = 0
        for server in SERVERS:
            for path in PATHS:
                matched += _assert_metadata_matches_scan(
                    engine, TABLE, "ref_id", server, path, -1 - step)
        # Equality by URL text goes through the same index (a superset by
        # path) and must still compare the whole value.
        rows = db.select(TABLE, lock=False)
        url = rng.choice(_spellings(rng.choice(SERVERS), rng.choice(PATHS)))
        want = [row["ref_id"] for row in rows if row["body"] == url]
        assert [row["ref_id"]
                for row in db.select(TABLE, {"body": url}, lock=False)] == want
        txn = db.begin()
        assert [row["ref_id"]
                for row in db.select(TABLE, {"body": url}, txn)] == want
        db.commit(txn)
        return matched

    def _mutate(self, db, rng, txn, next_id):
        """One random insert / URL-changing update / delete inside *txn*."""

        def url():
            if rng.random() < 0.1:
                return None
            return rng.choice(_spellings(rng.choice(SERVERS),
                                         rng.choice(PATHS)))

        ids = [row["ref_id"] for row in db.select(TABLE, lock=False)]
        action = rng.random()
        if action < 0.45 or not ids:
            db.insert(TABLE, {"ref_id": next_id[0], "body": url(),
                              "body_size": 0, "body_mtime": 0.0}, txn)
            next_id[0] += 1
        elif action < 0.80:
            if rng.random() < 0.3:
                # Multi-row: repoint every row of one path at another.
                old = rng.choice(PATHS)
                db.update(TABLE,
                          lambda row: bool(row["body"]) and
                          parse_url(row["body"]).path == old,
                          {"body": url()}, txn)
            else:
                db.update(TABLE, {"ref_id": rng.choice(ids)},
                          {"body": url()}, txn)
        else:
            db.delete(TABLE, {"ref_id": rng.choice(ids)}, txn)

    @pytest.mark.parametrize("seed", [11, 20260927, 777])
    def test_touched_rows_equal_the_brute_force_scan(self, seed):
        rng = random.Random(seed)
        system = self._system()
        db = system.host_db
        next_id = [0]
        images = []
        matched = 0
        for step in range(120):
            action = rng.random()
            if action < 0.50:
                self._mutate(db, rng, None, next_id)
            elif action < 0.80:
                txn = db.begin()
                for _ in range(rng.randrange(1, 5)):
                    self._mutate(db, rng, txn, next_id)
                db.abort(txn)
            elif action < 0.90:
                if rng.random() < 0.5:
                    db.checkpoint()
                txn = db.begin()
                self._mutate(db, rng, txn, next_id)     # lost by the crash
                db.crash()
                db.recover()
            elif action < 0.95 or not images:
                images.append(db.backup())
            else:
                db.restore(rng.choice(images))
            matched += self._check(system, rng, step)
        assert matched > 200        # the program must reference real rows

    def test_scan_fallback_when_the_index_is_absent(self):
        """A backup taken before the rule was registered restores a
        catalog without the index; maintenance stays correct."""

        system = _bare_system()
        db = system.host_db
        for ref_id, server in enumerate(SERVERS * 2):
            db.insert(TABLE, {"ref_id": ref_id, "body_size": 0,
                              "body": _spellings(server, PATHS[0])[ref_id % 3]})
        image = db.backup()
        system.register_metadata_columns(TABLE, "body", "body_size",
                                         "body_mtime")
        db.restore(image)
        assert db.catalog.index_by_name(TABLE, f"{TABLE}_body_file") is None
        assert _assert_metadata_matches_scan(
            system.engine, TABLE, "ref_id", "fs1", PATHS[0], -7) == 2


class TestRouterCases:
    """The residual test stays router-aware behind the index."""

    def _check_every_file(self, deployment, marker):
        engine = deployment.system.engine
        rows = engine.db.select(SHARD_TABLE, lock=False)
        matched = 0
        for node in deployment.system.file_servers:
            for row in rows:
                matched += _assert_metadata_matches_scan(
                    engine, SHARD_TABLE, "doc_id", node,
                    parse_url(row["body"]).path, marker)
        return matched

    def test_promoted_witness_after_fail_over(self):
        deployment, session = build_deployment()
        prefix = prefix_on(deployment, "shard0")
        link_docs(deployment, session, prefix, range(3))
        witness = deployment.replicas["shard0"].witness
        deployment.crash("shard0")
        deployment.fail_over("shard0")
        deployment.restart("shard0")
        # Each file matches on the shard its URL names and, through the
        # router, on the promoted witness -- and on no other node.
        assert self._check_every_file(deployment, -3) == 6
        engine = deployment.system.engine
        assert _assert_metadata_matches_scan(
            engine, SHARD_TABLE, "doc_id", witness.name,
            f"{prefix}/doc000.dat", -4) == 1
        # End to end: close processing on the witness maintains the row.
        url = session.get_datalink(SHARD_TABLE, {"doc_id": 0}, "body",
                                   access="write")
        with session.update_file(url, truncate=True) as update:
            update.replace(b"on the witness")
        row = engine.db.select_one(SHARD_TABLE, {"doc_id": 0}, lock=False)
        assert row["body_size"] == len(b"on the witness")

    def test_destination_shard_after_rebalance_prefix(self):
        deployment, session = build_deployment()
        link_docs(deployment, session, "/moving", range(3))
        source = deployment.shard_of("/moving/doc000.dat")
        dest = next(name for name in deployment.shard_names if name != source)
        deployment.system.flush_logs()
        assert deployment.rebalance_prefix("/moving", dest)["moved"]
        # The source shard the URLs still name, and the new owner.
        assert self._check_every_file(deployment, -5) == 6
        engine = deployment.system.engine
        node = deployment.router.serving_server(dest).name
        assert _assert_metadata_matches_scan(
            engine, SHARD_TABLE, "doc_id", node, "/moving/doc001.dat", -6) == 1
        url = session.get_datalink(SHARD_TABLE, {"doc_id": 1}, "body",
                                   access="write")
        with session.update_file(url, truncate=True) as update:
            update.replace(b"on the destination")
        row = engine.db.select_one(SHARD_TABLE, {"doc_id": 1}, lock=False)
        assert row["body_size"] == len(b"on the destination")
