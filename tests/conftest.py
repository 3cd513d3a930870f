"""Shared fixtures for the test suite.

Property tests run under the ``tier1`` hypothesis profile: derandomized and
without an example database, so every box draws the same examples and an
unrelated change cannot go red on a fresh draw.  The search for new
examples is the opt-in soak, ``--hypothesis-profile=soak``: ``SOAK_FACTOR``
times the examples, drawn at random.  Every failure a soak finds becomes an
``@example`` on its test.
"""

from __future__ import annotations

import ast
import io
import json
from pathlib import Path

import pytest
from hypothesis import settings

from repro.api.system import DataLinksSystem
from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.fs.logical import LogicalFileSystem
from repro.fs.physical import PhysicalFileSystem
from repro.fs.vfs import Credentials
from repro.simclock import SimClock
from repro.storage.database import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.workloads.generator import make_content

FILES_TABLE = "docs"
ALICE_UID = 1001
BOB_UID = 1002

#: Examples per property test under ``tier1`` (hypothesis's default).
TIER1_EXAMPLES = 100
SOAK_FACTOR = 20
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.register_profile("soak", max_examples=SOAK_FACTOR * TIER1_EXAMPLES,
                          deadline=None)
settings.load_profile("tier1")


def examples(count: int) -> settings:
    """``@examples(count)``: *count* examples under ``tier1``, scaled with
    the loaded profile (``SOAK_FACTOR`` times as many under ``soak``)."""

    return settings(max_examples=count * settings.default.max_examples
                    // TIER1_EXAMPLES)


class InjectedCrash(Exception):
    """Raised by a failpoint hook to stop a protocol mid-step."""


def boom(crash=None, raises=InjectedCrash):
    """A failpoint hook: run *crash* (say, a shard crash) if given, then
    raise *raises* (``None``: return)."""

    def hook():
        if crash is not None:
            crash()
        if raises is not None:
            raise raises

    return hook


def run_smoke(json_path) -> tuple[list, dict]:
    """One in-process ``--smoke`` run of every experiment, writing its
    artifact to *json_path*: ``(results, payload)``, the
    :class:`ExperimentResult` list and the artifact JSON."""

    from repro.bench.harness import run_all

    results = run_all(scale="smoke", json_path=str(json_path),
                      stream=io.StringIO())
    with open(json_path, "r", encoding="utf-8") as stream:
        return results, json.load(stream)


@pytest.fixture(scope="session")
def smoke_run(tmp_path_factory):
    """:func:`run_smoke` once per session, shared by every test that reads
    fresh smoke rows or the fresh smoke artifact."""

    return run_smoke(tmp_path_factory.mktemp("bench") / "bench_fresh.json")


@pytest.fixture(scope="session")
def trees() -> dict:
    """Every module under ``src/repro/``, parsed once per session for the
    AST guards and the README's docstring scan: ``{"repro/<path>.py":
    tree}``, in path order.  Readers must not mutate a tree."""

    src = Path(__file__).resolve().parent.parent / "src"
    return {path.relative_to(src).as_posix():
            ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((src / "repro").rglob("*.py"))}


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def db(clock):
    """An empty database with a simulated clock."""

    return Database("testdb", clock)


@pytest.fixture
def people_db(db):
    """A database with a small ``people`` table and three rows."""

    db.create_table(TableSchema("people", [
        Column("person_id", DataType.INTEGER, nullable=False),
        Column("name", DataType.TEXT, nullable=False),
        Column("age", DataType.INTEGER),
        Column("active", DataType.BOOLEAN, default=True),
    ], primary_key=("person_id",)))
    for person_id, name, age in ((1, "ada", 36), (2, "grace", 45), (3, "edsger", 72)):
        db.insert("people", {"person_id": person_id, "name": name, "age": age})
    return db


@pytest.fixture
def fs_stack(clock):
    """A plain file-system stack: physical FS mounted at / under an LFS."""

    physical = PhysicalFileSystem("pfs-test", clock=clock)
    lfs = LogicalFileSystem(clock=clock)
    lfs.mount("/", physical)
    return physical, lfs


@pytest.fixture
def root_cred():
    return Credentials(uid=0, gid=0, username="root")


@pytest.fixture
def alice_cred():
    return Credentials(uid=ALICE_UID, gid=100, username="alice")


@pytest.fixture
def bob_cred():
    return Credentials(uid=BOB_UID, gid=100, username="bob")


def build_system(mode: ControlMode | None, *, size: int = 4096, files: int = 1,
                 server: str = "fs1", recovery: bool = True,
                 on_unlink=None, link: bool = True,
                 flush_policy: str = "immediate") -> tuple:
    """Build a DataLinksSystem with *files* files, linked when *mode* is given.

    ``mode=None`` declares the DATALINK column with default (rff) options and
    creates the files without linking them; ``link=False`` keeps the files
    unlinked while still declaring the column with *mode*.
    Returns ``(system, alice_session, [paths], [urls])``.
    """

    from repro.datalinks.datalink_type import OnUnlink

    system = DataLinksSystem(flush_policy=flush_policy)
    system.add_file_server(server)
    options = DatalinkOptions(control_mode=mode if mode is not None else ControlMode.RFF,
                              recovery=recovery,
                              on_unlink=on_unlink if on_unlink is not None else OnUnlink.RESTORE)
    system.create_table(TableSchema(FILES_TABLE, [
        Column("doc_id", DataType.INTEGER, nullable=False),
        Column("title", DataType.TEXT),
        datalink_column("body", options),
        Column("body_size", DataType.INTEGER),
        Column("body_mtime", DataType.TIMESTAMP),
    ], primary_key=("doc_id",)))
    system.register_metadata_columns(FILES_TABLE, "body", "body_size", "body_mtime")
    alice = system.session("alice", uid=ALICE_UID)
    paths, urls = [], []
    for index in range(files):
        path = f"/library/doc{index:03d}.dat"
        content = make_content(size, tag=f"doc{index}", version=0)
        url = alice.put_file(server, path, content)
        if mode is not None and link:
            alice.insert(FILES_TABLE, {"doc_id": index, "title": f"Doc {index}",
                                       "body": url, "body_size": len(content),
                                       "body_mtime": 0.0})
        paths.append(path)
        urls.append(url)
    if mode is not None and link:
        system.run_archiver()
    return system, alice, paths, urls


@pytest.fixture
def rfd_system():
    return build_system(ControlMode.RFD)


@pytest.fixture
def rdd_system():
    return build_system(ControlMode.RDD)


@pytest.fixture
def rdb_system():
    return build_system(ControlMode.RDB)


SHARD_TABLE = "registry_docs"


def build_deployment(flush_policy: str = "immediate",
                     group_commit_window: int = 1,
                     replication: bool = True) -> tuple:
    """A 2-shard (by default replicated) deployment with an rdd/recovery
    files table and metadata rules; returns ``(deployment, alice_session)``."""

    from repro.datalinks.sharding import ShardedDataLinksDeployment

    deployment = ShardedDataLinksDeployment(
        2, replication=replication, flush_policy=flush_policy,
        group_commit_window=group_commit_window)
    deployment.create_table(TableSchema(SHARD_TABLE, [
        Column("doc_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(control_mode=ControlMode.RDD,
                                                recovery=True)),
        Column("body_size", DataType.INTEGER),
        Column("body_mtime", DataType.TIMESTAMP),
    ], primary_key=("doc_id",)))
    deployment.register_metadata_columns(SHARD_TABLE, "body", "body_size",
                                         "body_mtime")
    return deployment, deployment.session("alice", uid=ALICE_UID)


def assert_archive_reachable(system, settled: bool = True) -> None:
    """The archive holds exactly the objects something can still read: the
    union of every file server's version rows and retained backup images
    (*system* is a :class:`DataLinksSystem` or a sharded deployment).
    While a server is down its rows are unknown, and the archive holds at
    least what the others name; so it does until an archiver run ends
    after a crash (not *settled*), whose sweep frees what the crash left."""

    system = getattr(system, "system", system)
    named, servers = set(), system.file_servers.values()
    for server in servers:
        if not server.running:
            continue
        db = server.dlfm.repository.db
        named.update(row["archive_id"] for _, row
                     in db.catalog.heap("file_versions").scan_live())
        for image in db.backups.images():
            named.update(row["archive_id"] for row in image.catalog_snapshot[
                "heaps"]["file_versions"]["rows"].values())
    held = set(system.archive._objects)
    if settled and all(server.running for server in servers):
        assert held == named
    else:
        assert named <= held


def crash_once_a_version_is_durable(system, node: str) -> None:
    """Run the archiver of *system* (a system or a sharded deployment) and
    crash *node* the moment one of its version transactions is durable,
    before the run reaches its sweep."""

    dlfm = getattr(system, "system", system).file_server(node).dlfm
    seen = dlfm.repository.db.wal.flushed_lsn

    def listener(log):
        if any(record.table == "file_versions"
               for record in log.records_from(seen, durable_only=True)):
            dlfm.repository.remove_wal_listener(listener)
            system.crash(node)
            raise InjectedCrash

    dlfm.repository.add_wal_listener(listener)
    with pytest.raises(InjectedCrash):
        getattr(system, "system", system).run_archiver()


def crash_once_a_version_is_staged(system, node: str) -> None:
    """Run the archiver of *system* (a system or a sharded deployment) and
    crash *node* the moment its run has staged its first version: the
    object is sent, the version row written and not committed."""

    plain = getattr(system, "system", system)
    repository = plain.file_server(node).dlfm.repository
    stage = repository.add_version

    def staged(*args, **kwargs):
        stage(*args, **kwargs)
        system.crash(node)
        raise InjectedCrash

    repository.add_version = staged
    try:
        with pytest.raises(InjectedCrash):
            plain.run_archiver()
    finally:
        del repository.add_version


def prefix_on(deployment, shard: str, stem: str = "/f") -> str:
    """A top-level directory that static hashing places on *shard*."""

    return next(f"{stem}{index}" for index in range(100)
                if deployment.shard_of(f"{stem}{index}/x") == shard)


def link_docs(deployment, session, prefix: str, doc_ids) -> None:
    """Stage and link ``{prefix}/docNNN.dat`` for each id, then archive."""

    for doc_id in doc_ids:
        url = deployment.put_file(session, f"{prefix}/doc{doc_id:03d}.dat",
                                  f"doc {doc_id}".encode())
        session.insert(SHARD_TABLE, {"doc_id": doc_id, "body": url,
                                     "body_size": 0, "body_mtime": 0.0})
    deployment.system.run_archiver()
    deployment.system.flush_logs()
