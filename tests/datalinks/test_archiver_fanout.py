"""The archiver fans out across file servers in simulated time.

``DataLinksSystem.run_archiver`` always advances the file server whose
clock domain is earliest, one archive job per step, so disk reads on
different servers overlap and jobs meet only at the shared archive mover.
Within a server one transfer is in flight: a store is a send, and a job's
version is written while the mover stores it and commits only once the
mover has, so the server reads its next file and writes the last one's
version while the mover stores the last one.
The oracle is the serial schedule, kept here in the test: visit each
server's ``process_archive_jobs`` as one admin round trip after another.
Both schedules run the same jobs with the same charges; only the elapsed
host time differs.  The schedule tests pin what the synchronous store
(both ends rendezvous around every transfer) took for the same runs.
"""

from __future__ import annotations

import random

import pytest

from repro.api.system import DataLinksSystem
from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.dlfm.archive import ArchiveServer
from repro.errors import ReproError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.workloads.generator import make_content
from tests.conftest import (ALICE_UID, FILES_TABLE, InjectedCrash,
                            assert_archive_reachable)

SERVERS = ("idle", "small", "large")
#: Files linked per server, and how many of them are updated before the
#: measured archiver run (one pending job each: a queued job blocks the
#: next update of its file).
FILES = {"idle": 0, "small": 4, "large": 7}
UPDATES = {"idle": 0, "small": 2, "large": 6}


def build(seed: int, updates: dict = UPDATES) -> DataLinksSystem:
    """Three file servers, one idle; the other two hold seeded updates
    (*updates* per server) whose archive jobs are pending."""

    rng = random.Random(seed)
    system = DataLinksSystem()
    for name in SERVERS:
        system.add_file_server(name)
    system.create_table(TableSchema(FILES_TABLE, [
        Column("doc_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(control_mode=ControlMode.RFD,
                                                recovery=True)),
        Column("body_size", DataType.INTEGER),
        Column("body_mtime", DataType.TIMESTAMP),
    ], primary_key=("doc_id",)))
    system.register_metadata_columns(FILES_TABLE, "body", "body_size",
                                     "body_mtime")
    alice = system.session("alice", uid=ALICE_UID)
    docs = {name: [] for name in SERVERS}
    for name in SERVERS:
        for index in range(FILES[name]):
            doc_id = sum(map(len, docs.values()))
            content = make_content(rng.randrange(1, 64) * 1024,
                                   tag=f"{name}{index}", version=0)
            url = alice.put_file(name, f"/docs/{name}{index}.dat", content)
            alice.insert(FILES_TABLE, {"doc_id": doc_id, "body": url,
                                       "body_size": len(content),
                                       "body_mtime": 0.0})
            docs[name].append(doc_id)
    system.run_archiver()
    for name in SERVERS:
        for version, doc_id in enumerate(
                rng.sample(docs[name], updates[name]), start=1):
            url = alice.get_datalink(FILES_TABLE, {"doc_id": doc_id}, "body",
                                     access="write")
            with alice.update_file(url, truncate=True) as update:
                update.replace(make_content(rng.randrange(1, 256) * 1024,
                                            tag=f"{name}{doc_id}",
                                            version=version))
    return system


def run_serially(system: DataLinksSystem) -> int:
    """The serial schedule: each server's whole queue in one admin round
    trip, one server after another."""

    jobs = 0
    for server in system.file_servers.values():
        with system._at_server(server):
            jobs += server.process_archive_jobs()
    return jobs


def measure(system: DataLinksSystem, schedule) -> dict:
    """Run *schedule* on *system*; what it did and how long it took."""

    with system.clocks.window() as window:
        jobs = schedule(system)
    return {
        "jobs": jobs,
        "elapsed": window.elapsed[system.clock.name],
        "charged": {name: sum(ticks for _, ticks in
                              window.domains[name].values())
                    for name in SERVERS + ("archive",)},
        "ledger": window.merged,
        "times": {name: domain.ticks
                  for name, domain in system.clocks.domains.items()},
    }


def end_state(system: DataLinksSystem) -> dict:
    """Pending jobs, archived content per (server, path, version) and the
    ``file_versions`` rows of every server.  Archive ids and row times are
    left out: the schedule decides the order the mover hands out ids and
    the instant each version is recorded."""

    objects = system.archive._objects
    state = {"archive": {}, "versions": {}, "queues": {},
             "objects": len(system.archive)}
    for name, server in system.file_servers.items():
        repository = server.dlfm.repository
        state["queues"][name] = sorted(
            job["path"] for job in repository.pending_archive_jobs())
        rows = repository.db.select("file_versions")
        state["versions"][name] = sorted(
            (row["path"], row["version_no"], row["state_id"]) for row in rows)
        for row in rows:
            state["archive"][(name, row["path"], row["version_no"])] = \
                objects[row["archive_id"]].content
    return state


def test_fan_out_matches_the_serial_schedule_but_overlaps():
    fanned, serial = build(42), build(42)
    fan = measure(fanned, lambda system: system.run_archiver())
    ref = measure(serial, run_serially)

    assert fan["jobs"] == ref["jobs"] == sum(UPDATES.values())
    assert end_state(fanned) == end_state(serial)
    # The same charges, label by label, summed over every domain.
    assert fan["ledger"] == ref["ledger"]
    assert fan["charged"] == ref["charged"]
    # The host waits for the slowest server, not for all of them in turn.
    busiest = max(fan["charged"][name] for name in SERVERS)
    assert 0 < busiest <= fan["elapsed"] < ref["elapsed"]
    assert fan["charged"]["archive"] <= fan["elapsed"]


def test_fan_out_is_deterministic():
    first = measure(build(7), lambda system: system.run_archiver())
    second = measure(build(7), lambda system: system.run_archiver())
    assert first == second


def test_interrupted_fan_out_loses_no_completed_job(monkeypatch):
    """A job that raises stops the fan-out; the jobs that finished keep
    their versions and releases, the rest stay queued, and a second run
    ends where an uninterrupted one does."""

    system, twin = build(42), build(42)
    store = ArchiveServer.store
    calls = {"large": 0}

    def failing_store(self, server, path, content, caller_clock):
        if server == "large":
            calls["large"] += 1
            if calls["large"] == 2:
                raise ReproError("archive device offline")
        return store(self, server, path, content, caller_clock)

    monkeypatch.setattr(ArchiveServer, "store", failing_store)
    with pytest.raises(ReproError):
        system.run_archiver()
    monkeypatch.undo()
    assert system.clock._overlap_frames == []
    for server in system.file_servers.values():
        for row in server.dlfm.repository.db.select("file_versions"):
            assert system.archive.exists(row["archive_id"])

    total = twin.run_archiver()
    final = end_state(twin)
    updated = {(name, path) for name, path, version_no in final["archive"]
               if version_no > 1}
    interrupted = end_state(system)
    archived = {(name, path) for name, path, version_no
                in interrupted["archive"] if version_no > 1}
    pending = {(name, path) for name, paths in interrupted["queues"].items()
               for path in paths}
    # Every job either finished or is still queued on its server; "large"
    # finished exactly the job before the one that raised.
    assert archived | pending == updated and not archived & pending
    assert len(interrupted["queues"]["large"]) == UPDATES["large"] - 1

    assert system.run_archiver() == total - len(archived)
    assert end_state(system) == final


def record_transfers(monkeypatch) -> list:
    """Wrap ``ArchiveServer.store``: the list it returns fills with the
    ticks the mover spends on each transfer."""

    store, transfers = ArchiveServer.store, []

    def recording(self, server, path, content, caller_clock):
        begins = max(self.clock.ticks, caller_clock.ticks)
        archive_id, stored = store(self, server, path, content, caller_clock)
        transfers.append(stored - begins)
        return archive_id, stored

    monkeypatch.setattr(ArchiveServer, "store", recording)
    return transfers


#: Host ticks of ``run_archiver`` on ``build(42, {"large": N})`` with the
#: synchronous store: the server's own charges plus all N transfers.
SERIAL_ELAPSED = {1: 71_135_859_375, 6: 178_186_250_000}


@pytest.mark.parametrize("jobs", sorted(SERIAL_ELAPSED))
def test_a_server_waits_for_at_most_one_transfer(monkeypatch, jobs):
    system = build(42, {"idle": 0, "small": 0, "large": jobs})
    transfers = record_transfers(monkeypatch)
    run = measure(system, lambda system: system.run_archiver())

    assert run["jobs"] == len(transfers) == jobs
    own = run["charged"]["large"]
    assert run["charged"]["archive"] == sum(transfers)
    assert SERIAL_ELAPSED[jobs] == own + sum(transfers)
    # Every transfer overlaps the server's own work: the next job's read
    # and the writing of its own version, so even one job finishes before
    # the synchronous store would have.
    assert own < run["elapsed"] <= own + max(transfers)
    assert run["elapsed"] < SERIAL_ELAPSED[jobs]


def test_a_crash_with_a_transfer_in_flight_reruns_the_uncommitted_jobs(
        monkeypatch):
    """A plain DLFM crashes once the mover stored its third job and before
    its second job's version commits.  After ``restart`` and another run,
    every version chain is an uninterrupted run's, and the archive holds
    exactly the objects those chains name."""

    system, twin = build(42), build(42)
    store = ArchiveServer.store
    calls = {"large": 0}

    def crashing_store(self, server, path, content, caller_clock):
        stored = store(self, server, path, content, caller_clock)
        if server == "large":
            calls["large"] += 1
            if calls["large"] == 3:
                system.crash("large")
                raise InjectedCrash
        return stored

    monkeypatch.setattr(ArchiveServer, "store", crashing_store)
    with pytest.raises(InjectedCrash):
        system.run_archiver()
    monkeypatch.undo()
    system.restart("large")
    # Only the first job's version committed: the second's waited for the
    # third's send.  No row names those two objects, nor the one the first
    # version dropped (the crash came before the run's sweep).
    queues = end_state(system)["queues"]
    assert len(queues["large"]) == UPDATES["large"] - 1
    named = {archive_id for name in SERVERS
             for archive_id in named_ids(system, name)}
    assert len(set(system.archive._objects) - named) == 3
    twin.run_archiver()

    assert system.run_archiver() == sum(map(len, queues.values()))
    assert end_state(system) == end_state(twin)
    assert_archive_reachable(system)


def named_ids(system: DataLinksSystem, server: str) -> list:
    """The archive ids *server*'s version rows name, ascending."""

    return sorted(row["archive_id"] for row in system.file_server(
        server).dlfm.repository.db.select("file_versions"))
