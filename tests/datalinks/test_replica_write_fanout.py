"""Replica copies fan out in simulated time.

``ShardedDataLinksDeployment.put_file`` is a send: the serving copy and
every witness mirror leave together in one posted window, the client pays
one ``message_send`` per copy and waits for none, and the link is the
barrier -- each node serves its domain in order, so the link reaches a
node only after that node's copy.  ``ReplicatedShard.receive_file`` (a
rebalance hand-off) and ``sweep_moved_prefix`` still wait, for the
slowest copy and not for their sum.  Each witness copy is a cross-node
request and pays one ``db_dlfm_message`` of wire latency on the witness's
domain.

Every check runs against a *twin*: a second deployment built and driven
identically, on which the test replays the same work the serial way --
one copy after another, each waited for, no wire or send charge (the
oracles below).  The twin fixes what the fan-out must leave unchanged (the
bytes, the owners, every charge but the wire and the sends) and what a
waiting fan-out must beat (the serial elapsed time).
"""

from __future__ import annotations

import pytest

from repro.api.session import synced_lfs
from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.placement import sweep_moved_prefix
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.errors import DaemonUnavailableError, ReproError
from repro.fs.vfs import Credentials
from repro.simclock import synchronized_call
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.workloads.audit import audit_committed_links
from tests.conftest import InjectedCrash, boom

TABLE = "fanout_docs"
UID, GID = 6101, 100
CONTENT = bytes(range(256)) * 24          # 6 KiB: the disk transfer shows
ROOT = Credentials(uid=0, gid=0, username="root")


def build(witnesses: int):
    deployment = ShardedDataLinksDeployment(
        2, replication=True, witnesses=witnesses, flush_policy="immediate",
        group_commit_window=1)
    deployment.create_table(TableSchema(TABLE, [
        Column("doc_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(control_mode=ControlMode.RFD,
                                                recovery=True)),
    ], primary_key=("doc_id",)))
    return deployment, deployment.session("writer", uid=UID, gid=GID)


def twins(witnesses: int):
    """``(fan-out deployment, its session, oracle twin, its session)``."""

    return build(witnesses) + build(witnesses)


def path_on(deployment, shard: str, tag: str) -> str:
    for index in range(1000):
        path = f"/{tag}{index}/doc.dat"
        if deployment.shard_of(path) == shard:
            return path
    raise AssertionError(f"no prefix lands on {shard}")


def plus_wire(deployment, ledger: dict, copies: int) -> dict:
    """*ledger* plus *copies* ``db_dlfm_message`` charges."""

    if not copies:
        return ledger
    unit = deployment.clock.unit_ticks("db_dlfm_message")
    count, ticks = ledger.get("db_dlfm_message", (0, 0))
    return {**ledger, "db_dlfm_message": (count + copies,
                                          ticks + copies * unit)}


def measured(deployment, caller, nodes, work):
    """Run *work* from a settled cluster; ``(caller elapsed ticks,
    {node: ticks its branch took}, ledger delta)``."""

    deployment.clocks.barrier()
    with deployment.clocks.window() as window:
        work()
    return (window.elapsed[caller.name],
            {node.name: window.elapsed[node.clock.name] for node in nodes},
            window.merged)


# -- the serial oracles: what the copy paths did before they fanned out --------
def serial_put_file(deployment, session, path: str, content: bytes) -> None:
    shard = deployment.shard_of(path)
    serving = deployment.router.route_write(shard)
    deployment.router.note_write(path)
    lfs = synced_lfs(deployment.system, serving.name, session.clock)
    directory = path.rsplit("/", 1)[0]
    lfs.makedirs(directory, ROOT)
    lfs.chown(directory, UID, GID, ROOT)
    lfs.write_file(path, content, session.cred)
    serial_mirror(deployment.replicas[shard], session.clock, path, content,
                  session.cred.uid, session.cred.gid)


def serial_mirror(replica, caller, path, content, uid, gid) -> None:
    for node in replica.witnesses:
        if not node.running:
            replica.mirror_misses += 1
            continue
        with synchronized_call(caller, node.clock):
            replica._copy_below_dlfs(node, path, content, uid, gid)


def serial_receive_file(replica, path, content, uid, gid) -> None:
    with synchronized_call(replica.clock, replica.serving.clock):
        replica._copy_below_dlfs(replica.serving, path, content, uid, gid)
    serial_mirror(replica, replica.clock, path, content, uid, gid)


def serial_sweep(deployment, prefix: str) -> None:
    entry = deployment.pending_sweeps.pop(prefix)
    dst = deployment.router.serving_server(entry["dest"])
    for path in entry["paths"]:
        assert dst.files.exists(path)
        assert dst.dlfm.repository.linked_file(path) is not None
    for node in deployment.replicas[entry["source"]].nodes.values():
        with synchronized_call(deployment.clock, node.clock):
            for path in entry["paths"]:
                if node.files.exists(path):
                    node.files.unlink(path)


def assert_same_copy_everywhere(nodes, path: str, content: bytes) -> None:
    for node in nodes:
        assert node.files.read(path) == content, node.name
        attrs = node.files.stat(path)
        assert (attrs.uid, attrs.gid) == (UID, GID), node.name


# -- put_file: a send, and the link is its barrier ------------------------------
def plus_sends(deployment, ledger: dict, copies: int) -> dict:
    """*ledger* plus *copies* ``message_send`` charges."""

    unit = deployment.clock.unit_ticks("message_send")
    count, ticks = ledger.get("message_send", (0, 0))
    return {**ledger, "message_send": (count + copies,
                                       ticks + copies * unit)}


@pytest.mark.parametrize("witnesses", [1, 2])
def test_a_put_is_a_send_and_each_node_carries_its_copy(witnesses):
    """The client -- here on its own domain -- pays one ``message_send``
    per copy and nothing else; every node's clock moved by exactly its
    copy's work, from the put's departure; the host did not move."""

    fan, _, twin, _ = twins(witnesses)
    session, twin_session = (
        deployment.session("client", uid=UID, gid=GID,
                           clock=deployment.system.client_domains(1)[0])
        for deployment in (fan, twin))
    path = path_on(fan, "shard0", "put")
    nodes = list(fan.replicas["shard0"].nodes.values())
    twin_nodes = list(twin.replicas["shard0"].nodes.values())
    charged = [node.clock.stats.total_ticks() for node in nodes]

    elapsed, branches, ledger = measured(
        fan, session.clock, nodes,
        lambda: fan.put_file(session, path, CONTENT))
    charged = [node.clock.stats.total_ticks() - was
               for node, was in zip(nodes, charged)]
    _, _, serial_ledger = measured(
        twin, twin_session.clock, twin_nodes,
        lambda: serial_put_file(twin, twin_session, path, CONTENT))

    copies = 1 + witnesses
    assert_same_copy_everywhere(nodes, path, CONTENT)
    assert_same_copy_everywhere(twin_nodes, path, CONTENT)
    assert ledger == plus_sends(fan, plus_wire(fan, serial_ledger, witnesses),
                                copies)
    assert elapsed == copies * fan.clock.unit_ticks("message_send")
    assert list(branches.values()) == charged
    assert elapsed < min(branches.values())
    assert fan.clock.ticks == session.clock.ticks - elapsed    # host idle


def test_the_link_commits_no_earlier_than_the_serving_copy():
    deployment, session = build(1)
    path = path_on(deployment, "shard0", "link")
    serving = deployment.replicas["shard0"].serving
    deployment.clocks.barrier()

    url = deployment.put_file(session, path, CONTENT)
    copy_done, put_returned = serving.clock.ticks, session.clock.ticks
    session.insert(TABLE, {"doc_id": 1, "body": url})

    assert put_returned < copy_done < session.clock.ticks
    assert serving.dlfm.repository.linked_file(path) is not None


def test_a_witness_applies_the_link_no_earlier_than_its_mirror():
    """The witness is busy when the put arrives, so its mirror completes
    after the serving node has linked the file and shipped the records:
    the apply still waits for the mirror (the witness serves its domain
    in order)."""

    deployment, session = build(1)
    path = path_on(deployment, "shard0", "ship")
    replica = deployment.replicas["shard0"]
    deployment.clocks.barrier()
    replica.witness.clock.advance_local(0.5)          # a backlog of its own
    stamps = {}
    deployment.engine.failpoints["replicate:ship:shard0"] = \
        lambda: stamps.setdefault("shipped", replica.serving.clock.ticks)
    deployment.engine.failpoints["replicate:apply:shard0"] = \
        lambda: stamps.setdefault("applied", replica.witness.clock.ticks)

    url = deployment.put_file(session, path, CONTENT)
    mirror_done = replica.witness.clock.ticks
    session.insert(TABLE, {"doc_id": 1, "body": url})

    assert stamps["shipped"] < mirror_done <= stamps["applied"]
    assert replica.witness.dlfm.repository.linked_file(path) is not None
    assert replica.witness.files.read(path) == CONTENT


@pytest.mark.parametrize("witnesses,down", [(1, "shard0-r"), (2, "shard0-r2")])
def test_a_crashed_witness_is_a_counted_miss_that_costs_no_wait(witnesses,
                                                               down):
    fan, session, twin, twin_session = twins(witnesses)
    path = path_on(fan, "shard0", "crash")
    replica = fan.replicas["shard0"]
    fan.crash(down)
    twin.crash(down)
    live = [node for node in replica.nodes.values() if node.name != down]

    elapsed, branches, ledger = measured(
        fan, session.clock, [*live, replica.nodes[down]],
        lambda: fan.put_file(session, path, CONTENT))
    _, _, serial_ledger = measured(
        twin, twin_session.clock, [],
        lambda: serial_put_file(twin, twin_session, path, CONTENT))

    assert replica.mirror_misses == 1
    assert branches[down] == 0
    assert ledger == plus_sends(fan, plus_wire(fan, serial_ledger,
                                               len(live) - 1), len(live))
    assert elapsed == len(live) * fan.clock.unit_ticks("message_send")
    assert_same_copy_everywhere(live, path, CONTENT)


def test_a_put_that_raises_merges_the_caller_up_to_the_failure():
    """Another user's file: the serving write is refused after the parent
    directory work, no mirror leaves, and the caller waited for the
    refusal."""

    deployment, owner = build(1)
    path = path_on(deployment, "shard0", "taken")
    deployment.put_file(owner, path, CONTENT)
    intruder = deployment.session("intruder", uid=UID + 1, gid=GID + 1)
    replica = deployment.replicas["shard0"]
    deployment.clocks.barrier()
    start = intruder.clock.ticks
    mirrored = replica.witness.clock.ticks

    with pytest.raises(ReproError):
        deployment.put_file(intruder, path, b"not yours")

    assert intruder.clock.ticks == replica.serving.clock.ticks > start
    assert replica.witness.clock.ticks == mirrored
    assert replica.serving.files.read(path) == CONTENT


def test_a_serving_crash_between_put_and_link_loses_nothing():
    """The serving node crashes after the put and before its link: the
    link fails typed and the host aborts, no committed row is lost, and
    after the restart the same URL links and reads back."""

    deployment, session = build(1)
    path = path_on(deployment, "shard0", "gap")
    url = deployment.put_file(session, path, CONTENT)
    deployment.crash("shard0")

    with pytest.raises(DaemonUnavailableError):
        session.insert(TABLE, {"doc_id": 1, "body": url})
    assert not session.in_transaction
    assert deployment.host_db.select(TABLE, lock=False) == []
    assert audit_committed_links(deployment, session, TABLE, "doc_id",
                                 "body", ttl=60.0) == 0

    deployment.restart("shard0")
    session.insert(TABLE, {"doc_id": 1, "body": url})
    tokenized = session.get_datalink(TABLE, {"doc_id": 1}, "body",
                                     access="read", ttl=60.0)
    assert deployment.read_url(session, tokenized) == CONTENT
    assert audit_committed_links(deployment, session, TABLE, "doc_id",
                                 "body", ttl=60.0) == 0


# -- receive_file (the rebalance hand-off's content half) -----------------------
@pytest.mark.parametrize("witnesses", [1, 2])
def test_receive_file_overlaps_the_serving_copy_with_its_mirrors(witnesses):
    fan, _, twin, _ = twins(witnesses)
    replica, twin_replica = fan.replicas["shard1"], twin.replicas["shard1"]
    path = "/moved/doc.dat"
    nodes = list(replica.nodes.values())

    elapsed, branches, ledger = measured(
        fan, fan.clock, nodes,
        lambda: replica.receive_file(path, CONTENT, UID, GID))
    serial, _, serial_ledger = measured(
        twin, twin.clock, [],
        lambda: serial_receive_file(twin_replica, path, CONTENT, UID, GID))

    assert_same_copy_everywhere(nodes, path, CONTENT)
    assert ledger == plus_wire(fan, serial_ledger, witnesses)
    assert elapsed == max(branches.values()) < serial


def test_receive_file_with_a_crashed_witness_waits_for_the_serving_copy():
    fan, _, twin, _ = twins(1)
    replica = fan.replicas["shard1"]
    fan.crash("shard1-r")
    twin.crash("shard1-r")

    elapsed, branches, ledger = measured(
        fan, fan.clock, [replica.serving],
        lambda: replica.receive_file("/moved/doc.dat", CONTENT, UID, GID))
    _, _, serial_ledger = measured(
        twin, twin.clock, [],
        lambda: serial_receive_file(twin.replicas["shard1"],
                                    "/moved/doc.dat", CONTENT, UID, GID))

    assert replica.mirror_misses == 1
    assert elapsed == branches["shard1"]
    assert ledger == serial_ledger


# -- the post-move source sweep --------------------------------------------------
def deferred_move(deployment, session, prefix: str, files: int) -> str:
    """Link *files* docs under *prefix*, move the prefix, and stop right
    after the commit so its source sweep stays pending.  Returns the
    source shard."""

    for doc_id in range(files):
        url = deployment.put_file(session, f"{prefix}/doc{doc_id}.dat",
                                  CONTENT)
        session.insert(TABLE, {"doc_id": doc_id, "body": url})
    deployment.system.run_archiver()
    source = deployment.shard_of(f"{prefix}/doc0.dat")
    dest = next(name for name in deployment.shard_names if name != source)
    deployment.engine.failpoints["rebalance:sweep"] = boom()
    try:
        with pytest.raises(InjectedCrash):
            deployment.rebalance_prefix(prefix, dest)
    finally:
        deployment.engine.failpoints.clear()
    assert prefix in deployment.pending_sweeps
    # What the sweep settles first, settled here, so the measured window
    # holds the verification and the unlinks only.
    deployment.drain()
    deployment.system.flush_logs()
    return source


@pytest.mark.parametrize("witnesses", [1, 2])
def test_the_source_sweep_unlinks_on_every_node_at_once(witnesses):
    fan, session, twin, twin_session = twins(witnesses)
    source = deferred_move(fan, session, "/p", 3)
    assert deferred_move(twin, twin_session, "/p", 3) == source
    nodes = list(fan.replicas[source].nodes.values())

    elapsed, branches, ledger = measured(
        fan, fan.clock, nodes, lambda: sweep_moved_prefix(fan, "/p"))
    serial, _, serial_ledger = measured(
        twin, twin.clock, [], lambda: serial_sweep(twin, "/p"))

    assert not fan.pending_sweeps and not twin.pending_sweeps
    for node in nodes:
        assert not any(node.files.exists(f"/p/doc{doc_id}.dat")
                       for doc_id in range(3)), node.name
    assert ledger == serial_ledger
    assert elapsed == max(branches.values()) < serial
