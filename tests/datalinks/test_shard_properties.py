"""Seeded randomized property test for the sharded deployment.

The invariant: after *any* interleaving of link / unlink / commit / abort /
group-drain / shard-crash operations, once every transaction is resolved the
set of linked files on every DLFM exactly equals the DATALINK column
contents of the host database.

The test never models the expected state itself -- the host database and the
DLFM repositories are two independently-maintained views that two-phase
commit promises to keep identical, and the assertion compares them directly.
"""

import hashlib
import random

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.placement import PlacementMap
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.datalinks.tokens import TokenType
from repro.errors import FencedNodeError, ReproError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.util.urls import parse_url
from tests.conftest import boom

TABLE = "sharded_docs"


def assert_agreement(deployment):
    """Every DLFM's linked files == the host's DATALINK column contents."""

    expected = {name: set() for name in deployment.shard_names}
    for row in deployment.host_db.select(TABLE, lock=False):
        url = row.get("body")
        if url:
            parsed = parse_url(url)
            expected[parsed.server].add(parsed.path)
    for name in deployment.shard_names:
        linked = deployment.linked_paths(name)
        assert linked == expected[name], (
            f"{name}: DLFM has {sorted(linked)}, host says "
            f"{sorted(expected[name])}")


class _Driver:
    """Random operation generator over a sharded deployment."""

    def __init__(self, seed: int, shards: int = 4, window: int = 3,
                 replication: bool = False):
        self.rng = random.Random(seed)
        self.deployment = ShardedDataLinksDeployment(
            shards, flush_policy="group", group_commit_window=window,
            replication=replication)
        self.deployment.create_table(TableSchema(TABLE, [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(
                control_mode=ControlMode.RFF, recovery=False)),
        ], primary_key=("doc_id",)))
        self.session = self.deployment.session("prop", uid=4001)
        self.next_doc = 0
        self.open_txns = []          # [(host_txn, [doc_ids])]
        self.enqueued = []           # host txns sitting in the commit queue

    # ------------------------------------------------------------------ helpers --
    def _new_rows(self, count: int):
        rows = []
        for _ in range(count):
            doc_id = self.next_doc
            self.next_doc += 1
            path = f"/part{self.rng.randrange(10)}/doc{doc_id:05d}.dat"
            url = self.deployment.put_file(self.session, path,
                                           f"doc {doc_id}".encode())
            rows.append({"doc_id": doc_id, "body": url})
        return rows

    def _commit_via_queue(self, host_txn) -> None:
        drained = self.deployment.commit(host_txn)
        if drained is None:
            self.enqueued.append(host_txn)
        else:
            self.enqueued.clear()

    def settle(self) -> None:
        """Resolve every open transaction and drain the commit queue."""

        while self.open_txns:
            host_txn, _ = self.open_txns.pop()
            try:
                self.deployment.engine.commit(host_txn)
            except ReproError:
                self.deployment.abort(host_txn)
        try:
            self.deployment.drain()
        except ReproError:
            pass
        self.enqueued.clear()

    # --------------------------------------------------------------- operations --
    def op_insert_commit(self) -> None:
        host_txn = self.deployment.begin()
        rows = self._new_rows(self.rng.randint(1, 3))
        if self.rng.random() < 0.5:
            self.deployment.engine.insert_many(TABLE, rows, host_txn)
        else:
            for row in rows:
                self.deployment.engine.insert(TABLE, row, host_txn)
        self._commit_via_queue(host_txn)

    def op_open_txn(self) -> None:
        if len(self.open_txns) >= 2:
            return
        host_txn = self.deployment.begin()
        rows = self._new_rows(self.rng.randint(1, 2))
        self.deployment.engine.insert_many(TABLE, rows, host_txn)
        self.open_txns.append((host_txn, [row["doc_id"] for row in rows]))

    def op_finish_open(self) -> None:
        if not self.open_txns:
            return
        host_txn, _ = self.open_txns.pop(self.rng.randrange(len(self.open_txns)))
        if self.rng.random() < 0.6:
            try:
                self._commit_via_queue(host_txn)
            except ReproError:
                self.deployment.abort(host_txn)
        else:
            self.deployment.abort(host_txn)

    def op_delete(self) -> None:
        # Only rows not owned by an open transaction are fair game (their
        # locks are still held); skip entirely while a commit group is
        # enqueued, since those transactions also hold their locks.
        if self.enqueued:
            return
        held = {doc_id for _, ids in self.open_txns for doc_id in ids}
        candidates = [row["doc_id"]
                      for row in self.deployment.host_db.select(TABLE, lock=False)
                      if row["doc_id"] not in held]
        if not candidates:
            return
        victim = self.rng.choice(candidates)
        self.deployment.engine.delete(TABLE, {"doc_id": victim})

    def op_crash_and_restart_shard(self) -> None:
        shard = self.rng.choice(self.deployment.shard_names)
        self.deployment.crash(shard)
        # Connection loss dooms everything in flight: enqueued groups fail
        # at prepare, open transactions abort.
        try:
            self.deployment.drain()
        except ReproError:
            pass
        self.enqueued.clear()
        while self.open_txns:
            host_txn, _ = self.open_txns.pop()
            try:
                self.deployment.abort(host_txn)
            except ReproError:
                pass
        self.deployment.restart(shard)
        assert_agreement(self.deployment)

    def op_drain(self) -> None:
        self.deployment.drain()
        self.enqueued.clear()

    def step(self) -> None:
        operation = self.rng.choices(
            [self.op_insert_commit, self.op_open_txn, self.op_finish_open,
             self.op_delete, self.op_drain, self.op_crash_and_restart_shard],
            weights=[8, 3, 4, 4, 2, 1])[0]
        operation()


@pytest.mark.parametrize("seed", [7, 23, 1789, 40490])
def test_random_interleavings_preserve_host_dlfm_agreement(seed):
    driver = _Driver(seed)
    for step in range(80):
        driver.step()
        if step % 10 == 9:
            driver.settle()
            assert_agreement(driver.deployment)
    driver.settle()
    assert_agreement(driver.deployment)
    # the run actually linked a meaningful number of files
    total_linked = sum(len(driver.deployment.linked_paths(name))
                       for name in driver.deployment.shard_names)
    assert total_linked == len(driver.deployment.host_db.select(TABLE, lock=False))
    assert driver.next_doc > 40


@pytest.mark.parametrize("window", [1, 4])
def test_drain_failure_after_host_commit_redrives_participants(window):
    """A shard crash *after* the host commit must not roll the batch back:
    the host outcome is durable, so surviving shards get their commits
    re-driven and the crashed shard resolves its in-doubt branch on
    recovery -- agreement holds with the rows present.  A window of 1
    drains at once, through the same redrive."""

    deployment = ShardedDataLinksDeployment(4, group_commit_window=window)
    deployment.create_table(TableSchema(TABLE, [
        Column("doc_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(
            control_mode=ControlMode.RFF, recovery=False)),
    ], primary_key=("doc_id",)))
    user = deployment.session("user", uid=4002)

    host_txn = deployment.begin()
    rows = []
    for doc_id in range(12):
        path = f"/zone{doc_id}/doc{doc_id}.dat"
        url = deployment.put_file(user, path, b"payload")
        rows.append({"doc_id": doc_id, "body": url})
    deployment.engine.insert_many(TABLE, rows, host_txn)
    enlisted = sorted(host_txn.servers)
    assert len(enlisted) >= 2
    victim = enlisted[0]  # sorted first => its commit fails first

    deployment.engine.failpoints["commit:after_host_commit"] = boom(
        lambda: deployment.crash(victim), raises=None)
    with pytest.raises(ReproError):
        deployment.commit(host_txn)
        deployment.drain()
    deployment.engine.failpoints.clear()
    for shard in enlisted[1:]:
        assert host_txn.txn_id not in \
            deployment.shard(shard).dlfm.branches.active_host_transactions()

    deployment.restart(victim)
    assert_agreement(deployment)
    assert len(deployment.host_db.select(TABLE, lock=False)) == 12
    assert deployment.host_db.txn_outcome(host_txn.txn_id) == "committed"


def test_drain_redrive_sends_one_commit_per_shard(monkeypatch):
    """A window-4 drain over 4 shards whose first participant crashed after
    the host commit: the failed commit reached the crashed shard once, and
    the redrive sends one ``commit`` per shard for the whole batch, not
    one per transaction."""

    from repro.ipc.channel import Channel
    from tests.conftest import prefix_on

    deployment = ShardedDataLinksDeployment(4, group_commit_window=4)
    deployment.create_table(TableSchema(TABLE, [
        Column("doc_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(
            control_mode=ControlMode.RFF, recovery=False)),
    ], primary_key=("doc_id",)))
    user = deployment.session("user", uid=4002)
    shards = sorted(deployment.shard_names)
    batch = [deployment.begin() for _ in range(4)]
    for txn, host_txn in enumerate(batch):
        for index, shard in enumerate(shards):
            url = deployment.put_file(
                user, f"{prefix_on(deployment, shard)}/doc{txn}.dat", b"x")
            deployment.engine.insert(
                TABLE, {"doc_id": 4 * txn + index, "body": url}, host_txn)
        assert sorted(host_txn.servers) == shards
    sent = {}
    request = Channel.request

    def recording(channel, kind, **payload):
        if kind == "commit":
            name = channel._callee_clock.name
            sent[name] = sent.get(name, 0) + 1
        return request(channel, kind, **payload)

    monkeypatch.setattr(Channel, "request", recording)
    deployment.engine.failpoints["commit:after_host_commit"] = boom(
        lambda: deployment.crash(shards[0]), raises=None)
    with pytest.raises(ReproError):
        for host_txn in batch:
            deployment.commit(host_txn)
    assert sent == {shards[0]: 2, **{shard: 1 for shard in shards[1:]}}


class _ReplicatedDriver(_Driver):
    """The random driver over a deployment with witness replication.

    Adds failover cycles (crash primary -> promote witness -> verify the
    fenced ex-primary refuses a *valid* token -> fail back) and witness
    outages to the operation mix, and checks replica convergence: after
    every settle, each witness repository holds exactly the primary's (and
    therefore the host's) linked-file state.
    """

    def __init__(self, seed: int, shards: int = 2, window: int = 3):
        super().__init__(seed, shards, window, replication=True)
        self.fenced_validations = 0
        self.failovers = 0

    # ------------------------------------------------------------- operations --
    def _doom_in_flight(self) -> None:
        try:
            self.deployment.drain()
        except ReproError:
            pass
        self.enqueued.clear()
        while self.open_txns:
            host_txn, _ = self.open_txns.pop()
            try:
                self.deployment.abort(host_txn)
            except ReproError:
                pass

    def op_failover_cycle(self) -> None:
        deployment = self.deployment
        shard = self.rng.choice(deployment.shard_names)
        deployment.crash(shard)
        self._doom_in_flight()
        deployment.fail_over(shard)
        self.failovers += 1

        # The witness now serves exactly what the host database says.
        assert_agreement(deployment)

        # Property: a fenced ex-primary never accepts a token, even a
        # cryptographically valid, unexpired one.
        deployment.restart(shard)
        manager = deployment.shard(shard).dlfm
        rows = manager.repository.linked_files()
        if rows:
            row = self.rng.choice(rows)
            token = manager.generate_token(row["path"], TokenType.READ, ttl=1e9)
            with pytest.raises(FencedNodeError):
                manager.upcall_validate_token(row["ino"], token, 4001)
            self.fenced_validations += 1

        deployment.fail_back(shard)
        assert_agreement(deployment)

    def op_witness_outage(self) -> None:
        deployment = self.deployment
        shard = self.rng.choice(deployment.shard_names)
        if deployment.replicas[shard].failed_over:
            return
        deployment.crash(f"{shard}-r")
        # the primary keeps serving and committing while the witness is down
        self.op_insert_commit()
        deployment.restart(f"{shard}-r")

    def op_drain(self) -> None:
        try:
            self.deployment.drain()
        except ReproError:
            pass
        self.enqueued.clear()

    def step(self) -> None:
        operation = self.rng.choices(
            [self.op_insert_commit, self.op_open_txn, self.op_finish_open,
             self.op_delete, self.op_drain, self.op_failover_cycle,
             self.op_witness_outage],
            weights=[8, 3, 4, 4, 2, 2, 1])[0]
        operation()

    # ------------------------------------------------------------ convergence --
    def assert_convergence(self) -> None:
        """Primary and witness repositories hold identical link state."""

        deployment = self.deployment
        deployment.system.flush_logs()
        for name in deployment.shard_names:
            replica = deployment.replicas[name]
            primary_linked = deployment.linked_paths(name)
            witness_linked = {row["path"] for row in
                              replica.witness.dlfm.repository.linked_files()}
            assert witness_linked == primary_linked, (
                f"{name}: witness {sorted(witness_linked)} != "
                f"primary {sorted(primary_linked)}")
            assert replica.shipper.lag() == 0


@pytest.mark.parametrize("seed", [11, 5150])
def test_random_failovers_converge_primary_and_replica(seed):
    driver = _ReplicatedDriver(seed)
    for step in range(60):
        driver.step()
        if step % 12 == 11:
            driver.settle()
            assert_agreement(driver.deployment)
            driver.assert_convergence()
    driver.settle()
    assert_agreement(driver.deployment)
    driver.assert_convergence()
    # the run exercised what it claims to: real links, real failovers, and
    # at least one refused fenced validation
    assert driver.next_doc > 20
    assert driver.failovers > 0
    assert driver.fenced_validations > 0


def test_placement_is_stable_and_prefix_local():
    pmap = PlacementMap([f"s{i}" for i in range(8)])
    assert pmap.shard_of("/a/x.dat") == pmap.shard_of("/a/deep/y.dat")
    assert pmap.shard_of("/a/x.dat") == pmap.shard_of("/a/x.dat")
    spread = {pmap.shard_of(f"/dir{i}/f.dat") for i in range(64)}
    assert len(spread) >= 4  # 64 prefixes land on many of the 8 shards


#: Paths whose epoch-1 placement is pinned: the root, a one-component
#: path, a deep path, and a spread of first components.
PINNED_PATHS = ["/", "/solo", "/a/b/c/d/e/f.dat", "/a/x.dat", "/data/f.dat",
                "//doubled//slashes.dat"] + [f"/dir{i}/f.dat"
                                             for i in range(24)]


@pytest.mark.parametrize("count", [3, 8])
def test_epoch_one_placement_is_the_prefix_hash(count):
    """Epoch 1 places a path by SHA-1 of its first component (the first
    eight digest bytes, big-endian) modulo the shard count, computed here
    without the map: a change to the hash moves every deployed file."""

    names = [f"shard{i}" for i in range(count)]
    pmap = PlacementMap(names)
    for path in PINNED_PATHS:
        first = [part for part in path.split("/") if part][:1]
        prefix = "/" + "".join(first)
        digest = hashlib.sha1(prefix.encode("utf-8")).digest()
        expected = names[int.from_bytes(digest[:8], "big") % count]
        assert pmap.prefix_of(path) == prefix, path
        assert pmap.shard_of(path) == expected, path
    assert pmap.epoch == 1
