"""Seeded property test for the replication-aware routing layer.

Under *any* interleaving of link traffic, serving-node crashes, promotions,
witness outages, stream stalls, rejoins and fail-backs, the routing
invariants must hold after every step:

1. **Exactly one writable primary per prefix** -- the epoch registry names
   one lease holder per shard, the router resolves every write to it, and
   every other node refuses link branches with
   :class:`~repro.errors.FencedNodeError` (no split brain);
2. **No fenced node ever serves** -- a deposed node that has not rejoined
   the stream is never a read candidate and refuses token validation even
   for a cryptographically valid token;
3. **Follower reads never exceed the staleness bound** -- every non-serving
   read candidate the router offers is a synced subscriber whose stream lag
   is within ``max_follower_lag`` records, and reads routed while a stream
   is stalled silently fall back to the serving node.

The test never models the expected roles itself: it replays the registry,
the router and the DLFM fences against each other and asserts they agree.
"""

import random

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.routing import NodeRole
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.datalinks.tokens import TokenType
from repro.errors import FencedNodeError, ReproError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType

TABLE = "routed_docs"
MAX_FOLLOWER_LAG = 0


def assert_routing_invariants(deployment):
    router = deployment.router
    for shard in deployment.shard_names:
        replica = deployment.replicas[shard]
        roles = router.roles(shard)

        # -- invariant 1: one writable lease holder, everyone else fenced --
        lease_holder = router.serving_node(shard)
        assert router.writable_node(shard) == lease_holder
        assert sum(1 for role in roles.values()
                   if role == NodeRole.SERVING) <= 1
        if roles.get(lease_holder) == NodeRole.SERVING:
            assert replica.serving.name == lease_holder
        for name, node in replica.nodes.items():
            if name == lease_holder or not node.running:
                continue
            with pytest.raises(FencedNodeError):
                node.dlfm.begin_branch(999999)

        # -- invariant 2: no fenced node is ever a read candidate ----------
        candidates = {server.name for server in router.read_candidates(shard)}
        for name, role in roles.items():
            if role in (NodeRole.FENCED, NodeRole.DOWN):
                assert name not in candidates
                node = replica.nodes[name]
                if node.running and role == NodeRole.FENCED:
                    rows = node.dlfm.repository.linked_files()
                    if rows:
                        row = rows[0]
                        token = node.dlfm.generate_token(
                            row["path"], TokenType.READ, ttl=1e9)
                        with pytest.raises(FencedNodeError):
                            node.dlfm.upcall_validate_token(
                                row["ino"], token, 4001)

        # -- invariant 3: follower candidates respect the staleness bound --
        for name in candidates:
            if name == lease_holder:
                continue
            assert roles[name] == NodeRole.WITNESS
            lag = router.follower_lag(shard, name)
            assert lag is not None and lag <= MAX_FOLLOWER_LAG


class _RoutingDriver:
    """Random crash/promote/fail-back interleavings over a replicated
    deployment, with the routing invariants asserted after every step."""

    def __init__(self, seed: int, shards: int = 2, witnesses: int = 2):
        self.rng = random.Random(seed)
        # Immediate flush: links become durable (and ship) at commit, so
        # witnesses are read-eligible right after a link -- the driver is
        # probing role rotations, not group-commit settling.
        self.deployment = ShardedDataLinksDeployment(
            shards, replication=True, witnesses=witnesses,
            flush_policy="immediate", group_commit_window=1,
            max_follower_lag=MAX_FOLLOWER_LAG)
        self.deployment.create_table(TableSchema(TABLE, [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(
                control_mode=ControlMode.RDB, recovery=False)),
        ], primary_key=("doc_id",)))
        self.session = self.deployment.session("router", uid=4001)
        self.next_doc = 0
        self.urls: list[str] = []
        self.failovers = 0
        self.fenced_rejections = 0
        self.follower_reads_served = 0

    # --------------------------------------------------------------- operations --
    def _shard(self) -> str:
        return self.rng.choice(self.deployment.shard_names)

    def op_link(self) -> None:
        deployment = self.deployment
        doc_id = self.next_doc
        self.next_doc += 1
        path = f"/zone{self.rng.randrange(8)}/doc{doc_id:05d}.dat"
        try:
            url = deployment.put_file(self.session, path,
                                      f"doc {doc_id}".encode())
            self.session.insert(TABLE, {"doc_id": doc_id, "body": url})
        except ReproError:
            return      # the shard's lease holder is down: write unavailable
        self.urls.append(url)

    def op_read(self) -> None:
        if not self.urls:
            return
        deployment = self.deployment
        url = self.rng.choice(self.urls)
        doc_id = self.urls.index(url)
        before = dict(deployment.router.reads_by_role)
        try:
            tokenized = self.session.get_datalink(
                TABLE, {"doc_id": doc_id}, "body", access="read", ttl=1e9)
            if tokenized is None:
                return
            deployment.read_url(self.session, tokenized)
        except ReproError:
            return      # no read-eligible node right now
        gained_witness = deployment.router.reads_by_role["witness"] \
            - before["witness"]
        self.follower_reads_served += gained_witness

    def op_crash_serving(self) -> None:
        shard = self._shard()
        replica = self.deployment.replicas[shard]
        serving = replica.serving_name
        if not replica.nodes[serving].running:
            return
        self.deployment.crash(serving)

    def op_fail_over(self) -> None:
        shard = self._shard()
        replica = self.deployment.replicas[shard]
        if replica.serving.running:
            return
        try:
            self.deployment.fail_over(shard)
            self.failovers += 1
        except ReproError:
            pass        # no synced running witness; legitimate refusal

    def op_recover(self) -> None:
        shard = self._shard()
        replica = self.deployment.replicas[shard]
        downed = [name for name, node in replica.nodes.items()
                  if not node.running]
        if not downed:
            return
        name = self.rng.choice(downed)
        self.deployment.restart(name)

    def op_fail_back(self) -> None:
        shard = self._shard()
        replica = self.deployment.replicas[shard]
        if not replica.failed_over or not replica.serving.running:
            return
        try:
            self.deployment.fail_back(shard)
        except ReproError:
            pass

    def op_probe_fenced(self) -> None:
        """A valid token against a fenced node must be refused."""

        shard = self._shard()
        replica = self.deployment.replicas[shard]
        roles = self.deployment.router.roles(shard)
        fenced = [name for name, role in roles.items()
                  if role == NodeRole.FENCED]
        if not fenced:
            return
        node = replica.nodes[self.rng.choice(fenced)]
        rows = node.dlfm.repository.linked_files()
        if not rows:
            return
        row = self.rng.choice(rows)
        token = node.dlfm.generate_token(row["path"], TokenType.READ, ttl=1e9)
        with pytest.raises(FencedNodeError):
            node.dlfm.upcall_validate_token(row["ino"], token, 4001)
        self.fenced_rejections += 1

    def step(self) -> None:
        operation = self.rng.choices(
            [self.op_link, self.op_read, self.op_crash_serving,
             self.op_fail_over, self.op_recover, self.op_fail_back,
             self.op_probe_fenced],
            weights=[6, 6, 2, 3, 3, 2, 2])[0]
        operation()
        assert_routing_invariants(self.deployment)


@pytest.mark.parametrize("seed", [13, 2024, 90125])
def test_random_role_rotations_preserve_routing_invariants(seed):
    driver = _RoutingDriver(seed)
    for _ in range(70):
        driver.step()
    # the run exercised what it claims to
    assert driver.next_doc > 10
    assert driver.failovers > 0
    assert driver.follower_reads_served > 0


def test_follower_reads_never_served_past_the_staleness_bound():
    """With a stalled stream the router must route every read to the
    serving node; resuming the stream re-admits the witness."""

    deployment = ShardedDataLinksDeployment(2, replication=True,
                                            flush_policy="immediate",
                                            group_commit_window=1,
                                            max_follower_lag=MAX_FOLLOWER_LAG)
    deployment.create_table(TableSchema(TABLE, [
        Column("doc_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(
            control_mode=ControlMode.RDB, recovery=False)),
    ], primary_key=("doc_id",)))
    session = deployment.session("bound", uid=4002)
    path = "/bound0/doc.dat"
    shard = deployment.shard_of(path)
    url = deployment.put_file(session, path, b"bound")
    session.insert(TABLE, {"doc_id": 0, "body": url})
    replica = deployment.replicas[shard]

    replica.shipper.pause()
    url2 = deployment.put_file(session, f"/bound0/doc2.dat", b"bound2")
    session.insert(TABLE, {"doc_id": 1, "body": url2})
    deployment.system.flush_logs()
    assert replica.shipper.lag() > 0

    tokenized = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                     access="read", ttl=1e9)
    before = dict(deployment.router.reads_by_role)
    for _ in range(4):
        deployment.read_url(session, tokenized)
        assert_routing_invariants(deployment)
    assert deployment.router.reads_by_role["witness"] == before["witness"]
    assert deployment.router.follower_rejects > 0

    replica.shipper.resume()
    replica.shipper.ship()
    for _ in range(2):
        deployment.read_url(session, tokenized)
    assert deployment.router.reads_by_role["witness"] > before["witness"]
