"""Seeded property test for epoched placement and online rebalancing.

Across random interleavings of links, reads, prefix rebalances, serving-node
crashes, failovers, recoveries and fail-backs, the placement invariants must
hold after every step:

1. **Exactly one writable owner per prefix per epoch** -- the placement map
   names one owning shard for every prefix ever linked under, the router
   resolves writes there, and every *other* shard's placement guard refuses
   a write for that prefix with
   :class:`~repro.errors.PlacementEpochError` (naming the owner -- the
   redirect), no matter how many moves and failovers have interleaved;
2. **No committed link is ever orphaned** -- every committed DATALINK row's
   path has a ``linked_files`` row on its current owner's serving
   repository (whenever that node is up to be asked), across any sequence
   of moves;
3. **Stale-epoch requests are always redirected, never applied** -- a link
   sent through a connection stamped with an old placement epoch is
   refused at the daemon boundary: no repository row appears, no branch is
   created, and the error names the current epoch;
4. **The placement epoch is monotone** -- it never decreases, and it bumps
   exactly when a move commits.

Like the routing property test, this never models expected state on its
own: it replays the map, the router and the DLFM guards against each other
and asserts they agree.
"""

import random

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.dlfm.daemons import DLFMConnection
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.errors import PlacementEpochError, PlacementError, ReproError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.util.urls import parse_url

TABLE = "placed_docs"


def known_prefixes(deployment, urls) -> set:
    prefixes = {deployment.router.prefix_of(parse_url(url).path)
                for url in urls}
    prefixes.update(deployment.router.placement.overrides)
    return prefixes


def assert_placement_invariants(deployment, urls, last_epoch: int) -> int:
    router = deployment.router
    pmap = router.placement

    # -- invariant 4: the epoch is monotone ------------------------------------
    assert pmap.epoch >= last_epoch
    assert not pmap.moving          # no hand-off leaks past its call

    for prefix in known_prefixes(deployment, urls):
        probe = f"{prefix}/__placement_probe__"
        owner = pmap.shard_of(probe)
        assert owner in deployment.shard_names

        # -- invariant 1: exactly one shard accepts writes for the prefix ------
        accepting = []
        for shard in deployment.shard_names:
            replica = deployment.replicas[shard]
            node = replica.serving
            if not node.running:
                continue
            try:
                node.dlfm.check_placement(probe)
                accepting.append(shard)
            except PlacementEpochError as error:
                assert error.owner == owner      # the redirect names the owner
                assert error.epoch == pmap.epoch
        assert accepting in ([owner], []), (
            f"prefix {prefix!r}: owner {owner!r} but "
            f"{accepting} accept writes at epoch {pmap.epoch}")

    # -- invariant 2: no committed link is orphaned ----------------------------
    for url in urls:
        parsed = parse_url(url)
        owner = router.owner_shard(parsed.server, parsed.path)
        replica = deployment.replicas[owner]
        if not replica.serving.running:
            continue
        row = replica.serving.dlfm.repository.linked_file(parsed.path)
        assert row is not None, (
            f"committed link {parsed.path!r} orphaned: owner {owner!r} "
            f"(epoch {pmap.epoch}) has no repository row")

    return pmap.epoch


class _PlacementDriver:
    """Random link/read/move/crash interleavings with invariants after each."""

    def __init__(self, seed: int, shards: int = 3, witnesses: int = 1):
        self.rng = random.Random(seed)
        # Immediate flush: links become durable (and ship) at commit, so
        # repository state settles step by step -- the driver probes
        # placement transitions, not group-commit windows.
        self.deployment = ShardedDataLinksDeployment(
            shards, replication=True, witnesses=witnesses,
            flush_policy="immediate", group_commit_window=1)
        self.deployment.create_table(TableSchema(TABLE, [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(
                control_mode=ControlMode.RDB, recovery=False)),
        ], primary_key=("doc_id",)))
        self.session = self.deployment.session("placer", uid=5001)
        self.urls: list[str] = []
        self.next_doc = 0
        self.last_epoch = 1
        self.rebalances = 0
        self.stale_rejections = 0

    # --------------------------------------------------------------- operations --
    def _shard(self) -> str:
        return self.rng.choice(self.deployment.shard_names)

    def op_link(self) -> None:
        doc_id = self.next_doc
        self.next_doc += 1
        path = f"/area{self.rng.randrange(6)}/doc{doc_id:05d}.dat"
        try:
            url = self.deployment.put_file(self.session, path,
                                           f"doc {doc_id}".encode())
            self.session.insert(TABLE, {"doc_id": doc_id, "body": url})
        except ReproError:
            return      # owner down or mid-anything: write unavailable
        self.urls.append(url)

    def op_read(self) -> None:
        if not self.urls:
            return
        doc_id = self.rng.randrange(len(self.urls))
        try:
            tokenized = self.session.get_datalink(
                TABLE, {"doc_id": doc_id}, "body", access="read", ttl=1e9)
            if tokenized is not None:
                assert self.deployment.read_url(self.session, tokenized) \
                    == f"doc {doc_id}".encode()
        except ReproError:
            pass        # no read-eligible node right now

    def op_rebalance(self) -> None:
        prefixes = sorted(known_prefixes(self.deployment, self.urls))
        if not prefixes:
            return
        prefix = self.rng.choice(prefixes)
        dest = self._shard()
        try:
            summary = self.deployment.rebalance_prefix(prefix, dest)
        except (PlacementError, ReproError):
            return      # same shard, node down, in-flight opens: legitimate
        assert summary["moved"]
        self.rebalances += 1

    def op_crash_serving(self) -> None:
        shard = self._shard()
        replica = self.deployment.replicas[shard]
        serving = replica.serving_name
        if not replica.nodes[serving].running:
            return
        self.deployment.crash(serving)

    def op_fail_over(self) -> None:
        shard = self._shard()
        if self.deployment.replicas[shard].serving.running:
            return
        try:
            self.deployment.fail_over(shard)
        except ReproError:
            pass

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

    def op_probe_stale(self) -> None:
        """A link stamped with an old epoch is redirected, never applied."""

        pmap = self.deployment.router.placement
        if pmap.epoch <= 1:
            return
        shard = self._shard()
        replica = self.deployment.replicas[shard]
        node = replica.serving
        if not node.running:
            return
        holder = {"epoch": pmap.epoch}
        connection = DLFMConnection(node.main_daemon, self.deployment.clock,
                                    client_name="stale-probe",
                                    epoch_provider=lambda: holder["epoch"])
        holder["epoch"] = pmap.epoch - 1
        repo = node.dlfm.repository
        rows_before = len(repo.linked_files())
        probe_txn = 10_000_000 + self.next_doc
        with pytest.raises(PlacementEpochError) as excinfo:
            connection.link_file(
                probe_txn, "/stale/probe.dat",
                DatalinkOptions(control_mode=ControlMode.RFF, recovery=False))
        assert excinfo.value.epoch == pmap.epoch
        assert len(repo.linked_files()) == rows_before
        assert not node.dlfm.has_branch(probe_txn)
        self.stale_rejections += 1

    def step(self) -> None:
        operation = self.rng.choices(
            [self.op_link, self.op_read, self.op_rebalance,
             self.op_crash_serving, self.op_fail_over, self.op_recover,
             self.op_fail_back, self.op_probe_stale],
            weights=[6, 5, 4, 2, 3, 3, 2, 3])[0]
        operation()
        self.last_epoch = assert_placement_invariants(
            self.deployment, self.urls, self.last_epoch)


@pytest.mark.parametrize("seed", [7, 1989, 52064])
def test_random_rebalance_interleavings_preserve_placement_invariants(seed):
    driver = _PlacementDriver(seed)
    for _ in range(100):
        driver.step()
    # the run exercised what it claims to
    assert driver.next_doc > 10
    assert driver.rebalances > 0
    assert driver.stale_rejections > 0
    assert driver.last_epoch == 1 + driver.rebalances


def test_stale_epoch_rejected_even_when_the_map_would_agree():
    """The envelope check alone refuses a stale sender, without any move
    of the probed prefix -- staleness is a property of the map version,
    not of which prefix the request touches."""

    deployment = ShardedDataLinksDeployment(2, replication=True,
                                            flush_policy="immediate",
                                            group_commit_window=1)
    deployment.create_table(TableSchema(TABLE, [
        Column("doc_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(
            control_mode=ControlMode.RFF, recovery=False)),
    ], primary_key=("doc_id",)))
    session = deployment.session("stale", uid=5002)
    url = deployment.put_file(session, "/m0/doc.dat", b"m0")
    session.insert(TABLE, {"doc_id": 0, "body": url})
    moved = deployment.router.prefix_of("/m0/doc.dat")
    dest = next(name for name in deployment.shard_names
                if name != deployment.shard_of("/m0/doc.dat"))
    deployment.rebalance_prefix(moved, dest)

    # Probe a *different* prefix on its rightful owner with a stale epoch:
    # the path-level guard would pass, the envelope gate must still refuse.
    other_path = next(f"/other{i}/doc.dat" for i in range(64)
                      if deployment.router.prefix_of(f"/other{i}/doc.dat")
                      != moved)
    owner = deployment.shard_of(other_path)
    node = deployment.replicas[owner].serving
    holder = {"epoch": deployment.router.placement.epoch}
    connection = DLFMConnection(node.main_daemon, deployment.clock,
                                client_name="stale-probe",
                                epoch_provider=lambda: holder["epoch"])
    holder["epoch"] = 1
    with pytest.raises(PlacementEpochError):
        connection.link_file(
            9_999_999, other_path,
            DatalinkOptions(control_mode=ControlMode.RFF, recovery=False))
    assert not node.dlfm.has_branch(9_999_999)
