"""Sharded multi-DLFM scale-out deployment.

The paper's architecture already allows "files [to] be spread over multiple
file servers"; this module turns that into an operational scale-out layer:

* :class:`ShardRouter` hash-partitions linked files across N file servers by
  **URL path prefix** (the first ``prefix_depth`` path components), so whole
  directories co-locate on one shard.  The hash is only the *initial*
  placement: the deployment wraps it in a versioned
  :class:`~repro.datalinks.placement.PlacementMap` whose **placement
  epoch** stamps every routing decision, and
  :meth:`ShardedDataLinksDeployment.rebalance_prefix` moves a prefix to
  another shard online -- a two-phase-commit hand-off of the prefix's
  linked-file rows, archived version chain and file content, with the
  destination's witnesses mirrored in the same step.  Every DLFM holds a
  :class:`~repro.datalinks.placement.PlacementGuard` onto the same map,
  so after a move the old owner refuses straggler writes with a
  :class:`~repro.errors.PlacementEpochError` redirect instead of silently
  taking them, and stale-epoch message envelopes are rejected at the
  daemon boundary;
* :class:`ShardedDataLinksDeployment` builds a
  :class:`~repro.api.system.DataLinksSystem` with N file-server shards,
  routes file placement through the router, and runs a **group-commit
  queue**: transactions enqueue at commit time and a whole batch is resolved
  with one ``prepare_many``/``commit_many`` message per enlisted shard plus a
  single host log force (:meth:`~repro.datalinks.engine.DataLinksEngine.commit_group`).

With ``replication=True`` every shard additionally gets one or more
**witness replicas** (``shard0-r``, ``shard0-r2``, ... for ``shard0``):
linked-file content is mirrored at ingest and the serving node's repository
WAL stream ships to every witness on every log force.  Routing is owned by
a :class:`~repro.datalinks.routing.ReplicationRouter`:

* **writable failover** -- when a primary crashes,
  :meth:`ShardedDataLinksDeployment.fail_over` promotes the best witness to
  a *full primary*: the engine's DLFM connections re-route through the
  router, so link/unlink branches and two-phase commit for the shard's URL
  prefix keep flowing (not just reads);
* **reversed-ship fail-back** -- :meth:`ShardedDataLinksDeployment.fail_back`
  rejoins the recovered ex-primary as a witness fed by the new primary's
  WAL stream, catching up from its last-applied LSN instead of a full
  resync, then rotates the lease back under a fence;
* **follower reads** -- :meth:`ShardedDataLinksDeployment.read_url`
  load-balances token-validated reads round-robin over the serving node and
  every healthy witness within the ``max_follower_lag`` staleness bound.

An epoch/fencing scheme (:class:`~repro.datalinks.replication.EpochRegistry`)
guarantees a deposed ex-primary refuses to serve until it rejoins the
stream.

Knobs
-----
``shards``                number of file servers (``shard0`` .. ``shardN-1``)
``prefix_depth``          how many leading path components the router hashes
``flush_policy``          WAL commit flush policy for host + shard
                          repositories (``"group"`` by default here)
``group_commit_window``   commits buffered before the queue auto-drains;
                          ``1`` disables the queue (classic per-transaction
                          two-phase commit)
``replication``           add witness replicas per shard, fed by the
                          serving node's repository WAL stream
``witnesses``             witness replicas per shard (default 1)
``replica_suffix``        witness server name suffix (default ``"-r"``)
``follower_reads``        let healthy witnesses serve reads (default on)
``max_follower_lag``      staleness bound for follower reads, in shipped
                          WAL records (default 0: fully caught up)
``serial_clock``          collapse every node onto one shared timeline (the
                          pre-clock-domain serial model, kept for honest A/B
                          comparisons); by default every shard, witness and
                          the archive run on their own clock domain and
                          genuinely overlap (see :mod:`repro.simclock`)

Because enqueued transactions stay ACTIVE (locks held) until the batch
drains, callers that need a transaction's effects visible immediately should
call :meth:`ShardedDataLinksDeployment.drain` (reads of *other* rows are
unaffected).
"""

from __future__ import annotations

from repro.api.system import DataLinksSystem, FileServer
from repro.datalinks.balancer import BalancerConfig, PlacementBalancer
from repro.datalinks.engine import HostTransaction
from repro.datalinks.placement import (PlacementGuard, path_under,
                                       rebalance_prefix, sweep_moved_prefix)
from repro.datalinks.replication import EpochRegistry, ReplicatedShard
from repro.datalinks.routing import ReplicationRouter, ShardRouter
from repro.errors import DataLinksError, PlacementError, ReplicationError, \
    ReproError
from repro.simclock import CostModel, SimClock
from repro.storage.schema import TableSchema
from repro.util.lsn import LSN
from repro.util.urls import format_url, parse_url

__all__ = ["ShardRouter", "ShardedDataLinksDeployment"]


class ShardedDataLinksDeployment:
    """A DataLinks installation scaled out over N file-server shards."""

    def __init__(self, shards: int = 4, *,
                 cost_model: CostModel | None = None,
                 shard_prefix: str = "shard",
                 prefix_depth: int = 1,
                 flush_policy: str = "group",
                 group_commit_window: int = 8,
                 strict_read_upcalls: bool = False,
                 replication: bool = False,
                 witnesses: int = 1,
                 replica_suffix: str = "-r",
                 follower_reads: bool = True,
                 max_follower_lag: int = 0,
                 serial_clock: bool = False):
        if shards < 1:
            raise DataLinksError("a sharded deployment needs at least one shard")
        self.system = DataLinksSystem(cost_model,
                                      flush_policy=flush_policy,
                                      group_commit_window=group_commit_window,
                                      serial_clock=serial_clock)
        self.shard_names = [f"{shard_prefix}{index}" for index in range(shards)]
        for name in self.shard_names:
            self.system.add_file_server(name,
                                        strict_read_upcalls=strict_read_upcalls)
        self.router = ReplicationRouter(
            ShardRouter(self.shard_names, prefix_depth),
            follower_reads=follower_reads, max_follower_lag=max_follower_lag)
        self.engine.set_router(self.router)
        self.group_commit_window = max(1, int(group_commit_window))
        self._pending: list[HostTransaction] = []
        self.replicas: dict[str, ReplicatedShard] = {}
        self.epochs: EpochRegistry | None = None
        if replication:
            self.epochs = EpochRegistry()
            for name in self.shard_names:
                witness_nodes = []
                for index in range(1, max(1, int(witnesses)) + 1):
                    suffix = replica_suffix if index == 1 \
                        else f"{replica_suffix}{index}"
                    witness_nodes.append(self.system.add_file_server(
                        f"{name}{suffix}",
                        strict_read_upcalls=strict_read_upcalls,
                        token_secret=self.shard(name).dlfm.token_secret))
                replica = ReplicatedShard(
                    name, primary=self.shard(name), witnesses=witness_nodes,
                    registry=self.epochs, engine=self.engine,
                    clock=self.clock)
                self.replicas[name] = replica
                self.router.register_replicated(name, replica)
        else:
            for name in self.shard_names:
                self.router.register_shard(name, self.shard(name))
        # Every DLFM of a shard -- serving node and witnesses alike --
        # enforces placement against the *same* epoched map the router
        # reads, so a rebalanced prefix is fenced on its old owner the
        # instant the map commits (no propagation step to lose).
        for name in self.shard_names:
            guard = PlacementGuard(self.router.placement, name)
            replica = self.replicas.get(name)
            if replica is not None:
                for node in replica.nodes.values():
                    node.dlfm.set_placement(guard)
            else:
                self.shard(name).dlfm.set_placement(guard)
        #: Fault-injection hooks for the rebalance hand-off:
        #: ``rebalance:prepare`` / ``rebalance:export`` /
        #: ``rebalance:archive`` / ``rebalance:import`` /
        #: ``rebalance:fence`` / ``rebalance:sweep`` (the last fires
        #: between the committed map swing and the source GC sweep --
        #: see :mod:`repro.datalinks.placement`).
        self.rebalance_failpoints: dict = {}
        #: Deferred post-move source sweeps: ``prefix -> sweep entry``.
        #: Entries are recorded before a sweep is attempted and removed
        #: only when it succeeds, so a crash between commit and sweep is
        #: redriven by :meth:`redrive_sweeps` / :meth:`recover_shard`.
        self.pending_sweeps: dict[str, dict] = {}
        #: The autonomous placement balancer (off until
        #: :meth:`enable_balancer`).
        self.balancer: PlacementBalancer | None = None

    # ----------------------------------------------------------------- accessors --
    @property
    def engine(self):
        return self.system.engine

    @property
    def clock(self) -> SimClock:
        """The host node's clock domain (where commits are coordinated)."""

        return self.system.clock

    @property
    def clocks(self):
        """The deployment's clock-domain group."""

        return self.system.clocks

    def global_now(self) -> float:
        """Cluster wall-clock time: the max over every node's domain."""

        return self.system.clocks.global_now()

    @property
    def host_db(self):
        return self.system.host_db

    def shard(self, name: str) -> FileServer:
        return self.system.file_server(name)

    def session(self, username: str, uid: int, gid: int = 100, clock=None):
        """A session against the deployment's host; ``clock`` binds it to
        a client clock domain (see
        :meth:`repro.api.system.DataLinksSystem.client_domains`)."""

        return self.system.session(username, uid, gid=gid, clock=clock)

    def create_table(self, schema: TableSchema) -> None:
        self.system.create_table(schema)

    def register_metadata_columns(self, table: str, column: str,
                                  size_column: str | None = None,
                                  mtime_column: str | None = None) -> None:
        self.system.register_metadata_columns(table, column, size_column,
                                              mtime_column)

    # ------------------------------------------------------------------ placement --
    def shard_of(self, path: str) -> str:
        return self.router.shard_of(path)

    def url_for(self, path: str) -> str:
        """The DATALINK URL for *path*, on the shard the router assigns."""

        return format_url(self.shard_of(path), path)

    def put_file(self, session, path: str, content: bytes) -> str:
        """Create *path* on its responsible shard; returns the DATALINK URL.

        Content is written through the shard's current *serving* node (the
        witness, after a failover -- write availability is the point of
        writable failover) and, under replication, mirrored to every
        witness so a later promotion can serve it.  The returned URL always
        names the logical shard, so it stays valid across failover and
        fail-back.
        """

        shard = self.shard_of(path)
        serving = self.router.route_write(shard)
        self.router.note_write(path)
        session.put_file(serving.name, path, content)
        replica = self.replicas.get(shard)
        if replica is not None:
            replica.mirror_file(path, content, session.cred.uid,
                                session.cred.gid)
        return format_url(shard, path)

    # ------------------------------------------------------------------- reading --
    @property
    def replicated(self) -> bool:
        return bool(self.replicas)

    def read_url(self, session, url: str) -> bytes:
        """Read a (tokenized) DATALINK URL through the routing layer.

        The URL's ``(server, path)`` pair first resolves to the prefix's
        *current owner* (old URLs stay valid across a rebalance), then the
        router load-balances round-robin over that shard's serving node
        and every healthy witness within the follower-read staleness
        bound; the token embedded in the URL stays valid on any of them
        because witnesses share their primary's signing secret (tokens for
        a moved prefix are signed by the destination shard).
        """

        parsed = parse_url(url)
        shard = self.router.owner_shard(parsed.server, parsed.path)
        server = self.router.route_read(shard, path=parsed.path)
        self.router.note_read(parsed.path)
        return session.read_url(url, server=server.name)

    # --------------------------------------------------------- group-commit queue --
    def begin(self) -> HostTransaction:
        return self.engine.begin()

    def commit(self, host_txn: HostTransaction) -> LSN | None:
        """Commit through the group-commit queue.

        With a window of 1 this is a plain per-transaction two-phase commit.
        Otherwise the transaction enqueues; once the window fills the whole
        batch is resolved with one prepare and one commit message per
        enlisted shard and a single host log force.  Returns the commit LSN
        when a batch was driven to disk, ``None`` while enqueued.
        """

        if self.group_commit_window <= 1:
            return self.engine.commit(host_txn)
        self._pending.append(host_txn)
        if len(self._pending) >= self.group_commit_window:
            return self.drain()
        return None

    def abort(self, host_txn: HostTransaction) -> None:
        if host_txn in self._pending:
            self._pending.remove(host_txn)
        self.engine.abort(host_txn)

    def drain(self) -> LSN | None:
        """Force the pending commit group.

        If a shard fails before the host commit is durable, every
        transaction of the batch is aborted (group commit is
        all-or-nothing at the batch level) and the failure re-raised.  If
        the failure strikes *after* the host commit -- mid participant
        commits -- the batch's transactions are already durably committed
        and must not be rolled back: their participant commits are
        re-driven on the surviving shards, and a crashed shard resolves its
        in-doubt branches from the host outcome when it recovers.
        """

        batch, self._pending = self._pending, []
        if not batch:
            return None
        try:
            return self.engine.commit_group(batch)
        except ReproError:
            for host_txn in batch:
                if self.host_db.txn_outcome(host_txn.txn_id) == "committed":
                    self.engine.redrive_commit(host_txn)
                    continue
                try:
                    self.engine.abort(host_txn)
                except ReproError:
                    pass
            raise

    @property
    def pending_commits(self) -> int:
        return len(self._pending)

    # -------------------------------------------------------------- fault injection --
    def crash_shard(self, name: str) -> None:
        self.system.crash_file_server(name)

    def recover_shard(self, name: str) -> dict:
        """Restart a crashed primary.

        The recovered node resolves its own in-doubt branches but, on a
        replicated shard that failed over, stays *fenced* until
        :meth:`fail_back`.  Any post-move source sweep deferred by a crash
        is redriven now that the node is back.
        """

        summary = self.system.recover_file_server(name)
        if self.pending_sweeps:
            summary["redriven_sweeps"] = {
                prefix: sweep["swept_files"]
                for prefix, sweep in self.redrive_sweeps().items()
                if not sweep["deferred"]}
        return summary

    # ------------------------------------------------------------------- failover --
    def _replica(self, name: str) -> ReplicatedShard:
        try:
            return self.replicas[name]
        except KeyError:
            if name not in self.shard_names:
                raise ReplicationError(
                    f"cannot fail over/back shard {name!r}: no such shard "
                    f"(known shards: {self.shard_names})") from None
            raise ReplicationError(
                f"cannot fail over/back shard {name!r}: it has no witness "
                f"replica because the deployment was built with "
                f"replication=False") from None

    def fail_over(self, name: str) -> dict:
        """Promote *name*'s best witness to a **full primary**.

        Reads, token validation *and* the write path (link/unlink branches,
        2PC enlistment) move to the promoted node: the engine's DLFM
        connections resolve through the router, so traffic addressed to the
        logical shard reaches the new serving node transparently.
        """

        return self._replica(name).promote()

    def fail_back(self, name: str) -> dict:
        """Return *name* to its primary (recovering it first if needed).

        The recovered ex-primary rejoins as a witness fed by the new
        primary's reversed WAL stream and catches up from its last-applied
        LSN (no full resync unless its durable state diverged); then the
        serving lease rotates back under a fence.
        """

        replica = self._replica(name)
        if not replica.primary.running:
            self.recover_shard(name)
        return replica.fail_back()

    # ---------------------------------------------------------------- rebalancing --
    def rebalance_prefix(self, prefix: str, dest_shard: str) -> dict:
        """Move a URL prefix to *dest_shard* online, under a 2PC hand-off.

        Relinks the prefix's files and re-attaches its archived version
        chain on the destination DLFM, copies the content to the
        destination's serving node *and its witnesses* (so a promotion
        after the move serves from the destination's witness set), fences
        the source under the old placement epoch and bumps the placement
        map atomically at the durable commit.  Foreground traffic for
        every other prefix keeps flowing throughout; link/unlink of the
        moving prefix is refused with a retryable
        :class:`~repro.errors.PlacementError` until the hand-off resolves.
        See :func:`repro.datalinks.placement.rebalance_prefix` for the
        protocol and its failure handling.
        """

        return rebalance_prefix(self, prefix, dest_shard,
                                self.rebalance_failpoints)

    def redrive_sweeps(self) -> dict:
        """Retry every deferred post-move source sweep.

        Returns ``{prefix: sweep summary}``; entries that still cannot be
        verified (destination down or incomplete, a source node down)
        stay pending for the next redrive.
        """

        return {prefix: sweep_moved_prefix(self, prefix)
                for prefix in list(self.pending_sweeps)}

    def split_prefix(self, prefix: str, depth: int | None = None) -> dict:
        """Split *prefix* one level deeper (or to *depth*) in the map.

        Every sub-prefix that already holds linked files is pinned to the
        subtree's current owner, so the split itself moves no data -- it
        only makes the sub-prefixes independently rebalance-able (how a
        single hot prefix spreads across shards).  Bumps the placement
        epoch.
        """

        pmap = self.router.placement
        owner = pmap.owner_of(prefix)
        own_depth = len([part for part in prefix.split("/") if part])
        depth = own_depth + 1 if depth is None else int(depth)
        server = self.router.serving_server(owner)
        pins: dict[str, str] = {}
        for row in server.dlfm.repository.linked_files():
            path = row["path"]
            if not path_under(prefix, path):
                continue
            components = [part for part in path.split("/") if part]
            sub = "/" + "/".join(components[:min(depth, len(components))])
            pins[sub] = owner
        epoch = pmap.split_prefix(prefix, depth, pins)
        return {"prefix": prefix, "depth": depth, "pins": pins,
                "epoch": epoch}

    def merge_prefix(self, prefix: str) -> dict:
        """Merge a split *prefix* back to shallow routing.

        Refuses unless every file under the subtree lives on one shard --
        co-locate the sub-prefixes with :meth:`rebalance_prefix` first.
        Bumps the placement epoch.
        """

        pmap = self.router.placement
        if prefix not in pmap.split_depths:
            raise PlacementError(f"prefix {prefix!r} is not split")
        holders = {name for name in self.shard_names
                   if any(path_under(prefix, path)
                          for path in self.linked_paths(name))}
        if len(holders) > 1:
            raise PlacementError(
                f"cannot merge {prefix!r}: its files are spread over "
                f"{sorted(holders)}; co-locate the sub-prefixes with "
                f"rebalance_prefix first")
        shard = holders.pop() if holders else pmap.owner_of(prefix)
        epoch = pmap.merge_prefix(prefix, shard)
        return {"prefix": prefix, "shard": shard, "epoch": epoch}

    def enable_balancer(self,
                        config: BalancerConfig | None = None) -> PlacementBalancer:
        """Attach the autonomous placement balancer (its own clock domain).

        The balancer is caller-ticked like the archiver: each
        :meth:`~repro.datalinks.balancer.PlacementBalancer.tick` diffs the
        router's per-prefix traffic counters and issues budgeted
        ``rebalance_prefix`` moves (and splits/merges) on its own
        timeline.
        """

        self.balancer = PlacementBalancer(self, config or BalancerConfig())
        return self.balancer

    def crash_witness(self, name: str, witness_name: str | None = None) -> None:
        self._replica(name).crash_witness(witness_name)

    def recover_witness(self, name: str, witness_name: str | None = None) -> dict:
        return self._replica(name).recover_witness(witness_name)

    # ------------------------------------------------------------------- statistics --
    def linked_paths(self, shard: str) -> set:
        """Linked files of *shard*, read from its current serving node."""

        replica = self.replicas.get(shard)
        server = replica.serving if replica is not None else self.shard(shard)
        return {row["path"] for row in server.dlfm.repository.linked_files()}

    def _linked_count(self, name: str) -> int | None:
        """Linked files on shard *name*, or ``None`` while the node is down."""

        try:
            return len(self.linked_paths(name))
        except ReproError:
            return None

    def stats(self) -> dict:
        """Per-shard link counts, WAL flush and clock-domain statistics."""

        clocks = self.system.clocks
        stats = {
            "shards": len(self.shard_names),
            "flush_policy": self.system.flush_policy,
            "pending_commits": self.pending_commits,
            "host_log_flushes": self.system.host_db.wal.flush_count,
            "linked_files_per_shard": {
                name: self._linked_count(name) for name in self.shard_names},
            "clock_domains": {
                "serial": clocks.serial,
                "global_now_ms": clocks.global_now() * 1000.0,
                "now_ms_per_domain": clocks.times_by_domain(),
                "charged_ms_per_domain": {
                    name: domain.stats.grand_total() * 1000.0
                    for name, domain in sorted(clocks.domains.items())},
            },
        }
        token_cache = self.engine.token_cache_stats()
        if token_cache.get("enabled"):
            stats["token_cache"] = token_cache
        stats["routing"] = self.router.stats()
        stats["pending_sweeps"] = sorted(self.pending_sweeps)
        if self.balancer is not None:
            stats["balancer"] = self.balancer.stats()
        if self.replicated:
            stats["replication"] = {
                name: self.replicas[name].status() for name in self.shard_names}
        return stats
