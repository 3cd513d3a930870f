"""Sharded multi-DLFM scale-out deployment.

The paper's architecture already allows "files [to] be spread over multiple
file servers"; this module turns that into an operational scale-out layer:

* a versioned :class:`~repro.datalinks.placement.PlacementMap`
  hash-partitions linked files across N file servers by **URL path
  prefix** (the first path component), so whole directories co-locate on
  one shard.  The hash is only the *initial* placement: the map's
  **placement epoch** stamps every routing decision, and
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
  with one ``prepare`` and one ``commit`` message per enlisted shard plus a
  single host log force (:meth:`~repro.datalinks.engine.DataLinksEngine.commit`);
* the host **token cache** is always on: a repeated handout of the same
  (path, access, TTL) gets the still-live token back instead of a freshly
  minted one.  The cache key carries the prefix's owner shard, so a
  rebalanced prefix gets a token signed for its destination, and a
  promoted witness validates cached tokens with the secret it shares with
  its primary.  A plain :class:`~repro.api.system.DataLinksSystem` keeps
  the cache off, so E1--E10 measure per-SELECT minting, as the paper does
  (only E1's cache row and E9's web site turn it on).

Every shard is a :class:`~repro.datalinks.replication.ReplicatedShard`.
Without replication it has no witness: its one node serves, holds the
shard's epoch lease for ever and is simply down while it is crashed.
With ``replication=True`` every shard also gets one or more **witness
replicas** (``shard0-r``, ``shard0-r2``, ... for ``shard0``): linked-file
content is mirrored at ingest and the serving node's repository WAL
stream ships to every witness on every log force; the token registry and
the Sync table are node-local soft state, kept by every node for itself
and never logged or shipped.  Routing is owned by a
:class:`~repro.datalinks.routing.ReplicationRouter`:

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
``cost_model``            calibration of every clock domain
``flush_policy``          WAL commit flush policy for host + shard
                          repositories (``"group"`` by default here)
``group_commit_window``   commits buffered before the queue auto-drains;
                          ``1`` drains every commit at once (a group of one)
``replication``           add witness replicas per shard, fed by the
                          serving node's repository WAL stream; without
                          it every shard is a shard with no witness
``witnesses``             witness replicas per shard under
                          ``replication=True`` (default 1, at least 1),
                          named ``-r``, ``-r2``, ...; ignored without it
``follower_reads``        let healthy witnesses serve reads (default on)
``max_follower_lag``      staleness bound for follower reads, in shipped
                          WAL records (default 0: fully caught up)

Every shard, witness and the archive run on their own clock domain and
genuinely overlap (see :mod:`repro.simclock`).

Because enqueued transactions stay ACTIVE (locks held) until the batch
drains, callers that need a transaction's effects visible immediately should
call :meth:`ShardedDataLinksDeployment.drain` (reads of *other* rows are
unaffected).
"""

from __future__ import annotations

from repro.api.system import DataLinksSystem, FileServer
from repro.datalinks.balancer import BalancerConfig, PlacementBalancer
from repro.datalinks.engine import HostTransaction
from repro.datalinks.placement import (PlacementGuard, PlacementMap,
                                       path_under, rebalance_prefix,
                                       sweep_moved_prefix)
from repro.datalinks.replication import EpochRegistry, ReplicatedShard
from repro.datalinks.routing import ReplicationRouter
from repro.errors import DataLinksError, ReplicationError, ReproError
from repro.simclock import TICKS_PER_MS, CostModel, SimClock
from repro.storage.schema import TableSchema
from repro.util.lsn import LSN
from repro.util.urls import format_url, parse_url

__all__ = ["ShardedDataLinksDeployment"]


class ShardedDataLinksDeployment:
    """A DataLinks installation scaled out over N file-server shards."""

    def __init__(self, shards: int = 4, *,
                 cost_model: CostModel | None = None,
                 flush_policy: str = "group",
                 group_commit_window: int = 8,
                 replication: bool = False,
                 witnesses: int = 1,
                 follower_reads: bool = True,
                 max_follower_lag: int = 0):
        if shards < 1:
            raise DataLinksError("a sharded deployment needs at least one shard")
        if replication and witnesses < 1:
            raise DataLinksError(
                "a replicated deployment needs at least one witness per shard")
        self.system = DataLinksSystem(cost_model,
                                      flush_policy=flush_policy,
                                      group_commit_window=group_commit_window)
        self.shard_names = [f"shard{index}" for index in range(shards)]
        for name in self.shard_names:
            self.system.add_file_server(name)
        self.router = ReplicationRouter(
            PlacementMap(self.shard_names),
            follower_reads=follower_reads, max_follower_lag=max_follower_lag)
        self.engine.set_router(self.router)
        self.engine.enable_token_cache()
        self.group_commit_window = max(1, int(group_commit_window))
        self._pending: list[HostTransaction] = []
        self.replicas: dict[str, ReplicatedShard] = {}
        self.epochs = EpochRegistry()
        for name in self.shard_names:
            witness_nodes = [
                self.system.add_file_server(
                    name + ("-r" if index == 1 else f"-r{index}"),
                    token_secret=self.shard(name).dlfm.token_secret)
                for index in range(1, (witnesses if replication else 0) + 1)]
            replica = ReplicatedShard(
                name, primary=self.shard(name), witnesses=witness_nodes,
                registry=self.epochs, engine=self.engine, clock=self.clock)
            self.replicas[name] = replica
            self.router.register_replicated(name, replica)
            # Every DLFM of a shard -- serving node and witnesses alike --
            # enforces placement against the *same* epoched map the router
            # reads, so a rebalanced prefix is fenced on its old owner the
            # instant the map commits (no propagation step to lose).
            guard = PlacementGuard(self.router.placement, name)
            for node in replica.nodes.values():
                node.dlfm.set_placement(guard)
        #: Deferred post-move source sweeps: ``prefix -> sweep entry``.
        #: Entries are recorded before a sweep is attempted and removed
        #: only when it succeeds, so a sweep a crash deferred is re-driven
        #: by the next file server :meth:`restart`.
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
        witness so a later promotion can serve it.  The serving write and
        every mirror leave together from the *session's* clock in one
        :meth:`~repro.simclock.SimClock.posted` window: the session pays
        a ``message_send`` per copy and waits for none.  The link is the
        barrier -- a node serves its domain in order, so no row names a
        copy a node does not hold yet.  The returned URL always names the
        logical shard, so it stays valid across failover and fail-back.
        """

        shard = self.shard_of(path)
        serving = self.router.route_write(shard)
        self.router.note_write(path)
        clock = session.clock
        with clock.posted():
            session.put_file(serving.name, path, content)
            clock.charge_run("message_send", self.replicas[shard].mirror_file(
                clock, path, content, session.cred.uid, session.cred.gid))
        return format_url(shard, path)

    # ------------------------------------------------------------------- reading --
    @property
    def replicated(self) -> bool:
        return any(replica.witnesses for replica in self.replicas.values())

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

        The transaction enqueues; once the window fills the whole batch is
        resolved with one prepare and one commit message per enlisted
        shard and a single host log force (a window of 1 drains each
        commit at once).  Returns the commit LSN when a batch was driven
        to disk, ``None`` while enqueued.
        """

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
        re-driven on the surviving shards, one ``commit`` per shard for the
        whole batch, and a crashed shard resolves its in-doubt branches
        from the host outcome when it recovers.
        """

        batch, self._pending = self._pending, []
        if not batch:
            return None
        try:
            return self.engine.commit(*batch)
        except ReproError:
            committed = []
            for host_txn in batch:
                if self.host_db.txn_outcome(host_txn.txn_id) == "committed":
                    committed.append(host_txn)
                    continue
                try:
                    self.engine.abort(host_txn)
                except ReproError:
                    pass
            self.engine.redrive_commit(*committed)
            raise

    @property
    def pending_commits(self) -> int:
        return len(self._pending)

    # --------------------------------------------------------------- crash / restart --
    def _owner(self, node: str):
        """The shard *node* belongs to, else the system."""

        return next((replica for replica in self.replicas.values()
                     if node in replica.nodes), self.system)

    def crash(self, node: str) -> None:
        """Crash *node*: ``"host"`` or any file server -- a shard's primary
        or a witness, whatever role it holds now."""

        self._owner(node).crash(node)

    def restart(self, node: str) -> dict:
        """Restart a crashed *node* and finish its recovery; returns the
        recovery summary.

        The host restarts as in
        :meth:`~repro.api.system.DataLinksSystem.restart`.  A shard's node
        also gets what its current role is owed
        (:meth:`~repro.datalinks.replication.ReplicatedShard.restart`): a
        deposed ex-primary stays fenced until :meth:`fail_back`.  A file
        server's restart then re-drives every post-move source sweep a
        crash deferred.
        """

        summary = self._owner(node).restart(node)
        if node != "host" and self.pending_sweeps:
            sweeps = {prefix: sweep_moved_prefix(self, prefix)
                      for prefix in list(self.pending_sweeps)}
            summary["redriven_sweeps"] = {
                prefix: sweep["swept_files"]
                for prefix, sweep in sweeps.items() if not sweep["deferred"]}
        return summary

    # ------------------------------------------------------------------- failover --
    def _replica(self, name: str) -> ReplicatedShard:
        replica = self.replicas.get(name)
        if replica is None:
            raise ReplicationError(
                f"cannot fail over/back shard {name!r}: no such shard "
                f"(known shards: {self.shard_names})")
        if not replica.witnesses:
            raise ReplicationError(
                f"cannot fail over/back shard {name!r}: it has no witness "
                f"replica because the deployment was built with "
                f"replication=False")
        return replica

    def fail_over(self, name: str) -> dict:
        """Promote *name*'s best witness to a **full primary**.

        Reads, token validation *and* the write path (link/unlink branches,
        2PC enlistment) move to the promoted node: the engine's DLFM
        connections resolve through the router, so traffic addressed to the
        logical shard reaches the new serving node transparently.
        """

        return self._replica(name).promote()

    def fail_back(self, name: str) -> dict:
        """Return *name* to its primary (restarting it first if needed).

        The recovered ex-primary rejoins as a witness fed by the new
        primary's reversed WAL stream and catches up from its last-applied
        LSN (no full resync unless its durable state diverged); then the
        serving lease rotates back under a fence.
        """

        replica = self._replica(name)
        if not replica.primary.running:
            self.restart(name)
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

        return rebalance_prefix(self, prefix, dest_shard)

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

    def enable_balancer(self,
                        config: BalancerConfig | None = None) -> PlacementBalancer:
        """Attach the autonomous placement balancer (its own clock domain).

        The balancer is caller-ticked like the archiver: each
        :meth:`~repro.datalinks.balancer.PlacementBalancer.tick` diffs the
        router's per-prefix traffic counters and issues budgeted
        ``rebalance_prefix`` moves (and splits) on its own timeline.
        """

        self.balancer = PlacementBalancer(self, config or BalancerConfig())
        return self.balancer

    # ------------------------------------------------------------------- statistics --
    def linked_paths(self, shard: str) -> set:
        """Linked files of *shard*, read from its current serving node."""

        server = self.replicas[shard].serving
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
                "global_now_ms": clocks.ticks / TICKS_PER_MS,
                "now_ms_per_domain": clocks.times_by_domain(),
                "charged_ms_per_domain": {
                    name: domain.stats.total_ticks() / TICKS_PER_MS
                    for name, domain in sorted(clocks.domains.items())},
            },
        }
        stats["token_cache"] = self.engine.token_cache_stats()
        stats["routing"] = self.router.stats()
        stats["pending_sweeps"] = sorted(self.pending_sweeps)
        if self.balancer is not None:
            stats["balancer"] = self.balancer.stats()
        if self.replicated:
            stats["replication"] = {
                name: self.replicas[name].status() for name in self.shard_names}
        return stats
