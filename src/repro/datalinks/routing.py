"""Replication-aware routing: per-node roles and read/write routes.

:class:`ReplicationRouter` answers every routing question of a sharded
deployment on top of its placement:

* **placement** -- which shard owns a path.  The router holds the
  deployment's versioned :class:`~repro.datalinks.placement.PlacementMap`
  and stamps every placement answer with the map's current **placement
  epoch**.  Placement consumers validate an epoch rather than read a
  dict: the engine stamps its DLFM messages with the epoch it routed by,
  every DLFM checks arriving envelopes and refuses link/unlink work for
  prefixes it no longer owns with a
  :class:`~repro.errors.PlacementEpochError` naming the current owner, and
  the engine redirects and retries (:meth:`ReplicationRouter.owner_shard`
  is the resolution every consumer goes through);
* **roles** -- every node of a shard has a dynamic role:
  :data:`NodeRole.SERVING` (holds the epoch lease; the only node that may
  take link/unlink branches and vote in two-phase commit),
  :data:`NodeRole.WITNESS` (healthy subscriber of the serving node's WAL
  stream; may serve bounded-staleness follower reads),
  :data:`NodeRole.FENCED` (deposed ex-serving node that has not rejoined
  the stream; refuses everything) and :data:`NodeRole.DOWN` (crashed).
  Every shard is a :class:`~repro.datalinks.replication.ReplicatedShard`;
  an unreplicated one is a shard with no witness, whose one node serves
  or is down;
* **routes** --

  - :meth:`ReplicationRouter.writable_node` -- which physical node takes
    *write* traffic addressed to a logical shard.  The DataLinks engine
    resolves every DLFM connection lookup through this, which is what makes
    failover **writable**: after promotion, link/unlink branches and 2PC
    prepare/commit for ``shard0`` transparently reach ``shard0-r``;
  - :meth:`ReplicationRouter.route_read` -- which node serves the next read.
    Reads are load-balanced round-robin over the serving node plus every
    *eligible* witness: a witness is eligible only while the serving node is
    up (the staleness bound is derived from the shipper's lag against the
    live stream) and its lag is within ``max_follower_lag`` records;
  - :meth:`ReplicationRouter.route_write` -- the serving node, or a
    :class:`~repro.errors.DaemonUnavailableError` naming the cure.

  Per-role routing counters (reads served by the serving node vs witnesses,
  writes, follower rejections) are surfaced through :meth:`ReplicationRouter.stats`
  and land in ``ShardedDataLinksDeployment.stats()["routing"]``.

The router holds no replication state of its own: roles are derived on
demand from the :class:`~repro.datalinks.replication.EpochRegistry` (who
holds the lease) and each :class:`~repro.datalinks.replication.ReplicatedShard`
(who subscribes to whose stream, and how far behind), so routing decisions
can never disagree with the fencing checks the DLFMs enforce themselves.
The same principle holds for placement: the per-node
:class:`~repro.datalinks.placement.PlacementGuard` derives ownership from
the *same* :class:`~repro.datalinks.placement.PlacementMap` the router
reads, so a moved prefix is fenced on its old owner the instant the map's
epoch bumps -- there is no propagation step a crash could lose.

Two epoch spaces coexist deliberately: the per-shard **lease epoch**
(who serves a shard; bumped by failover) and the cluster-wide
**placement epoch** (which shard owns a prefix; bumped by rebalancing).
"""

from __future__ import annotations

from repro.datalinks.placement import PlacementMap
from repro.errors import DaemonUnavailableError, DataLinksError


class NodeRole:
    """Dynamic role of one node within a replicated shard."""

    SERVING = "serving"    # holds the epoch lease; takes writes and 2PC
    WITNESS = "witness"    # healthy stream subscriber; may serve follower reads
    FENCED = "fenced"      # deposed ex-serving node, not rejoined; serves nothing
    DOWN = "down"          # crashed


class _Shards(dict):
    """``shard -> ReplicatedShard``; indexing an unknown shard raises."""

    def __missing__(self, shard: str):
        raise DataLinksError(f"unknown shard {shard!r}")


class ReplicationRouter:
    """Roles and routes for every shard of a deployment.

    ``follower_reads`` switches witness read service on or off deployment-wide;
    ``max_follower_lag`` is the staleness bound, in WAL records the witness
    has not applied -- **durable or still buffered** (under group commit a
    transaction can be committed and visible on the serving node before its
    records are forced; a witness missing them has neither the rows nor the
    link-time access constraints on its mirrored files, so it must not
    count as caught up).  Because every log force ships, pipelined, and a
    tokenized read writes nothing to the log, a quiesced witness sits at
    lag 0; a paused stream, an undrained group-commit window or in-flight
    transactions push it over the bound and the router quietly falls back
    to the serving node (counted in ``follower_rejects``).
    """

    def __init__(self, placement: PlacementMap, *,
                 follower_reads: bool = True, max_follower_lag: int = 0):
        #: The versioned placement map every consumer reads.
        self.placement = placement
        self.follower_reads = follower_reads
        self.max_follower_lag = max(0, int(max_follower_lag))
        self._replicas = _Shards()
        self._round_robin: dict[str, int] = {}
        #: Candidate membership (node names) the round-robin position was
        #: advanced against, per shard; a membership change resets the
        #: position so fairness restarts cleanly instead of inheriting an
        #: arbitrary phase from the old candidate count.
        self._round_robin_members: dict[str, tuple] = {}
        self.reads_by_role = {NodeRole.SERVING: 0, NodeRole.WITNESS: 0}
        self.writes_routed = 0
        self.follower_rejects = 0
        self.failover_rewrites = 0   # writes that reached a non-home serving node
        self.stale_epoch_redirects = 0   # writes re-routed after a PlacementEpochError
        self.stale_content_skips = 0     # witnesses skipped for a stale file copy
        #: Per-prefix routed traffic, keyed by the *effective* routing
        #: prefix at the time of the operation.  They are counters, not
        #: a log, so a prefix split simply starts new (deeper) keys.
        self.prefix_reads: dict[str, int] = {}
        self.prefix_writes: dict[str, int] = {}
        #: Per-*window* deltas of the same traffic, accumulated as each
        #: operation is noted and drained by
        #: :meth:`take_traffic_window`.  The balancer control plane used
        #: to re-copy the full cumulative dicts every tick to diff them;
        #: keeping the delta incrementally makes a tick cost
        #: O(prefixes touched since the last tick) instead of
        #: O(prefixes ever touched).
        self.window_reads: dict[str, int] = {}
        self.window_writes: dict[str, int] = {}

    # -------------------------------------------------------------- registration --
    def register_replicated(self, shard: str, replica) -> None:
        """Register a shard; roles are derived from *replica*."""

        self._replicas[shard] = replica
        replica.router = self

    @property
    def shards(self) -> list[str]:
        return sorted(self._replicas)

    # ----------------------------------------------------------------- placement --
    def shard_of(self, path: str) -> str:
        """The shard currently owning *path* (override-aware, epoch-stamped)."""

        return self.placement.shard_of(path)

    def prefix_of(self, path: str) -> str:
        return self.placement.prefix_of(path)

    # ------------------------------------------------------------ traffic notes --
    def note_read(self, path: str) -> None:
        """Count one routed read against *path*'s effective prefix."""

        self._note(path, self.prefix_reads, self.window_reads)

    def note_write(self, path: str) -> None:
        """Count one routed write (link/unlink/ingest) against *path*'s prefix."""

        self._note(path, self.prefix_writes, self.window_writes)

    def _note(self, path: str, cumulative: dict, window: dict) -> None:
        prefix = self.placement.prefix_of(path)
        cumulative[prefix] = cumulative.get(prefix, 0) + 1
        window[prefix] = window.get(prefix, 0) + 1

    def take_traffic_window(self) -> dict[str, int]:
        """Drain and return the per-prefix deltas since the last drain.

        Reads and writes are summed into one ``{prefix: operations}``
        dict -- the traffic *window* the balancer's decisions are based
        on.  Draining resets the accumulators, so consecutive windows
        partition the noted traffic exactly; the first drain covers
        everything noted since the router was built.
        """

        window = self.window_reads
        self.window_reads = {}
        writes = self.window_writes
        self.window_writes = {}
        if writes:
            if not window:
                return writes
            get = window.get
            for prefix, count in writes.items():
                window[prefix] = get(prefix, 0) + count
        return window

    def owner_shard(self, server: str, path: str) -> str:
        """Resolve a URL's ``(server, path)`` pair to the current owner shard.

        A DATALINK URL names the shard that owned the path's prefix when
        the link was made; after a rebalance the current owner differs.
        The URL's server stays authoritative unless a move overrode it
        (so manually placed files on plain file servers are untouched),
        and non-shard servers resolve to themselves.
        """

        if server not in self._replicas:
            return server
        placement = self.placement
        return placement.owner_of(placement.prefix_of(path), default=server)

    # --------------------------------------------------------------------- roles --
    def roles(self, shard: str) -> dict[str, str]:
        """``{node_name: role}`` for every node of *shard*.

        Role derivation lives on the :class:`ReplicatedShard` (it owns the
        stream state the roles depend on); the router only reads it, so
        routing decisions can never disagree with the shard's own
        accounting.
        """

        return self._replicas[shard].roles()

    def serving_node(self, shard: str) -> str:
        """Name of the node currently holding *shard*'s serving lease."""

        return self._replicas[shard].serving_name

    def writable_node(self, name: str) -> str:
        """Resolve a logical server name to the physical node taking writes.

        Identity for anything that is not a registered shard (plain file
        servers, or a witness addressed directly), so the DataLinks engine
        can resolve every connection lookup through this unconditionally.
        """

        replica = self._replicas.get(name)
        if replica is None:
            return name
        serving = replica.serving_name
        if serving != name:
            self.failover_rewrites += 1
        return serving

    # -------------------------------------------------------------------- routes --
    def serving_server(self, shard: str):
        """The serving node of *shard*; raises when it is down."""

        replica = self._replicas[shard]
        server = replica.nodes[replica.serving_name]
        if not server.running:
            hint = "; fail_over() promotes a witness" if replica.witnesses \
                else ""
            raise DaemonUnavailableError(
                f"file server {server.name!r} is down{hint}")
        return server

    def route_write(self, shard: str):
        """The node that takes link/unlink traffic for *shard* right now."""

        server = self.serving_server(shard)
        self.writes_routed += 1
        return server

    def follower_ok(self, shard: str, node_name: str,
                    path: str | None = None) -> bool:
        """May *node_name* serve a follower read of *shard* right now?

        This is also the DLFM-side read gate: a witness only accepts
        read-path upcalls while the router would have routed a read to it,
        so routing policy and fencing enforcement cannot drift apart.

        With *path*, the witness is additionally disqualified when its
        physical copy of that file is stale: an update-in-place rewrites
        bytes on the serving node, but the WAL stream carries only the
        metadata row, so until the witness re-mirrors (rejoin, resync or
        promotion) its copy is the pre-update content.  Such reads fall
        back to the serving node and are counted in
        ``stale_content_skips``.
        """

        if not self.follower_reads:
            return False
        replica = self._replicas[shard]
        if not replica.follower_eligible(node_name,
                                         max_lag=self.max_follower_lag):
            return False
        if path is not None and replica.content_stale(node_name, path):
            self.stale_content_skips += 1
            return False
        return True

    def read_candidates(self, shard: str, path: str | None = None) -> list:
        """Read-eligible nodes, serving node first (may be empty)."""

        replica = self._replicas[shard]
        serving_name = replica.serving_name
        serving = replica.nodes[serving_name]
        candidates = []
        if serving.running:
            candidates.append(serving)
        for name, node in replica.nodes.items():
            if name == serving_name:
                continue
            if self.follower_ok(shard, name, path=path):
                candidates.append(node)
            elif node.running and replica.is_subscribed(name):
                # A healthy subscriber skipped only by the staleness bound
                # (stream lag or a stale physical copy, or the policy
                # switch) is a rejected follower read.
                self.follower_rejects += 1
        return candidates

    def route_read(self, shard: str, path: str | None = None):
        """Pick the node for the next read: round-robin over the candidates."""

        candidates = self.read_candidates(shard, path=path)
        if not candidates:
            # Same failure surface as the write path: name the cure.
            self.serving_server(shard)          # raises with the right hint
            raise DaemonUnavailableError(       # pragma: no cover - defensive
                f"no read-eligible node for shard {shard!r}")
        # The position is kept wrapped at the candidate count (it used to
        # grow without bound) and resets when the candidate set changes:
        # carrying an old position across a membership change (say a witness
        # crash shrinking 3 candidates to 2) lands on an arbitrary phase and
        # skews which nodes absorb the next reads.
        members = tuple([node.name for node in candidates])
        try:
            same = self._round_robin_members[shard] == members
        except KeyError:
            same = False
        if not same:
            self._round_robin_members[shard] = members
            index = 0
        else:
            try:
                index = self._round_robin[shard]
            except KeyError:
                index = 0
        self._round_robin[shard] = (index + 1) % len(candidates)
        chosen = candidates[index]
        role = NodeRole.SERVING if chosen.name == self.serving_node(shard) \
            else NodeRole.WITNESS
        self.reads_by_role[role] += 1
        return chosen

    def follower_lag(self, shard: str, node_name: str) -> int | None:
        """Stream lag (records) of one subscriber, or ``None`` off-stream."""

        return self._replicas[shard].subscriber_lag(node_name)

    # --------------------------------------------------------------------- stats --
    def stats(self) -> dict:
        """Per-role routing counters plus the current role map."""

        return {
            "follower_reads": self.follower_reads,
            "max_follower_lag": self.max_follower_lag,
            "reads_by_role": dict(self.reads_by_role),
            "writes_routed": self.writes_routed,
            "follower_rejects": self.follower_rejects,
            "failover_rewrites": self.failover_rewrites,
            "stale_epoch_redirects": self.stale_epoch_redirects,
            "stale_content_skips": self.stale_content_skips,
            "prefix_traffic": {"reads": dict(self.prefix_reads),
                               "writes": dict(self.prefix_writes)},
            "placement": self.placement.stats(),
            "roles": {shard: self.roles(shard) for shard in self.shards},
        }
