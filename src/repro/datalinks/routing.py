"""Replication-aware routing: epoched placement, per-node roles, read/write routes.

Before this layer existed, read/write routing logic was smeared across
:class:`~repro.datalinks.sharding.ShardedDataLinksDeployment` (hard-wired
``replica.serving`` pointers), :class:`~repro.datalinks.replication.ReplicatedShard`
(role bookkeeping) and the engine's connection plumbing (URLs name the
*logical* shard, but a failed-over shard's traffic must reach the serving
node).  This module centralizes all of it:

* :class:`ShardRouter` owns the **base placement**: stable hash
  partitioning of URL path prefixes onto logical shard names (moved here
  from ``sharding.py``; re-exported there for compatibility).  Since the
  epoched-placement refactor it is only the *first layer* of placement:
  the router wraps it in a versioned
  :class:`~repro.datalinks.placement.PlacementMap`, which overlays the
  prefixes that ``rebalance_prefix`` has moved and stamps every placement
  answer with the current **placement epoch**.  Placement consumers no
  longer "read a dict" -- they validate an epoch: the engine stamps its
  DLFM messages with the epoch it routed by, every DLFM checks arriving
  envelopes and refuses link/unlink work for prefixes it no longer owns
  with a :class:`~repro.errors.PlacementEpochError` naming the current
  owner, and the engine redirects and retries
  (:meth:`ReplicationRouter.owner_shard` is the resolution every consumer
  goes through);
* :class:`ReplicationRouter` owns **roles and routes** on top of placement.
  Every node of a shard has a dynamic role -- :data:`NodeRole.SERVING` (holds
  the epoch lease; the only node that may take link/unlink branches and vote
  in two-phase commit), :data:`NodeRole.WITNESS` (healthy subscriber of the
  serving node's WAL stream; may serve bounded-staleness follower reads),
  :data:`NodeRole.FENCED` (deposed ex-serving node that has not rejoined the
  stream; refuses everything) and :data:`NodeRole.DOWN` (crashed) -- and the
  router answers three questions:

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

import hashlib

from repro.datalinks.placement import PlacementMap
from repro.errors import DaemonUnavailableError, DataLinksError


class NodeRole:
    """Dynamic role of one node within a replicated shard."""

    SERVING = "serving"    # holds the epoch lease; takes writes and 2PC
    WITNESS = "witness"    # healthy stream subscriber; may serve follower reads
    FENCED = "fenced"      # deposed ex-serving node, not rejoined; serves nothing
    DOWN = "down"          # crashed


class ShardRouter:
    """Stable hash placement of file paths onto named shards.

    Paths are keyed by their first ``prefix_depth`` components, so files in
    the same directory subtree land on the same shard (cheap directory
    listings, one enlisted shard for subtree-local transactions).
    """

    def __init__(self, shard_names: list[str], prefix_depth: int = 1):
        if not shard_names:
            raise DataLinksError("a shard router needs at least one shard")
        self.shard_names = list(shard_names)
        self.prefix_depth = max(1, int(prefix_depth))
        # Both maps memoize pure functions of the (fixed) shard list and
        # depth; workloads hammer a small set of paths, so hit rates are
        # high.  Cleared when full rather than evicted -- cheap and bounded.
        self._prefix_cache: dict[str, str] = {}
        self._key_cache: dict[str, str] = {}

    def prefix_of(self, path: str) -> str:
        try:
            return self._prefix_cache[path]
        except KeyError:
            pass
        components = [part for part in path.split("/") if part]
        prefix = "/" + "/".join(components[: self.prefix_depth])
        if len(self._prefix_cache) > 8192:
            self._prefix_cache.clear()
        self._prefix_cache[path] = prefix
        return prefix

    def shard_of_key(self, key: str) -> str:
        """Hash an already-derived routing key (a prefix) onto a shard.

        Exposed separately from :meth:`shard_of` so an overlay that deepens
        the effective prefix of one subtree (a *split* in the
        :class:`~repro.datalinks.placement.PlacementMap`) can hash the
        deeper prefix directly -- running it back through
        :meth:`prefix_of` would re-shallow it.
        """

        try:
            return self._key_cache[key]
        except KeyError:
            pass
        digest = hashlib.sha1(key.encode("utf-8")).digest()
        index = int.from_bytes(digest[:8], "big") % len(self.shard_names)
        shard = self.shard_names[index]
        if len(self._key_cache) > 8192:
            self._key_cache.clear()
        self._key_cache[key] = shard
        return shard

    def shard_of(self, path: str) -> str:
        """The shard responsible for *path* (stable across runs/processes)."""

        return self.shard_of_key(self.prefix_of(path))


class ReplicationRouter:
    """Roles and routes for every shard of a deployment.

    ``follower_reads`` switches witness read service on or off deployment-wide;
    ``max_follower_lag`` is the staleness bound, in hard-state WAL records
    the witness has not applied -- **durable or still buffered** (under
    group commit a transaction can be committed and visible on the serving
    node before its records are forced; a witness missing them has neither
    the rows nor the link-time access constraints on its mirrored files, so
    it must not count as caught up).  Because every log force that carries
    hard state ships, pipelined, a quiesced witness sits at lag 0 (the
    node-local soft state a shipper holds back does not count); a paused
    stream, an undrained group-commit window or in-flight transactions push
    it over the bound and the router quietly falls back to the serving node
    (counted in ``follower_rejects``).
    """

    def __init__(self, placement, *, follower_reads: bool = True,
                 max_follower_lag: int = 0):
        #: The versioned placement map.  A bare :class:`ShardRouter` is
        #: wrapped, so every consumer sees the epoch-stamped overlay.
        self.placement = placement if isinstance(placement, PlacementMap) \
            else PlacementMap(placement)
        self.follower_reads = follower_reads
        self.max_follower_lag = max(0, int(max_follower_lag))
        self._singles: dict[str, object] = {}     # shard -> FileServer
        self._replicas: dict[str, object] = {}    # shard -> ReplicatedShard
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
    def register_shard(self, shard: str, server) -> None:
        """Register an unreplicated shard: one node, always serving."""

        self._singles[shard] = server

    def register_replicated(self, shard: str, replica) -> None:
        """Register a replicated shard; roles are derived from *replica*."""

        self._replicas[shard] = replica
        replica.router = self
        self._singles.pop(shard, None)

    @property
    def shards(self) -> list[str]:
        return sorted(set(self._singles) | set(self._replicas))

    # ----------------------------------------------------------------- placement --
    def shard_of(self, path: str) -> str:
        """The shard currently owning *path* (override-aware, epoch-stamped)."""

        return self.placement.shard_of(path)

    def prefix_of(self, path: str) -> str:
        return self.placement.prefix_of(path)

    # ------------------------------------------------------------ traffic notes --
    def note_read(self, path: str) -> None:
        """Count one routed read against *path*'s effective prefix."""

        placement = self.placement
        try:
            prefix = placement._prefix_cache[path]
        except KeyError:
            prefix = placement.prefix_of(path)
        reads = self.prefix_reads
        try:
            reads[prefix] += 1
        except KeyError:
            reads[prefix] = 1
        window = self.window_reads
        try:
            window[prefix] += 1
        except KeyError:
            window[prefix] = 1

    def note_write(self, path: str) -> None:
        """Count one routed write (link/unlink/ingest) against *path*'s prefix."""

        placement = self.placement
        try:
            prefix = placement._prefix_cache[path]
        except KeyError:
            prefix = placement.prefix_of(path)
        writes = self.prefix_writes
        try:
            writes[prefix] += 1
        except KeyError:
            writes[prefix] = 1
        window = self.window_writes
        try:
            window[prefix] += 1
        except KeyError:
            window[prefix] = 1

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

        if server not in self._singles and server not in self._replicas:
            return server
        placement = self.placement
        try:
            prefix = placement._prefix_cache[path]
        except KeyError:
            prefix = placement.prefix_of(path)
        return placement.owner_of(prefix, default=server)

    # --------------------------------------------------------------------- roles --
    def roles(self, shard: str) -> dict[str, str]:
        """``{node_name: role}`` for every node of *shard*.

        Role derivation lives on the :class:`ReplicatedShard` (it owns the
        stream state the roles depend on); the router only reads it, so
        routing decisions can never disagree with the shard's own
        accounting.
        """

        replica = self._replicas.get(shard)
        if replica is not None:
            return replica.roles()
        server = self._singles.get(shard)
        if server is None:
            raise DataLinksError(f"unknown shard {shard!r}")
        return {server.name: NodeRole.SERVING if server.running
                else NodeRole.DOWN}

    def serving_node(self, shard: str) -> str:
        """Name of the node currently holding *shard*'s serving lease."""

        try:
            return self._replicas[shard].serving_name
        except KeyError:
            pass
        server = self._singles.get(shard)
        if server is None:
            raise DataLinksError(f"unknown shard {shard!r}")
        return server.name

    def writable_node(self, name: str) -> str:
        """Resolve a logical server name to the physical node taking writes.

        Identity for anything that is not a registered shard (plain file
        servers, or a witness addressed directly), so the DataLinks engine
        can resolve every connection lookup through this unconditionally.
        """

        try:
            replica = self._replicas[name]
        except KeyError:
            return name
        serving = replica.serving_name
        if serving != name:
            self.failover_rewrites += 1
        return serving

    # -------------------------------------------------------------------- routes --
    def serving_server(self, shard: str):
        """The serving node of *shard*; raises when it is down."""

        try:
            replica = self._replicas[shard]
        except KeyError:
            replica = None
        if replica is not None:
            server = replica.nodes[replica.serving_name]
        else:
            server = self._singles.get(shard)
            if server is None:
                raise DataLinksError(f"unknown shard {shard!r}")
        if not server.running:
            hint = "; fail_over() promotes a witness" if replica is not None \
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
        try:
            replica = self._replicas[shard]
        except KeyError:
            return False
        if not replica.follower_eligible(node_name,
                                         max_lag=self.max_follower_lag):
            return False
        if path is not None and replica.content_stale(node_name, path):
            self.stale_content_skips += 1
            return False
        return True

    def read_candidates(self, shard: str, path: str | None = None) -> list:
        """Read-eligible nodes, serving node first (may be empty)."""

        try:
            replica = self._replicas[shard]
        except KeyError:
            server = self._singles.get(shard)
            if server is None:
                raise DataLinksError(f"unknown shard {shard!r}") from None
            return [server] if server.running else []
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

        replica = self._replicas.get(shard)
        if replica is None:
            return None
        return replica.subscriber_lag(node_name)

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
