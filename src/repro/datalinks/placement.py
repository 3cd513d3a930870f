"""Epoched placement: the versioned prefix-to-shard map and online rebalancing.

Before this module, placement was a pure function: :class:`ShardRouter`
hashed a URL prefix to a shard once and forever, so the cluster could
neither absorb a skewed prefix nor grow without a rebuild.  This module
makes placement *dynamic* while keeping it a single source of truth:

* :class:`PlacementMap` is the versioned map every placement consumer
  reads.  It layers an override table (prefixes that have been moved) over
  the stable hash and stamps the whole map with a monotonically increasing
  **placement epoch**.  The epoch is threaded through the DataLinks
  engine's DLFM connections, sharded-deployment dispatch and the daemon
  IPC (:meth:`~repro.ipc.daemon.Daemon.dispatch` takes it beside the
  payload), so a consumer acting on a stale map gets a
  :class:`~repro.errors.PlacementEpochError` redirect-and-retry instead of
  silently writing to the wrong owner;
* :class:`PlacementGuard` is the node-side enforcement.  One guard is
  attached to every DLFM of a shard (the serving node *and* its
  witnesses); it derives its answers from the shared map -- exactly like
  the lease-epoch :class:`~repro.datalinks.replication.EpochGuard` -- so
  routing decisions and fencing checks can never disagree, and a crash
  cannot lose the fence (the node re-reads the map, it does not persist a
  copy);
* :func:`rebalance_prefix` is the online hand-off: a two-phase-commit move
  of one URL prefix -- its linked-file rows, its archived version chain
  and its file content -- from the owning shard to a destination shard,
  with the destination's witnesses mirrored in the same step so a
  promotion *after* the move serves from the destination's witness set.

Epoch spaces
------------
There are two, deliberately separate: the per-shard **lease epoch**
(:class:`~repro.datalinks.replication.EpochRegistry`; who serves a shard)
and the cluster-wide **placement epoch** (this module; which shard owns a
prefix).  Failover bumps the former, rebalancing the latter; a node can be
fenced by either.

The hand-off protocol
---------------------
``rebalance_prefix(deployment, prefix, dest)`` runs the move as one host
transaction with the source and destination DLFMs enlisted as ordinary
two-phase-commit participants, which buys crash-safety from machinery that
already exists (durable PREPARE votes, presumed abort, in-doubt
resolution from the coordinator's durable outcome -- across a failover if
need be):

1. **prepare** (``rebalance:prepare``, before the prefix is marked) --
   drain the group-commit queue, flush and ship every WAL so
   the witnesses are caught up, run the source's pending archive jobs for
   the prefix; mark the prefix *moving* in the map (new link/unlink
   traffic for it is refused with a retryable
   :class:`~repro.errors.PlacementError` until the hand-off resolves --
   traffic for every other prefix keeps flowing);
2. **export** (failpoint ``rebalance:export``) -- the source DLFM deletes
   the prefix's ``linked_files`` and ``file_versions`` rows inside its
   branch transaction and returns them.  In-flight opens, updates or
   un-archived jobs under the prefix abort the move with a retryable
   error;
3. **archive/content hand-off** (``rebalance:archive``) -- the prefix's
   file content is copied below DLFS to the destination's serving node
   *and every destination witness* (the archived version chain itself
   lives on the shared archive server; only its metadata rows move);
4. **import** (``rebalance:import``) -- the destination DLFM re-inserts
   the rows (inode numbers rebound to its own file system, link-time
   access constraints re-applied, version chain re-attached) inside its
   branch transaction;
5. **fence + commit** (``rebalance:fence``) -- the host two-phase commit
   resolves both branches; the map's epoch bumps and the override swings
   **atomically at the durable coordinator outcome**: if a participant
   crashes mid-commit the coordinator redrives the survivors and the move
   still completes (the crashed side resolves its in-doubt branch from the
   host outcome during recovery or witness promotion), while any failure
   before the host commit rolls both branches back and leaves the map
   untouched.

After the commit the source is fenced for the prefix *under the old
epoch*: its placement guard now derives a different owner from the map,
so any straggler write addressed to it is refused with a
:class:`~repro.errors.PlacementEpochError` naming the new owner.  The
source's witnesses converge through their normal WAL stream (the export's
deletes ship like any other records) and the destination's witnesses hold
both the mirrored content and -- once the destination's branch records
ship -- the repository rows, which is what makes promotion-after-move
serve from the destination's witness set.

Two windows the protocol closes explicitly:

* **dual-serve** -- between export and commit the source's repository rows
  are deleted inside the open branch, but the source DLFM keeps a
  pre-export snapshot of them (see ``DLFileManager.rebalance_export``) and
  answers read-path upcalls (token validation, open checks) from it, so a
  move is *read-invisible*: hot-prefix reads keep succeeding on the source
  for the whole hand-off.  Only link/unlink writes are back-pressured
  (retryable :class:`~repro.errors.PlacementError`).  The snapshot dies
  with the branch: commit and abort both drop it, and a crash loses it
  along with the branch it shadowed;
* **source GC** -- a committed move leaves the prefix's physical bytes on
  the fenced source (serving node *and* witnesses, whose replicated copies
  were restored owner-writable when the export's DELETEs applied).  The
  hand-off records a pending sweep *before* attempting it, verifies the
  destination holds every moved path (content and repository row) and only
  then unlinks the source copies; any verification failure defers the
  sweep, and a crash between commit and sweep leaves the pending entry for
  the next file server restart to re-drive
  (``ShardedDataLinksDeployment.restart``).

Splits
------
A single hot prefix can outgrow any one shard.  :meth:`PlacementMap.split_prefix`
deepens the *effective* routing depth under one subtree -- ``/hot`` at
depth 1 splits into ``/hot/a``, ``/hot/b``, ... at depth 2 -- so its
sub-prefixes can be rebalanced independently.  Every sub-prefix that
already holds linked files is pinned to the current owner at split time
(no data teleports on the epoch bump); brand-new sub-prefixes hash freely
onto the cluster.  A split is never undone, so the effective depth stays
bounded by the directory depth.  A split bumps the placement epoch, so
stale consumers get the same redirect-and-retry treatment as after a move.
"""

from __future__ import annotations

from repro.util.failpoints import fire
from repro.errors import PlacementEpochError, PlacementError, ReproError
from repro.simclock import synchronized_call


def path_under(prefix: str, path: str) -> bool:
    """Is *path* inside *prefix* (the prefix itself included)?"""

    return path == prefix or path.startswith(prefix.rstrip("/") + "/")


class PlacementMap:
    """The versioned prefix-to-shard map.

    Layers moved-prefix overrides over a stable base hash (any object with
    ``shard_of``/``prefix_of``/``prefix_depth`` --
    normally a :class:`~repro.datalinks.routing.ShardRouter`) and stamps
    the whole map with a monotonically increasing epoch.  Epoch 1 is the
    deployment-time hash placement; every committed move bumps it.
    """

    def __init__(self, base):
        self.base = base
        self.epoch = 1
        #: Moved prefixes: ``prefix -> owning shard``.  Absence means the
        #: base hash still decides.
        self.overrides: dict[str, str] = {}
        #: Prefixes with a hand-off in flight: ``prefix -> destination``.
        self.moving: dict[str, str] = {}
        #: Split subtrees: ``prefix -> deeper effective routing depth``.
        self.split_depths: dict[str, int] = {}
        self.moves = 0
        self.splits = 0
        # Memoized effective prefixes; valid until the split set changes
        # (every router lookup and traffic note funnels through prefix_of).
        self._prefix_cache: dict[str, str] = {}

    # --------------------------------------------------------- base passthrough --
    @property
    def prefix_depth(self) -> int:
        return self.base.prefix_depth

    def prefix_of(self, path: str) -> str:
        """The *effective* routing prefix of *path* (split-aware).

        Starts from the base depth and deepens while the current prefix
        has a split recorded, so nested splits compose.  A path with fewer
        components than a split's depth keeps the shallower prefix.
        """

        # The map's own memo covers the no-split case too, so hot callers
        # (routing's traffic notes, URL owner resolution) can probe
        # ``_prefix_cache`` inline and skip this frame entirely on a warm
        # path; split_prefix clears it.
        try:
            return self._prefix_cache[path]
        except KeyError:
            pass
        # Base-router memo hit probed inline as well (its prefix_of is a
        # pure function of the fixed shard list/depth).
        base = self.base
        try:
            prefix = base._prefix_cache[path]
        except KeyError:
            prefix = base.prefix_of(path)
        if not self.split_depths:
            if len(self._prefix_cache) > 8192:
                self._prefix_cache.clear()
            self._prefix_cache[path] = prefix
            return prefix
        components = [part for part in path.split("/") if part]
        depth = self.base.prefix_depth
        while prefix in self.split_depths:
            deeper = min(self.split_depths[prefix], len(components))
            if deeper <= depth:
                break
            depth = deeper
            prefix = "/" + "/".join(components[:depth])
        if len(self._prefix_cache) > 8192:
            self._prefix_cache.clear()
        self._prefix_cache[path] = prefix
        return prefix

    # ------------------------------------------------------------------ lookups --
    def shard_of(self, path: str) -> str:
        """The shard currently owning *path* (override- and split-aware)."""

        try:
            prefix = self._prefix_cache[path]
        except KeyError:
            prefix = self.prefix_of(path)
        override = self.overrides.get(prefix)
        return override if override is not None \
            else self.base.shard_of_key(prefix)

    def owner_of(self, prefix: str, default: str | None = None) -> str:
        """Current owner of *prefix*; *default* overrides the base hash.

        The *default* matters for URLs: a DATALINK URL names the shard
        that owned the prefix when the link was made, which is
        authoritative unless a move overrode it.  The fallback hashes the
        prefix *as a key* (not back through ``prefix_of``), so deepened
        split sub-prefixes resolve without being re-shallowed.
        """

        override = self.overrides.get(prefix)
        if override is not None:
            return override
        return default if default is not None \
            else self.base.shard_of_key(prefix)

    def is_moving(self, prefix: str) -> bool:
        return prefix in self.moving

    # -------------------------------------------------------------- transitions --
    def begin_move(self, prefix: str, dest: str) -> None:
        if prefix in self.moving:
            raise PlacementError(
                f"prefix {prefix!r} is already being rebalanced to "
                f"{self.moving[prefix]!r}; retry after that hand-off resolves")
        self.moving[prefix] = dest

    def abort_move(self, prefix: str) -> None:
        self.moving.pop(prefix, None)

    def commit_move(self, prefix: str, dest: str) -> int:
        """Swing *prefix* to *dest* and bump the epoch (the commit point).

        The override is recorded even when *dest* is the prefix's hash
        home: once a prefix has been explicitly placed, URLs minted while
        it lived elsewhere name that elsewhere, and only an override entry
        makes :meth:`owner_of` resolve them to the current owner instead
        of trusting the URL's stale server name.
        """

        self.moving.pop(prefix, None)
        self.overrides[prefix] = dest
        self.epoch += 1
        self.moves += 1
        return self.epoch

    def split_prefix(self, prefix: str, depth: int,
                     pins: dict[str, str]) -> int:
        """Deepen the effective routing depth under *prefix* (a split).

        *pins* maps every sub-prefix that already holds linked files to
        its current owner: the split itself moves no data, it only lets
        subsequent rebalances address the subtree at finer grain.  New
        sub-prefixes (no pin) hash freely onto the cluster.  Bumps the
        placement epoch.
        """

        if self.is_moving(prefix):
            raise PlacementError(
                f"cannot split {prefix!r} while it is being rebalanced to "
                f"{self.moving[prefix]!r}; retry after the hand-off resolves")
        if prefix in self.split_depths:
            raise PlacementError(
                f"prefix {prefix!r} is already split to depth "
                f"{self.split_depths[prefix]}")
        own_depth = len([part for part in prefix.split("/") if part])
        if depth <= own_depth:
            raise PlacementError(
                f"split depth {depth} does not deepen {prefix!r} "
                f"(its own depth is {own_depth})")
        self.split_depths[prefix] = int(depth)
        self._prefix_cache.clear()
        for sub, owner in pins.items():
            self.overrides[sub] = owner
        self.epoch += 1
        self.splits += 1
        return self.epoch

    # ---------------------------------------------------------------- validation --
    def check_epoch(self, observed: int) -> None:
        """Reject a request stamped with a placement epoch older than ours."""

        if observed < self.epoch:
            raise PlacementEpochError(
                f"placement epoch {observed} is stale (current epoch "
                f"{self.epoch}); refresh the placement map and retry",
                epoch=self.epoch, observed=observed)

    def stats(self) -> dict:
        return {
            "epoch": self.epoch,
            "moves": self.moves,
            "splits": self.splits,
            "overrides": dict(self.overrides),
            "moving": dict(self.moving),
            "split_depths": dict(self.split_depths),
        }


class PlacementGuard:
    """One node's view of the placement map, enforced before serving writes.

    Attached to every DLFM of a shard (serving node and witnesses alike):
    the guard derives ownership from the shared :class:`PlacementMap` on
    every check, so it cannot drift from routing decisions and a node
    crash cannot lose a fence -- on recovery the node simply re-reads the
    map.  A write for a prefix this shard no longer owns raises
    :class:`~repro.errors.PlacementEpochError` naming the current owner
    (the redirect), and a write for a prefix with a hand-off in flight
    raises a retryable :class:`~repro.errors.PlacementError`.
    """

    def __init__(self, placement: PlacementMap, shard: str):
        self.placement = placement
        self.shard = shard

    def check_path(self, path: str) -> None:
        prefix = self.placement.prefix_of(path)
        if self.placement.is_moving(prefix):
            raise PlacementError(
                f"prefix {prefix!r} is being rebalanced to "
                f"{self.placement.moving[prefix]!r}; retry after the "
                f"hand-off commits")
        owner = self.placement.shard_of(path)
        if owner != self.shard:
            raise PlacementEpochError(
                f"shard {self.shard!r} no longer owns prefix {prefix!r} "
                f"(placement epoch {self.placement.epoch}); it moved to "
                f"{owner!r} -- refresh the placement map and retry there",
                prefix=prefix, owner=owner, epoch=self.placement.epoch)

    def check_epoch(self, observed: int) -> None:
        self.placement.check_epoch(observed)


# ---------------------------------------------------------------------------
# the online hand-off
# ---------------------------------------------------------------------------

def _validate(deployment, prefix: str, dest: str):
    """Pre-flight checks; returns ``(placement_map, source_shard)``.

    Every refusal is a descriptive :class:`~repro.errors.PlacementError`
    naming the cure, mirroring the fail_over/fail_back polish.
    """

    router = deployment.router
    pmap = router.placement
    if dest not in deployment.shard_names:
        raise PlacementError(
            f"cannot rebalance {prefix!r} to {dest!r}: no such shard "
            f"(known shards: {deployment.shard_names})")
    if dest not in deployment.replicas:
        raise PlacementError(
            f"cannot rebalance {prefix!r} to {dest!r}: the destination has "
            f"no witness replica because the deployment was built with "
            f"replication=False; a hand-off must leave the prefix "
            f"promotable on the destination")
    normalized = pmap.prefix_of(prefix)
    if normalized != prefix:
        raise PlacementError(
            f"{prefix!r} is not a routed prefix at prefix depth "
            f"{pmap.prefix_depth}; did you mean {normalized!r}?")
    return pmap, pmap.owner_of(prefix)


def rebalance_prefix(deployment, prefix: str, dest: str) -> dict:
    """Move *prefix* from its current owner to *dest* under a 2PC hand-off.

    See the module docstring for the protocol.  Returns a summary with the
    new placement epoch, the number of files and versions moved, and
    whether the commit had to be redriven past a participant crash.
    """

    router = deployment.router
    engine = deployment.engine
    pmap, source = _validate(deployment, prefix, dest)
    src_server = router.serving_server(source)

    # Unknown before already-placed: a prefix nobody linked under is
    # "unknown" even when its hash happens to land on the destination.
    preview = [row for row in src_server.dlfm.repository.linked_files()
               if path_under(prefix, row["path"])]
    if not preview and prefix not in pmap.overrides:
        raise PlacementError(
            f"unknown prefix {prefix!r}: shard {source!r} has no linked "
            f"files under it (prefix depth {pmap.prefix_depth}); nothing "
            f"to rebalance")
    if source == dest:
        raise PlacementError(
            f"prefix {prefix!r} already lives on {dest!r} (placement epoch "
            f"{pmap.epoch}); nothing to move")
    dst_replica = deployment.replicas[dest]
    router.serving_server(dest)          # raises with the cure when down

    fire(engine.failpoints, "rebalance:prepare")
    pmap.begin_move(prefix, dest)
    try:
        # Settle the cluster: pending commit groups drain, every WAL
        # flushes (which ships the durable suffix to the witnesses), and
        # the source's archive queue for the prefix empties.
        deployment.drain()
        deployment.system.flush_logs()
        with synchronized_call(deployment.clock, src_server.clock):
            src_server.dlfm.process_archive_jobs()

        host_txn = engine.begin()
        redriven = False
        try:
            fire(engine.failpoints, "rebalance:export")
            export = engine.rebalance_export(host_txn, source, prefix)
            rows, versions = export["rows"], export["versions"]

            fire(engine.failpoints, "rebalance:archive")
            copied = 0
            # The source reads from the hand-off's send on; a copy waits for its read.
            src_server.clock.sync_ticks(deployment.clock.send_ticks())
            for row in rows:
                path = row["path"]
                try:
                    content = src_server.files.read(path)
                except ReproError as error:
                    raise PlacementError(
                        f"content hand-off incomplete: cannot read {path!r} "
                        f"on {source!r}") from error
                deployment.clock.receive_ticks(src_server.clock.ticks)
                dst_replica.receive_file(path, content,
                                         row["original_uid"],
                                         row["original_gid"])
                copied += 1

            fire(engine.failpoints, "rebalance:import")
            engine.rebalance_import(host_txn, dest, rows, versions)

            fire(engine.failpoints, "rebalance:fence")
            engine.commit(host_txn)
        except Exception:
            if deployment.host_db.txn_outcome(host_txn.txn_id) == "committed":
                # The coordinator's outcome is durable: the move committed
                # even though a participant failed mid-commit.  Redrive the
                # survivors; the crashed side resolves its in-doubt branch
                # from this outcome during recovery or witness promotion.
                engine.redrive_commit(host_txn)
                redriven = True
            else:
                try:
                    engine.abort(host_txn)
                except ReproError:
                    pass
                raise
    except Exception:
        pmap.abort_move(prefix)
        raise

    # The commit point: the map swings and the epoch bumps together.  The
    # source's placement guards now derive a different owner, which *is*
    # the fence under the old epoch -- no per-node state to push, nothing
    # a crash can lose.
    epoch = pmap.commit_move(prefix, dest)

    # Source GC.  The pending entry is recorded *before* the sweep runs
    # (and before the crash-injection failpoint), so a crash between
    # commit and sweep leaves a durable to-do that recovery redrives
    # instead of a silent leak.
    deployment.pending_sweeps[prefix] = {
        "prefix": prefix, "source": source, "dest": dest,
        "paths": [row["path"] for row in rows]}
    fire(engine.failpoints, "rebalance:sweep")
    sweep = sweep_moved_prefix(deployment, prefix)
    return {"moved": True, "prefix": prefix, "source": source, "dest": dest,
            "epoch": epoch, "moved_files": len(rows),
            "moved_versions": len(versions), "copied_files": copied,
            "redriven_commit": redriven,
            "swept_files": sweep["swept_files"],
            "sweep_deferred": sweep["deferred"]}


def sweep_moved_prefix(deployment, prefix: str) -> dict:
    """Delete a moved prefix's physical bytes on the fenced source.

    Destructive, so verification comes first: the destination's serving
    node must be up and must hold both the physical content and the
    repository row for every moved path.  Any verification failure or
    unreachable source node defers the whole sweep -- the pending entry
    stays and the next file server restart retries -- rather than
    risking the only surviving copy (or leaving one source node swept and
    another leaking).
    """

    entry = deployment.pending_sweeps.get(prefix)
    if entry is None:
        return {"swept_files": 0, "deferred": False}
    router = deployment.router
    try:
        # The export's DELETEs must reach the source witnesses before the
        # unlink: DLFS refuses to remove a file its repository still calls
        # linked, so settle the group-commit queue and ship every WAL.
        deployment.drain()
        deployment.system.flush_logs()
        dst = router.serving_server(entry["dest"])
        for path in entry["paths"]:
            if not dst.files.exists(path) or \
                    dst.dlfm.repository.linked_file(path) is None:
                raise PlacementError(
                    f"destination {entry['dest']!r} does not hold {path!r}; "
                    f"deferring the source sweep for {prefix!r}")
        replica = deployment.replicas.get(entry["source"])
        source_nodes = list(replica.nodes.values()) if replica is not None \
            else [router.serving_server(entry["source"])]
        if not all(node.running for node in source_nodes):
            raise PlacementError(
                f"a source node of {entry['source']!r} is down; deferring "
                f"the sweep for {prefix!r} until it recovers")
        # Every source node unlinks at once; the host waits for the slowest.
        swept = 0
        with deployment.clock.overlap():
            for node in source_nodes:
                with synchronized_call(deployment.clock, node.clock):
                    for path in entry["paths"]:
                        if node.files.exists(path):
                            node.files.unlink(path)
                            swept += 1
    except ReproError:
        return {"swept_files": 0, "deferred": True}
    deployment.pending_sweeps.pop(prefix, None)
    return {"swept_files": swept, "deferred": False}
