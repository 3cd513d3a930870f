"""Shard replication: WAL shipping, writable failover, reversed-ship fail-back.

The paper's architecture leaves every linked file under exactly one DLFM, so
a file-server crash makes that shard's files unreadable until recovery.
This module adds a *serving/witness* replication scheme per shard:

* :class:`WalShipper` streams the serving DLFM repository's **durable** WAL
  records to each witness over a daemon channel
  (:class:`~repro.datalinks.dlfm.daemons.ReplicaDaemon`), triggered by the
  repository WAL's flush hook -- every flush ships the records it made
  durable, and only flushed records ship, so a witness can never hold a
  transaction the serving node could lose in a crash.  Shipping is a
  *pipelined* send in simulated time (the witness applies batches on its
  own clock domain; the sender pays only the enqueue cost), so
  replication overlaps the serving node's foreground work.  Node-local
  soft state (the token registry and the Sync table,
  :mod:`repro.datalinks.dlfm.soft_state`) never enters the WAL: each node
  keeps its own, so a tokenized read ships nothing;
* :class:`ReplicaApplier` applies the shipped stream on a witness:
  committed transactions are redone into the witness repository, aborted
  ones are dropped, and transactions that shipped a PREPARE vote but no
  outcome are kept *in doubt* until promotion resolves them from the host
  database's durable outcome (two-phase commit across a failover) --
  archive jobs included, since a link or close writes its job in its
  branch;
* :class:`EpochRegistry` / :class:`EpochGuard` implement fencing: each
  shard has a monotonically increasing epoch and exactly one serving node;
  promotion bumps the epoch, so a deposed ex-serving node fails every
  upcall and every engine-facing branch operation with
  :class:`~repro.errors.FencedNodeError` until it rejoins the stream;
* :class:`ReplicatedShard` groups one shard's nodes and rotates their
  roles.  **Failover is writable**: :meth:`ReplicatedShard.promote` turns
  the best witness into a full primary -- it leaves redo-only mode, accepts
  link/unlink branches and 2PC enlistment (the engine's connections are
  re-routed through the deployment's
  :class:`~repro.datalinks.routing.ReplicationRouter`), and checkpoints its
  repository so the applied state survives its own crashes.  **Fail-back is
  a reversed ship**: the recovered ex-serving node rejoins as a witness fed
  by the *new* primary's WAL stream and catches up from the LSN recorded
  when it was deposed -- no snapshot resync -- then roles swap back under a
  fence (:meth:`ReplicatedShard.fail_back`).  A snapshot resync remains the
  fallback whenever the deposed node's durable state diverged from the
  serving lineage (it held durable records that never shipped) or the
  serving log has folded away the records it missed.

Failpoints fire at every replication step, scoped by shard, so the
crash-matrix tests can inject a primary crash mid-protocol:
``replicate:ship:<shard>`` (before a WAL batch leaves the sender),
``replicate:apply:<shard>`` (before a witness applies a batch),
``replicate:{promote,catchup,fence}:<shard>`` (inside promotion, in that
order).  They fire into the engine's one table; see
:mod:`repro.util.failpoints`.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat

from repro.datalinks.dlfm.link_manager import constrain, give_back, settle
from repro.util.failpoints import fire
from repro.datalinks.routing import NodeRole
from repro.errors import (
    FencedNodeError,
    FileSystemError,
    IPCError,
    LogFoldedError,
    ReplicationError,
)
from repro.ipc.channel import Channel
from repro.simclock import SimClock, rendezvous, synchronized_call
from repro.storage.wal import LogRecordType
from repro.util.lsn import LSN


# ---------------------------------------------------------------------------
# epochs and fencing
# ---------------------------------------------------------------------------

class EpochRegistry:
    """The cluster manager's view: one epoch and one serving node per shard.

    Conceptually this lives beside the host database (the component that
    survives shard failures); promotions go through it so there is a single
    source of truth for "who serves shard S" and a recovered ex-primary can
    be told it no longer does.
    """

    def __init__(self):
        self._epochs: dict[str, int] = {}
        self._serving: dict[str, str] = {}
        #: Bumped on every lease change; replica sets refresh their
        #: serving-node resolution through :meth:`subscribe` (push
        #: invalidation -- read routing touches the resolved name on every
        #: request, so polling this counter there was measurable).
        self.version = 0
        self._listeners: list = []

    def subscribe(self, listener) -> None:
        """Call *listener* () after every lease change."""

        if listener not in self._listeners:
            self._listeners.append(listener)

    def register(self, shard: str, node: str) -> int:
        """Grant the initial lease for *shard* to *node* (epoch 1)."""

        if shard not in self._epochs:
            self._grant(shard, node)
        return self._epochs[shard]

    def current_epoch(self, shard: str) -> int:
        return self._epochs.get(shard, 0)

    def serving_node(self, shard: str) -> str | None:
        return self._serving.get(shard)

    def promote(self, shard: str, node: str) -> int:
        """Make *node* the serving node of *shard*, bumping the epoch.

        Idempotent: promoting the node that already serves does not bump.
        """

        if self._serving.get(shard) != node:
            self._grant(shard, node)
        return self._epochs[shard]

    def _grant(self, shard: str, node: str) -> None:
        """Give *shard*'s lease to *node* under the next epoch."""

        self._epochs[shard] = self._epochs.get(shard, 0) + 1
        self._serving[shard] = node
        self.version += 1
        for listener in self._listeners:
            listener()


class EpochGuard:
    """One node's lease on its shard, checked before serving upcalls."""

    def __init__(self, registry: EpochRegistry, shard: str, node: str):
        self.registry = registry
        self.shard = shard
        self.node = node

    @property
    def fenced(self) -> bool:
        # Fenced when another node holds the shard's serving lease (a shard
        # nobody registered is served by ``None``).  The registry lookup is
        # inline: this gate runs before every served upcall.
        try:
            return self.registry._serving[self.shard] != self.node
        except KeyError:
            return self.node is not None

    def check(self) -> None:
        if self.fenced:
            raise FencedNodeError(
                f"node {self.node!r} was fenced: shard {self.shard!r} is served "
                f"by {self.registry.serving_node(self.shard)!r} at epoch "
                f"{self.registry.current_epoch(self.shard)}")


# ---------------------------------------------------------------------------
# witness-side apply
# ---------------------------------------------------------------------------

#: What a witness buffers per transaction until its outcome: the data
#: records and the vote (which holds it in doubt).
_BUFFERED = (LogRecordType.INSERT, LogRecordType.UPDATE,
             LogRecordType.DELETE, LogRecordType.CLR, LogRecordType.PREPARE)


class ReplicaApplier:
    """Applies the primary's shipped WAL stream to the witness repository.

    Data records are buffered per transaction and redone only once the
    transaction's COMMIT arrives (the witness never exposes uncommitted
    primary state).  A transaction whose PREPARE shipped (buffered last)
    but whose outcome did not is held in doubt; :meth:`resolve_in_doubt`
    drives it to the coordinator's durable outcome during promotion.

    The witness repository's heaps mirror the primary's row ids exactly, so
    redo is positional; the one deliberate divergence is the ``ino`` column
    of ``linked_files``, which is rebound to the witness file system's inode
    numbers as rows arrive (the primary's inode numbers are meaningless on
    another node).  Each applied COMMIT stats each link row's copy on this
    node once: that one stat constrains the copy and gives the inode
    (:meth:`_constrain`), and the outcome then settles the copies.
    """

    def __init__(self, database, failpoints: dict, shard: str, files=None):
        self._db = database
        self._files = files
        self._failpoints = failpoints
        self._shard = shard
        self._pending: dict[int, list] = {}
        self.applied_lsn = LSN(0)
        self.applied_commits = 0
        self.applied_records = 0
        self.dropped_txns = 0
        #: Paths whose local bytes predate a committed update-in-place on
        #: the serving node: the ``linked_files`` row (new ``last_size`` /
        #: ``last_mtime``) replicated over the stream, but the rewritten
        #: content did not -- the mirror copy was taken at ingest.  The
        #: witness serves no read of such a file
        #: (:meth:`ReplicatedShard.serves_read`); rejoin/resync/promotion
        #: refresh the copy and clear the mark.
        self.stale_paths: set[str] = set()

    # ------------------------------------------------------------------ apply --
    def apply(self, records: list) -> dict:
        """Apply one shipped batch; returns counters for the daemon reply."""

        if records and self._failpoints:
            fire(self._failpoints, "replicate:apply", self._shard)
        commits = aborts = 0
        pending = self._pending
        for record in records:
            if record.type in _BUFFERED:
                try:
                    pending[record.txn_id].append(record)
                except KeyError:
                    pending[record.txn_id] = [record]
            elif record.type is LogRecordType.COMMIT:
                self._apply_txn(record.txn_id)
                commits += 1
            elif record.type is LogRecordType.ABORT:
                self._drop_txn(record.txn_id)
                aborts += 1
            elif record.type is LogRecordType.CREATE_TABLE:
                schema = record.extra["schema"]
                if not self._db.catalog.has_table(schema.name):
                    self._db.catalog.create_table(schema.copy())
            if record.lsn > self.applied_lsn:
                self.applied_lsn = record.lsn
        return {"commits": commits, "aborts": aborts,
                "applied_lsn": self.applied_lsn.value,
                "pending_txns": len(self._pending)}

    def _apply_txn(self, txn_id: int) -> None:
        pending = self._pending
        try:
            records = pending[txn_id]
            del pending[txn_id]
        except KeyError:
            records = None
        if records:
            inos = None if self._files is None else self._constrain(records)
            applied = sum(map(self._redo, records, repeat(inos)))
            self._db._charge_run("row_write", applied)
            self.applied_records += applied
            if inos is not None:
                settle(self._files, records, committed=True)
        self.applied_commits += 1

    def _constrain(self, records: list) -> dict:
        """The link ran on the primary, so its constraint never touched this
        node's copy: each link row it wrote constrains the mirror, which is
        stat'ed once (after a relink's give-back, which changes what
        :func:`constrain` reads); returns ``{path: ino}`` for :meth:`_redo`.
        Else a bare URL read through the witness would bypass the token
        checks that guard the primary's copy."""

        files, unlinked, inos = self._files, {}, {}
        for record in records:
            if record.table != "linked_files":
                continue
            if record.after is None:
                unlinked[record.before["path"]] = record.before
                continue
            path = record.after["path"]
            try:
                if path in unlinked:    # relinked, as on the primary
                    give_back(files, unlinked.pop(path))
                attrs = files.stat(path)
            except FileSystemError:
                continue        # no mirror yet: promotion constrains it
            inos[path] = attrs.ino
            constrain(files, record.after, attrs)
        return inos

    def _drop_txn(self, txn_id: int) -> None:
        try:
            del self._pending[txn_id]
            self.dropped_txns += 1
        except KeyError:
            pass

    def _redo(self, record, inos: dict | None) -> bool:
        """Redo one data record into the witness heaps, maintaining indexes.

        A link row takes its file's witness inode from *inos*, else
        ``-rid`` (the primary's would collide with a real witness inode in
        the unique ``linked_files_ino`` index; ``-rid`` is negative and
        unique per row, and promotion rebinds the real one).  Returns
        whether the record was applied (its ``row_write`` cost is charged
        by the caller, batched across the transaction).
        """

        db = self._db
        if record.table is None or not db.catalog.has_table(record.table):
            return False
        heap = db.catalog.heap(record.table)
        effective = record.type
        if record.type is LogRecordType.CLR:
            effective = LogRecordType(record.extra["redo_as"])
        # The witness row *is* the primary's image (nobody mutates one; see
        # repro.storage.heap) -- except a link row, copied to rebind ``ino``.
        after = record.after
        is_link_row = inos is not None and record.table == "linked_files"
        if after is not None and is_link_row:
            after = dict(after, ino=inos.get(after["path"], -record.rid))
        if effective in (LogRecordType.INSERT, LogRecordType.UPDATE):
            if heap.exists(record.rid):
                before = heap.get(record.rid)
                db.catalog.index_remove(record.table, before, record.rid)
                heap.update(record.rid, after)
                if is_link_row and (
                        before.get("last_size") != after.get("last_size")
                        or before.get("last_mtime") != after.get("last_mtime")):
                    # An update-in-place committed on the serving node; the
                    # data path is not in the WAL stream, so this node's
                    # mirrored bytes are now the pre-update content.
                    self.stale_paths.add(after["path"])
            else:
                heap.insert(after, rid=record.rid)
            db.catalog.index_insert(record.table, after, record.rid)
        elif effective is LogRecordType.DELETE:
            if heap.exists(record.rid):
                before = heap.get(record.rid)
                db.catalog.index_remove(record.table, before, record.rid)
                heap.delete(record.rid)
                if is_link_row:
                    self.stale_paths.discard(before["path"])
        return True

    # --------------------------------------------------------------- in doubt --
    def _voted(self) -> list[tuple]:
        """``(txn_id, host_txn_id)`` of each transaction whose PREPARE
        shipped but whose outcome did not, in transaction order."""

        return sorted((txn_id, records[-1].extra.get("host_txn_id"))
                      for txn_id, records in self._pending.items()
                      if records[-1].type is LogRecordType.PREPARE)

    def in_doubt_host_txns(self) -> list[int]:
        """Host transaction ids whose PREPARE shipped but whose outcome did not."""

        return sorted(host_txn_id for _, host_txn_id in self._voted()
                      if host_txn_id is not None)

    def resolve_in_doubt(self, outcomes: dict) -> dict:
        """Drive shipped in-doubt transactions to the coordinator's outcome.

        ``outcomes`` maps host transaction id to ``"committed"`` /
        ``"aborted"`` / ``"unknown"``; anything but a durable commit is
        presumed aborted, exactly like a recovering participant.  Local
        transactions that never voted cannot have committed and are dropped.
        A committed branch's archive jobs are among its records: the
        promoted node runs them, dated by the host commit's state id.
        """

        committed, aborted = [], []
        for txn_id, host_txn_id in self._voted():
            if outcomes.get(host_txn_id) == "committed":
                self._apply_txn(txn_id)
                committed.append(host_txn_id)
            else:
                self._drop_txn(txn_id)
                aborted.append(host_txn_id if host_txn_id is not None else txn_id)
        for txn_id in list(self._pending):
            self._drop_txn(txn_id)
        return {"committed": committed, "aborted": aborted}

    # ----------------------------------------------------------------- resync --
    def reset_from_snapshot(self, snapshot: dict, state_lsn: LSN) -> None:
        """Replace the witness repository with a primary catalog snapshot."""

        self._db.catalog.load_snapshot(snapshot)
        self._db.catalog.rebuild_indexes()
        # Fresh heaps, fresh mutation counters: stale key maxima must not
        # validate against them (see Database.reset_catalog).
        self._db._max_keys.clear()
        self._pending.clear()
        self.applied_lsn = state_lsn

    def status(self) -> dict:
        return {
            "applied_lsn": self.applied_lsn.value,
            "applied_commits": self.applied_commits,
            "applied_records": self.applied_records,
            "pending_txns": len(self._pending),
            "in_doubt": self.in_doubt_host_txns(),
        }


# ---------------------------------------------------------------------------
# serving-side shipping
# ---------------------------------------------------------------------------

class WalShipper:
    """Streams the primary repository's durable WAL records to the witness.

    Registered as a flush listener on the primary repository's WAL, so
    shipping is continuous: every log force (commit, group-commit drain,
    prepare vote) pushes the unshipped durable suffix through the replica
    daemon channel, in LSN order: every durable record ships on the flush
    that made it durable.  Every record in the log is state a
    witness needs: the node-local token registry and Sync table never
    enter it (:mod:`repro.datalinks.dlfm.soft_state`), so a tokenized read
    neither forces the log nor ships anything.

    A witness that is down does not stall the primary -- the cursor simply
    stops advancing and the records ship on the next successful shipment
    (the *replica lag* the failover tests exercise).  The shipper is the
    listener's *reader*: the log folds nothing while the cursor is behind
    its tail (see :mod:`repro.storage.wal`), so a paused or cut-off stream
    loses nothing.
    """

    def __init__(self, repository, channel: Channel, failpoints: dict,
                 shard: str):
        self._repository = repository
        self._channel = channel
        self._failpoints = failpoints
        self._shard = shard
        #: The witness holds every record up to here.
        self.cursor: LSN = repository.durable_lsn()
        self.paused = False
        self.shipped_records = 0
        self.ship_errors = 0
        repository.add_wal_listener(self._on_flush, reader=self)

    def _on_flush(self, wal) -> None:
        if self.paused:
            return
        try:
            self.ship()
        except IPCError:
            # The witness is unreachable; accumulate lag, do not fail the
            # primary's commit.
            self.ship_errors += 1

    def ship(self) -> int:
        """Ship every durable record past the cursor; returns how many."""

        records = self._repository.wal_records_since(self.cursor)
        count = len(records)
        if not count:
            return 0
        if self._failpoints:
            fire(self._failpoints, "replicate:ship", self._shard)
        # Pipelined: the primary does not wait for the witness to apply.
        self._channel.post("apply_wal", records=records)
        self.cursor = records[-1].lsn
        self.shipped_records += count
        return count

    def lag(self) -> int:
        """Durable serving-side records the witness has not received yet
        (LSNs are dense, so this is a difference, not a scan)."""

        return self._repository.durable_lsn() - self.cursor

    def pending_lag(self) -> int:
        """Records the witness has not received, durable or not.

        This is the *staleness* measure follower reads are bounded by: a
        group-commit window can hold committed-and-visible transactions
        whose records have not been forced (and therefore not shipped), and
        a witness missing them must not be treated as caught up -- its
        mirrored file copies have not had the link-time access constraints
        applied yet, so serving from it would not merely be stale, it would
        skip token enforcement.
        """

        return self._repository.tail_lsn() - self.cursor

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False

    def detach(self) -> None:
        self._repository.remove_wal_listener(self._on_flush)


# ---------------------------------------------------------------------------
# the replicated shard
# ---------------------------------------------------------------------------

class ReplicatedShard:
    """One shard's node group: a serving node plus witness subscribers.

    Roles are *dynamic*.  The node that created the shard is its **home
    primary**, but any node can hold the serving lease: promotion rotates
    the lease to a caught-up witness (which then takes writes -- link and
    unlink branches, 2PC votes -- like any primary), and fail-back is just a
    promotion back to the home primary after a reversed-ship catch-up.  The
    :class:`~repro.datalinks.routing.ReplicationRouter` reads roles and
    read eligibility (:meth:`serves_read`) from here; the DLFMs enforce
    them through epoch fencing plus the same rule as their read gate.  A
    shard with no witness is an unreplicated shard: its one node serves
    under epoch 1 for ever, and it cannot fail over.
    """

    def __init__(self, name: str, primary, witnesses, registry: EpochRegistry,
                 engine, clock: SimClock):
        from repro.datalinks.dlfm.daemons import ReplicaDaemon

        if not isinstance(clock, SimClock):
            raise TypeError(f"ReplicatedShard needs a SimClock, got {clock!r}")

        self.name = name
        self.registry = registry
        self.engine = engine
        self.clock = clock
        self.home_primary = primary.name
        self.nodes = {primary.name: primary}
        for node in witnesses:
            self.nodes[node.name] = node
        registry.register(name, primary.name)
        #: The current lease holder's name, refreshed by registry push
        #: (``_refresh_serving``): read routing touches this on every
        #: request and a plain attribute beats re-resolving per read.
        self.serving_name = registry.serving_node(name)
        registry.subscribe(self._refresh_serving)
        self._daemons = {}
        for node in self.nodes.values():
            node.dlfm.set_fencing(EpochGuard(registry, name, node.name))
            node.dlfm.set_read_gate(partial(self.serves_read, node.name))
            # Every node gets a replication endpoint up front: the home
            # primary needs one the moment it is deposed and rejoins as a
            # witness fed by the reversed stream.
            self._daemons[node.name] = ReplicaDaemon(node.dlfm, node.clock)
        #: Active streams: subscriber node name -> :class:`WalShipper`
        #: sourced at the current serving node's repository.
        self._streams: dict[str, WalShipper] = {}
        self._synced: dict[str, bool] = {}
        #: Deposed nodes' catch-up points in the *new* serving node's WAL
        #: sequence; ``None`` forces the snapshot-resync fallback.
        self._rejoin_base: dict[str, LSN | None] = {}
        self._retired_shipped = 0
        self._retired_ship_errors = 0
        self.mirror_misses = 0
        #: Reads :meth:`serves_read` refused a witness for its stale copy.
        self.stale_content_skips = 0
        self.full_resyncs = 0
        self.reversed_catchups = 0
        for node in witnesses:
            self._subscribe(node.name)

    # -------------------------------------------------------------------- roles --
    def _refresh_serving(self) -> None:
        """Registry push hook: re-resolve :attr:`serving_name` on lease change."""

        self.serving_name = self.registry.serving_node(self.name)

    @property
    def serving(self):
        """The file server currently holding the shard's serving lease."""

        return self.nodes[self.serving_name]

    @property
    def failed_over(self) -> bool:
        return self.serving_name != self.home_primary

    @property
    def epoch(self) -> int:
        return self.registry.current_epoch(self.name)

    @property
    def primary(self):
        """The shard's home primary (static role; may not be serving)."""

        return self.nodes[self.home_primary]

    @property
    def witnesses(self) -> list:
        """The home witnesses, in creation order."""

        return [node for name, node in self.nodes.items()
                if name != self.home_primary]

    @property
    def witness(self):
        """The first home witness; ``None`` for a shard with no witness."""

        return next(iter(self.witnesses), None)

    @property
    def shipper(self) -> WalShipper | None:
        """The stream feeding the first home witness, while one exists."""

        witness = self.witness
        return self._streams.get(witness.name) if witness is not None \
            else None

    def is_subscribed(self, node_name: str) -> bool:
        """Is *node_name* a synced subscriber of the serving node's stream?"""

        try:
            node = self.nodes[node_name]
        except KeyError:
            return False
        if node_name not in self._streams or node.dlfm.replica is None:
            return False
        try:
            return self._synced[node_name]
        except KeyError:
            return False

    def subscriber_lag(self, node_name: str) -> int | None:
        """Staleness of one subscriber in records, or ``None`` off-stream.

        Counts *pending* lag (see :meth:`WalShipper.pending_lag`): records
        the subscriber has not applied, whether or not they are durable at
        the serving node yet.
        """

        shipper = self._streams.get(node_name)
        return shipper.pending_lag() if shipper is not None else None

    def role_of(self, node_name: str) -> str:
        node = self.nodes[node_name]
        if not node.running:
            return NodeRole.DOWN
        if node_name == self.serving_name:
            return NodeRole.SERVING
        if self.is_subscribed(node_name):
            return NodeRole.WITNESS
        return NodeRole.FENCED

    def roles(self) -> dict[str, str]:
        return {name: self.role_of(name) for name in self.nodes}

    # ---------------------------------------------------------- follower reads --
    def serves_read(self, node_name: str, path: str | None = None) -> bool:
        """May *node_name* serve a read of this shard (of *path*) right now?

        The one rule for which node serves a read: the router's candidate
        pick asks it with the read's path, each node's DLFM read gate
        without one.  The serving node may.  Any other node may only while
        the stream feeding it is live end to end and it has nothing
        unapplied: it is a synced subscriber, it and its replica daemon are
        up, the serving node is up, shipping is not paused, and it has not
        missed a record, durable or still buffered
        (:meth:`WalShipper.pending_lag` is 0).  With *path*, its copy of
        that file must also not predate a committed update-in-place (the
        stream ships the metadata row, not the bytes; see
        :attr:`ReplicaApplier.stale_paths`); such a refusal is counted in
        :attr:`stale_content_skips`.
        """

        serving_name = self.serving_name
        if node_name == serving_name:
            return True
        try:
            node = self.nodes[node_name]
            shipper = self._streams[node_name]
            if not self._synced[node_name]:
                return False
        except KeyError:
            return False
        applier = node.dlfm.replica
        if applier is None or not node.running \
                or not self._daemons[node_name].running \
                or not self.nodes[serving_name].running \
                or shipper.paused or shipper.pending_lag() > 0:
            return False
        if path is not None and path in applier.stale_paths:
            self.stale_content_skips += 1
            return False
        return True

    # ------------------------------------------------------- stream management --
    def _subscribe(self, node_name: str, base: LSN | None = None) -> WalShipper:
        """Attach *node_name* to the serving node's WAL stream.

        With *base*, shipping and applying pick up at that LSN of the
        serving repository's sequence (the reversed-ship rejoin path);
        without it, at the current durable frontier (fresh witnesses, whose
        bootstrapped repository equals the serving node's).
        """

        node = self.nodes[node_name]
        applier = node.dlfm.enable_replica_mode(self.name)
        channel = Channel(self._daemons[node_name], self.serving.clock,
                          latency_primitive="db_dlfm_message")
        shipper = WalShipper(self.serving.dlfm.repository, channel,
                             self.engine.failpoints, self.name)
        if base is not None:
            shipper.cursor = base
            applier.applied_lsn = base
        self._streams[node_name] = shipper
        self._synced[node_name] = True
        self._rejoin_base.pop(node_name, None)
        return shipper

    def _detach_stream(self, node_name: str) -> None:
        shipper = self._streams.pop(node_name, None)
        if shipper is not None:
            shipper.detach()
            self._retired_shipped += shipper.shipped_records
            self._retired_ship_errors += shipper.ship_errors

    # ---------------------------------------------------------------- mirroring --
    def _copy_below_dlfs(self, node, path: str, content: bytes, uid: int,
                         gid: int) -> None:
        """Write *content* on *node* through the DLFM-privileged path."""

        lfs = node.raw_lfs
        root = node.files.dlfm_cred
        directory = path.rsplit("/", 1)[0] or "/"
        if directory != "/":
            lfs.makedirs(directory, root)
            lfs.chown(directory, uid, gid, root)
        lfs.write_file(path, content, root, create=True)
        lfs.chown(path, uid, gid, root)

    def mirror_file(self, caller: SimClock, path: str, content: bytes,
                    uid: int, gid: int) -> int:
        """Copy a just-ingested file to every subscriber (same path/owner);
        returns how many copies were sent.

        Issued from *caller*'s clock -- the session or host that ingested
        the file -- inside one overlap window, so the witness copies leave
        together and gather into the slowest; the caller's window decides
        whether it waits (a put's send window does not, a hand-off does).
        Each copy is a cross-node request: the witness pays one
        ``db_dlfm_message`` of wire latency on its own domain before it
        writes (the latency-on-callee rule of
        :meth:`repro.ipc.channel.Channel.request`).

        Runs below DLFS (the DLFM-privileged path) so mirroring never
        recurses into DataLinks interception on the witness.  A crashed
        witness misses the mirror (counted, like a missed WAL shipment);
        promotion or rejoin later restores what it can from the archive or
        the serving node's copy.
        """

        sent = 0
        with caller.overlap():
            for node_name in list(self._streams):
                node = self.nodes[node_name]
                if not node.running:
                    self.mirror_misses += 1
                    continue
                with synchronized_call(caller, node.clock):
                    node.clock.charge("db_dlfm_message")
                    self._copy_below_dlfs(node, path, content, uid, gid)
                sent += 1
        return sent

    def receive_file(self, path: str, content: bytes, uid: int, gid: int) -> None:
        """Ingest a handed-off file: serving-node copy plus witness mirror.

        The content half of a prefix rebalance into this shard -- written
        below DLFS on the serving node and mirrored to every subscriber in
        the same step, so witness placement follows the prefix: a
        promotion *after* the move can serve the moved files from this
        shard's witness set (the repository rows arrive over the normal
        WAL stream when the hand-off branch commits).  The serving copy and
        the mirrors leave together from the host clock; the hand-off waits
        for the slowest.
        """

        with self.clock.overlap():
            with synchronized_call(self.clock, self.serving.clock):
                self._copy_below_dlfs(self.serving, path, content, uid, gid)
            self.mirror_file(self.clock, path, content, uid, gid)

    def _mirror_missing_content(self, node) -> int:
        """Copy linked-file content *node* lacks (or holds stale) from the
        serving node.

        Used at rejoin/resync time: files ingested while the node was down
        (or deposed) exist only on the serving side and in the archive; the
        repository rows replicate over the stream, the bytes come from
        here.  A file the node *has* is still refreshed when its copy is
        marked stale by a replicated update-in-place (overwritten in place
        so the link-time constraints already applied stay put).  Returns
        how many files were copied.
        """

        serving = self.serving
        applier = node.dlfm.replica
        copied = 0
        for row in node.dlfm.repository.linked_files():
            path = row["path"]
            if not serving.files.exists(path):
                continue
            stale = applier is not None and path in applier.stale_paths
            if node.files.exists(path):
                if not stale:
                    continue
                content = serving.files.read(path)
                node.raw_lfs.write_file(path, content, node.files.dlfm_cred)
            else:
                content = serving.files.read(path)
                attrs = serving.files.stat(path)
                self._copy_below_dlfs(node, path, content, attrs.uid,
                                      attrs.gid)
            if applier is not None:
                applier.stale_paths.discard(path)
            copied += 1
        return copied

    # ----------------------------------------------------------------- failover --
    def promote(self) -> dict:
        """Fail the shard over: promote the best witness to a full primary."""

        if self.failed_over and self.serving.running:
            # Idempotent: the shard already failed over to a live witness.
            return {"promoted": True, "epoch": self.epoch,
                    "serving": self.serving_name}
        return self.promote_to(self._select_promotion_target())

    def _select_promotion_target(self) -> str:
        eligible = [name for name in self._streams
                    if name != self.serving_name
                    and self.nodes[name].running
                    and self._synced.get(name)]
        if eligible:
            # The most caught-up witness loses the least.  Normally they
            # tie: every stream ships on the same flushes.
            return max(eligible,
                       key=lambda name: self.nodes[name].dlfm.replica
                       .applied_lsn.value)
        witness = self.witness
        if witness is not None and not witness.running:
            raise ReplicationError(
                f"cannot promote shard {self.name!r}: witness "
                f"{witness.name!r} is down (restart it first)")
        if witness is not None and not self._synced.get(witness.name):
            raise ReplicationError(
                f"cannot promote shard {self.name!r}: witness "
                f"{witness.name!r} lost its replica state and has not "
                f"resynced from the primary")
        raise ReplicationError(
            f"cannot promote shard {self.name!r}: no synced running witness")

    def promote_to(self, target_name: str) -> dict:
        """Rotate the serving lease to *target_name* (a synced subscriber).

        Steps (each behind a failpoint): quiesce the streams -- when the old
        serving node is alive (a planned hand-off / fail-back) its WAL is
        flushed and shipped so nothing is lost -- run catch-up on the target
        (resolve shipped in-doubt transactions from the host database's
        durable outcome, restore content, rebind inodes and ownership), bump
        the epoch so every other node is fenced, then turn the target into a
        **full primary**: it leaves redo-only replica mode and checkpoints,
        so the redo-applied state survives its own crashes.  Finally the
        remaining subscribers are re-sourced from the new serving node and
        the deposed ex-serving node's reversed-ship catch-up point is
        recorded.
        """

        target = self.nodes[target_name]
        if target_name == self.serving_name:
            return {"promoted": True, "epoch": self.epoch,
                    "serving": target_name}
        if not target.running:
            raise ReplicationError(
                f"cannot promote shard {self.name!r}: witness "
                f"{target_name!r} is down (restart it first)")
        if not self._synced.get(target_name):
            raise ReplicationError(
                f"cannot promote shard {self.name!r}: witness "
                f"{target_name!r} lost its replica state and has not "
                f"resynced from the primary")
        fire(self.engine.failpoints, "replicate:promote", self.name)
        old_serving_name = self.serving_name
        old_serving = self.nodes[old_serving_name]
        # Promotion is driven by the cluster manager beside the host
        # database: the target syncs up to the order's send time, catch-up
        # runs on the target's own clock domain, and the manager waits for
        # completion (that is the failover latency experiments measure).
        with synchronized_call(self.clock, target.clock):
            if old_serving.running:
                old_serving.dlfm.repository.db.wal.flush()
                for shipper in self._streams.values():
                    if not shipper.paused:
                        try:
                            shipper.ship()
                        except IPCError:
                            pass
            residual_lag = {name: shipper.lag()
                            for name, shipper in self._streams.items()}
            for shipper in self._streams.values():
                shipper.pause()
            fire(self.engine.failpoints, "replicate:catchup", self.name)
            applier = target.dlfm.replica
            outcomes = self.engine.host_transaction_outcomes(
                applier.in_doubt_host_txns())
            summary = target.dlfm.replica_catch_up(outcomes)
            fire(self.engine.failpoints, "replicate:fence", self.name)
            epoch = self.registry.promote(self.name, target_name)
            # Past the fence: the target is a full primary now.
            self._detach_stream(target_name)
            self._synced.pop(target_name, None)
            target.dlfm.disable_replica_mode()
            target.dlfm.repository.db.checkpoint()
        target_clean = residual_lag.get(target_name, 0) == 0
        base = target.dlfm.repository.db.wal.flushed_lsn
        # Re-source the remaining subscribers from the new serving node.
        for other_name in list(self._streams):
            other_clean = (target_clean
                           and residual_lag.get(other_name, 0) == 0)
            self._detach_stream(other_name)
            other = self.nodes[other_name]
            if not other.running:
                self._synced[other_name] = False
                self._rejoin_base[other_name] = None
                continue
            other.dlfm.replica.resolve_in_doubt(outcomes)
            self._subscribe(other_name, base=base)
            if not other_clean:
                self._resync_subscriber(other_name)
        # The deposed ex-serving node: remember where a reversed stream can
        # pick it up.  Divergence (durable records the target never
        # received) voids the fast path and forces the snapshot
        # fallback.
        if old_serving.running:
            # Planned hand-off (fail-back): the old serving node is alive
            # and fully shipped; it becomes a witness on the spot.
            self._subscribe(old_serving_name, base=base)
        else:
            self._rejoin_base[old_serving_name] = base if target_clean else None
        # Roll back the updates the deposed node had in flight -- only now,
        # with every surviving subscriber re-sourced from the new serving
        # node, so the rollback's repository deletes ship over the stream
        # and witness heaps stay positionally identical.
        with synchronized_call(self.clock, target.clock):
            summary["rolled_back_updates"] = \
                target.dlfm.rollback_inherited_updates()
            target.dlfm.repository.db.wal.flush()
        summary.update({"promoted": True, "epoch": epoch,
                        "serving": target_name})
        return summary

    # ------------------------------------------------------------------- rejoin --
    def _rejoin(self, node_name: str) -> dict:
        """Re-admit a running node that is off the stream (a deposed one, or
        a witness a promotion detached while it was down) as a subscriber.

        Fast path: the node subscribes to the current serving node's WAL
        stream at the LSN recorded when it was deposed -- its own
        last-applied point in the serving lineage -- and catches up by
        shipping only the records it missed (plus a content delta for files
        ingested while it was gone).  No snapshot resync.
        The fallback snapshot path runs when the deposed node's durable
        state diverged from the serving lineage, or when the serving
        log has folded the records it missed away
        (:class:`~repro.errors.LogFoldedError`).
        """

        node = self.nodes[node_name]
        if not self.serving.running:
            raise ReplicationError(
                f"cannot rejoin {node_name!r} to shard {self.name!r}: "
                f"serving node {self.serving_name!r} is down")
        base = self._rejoin_base.get(node_name)
        if base is not None:
            try:
                self.serving.dlfm.repository.wal_records_since(base)
            except LogFoldedError:
                base = None     # what it missed was folded: snapshot resync
        self._daemons[node_name].start()
        shipper = self._subscribe(node_name, base=base)
        if base is None:
            summary = self._resync_subscriber(node_name)
            return {"rejoined": True, "mode": "snapshot", **summary}
        rendezvous(self.clock, self.serving.clock, node.clock)
        before = shipper.shipped_records
        self.serving.dlfm.repository.db.wal.flush()
        shipper.ship()
        shipped = shipper.shipped_records - before
        restored_files = self._mirror_missing_content(node)
        rebind = node.dlfm.replica_rebind()
        rendezvous(self.clock, self.serving.clock, node.clock)
        self.reversed_catchups += 1
        return {"rejoined": True, "mode": "reversed-ship",
                "from_lsn": base.value, "caught_up_records": shipped,
                "mirrored_files": restored_files, **rebind}

    # ----------------------------------------------------------------- fail-back --
    def fail_back(self) -> dict:
        """Return the serving lease to the home primary.

        The recovered ex-primary first rejoins as a witness (reversed-ship
        catch-up from its last-applied LSN; snapshot fallback on
        divergence), then the lease rotates back under a fence and the
        ex-witness resubscribes to the home primary's stream.
        """

        primary = self.primary
        if not primary.running:
            raise ReplicationError(
                f"cannot fail shard {self.name!r} back: primary "
                f"{primary.name!r} has not restarted")
        if not self.failed_over:
            return {"serving": self.home_primary, "epoch": self.epoch,
                    "failed_back": False}
        catch_up = None
        if self.home_primary not in self._streams:
            catch_up = self._rejoin(self.home_primary)
        summary = self.promote_to(self.home_primary)
        summary["failed_back"] = True
        if catch_up is not None:
            summary["rejoin"] = catch_up
        return summary

    # -------------------------------------------------------------------- resync --
    def _resync_subscriber(self, node_name: str) -> dict:
        """Snapshot catch-up of one subscriber from the serving repository.

        The heavyweight fallback: a catalog snapshot copy plus a cursor
        reset restores the invariant that subscriber heaps mirror the
        serving node's row ids exactly.  Used when a witness lost its
        replica state (its redo bypasses its own WAL by design) or a
        deposed node's durable state diverged from the serving lineage.
        """

        serving = self.serving
        if not serving.running:
            # A crashed node's catalog was reset by the crash; copying it
            # would destroy the subscriber's (possibly only) replica state.
            raise ReplicationError(
                f"cannot resync shard {self.name!r} from crashed primary "
                f"{serving.name!r}; restart it first")
        node = self.nodes[node_name]
        shipper = self._streams[node_name]
        # A full resync is a barrier across the pair (and its initiator).
        rendezvous(self.clock, serving.clock, node.clock)
        db = serving.dlfm.repository.db
        shipper.pause()
        db.wal.flush()
        node.dlfm.replica.reset_from_snapshot(db.catalog.snapshot(),
                                              db.wal.flushed_lsn)
        self._mirror_missing_content(node)
        rebind = node.dlfm.replica_catch_up({})
        shipper.cursor = db.wal.flushed_lsn
        shipper.resume()
        self._synced[node_name] = True
        self.full_resyncs += 1
        rendezvous(self.clock, serving.clock, node.clock)
        return {"resynced": True, **rebind}

    # ---------------------------------------------------------- crash / restart --
    def crash(self, node_name: str) -> None:
        """Crash one of the shard's nodes: its stream endpoint stops and,
        whatever its role, its replica state counts as lost."""

        self._daemons[node_name].stop()
        self.nodes[node_name].crash()
        self._synced[node_name] = False

    def _owed_catch_up(self, node_name: str) -> bool:
        """Is *node_name* up but off the serving node's stream, where it
        belongs?  Every node but the serving one belongs there, except a
        deposed home primary, which waits for :meth:`fail_back`."""

        return self.nodes[node_name].running and \
            node_name != self.serving_name and \
            not self.is_subscribed(node_name) and \
            (node_name in self._streams or node_name != self.home_primary)

    def _catch_up(self, node_name: str) -> dict:
        if not self.serving.running:
            # Nothing safe to copy from: a witness's applied state bypassed
            # its own WAL by design, so it waits for the serving node.
            return {"resynced": False, "deferred": "primary is down"}
        if node_name in self._streams:
            return self._resync_subscriber(node_name)
        return self._rejoin(node_name)

    def restart(self, node_name: str) -> dict:
        """Restart a crashed node; then every node owed a place on the
        serving node's stream catches up: a restarted subscriber, and the
        subscribers that waited for a restarted serving node.

        Every node recovers from its own log (a promoted witness also from
        its promotion-time checkpoint).  A subscriber resyncs from the
        serving node, or rejoins when a promotion detached it while it was
        down; a deposed home primary stays fenced until :meth:`fail_back`.
        """

        summary = self.nodes[node_name].recover()
        self._daemons[node_name].start()
        owed = [name for name in self.nodes if self._owed_catch_up(name)]
        if owed:
            summary["resync"] = {name: self._catch_up(name) for name in owed}
        return summary

    # ------------------------------------------------------------------- status --
    @property
    def shipped_records(self) -> int:
        return self._retired_shipped + sum(shipper.shipped_records
                                           for shipper in self._streams.values())

    @property
    def ship_errors(self) -> int:
        return self._retired_ship_errors + sum(shipper.ship_errors
                                               for shipper in self._streams.values())

    def status(self) -> dict:
        witness = self.witness
        home_witness = witness.name if witness is not None else None
        home_stream = self._streams.get(home_witness)
        status = {
            "serving": self.serving_name,
            "epoch": self.epoch,
            "failed_over": self.failed_over,
            "roles": self.roles(),
            "shipped_records": self.shipped_records,
            "ship_errors": self.ship_errors,
            "mirror_misses": self.mirror_misses,
            "witness_synced": bool(self._synced.get(home_witness)),
            "lag": home_stream.lag() if home_stream is not None else 0,
            "full_resyncs": self.full_resyncs,
            "reversed_catchups": self.reversed_catchups,
        }
        if witness is not None and witness.dlfm.replica is not None:
            status.update(witness.dlfm.replica.status())
        return status
