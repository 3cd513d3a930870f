"""Shard replication: WAL shipping, writable failover, reversed-ship fail-back.

The paper's architecture leaves every linked file under exactly one DLFM, so
a file-server crash makes that shard's files unreadable until recovery.
This module adds a *serving/witness* replication scheme per shard:

* :class:`WalShipper` streams the serving DLFM repository's **durable** WAL
  records to each witness over a daemon channel
  (:class:`~repro.datalinks.dlfm.daemons.ReplicaDaemon`), triggered by the
  repository WAL's flush hook -- only flushed records ship, so a witness
  can never hold a transaction the serving node could lose in a crash;
  shipping is a *pipelined* send in simulated time (the witness applies
  batches on its own clock domain; the sender pays only the enqueue cost),
  so replication overlaps the serving node's foreground work;
* :class:`ReplicaApplier` applies the shipped stream on a witness:
  committed transactions are redone into the witness repository, aborted
  ones are dropped, and transactions that shipped a PREPARE vote but no
  outcome are kept *in doubt* until promotion resolves them from the host
  database's durable outcome (two-phase commit across a failover);
* :class:`WitnessSoftState` holds the node-local soft state a witness
  accrues while serving *follower reads* (token-registry and Sync entries):
  the witness repository is redo-only -- its heaps must keep mirroring the
  serving node's row ids exactly -- so this state lives beside it and is
  migrated into the repository when the witness is promoted;
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
  serving lineage (it held records that never shipped) or the serving log
  has folded away the records it missed.

Failpoints fire at every replication step so the crash-matrix tests can
inject a primary crash mid-protocol: ``replicate:ship`` (before a WAL batch
leaves the sender), ``replicate:apply`` (before a witness applies a batch),
``replicate:promote`` / ``replicate:catchup`` / ``replicate:fence``
(inside promotion, in that order).
"""

from __future__ import annotations

from repro.datalinks.control_modes import ControlMode
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
            self._epochs[shard] = 1
            self._serving[shard] = node
            self.version += 1
            for listener in self._listeners:
                listener()
        return self._epochs[shard]

    def current_epoch(self, shard: str) -> int:
        return self._epochs.get(shard, 0)

    def serving_node(self, shard: str) -> str | None:
        return self._serving.get(shard)

    def promote(self, shard: str, node: str) -> int:
        """Make *node* the serving node of *shard*, bumping the epoch.

        Idempotent: promoting the node that already serves does not bump.
        """

        if shard not in self._epochs:
            return self.register(shard, node)
        if self._serving[shard] != node:
            self._epochs[shard] += 1
            self._serving[shard] = node
            self.version += 1
            for listener in self._listeners:
                listener()
        return self._epochs[shard]

    def is_current(self, shard: str, node: str) -> bool:
        try:
            return self._serving[shard] == node
        except KeyError:
            return node is None


class EpochGuard:
    """One node's lease on its shard, checked before serving upcalls."""

    def __init__(self, registry: EpochRegistry, shard: str, node: str):
        self.registry = registry
        self.shard = shard
        self.node = node

    @property
    def fenced(self) -> bool:
        # ``not self.registry.is_current(...)`` with the lookup written out
        # inline -- this gate runs before every served upcall.
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

_DATA_RECORDS = (LogRecordType.INSERT, LogRecordType.UPDATE,
                 LogRecordType.DELETE, LogRecordType.CLR)

#: Repository tables whose rows are node-local soft state: every node keeps
#: (and enforces against) its own, so a serving-side write to them does not
#: make a follower stale.
_SOFT_STATE_TABLES = frozenset({"token_entries", "sync_entries"})

_OUTCOME_RECORDS = (LogRecordType.COMMIT, LogRecordType.ABORT,
                    LogRecordType.PREPARE)


class ReplicaApplier:
    """Applies the primary's shipped WAL stream to the witness repository.

    Data records are buffered per transaction and redone only once the
    transaction's COMMIT arrives (the witness never exposes uncommitted
    primary state).  A transaction whose PREPARE shipped but whose outcome
    did not is held in doubt; :meth:`resolve_in_doubt` drives it to the
    coordinator's durable outcome during promotion.

    The witness repository's heaps mirror the primary's row ids exactly, so
    redo is positional; the one deliberate divergence is the ``ino`` column
    of ``linked_files``, which is rebound to the witness file system's inode
    numbers as rows arrive (the primary's inode numbers are meaningless on
    another node).
    """

    def __init__(self, database, files=None, failpoints: dict | None = None):
        self._db = database
        self._files = files
        self.failpoints = failpoints if failpoints is not None else {}
        self._pending: dict[int, list] = {}
        self._prepared: dict[int, int | None] = {}
        self.applied_lsn = LSN(0)
        self.applied_commits = 0
        self.applied_records = 0
        self.dropped_txns = 0
        #: Paths whose local bytes predate a committed update-in-place on
        #: the serving node: the ``linked_files`` row (new ``last_size`` /
        #: ``last_mtime``) replicated over the stream, but the rewritten
        #: content did not -- the mirror copy was taken at ingest.  The
        #: router skips these witnesses for follower reads of the file;
        #: rejoin/resync/promotion refresh the copy and clear the mark.
        self.stale_paths: set[str] = set()

    def _fire(self, point: str) -> None:
        hook = self.failpoints.get(point)
        if hook is not None:
            hook()

    # ------------------------------------------------------------------ apply --
    def apply(self, records: list) -> dict:
        """Apply one shipped batch; returns counters for the daemon reply."""

        if records and self.failpoints:
            self._fire("replicate:apply")
        commits = aborts = 0
        pending = self._pending
        for record in records:
            if record.type in _DATA_RECORDS:
                try:
                    pending[record.txn_id].append(record)
                except KeyError:
                    pending[record.txn_id] = [record]
            elif record.type is LogRecordType.PREPARE:
                self._prepared[record.txn_id] = record.extra.get("host_txn_id")
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
            elif record.type is LogRecordType.DROP_TABLE:
                if self._db.catalog.has_table(record.table):
                    self._db.catalog.drop_table(record.table)
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
            db = self._db
            redo = self._redo
            files = self._files
            applied = 0
            run = 0
            for record in records:
                if files is not None and record.table == "linked_files":
                    # Redoing a link row can touch the local file system
                    # (its charges would interleave with deferred
                    # ``row_write`` charges), so flush the batched run
                    # first and charge this record's write in place.
                    if run:
                        db._charge_run("row_write", run)
                        run = 0
                    if redo(record):
                        applied += 1
                        db._charge("row_write")
                elif redo(record):
                    applied += 1
                    run += 1
            if run:
                db._charge_run("row_write", run)
            self.applied_records += applied
        try:
            del self._prepared[txn_id]
        except KeyError:
            pass
        self.applied_commits += 1

    def _drop_txn(self, txn_id: int) -> None:
        try:
            del self._pending[txn_id]
            self.dropped_txns += 1
        except KeyError:
            pass
        try:
            del self._prepared[txn_id]
        except KeyError:
            pass

    def _redo(self, record) -> bool:
        """Redo one data record into the witness heaps, maintaining indexes.

        Returns whether the record was applied (its ``row_write`` cost is
        charged by the caller, batched across the transaction).
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
        is_link_row = record.table == "linked_files" and self._files is not None
        if after is not None and is_link_row:
            after = dict(after, ino=self._local_ino(after["path"], record.rid))
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
            if is_link_row:
                self._constrain_local_file(after)
        elif effective is LogRecordType.DELETE:
            if heap.exists(record.rid):
                before = heap.get(record.rid)
                db.catalog.index_remove(record.table, before, record.rid)
                heap.delete(record.rid)
                if is_link_row:
                    self.stale_paths.discard(before["path"])
                    self._release_local_file(before)
        return True

    def _constrain_local_file(self, row: dict) -> None:
        """Apply the link's access constraints to the mirrored copy.

        The link ran on the primary, so its ownership takeover / read-only
        marking never touched this node's files -- without this, a bare URL
        read through the witness would bypass the token checks that guard
        the primary's copy.
        """

        path = row["path"]
        if not self._files.exists(path):
            return
        mode = ControlMode.from_string(row["control_mode"])
        if mode.takes_over_on_link:
            self._files.take_over(path, mode=0o400)
        elif mode.made_read_only_on_link:
            attrs = self._files.stat(path)
            if attrs.mode & 0o222:
                self._files.chmod(path, attrs.mode & ~0o222)

    def _release_local_file(self, row: dict) -> None:
        """Undo the local constraints when an unlink replicates over."""

        path = row["path"]
        if not self._files.exists(path):
            return
        if row.get("on_unlink") == "DELETE":
            self._files.unlink(path)
            return
        mode = ControlMode.from_string(row["control_mode"])
        if mode.takes_over_on_link or mode.made_read_only_on_link:
            self._files.restore_ownership(path, row["original_uid"],
                                          row["original_gid"],
                                          row["original_mode"])

    def _local_ino(self, path: str, rid: int) -> int:
        """The witness inode for *path*, or a placeholder while it is absent.

        Keeping the primary's inode would eventually collide with a real
        witness inode in the unique ``linked_files_ino`` index; ``-rid`` is
        negative (no real inode is) and unique per row.  Promotion rebinds
        the real inode once the content is restored.
        """

        try:
            return self._files.ino_of(path)
        except FileSystemError:
            return -rid

    # --------------------------------------------------------------- in doubt --
    def in_doubt_host_txns(self) -> list[int]:
        """Host transaction ids whose PREPARE shipped but whose outcome did not."""

        return sorted(host_txn_id for host_txn_id in self._prepared.values()
                      if host_txn_id is not None)

    def resolve_in_doubt(self, outcomes: dict) -> dict:
        """Drive shipped in-doubt transactions to the coordinator's outcome.

        ``outcomes`` maps host transaction id to ``"committed"`` /
        ``"aborted"`` / ``"unknown"``; anything but a durable commit is
        presumed aborted, exactly like a recovering participant.  Local
        transactions that never voted cannot have committed and are dropped.
        """

        committed, aborted = [], []
        for txn_id, host_txn_id in sorted(self._prepared.items()):
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
        self._prepared.clear()
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
# witness-local soft state (follower reads)
# ---------------------------------------------------------------------------

class WitnessSoftState:
    """Node-local token-registry and Sync entries for follower reads.

    A witness serving reads must register validated tokens (fs_lookup) and
    Sync entries (open of a full-control file) like any DLFM, but it cannot
    write them into its repository heaps: those are redo-only and must keep
    mirroring the serving node's row ids exactly, or positional redo of the
    shipped stream would corrupt them.  This ephemeral store holds that
    state beside the repository.  It is volatile -- cleared by a crash,
    exactly like the branch table -- and migrated into the real repository
    when the node is promoted to a full primary (whose repository writes go
    through its own WAL again).
    """

    def __init__(self):
        #: ``(path, userid) -> [(token_type, expires_at), ...]`` in
        #: registration order: a follower read looks at the caller's own
        #: entries only, like the repository's ``(path, userid)`` index.
        self.token_entries: dict[tuple, list[tuple]] = {}
        #: ``path -> [(access, userid), ...]`` in open order.
        self.sync_entries: dict[str, list[tuple]] = {}

    # ----------------------------------------------------------------- tokens --
    def add_token_entry(self, path: str, userid: int, token_type: str,
                        expires_at: float) -> None:
        self.token_entries.setdefault((path, userid), []).append(
            (token_type, expires_at))

    def find_token_entry(self, path: str, userid: int, *, for_write: bool,
                         now: float) -> dict | None:
        for token_type, expires_at in \
                self.token_entries.get((path, userid), ()):
            if expires_at < now:
                continue
            if for_write and token_type != "W":
                continue
            return {"path": path, "userid": userid,
                    "token_type": token_type, "expires_at": expires_at}
        return None

    def purge_expired_tokens(self, now: float) -> int:
        purged = 0
        for key, entries in list(self.token_entries.items()):
            live = [entry for entry in entries if entry[1] >= now]
            purged += len(entries) - len(live)
            if live:
                self.token_entries[key] = live
            else:
                del self.token_entries[key]
        return purged

    def all_token_entries(self) -> list[dict]:
        """Every token entry, each key's entries in registration order."""

        return [{"path": path, "userid": userid,
                 "token_type": token_type, "expires_at": expires_at}
                for (path, userid), entries in self.token_entries.items()
                for token_type, expires_at in entries]

    # ------------------------------------------------------------ sync entries --
    def add_sync_entry(self, path: str, access: str, userid: int) -> None:
        self.sync_entries.setdefault(path, []).append((access, userid))

    def remove_sync_entry(self, path: str, access: str, userid: int) -> int:
        entries = self.sync_entries.get(path, [])
        try:
            entries.remove((access, userid))
        except ValueError:
            return 0
        if not entries:
            del self.sync_entries[path]
        return 1

    def sync_entries_for(self, path: str) -> list[dict]:
        return [{"path": path, "access": access, "userid": userid}
                for access, userid in self.sync_entries.get(path, ())]

    def all_sync_entries(self) -> list[dict]:
        """Every Sync entry, each path's entries in open order."""

        return [entry for path in self.sync_entries
                for entry in self.sync_entries_for(path)]

    def clear(self) -> None:
        self.token_entries.clear()
        self.sync_entries.clear()


# ---------------------------------------------------------------------------
# serving-side shipping
# ---------------------------------------------------------------------------

class WalShipper:
    """Streams the primary repository's durable WAL records to the witness.

    Registered as a flush listener on the primary repository's WAL, so
    shipping is continuous: every log force (commit, group-commit drain,
    prepare vote) pushes the newly durable suffix through the replica
    daemon channel.  A witness that is down does not stall the primary --
    the cursor simply stops advancing and the records ship on the next
    successful flush or an explicit :meth:`ship` (the *replica lag* the
    failover tests exercise).  The shipper is the listener's *reader*: the
    log folds nothing while the cursor is behind its tail (see
    :mod:`repro.storage.wal`), so a paused or cut-off stream loses nothing.
    """

    def __init__(self, repository, channel: Channel,
                 failpoints: dict | None = None):
        self._repository = repository
        self._channel = channel
        self.failpoints = failpoints if failpoints is not None else {}
        self.cursor: LSN = repository.durable_lsn()
        self.paused = False
        self.shipped_records = 0
        self.ship_errors = 0
        repository.add_wal_listener(self._on_flush, reader=self)

    def _fire(self, point: str) -> None:
        hook = self.failpoints.get(point)
        if hook is not None:
            hook()

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
        if self.failpoints:
            self._fire("replicate:ship")
        # Pipelined: the primary does not wait for the witness to apply.
        self._channel.post("apply_wal", records=records)
        self.cursor = records[-1].lsn
        self.shipped_records += count
        return count

    def lag(self) -> int:
        """Durable serving-side records the witness has not received yet."""

        return len(self._repository.wal_records_since(self.cursor))

    def pending_lag(self) -> int:
        """Hard-state records the witness has not applied, durable or not.

        This is the *staleness* measure follower reads are bounded by: a
        group-commit window can hold committed-and-visible transactions
        whose records have not been forced (and therefore not shipped), and
        a witness missing them must not be treated as caught up -- its
        mirrored file copies have not had the link-time access constraints
        applied yet, so serving from it would not merely be stale, it would
        skip token enforcement.

        Node-local soft state is excluded: token-registry and Sync rows are
        per-node semantics anyway (a witness validates against its own
        store), so a serving-side token handout must not disqualify the
        witness.  Outcome markers count exactly when their transaction
        touched hard state -- the dangerous shape is a link whose data and
        PREPARE shipped (buffered on the witness, awaiting the outcome)
        while the COMMIT still sits in the serving node's group-commit
        window.
        """

        count = 0
        hard_txn: dict[int, bool] = {}
        for record in self._repository.wal_records_pending(self.cursor):
            if record.table is not None:
                if record.table not in _SOFT_STATE_TABLES:
                    count += 1
                continue
            if record.type not in _OUTCOME_RECORDS:
                continue            # checkpoints etc.: nothing to apply
            txn_id = record.txn_id
            if txn_id not in hard_txn:
                hard_txn[txn_id] = self._txn_touches_hard_state(record)
            if hard_txn[txn_id]:
                count += 1
        return count

    @staticmethod
    def _txn_touches_hard_state(outcome) -> bool:
        """Whether the transaction *outcome* ends wrote a hard-state table:
        a walk back over its own records (``LogRecord.prev``), so a paused
        witness with a long backlog costs O(transaction) per outcome."""

        record = outcome.prev
        while record is not None:
            if record.table is not None and \
                    record.table not in _SOFT_STATE_TABLES:
                return True
            record = record.prev
        return False

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
    :class:`~repro.datalinks.routing.ReplicationRouter` reads roles from
    here; the DLFMs enforce them through epoch fencing plus the follower
    read gate.
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
        #: Set by :meth:`ReplicationRouter.register_replicated`; provides the
        #: follower-read policy (on/off switch and staleness bound).
        self.router = None
        self.home_primary = primary.name
        self.nodes = {primary.name: primary}
        for node in witnesses:
            self.nodes[node.name] = node
        #: Fault-injection hooks shared by every shipper, applier and
        #: promotion: ``replicate:ship``, ``replicate:apply``,
        #: ``replicate:promote``, ``replicate:catchup``, ``replicate:fence``.
        self.failpoints: dict = {}
        registry.register(name, primary.name)
        #: The current lease holder's name, refreshed by registry push
        #: (``_refresh_serving``): read routing touches this on every
        #: request and a plain attribute beats re-resolving per read.
        self.serving_name = registry.serving_node(name)
        registry.subscribe(self._refresh_serving)
        self._daemons = {}
        for node in self.nodes.values():
            node.dlfm.set_fencing(EpochGuard(registry, name, node.name))
            node.dlfm.set_read_gate(
                lambda node_name=node.name: self._read_gate(node_name))
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
        self.full_resyncs = 0
        self.reversed_catchups = 0
        for node in witnesses:
            self._subscribe(node.name)

    def _fire(self, point: str) -> None:
        hook = self.failpoints.get(point)
        if hook is not None:
            hook()

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
        """The first home witness (single-witness compatibility surface)."""

        return self.witnesses[0]

    @property
    def shipper(self) -> WalShipper | None:
        """The stream feeding the first home witness, while one exists."""

        return self._streams.get(self.witness.name)

    @property
    def applier(self) -> ReplicaApplier | None:
        """The first home witness's applier, while it is subscribed."""

        return self.witness.dlfm.replica

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
    def follower_eligible(self, node_name: str, max_lag: int = 0) -> bool:
        """May *node_name* serve a bounded-staleness read right now?

        Requires a live stream end to end: the node is a synced subscriber
        with its daemon up, the serving node is running (the staleness
        bound is derived from shipper lag, which is only meaningful against
        a live source), shipping is not paused, and the lag is within
        *max_lag* records.
        """

        try:
            node = self.nodes[node_name]
        except KeyError:
            return False
        if not node.running:
            return False
        serving_name = self.serving_name
        if node_name == serving_name:
            return False
        # ``is_subscribed`` written out inline (this gate runs per routed
        # follower read): a synced subscriber has a stream, a live applier
        # and a True entry in the synced map.
        try:
            shipper = self._streams[node_name]
        except KeyError:
            return False
        if node.dlfm.replica is None:
            return False
        try:
            if not self._synced[node_name]:
                return False
        except KeyError:
            return False
        if not self._daemons[node_name].running:
            return False
        if not self.nodes[serving_name].running:
            return False
        if shipper.paused:
            return False
        # Steady-state shortcut for ``shipper.pending_lag() <= max_lag``:
        # LSNs are append-ordered, so a ship cursor at (or past) the WAL
        # tail means nothing is pending and the lag is exactly zero --
        # no record scan or hard-state classification needed.
        if shipper._repository.db.wal.tail_lsn() <= shipper.cursor:
            return 0 <= max_lag
        return shipper.pending_lag() <= max_lag

    def _read_gate(self, node_name: str) -> bool:
        """DLFM-side gate: may this node accept read-path upcalls?"""

        if node_name == self.serving_name:
            return True
        if self.router is not None:
            return self.router.follower_ok(self.name, node_name)
        return self.follower_eligible(node_name)

    # ------------------------------------------------------- stream management --
    def _subscribe(self, node_name: str, base: LSN | None = None) -> WalShipper:
        """Attach *node_name* to the serving node's WAL stream.

        With *base*, shipping and applying pick up at that LSN of the
        serving repository's sequence (the reversed-ship rejoin path);
        without it, at the current durable frontier (fresh witnesses, whose
        bootstrapped repository equals the serving node's).
        """

        node = self.nodes[node_name]
        applier = node.dlfm.enable_replica_mode(failpoints=self.failpoints)
        channel = Channel(self._daemons[node_name], self.serving.clock,
                          latency_primitive="db_dlfm_message")
        shipper = WalShipper(self.serving.dlfm.repository, channel,
                             failpoints=self.failpoints)
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

    def mirror_file(self, path: str, content: bytes, uid: int, gid: int) -> None:
        """Copy a just-ingested file to every subscriber (same path/owner).

        Runs below DLFS (the DLFM-privileged path) so mirroring never
        recurses into DataLinks interception on the witness.  A crashed
        witness misses the mirror (counted, like a missed WAL shipment);
        promotion or rejoin later restores what it can from the archive or
        the serving node's copy.
        """

        for node_name in list(self._streams):
            node = self.nodes[node_name]
            if not node.running:
                self.mirror_misses += 1
                continue
            # Synchronous mirror: the ingest path waits for the witness copy
            # (that durability is exactly why promotion can serve the
            # content), so the witness domain syncs up and the caller merges
            # back after.
            with synchronized_call(self.clock, node.clock):
                self._copy_below_dlfs(node, path, content, uid, gid)

    def receive_file(self, path: str, content: bytes, uid: int, gid: int) -> None:
        """Ingest a handed-off file: serving-node copy plus witness mirror.

        The content half of a prefix rebalance into this shard -- written
        below DLFS on the serving node and mirrored to every subscriber in
        the same step, so witness placement follows the prefix: a
        promotion *after* the move can serve the moved files from this
        shard's witness set (the repository rows arrive over the normal
        WAL stream when the hand-off branch commits).
        """

        with synchronized_call(self.clock, self.serving.clock):
            self._copy_below_dlfs(self.serving, path, content, uid, gid)
        self.mirror_file(path, content, uid, gid)

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

    def content_stale(self, node_name: str, path: str) -> bool:
        """Does *node_name*'s copy of *path* predate a committed
        update-in-place?  Router-facing (see
        :attr:`ReplicaApplier.stale_paths`)."""

        node = self.nodes.get(node_name)
        if node is None:
            return False
        applier = node.dlfm.replica
        return applier is not None and path in applier.stale_paths

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
            # The most caught-up witness loses the least (normally they tie
            # at lag zero, since shipping rides every log force).
            return max(eligible,
                       key=lambda name: self.nodes[name].dlfm.replica
                       .applied_lsn.value)
        witness = self.witness
        if not witness.running:
            raise ReplicationError(
                f"cannot promote shard {self.name!r}: witness "
                f"{witness.name!r} is down (recover it first)")
        if not self._synced.get(witness.name):
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
        **full primary**: it leaves redo-only replica mode (migrating its
        follower-read soft state into the repository) and checkpoints, so
        the redo-applied state survives its own crashes.  Finally the
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
                f"{target_name!r} is down (recover it first)")
        if not self._synced.get(target_name):
            raise ReplicationError(
                f"cannot promote shard {self.name!r}: witness "
                f"{target_name!r} lost its replica state and has not "
                f"resynced from the primary")
        self._fire("replicate:promote")
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
            self._fire("replicate:catchup")
            applier = target.dlfm.replica
            outcomes = self.engine.host_transaction_outcomes(
                applier.in_doubt_host_txns())
            summary = target.dlfm.replica_catch_up(outcomes)
            self._fire("replicate:fence")
            epoch = self.registry.promote(self.name, target_name)
            # Past the fence: the target is a full primary now.  Sample the
            # inherited Sync entries before the soft-state migration so the
            # post-promotion rollback can tell the deposed node's opens
            # apart from this node's own live follower reads.
            inherited_sync = target.dlfm.inherited_sync_entry_ids()
            self._detach_stream(target_name)
            self._synced.pop(target_name, None)
            summary["soft_state"] = target.dlfm.disable_replica_mode()
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
        # received) voids the fast path and forces the snapshot fallback.
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
                target.dlfm.rollback_inherited_updates(inherited_sync)
            target.dlfm.repository.db.wal.flush()
        summary.update({"promoted": True, "epoch": epoch,
                        "serving": target_name})
        return summary

    # ------------------------------------------------------------------- rejoin --
    def rejoin(self, node_name: str) -> dict:
        """Re-admit a recovered deposed node as a witness subscriber.

        Fast path: the node subscribes to the current serving node's WAL
        stream at the LSN recorded when it was deposed -- its own
        last-applied point in the serving lineage -- and catches up by
        shipping only the records it missed (plus a content delta for files
        ingested while it was gone).  No snapshot resync.  The fallback
        snapshot path runs when the deposed node's durable state diverged
        from the serving lineage, or when the serving log has folded the
        records it missed away (:class:`~repro.errors.LogFoldedError`).
        """

        node = self.nodes[node_name]
        if node_name == self.serving_name:
            raise ReplicationError(
                f"node {node_name!r} is serving shard {self.name!r}; "
                f"there is nothing to rejoin")
        if not node.running:
            raise ReplicationError(
                f"cannot rejoin {node_name!r} to shard {self.name!r}: "
                f"the node is down (recover it first)")
        if node_name in self._streams:
            return {"rejoined": False, "already_subscribed": True}
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
        # The flush listener ships the whole missed suffix; the explicit
        # ship() only mops up if nothing needed flushing.
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
                f"{primary.name!r} has not recovered")
        if not self.failed_over:
            return {"serving": self.home_primary, "epoch": self.epoch,
                    "failed_back": False}
        catch_up = None
        if self.home_primary not in self._streams:
            catch_up = self.rejoin(self.home_primary)
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
                f"{serving.name!r}; recover it first")
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

    def resync(self) -> dict:
        """Snapshot-resync every running subscriber from the serving node."""

        if not self.serving.running:
            raise ReplicationError(
                f"cannot resync shard {self.name!r} from crashed primary "
                f"{self.serving_name!r}; recover it first")
        results = {}
        for node_name in list(self._streams):
            if self.nodes[node_name].running:
                results[node_name] = self._resync_subscriber(node_name)
        if len(results) == 1:
            return next(iter(results.values()))
        return {"resynced": True, "nodes": results}

    # ------------------------------------------------------------ witness faults --
    def crash_witness(self, witness_name: str | None = None) -> None:
        name = witness_name or self.witness.name
        self._daemons[name].stop()
        self.nodes[name].crash()
        self._synced[name] = False

    def recover_witness(self, witness_name: str | None = None) -> dict:
        """Restart a witness and, when the serving node is up, resync it.

        With the serving node also down there is nothing safe to resync
        from; the witness comes back empty-handed (its applied state
        bypassed its own WAL by design) and catches up once the serving
        node recovers.  A crashed *serving* witness recovers like any
        primary: from its own WAL and the promotion-time checkpoint.
        """

        name = witness_name or self.witness.name
        node = self.nodes[name]
        summary = node.recover()
        if name == self.serving_name:
            return summary
        self._daemons[name].start()
        if name not in self._streams:
            if self.serving.running:
                summary["resync"] = self.rejoin(name)
            else:
                summary["resync"] = {"resynced": False,
                                     "deferred": "primary is down"}
            return summary
        if self.serving.running:
            summary["resync"] = self._resync_subscriber(name)
        else:
            summary["resync"] = {"resynced": False,
                                 "deferred": "primary is down"}
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
        home_witness = self.witness.name
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
        applier = self.witness.dlfm.replica
        if applier is not None:
            status.update(applier.status())
        return status
