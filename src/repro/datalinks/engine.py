"""The DataLinks engine: the host-DBMS side of DataLinks.

The engine extends the host database with DATALINK awareness:

* INSERT/DELETE statements that touch DATALINK columns drive link and
  unlink operations at the responsible file server's DLFM *inside the same
  transaction* (the DLFM branch is a sub-transaction, committed through
  two-phase commit with the host database as coordinator); a DATALINK
  value changes through a DELETE and an INSERT;
* SELECTing a DATALINK value can embed a read or write access token in the
  returned URL (Section 4.1);
* when a managed file update commits, the engine updates registered metadata
  columns (size, modification time) of the rows referencing that file in the
  same transaction as the DLFM's close processing (Section 4.3); that
  transaction commits in one round trip (Section 4.2): the closing DLFM's
  request carries its yes-vote and the host's reply carries the commit
  (:meth:`DataLinksEngine.commit_file_update`).

Scale-out additions (beyond the paper):

* **batched link pipelines** -- a statement collects its link/unlink work
  per file server and ships it as one IPC message per server
  (:meth:`DataLinksEngine.insert_many`, and the unlinks of ``delete``)
  instead of one round trip per row;
* **group commit** -- :meth:`DataLinksEngine.commit` resolves a group of
  host transactions (one transaction is a group of one) with one prepare
  and one commit message per enlisted server and a single host log force
  (:meth:`~repro.storage.database.Database.commit_many`);
* **failpoints** -- named crash-injection hooks inside the two-phase commit
  so the crash-matrix tests can stop the coordinator at every protocol step
  (:attr:`DataLinksEngine.failpoints`, the deployment's one table; every
  point is registered in :mod:`repro.util.failpoints`);
* **clock-domain awareness** -- link/unlink batches are *pipelined* sends
  (the enlisted shard does the work on its own clock domain while the host
  keeps executing SQL), and the prepare/commit fan-outs run inside an
  overlap window on the host's clock, so a transaction enlisting N shards
  pays the slowest participant instead of the sum of all participants (see
  :mod:`repro.simclock`).  Every engine entry point executes on the *host*
  domain: a session bound to a client clock domain barriers with the host
  (:func:`repro.simclock.synchronized_call`) around each SQL call, so
  concurrent clients serialize here exactly where a shared coordinator
  would make them -- their client-side fan-out (reads, uploads, think
  time) runs un-barriered on their own domains;
* **host-side token cache** -- :meth:`DataLinksEngine.enable_token_cache`
  lets repeated ``get_datalink`` calls for the same (path, access) reuse a
  still-live token instead of regenerating the HMAC, with hit-rate counters.
  A :class:`~repro.datalinks.sharding.ShardedDataLinksDeployment` always
  runs with it on; a plain :class:`~repro.api.system.DataLinksSystem` does
  not, so E1--E10 measure per-SELECT minting, as the paper does (only E1's
  cache row and E9's web site turn it on).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datalinks.datalink_type import DatalinkOptions, options_of_column
from repro.datalinks.dlfm.daemons import DLFMConnection, MainDaemon
from repro.util.failpoints import FailpointTable, fire
from repro.datalinks.tokens import TokenCache, TokenManager, TokenType
from repro.errors import (
    ControlModeError,
    DataLinksError,
    IPCError,
    PlacementEpochError,
    ReproError,
)
from repro.simclock import SimClock
from repro.storage.database import Database
from repro.storage.transaction import Transaction
from repro.storage.values import DataType
from repro.util.lsn import LSN
from repro.util.urls import format_url, parse_url


@dataclass
class HostTransaction:
    """A host transaction plus the set of file servers enlisted in it.

    ``voted`` names the participant whose yes-vote came with its request
    (a DLFM committing a closed file update, :meth:`DataLinksEngine.
    commit_file_update`): the prepare fan-out skips it, and its commit or
    abort rides the reply instead of a message of its own.
    """

    txn: Transaction
    servers: set[str] = field(default_factory=set)
    voted: str | None = None

    @property
    def txn_id(self) -> int:
        return self.txn.txn_id


@dataclass
class _FileServerEntry:
    name: str
    manager: object
    connection: DLFMConnection
    tokens: TokenManager


@dataclass
class _MetadataRule:
    table: str
    column: str
    size_column: str | None
    mtime_column: str | None
    #: The prepared UPDATE binding *column* to a referenced file's path.
    update: object


class _ColumnPlan:
    """What token handout needs of one ``(table, column)``, resolved once.

    All of it is fixed by the schema: that the column is a DATALINK, its
    control mode, its default token TTL and, per access kind the mode
    grants, the token type to mint (``None``: the URL goes out bare).  Like
    a prepared statement the plan re-resolves itself when ``db.catalog`` or
    ``catalog.version`` differs, so DDL, ``crash`` / ``recover`` and
    ``restore`` need no hook; ``selects`` holds such a statement, the
    SELECT, per ``where`` shape -- one handout pays each shape's statement
    base once, however many of its keys it binds
    (:meth:`DataLinksEngine.get_datalink_many`).
    """

    __slots__ = ("table", "column", "selects", "catalog", "version", "mode",
                 "ttl", "token_types")

    def __init__(self, table: str, column: str):
        self.table = table
        self.column = column
        self.selects: dict[tuple, object] = {}
        self.catalog = None

    def resolve(self, catalog) -> None:
        schema_column = catalog.schema(self.table).column(self.column)
        if schema_column.dtype is not DataType.DATALINK:
            raise ControlModeError(
                f"column {self.column!r} is not a DATALINK column")
        options = options_of_column(schema_column)
        self.mode = mode = options.control_mode
        self.ttl = options.token_ttl
        self.token_types = {
            "read": TokenType.READ if mode.requires_read_token else None}
        if mode.supports_update:
            self.token_types["write"] = TokenType.WRITE
        self.catalog = catalog
        self.version = catalog.version

    def refusal(self, access: str) -> ControlModeError:
        """Why ``token_types`` has no entry for *access*."""

        if access != "write":
            return ControlModeError(f"unknown access kind {access!r}")
        mode = self.mode
        return ControlModeError(
            f"files linked in {mode.value} mode cannot be updated through "
            f"the database (write access is "
            f"{'blocked' if mode.write_blocked else 'file-system controlled'})")


class _StatementTransaction:
    """``with _StatementTransaction(engine, host_txn) as active``: the
    caller's transaction, or one begun for this statement alone -- committed
    when the block ends, aborted when it raises an ``Exception``.  A commit
    that fails is finished too: aborted when the host did not commit, its
    participant commits re-sent when it did."""

    __slots__ = ("_engine", "_given", "_own")

    def __init__(self, engine: "DataLinksEngine",
                 host_txn: HostTransaction | None):
        self._engine = engine
        self._given = host_txn
        self._own = None

    def __enter__(self) -> HostTransaction:
        if self._given is not None:
            return self._given
        self._own = self._engine.begin()
        return self._own

    def __exit__(self, exc_type, exc, tb) -> None:
        own = self._own
        if own is None:
            return
        if exc_type is None:
            try:
                self._engine.commit(own)
            except ReproError:
                if own.txn.is_finished:
                    self._engine.redrive_commit(own)
                else:
                    self._engine.abort(own)
                raise
        elif issubclass(exc_type, Exception):
            self._engine.abort(own)


def _references_file(router, column: str, server: str, path: str):
    """Predicate: the row's DATALINK *column* references *path* as served
    by *server*.

    *server* is a physical node; the rows' URLs stay logical, so the test
    goes through the router: a URL names the node directly, or its owner
    shard's write traffic currently resolves there (a promoted witness
    after failover, the destination shard after a prefix rebalance).  The
    statement it refines binds the column to the path, so an index over the
    column -- keyed by referenced file, see :mod:`repro.storage.index` --
    enumerates only the rows naming that path; without one it scans.
    """

    def matches(row: dict) -> bool:
        url = row.get(column)
        if not url:
            return False
        parsed = parse_url(url)
        if parsed.path != path:
            return False
        if parsed.server == server:
            return True
        if router is None:
            return False
        owner = router.owner_shard(parsed.server, parsed.path)
        return router.writable_node(owner) == server

    return matches


class DataLinksEngine:
    """DATALINK processing inside the host database."""

    def __init__(self, host_db: Database, clock: SimClock,
                 default_token_ttl: float = 60.0):
        self.db = host_db
        self.clock = clock
        self._dispatch = clock.meter("datalink_engine_dispatch")
        self._message = clock.meter("db_dlfm_message")
        self.default_token_ttl = default_token_ttl
        self._servers: dict[str, _FileServerEntry] = {}
        self._metadata_rules: list[_MetadataRule] = []
        self._column_plans: dict[tuple, _ColumnPlan] = {}
        #: The deployment's one crash-injection table: the commit protocol,
        #: replication and the rebalance hand-off all fire into it.
        self.failpoints = FailpointTable()
        #: Optional host-side token cache (see :meth:`enable_token_cache`).
        self.token_cache: TokenCache | None = None
        #: Optional replication-aware router (see :meth:`set_router`).
        self.router = None

    # -------------------------------------------------------------- token cache --
    def enable_token_cache(self) -> TokenCache:
        """Cache handed-out tokens so repeated ``get_datalink`` calls for the
        same (path, access) skip HMAC generation while the token is live.

        A cached token is reused only while at least half of the
        *requested* TTL remains, so a caller never receives a token about
        to expire.  Returns the cache (its ``hits``/``misses`` counters
        feed experiment reporting).
        """

        self.token_cache = TokenCache(self.clock)
        return self.token_cache

    def token_cache_stats(self) -> dict:
        if self.token_cache is None:
            return {"enabled": False}
        return {"enabled": True, **self.token_cache.stats()}

    # ------------------------------------------------------------------ wiring --
    def register_file_server(self, name: str, manager, main_daemon: MainDaemon) -> None:
        """Register a file server: open a connection to its DLFM and share keys.

        The connection's message envelopes are stamped with the placement
        epoch the engine routed by, so a DLFM holding a newer map can
        refuse (and redirect) requests sent under a stale one.
        """

        connection = DLFMConnection(main_daemon, self.clock,
                                    client_name=f"engine:{name}",
                                    epoch_provider=self._placement_epoch)
        tokens = TokenManager(manager.token_secret, self.clock,
                              default_ttl=self.default_token_ttl)
        self._servers[name] = _FileServerEntry(name=name, manager=manager,
                                               connection=connection, tokens=tokens)
        manager.attach_engine(self)

    def set_router(self, router) -> None:
        """Route DLFM traffic through a replication-aware router.

        DATALINK URLs name the *logical* shard; with a router attached,
        every connection lookup resolves in two steps: the URL's
        ``(server, path)`` pair maps to the prefix's **current owner
        shard** (:meth:`~repro.datalinks.routing.ReplicationRouter.owner_shard`
        -- the epoched placement map, so a rebalanced prefix's traffic
        follows the move), and the owner maps to its serving node
        (:meth:`~repro.datalinks.routing.ReplicationRouter.writable_node`
        -- so a failed-over shard's traffic reaches the promoted witness).
        A transaction whose branch was taken on a node deposed before the
        prepare fan-out aborts cleanly: the new serving node has no branch
        for it and votes no.  Should a DLFM still refuse a dispatch with a
        :class:`~repro.errors.PlacementEpochError` (the engine's map was
        stale), the dispatch is redirected once to the owner the error
        names and counted in the router's ``stale_epoch_redirects``.
        """

        self.router = router

    def _placement_epoch(self) -> int | None:
        """The placement epoch stamped into DLFM message envelopes."""

        return self.router.placement.epoch if self.router is not None else None

    def _owner(self, server: str, path: str) -> str:
        """The shard currently owning *path* (identity without a router)."""

        if self.router is None:
            return server
        return self.router.owner_shard(server, path)

    def _entry(self, server: str) -> _FileServerEntry:
        name = self.router.writable_node(server) if self.router is not None \
            else server
        try:
            return self._servers[name]
        except KeyError:
            raise DataLinksError(f"no file server registered under {server!r}") from None

    def register_metadata_columns(self, table: str, column: str,
                                  size_column: str | None = None,
                                  mtime_column: str | None = None) -> None:
        """Declare which columns hold the auto-maintained file metadata.

        Metadata maintenance asks "which rows reference this file?" on
        every close of an updated file, so the DATALINK column gets an
        index if it has none (plain catalog DDL: index definitions are not
        part of the cost model's statement stream).
        """

        catalog = self.db.catalog
        if not any(index.columns == (column,)
                   for index in catalog.iter_indexes(table)):
            catalog.create_index(f"{table}_{column}_file", table, (column,))
        self._metadata_rules.append(_MetadataRule(
            table, column, size_column, mtime_column,
            self.db.prepare_update(table, (column,))))

    # ------------------------------------------------------------- transactions --
    def begin(self) -> HostTransaction:
        return HostTransaction(txn=self.db.begin())

    def commit(self, *host_txns: HostTransaction) -> LSN:
        """Two-phase commit of a group of host transactions across the host
        database and every DLFM they enlisted; one transaction is a group
        of one.

        Each enlisted server gets one ``prepare`` and one ``commit``
        message listing the group's transactions it holds a branch of.  A
        participant whose vote came with its request (``voted``) is left
        out of both for that transaction: its vote is already in, and its
        commit rides the reply to that request once this returns.  When
        any server is enlisted the group's COMMITs are appended and forced
        once (:meth:`~repro.storage.database.Database.commit_many`), before
        any participant commits; otherwise each transaction commits under
        the flush policy.  Each commit message carries the state id of
        every transaction it lists, its own COMMIT record's LSN, which dates
        the archive jobs that transaction's branch wrote.  Returns the last
        transaction's state id.
        """

        by_server: dict[str, list[int]] = {}
        for host_txn in host_txns:
            for server in host_txn.servers:
                txn_ids = by_server.setdefault(server, [])
                if server != host_txn.voted:
                    txn_ids.append(host_txn.txn_id)
        if by_server:
            amount, meter = self._dispatch
            self.clock.ticks += amount
            meter[0] += 1
        fire(self.failpoints, "commit:begin")
        # The prepare fan-out overlaps across participants: every vote
        # request departs at the window's start and the coordinator waits
        # for the slowest vote, not the sum of all votes.
        with self.clock.overlap():
            for server in sorted(by_server):
                txn_ids = by_server[server]
                if txn_ids:
                    votes = self._entry(server).connection.prepare(txn_ids)
                    if not all(votes):
                        # The server is enlisted, so it once held a branch;
                        # a missing branch means the DLFM crashed and lost
                        # it.  Refuse to commit a transaction whose
                        # file-side effects are gone.
                        lost = [txn_id for txn_id, vote in zip(txn_ids, votes)
                                if not vote]
                        raise DataLinksError(
                            f"file server {server!r} lost the branches of "
                            f"transactions {lost} (restarted?); the commit "
                            f"must abort")
                fire(self.failpoints, "commit:prepared", server)
        fire(self.failpoints, "commit:before_host_commit")
        if by_server:
            state_ids = self.db.commit_many([host_txn.txn
                                             for host_txn in host_txns])
        else:
            state_ids = [self.db.commit(host_txn.txn)
                         for host_txn in host_txns]
        fire(self.failpoints, "commit:after_host_commit")
        dated = dict(zip((host_txn.txn_id for host_txn in host_txns),
                         state_ids))
        with self.clock.overlap():
            for server in sorted(by_server):
                txn_ids = by_server[server]
                if txn_ids:
                    self._entry(server).connection.commit(
                        txn_ids, [dated[txn_id] for txn_id in txn_ids])
                    fire(self.failpoints, "commit:committed", server)
        return state_ids[-1]

    def commit_file_update(self, host_txn: HostTransaction, server: str,
                           path: str, size: int, mtime: float) -> LSN:
        """The host side of a close-time commit (Sections 4.2 and 4.3).

        The request of the DLFM on *server*, which has written its branch
        of *host_txn* and forced its PREPARE, carries its yes-vote and the
        closed file's size and mtime: one ``db_dlfm_message`` round trip,
        the only message of the commit.  The host runs the metadata
        UPDATE, then :meth:`commit` (no prepare to *server*; the COMMIT is
        forced) and replies with the commit's state id, on which the DLFM
        commits its branch.  A refusal -- the UPDATE raising a
        :class:`~repro.errors.ReproError` -- aborts the host transaction
        and is the reply: the DLFM aborts its prepared branch.  Anything
        else that raises is a crash, and no reply comes (the branch stays
        in doubt and is resolved from the host's durable outcome).
        """

        amount, meter = self._message
        self.clock.ticks += amount
        meter[0] += 1
        host_txn.servers.add(server)
        host_txn.voted = server
        try:
            self.update_file_metadata(server, path, size, mtime, host_txn)
        except ReproError:
            self.abort(host_txn)
            raise
        return self.commit(host_txn)

    def redrive_commit(self, *host_txns: HostTransaction) -> None:
        """Re-send participant commits for durably committed transactions.

        Used when a commit batch failed partway through its participant
        commits: the host outcome is already durable, so the surviving
        servers must commit (a missing branch is ignored -- it already
        committed) and unreachable servers are left to resolve their
        in-doubt branches from the host outcome during recovery.  Each
        enlisted server gets one ``commit`` listing its transactions, each
        with its own COMMIT record's state id, as :meth:`commit` sends it.
        """

        dated: dict[int, LSN] = {}
        by_server: dict[str, list[int]] = {}
        for host_txn in host_txns:
            dated[host_txn.txn_id] = self.host_commit_state(host_txn.txn_id)
            for server in host_txn.servers:
                by_server.setdefault(server, []).append(host_txn.txn_id)
        with self.clock.overlap():
            for server, txn_ids in sorted(by_server.items()):
                try:
                    self._entry(server).connection.commit(
                        txn_ids, [dated[txn_id] for txn_id in txn_ids])
                except IPCError:
                    pass

    # ------------------------------------------------------- prefix hand-off --
    def rebalance_export(self, host_txn: HostTransaction, source: str,
                         prefix: str) -> dict:
        """Enlist *source* and hand the prefix's repository state off."""

        host_txn.servers.add(source)
        return self._entry(source).connection.rebalance_export(
            host_txn.txn_id, prefix)

    def rebalance_import(self, host_txn: HostTransaction, dest: str,
                         rows: list, versions: list) -> dict:
        """Enlist *dest* and adopt handed-off rows and version chains."""

        host_txn.servers.add(dest)
        return self._entry(dest).connection.rebalance_import(
            host_txn.txn_id, rows, versions)

    def abort(self, host_txn: HostTransaction) -> None:
        """Abort everywhere.  Unreachable file servers are tolerated: a
        crashed DLFM lost its volatile branch anyway, and a prepared branch
        it persisted is resolved by presumed abort during its recovery.
        The ``voted`` participant's abort rides the refusal it is sent."""

        with self.clock.overlap():
            for server in sorted(host_txn.servers):
                if server == host_txn.voted:
                    continue
                try:
                    self._entry(server).connection.abort(host_txn.txn_id)
                except IPCError:
                    pass
        if not host_txn.txn.is_finished:
            self.db.abort(host_txn.txn)

    # ------------------------------------------------- in-doubt resolution --
    def host_commit_state(self, host_txn_id: int) -> LSN | None:
        """The state id of a host transaction's durable commit, ``None``
        when it has none: what a DLFM dates an archive job by when a crash
        or a promotion lost the commit message that carried it."""

        return self.db.commit_state_of(host_txn_id)

    def host_transaction_outcomes(self, host_txn_ids) -> dict:
        """Durable outcomes for a batch of host transactions.

        One conceptual round trip instead of one per transaction: a
        promoted witness replica resolves the whole in-doubt portion of its
        shipped WAL stream with a single call during failover.
        """

        return {host_txn_id: self.db.txn_outcome(host_txn_id)
                for host_txn_id in host_txn_ids}

    # --------------------------------------------------------------------- DML --
    def insert(self, table: str, row: dict, host_txn: HostTransaction | None = None) -> int:
        """INSERT with link processing for every non-null DATALINK value:
        ``insert_many(table, [row])[0]``."""

        return self.insert_many(table, [row], host_txn)[0]

    def insert_many(self, table: str, rows: list[dict],
                    host_txn: HostTransaction | None = None) -> list[int]:
        """Multi-row INSERT with pipelined link processing.

        The host rows are inserted as one multi-row statement and the link
        operations are collected per file server, then shipped as **one
        batched IPC message per enlisted server** instead of one round trip
        per row -- the batched link pipeline of the scale-out design.
        """

        with _StatementTransaction(self, host_txn) as active:
            rids = self.db.insert_many(table, rows, active.txn)
            links: dict[str, list[tuple[str, DatalinkOptions]]] = {}
            for column in self.db.catalog.schema(table).datalink_columns():
                options = options_of_column(column)
                for row in rows:
                    url = row.get(column.name)
                    if url:
                        parsed = parse_url(url)
                        owner = self._owner(parsed.server, parsed.path)
                        links.setdefault(owner, []).append(
                            (parsed.path, options))
            for server in sorted(links):
                self._dispatch_links(active, server, None, links[server])
            return rids

    def delete(self, table: str, where, host_txn: HostTransaction | None = None) -> int:
        """DELETE with unlink processing for every referenced file.

        Unlinks are batched per file server: a multi-row DELETE pays one IPC
        round trip per enlisted server, not one per row.
        """

        with _StatementTransaction(self, host_txn) as active:
            schema = self.db.catalog.schema(table)
            doomed = self.db.select(table, where, active.txn, for_update=True)
            count = self.db.delete(table, where, active.txn)
            unlinks: dict[str, list[str]] = {}
            for row in doomed:
                for column in schema.datalink_columns():
                    url = row.get(column.name)
                    if url:
                        parsed = parse_url(url)
                        owner = self._owner(parsed.server, parsed.path)
                        unlinks.setdefault(owner, []).append(parsed.path)
            for server in sorted(unlinks):
                self._dispatch_links(active, server, unlinks[server], None)
            return count

    def _dispatch_links(self, active: HostTransaction, server: str,
                        unlink_paths: list[str] | None,
                        link_items: list[tuple[str, DatalinkOptions]] | None,
                        *, redirected: bool = False) -> None:
        """Ship one server's link/unlink work, redirecting once on a stale map.

        A DLFM that no longer owns the batch's prefix refuses with a
        :class:`~repro.errors.PlacementEpochError` naming the current
        owner; when the whole batch belongs to that prefix the dispatch is
        re-sent there (redirect-and-retry, counted in the router's
        ``stale_epoch_redirects``).  Mixed-prefix batches re-raise: the
        statement aborts and the caller retries under the fresh map.

        The refused server is *not* enlisted on a redirect: the DLFM's
        placement check precedes branch creation, and a uniform-prefix
        refusal fires on the first item, so no branch exists there -- and
        an enlisted server without a branch would make the later prepare
        fan-out abort the whole transaction.  Every other outcome
        (success, partial failure) enlists, so 2PC resolution reaches any
        branch the dispatch may have created.
        """

        entry = self._entry(server)
        paths = list(unlink_paths or []) + \
            [path for path, _ in (link_items or [])]
        try:
            if unlink_paths:
                entry.connection.unlink_files(active.txn_id, unlink_paths)
            if link_items:
                entry.connection.link_files(active.txn_id, link_items)
        except PlacementEpochError as error:
            owner = error.owner
            if redirected or self.router is None or owner is None \
                    or owner == server \
                    or {self.router.prefix_of(path) for path in paths} \
                    != {error.prefix}:
                active.servers.add(server)
                raise
            self.router.stale_epoch_redirects += 1
            self._dispatch_links(active, owner, unlink_paths, link_items,
                                 redirected=True)
        except Exception:
            active.servers.add(server)
            raise
        else:
            active.servers.add(server)
            if self.router is not None:
                for path in paths:
                    self.router.note_write(path)

    def select(self, table: str, where=None, host_txn: HostTransaction | None = None,
               **kwargs) -> list[dict]:
        txn = host_txn.txn if host_txn is not None else None
        return self.db.select(table, where, txn, **kwargs)

    # ------------------------------------------------------------ token handout --
    def get_datalink(self, table: str, where, column: str, *, access: str = "read",
                     host_txn: HostTransaction | None = None,
                     ttl: float | None = None) -> str | None:
        """Retrieve a DATALINK value, embedding an access token when required.

        ``access`` is ``"read"`` or ``"write"``; requesting write access on a
        column whose control mode does not manage updates raises
        :class:`ControlModeError`, mirroring SQL errors in the prototype.
        The handout of one *where*: ``get_datalink_many([where])[0]``.
        """

        return self.get_datalink_many(table, [where], column, access=access,
                                      host_txn=host_txn, ttl=ttl)[0]

    def get_datalink_many(self, table: str, wheres, column: str, *,
                          access: str = "read",
                          host_txn: HostTransaction | None = None,
                          ttl: float | None = None) -> list:
        """The token handout: one (tokenized) URL or ``None`` per ``where``
        in the list *wheres*, in order.

        The cost rule of a set-oriented SELECT: one
        ``datalink_engine_dispatch`` per call and one statement per
        distinct dict-``where`` shape -- its ``sql_statement_base`` once,
        while each *distinct* key pays its access path, row reads and
        locks.  A ``where`` that is not a dict is its own ``db.select``.
        Each ``where`` in turn is selected and, if its row carries a URL,
        gets its own token (or a live cached one) -- but a dict ``where``
        repeating an earlier one's items gets that one's URL or ``None``;
        a refused *access* raises at the first such row.
        """

        amount, meter = self._dispatch
        self.clock.ticks += amount
        meter[0] += 1
        try:
            plan = self._column_plans[table, column]
        except KeyError:
            plan = self._column_plans[table, column] = \
                _ColumnPlan(table, column)
        txn = host_txn.txn if host_txn is not None else None
        db = self.db
        selects = plan.selects
        charged = set()     # the shapes whose statement base is paid
        # A dict where's items -> its first index (one where repeats none).
        firsts = {} if len(wheres) > 1 else None
        urls = []
        for where in wheres:
            if type(where) is dict:
                if firsts is not None:
                    count = len(urls)
                    try:
                        first = firsts.setdefault(tuple(where.items()), count)
                    except TypeError:   # an unhashable value: no repeat
                        first = count
                    if first != count:
                        urls.append(urls[first])
                        continue
                shape = tuple(where)
                try:
                    select = selects[shape]
                except KeyError:
                    select = selects[shape] = db.prepare_select(table, shape)
                if shape in charged:
                    rows = select(*where.values(), txn=txn, base=False)
                else:
                    charged.add(shape)
                    rows = select(*where.values(), txn=txn)
            else:
                rows = db.select(table, where, txn)
            if not rows:
                urls.append(None)
                continue
            catalog = db.catalog
            if catalog is not plan.catalog or catalog.version != plan.version:
                plan.resolve(catalog)
            url_text = rows[0].get(column)
            if not url_text:
                urls.append(None)
                continue
            parsed = parse_url(url_text)
            path = parsed.path
            # Tokens must be signed with the secret of the node that will
            # validate them: the prefix's current owner (witnesses share
            # their primary's secret, so failover needs no re-signing; a
            # rebalanced prefix validates on the destination shard).
            server = self._owner(parsed.server, path)
            entry = self._entry(server)
            try:
                token_type = plan.token_types[access]
            except KeyError:
                raise plan.refusal(access) from None
            token = None
            if token_type is not None:
                if ttl is None:
                    ttl = plan.ttl
                # A cached live token is handed out again when caching is on.
                cache = self.token_cache
                if cache is not None:
                    token = cache.lookup(server, path, token_type, ttl)
                if token is None:
                    token = entry.tokens.generate(path, token_type, ttl)
                    if cache is not None:
                        cache.store(server, path, token_type, ttl, token)
            urls.append(parsed.with_token(token).render())
        return urls

    # ------------------------------------------------------- metadata maintenance --
    def update_file_metadata(self, server: str, path: str, size: int, mtime: float,
                             host_txn: HostTransaction) -> int:
        """Update registered size/mtime columns of rows referencing this file.

        *server* is the physical node whose close processing drives the
        update.  One prepared UPDATE per rule, bound to *path* through the
        column's file-keyed index and refined by :func:`_references_file`:
        the statement examines the rows naming *path*, not the table.
        """

        touched = 0
        for rule in self._metadata_rules:
            changes = {}
            if rule.size_column:
                changes[rule.size_column] = int(size)
            if rule.mtime_column:
                changes[rule.mtime_column] = float(mtime)
            if not changes:
                continue
            touched += rule.update(
                changes, path, txn=host_txn.txn,
                match=_references_file(self.router, rule.column, server, path))
        return touched

    # --------------------------------------------------------------- convenience --
    def make_url(self, server: str, path: str) -> str:
        """Format a bare DATALINK URL for *path* on *server*."""

        return format_url(server, path)
