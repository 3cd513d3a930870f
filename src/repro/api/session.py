"""Application sessions: the two access paths the paper describes.

A :class:`Session` binds a user (credentials) to a
:class:`~repro.api.system.DataLinksSystem` and exposes

* the *SQL path*: insert/delete/select against the host database with
  automatic link/unlink of DATALINK values (a row's DATALINK value changes
  through a delete and an insert), plus ``get_datalink`` to obtain a
  tokenized URL;
* the *file-system path*: the ordinary open/read/write/close API against a
  file server's logical file system, including
  :meth:`Session.update_file`, the update-in-place transaction of Section 4.

Scale-out: :meth:`Session.insert_many` ships one batched link message per
file server for a multi-row INSERT.  The WAL commit flush policy is the
system's, chosen when it is built (see
:class:`~repro.api.system.DataLinksSystem`).
"""

from __future__ import annotations

import contextlib

from repro.datalinks.engine import HostTransaction
from repro.datalinks.uip import (
    FileUpdateTransaction,
    open_for_read,
    tokenized_path,
)
from repro.errors import DaemonUnavailableError, DataLinksError
from repro.fs.logical import LogicalFileSystem
from repro.fs.vfs import Credentials, OpenFlags
from repro.simclock import synchronized_call
from repro.util.urls import parse_url

#: The host barrier of every session that runs on the host clock itself.
_NO_BARRIER = contextlib.nullcontext()
#: ``put_file`` creates parent directories as the superuser.
_ROOT_CRED = Credentials(uid=0, gid=0, username="root")


class SyncedFileSystem:
    """A file server's LFS as seen from another clock domain.

    Sessions run beside the host database (the ``host`` clock domain) or --
    when constructed through :meth:`DataLinksSystem.client_domains` -- on
    their own per-client domain; the file they open lives on a file server
    with its own domain.  This proxy
    brackets every file-system call with the merge-at-sync protocol: the
    server's clock syncs up to the client's send time, the call's work
    accrues on the server's timeline, and the client's clock merges up to
    the completion -- so a client-side stopwatch sees the true end-to-end
    latency, including any queueing behind other work on that server.

    Built by :func:`synced_lfs`, one per (client domain, server) with two
    distinct clocks (a caller on the server's clock gets the LFS itself),
    so an instance is three references and the brackets belong to the class.
    """

    __slots__ = ("_lfs", "_client_clock", "_server_clock")

    def __init__(self, lfs: LogicalFileSystem, client_clock, server_clock):
        self._lfs = lfs
        self._client_clock = client_clock
        self._server_clock = server_clock

    def __getattr__(self, name: str):
        # Everything but the system calls bracketed below is the LFS's own.
        return getattr(self._lfs, name)


def _bracketed(syscall):
    """*syscall* of the LFS as a :class:`SyncedFileSystem` method, inside
    the body of ``synchronized_call`` with its three clock calls (send_ticks
    / sync_ticks / receive_ticks) written out as direct attribute work."""

    def synced_call(self, *args, **kwargs):
        client, server = self._client_clock, self._server_clock
        frames = client._overlap_frames
        instant = frames[-1][0] if frames else client.ticks
        if instant > server.ticks:
            server.ticks = instant
        try:
            return syscall(self._lfs, *args, **kwargs)
        finally:
            instant = server.ticks
            frames = client._overlap_frames
            if frames:
                frame = frames[-1]
                if instant > frame[1]:
                    frame[1] = instant
            elif instant > client.ticks:
                client.ticks = instant

    return synced_call


for _name in ("open", "close", "read", "write", "lseek", "stat", "fstat",
              "exists", "unlink", "rename", "mkdir", "makedirs", "chmod",
              "chown", "read_file", "write_file"):
    setattr(SyncedFileSystem, _name,
            _bracketed(getattr(LogicalFileSystem, _name)))
del _name


def synced_lfs(system, server_name: str, client_clock=None):
    """The LFS of *server_name*, clock-synchronized to the caller's domain.

    ``client_clock`` defaults to the host domain (the classic co-located
    session); a session riding its own client domain passes that domain so
    file-system calls sync *its* timeline against the server's.  Proxies
    are cached on the system -- per server name for host-clock callers (a
    name binds to one :class:`FileServer` for the system's lifetime;
    ``add_file_server`` refuses duplicates), per ``(server, client)`` pair
    otherwise -- so the proxy is reused across every session call.
    """

    try:
        cache = system._synced_lfs_cache
    except AttributeError:
        cache = system._synced_lfs_cache = {}
    client = system.clock if client_clock is None else client_clock
    if client is system.clock:
        key = server_name
    else:
        key = (server_name, id(client))
    try:
        proxy = cache[key]
    except KeyError:
        proxy = None
    if proxy is None:
        file_server = system.file_server(server_name)
        if file_server.clock is client:
            proxy = file_server.lfs
        else:
            proxy = SyncedFileSystem(file_server.lfs, client,
                                     file_server.clock)
        cache[key] = proxy
    return proxy


class BoundFileSystem:
    """The file-system API of one file server bound to one user's credentials."""

    def __init__(self, lfs: LogicalFileSystem, cred: Credentials):
        self._lfs = lfs
        self.cred = cred

    # Thin, credential-carrying wrappers over the LFS system calls.
    def read_file(self, path: str) -> bytes:
        return self._lfs.read_file(path, self.cred)

    def write_file(self, path: str, data: bytes, create: bool = True) -> int:
        return self._lfs.write_file(path, data, self.cred, create=create)

    def unlink(self, path: str) -> None:
        self._lfs.unlink(path, self.cred)

    def rename(self, old: str, new: str) -> None:
        self._lfs.rename(old, new, self.cred)


class Session:
    """One application's view of the system.

    ``clock`` binds the session to a client clock domain (see
    :meth:`repro.api.system.DataLinksSystem.client_domains`); it defaults
    to the host domain, the classic co-located client.  A session on its
    own domain barriers through the host for SQL-path work
    (``_host_barrier``) and syncs file-system calls directly against
    the serving node's domain, so its timeline measures true end-to-end
    latency including queueing behind other clients.
    """

    def __init__(self, system, cred: Credentials, clock=None):
        self.system = system
        self.cred = cred
        self.clock = system.clock if clock is None else clock
        #: The context SQL-path work runs in: a session riding its own
        #: client domain two-way merges with the host domain per call,
        #: through this one bracket; on the host clock nothing merges.
        self._host_barrier = _NO_BARRIER if self.clock is system.clock \
            else synchronized_call(self.clock, system.clock)
        self._txn: HostTransaction | None = None

    # -------------------------------------------------------------- transactions --
    def begin(self) -> HostTransaction:
        if self._txn is not None:
            raise DataLinksError("a transaction is already active in this session")
        with self._host_barrier:
            self._txn = self.system.engine.begin()
        return self._txn

    def commit(self) -> None:
        if self._txn is None:
            raise DataLinksError("no active transaction")
        with self._host_barrier:
            self.system.engine.commit(self._txn)
        self._txn = None

    def abort(self) -> None:
        if self._txn is None:
            raise DataLinksError("no active transaction")
        with self._host_barrier:
            self.system.engine.abort(self._txn)
        self._txn = None

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    # ---------------------------------------------------------------- SQL path --
    def insert(self, table: str, row: dict) -> int:
        with self._host_barrier:
            return self.system.engine.insert(table, row, self._txn)

    def insert_many(self, table: str, rows: list[dict]) -> list[int]:
        """Multi-row INSERT with batched (pipelined) link processing."""

        with self._host_barrier:
            return self.system.engine.insert_many(table, rows, self._txn)

    def delete(self, table: str, where) -> int:
        with self._host_barrier:
            return self.system.engine.delete(table, where, self._txn)

    def select(self, table: str, where=None, **kwargs) -> list[dict]:
        with self._host_barrier:
            return self.system.engine.select(table, where, self._txn, **kwargs)

    def get_datalink(self, table: str, where, column: str, *,
                     access: str = "read", ttl: float | None = None) -> str | None:
        """Retrieve a DATALINK URL with an embedded access token."""

        with self._host_barrier:
            return self.system.engine.get_datalink(
                table, where, column, access=access,
                host_txn=self._txn, ttl=ttl)

    def get_datalink_many(self, table: str, wheres, column: str, *,
                          access: str = "read", ttl: float | None = None) -> list:
        """Retrieve many DATALINK URLs in one set-oriented token handout.

        Returns one (tokenized) URL -- or ``None`` -- per ``where`` in
        *wheres*, in order.  The call is charged one engine dispatch and
        one SELECT statement per distinct ``where`` shape; each distinct
        key pays its own access path, row reads and token once (see
        :meth:`repro.datalinks.engine.DataLinksEngine.get_datalink_many`).
        """

        with self._host_barrier:
            return self.system.engine.get_datalink_many(
                table, wheres, column, access=access,
                host_txn=self._txn, ttl=ttl)

    # --------------------------------------------------------------- file path --
    def fs(self, server: str) -> BoundFileSystem:
        """The ordinary file-system API of *server*, as this session's user."""

        return BoundFileSystem(synced_lfs(self.system, server, self.clock),
                               self.cred)

    def put_file(self, server: str, path: str, content: bytes) -> str:
        """Create *path* on *server* with *content* (before linking it).

        A send (:meth:`~repro.simclock.SimClock.posted`): the server does
        the writes on its own domain while the session pays one
        ``message_send`` and goes on; the link is the barrier, reaching
        the server only after the write.
        Returns the bare DATALINK URL to store in the database.  Parent
        directories are created with superuser credentials so examples and
        workloads do not need to pre-create a directory tree.
        """

        if not self.system.file_server(server).running:
            raise DaemonUnavailableError(f"file server {server!r} is down")
        lfs = synced_lfs(self.system, server, self.clock)
        directory = path.rsplit("/", 1)[0] or "/"
        with self.clock.posted():
            if isinstance(lfs, SyncedFileSystem):     # crosses domains
                self.clock.charge("message_send")
            if directory != "/":
                lfs.makedirs(directory, _ROOT_CRED)
                lfs.chown(directory, self.cred.uid, self.cred.gid, _ROOT_CRED)
            lfs.write_file(path, content, self.cred)
        return self.system.engine.make_url(server, path)

    def read_url(self, url: str, *, server: str | None = None) -> bytes:
        """Open a (tokenized) DATALINK URL for read and return its content.

        ``server`` overrides the node the URL names; without it the
        session resolves the node through the system's replication-aware
        router when one is attached (the URL stays *logical*):
        :meth:`~repro.datalinks.routing.ReplicationRouter.route_url_read`
        load-balances the read of the URL's path over the owner shard's
        serving node and the witnesses that may serve it, so a URL keeps
        working across failover and prefix rebalancing.  Plain systems --
        and URLs naming servers the router does not manage -- read from the
        URL's server.  The token embedded in the URL stays valid because a
        witness shares its primary's signing secret.
        """

        if server is None:
            parsed = parse_url(url)
            router = self.system.engine.router
            server = parsed.server if router is None else \
                router.route_url_read(parsed.server, parsed.path)[1]
        lfs = synced_lfs(self.system, server, self.clock)
        fd = open_for_read(lfs, url, self.cred)
        try:
            return lfs.read(fd)
        finally:
            lfs.close(fd)

    def update_file(self, url: str, truncate: bool = False) -> FileUpdateTransaction:
        """Start an update-in-place transaction on a write-tokenized URL.

        The file handle resolves through the replication-aware router when
        one is attached, so update-in-place keeps working after a failover
        (the write reaches the promoted witness, not the crashed primary)
        or a prefix rebalance.  If the serving lease moves *mid-update*,
        the close-side commit is refused by the fence, the update rolls
        back to the last committed version and
        :class:`~repro.errors.LeaseMovedError` asks the caller to retry
        against the new serving node.
        """

        server = self._route_write(url)
        lfs = synced_lfs(self.system, server, self.clock)
        return FileUpdateTransaction(
            lfs, url, self.cred, truncate=truncate,
            abort_callback=lambda srv, path: self.system.abort_file_update(server, path))

    def open_url(self, url: str, flags: OpenFlags) -> int:
        """Open a tokenized URL with explicit flags; returns the fd."""

        lfs = synced_lfs(self.system, self._server_of(url), self.clock)
        return lfs.open(tokenized_path(url), flags, self.cred)

    def _server_of(self, url: str) -> str:
        return parse_url(url).server

    def _route_write(self, url: str) -> str:
        """Resolve a logical URL to the physical node taking its writes now.

        Goes through the engine's replication-aware router when one is
        attached: the URL's ``(server, path)`` maps to the prefix's
        current owner shard (epoched placement), then to that shard's
        serving node.  Plain systems -- and URLs naming servers the router
        does not manage -- resolve to the URL's server.
        """

        parsed = parse_url(url)
        router = self.system.engine.router
        if router is None:
            return parsed.server
        shard = router.owner_shard(parsed.server, parsed.path)
        if shard not in router.shards:
            return shard
        return router.route_write(shard).name
