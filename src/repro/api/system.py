"""System assembly: host database, DataLinks engine, file servers, archive.

:class:`DataLinksSystem` is the top-level object users construct.  It owns
the simulated clock domains, the host database with its DataLinks engine,
the shared archive server, and any number of file servers, each of which
stacks physical FS -> DLFS -> logical FS and runs its own DLFM daemons --
the architecture of Figure 1 in the paper.

Simulated time is per node: the host database (plus the DataLinks engine
and co-located clients) runs on the ``host`` clock domain, every file
server runs on its own domain, and the archive mover on the ``archive``
domain; domains max-merge at IPC and commit barriers (see
:mod:`repro.simclock`), so N file servers overlap in time the way the
paper's real testbed machines did.  ``serial_clock=True`` collapses all of
them back onto one timeline for A/B comparisons against the old serial
model.
"""

from __future__ import annotations

from repro.datalinks.backup_coordinator import BackupCoordinator, SystemBackup
from repro.datalinks.dlfm.archive import ArchiveServer
from repro.datalinks.dlfm.daemons import MainDaemon, UpcallDaemon
from repro.datalinks.dlfm.files import DEFAULT_DBMS_UID, FileServerFiles
from repro.datalinks.dlfm.manager import DataLinksFileManager
from repro.datalinks.dlfs.layer import DataLinksFileSystem
from repro.datalinks.dlfs.upcall_client import UpcallClient
from repro.datalinks.engine import DataLinksEngine
from repro.errors import DataLinksError
from repro.fs.logical import LogicalFileSystem
from repro.fs.physical import PhysicalFileSystem
from repro.fs.vfs import Credentials
from repro.simclock import (
    ClockDomainGroup,
    CostModel,
    SimClock,
    synchronized_call,
)
from repro.storage.database import Database
from repro.storage.schema import TableSchema


class FileServer:
    """One file server node: native FS, DLFS layer, DLFM daemons, LFS."""

    def __init__(self, name: str, clock: SimClock, archive: ArchiveServer,
                 dbms_uid: int = DEFAULT_DBMS_UID,
                 strict_read_upcalls: bool = False,
                 token_secret: str | None = None):
        self.name = name
        self.clock = clock
        self.dbms_uid = dbms_uid
        self.strict_read_upcalls = strict_read_upcalls
        self.running = True
        self.physical = PhysicalFileSystem(name, clock=clock)

        # The DLFM's privileged path to the native file system (below DLFS).
        self.raw_lfs = LogicalFileSystem(clock=clock)
        self.raw_lfs.mount("/", self.physical)
        self.files = FileServerFiles(
            lfs=self.raw_lfs,
            dlfm_cred=Credentials(uid=0, gid=0, username="dlfm"),
            dbms_uid=dbms_uid,
            dbms_gid=dbms_uid,
        )

        self.dlfm = DataLinksFileManager(name, self.files, archive, clock,
                                         token_secret=token_secret)
        self.upcall_daemon = UpcallDaemon(self.dlfm, clock)
        self.main_daemon = MainDaemon(self.dlfm, clock)

        # The application path: LFS on top of DLFS on top of the native FS.
        self.upcall_client = UpcallClient(self.upcall_daemon, clock)
        self.dlfs = DataLinksFileSystem(self.physical, self.upcall_client,
                                        dbms_uid=dbms_uid, clock=clock,
                                        strict_read_upcalls=strict_read_upcalls)
        self.lfs = LogicalFileSystem(clock=clock)
        self.lfs.mount("/", self.dlfs)

    # -- operations -----------------------------------------------------------------
    def process_archive_jobs(self) -> int:
        return self.dlfm.process_archive_jobs()

    def crash(self) -> None:
        """Simulate a crash of the file server node (DLFM state is volatile)."""

        self.running = False
        self.dlfm.crash()
        self.upcall_daemon.stop()
        self.main_daemon.stop_all()

    def recover(self) -> dict:
        """Restart the node: DLFM recovery plus daemon restart.

        Note that recovering does *not* return a fenced node to service: a
        replicated shard's ex-primary stays fenced until the shard fails
        back to it.
        """

        summary = self.dlfm.recover()
        self.upcall_daemon.start()
        self.main_daemon.start_all()
        self.running = True
        return summary


class DataLinksSystem:
    """A complete DataLinks installation.

    ``flush_policy`` / ``group_commit_window`` configure WAL group commit for
    the host database *and* every file server's DLFM repository:
    ``"immediate"`` forces the log on every commit (default), ``"group"``
    lets one log force cover up to ``group_commit_window`` commits.  The knob
    can also be flipped at runtime through :meth:`set_flush_policy` or
    :meth:`repro.api.session.Session.set_flush_policy`.

    The system owns its clocks: one
    :class:`~repro.simclock.ClockDomainGroup` calibrated by ``cost_model``,
    one domain per node; ``serial_clock=True`` (the one serial baseline)
    makes every domain the same shared timeline.
    """

    def __init__(self, cost_model: CostModel | None = None, *,
                 flush_policy: str = "immediate",
                 group_commit_window: int = 8,
                 serial_clock: bool = False):
        self.clocks = ClockDomainGroup(cost_model, serial=serial_clock)
        #: The host database node's clock domain (also where co-located
        #: clients -- sessions -- experience time).
        self.clock = self.clocks.domain("host")
        self._flush_policy = flush_policy
        self._group_commit_window = group_commit_window
        self.host_db = Database("host", self.clock, flush_policy=flush_policy,
                                group_commit_window=group_commit_window)
        self.engine = DataLinksEngine(self.host_db, self.clock)
        self.archive = ArchiveServer(self.clocks.domain("archive"))
        self.file_servers: dict[str, FileServer] = {}
        self._backup_coordinator = BackupCoordinator(self.host_db, {})
        #: Host-side connection gate; ``None`` (the default) admits every
        #: client instantly.  See :meth:`enable_admission`.
        self.admission = None

    # ------------------------------------------------------------------ topology --
    def add_file_server(self, name: str, dbms_uid: int = DEFAULT_DBMS_UID,
                        strict_read_upcalls: bool = False,
                        token_secret: str | None = None) -> FileServer:
        """Create a file server node and register it with the DataLinks engine.

        ``strict_read_upcalls`` enables the paper's future-work extension:
        every read open is reported to the DLFM so files linked with
        ``strict_read_sync`` close the rfd read/write window (at a per-open
        cost; see experiment E10).  ``token_secret`` overrides the DLFM's
        token-signing key; a witness replica is created with its primary's
        secret so tokens issued by the host database stay valid across a
        failover.
        """

        if name in self.file_servers:
            raise DataLinksError(f"file server {name!r} already exists")
        server = FileServer(name, self.clocks.domain(name), self.archive,
                            dbms_uid=dbms_uid,
                            strict_read_upcalls=strict_read_upcalls,
                            token_secret=token_secret)
        # A node provisioned now joins the cluster at the current time.
        server.clock.sync_ticks(self.clock.ticks)
        server.dlfm.repository.db.set_flush_policy(self._flush_policy,
                                                   self._group_commit_window)
        self.file_servers[name] = server
        self.engine.register_file_server(name, server.dlfm, server.main_daemon)
        self._backup_coordinator.register_manager(name, server.dlfm)
        return server

    def file_server(self, name: str) -> FileServer:
        try:
            return self.file_servers[name]
        except KeyError:
            raise DataLinksError(f"no file server named {name!r}") from None

    # ------------------------------------------------------------------- schema --
    def create_table(self, schema: TableSchema) -> None:
        self.host_db.create_table(schema)

    def register_metadata_columns(self, table: str, column: str,
                                  size_column: str | None = None,
                                  mtime_column: str | None = None) -> None:
        self.engine.register_metadata_columns(table, column, size_column, mtime_column)

    # ------------------------------------------------------------------ sessions --
    def session(self, username: str, uid: int, gid: int = 100,
                clock=None) -> "Session":
        """A session for *username*; ``clock`` binds it to a client domain.

        Without ``clock`` the session is co-located with the host database
        (the classic model).  Pass one of :meth:`client_domains`'s clocks
        to give the session its own timeline that barriers through the
        host like any IPC.
        """

        from repro.api.session import Session

        return Session(self, Credentials(uid=uid, gid=gid, username=username),
                       clock=clock)

    def client_domains(self, count: int, *, limit: int | None = None,
                       prefix: str = "client") -> list:
        """Clock domains for *count* concurrent clients (pooled at *limit*).

        Delegates to :meth:`repro.simclock.ClockDomainGroup.session_domains`
        with the host domain as the base: in serial mode
        (``serial_clock=True``) every client shares the host clock.
        """

        return self.clocks.session_domains(count, self.clock, limit=limit,
                                           prefix=prefix)

    def enable_admission(self, limit: int):
        """Gate client operations behind *limit* host connection slots.

        Returns the :class:`~repro.api.admission.AdmissionController`.
        A :class:`~repro.workloads.clients.ClientPool` holds a slot across
        each client operation; when every slot is busy the client's clock
        waits (measured queue delay) until the earliest slot frees, FIFO
        in simulated arrival order.
        """

        from repro.api.admission import AdmissionController

        self.admission = AdmissionController(limit)
        return self.admission

    def disable_admission(self) -> None:
        """Remove the connection gate (clients admit instantly again)."""

        self.admission = None

    # -------------------------------------------------------------- durability knobs --
    @property
    def flush_policy(self) -> str:
        return self.host_db.wal.flush_policy.value

    def set_flush_policy(self, policy: str,
                         group_commit_window: int | None = None) -> None:
        """Change the WAL commit flush policy system-wide at runtime.

        Applies to the host database and every file server's DLFM
        repository; servers added later inherit the new setting.
        """

        from repro.storage.wal import FlushPolicy

        policy = FlushPolicy.from_string(policy).value  # validate before mutating
        self._flush_policy = policy
        if group_commit_window is not None:
            self._group_commit_window = group_commit_window
        self.host_db.set_flush_policy(policy, group_commit_window)
        for server in self.file_servers.values():
            server.dlfm.repository.db.set_flush_policy(policy, group_commit_window)

    def flush_logs(self) -> None:
        """Force every WAL in the system (drains pending group commits)."""

        self.host_db.wal.flush()
        for server in self.file_servers.values():
            server.dlfm.repository.db.wal.flush()

    # ----------------------------------------------------------------- background --
    def _at_server(self, server: FileServer) -> synchronized_call:
        """Run an administrative request on *server* and wait for it.

        The request departs from the host/console domain and the caller's
        clock max-merges up to the server's completion -- a synchronous
        admin round trip between clock domains.
        """

        return synchronized_call(self.clock, server.clock)

    def run_archiver(self) -> int:
        """Process pending asynchronous archive jobs on every file server."""

        jobs = 0
        for server in self.file_servers.values():
            with self._at_server(server):
                jobs += server.process_archive_jobs()
        return jobs

    def run_housekeeping(self, keep_versions: int | None = None) -> dict:
        """Run DLFM housekeeping on every file server.

        Purges expired token-registry entries and, when *keep_versions* is
        given, prunes each linked file's version chain down to its newest
        *keep_versions* entries.  Returns per-server counts.
        """

        results = {}
        for name, server in sorted(self.file_servers.items()):
            with self._at_server(server):
                results[name] = server.dlfm.run_housekeeping(
                    keep_versions=keep_versions)
        return results

    def abort_file_update(self, server: str, path: str) -> bool:
        """Administrative rollback of an in-progress file update (Section 4.2)."""

        target = self.file_server(server)
        with self._at_server(target):
            return target.dlfm.abort_file_update(path)

    # ------------------------------------------------------------ backup / restore --
    def backup(self, label: str = "") -> SystemBackup:
        """Take a coordinated backup of the host database and every file server.

        A coordinated backup is a cluster-wide synchronization point, so
        every clock domain rendezvouses before and after it.
        """

        self.clocks.barrier()
        try:
            return self._backup_coordinator.backup(label)
        finally:
            self.clocks.barrier()

    def restore(self, backup: SystemBackup) -> dict:
        """Restore a coordinated backup; returns the per-server restored paths."""

        self.clocks.barrier()
        try:
            return self._backup_coordinator.restore(backup)
        finally:
            self.clocks.barrier()

    # ------------------------------------------------------------ fault injection --
    def crash_file_server(self, name: str) -> None:
        self.file_server(name).crash()

    def recover_file_server(self, name: str) -> dict:
        return self.file_server(name).recover()

    def resolve_in_doubt(self) -> dict:
        """Drive prepared DLFM branches to the host's durable outcome.

        Use after recovering the host database from a crash that interrupted
        a two-phase commit (coordinator failure); file-server crashes resolve
        their own in-doubt branches during :meth:`recover_file_server`.
        """

        self.clocks.barrier()
        try:
            return self.engine.resolve_in_doubt()
        finally:
            self.clocks.barrier()
