"""The DLFM daemon processes: main daemon, child agents and the upcall daemon.

"DLFM is implemented as a main daemon with several child daemons and child
agent processes coordinating with each other ... When a connect request from
a database agent is received, the main daemon spawns a child agent which then
establishes a connection with the requesting database agent.  All subsequent
requests (link/unlink operations) from the same connection are served by this
child agent.  The upcall daemon, on the other hand, services requests from
DLFS to check the control mode and verify access permissions of linked
files." (Section 2.2)

Each daemon is a request demultiplexer over the shared
:class:`~repro.datalinks.dlfm.manager.DataLinksFileManager` logic; crossing a
daemon boundary costs simulated IPC latency through a channel.
"""

from __future__ import annotations

from repro.datalinks.datalink_type import DatalinkOptions
from repro.fs.inode import FileAttributes
from repro.ipc.channel import Channel
from repro.ipc.daemon import Daemon
from repro.simclock import SimClock


class UpcallDaemon(Daemon):
    """Services upcalls from DLFS."""

    def __init__(self, manager, clock: SimClock):
        super().__init__(name=f"dlfm-upcall-{manager.server_name}", clock=clock)
        self._manager = manager
        self.epoch_gate = manager.check_placement_epoch
        self.register("validate_token", self._validate_token)
        self.register("check_open", self._check_open)
        self.register("write_open_fallback", self._write_open_fallback)
        self.register("file_closed", self._file_closed)
        self.register("is_linked", self._is_linked)

    def _validate_token(self, ino: int, token: str, userid: int) -> dict:
        return self._manager.upcall_validate_token(ino, token, userid)

    def _check_open(self, ino: int, wants_write: bool, userid: int,
                    attrs: FileAttributes) -> dict:
        return self._manager.upcall_check_open(ino, wants_write, userid, attrs)

    def _write_open_fallback(self, ino: int, userid: int,
                             attrs: FileAttributes) -> dict:
        return self._manager.upcall_write_open_fallback(ino, userid, attrs)

    def _file_closed(self, ino: int, was_write: bool, userid: int,
                     path: str | None, attrs: FileAttributes | None,
                     opened: FileAttributes | None) -> dict:
        return self._manager.upcall_file_closed(ino, was_write, userid, path,
                                                attrs, opened)

    def _is_linked(self, ino: int) -> dict:
        return self._manager.upcall_is_linked(ino)


class ChildAgent(Daemon):
    """Serves link/unlink and transaction-control requests for one connection."""

    def __init__(self, manager, connection_id: int, clock: SimClock):
        super().__init__(name=f"dlfm-agent-{manager.server_name}-{connection_id}",
                         clock=clock)
        self._manager = manager
        self.epoch_gate = manager.check_placement_epoch
        self.register("link", self._link)
        self.register("unlink", self._unlink)
        self.register("rebalance_export", self._rebalance_export)
        self.register("rebalance_import", self._rebalance_import)
        self.register("prepare", self._prepare)
        self.register("commit", self._commit)
        self.register("abort", self._abort)

    def _charge_per_item(self, count: int) -> None:
        # A list crosses the process boundary once but is still demultiplexed
        # item by item inside the agent: a list of one charges what one
        # message does.
        if count > 1:
            self.clock.charge("daemon_dispatch", times=count - 1)

    def _link(self, host_txn_id: int, items: list) -> dict:
        """Link a statement's files on this server in one IPC message.

        Items are processed in order; the first failure aborts the batch by
        raising through the reply, leaving the branch's uncommitted changes to
        be rolled back by the coordinator's abort.
        """

        self._charge_per_item(len(items))
        results = []
        for item in items:
            parsed = DatalinkOptions.from_dict(item["options"])
            row = self._manager.link_file(host_txn_id, item["path"], parsed)
            results.append({"path": row["path"], "ino": row["ino"]})
        return {"results": results}

    def _unlink(self, host_txn_id: int, paths: list) -> dict:
        """Unlink a statement's files on this server in one IPC message."""

        self._charge_per_item(len(paths))
        results = [{"path": self._manager.unlink_file(host_txn_id, path)["path"]}
                   for path in paths]
        return {"results": results}

    def _rebalance_export(self, host_txn_id: int, prefix: str) -> dict:
        """Source side of a prefix hand-off: delete and return the state."""

        return self._manager.rebalance_export(host_txn_id, prefix)

    def _rebalance_import(self, host_txn_id: int, rows: list,
                          versions: list) -> dict:
        """Destination side: adopt the handed-off rows and version chain."""

        self._charge_per_item(len(rows))
        return self._manager.rebalance_import(host_txn_id, rows, versions)

    def _prepare(self, host_txn_ids: list) -> dict:
        """Vote on every listed branch in one round trip."""

        self._charge_per_item(len(host_txn_ids))
        return {"prepared": [self._manager.prepare_branch(txn_id)
                             for txn_id in host_txn_ids]}

    def _commit(self, host_txn_ids: list, state_ids: list) -> dict:
        self._charge_per_item(len(host_txn_ids))
        for txn_id, state_id in zip(host_txn_ids, state_ids):
            self._manager.commit_branch(txn_id, state_id)
        return {}

    def _abort(self, host_txn_id: int) -> dict:
        self._manager.abort_branch(host_txn_id)
        return {}


class ReplicaDaemon(Daemon):
    """Receives the primary's shipped repository WAL stream on the witness.

    The witness's replication endpoint: the primary's
    :class:`~repro.datalinks.replication.WalShipper` sends ``apply_wal``
    batches through a channel to this daemon, which hands them to the
    witness DLFM's replica applier.  Because it is a daemon, a crashed
    witness refuses shipments (the shipper accumulates lag) exactly the way
    a crashed DLFM refuses link traffic.
    """

    def __init__(self, manager, clock: SimClock):
        super().__init__(name=f"dlfm-replica-{manager.server_name}", clock=clock)
        self._manager = manager
        self.epoch_gate = manager.check_placement_epoch
        self.register("apply_wal", self._apply_wal)

    def _apply_wal(self, records: list) -> dict:
        return self._manager.replica_apply(records)


class MainDaemon(Daemon):
    """Accepts connections from database agents and spawns child agents."""

    def __init__(self, manager, clock: SimClock):
        super().__init__(name=f"dlfm-main-{manager.server_name}", clock=clock)
        self._manager = manager
        self.epoch_gate = manager.check_placement_epoch
        self._next_connection = 1
        self.child_agents: list[ChildAgent] = []
        self.register("connect", self._connect)

    def _connect(self, client_name: str = "") -> dict:
        agent = ChildAgent(self._manager, self._next_connection, clock=self.clock)
        self._next_connection += 1
        self.child_agents.append(agent)
        return {"agent": agent}

    def stop_all(self) -> None:
        self.stop()
        for agent in self.child_agents:
            agent.stop()

    def start_all(self) -> None:
        self.start()
        for agent in self.child_agents:
            agent.start()


class DLFMConnection:
    """A typed wrapper over the channel between a database agent and its child agent.

    The DataLinks engine holds one connection per file server and issues all
    link/unlink and two-phase-commit traffic through it.  In simulated time
    the two traffic classes differ: link/unlink work is **pipelined**
    (:meth:`~repro.ipc.channel.Channel.post` -- the DLFM does the work on
    its own clock domain while the host keeps executing SQL; completion is
    acknowledged by the prepare vote), whereas the two-phase-commit calls
    are **barriers** (:meth:`~repro.ipc.channel.Channel.request` -- the
    coordinator waits, and fan-outs across shards overlap through the
    engine's scatter-gather window).

    Each protocol step is one message whatever its size: ``link_files`` /
    ``unlink_files`` carry a statement's work on this server, ``prepare``
    and ``commit`` every transaction of a commit group that enlisted it.
    A list of one charges what one item always did.

    A close-time commit sends nothing through here: the DLFM's one request
    to the host carries its vote and the reply its commit
    (:meth:`~repro.datalinks.engine.DataLinksEngine.commit_file_update`),
    so no agent dispatches a prepare or a commit for it.
    """

    def __init__(self, main_daemon: MainDaemon, clock: SimClock,
                 client_name: str = "engine", epoch_provider=None):
        connect_channel = Channel(main_daemon, clock,
                                  latency_primitive="db_dlfm_message",
                                  epoch_provider=epoch_provider)
        agent = connect_channel.request("connect", client_name=client_name)["agent"]
        self.agent = agent
        self._channel = Channel(agent, clock, latency_primitive="db_dlfm_message",
                                epoch_provider=epoch_provider)

    def link_files(self, host_txn_id: int,
                   items: list[tuple[str, DatalinkOptions]]) -> list[dict]:
        payload = [{"path": path, "options": options.to_dict()}
                   for path, options in items]
        return self._channel.post("link", host_txn_id=host_txn_id,
                                  items=payload)["results"]

    def unlink_files(self, host_txn_id: int, paths: list[str]) -> list[dict]:
        return self._channel.post("unlink", host_txn_id=host_txn_id,
                                  paths=list(paths))["results"]

    # Prefix hand-off: both sides are coordinator-driven barriers (the
    # rebalance waits for each step before moving to the next).
    def rebalance_export(self, host_txn_id: int, prefix: str) -> dict:
        return self._channel.request("rebalance_export",
                                     host_txn_id=host_txn_id, prefix=prefix)

    def rebalance_import(self, host_txn_id: int, rows: list,
                         versions: list) -> dict:
        return self._channel.request("rebalance_import",
                                     host_txn_id=host_txn_id,
                                     rows=rows, versions=versions)

    def prepare(self, host_txn_ids: list[int]) -> list[bool]:
        return self._channel.request("prepare",
                                     host_txn_ids=list(host_txn_ids))["prepared"]

    def commit(self, host_txn_ids: list[int], state_ids: list[int]) -> None:
        self._channel.request("commit", host_txn_ids=list(host_txn_ids),
                              state_ids=list(state_ids))

    def abort(self, host_txn_id: int) -> None:
        self._channel.request("abort", host_txn_id=host_txn_id)
