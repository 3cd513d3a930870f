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

    def _check_open(self, ino: int, wants_write: bool, userid: int) -> dict:
        return self._manager.upcall_check_open(ino, wants_write, userid)

    def _write_open_fallback(self, ino: int, userid: int) -> dict:
        return self._manager.upcall_write_open_fallback(ino, userid)

    def _file_closed(self, ino: int, was_write: bool, userid: int) -> dict:
        return self._manager.upcall_file_closed(ino, was_write, userid)

    def _is_linked(self, ino: int) -> dict:
        return self._manager.upcall_is_linked(ino)


class ChildAgent(Daemon):
    """Serves link/unlink and transaction-control requests for one connection."""

    def __init__(self, manager, connection_id: int, clock: SimClock):
        super().__init__(name=f"dlfm-agent-{manager.server_name}-{connection_id}",
                         clock=clock)
        self._manager = manager
        self.epoch_gate = manager.check_placement_epoch
        self.register("link_file", self._link_file)
        self.register("unlink_file", self._unlink_file)
        self.register("link_batch", self._link_batch)
        self.register("unlink_batch", self._unlink_batch)
        self.register("rebalance_export", self._rebalance_export)
        self.register("rebalance_import", self._rebalance_import)
        self.register("begin_branch", self._begin_branch)
        self.register("prepare", self._prepare)
        self.register("commit", self._commit)
        self.register("abort", self._abort)
        self.register("prepare_many", self._prepare_many)
        self.register("commit_many", self._commit_many)
        self.register("abort_many", self._abort_many)

    def _charge_per_item(self, count: int) -> None:
        # A batch crosses the process boundary once but is still demultiplexed
        # item by item inside the agent.
        if count > 1:
            self.clock.charge("daemon_dispatch", times=count - 1)

    def _link_file(self, host_txn_id: int, path: str, options: dict) -> dict:
        parsed = DatalinkOptions.from_dict(options)
        row = self._manager.link_file(host_txn_id, path, parsed)
        return {"path": row["path"], "ino": row["ino"]}

    def _unlink_file(self, host_txn_id: int, path: str) -> dict:
        row = self._manager.unlink_file(host_txn_id, path)
        return {"path": row["path"]}

    def _link_batch(self, host_txn_id: int, items: list) -> dict:
        """Link several files in one IPC round trip (pipelined multi-row DML).

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

    def _unlink_batch(self, host_txn_id: int, paths: list) -> dict:
        """Unlink several files in one IPC round trip."""

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

    def _begin_branch(self, host_txn_id: int) -> dict:
        self._manager.begin_branch(host_txn_id)
        return {}

    def _prepare(self, host_txn_id: int) -> dict:
        prepared = self._manager.prepare_branch(host_txn_id)
        return {"prepared": prepared}

    def _commit(self, host_txn_id: int) -> dict:
        self._manager.commit_branch(host_txn_id)
        return {}

    def _abort(self, host_txn_id: int) -> dict:
        self._manager.abort_branch(host_txn_id)
        return {}

    def _prepare_many(self, host_txn_ids: list) -> dict:
        """Vote on a batch of branches in one round trip (group commit)."""

        self._charge_per_item(len(host_txn_ids))
        return {"prepared": [self._manager.prepare_branch(txn_id)
                             for txn_id in host_txn_ids]}

    def _commit_many(self, host_txn_ids: list) -> dict:
        self._charge_per_item(len(host_txn_ids))
        for txn_id in host_txn_ids:
            self._manager.commit_branch(txn_id)
        return {}

    def _abort_many(self, host_txn_ids: list) -> dict:
        self._charge_per_item(len(host_txn_ids))
        for txn_id in host_txn_ids:
            self._manager.abort_branch(txn_id)
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
        self.register("replica_status", self._replica_status)

    def _apply_wal(self, records: list) -> dict:
        return self._manager.replica_apply(records)

    def _replica_status(self) -> dict:
        return self._manager.replica_status()


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

    def link_file(self, host_txn_id: int, path: str, options: DatalinkOptions) -> dict:
        return self._channel.post("link_file", host_txn_id=host_txn_id,
                                  path=path, options=options.to_dict())

    def unlink_file(self, host_txn_id: int, path: str) -> dict:
        return self._channel.post("unlink_file", host_txn_id=host_txn_id, path=path)

    # Batched pipelines: a multi-row statement ships one message per file
    # server instead of one round trip per row.
    def link_files(self, host_txn_id: int,
                   items: list[tuple[str, DatalinkOptions]]) -> list[dict]:
        if len(items) == 1:
            path, options = items[0]
            return [self.link_file(host_txn_id, path, options)]
        payload = [{"path": path, "options": options.to_dict()}
                   for path, options in items]
        return self._channel.post("link_batch", host_txn_id=host_txn_id,
                                  items=payload)["results"]

    def unlink_files(self, host_txn_id: int, paths: list[str]) -> list[dict]:
        if len(paths) == 1:
            return [self.unlink_file(host_txn_id, paths[0])]
        return self._channel.post("unlink_batch", host_txn_id=host_txn_id,
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

    def begin_branch(self, host_txn_id: int) -> None:
        self._channel.post("begin_branch", host_txn_id=host_txn_id)

    def prepare(self, host_txn_id: int) -> bool:
        return self._channel.request("prepare", host_txn_id=host_txn_id)["prepared"]

    def commit(self, host_txn_id: int) -> None:
        self._channel.request("commit", host_txn_id=host_txn_id)

    def abort(self, host_txn_id: int) -> None:
        self._channel.request("abort", host_txn_id=host_txn_id)

    # Batched two-phase commit: the group-commit queue resolves a whole batch
    # of host transactions with one prepare and one commit message per server.
    def prepare_many(self, host_txn_ids: list[int]) -> list[bool]:
        return self._channel.request("prepare_many",
                                     host_txn_ids=list(host_txn_ids))["prepared"]

    def commit_many(self, host_txn_ids: list[int]) -> None:
        self._channel.request("commit_many", host_txn_ids=list(host_txn_ids))

    def abort_many(self, host_txn_ids: list[int]) -> None:
        self._channel.request("abort_many", host_txn_ids=list(host_txn_ids))
