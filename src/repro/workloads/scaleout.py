"""High-concurrency link-ingest workload over a sharded deployment.

Drives experiment E11: many concurrent client sessions ingest files through
a :class:`~repro.datalinks.sharding.ShardedDataLinksDeployment`, linking
every file inside an SQL transaction.  The knobs isolate the three scale-out
levers:

``shards``               how many DLFM file servers the files spread over;
``batch_links``          multi-row INSERT with one batched link message per
                         enlisted shard (``True``) versus row-at-a-time
                         INSERTs with one IPC round trip per row (``False``);
``flush_policy`` /       WAL group commit: with ``"group"`` and a window > 1
``group_commit_window``  the deployment's commit queue resolves a batch of
                         transactions with one prepare/commit message per
                         shard and one host log force.

The baseline configuration of E11 is ``shards=1, batch_links=False,
flush_policy="immediate", group_commit_window=1`` -- a single file server
driven one row and one log force at a time.

Clients are interleaved round-robin (client 0 commits, client 1 commits,
...) so the group-commit queue sees the concurrent commit stream a real
multi-user system would produce.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.errors import ReproError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.workloads.generator import WorkloadMetrics, make_content

DOCS_TABLE = "ingested_docs"
FIRST_CLIENT_UID = 5001


@dataclass
class ScaleOutConfig:
    """Parameters of the sharded link-ingest workload."""

    shards: int = 8
    clients: int = 8
    transactions_per_client: int = 4
    rows_per_transaction: int = 16
    file_size: int = 1024
    batch_links: bool = True
    flush_policy: str = "group"
    group_commit_window: int = 8
    control_mode: ControlMode = ControlMode.RFF
    prefix_depth: int = 1
    serial_clock: bool = False


class ScaleOutWorkload:
    """Concurrent clients linking files across N DLFM shards."""

    def __init__(self, config: ScaleOutConfig,
                 deployment: ShardedDataLinksDeployment | None = None):
        self.config = config
        self.deployment = deployment if deployment is not None else \
            ShardedDataLinksDeployment(
                config.shards,
                prefix_depth=config.prefix_depth,
                flush_policy=config.flush_policy,
                group_commit_window=config.group_commit_window,
                serial_clock=config.serial_clock)
        self._sessions = []
        self._stager = None     # host-side session staging the sweep's files
        self._staged: list[list[tuple[int, str]]] = []
        #: Next unused ``doc_id`` of the client sweep's freshly staged files.
        self._next_sweep_doc = 1_000_000

    # -------------------------------------------------------------------- setup --
    def setup(self) -> "ScaleOutWorkload":
        """Create the table, the client sessions and the to-be-linked files.

        File creation happens here, outside the measured window: the workload
        measures link throughput, not file-transfer bandwidth.
        """

        config = self.config
        deployment = self.deployment
        deployment.create_table(TableSchema(DOCS_TABLE, [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body",
                            DatalinkOptions(control_mode=config.control_mode,
                                            recovery=False)),
            Column("body_size", DataType.INTEGER),
        ], primary_key=("doc_id",)))
        self._sessions = [
            deployment.session(f"client{index}", uid=FIRST_CLIENT_UID + index)
            for index in range(config.clients)
        ]
        self._stager = deployment.session("sweep_stager",
                                          uid=FIRST_CLIENT_UID - 1)
        doc_id = 0
        self._staged = []
        for client in range(config.clients):
            for txn_index in range(config.transactions_per_client):
                rows = []
                for row_index in range(config.rows_per_transaction):
                    path = (f"/ingest{doc_id % (config.shards * 4)}"
                            f"/doc{doc_id:06d}.dat")
                    content = make_content(config.file_size,
                                           tag=f"doc{doc_id}", version=0)
                    deployment.put_file(self._sessions[client], path, content)
                    rows.append((doc_id, path))
                    doc_id += 1
                self._staged.append(rows)
        return self

    # ---------------------------------------------------------------------- run --
    def run(self) -> WorkloadMetrics:
        """Ingest every staged transaction; returns metrics with link counts.

        ``metrics.counters["links"] / metrics.elapsed`` is the link
        throughput in links per simulated second.
        """

        config = self.config
        deployment = self.deployment
        clock = deployment.clock
        metrics = WorkloadMetrics(started_at=clock.now())
        # Interleave clients round-robin: txn 0 of every client, then txn 1...
        order = [client * config.transactions_per_client + txn_index
                 for txn_index in range(config.transactions_per_client)
                 for client in range(config.clients)]
        for slot in order:
            rows = self._staged[slot]
            with clock.measure() as timer:
                host_txn = deployment.begin()
                payload = [{"doc_id": doc_id,
                            "body": deployment.url_for(path),
                            "body_size": config.file_size}
                           for doc_id, path in rows]
                if config.batch_links:
                    deployment.engine.insert_many(DOCS_TABLE, payload, host_txn)
                else:
                    for row in payload:
                        deployment.engine.insert(DOCS_TABLE, row, host_txn)
                deployment.commit(host_txn)
            metrics.record("link_txn", timer.elapsed)
            metrics.bump("links", len(rows))
        with clock.measure() as timer:
            deployment.drain()
        if timer.elapsed:
            metrics.record("final_drain", timer.elapsed)
        metrics.finished_at = clock.now()
        return metrics

    def link_throughput(self, metrics: WorkloadMetrics) -> float:
        """Links per simulated second over the whole run."""

        if metrics.elapsed <= 0:
            return 0.0
        return metrics.counters.get("links", 0) / metrics.elapsed

    # ------------------------------------------------------------- client sweep --
    def sweep_step(self, step_index: int, clients: int):
        """One step of a concurrent ingest-client sweep (the *stage* of
        :func:`~repro.workloads.clients.closed_loop_sweep`).

        The per-client replacement for the round-robin host-clock
        interleaving of :meth:`run`: one transaction's worth of fresh files
        is staged per client (unmeasured, by a host-side stager session,
        before the pool exists so its clients arrive once the files do),
        then every writer commits one multi-row link transaction through
        *its own* session -- the SQL path barriers client <-> host per
        call, so concurrent commits genuinely queue on the host's 2PC
        timeline.  Requires :meth:`setup` (the table must exist).
        """

        config = self.config
        deployment = self.deployment
        system = deployment.system
        staged = []
        for _ in range(clients):
            payload = []
            for _ in range(config.rows_per_transaction):
                doc_id = self._next_sweep_doc
                self._next_sweep_doc += 1
                path = (f"/ingest{doc_id % (config.shards * 4)}"
                        f"/sweep{doc_id:07d}.dat")
                content = make_content(config.file_size,
                                       tag=f"sweep{doc_id}", version=0)
                deployment.put_file(self._stager, path, content)
                payload.append({"doc_id": doc_id,
                                "body": deployment.url_for(path),
                                "body_size": config.file_size})
            staged.append(payload)
        pool = yield f"ingest{step_index}c", FIRST_CLIENT_UID + 1000
        flushes_before = system.host_db.wal.flush_count
        linked_before = dict(deployment.stats()["linked_files_per_shard"])
        failures = [0]

        def link_txn(session, client_index, txn_index):
            try:
                session.begin()
                session.insert_many(DOCS_TABLE, staged[client_index])
                session.commit()
            except ReproError:
                failures[0] += 1
                if session.in_transaction:
                    session.abort()

        yield 1, link_txn
        deployment.drain()
        links = (clients - failures[0]) * config.rows_per_transaction
        linked_after = deployment.stats()["linked_files_per_shard"]
        yield {
            "links": links,
            "links_per_sim_s": round(links / pool.elapsed_s, 1)
                if pool.elapsed_s > 0 else 0.0,
            "host_log_flushes": system.host_db.wal.flush_count
                - flushes_before,
            "max_links_per_shard": max(
                linked_after[name] - linked_before.get(name, 0)
                for name in linked_after) if linked_after else 0,
        }
