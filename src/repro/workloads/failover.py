"""Availability workload under a shard primary crash (experiment E12).

Drives a :class:`~repro.datalinks.sharding.ShardedDataLinksDeployment` --
with or without witness replication -- through five phases:

1. **ingest**: link ``files`` token-protected files across the shards
   through the batched pipeline and the group-commit queue (measured, so
   the replication tax on the write path -- each witness copy's wire
   latency, overlapped with the serving write, plus WAL shipping -- shows
   up as link throughput);
2. **reads before**: every file is read through the deployment's routing
   layer with a token handed out by the host database (round-robin over
   the serving node and every eligible witness);
3. **follower-read batch**: a burst of token-validated reads issued inside
   one scatter-gather window, modelling concurrent visitors.  The batch's
   wall-clock cost is the *bottleneck node's* busy time, so read capacity
   scales with the number of nodes the router may use -- the follower-read
   throughput row of E12;
4. **crash + reads after**: the primary of the shard owning the first
   file's prefix crashes.  Without replication every read of that prefix
   fails until recovery; with replication the deployment fails over
   (promotion is timed) and the same reads succeed against the witness;
5. **writes after**: link transactions targeting the victim prefix.
   Without replication they all fail (0% write availability); with
   writable failover the promoted witness takes the branches and the 2PC
   votes, so they commit (~100%).

Counters: ``links``, ``reads_ok``/``reads_failed`` and their
``victim_*``/``*_after`` variants, ``follower_reads`` with the
``follower_batch`` timing, ``writes_ok_after``/``writes_failed_after``;
``promotion`` records the simulated latency of the failover itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.errors import ReproError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.workloads.generator import WorkloadMetrics, make_content

DOCS_TABLE = "replicated_docs"
READER_UID = 7001
#: Lifetime of every read token handed out: none expires within a run.
TOKEN_TTL = 1e9


@dataclass
class FailoverConfig:
    """Parameters of the replica-failover workload.

    Files are linked in rdb mode, so every read needs a valid token.
    """

    shards: int = 4
    replication: bool = True
    witnesses: int = 1
    files: int = 32
    rows_per_transaction: int = 8
    file_size: int = 2048
    reads_per_phase: int = 48
    follower_read_batch: int = 24
    writes_per_phase: int = 8


class FailoverWorkload:
    """Token-validated reads and writes across a primary crash."""

    def __init__(self, config: FailoverConfig,
                 deployment: ShardedDataLinksDeployment | None = None):
        self.config = config
        self.deployment = deployment if deployment is not None else \
            ShardedDataLinksDeployment(
                config.shards, group_commit_window=4,
                replication=config.replication, witnesses=config.witnesses)
        self._session = None
        self._paths: list[str] = []
        self._ingested = False
        self.victim: str | None = None

    # -------------------------------------------------------------------- setup --
    def setup(self) -> "FailoverWorkload":
        config = self.config
        deployment = self.deployment
        deployment.create_table(TableSchema(DOCS_TABLE, [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body",
                            DatalinkOptions(control_mode=ControlMode.RDB,
                                            recovery=False)),
        ], primary_key=("doc_id",)))
        self._session = deployment.session("reader", uid=READER_UID)
        self._paths = [f"/area{index % (config.shards * 4)}/doc{index:05d}.dat"
                       for index in range(config.files)]
        self.victim = deployment.shard_of(self._paths[0])
        return self

    # ---------------------------------------------------------------------- run --
    def run(self) -> WorkloadMetrics:
        config = self.config
        deployment = self.deployment
        clock = deployment.clock
        metrics = WorkloadMetrics(started_at=clock.now())

        self._ingest(metrics)
        # Drain the group-commit windows so the read phases measure a
        # settled cluster: witnesses are only read-eligible once every
        # ingest record -- durable or buffered -- has applied to them.
        deployment.system.flush_logs()
        self._read_phase(metrics, suffix="")
        self._follower_batch(metrics)

        deployment.crash(self.victim)
        if deployment.replicated:
            with clock.measure() as timer:
                deployment.fail_over(self.victim)
            metrics.record("promotion", timer.elapsed)
        self._read_phase(metrics, suffix="_after")
        self._write_phase(metrics)

        metrics.finished_at = clock.now()
        return metrics

    def _ingest(self, metrics: WorkloadMetrics) -> None:
        config = self.config
        deployment = self.deployment
        clock = deployment.clock
        batch: list[dict] = []
        for doc_id, path in enumerate(self._paths):
            content = make_content(config.file_size, tag=f"doc{doc_id}", version=0)
            with clock.measure() as timer:
                url = deployment.put_file(self._session, path, content)
                batch.append({"doc_id": doc_id, "body": url})
                if len(batch) >= config.rows_per_transaction or \
                        doc_id == len(self._paths) - 1:
                    host_txn = deployment.begin()
                    deployment.engine.insert_many(DOCS_TABLE, batch, host_txn)
                    deployment.commit(host_txn)
                    metrics.bump("links", len(batch))
                    batch = []
            metrics.record("link_txn", timer.elapsed)
        with clock.measure() as timer:
            deployment.drain()
        if timer.elapsed:
            metrics.record("final_drain", timer.elapsed)
        self._ingested = True

    def _read_phase(self, metrics: WorkloadMetrics, suffix: str) -> None:
        config = self.config
        deployment = self.deployment
        clock = deployment.clock
        for read in range(config.reads_per_phase):
            doc_id = read % len(self._paths)
            path = self._paths[doc_id]
            on_victim = deployment.shard_of(path) == self.victim
            url = self._session.get_datalink(
                DOCS_TABLE, {"doc_id": doc_id}, "body", access="read",
                ttl=TOKEN_TTL)
            try:
                with clock.measure() as timer:
                    deployment.read_url(self._session, url)
                metrics.record(f"read{suffix}", timer.elapsed)
                metrics.bump(f"reads_ok{suffix}")
                if on_victim:
                    metrics.bump(f"victim_reads_ok{suffix}")
            except ReproError:
                metrics.bump(f"reads_failed{suffix}")
                if on_victim:
                    metrics.bump(f"victim_reads_failed{suffix}")

    def _follower_batch(self, metrics: WorkloadMetrics) -> None:
        """A burst of concurrent reads: capacity of the routed read fleet.

        Token handout (host-side SQL) happens before the window; the reads
        themselves run inside one scatter-gather window on the host clock,
        so every read departs together, queues on its target node's own
        timeline, and the batch costs the *slowest node*, not the sum --
        the way a fleet of concurrent visitors loads the cluster.  With
        follower reads on, the router spreads the queueing over the serving
        node plus every witness, so measured throughput scales with the
        node count.
        """

        config = self.config
        if config.follower_read_batch <= 0:
            return
        deployment = self.deployment
        clock = deployment.clock
        urls = []
        for read in range(config.follower_read_batch):
            doc_id = read % len(self._paths)
            urls.append(self._session.get_datalink(
                DOCS_TABLE, {"doc_id": doc_id}, "body", access="read",
                ttl=TOKEN_TTL))
        with clock.measure() as timer:
            with clock.overlap():
                for url in urls:
                    try:
                        deployment.read_url(self._session, url)
                        metrics.bump("follower_reads")
                    except ReproError:
                        metrics.bump("follower_reads_failed")
        metrics.record("follower_batch", timer.elapsed)

    # ------------------------------------------------------------- client sweep --
    def sweep_step(self, step_index: int, clients: int,
                   reads_per_client: int = 1):
        """One step of a routed-reader sweep over the healthy cluster (the
        *stage* of :func:`~repro.workloads.clients.closed_loop_sweep`).

        The per-client replacement for the single :meth:`_follower_batch`
        overlap window: every reader's reads are routed over the serving
        node and eligible witnesses and synced against the chosen node's
        domain.  Tokens are handed out up front (host-side SQL, unmeasured,
        before the pool exists so its clients arrive at the cluster's
        current time).  Requires :meth:`setup`; ingests the configured
        files first if no run has.
        """

        deployment = self.deployment
        if not self._ingested:
            self._ingest(WorkloadMetrics(started_at=deployment.clock.now()))
            deployment.system.flush_logs()
        doc_ids = itertools.cycle(range(len(self._paths)))
        urls_by_reader = [
            [self._session.get_datalink(DOCS_TABLE, {"doc_id": next(doc_ids)},
                                        "body", access="read",
                                        ttl=TOKEN_TTL)
             for _ in range(reads_per_client)]
            for _ in range(clients)]
        yield f"reader{step_index}c", READER_UID + 1000
        failures = [0]

        def routed_read(session, reader_index, op_index):
            try:
                deployment.read_url(session,
                                    urls_by_reader[reader_index][op_index])
            except ReproError:
                failures[0] += 1

        yield reads_per_client, routed_read
        yield {"reads_failed": failures[0]}

    def _write_phase(self, metrics: WorkloadMetrics) -> None:
        """Victim-prefix link transactions after the crash (write availability)."""

        config = self.config
        deployment = self.deployment
        clock = deployment.clock
        prefix = deployment.router.prefix_of(self._paths[0])
        for index in range(config.writes_per_phase):
            doc_id = 100000 + index
            path = f"{prefix}/after{index:05d}.dat"
            content = make_content(config.file_size, tag=f"after{index}",
                                   version=0)
            host_txn = None
            try:
                with clock.measure() as timer:
                    url = deployment.put_file(self._session, path, content)
                    host_txn = deployment.engine.begin()
                    deployment.engine.insert(DOCS_TABLE,
                                             {"doc_id": doc_id, "body": url},
                                             host_txn)
                    deployment.engine.commit(host_txn)
                    host_txn = None
                metrics.record("write_after", timer.elapsed)
                metrics.bump("writes_ok_after")
            except ReproError:
                if host_txn is not None:
                    try:
                        deployment.engine.abort(host_txn)
                    except ReproError:
                        pass
                metrics.bump("writes_failed_after")

    # ------------------------------------------------------------------ derived --
    def link_throughput(self, metrics: WorkloadMetrics) -> float:
        """Links per simulated second over the ingest phase."""

        stats = metrics.stats("link_txn")
        total = stats.total + metrics.stats("final_drain").total
        if total <= 0:
            return 0.0
        return metrics.counters.get("links", 0) / total

    def follower_read_throughput(self, metrics: WorkloadMetrics) -> float:
        """Reads per simulated second over the concurrent read burst."""

        elapsed = metrics.stats("follower_batch").total
        if elapsed <= 0:
            return 0.0
        return metrics.counters.get("follower_reads", 0) / elapsed

    @staticmethod
    def availability(metrics: WorkloadMetrics, *, victim_only: bool = True,
                     after: bool = True) -> float:
        """Fraction of (victim-prefix) reads that succeeded in a phase."""

        scope = "victim_reads" if victim_only else "reads"
        suffix = "_after" if after else ""
        ok = metrics.counters.get(f"{scope}_ok{suffix}", 0)
        failed = metrics.counters.get(f"{scope}_failed{suffix}", 0)
        if ok + failed == 0:
            return 0.0
        return ok / (ok + failed)

    @staticmethod
    def write_availability(metrics: WorkloadMetrics) -> float:
        """Fraction of victim-prefix link transactions that committed."""

        ok = metrics.counters.get("writes_ok_after", 0)
        failed = metrics.counters.get("writes_failed_after", 0)
        if ok + failed == 0:
            return 0.0
        return ok / (ok + failed)
