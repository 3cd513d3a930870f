"""Skewed-placement workload (experiment E14): static hash vs the balancer.

Drives a :class:`~repro.datalinks.sharding.ShardedDataLinksDeployment`
with zipfian link/read traffic over many URL prefixes, in two variants:

* **static** -- plain hash placement, no control plane.  The zipf head
  lands wherever the hash put it, and whichever shard co-hashes several
  popular prefixes stays the hotspot for the whole run.
* **balanced** -- the same traffic (same seeds) with the
  :class:`~repro.datalinks.balancer.PlacementBalancer` enabled and ticked
  once per round.  The balancer sees the skew in the router's per-prefix
  counters, moves hot prefixes off the loaded shard within its move
  budget, and *splits* a prefix that dominates its shard so the next
  window can spread the subtree.

Per round the workload issues ``links_per_round`` file uploads and
``reads_per_round`` token-validated reads as one **concurrent burst**
inside a scatter-gather window on the host clock (the E12 idiom: every
operation departs together, queues on its target node's own clock
domain, and the round costs the *bottleneck node's* busy time, the way a
fleet of concurrent clients loads the cluster).  Each operation's
latency is its completion time on the node that served it, relative to
the burst start -- so the k-th operation queued behind a hot node pays k
service times, which is exactly what placement skew costs.  Token
handout happens before the window and the links' SQL transactions commit
serially after it (host-side work, placement-independent), mirroring how
E12's follower-read batches are measured.

Each operation is attributed to the shard that owns its path *at issue
time*, so the per-round shard load profile
(:attr:`HotspotWorkload.round_loads`) reflects placement as it evolves.
Latencies are recorded separately for the warm-up half and the
steady-state half of the run (``link_steady`` / ``read_steady``), so the
comparison ignores the rounds the balancer spends converging.

The scoreboard the experiment compares:

* ``max_shard_load_share`` -- the busiest shard's fraction of
  steady-state operations (1/shards is perfect balance);
* steady-state p99 link/read latency -- the tail of the in-burst
  queueing delays, which concentrates on whichever node serves the zipf
  head under static placement and flattens once the balancer spreads the
  hot prefixes;
* ``committed_links_lost`` -- end-of-run audit that every committed
  DATALINK row still resolves (moves and splits must not lose links).

Links refused mid-move with a retryable
:class:`~repro.errors.PlacementError` are counted as ``links_blocked``
(back-pressure, not loss) and excluded from the latency samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datalinks.balancer import BalancerConfig
from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.errors import PlacementError, ReproError
from repro.util.urls import parse_url
from repro.workloads.audit import audit_committed_links
from repro.workloads.generator import (UniformChooser, WorkloadMetrics,
                                       ZipfChooser, make_content)

DOCS_TABLE = "hotspot_docs"
READER_UID = 8101
#: Each prefix holds this many subdirectories, picked uniformly per file.
SUBDIRS = 4
#: Files linked under every prefix before the first round.
SEED_FILES_PER_PREFIX = 2
#: Zipf skew over the prefixes.
THETA = 1.1
#: Seed of the prefix schedule; the subdirectory choice uses ``SEED + 1``.
SEED = 42
#: Lifetime of every read token handed out: none expires within a run.
TOKEN_TTL = 1e9


@dataclass
class HotspotConfig:
    """Parameters of the skewed-placement workload.

    Files are linked in rdb mode, so every read needs a valid token.
    """

    shards: int = 4
    prefixes: int = 8
    rounds: int = 8
    links_per_round: int = 8
    reads_per_round: int = 24
    file_size: int = 512
    #: ``None`` runs the static-placement variant; a config enables the
    #: balancer, ticked once per round.
    balancer: BalancerConfig | None = None


class HotspotWorkload:
    """Zipf-skewed link/read traffic, optionally under the balancer."""

    def __init__(self, config: HotspotConfig,
                 deployment: ShardedDataLinksDeployment | None = None):
        self.config = config
        self.deployment = deployment if deployment is not None else \
            ShardedDataLinksDeployment(config.shards, group_commit_window=1,
                                       replication=True)
        self.balancer = None
        if config.balancer is not None:
            self.balancer = self.deployment.enable_balancer(config.balancer)
        self._session = None
        self._prefix_chooser = ZipfChooser(config.prefixes, theta=THETA,
                                           seed=SEED)
        self._subdir_chooser = UniformChooser(SUBDIRS, seed=SEED + 1)
        self._doc_urls: dict[int, str] = {}
        self._docs_by_prefix: dict[int, list[int]] = {
            index: [] for index in range(config.prefixes)}
        self._read_cursor = 0
        self._next_doc = 0
        self._uploaded: list[tuple[int, str, int]] = []
        #: One ``{shard: operations}`` profile per round, placement as of
        #: issue time.
        self.round_loads: list[dict[str, int]] = []
        #: Per-tick balancer summaries (empty for the static variant).
        self.tick_summaries: list[dict] = []

    # -------------------------------------------------------------------- setup --
    def setup(self) -> "HotspotWorkload":
        from repro.storage.schema import Column, TableSchema
        from repro.storage.values import DataType

        deployment = self.deployment
        deployment.create_table(TableSchema(DOCS_TABLE, [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body",
                            DatalinkOptions(control_mode=ControlMode.RDB,
                                            recovery=True)),
        ], primary_key=("doc_id",)))
        self._session = deployment.session("hotspot", uid=READER_UID)
        return self

    def _path(self, prefix_index: int) -> str:
        subdir = self._subdir_chooser.choose()
        return (f"/p{prefix_index:02d}/d{subdir}"
                f"/doc{self._next_doc:05d}.dat")

    # --------------------------------------------------------------- operations --
    def _link(self, prefix_index: int, metrics: WorkloadMetrics,
              kind: str, loads: dict[str, int]) -> None:
        """One serial link transaction (used for the seeding phase)."""

        deployment = self.deployment
        path = self._path(prefix_index)
        shard = deployment.shard_of(path)
        loads[shard] = loads.get(shard, 0) + 1
        doc_id = self._next_doc
        self._next_doc += 1
        content = make_content(self.config.file_size, tag=f"doc{doc_id}",
                               version=0)
        host_txn = None
        try:
            with deployment.clock.measure() as timer:
                url = deployment.put_file(self._session, path, content)
                host_txn = deployment.engine.begin()
                deployment.engine.insert(DOCS_TABLE,
                                         {"doc_id": doc_id, "body": url},
                                         host_txn)
                deployment.engine.commit(host_txn)
                host_txn = None
            metrics.record(kind, timer.elapsed)
            metrics.bump("links_ok")
            self._doc_urls[doc_id] = url
            self._docs_by_prefix[prefix_index].append(doc_id)
        except PlacementError:
            # The prefix is mid-move: retryable back-pressure.
            if host_txn is not None:
                self._abort_quietly(host_txn)
            metrics.bump("links_blocked")
        except ReproError:
            if host_txn is not None:
                self._abort_quietly(host_txn)
            metrics.bump("links_failed")

    def _abort_quietly(self, host_txn) -> None:
        try:
            self.deployment.engine.abort(host_txn)
        except ReproError:
            pass

    def _shard_domains(self, shard: str) -> list:
        """Clock domains of every node an upload to *shard* touches
        (serving node plus witnesses -- mirroring is part of the write)."""

        deployment = self.deployment
        return [deployment.system.clocks.domain(name)
                for name in deployment.replicas[shard].nodes]

    def _burst_link(self, prefix_index: int, metrics: WorkloadMetrics,
                    kind: str, loads: dict[str, int]) -> None:
        """One upload inside the scatter-gather window.

        Latency is the write's completion on the slowest node it touched
        (serving node + witness mirrors), relative to the burst start --
        uploads queued behind a hot shard pay the queue.  The SQL side of
        the link commits after the window (:meth:`_commit_uploaded`).
        """

        deployment = self.deployment
        path = self._path(prefix_index)
        shard = deployment.shard_of(path)
        doc_id = self._next_doc
        self._next_doc += 1
        content = make_content(self.config.file_size, tag=f"doc{doc_id}",
                               version=0)
        fork = deployment.clock.send_time()
        try:
            url = deployment.put_file(self._session, path, content)
        except PlacementError:
            metrics.bump("links_blocked")
            return
        except ReproError:
            metrics.bump("links_failed")
            return
        loads[shard] = loads.get(shard, 0) + 1
        done = max(domain.now() for domain in self._shard_domains(shard))
        metrics.record(kind, max(0.0, done - fork))
        metrics.bump("links_ok")
        self._uploaded.append((doc_id, url, prefix_index))

    def _commit_uploaded(self, metrics: WorkloadMetrics) -> None:
        """Serially commit the SQL rows of the burst's uploads."""

        deployment = self.deployment
        for doc_id, url, prefix_index in self._uploaded:
            host_txn = None
            try:
                host_txn = deployment.engine.begin()
                deployment.engine.insert(DOCS_TABLE,
                                         {"doc_id": doc_id, "body": url},
                                         host_txn)
                deployment.engine.commit(host_txn)
                self._doc_urls[doc_id] = url
                self._docs_by_prefix[prefix_index].append(doc_id)
            except ReproError:
                if host_txn is not None:
                    self._abort_quietly(host_txn)
                metrics.bump("links_failed")
        self._uploaded = []

    def _read_wheres(self, read_plan) -> list[dict]:
        """The key of each scheduled read that has a target to read."""

        wheres = []
        docs_by_prefix = self._docs_by_prefix
        for prefix_index in read_plan:
            docs = docs_by_prefix[prefix_index]
            if not docs:
                continue
            wheres.append({"doc_id": docs[self._read_cursor % len(docs)]})
            self._read_cursor += 1
        return wheres

    def _burst_read(self, url: str, metrics: WorkloadMetrics,
                    kind: str, loads: dict[str, int]) -> None:
        """One routed read inside the scatter-gather window.

        Routes exactly like
        :meth:`~repro.datalinks.sharding.ShardedDataLinksDeployment.read_url`
        but keeps hold of the chosen node so the read's latency can be
        taken from *that node's* clock domain: its completion time
        relative to the burst start, queueing included.
        """

        deployment = self.deployment
        router = deployment.router
        parsed = parse_url(url)
        shard = router.owner_shard(parsed.server, parsed.path)
        fork = deployment.clock.send_time()
        try:
            server = router.route_read(shard, path=parsed.path)
            router.note_read(parsed.path)
            loads[shard] = loads.get(shard, 0) + 1
            self._session.read_url(url, server=server.name)
        except ReproError:
            metrics.bump("reads_failed")
            return
        domain = deployment.system.clocks.domain(server.name)
        metrics.record(kind, max(0.0, domain.now() - fork))
        metrics.bump("reads_ok")

    def _audit_committed_links(self, metrics: WorkloadMetrics) -> None:
        metrics.counters["committed_links_lost"] = audit_committed_links(
            self.deployment, self._session, DOCS_TABLE, "doc_id", "body",
            TOKEN_TTL)

    # ---------------------------------------------------------------------- run --
    def run(self) -> WorkloadMetrics:
        config = self.config
        deployment = self.deployment
        metrics = WorkloadMetrics(started_at=deployment.clock.now())

        # Seed every prefix so moves have bytes to carry and reads have
        # targets from round one.
        seed_loads: dict[str, int] = {}
        for prefix_index in range(config.prefixes):
            for _ in range(SEED_FILES_PER_PREFIX):
                self._link(prefix_index, metrics, "link_seed", seed_loads)
        deployment.drain()
        deployment.system.run_archiver()
        deployment.system.flush_logs()

        steady_from = config.rounds // 2
        clock = deployment.clock
        for round_index in range(config.rounds):
            stage = "steady" if round_index >= steady_from else "early"
            loads: dict[str, int] = {}
            # The round's zipf schedule is drawn as two vectorized batches
            # (reads first, then links -- the same chooser order the
            # per-operation draws used), then replayed.  Token handout
            # (host-side SQL) happens before the window, like E12's
            # follower batches.
            read_plan = self._prefix_chooser.choose_many(
                config.reads_per_round)
            link_plan = self._prefix_chooser.choose_many(
                config.links_per_round)
            read_urls = [url for url in self._session.get_datalink_many(
                             DOCS_TABLE, self._read_wheres(read_plan),
                             "body", access="read", ttl=TOKEN_TTL)
                         if url is not None]
            reads_per_link = max(1, len(read_urls) // max(1, len(link_plan)))
            with clock.overlap():
                # Interleave uploads and reads so node queues build the
                # way mixed concurrent traffic builds them.
                cursor = 0
                for prefix_index in link_plan:
                    self._burst_link(prefix_index, metrics, f"link_{stage}",
                                     loads)
                    for url in read_urls[cursor:cursor + reads_per_link]:
                        self._burst_read(url, metrics, f"read_{stage}", loads)
                    cursor += reads_per_link
                for url in read_urls[cursor:]:
                    self._burst_read(url, metrics, f"read_{stage}", loads)
            self._commit_uploaded(metrics)
            deployment.drain()
            self.round_loads.append(loads)
            if self.balancer is not None:
                self.tick_summaries.append(self.balancer.tick())

        deployment.drain()
        self._audit_committed_links(metrics)
        metrics.counters["placement_epoch"] = \
            deployment.router.placement.epoch
        if self.balancer is not None:
            for key, value in self.balancer.stats().items():
                metrics.counters[f"balancer_{key}"] = value
        metrics.finished_at = deployment.clock.now()
        return metrics

    # ------------------------------------------------------------------ derived --
    def max_shard_load_share(self) -> float:
        """The busiest shard's fraction of steady-state operations."""

        steady_from = self.config.rounds // 2
        totals: dict[str, int] = {}
        for loads in self.round_loads[steady_from:]:
            for shard, count in loads.items():
                totals[shard] = totals.get(shard, 0) + count
        grand = sum(totals.values())
        if grand == 0:
            return 0.0
        return max(totals.values()) / grand
