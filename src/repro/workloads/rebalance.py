"""Online prefix-rebalancing workload (experiment E13).

Drives a replicated :class:`~repro.datalinks.sharding.ShardedDataLinksDeployment`
through a live prefix move while foreground traffic keeps flowing:

1. **ingest**: link ``hot_files`` token-protected files under one *hot*
   prefix plus ``cold_files`` spread over the other prefixes, archive the
   initial versions and settle the cluster;
2. **before**: a measured slice of mixed foreground traffic (token-handout
   reads through the routing layer plus link transactions to non-moving
   prefixes) establishes the baseline;
3. **during**: the hot prefix is rebalanced to another shard
   (:meth:`~repro.datalinks.sharding.ShardedDataLinksDeployment.rebalance_prefix`,
   timed), and the *same* foreground slice runs **inside the hand-off**:
   hooks armed in the engine's failpoint table at the ``rebalance:export`` /
   ``rebalance:archive`` / ``rebalance:import`` / ``rebalance:fence``
   points (registered in :mod:`repro.util.failpoints`) issue reads and
   links mid-protocol, so the during-phase numbers are genuinely
   concurrent with the move.  Reads of the *moving* prefix keep being
   served on the source from the pre-export snapshot (dual-serve: the
   move is read-invisible, asserted as 100% during-phase read
   availability); links aimed at it are refused with a retryable
   :class:`~repro.errors.PlacementError` and counted separately
   (``links_blocked``) -- back-pressure, not unavailability;
4. **after**: the foreground slice repeats with the prefix on its new
   owner; old URLs (which still name the old shard) must keep resolving,
   and new links to the moved prefix must land on the destination;
5. **witness hand-off probe**: the destination's serving node crashes and
   the shard fails over -- the moved prefix must now serve from the
   *destination's* witness set, proving witness placement followed the
   prefix through the move.

``committed_links_lost`` counts committed DATALINK rows whose URL can no
longer be read at the end of a phase -- the zero-loss acceptance criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.errors import PlacementError, ReproError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.util.urls import parse_url
from repro.workloads.audit import audit_committed_links
from repro.workloads.generator import WorkloadMetrics, make_content

DOCS_TABLE = "rebalanced_docs"
READER_UID = 8001

#: The hand-off failpoints the during-phase foreground slices ride on.
_DURING_POINTS = ("rebalance:export", "rebalance:archive",
                  "rebalance:import", "rebalance:fence")
#: The prefix that moves.
HOT_PREFIX = "/hot"
#: Links aimed at the moving prefix while it moves (blocked) and after.
HOT_LINK_ATTEMPTS = 2
#: Lifetime of every read token handed out: none expires within a run.
TOKEN_TTL = 1e9


@dataclass
class RebalanceConfig:
    """Parameters of the online-rebalance workload.

    Files are linked in rdb mode, so every read needs a valid token.
    """

    shards: int = 3
    hot_files: int = 8
    cold_files: int = 8
    file_size: int = 1024
    reads_per_phase: int = 12
    links_per_phase: int = 4


class RebalanceWorkload:
    """Foreground link/read traffic across a live prefix move."""

    def __init__(self, config: RebalanceConfig,
                 deployment: ShardedDataLinksDeployment | None = None):
        self.config = config
        self.deployment = deployment if deployment is not None else \
            ShardedDataLinksDeployment(config.shards, group_commit_window=4,
                                       replication=True)
        self._session = None
        self._doc_urls: dict[int, str] = {}
        self._next_doc = 0
        self._next_cold = 0
        self._read_cursor = 0
        self.source: str | None = None
        self.dest: str | None = None

    # -------------------------------------------------------------------- setup --
    def setup(self) -> "RebalanceWorkload":
        deployment = self.deployment
        deployment.create_table(TableSchema(DOCS_TABLE, [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body",
                            DatalinkOptions(control_mode=ControlMode.RDB,
                                            recovery=True)),
        ], primary_key=("doc_id",)))
        self._session = deployment.session("mover", uid=READER_UID)
        self.source = deployment.shard_of(f"{HOT_PREFIX}/probe")
        self.dest = next(name for name in deployment.shard_names
                         if name != self.source)
        return self

    def _cold_path(self) -> str:
        """A path in a non-hot prefix (round-robined over the zones)."""

        index = self._next_cold
        self._next_cold += 1
        while True:
            path = f"/zone{index % 16}/doc{index:05d}.dat"
            if self.deployment.router.prefix_of(path) != HOT_PREFIX:
                return path
            index += 1

    def _link(self, path: str, metrics: WorkloadMetrics, phase: str) -> None:
        doc_id = self._next_doc
        self._next_doc += 1
        deployment = self.deployment
        content = make_content(self.config.file_size, tag=f"doc{doc_id}",
                               version=0)
        try:
            with deployment.clock.measure() as timer:
                url = deployment.put_file(self._session, path, content)
                deployment.engine.insert(DOCS_TABLE,
                                         {"doc_id": doc_id, "body": url})
            metrics.record(f"link_{phase}", timer.elapsed)
            metrics.bump(f"links_ok_{phase}")
            self._doc_urls[doc_id] = url
        except PlacementError:
            # The moving prefix refuses new links until the hand-off
            # commits: retryable back-pressure, counted apart from real
            # failures.
            metrics.bump(f"links_blocked_{phase}")
        except ReproError:
            metrics.bump(f"links_failed_{phase}")

    def _read(self, doc_id: int, metrics: WorkloadMetrics, phase: str) -> None:
        deployment = self.deployment
        try:
            url = self._session.get_datalink(
                DOCS_TABLE, {"doc_id": doc_id}, "body", access="read",
                ttl=TOKEN_TTL)
            if url is None:
                metrics.bump(f"reads_failed_{phase}")
                return
            with deployment.clock.measure() as timer:
                deployment.read_url(self._session, url)
            metrics.record(f"read_{phase}", timer.elapsed)
            metrics.bump(f"reads_ok_{phase}")
        except ReproError:
            metrics.bump(f"reads_failed_{phase}")

    def _foreground_slice(self, metrics: WorkloadMetrics, phase: str,
                          *, reads: int, links: int,
                          hot_links: int = 0) -> None:
        """One slice of mixed foreground traffic attributed to *phase*."""

        doc_ids = sorted(self._doc_urls)
        for _ in range(reads):
            if doc_ids:
                # A persistent rotation, so every phase's reads cover hot
                # and cold prefixes alike (mid-move, hot reads are served
                # on the source from the pre-export dual-serve snapshot,
                # so the during-phase availability must stay at 100%).
                self._read(doc_ids[self._read_cursor % len(doc_ids)],
                           metrics, phase)
                self._read_cursor += 1
        for _ in range(links):
            self._link(self._cold_path(), metrics, phase)
        for attempt in range(hot_links):
            self._link(f"{HOT_PREFIX}/live{attempt:04d}"
                       f"-{self._next_doc:05d}.dat", metrics, phase)

    def _audit_committed_links(self, metrics: WorkloadMetrics) -> None:
        """Count committed DATALINK rows that can no longer be read."""

        metrics.counters["committed_links_lost"] = audit_committed_links(
            self.deployment, self._session, DOCS_TABLE, "doc_id", "body",
            TOKEN_TTL)

    # ---------------------------------------------------------------------- run --
    def run(self) -> WorkloadMetrics:
        config = self.config
        deployment = self.deployment
        clock = deployment.clock
        metrics = WorkloadMetrics(started_at=clock.now())

        # -- ingest ----------------------------------------------------------
        for index in range(config.hot_files):
            self._link(f"{HOT_PREFIX}/doc{index:05d}.dat", metrics,
                       "ingest")
        for _ in range(config.cold_files):
            self._link(self._cold_path(), metrics, "ingest")
        deployment.drain()
        deployment.system.run_archiver()
        deployment.system.flush_logs()

        # -- before ----------------------------------------------------------
        self._foreground_slice(metrics, "before",
                               reads=config.reads_per_phase,
                               links=config.links_per_phase)
        deployment.drain()

        # -- during: foreground ops fire inside the hand-off -----------------
        per_point_reads = max(1, config.reads_per_phase // len(_DURING_POINTS))
        per_point_links = max(1, config.links_per_phase // len(_DURING_POINTS))
        hot_per_point = [HOT_LINK_ATTEMPTS if point == "rebalance:import"
                         else 0 for point in _DURING_POINTS]

        def make_hook(hot_links: int):
            def hook():
                self._foreground_slice(metrics, "during",
                                       reads=per_point_reads,
                                       links=per_point_links,
                                       hot_links=hot_links)
            return hook

        for point, hot_links in zip(_DURING_POINTS, hot_per_point):
            deployment.engine.failpoints[point] = make_hook(hot_links)
        try:
            with clock.measure() as timer:
                summary = deployment.rebalance_prefix(HOT_PREFIX,
                                                      self.dest)
        finally:
            deployment.engine.failpoints.clear()
        metrics.record("rebalance", timer.elapsed)
        metrics.counters["moved_files"] = summary["moved_files"]
        metrics.counters["moved_versions"] = summary["moved_versions"]
        metrics.counters["placement_epoch"] = summary["epoch"]
        metrics.counters["swept_files"] = summary["swept_files"]

        # -- after: old URLs resolve, new hot links land on the destination --
        self._foreground_slice(metrics, "after",
                               reads=config.reads_per_phase,
                               links=config.links_per_phase,
                               hot_links=HOT_LINK_ATTEMPTS)
        deployment.drain()
        self._audit_committed_links(metrics)

        # -- witness hand-off probe: promotion serves the moved prefix -------
        deployment.system.flush_logs()
        deployment.crash(self.dest)
        with clock.measure() as timer:
            promotion = deployment.fail_over(self.dest)
        metrics.record("promotion", timer.elapsed)
        metrics.counters["promoted_serving"] = promotion["serving"]
        hot_docs = [doc_id for doc_id, url in self._doc_urls.items()
                    if deployment.router.prefix_of(parse_url(url).path)
                    == HOT_PREFIX]
        for doc_id in hot_docs[:config.reads_per_phase]:
            self._read(doc_id, metrics, "failover")

        metrics.finished_at = clock.now()
        return metrics

    # ------------------------------------------------------------------ derived --
    @staticmethod
    def availability(metrics: WorkloadMetrics, phase: str, kind: str) -> float:
        """Fraction of *kind* (``reads``/``links``) that succeeded in *phase*.

        Blocked links (retryable back-pressure on the moving prefix) do not
        count against availability; real failures do.
        """

        ok = metrics.counters.get(f"{kind}_ok_{phase}", 0)
        failed = metrics.counters.get(f"{kind}_failed_{phase}", 0)
        if ok + failed == 0:
            return 0.0
        return ok / (ok + failed)

    @staticmethod
    def phase_throughput(metrics: WorkloadMetrics, phase: str) -> float:
        """Foreground operations per simulated second within *phase*."""

        elapsed = metrics.stats(f"read_{phase}").total + \
            metrics.stats(f"link_{phase}").total
        ops = metrics.counters.get(f"reads_ok_{phase}", 0) + \
            metrics.counters.get(f"links_ok_{phase}", 0)
        if elapsed <= 0:
            return 0.0
        return ops / elapsed
