"""Read-mostly static web-site workload.

"Since most static web pages are stored as files in traditional file systems,
the technology can be applied to maintain the consistency and referential
integrity between a web page and its metadata ... our design tries to
minimize the overhead in the read access path.  Accessing static web pages in
a web server is a real world example of such a workload." (Sections 1, 3.2)

The workload links N pages across one or more file servers, then issues a
read-heavy mix (Zipf-skewed page popularity) with occasional in-place updates,
measuring per-operation simulated latency.  A BLOB-in-database variant of the
same site supports the iFS/IXFS comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.system import DataLinksSystem
from repro.datalinks.baselines.blob_store import BlobFileStore
from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.errors import FileSystemError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.workloads.clients import ClientPool
from repro.workloads.generator import WorkloadMetrics, ZipfChooser, make_content

PAGES_TABLE = "web_pages"
WEBMASTER_UID = 2001


@dataclass
class WebSiteConfig:
    """Parameters of the web-site workload."""

    pages: int = 50
    page_size: int = 8 * 1024
    operations: int = 500
    read_fraction: float = 0.98
    control_mode: ControlMode = ControlMode.RFD
    file_servers: int = 1
    zipf_theta: float = 0.99
    seed: int = 42
    #: Number of reader sessions the operation mix is spread over,
    #: round-robin.  ``1`` (the default) reproduces the classic
    #: single-visitor run byte-for-byte; the large bench tier drives
    #: thousands of concurrent client sessions through the same schedule.
    clients: int = 1
    #: The host-side token cache is on by default: a web server re-serving
    #: the same hot (Zipf-skewed) pages re-requests the same capabilities,
    #: which is exactly the hit pattern the cache exists for.
    token_cache: bool = True
    #: Admission-control knobs for :meth:`WebServerWorkload.
    #: run_session_sweep`.  ``admission_limit`` caps concurrent host
    #: connection slots (``None`` admits instantly -- no saturation
    #: knee); ``client_think_s`` is per-read client think time spent
    #: while holding the slot (persistent-connection semantics);
    #: ``client_domain_pool`` caps distinct client clock domains
    #: (``None`` gives every swept session its own domain).
    admission_limit: int | None = None
    client_think_s: float = 0.0
    client_domain_pool: int | None = None


class WebServerWorkload:
    """Build a linked static site and drive a read-mostly operation mix."""

    def __init__(self, config: WebSiteConfig, system: DataLinksSystem | None = None):
        self.config = config
        self.system = system if system is not None else DataLinksSystem()
        self._urls: list[str] = []
        self._webmaster = None

    # -------------------------------------------------------------------- setup --
    def setup(self) -> "WebServerWorkload":
        """Create file servers, the pages table, the files and their links."""

        config = self.config
        if config.token_cache and self.system.engine.token_cache is None:
            self.system.engine.enable_token_cache()
        for index in range(config.file_servers):
            name = f"web{index}"
            if name not in self.system.file_servers:
                self.system.add_file_server(name)
        self.system.create_table(TableSchema(PAGES_TABLE, [
            Column("page_id", DataType.INTEGER, nullable=False),
            Column("title", DataType.TEXT),
            datalink_column("body", DatalinkOptions(control_mode=config.control_mode)),
            Column("body_size", DataType.INTEGER),
            Column("body_mtime", DataType.TIMESTAMP),
        ], primary_key=("page_id",)))
        self.system.register_metadata_columns(PAGES_TABLE, "body",
                                              "body_size", "body_mtime")
        self._webmaster = self.system.session("webmaster", uid=WEBMASTER_UID)
        for page_id in range(config.pages):
            server = f"web{page_id % config.file_servers}"
            path = f"/site/page{page_id:05d}.html"
            content = make_content(config.page_size, tag=f"page{page_id}", version=0)
            url = self._webmaster.put_file(server, path, content)
            self._webmaster.insert(PAGES_TABLE, {
                "page_id": page_id,
                "title": f"Page {page_id}",
                "body": url,
                "body_size": len(content),
                "body_mtime": 0.0,
            })
            self._urls.append(url)
        self.system.run_archiver()
        return self

    # ---------------------------------------------------------------------- run --
    def run(self) -> WorkloadMetrics:
        """Issue the configured operation mix; returns per-operation metrics."""

        config = self.config
        clock = self.system.clock
        metrics = WorkloadMetrics(started_at=clock.now())
        chooser = ZipfChooser(config.pages, config.zipf_theta, config.seed)
        # The whole run's zipf page schedule is one vectorized draw,
        # replayed operation by operation (bit-identical to per-op draws).
        page_schedule = chooser.choose_many(config.operations)
        readers = [self.system.session("visitor", uid=3001)]
        for extra in range(1, config.clients):
            readers.append(
                self.system.session(f"visitor{extra}", uid=3001 + extra))
        updates_budget = int(round(config.operations * (1.0 - config.read_fraction)))
        update_every = max(1, config.operations // max(1, updates_budget)) \
            if updates_budget else config.operations + 1
        version = 1
        client_count = len(readers)
        for op_index in range(config.operations):
            page_id = page_schedule[op_index]
            reader = readers[op_index % client_count]
            if op_index % update_every == 0 and updates_budget > 0:
                elapsed = self._update_page(page_id, version)
                if elapsed is None:
                    metrics.bump("update_conflicts")
                else:
                    metrics.record("update_page", elapsed)
                    version += 1
                updates_budget -= 1
            else:
                with clock.measure() as timer:
                    url = reader.get_datalink(PAGES_TABLE, {"page_id": page_id}, "body",
                                              access="read")
                    reader.read_url(url)
                metrics.record("read_page", timer.elapsed)
        metrics.finished_at = clock.now()
        self.system.run_archiver()
        return metrics

    def _update_page(self, page_id: int, version: int) -> float | None:
        config = self.config
        clock = self.system.clock
        content = make_content(config.page_size, tag=f"page{page_id}", version=version)
        with clock.measure() as timer:
            try:
                url = self._webmaster.get_datalink(PAGES_TABLE, {"page_id": page_id},
                                                   "body", access="write")
                with self._webmaster.update_file(url, truncate=True) as update:
                    update.replace(content)
            except FileSystemError:
                return None
        # Archiving is asynchronous; run it outside the measured window, the
        # way the paper's design keeps it off the critical path.
        self.system.run_archiver()
        return timer.elapsed

    # -------------------------------------------------------------- session sweep --
    def run_session_sweep(self, session_counts, *,
                          operations: int | None = None,
                          token_ttl: float = 3600.0,
                          step_hook=None) -> list[dict]:
        """Sweep concurrent reader-session counts over the linked site.

        Each step spreads a Zipf read schedule round-robin over
        ``sessions`` visitor sessions driven by a
        :class:`~repro.workloads.clients.ClientPool`: every session rides
        its own client clock domain, acquires a host admission slot
        (``admission_limit``), thinks for ``client_think_s`` while
        holding it, reads its page against the serving node's domain and
        releases.  A session's page tokens are minted up front in one
        vectorized :meth:`~repro.api.session.Session.get_datalink_many`
        handout -- the batch a web tier prefetches for its connection
        pool.  Per-read end-to-end latency includes the measured
        admission queue delay (reported separately as ``queue_*``), so
        once ``sessions`` exceeds the admission limit the step reports a
        genuine saturation knee: throughput flattens at the limit while
        p99 keeps growing with session count.  Steps where ``sessions``
        exceeds the schedule length grow the schedule so every session
        issues at least one read.  ``step_hook`` (when given) is called
        once after each step and its return value recorded as the step's
        ``profile_calls`` -- the bench harness uses it to attribute
        deterministic profiler call counts per sweep step.  Returns one
        summary dict per step.
        """

        config = self.config
        system = self.system
        clock = system.clock
        base_operations = config.operations if operations is None else operations
        admission = None
        if config.admission_limit is not None:
            admission = system.enable_admission(config.admission_limit)
        steps = []
        for step_index, sessions in enumerate(session_counts):
            step_ops = max(base_operations, sessions)
            chooser = ZipfChooser(config.pages, config.zipf_theta,
                                  config.seed + 1 + step_index)
            schedule = chooser.choose_many(step_ops)
            pool = ClientPool(system, sessions,
                              limit=config.client_domain_pool,
                              think_s=config.client_think_s,
                              username=f"sweep{step_index}_", uid_base=5001)
            bytes_before = [
                self.system.file_server(f"web{index}").physical.device
                    .stats.bytes_read
                for index in range(config.file_servers)
            ]
            urls_by_reader = []
            with clock.measure() as handout_timer:
                for reader_index, reader in enumerate(pool.sessions):
                    wheres = [{"page_id": page_id}
                              for page_id in schedule[reader_index::sessions]]
                    urls_by_reader.append(
                        reader.get_datalink_many(PAGES_TABLE, wheres, "body",
                                                 access="read", ttl=token_ttl))

            def read_page(session, reader_index, op_index):
                session.read_url(urls_by_reader[reader_index][op_index])

            # The serialized handout left each client's clock at the host
            # time of its own handout; align them so the whole pool starts
            # inside the measured window (throughput <= limit / think).
            pool.sync_clients()
            pool.run([len(urls) for urls in urls_by_reader], read_page)
            summary = pool.summary()
            per_server_mb = [
                (self.system.file_server(f"web{index}").physical.device
                     .stats.bytes_read - bytes_before[index]) / (1024 * 1024)
                for index in range(config.file_servers)
            ]
            steps.append({
                "sessions": sessions,
                "reads": summary["operations"],
                "handout_ms": round(handout_timer.elapsed * 1000, 3),
                "mean_read_ms": round(summary["latency_mean_ms"], 3),
                "read_p50_ms": round(summary["latency_p50_ms"], 3),
                "read_p99_ms": round(summary["latency_p99_ms"], 3),
                "queue_p50_ms": round(summary["queue_p50_ms"], 3),
                "queue_p99_ms": round(summary["queue_p99_ms"], 3),
                "ops_per_sim_s": round(summary["ops_per_sim_s"], 1),
                "max_mb_read_per_server": round(max(per_server_mb), 1),
            })
            if step_hook is not None:
                steps[-1]["profile_calls"] = step_hook()
        if admission is not None:
            system.disable_admission()
        return steps

    @property
    def urls(self) -> list[str]:
        return list(self._urls)


class BlobWebSiteWorkload:
    """The same site and mix, with page bodies stored as BLOBs in the database."""

    def __init__(self, config: WebSiteConfig, system: DataLinksSystem | None = None):
        self.config = config
        self.system = system if system is not None else DataLinksSystem()
        self.store = BlobFileStore(self.system.host_db, self.system.clock)

    def setup(self) -> "BlobWebSiteWorkload":
        for page_id in range(self.config.pages):
            content = make_content(self.config.page_size, tag=f"page{page_id}", version=0)
            self.store.write(f"/site/page{page_id:05d}.html", content)
        return self

    def run(self) -> WorkloadMetrics:
        config = self.config
        clock = self.system.clock
        metrics = WorkloadMetrics(started_at=clock.now())
        chooser = ZipfChooser(config.pages, config.zipf_theta, config.seed)
        page_schedule = chooser.choose_many(config.operations)
        updates_budget = int(round(config.operations * (1.0 - config.read_fraction)))
        update_every = max(1, config.operations // max(1, updates_budget)) \
            if updates_budget else config.operations + 1
        version = 1
        for op_index in range(config.operations):
            page_id = page_schedule[op_index]
            path = f"/site/page{page_id:05d}.html"
            if op_index % update_every == 0 and updates_budget > 0:
                content = make_content(config.page_size, tag=f"page{page_id}",
                                       version=version)
                with clock.measure() as timer:
                    self.store.write(path, content)
                metrics.record("update_page", timer.elapsed)
                version += 1
                updates_budget -= 1
            else:
                with clock.measure() as timer:
                    self.store.read(path)
                metrics.record("read_page", timer.elapsed)
        metrics.finished_at = clock.now()
        return metrics
