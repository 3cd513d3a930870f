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
    def sweep_step(self, step_index: int, sessions: int):
        """One step of a concurrent reader-session sweep over the linked site
        (the *stage* of :func:`~repro.workloads.clients.closed_loop_sweep`).

        A Zipf read schedule is spread round-robin over ``sessions`` visitor
        sessions, grown where needed so every session issues at least one
        read.  A session's page tokens are minted up front in one vectorized
        :meth:`~repro.api.session.Session.get_datalink_many` handout -- the
        batch a web tier prefetches for its connection pool -- so the pool
        exists before the handout, whose cost is reported as ``handout_ms``;
        ``max_mb_read_per_server`` is the busiest file server's share.
        """

        config = self.config
        clock = self.system.clock
        chooser = ZipfChooser(config.pages, config.zipf_theta,
                              config.seed + 1 + step_index)
        schedule = chooser.choose_many(max(config.operations, sessions))
        devices = [self.system.file_server(f"web{index}").physical.device
                   for index in range(config.file_servers)]
        bytes_before = [device.stats.bytes_read for device in devices]
        pool = yield f"sweep{step_index}_", 5001
        urls_by_reader = []
        with clock.measure() as handout_timer:
            for reader_index, reader in enumerate(pool.sessions):
                wheres = [{"page_id": page_id}
                          for page_id in schedule[reader_index::sessions]]
                urls_by_reader.append(
                    reader.get_datalink_many(PAGES_TABLE, wheres, "body",
                                             access="read", ttl=3600.0))

        def read_page(session, reader_index, op_index):
            session.read_url(urls_by_reader[reader_index][op_index])

        # The serialized handout left each client's clock at the host
        # time of its own handout; align them so the whole pool starts
        # inside the measured window (throughput <= limit / think).
        pool.sync_clients()
        yield [len(urls) for urls in urls_by_reader], read_page
        yield {
            "handout_ms": round(handout_timer.elapsed * 1000, 3),
            "max_mb_read_per_server": round(max(
                (device.stats.bytes_read - before) / (1024 * 1024)
                for device, before in zip(devices, bytes_before)), 1),
        }

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
