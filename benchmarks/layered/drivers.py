"""The four workload drivers.

Each driver builds its system through the public API (``repro.api``,
``ShardedDataLinksDeployment``, ``enable_admission`` / ``enable_balancer``,
``workloads.clients.ClientPool``) and replays a *plan* -- file sizes, file
contents, operation schedule -- that the benchmark itself generates from the
seed.  Nothing under ``repro.workloads`` decides what load is applied, so a
later change under ``src/`` cannot change the load it is measured with.

A driver runs one rep: ``setup(meter)`` then ``run(meter)`` then
``verify()``.  Both phases call ``meter.tick()`` at fixed operation counts, so
slice *i* covers the same work in every rep.  Every read's bytes are compared
with the content the plan expects for that file version; an operation that
raises, is refused or returns other bytes counts as failed.
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.api import DataLinksSystem
from repro.datalinks import ControlMode
from repro.datalinks.balancer import BalancerConfig
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.routing import NodeRole
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.errors import ReproError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.util.urls import parse_url
from repro.workloads.audit import audit_committed_links
from repro.workloads.clients import ClientPool

from . import catalog
from .harness import digest, ledger_by_layer, ledger_snapshot

TABLE = "bench_files"


# --------------------------------------------------------------------------
# plan helpers: everything random comes from the seed, through these
# --------------------------------------------------------------------------
def make_bytes(size: int, tag: str, version: int) -> bytes:
    """Deterministic content of exactly *size* bytes naming file and version."""

    stamp = f"<{tag} v{version}>".encode("ascii")
    return (stamp * (size // len(stamp) + 1))[:size]


def jittered_sizes(rng, nominal: int, count: int) -> list[int]:
    spread = catalog.SIZE_JITTER
    factors = rng.uniform(1.0 - spread, 1.0 + spread, count)
    return [max(1, int(nominal * factor)) for factor in factors]


def zipf_draws(rng, items: int, theta: float, count: int) -> list[int]:
    """*count* Zipf(theta) ranks in ``[0, items)``; rank 0 is the hottest."""

    weights = 1.0 / np.power(np.arange(1, items + 1, dtype=float), theta)
    cdf = np.cumsum(weights / weights.sum())
    draws = np.searchsorted(cdf, rng.random(count), side="right")
    return np.minimum(draws, items - 1).astype(int).tolist()


def exact_share(rng, count: int, share: float) -> list[bool]:
    """*count* flags of which exactly ``round(count * share)`` are set, at
    shuffled positions: the seed moves the operations, not the mix."""

    flags = np.zeros(count, dtype=bool)
    flags[:int(round(count * share))] = True
    rng.shuffle(flags)
    return flags.tolist()


def exact_zipf(rng, items: int, theta: float, count: int) -> list[int]:
    """Like :func:`zipf_draws`, but every rank gets its expected count
    (largest remainders first) and the seed only shuffles the order."""

    weights = 1.0 / np.power(np.arange(1, items + 1, dtype=float), theta)
    ideal = weights / weights.sum() * count
    counts = np.floor(ideal).astype(int)
    short = count - int(counts.sum())
    if short:
        counts[np.argsort(-(ideal - counts), kind="stable")[:short]] += 1
    draws = np.repeat(np.arange(items), counts)
    rng.shuffle(draws)
    return draws.tolist()


def files_table(mode: ControlMode, *, metadata: bool) -> TableSchema:
    columns = [Column("file_id", DataType.INTEGER, nullable=False),
               datalink_column("body", DatalinkOptions(control_mode=mode))]
    if metadata:
        columns += [Column("body_size", DataType.INTEGER),
                    Column("body_mtime", DataType.TIMESTAMP)]
    return TableSchema(TABLE, columns, primary_key=("file_id",))


@dataclass
class RepResult:
    """What one rep measured on the simulated side (identical in every rep)."""

    ops: int = 0
    failed: int = 0
    primary: list = field(default_factory=list)      # sim seconds
    secondary: list = field(default_factory=list)    # sim seconds
    sim_window_s: float = 0.0
    ledger: dict = field(default_factory=dict)       # layer -> [charges, ms]
    counters: dict = field(default_factory=dict)
    digest: str = ""


class Driver:
    """Shared skeleton: public-stats snapshots around the timed phase."""

    name = ""

    def __init__(self, sizes: dict, seed: int):
        self.sizes = sizes
        self.seed = seed
        # One independent stream per (seed, workload).
        self.rng = np.random.default_rng(
            [seed, zlib.crc32(self.name.encode("ascii"))])
        self.system: DataLinksSystem | None = None
        self.expected: dict[int, bytes] = {}
        self.result = RepResult()
        self.archive_jobs = 0

    # -- subclass surface ------------------------------------------------------
    def setup(self, meter) -> None:
        raise NotImplementedError

    def _drive(self, meter) -> None:
        raise NotImplementedError

    def verify(self) -> list[str]:
        """Post-run output checks; returns one line per failed check."""

        return []

    # -- shared ------------------------------------------------------------------
    def _snapshot(self) -> tuple[dict, dict]:
        """``(ledger, counts)``: charges per label and public-stats counters."""

        system = self.system
        wals = [system.host_db.wal] + [server.dlfm.repository.db.wal
                                       for server in system.file_servers.values()]
        urls = parse_url.cache_info()
        tokens = system.engine.token_cache_stats()
        counts = {
            "wal_flushes": sum(wal.flush_count for wal in wals),
            "wal_records": sum(len(wal) for wal in wals),
            "url_hits": urls.hits, "url_lookups": urls.hits + urls.misses,
            "token_hits": tokens.get("hits", 0),
            "token_lookups": tokens.get("hits", 0) + tokens.get("misses", 0),
        }
        for name, server in system.file_servers.items():
            device = server.physical.device.stats
            counts["read:" + name] = device.bytes_read
            counts["written:" + name] = device.bytes_written
        return ledger_snapshot(system.clocks), counts

    def run(self, meter) -> RepResult:
        ledger_before, before = self._snapshot()
        self._drive(meter)
        ledger_after, after = self._snapshot()
        moved = {key: after[key] - before[key] for key in after}
        by_node: dict[str, int] = {}
        for key, amount in moved.items():
            if key.startswith(("read:", "written:")):
                node = key.split(":", 1)[1]
                by_node[node] = by_node.get(node, 0) + amount
        result = self.result
        result.ledger = ledger_by_layer(ledger_before, ledger_after)
        result.counters.update({
            "events": sum(slot[0] for slot in result.ledger.values()),
            "dlfm_row_reads": ledger_after.get("dlfm.row_read", (0, 0.0))[0]
                - ledger_before.get("dlfm.row_read", (0, 0.0))[0],
            "wal_flushes": moved["wal_flushes"],
            "wal_records": moved["wal_records"],
            "bytes_read": sum(amount for key, amount in moved.items()
                              if key.startswith("read:")),
            "bytes_written": sum(amount for key, amount in moved.items()
                                 if key.startswith("written:")),
            "device_bytes_by_node": by_node,
            "url_hit_share": moved["url_hits"] / moved["url_lookups"]
                if moved["url_lookups"] else 0.0,
            "token_hit_share": moved["token_hits"] / moved["token_lookups"]
                if moved["token_lookups"] else 0.0,
            "archive_jobs": self.archive_jobs,
        })
        clocks = self.system.clocks
        result.digest = digest(
            result.ops, result.failed, result.primary, result.secondary,
            result.sim_window_s, sorted(result.ledger.items()),
            sorted(clocks.times_by_domain().items())[:64],
            clocks.global_now())
        return result

    def _new_system(self, prefix: str, mode: ControlMode, *,
                    metadata: bool) -> list[str]:
        """A plain system with the token cache on, ``sizes["servers"]`` file
        servers and the files table; returns the server names."""

        system = self.system = DataLinksSystem()
        system.engine.enable_token_cache()
        names = [f"{prefix}{index}" for index in range(self.sizes["servers"])]
        for name in names:
            system.add_file_server(name)
        system.create_table(files_table(mode, metadata=metadata))
        if metadata:
            system.register_metadata_columns(TABLE, "body", "body_size",
                                             "body_mtime")
        return names

    def _link_files(self, session, meter, names: list[str], paths: list[str],
                    contents: list[bytes], *, metadata: bool) -> None:
        """Stage and link ``file_id`` 0..n-1, one INSERT each (serial ingest)."""

        slice_files = self.sizes["setup_slice"]
        for file_id, content in enumerate(contents):
            url = session.put_file(names[file_id % len(names)],
                                   paths[file_id], content)
            row = {"file_id": file_id, "body": url}
            if metadata:
                row.update(body_size=len(content), body_mtime=0.0)
            session.insert(TABLE, row)
            self.expected[file_id] = content
            if (file_id + 1) % slice_files == 0:
                meter.tick()
        self.system.run_archiver()
        meter.tick()

    def _plan_mix(self, files: list[int], nominal: int) -> None:
        """Which operations of a read/update mix update, and to what size."""

        self.files = files
        self.is_update = exact_share(self.rng, len(files),
                                     self.sizes["update_share"])
        self.update_sizes = jittered_sizes(self.rng, nominal,
                                           sum(self.is_update))
        self.updated: set[int] = set()

    def _drive_mix(self, meter, writers: list, readers: list, tag: str,
                   update_samples: list, read_samples: list) -> None:
        """Serial read/update mix on the host clock, sessions round-robin.

        An update is write token + ``update_file(truncate)`` +
        ``run_archiver``; a read is read token + ``read_url``.  Each kind's
        simulated latencies go to its own sample list.
        """

        system, result, expected = self.system, self.result, self.expected
        clock = system.clock
        slice_ops = self.sizes["slice_ops"]
        update_sizes = iter(self.update_sizes)
        version = 0
        window_start = clock.now()
        for index, file_id in enumerate(self.files):
            started = clock.now()
            try:
                if self.is_update[index]:
                    version += 1
                    content = make_bytes(next(update_sizes),
                                         f"s{self.seed}-{tag}{file_id}",
                                         version)
                    writer = writers[index % len(writers)]
                    url = writer.get_datalink(TABLE, {"file_id": file_id},
                                              "body", access="write")
                    with writer.update_file(url, truncate=True) as update:
                        update.replace(content)
                    self.archive_jobs += system.run_archiver()
                    expected[file_id] = content
                    self.updated.add(file_id)
                    update_samples.append(clock.now() - started)
                else:
                    reader = readers[index % len(readers)]
                    url = reader.get_datalink(TABLE, {"file_id": file_id},
                                              "body", access="read")
                    if reader.read_url(url) != expected[file_id]:
                        result.failed += 1
                    read_samples.append(clock.now() - started)
            except ReproError:
                result.failed += 1
            if (index + 1) % slice_ops == 0:
                meter.tick()
        if len(self.files) % slice_ops:
            meter.tick()
        result.ops = len(self.files)
        result.sim_window_s = clock.now() - window_start


# --------------------------------------------------------------------------
# web_rfd
# --------------------------------------------------------------------------
class WebRfd(Driver):
    """Read-mostly static web site, one serial client (paper sections 1, 3.2)."""

    name = "web_rfd"

    def __init__(self, sizes: dict, seed: int):
        super().__init__(sizes, seed)
        rng, pages = self.rng, sizes["pages"]
        page_sizes = jittered_sizes(rng, sizes["page_bytes"], pages)
        self.contents = [make_bytes(size, f"s{seed}-page{page}", 0)
                         for page, size in enumerate(page_sizes)]
        self._plan_mix(zipf_draws(rng, pages, sizes["theta"], sizes["ops"]),
                       sizes["page_bytes"])

    def setup(self, meter) -> None:
        names = self._new_system("web", ControlMode.RFD, metadata=True)
        self.master = self.system.session("webmaster", uid=2001)
        self.reader = self.system.session("visitor", uid=3001)
        meter.tick()
        paths = [f"/site/page{page:05d}.html"
                 for page in range(self.sizes["pages"])]
        self._link_files(self.master, meter, names, paths, self.contents,
                         metadata=True)

    def _drive(self, meter) -> None:
        self._drive_mix(meter, [self.master], [self.reader], "page",
                        update_samples=self.result.secondary,
                        read_samples=self.result.primary)

    def verify(self) -> list[str]:
        """Ledger closure: every charged millisecond sits in an op's latency.

        Exact (1e-9 relative) on a probe of serial reads, where nothing
        overlaps.  Over the whole timed phase the update path pipelines
        DLFM messages and archiving, so charged time may exceed the summed
        latencies by the overlapped share -- but never fall below them.
        """

        failures = []
        result, system, reader = self.result, self.system, self.reader
        charged = sum(slot[1] for slot in result.ledger.values())
        latencies = (sum(result.primary) + sum(result.secondary)) * 1000.0
        if not -1e-9 <= (charged - latencies) / latencies <= 0.01:
            failures.append(
                f"ledger does not close over the timed phase: layers charged "
                f"{charged!r} ms, operation latencies sum to {latencies!r} ms")
        clock = system.clock
        before = ledger_snapshot(system.clocks)
        probe_ms = 0.0
        for page in range(min(64, self.sizes["pages"])):
            started = clock.now()
            url = reader.get_datalink(TABLE, {"file_id": page}, "body",
                                      access="read")
            reader.read_url(url)
            probe_ms += (clock.now() - started) * 1000.0
        layers = ledger_by_layer(before, ledger_snapshot(system.clocks))
        charged = sum(slot[1] for slot in layers.values())
        if abs(charged - probe_ms) > 1e-9 * probe_ms:
            failures.append(
                f"ledger does not close on the read probe: layers charged "
                f"{charged!r} ms, read latencies sum to {probe_ms!r} ms")
        return failures


# --------------------------------------------------------------------------
# session_knee
# --------------------------------------------------------------------------
class SessionKnee(Driver):
    """Thousands of closed-loop sessions behind a host admission limit."""

    name = "session_knee"

    def __init__(self, sizes: dict, seed: int):
        super().__init__(sizes, seed)
        rng, pages = self.rng, sizes["pages"]
        page_sizes = jittered_sizes(rng, sizes["page_bytes"], pages)
        reads = sizes["sessions"] * sizes["reads_per_session"]
        draws = zipf_draws(rng, pages, sizes["theta"], reads)
        per = sizes["reads_per_session"]
        self.choices = [draws[index * per:(index + 1) * per]
                        for index in range(sizes["sessions"])]
        self.contents = [make_bytes(size, f"s{seed}-page{page}", 0)
                         for page, size in enumerate(page_sizes)]

    def setup(self, meter) -> None:
        sizes = self.sizes
        names = self._new_system("web", ControlMode.RDD, metadata=False)
        system = self.system
        owner = system.session("webmaster", uid=2001)
        meter.tick()
        paths = [f"/site/page{page:05d}.html"
                 for page in range(sizes["pages"])]
        self._link_files(owner, meter, names, paths, self.contents,
                         metadata=False)
        system.enable_admission(sizes["admission"])
        self.pool = ClientPool(system, sizes["sessions"],
                               think_s=sizes["think_s"])
        meter.tick()

    def _drive(self, meter) -> None:
        sizes, system, pool = self.sizes, self.system, self.pool
        result, expected, choices = self.result, self.expected, self.choices
        clock = system.clock
        # Token handout: host-timed, outside the simulated window.
        handout_start = clock.now()
        urls = []
        for index, session in enumerate(pool.sessions):
            wheres = [{"file_id": page} for page in choices[index]]
            urls.append(session.get_datalink_many(
                TABLE, wheres, "body", access="read", ttl=sizes["token_ttl"]))
            if (index + 1) % sizes["handout_slice"] == 0:
                meter.tick()
        if len(pool.sessions) % sizes["handout_slice"]:
            meter.tick()
        result.counters["handout_sim_ms"] = \
            (clock.now() - handout_start) * 1000.0
        pool.sync_clients()
        slice_ops = sizes["slice_ops"]
        done = [0]

        def read_page(session, client, op_index):
            try:
                data = session.read_url(urls[client][op_index])
                if data != expected[choices[client][op_index]]:
                    result.failed += 1
            except ReproError:
                result.failed += 1
            done[0] += 1
            if done[0] % slice_ops == 0:
                meter.tick()

        result.sim_window_s = pool.run(sizes["reads_per_session"], read_page)
        if done[0] % slice_ops:
            meter.tick()
        result.ops = done[0]
        result.primary = list(pool.latency.samples)
        queue = pool.queue_delay.samples
        result.counters["queue_delays"] = list(queue)
        result.counters["ceiling_ops_per_s"] = \
            sizes["admission"] / sizes["think_s"]

    def verify(self) -> list[str]:
        result = self.result
        ceiling = result.counters["ceiling_ops_per_s"]
        throughput = result.ops / result.sim_window_s
        if throughput > ceiling:
            return [f"throughput {throughput!r} ops/sim-s is above the "
                    f"admission ceiling limit/think = {ceiling!r}"]
        return []


# --------------------------------------------------------------------------
# edit_uip
# --------------------------------------------------------------------------
class EditUip(Driver):
    """Update-in-place beside reads over a large linked document set."""

    name = "edit_uip"

    def __init__(self, sizes: dict, seed: int):
        super().__init__(sizes, seed)
        rng, docs = self.rng, sizes["docs"]
        doc_sizes = jittered_sizes(rng, sizes["doc_bytes"], docs)
        self.contents = [make_bytes(size, f"s{seed}-doc{doc}", 0)
                         for doc, size in enumerate(doc_sizes)]
        self._plan_mix(rng.integers(0, docs, sizes["ops"]).tolist(),
                       sizes["doc_bytes"])

    def setup(self, meter) -> None:
        sizes = self.sizes
        names = self._new_system("team", ControlMode.RDD, metadata=True)
        self.owner = self.system.session("teamlead", uid=3999)
        self.editors = [self.system.session(f"editor{index}",
                                            uid=4000 + index)
                        for index in range(sizes["editors"])]
        meter.tick()
        paths = [f"/team/doc{doc:05d}.txt" for doc in range(sizes["docs"])]
        self._link_files(self.owner, meter, names, paths, self.contents,
                         metadata=True)

    def _drive(self, meter) -> None:
        self._drive_mix(meter, self.editors, self.editors, "doc",
                        update_samples=self.result.primary,
                        read_samples=self.result.secondary)

    def verify(self) -> list[str]:
        """Crash and recover every file server; every acknowledged update
        must still read back as the content that was acknowledged."""

        system, owner = self.system, self.owner
        for name in system.file_servers:
            system.crash_file_server(name)
        for name in system.file_servers:
            system.recover_file_server(name)
        lost = []
        for doc in sorted(self.updated):
            try:
                url = owner.get_datalink(TABLE, {"file_id": doc}, "body",
                                         access="read")
                if owner.read_url(url) != self.expected[doc]:
                    lost.append(doc)
            except ReproError:
                lost.append(doc)
        if lost:
            return [f"{len(lost)} acknowledged updates unreadable after "
                    f"crash + recover_file_server (first: doc {lost[0]})"]
        return []


# --------------------------------------------------------------------------
# cluster_hotspot
# --------------------------------------------------------------------------
class ClusterHotspot(Driver):
    """Batched link transactions beside routed reads under the balancer."""

    name = "cluster_hotspot"

    def __init__(self, sizes: dict, seed: int):
        super().__init__(sizes, seed)
        rng = self.rng
        prefixes, subdirs = sizes["prefixes"], sizes["subdirs"]
        theta, rounds = sizes["theta"], sizes["rounds"]
        seeded = prefixes * sizes["seed_per_prefix"]
        per_round = sizes["batches_per_round"] * sizes["links_per_batch"]
        total = seeded + rounds * per_round
        self.seeded = seeded
        self.doc_sizes = jittered_sizes(rng, sizes["doc_bytes"], total)
        # The seed decides sizes and order only.  How many links and reads
        # each prefix gets per round is exact (its Zipf share), and a
        # prefix's documents fill its subdirectories round-robin, so the
        # balancer sees the same traffic windows on every seed.
        prefix_of = [doc % prefixes for doc in range(seeded)]
        for _ in range(rounds):
            prefix_of += exact_zipf(rng, prefixes, theta, per_round)
        by_prefix: list[list[int]] = [[] for _ in range(prefixes)]
        self.paths = []
        for doc, prefix in enumerate(prefix_of):
            subdir = len(by_prefix[prefix]) % subdirs
            by_prefix[prefix].append(doc)
            self.paths.append(f"/p{prefix:02d}/d{subdir}/doc{doc:05d}.dat")
        # Reads cycle through the documents a prefix has linked so far,
        # starting at a seeded offset.
        cursor = rng.integers(0, seeded, prefixes).tolist()
        linked_upto = seeded
        self.read_plan: list[list[int]] = []
        for _ in range(rounds):
            linked_upto += per_round
            plan = []
            for prefix in exact_zipf(rng, prefixes, theta,
                                     sizes["reads_per_round"]):
                docs = by_prefix[prefix]
                # Only documents linked before this round's reads start.
                visible = bisect.bisect_left(docs, linked_upto)
                plan.append(docs[cursor[prefix] % visible])
                cursor[prefix] += 1
            self.read_plan.append(plan)

    def _content(self, doc: int) -> bytes:
        return make_bytes(self.doc_sizes[doc], f"s{self.seed}-doc{doc}", 0)

    def _link_batch(self, docs: list[int]) -> float:
        """put_file each document, then one begin/insert_many/commit."""

        deployment, session = self.deployment, self.session
        rows = []
        for doc in docs:
            content = self._content(doc)
            url = deployment.put_file(session, self.paths[doc], content)
            rows.append({"file_id": doc, "body": url})
            self.expected[doc] = content
        clock = deployment.clock
        started = clock.now()
        host_txn = deployment.begin()
        try:
            deployment.engine.insert_many(TABLE, rows, host_txn)
            deployment.commit(host_txn)
        except ReproError:
            deployment.abort(host_txn)
            raise
        return clock.now() - started

    def setup(self, meter) -> None:
        sizes = self.sizes
        deployment = self.deployment = ShardedDataLinksDeployment(
            sizes["shards"], flush_policy="group",
            group_commit_window=sizes["group_commit_window"],
            replication=True, witnesses=sizes["witnesses"])
        self.system = deployment.system
        self.balancer = deployment.enable_balancer(BalancerConfig(
            move_budget=sizes["move_budget"],
            cooldown_ticks=sizes["cooldown_ticks"]))
        deployment.create_table(TableSchema(TABLE, [
            Column("file_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(
                control_mode=ControlMode.RDB, recovery=True)),
        ], primary_key=("file_id",)))
        self.session = deployment.session("ingest", uid=8101)
        meter.tick()
        batch = sizes["links_per_batch"]
        for first in range(0, self.seeded, batch):
            self._link_batch(list(range(first, min(first + batch,
                                                   self.seeded))))
            meter.tick()
        deployment.drain()
        self.system.run_archiver()
        self.system.flush_logs()
        self.pool = ClientPool(self.system, sizes["readers"], prefix="reader",
                               username="reader", uid_base=8201,
                               think_s=sizes["think_s"])
        meter.tick()

    def _drive(self, meter) -> None:
        sizes, deployment, pool = self.sizes, self.deployment, self.pool
        result, expected = self.result, self.expected
        session, clocks = self.session, deployment.clocks
        batch = sizes["links_per_batch"]
        per_round = sizes["batches_per_round"] * batch
        slice_ops, readers = sizes["slice_ops"], sizes["readers"]
        done = [0]
        handout_s = 0.0
        window_start = clocks.global_now()
        linked = self.seeded
        for round_index in range(sizes["rounds"]):
            for first in range(linked, linked + per_round, batch):
                docs = list(range(first, first + batch))
                try:
                    result.secondary.append(self._link_batch(docs))
                except ReproError:
                    result.failed += len(docs)
                result.ops += len(docs)
                meter.tick()
            linked += per_round
            deployment.drain()
            self.archive_jobs += self.system.run_archiver()
            plan = self.read_plan[round_index]
            handout_start = deployment.clock.now()
            urls = session.get_datalink_many(
                TABLE, [{"file_id": doc} for doc in plan], "body",
                access="read", ttl=sizes["token_ttl"])
            handout_s += deployment.clock.now() - handout_start
            meter.tick()
            # Readers start the round spread over one think period, so a
            # round measures steady closed-loop queueing, not one burst.
            pool.sync_clients()
            for client, clock in enumerate(pool.clocks):
                clock.advance_local(sizes["think_s"] * client / readers)

            def routed_read(reader, client, op_index):
                position = client + op_index * readers
                url = urls[position]
                started = reader.clock.now()
                try:
                    if url is None or deployment.read_url(reader, url) \
                            != expected[plan[position]]:
                        result.failed += 1
                except ReproError:
                    result.failed += 1
                result.primary.append(reader.clock.now() - started)
                done[0] += 1
                if done[0] % slice_ops == 0:
                    meter.tick()

            counts = [len(range(client, len(plan), readers))
                      for client in range(readers)]
            pool.run(counts, routed_read)
            if done[0] % slice_ops:
                raise AssertionError("reads_per_round must be a multiple "
                                     "of slice_ops")
            self.balancer.tick()
            meter.tick()
        deployment.drain()
        meter.tick()
        result.ops += done[0]
        result.sim_window_s = clocks.global_now() - window_start
        balancer = self.balancer.stats()
        roles = deployment.router.stats()["reads_by_role"]
        routed = sum(roles.values())
        result.counters.update({
            "handout_sim_ms": handout_s * 1000.0,
            "moves": balancer["moves_issued"], "splits": balancer["splits"],
            "follower_read_share":
                roles.get(NodeRole.WITNESS, 0) / routed if routed else 0.0,
        })

    def run(self, meter) -> RepResult:
        result = super().run(meter)
        by_shard: dict[str, int] = {}
        for node, moved in result.counters["device_bytes_by_node"].items():
            shard = node.split("-", 1)[0]
            by_shard[shard] = by_shard.get(shard, 0) + moved
        total = sum(by_shard.values())
        result.counters["max_shard_load_share"] = \
            max(by_shard.values()) / total if total else 0.0
        return result

    def verify(self) -> list[str]:
        deployment = self.deployment
        failures = []
        committed = len(deployment.host_db.select(TABLE, lock=False))
        if committed != len(self.expected):
            failures.append(f"{len(self.expected)} links were acknowledged "
                            f"but {committed} rows are committed")
        lost = audit_committed_links(deployment, self.session, TABLE,
                                     "file_id", "body",
                                     self.sizes["token_ttl"])
        if lost:
            failures.append(f"{lost} committed links no longer resolve")
        return failures


DRIVERS = {driver.name: driver
           for driver in (WebRfd, SessionKnee, EditUip, ClusterHotspot)}
