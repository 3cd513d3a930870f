"""The reproduced experiments (E1..E14).

The paper's evaluation (Sections 3.2 and 5) is narrative rather than a set of
numbered tables, so each quantitative or comparative claim becomes one
experiment here.  Every experiment builds a fresh simulated system, drives it
through the public API, and reports *simulated* milliseconds (comparable in
shape to the paper's 200 MHz-era measurements) plus whatever counts the claim
is about.  ``python -m repro.bench`` prints all tables, each under the paper
claim it answers (``paper_claim``); ``BENCH_smoke.json`` and
``BENCH_large.json`` record them.  E11-E14 go beyond the paper: E11 measures the
scale-out layer (sharded multi-DLFM deployments, WAL group commit, batched
link pipelines), E12 measures shard replication (WAL-stream shipping to
witness replicas, read availability across a primary crash and failover),
E13 measures online prefix rebalancing (foreground availability while a hot
prefix moves between shards under a 2PC hand-off) and E14 measures the
autonomous placement balancer (zipf-skewed traffic under static hash
placement versus the self-driving balancer's budgeted moves and splits).

Each experiment is one :func:`~repro.bench.runner.experiment` declaration
-- title, claim, columns and the sizes of its tiers -- on the function that
measures it: ``run(context, **sizes)`` returns the rows and
:func:`~repro.bench.runner.run_experiment` makes the result of them.  With
the tiny ``smoke`` sizes every experiment exercises its full code path in a
fraction of a second (``--smoke``, the fast CI sanity pass).  The ``large``
sizes exercise the vectorized-schedule fast paths at volume: E14 at ~100x the
smoke operation count (12 rounds x (120 links + 1080 reads) = 14,400 burst
operations against smoke's 144), E9 spread over 1,200 concurrent reader
sessions, and 10..10,000-client admission-control sweeps in E9, E11 and E12
(every client on its own clock domain; the sweep is where the saturation
knee lives).  That tier is *not* part of tier-1 CI; a full run of it
refreshes ``BENCH_large.json``; working budget: E14 well under a minute.
"""

from __future__ import annotations

from repro.bench.runner import FILES_TABLE, experiment
from repro.datalinks.balancer import BalancerConfig
from repro.datalinks.baselines.blob_store import BlobFileStore
from repro.datalinks.control_modes import ControlMode
from repro.errors import DataLinksError, FileSystemError
from repro.fs.vfs import OpenFlags
from repro.util.urls import parse_url
from repro.workloads.clients import closed_loop_sweep
from repro.workloads.editors import ALL_SCHEMES, EditorConfig, compare_schemes
from repro.workloads.failover import FailoverConfig, FailoverWorkload
from repro.workloads.generator import make_content
from repro.workloads.hotspot import HotspotConfig, HotspotWorkload
from repro.workloads.rebalance import RebalanceConfig, RebalanceWorkload
from repro.workloads.scaleout import ScaleOutConfig, ScaleOutWorkload
from repro.workloads.webserver import (
    BlobWebSiteWorkload,
    WebServerWorkload,
    WebSiteConfig,
)

BEYOND_THE_PAPER = "beyond the paper"


def _measure(clock, operation, repeats: int) -> float:
    """Mean simulated milliseconds of *operation* over *repeats* runs.

    ``clock`` is the clock domain the stopwatch runs on -- the domain
    where the measured operation starts and completes.  Host-side and
    session-driven operations measure on ``system.clock`` (the host domain;
    session file calls merge the file server's completion time back into
    it), while operations driven directly against one file server's file
    system measure on that server's domain.
    """

    total = 0.0
    for _ in range(repeats):
        with clock.measure() as timer:
            operation()
        total += timer.elapsed_ms
    return total / repeats


def _measure_open_close(system, open_path, flags, cred, repeats: int) -> tuple:
    """``(mean ms, upcalls per call)`` of open + close of ``open_path()`` on
    file server fs1.

    open/close (and its upcalls) run entirely on the file server's node,
    so measure on that clock domain and count upcalls in the cluster-wide
    merged statistics.
    """

    server = system.file_server("fs1")
    stats = system.clocks.stats

    def open_close():
        server.lfs.close(server.lfs.open(open_path(), flags, cred))

    before_upcalls = stats.count("upcall_round_trip")
    mean_ms = _measure(server.clock, open_close, repeats)
    return mean_ms, (stats.count("upcall_round_trip") - before_upcalls) / repeats


def _sweep_rows(context, system, stage, label: str, cells: dict,
                sweep, admission_limit, think_s) -> list:
    """The artifact rows of one closed-loop sweep (E9 / E11 / E12).

    *label* is the row label's format over the step record (plus
    ``{gate}``); *cells* maps every other column to the step-record key it
    shows (a string) or, where a sweep row measures nothing, to a constant.
    Under ``--profile`` each step's call count is booked under its label.
    """

    gate = f", admission limit {admission_limit}" \
        if admission_limit is not None else ""
    rows = []
    context.mark_step()
    for step in closed_loop_sweep(system, sweep, stage,
                                  admission_limit=admission_limit,
                                  think_s=think_s):
        row = {"configuration": label.format(gate=gate, **step)}
        for column, source in cells.items():
            row[column] = step[source] if isinstance(source, str) else source
        rows.append(row)
        context.mark_step(row["configuration"])
    return rows


@experiment(
    "E1", "DATALINK column retrieval overhead at the host database",
    sections="3.2",
    paper_claim="Retrieving a DATALINK column, including access token "
                "generation, costs less than 3 ms at the host database "
                "(Section 3.2).",
    columns=("statement", "mean_ms", "within_3ms"),
    default={"repeats": 50}, smoke={"repeats": 2},
    notes="The token-cache row goes beyond the paper: repeated "
          "retrievals of the same (path, access) reuse a still-live "
          "token instead of regenerating the HMAC.")
def e1(context, repeats):
    """SELECT of a DATALINK column with and without token generation."""

    def measured(statement, system, operation):
        return {"statement": statement,
                "mean_ms": _measure(system.clock, operation, repeats)}

    def retrieval(system, access, **options):
        return lambda: system.engine.get_datalink(
            FILES_TABLE, {"file_id": 3}, "doc", access=access, **options)

    system, _, _ = context.build_microsystem(ControlMode.RDB, size=4096, files=10)
    rows = [
        measured("SELECT row (no DATALINK processing)", system,
                 lambda: system.engine.select(FILES_TABLE, {"file_id": 3},
                                              lock=False)),
        measured("SELECT DATALINK with read-token generation", system,
                 retrieval(system, "read")),
    ]

    # Write tokens require an update mode; measure on a second system.
    system_w, _, _ = context.build_microsystem(ControlMode.RFD, size=4096, files=10)
    rows.append(measured("SELECT DATALINK with write-token generation",
                         system_w, retrieval(system_w, "write")))

    # Host-side token cache (ROADMAP read-caching, first slice): repeated
    # retrievals of the same DATALINK reuse the live token and skip the HMAC.
    system_c, _, _ = context.build_microsystem(ControlMode.RDB, size=4096, files=10)
    cache = system_c.engine.enable_token_cache()
    select_cached_token = retrieval(system_c, "read", ttl=10_000.0)
    select_cached_token()   # warm the cache outside the measured window
    cached_ms = _measure(system_c.clock, select_cached_token, repeats)
    rows.append({"statement": "SELECT DATALINK with token cache "
                              f"(hit rate {cache.stats()['hit_rate']:.2f})",
                 "mean_ms": cached_ms})
    for row in rows:
        row["within_3ms"] = "yes" if row["mean_ms"] < 3.0 else "no"
    return rows


@experiment(
    "E2", "DLFS and token-validation overhead on the open/close path",
    sections="3.2",
    paper_claim="The DLFS layer plus token validation add roughly 1 ms to "
                "open, read and close at the file server (Section 3.2); "
                "modes not under full control avoid upcalls on read opens.",
    columns=("mode", "read_open_close_ms", "added_vs_unlinked_ms",
             "upcalls_per_open"),
    default={"repeats": 20}, smoke={"repeats": 2},
    notes="Full-control modes (rdb, rdd) pay two upcalls per tokenized read "
          "open (token validation at lookup, Sync-table check at open); "
          "rff/rfb/rfd reads bypass the DLFM entirely.")
def e2(context, repeats):
    """open+close latency and upcall counts across control modes."""

    rows = []
    baseline_ms = None
    for mode in (None, ControlMode.RFF, ControlMode.RFB, ControlMode.RDB,
                 ControlMode.RFD, ControlMode.RDD):
        system, owner, paths = context.build_microsystem(mode, size=4096)
        path = paths[0]
        needs_token = mode is not None and mode.requires_read_token
        url = None
        if needs_token:
            url = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc",
                                     access="read", ttl=10_000.0)

        def open_path():
            if not needs_token:
                return path
            parsed = parse_url(url)
            return f"{parsed.directory}/{parsed.filename};token={parsed.token}"

        mean_ms, upcalls = _measure_open_close(system, open_path, OpenFlags.READ,
                                               owner.cred, repeats)
        if mode is None:
            baseline_ms = mean_ms
        rows.append({
            "mode": mode.value if mode is not None else "unlinked",
            "read_open_close_ms": mean_ms,
            "added_vs_unlinked_ms": mean_ms - (baseline_ms or 0.0),
            "upcalls_per_open": upcalls,
        })
    return rows


@experiment(
    "E3", "End-to-end read cost: DataLinks vs plain file system vs BLOB-in-DB",
    sections="3.2, 1",
    paper_claim="The DLFS layer and token validation add about 1 ms, i.e. "
                "under 1 % of the time to read a 1 MB file (Section 3.2); "
                "LOB/BLOB approaches pay database processing on every read "
                "byte (Section 1).",
    columns=("size_kb", "plain_fs_ms", "datalinks_fs_ms", "fs_overhead_pct",
             "db_token_ms", "total_overhead_pct", "blob_in_db_ms",
             "blob_overhead_pct"),
    default={"sizes": (64 * 1024, 1024 * 1024, 4 * 1024 * 1024), "repeats": 5},
    smoke={"sizes": (16 * 1024,), "repeats": 1},
    notes="fs_overhead_pct isolates the file-server side (DLFS + upcalls + "
          "token validation), which is what the paper's <1 % figure covers; "
          "total_overhead_pct additionally counts the DATALINK retrieval at "
          "the host database.  Both are fixed per open, so they shrink as "
          "the file grows, while the BLOB penalty is per byte.")
def e3(context, sizes, repeats):
    rows = []
    for size in sizes:
        # plain file system (file not linked) -- a node-local read, measured
        # on the file server's clock domain
        system_plain, owner_plain, paths_plain = \
            context.build_microsystem(None, size=size)
        server_plain = system_plain.file_server("fs1")

        def read_plain():
            server_plain.lfs.read_file(paths_plain[0], owner_plain.cred)

        plain_ms = _measure(server_plain.clock, read_plain, repeats)

        # DataLinks full control: the DB-side token retrieval and the FS-side
        # tokenized read are measured separately so the paper's "<1 % at the
        # file system side" claim can be checked on its own terms.
        system_dl, owner_dl, _ = context.build_microsystem(ControlMode.RDB,
                                                           size=size)
        url_holder = {}

        def retrieve_token():
            url_holder["url"] = owner_dl.get_datalink(FILES_TABLE, {"file_id": 0},
                                                      "doc", access="read")

        def read_datalinks_fs():
            owner_dl.read_url(url_holder["url"])

        token_ms = _measure(system_dl.clock, retrieve_token, repeats)
        datalinks_fs_ms = _measure(system_dl.clock, read_datalinks_fs, repeats)

        # BLOB in the database (iFS / IXFS style)
        system_blob = context.build_host()
        store = BlobFileStore(system_blob.host_db, system_blob.clock)
        store.write("/data/file0.bin", make_content(size, tag="blob", version=0))

        def read_blob():
            store.read("/data/file0.bin")

        blob_ms = _measure(system_blob.clock, read_blob, repeats)

        rows.append({
            "size_kb": size // 1024,
            "plain_fs_ms": plain_ms,
            "datalinks_fs_ms": datalinks_fs_ms,
            "fs_overhead_pct": 100.0 * (datalinks_fs_ms - plain_ms) / plain_ms,
            "db_token_ms": token_ms,
            "total_overhead_pct": 100.0 * (datalinks_fs_ms + token_ms - plain_ms) / plain_ms,
            "blob_in_db_ms": blob_ms,
            "blob_overhead_pct": 100.0 * (blob_ms - plain_ms) / plain_ms,
        })
    return rows


@experiment(
    "E4", "Cost of maintaining file-update status at the DLFM",
    sections="5",
    paper_claim="'There is only minor difference in the response time between "
                "opening a DataLinks managed file and opening a file system "
                "managed file'; the update-status bookkeeping at DLFM is "
                "insignificant (Section 5).",
    columns=("case", "mean_ms", "added_ms"),
    default={"repeats": 20}, smoke={"repeats": 2},
    notes="The managed cases include write-token generation at the host DB, "
          "the lookup/open/close upcalls and the Sync-table and "
          "update-tracking rows -- everything Section 4 adds to an update.")
def e4(context, repeats):
    # Plain file owned by the application: open for write, close.  A
    # node-local operation, measured on the file server's clock domain.
    system_plain, owner_plain, paths_plain = \
        context.build_microsystem(None, size=8192)
    plain_ms, _ = _measure_open_close(
        system_plain, lambda: paths_plain[0],
        OpenFlags.READ | OpenFlags.WRITE, owner_plain.cred, repeats)
    rows = [{"case": "plain file, write open/close (no DataLinks)",
             "mean_ms": plain_ms, "added_ms": 0.0}]

    for mode in (ControlMode.RFD, ControlMode.RDD):
        system, owner, _ = context.build_microsystem(mode, size=8192)

        def managed_write_open_close():
            url = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="write")
            update = owner.update_file(url)
            update.begin()
            update.commit()
            system.run_archiver()

        mean_ms = _measure(system.clock, managed_write_open_close, repeats)
        rows.append({"case": f"{mode.value}-linked file, write open/close "
                             f"(token + Sync + tracking)",
                     "mean_ms": mean_ms, "added_ms": mean_ms - plain_ms})
    return rows


@experiment(
    "E5", "Update schemes under concurrent editing",
    sections="3",
    paper_claim="CICO holds database locks across whole edit sessions and "
                "needs two extra database updates per edit; CAU avoids locks "
                "but admits lost updates; UIP serializes writers at open/close "
                "without losing updates (Section 3).",
    columns=("scheme", "completed_edits", "acquire_conflicts", "lost_updates",
             "rejected_checkins", "mean_busy_s", "elapsed_s", "edits_per_min"),
    default={"editors": 6, "files": 3, "edits_per_editor": 4},
    smoke={"editors": 2, "files": 1, "edits_per_editor": 1},
    notes="cau-overwrite publishes every edit but silently loses intervening "
          "ones; cau-detect refuses them instead; uip and cico both refuse "
          "concurrent writers up front and never lose an update.")
def e5(context, **editing):
    results = compare_schemes(EditorConfig(**editing))
    rows = []
    for scheme in ALL_SCHEMES:
        metrics = results[scheme]
        completed = metrics.counters.get("completed_edits", 0)
        rows.append({
            "scheme": scheme,
            "completed_edits": completed,
            "acquire_conflicts": metrics.counters.get("conflicts", 0),
            "lost_updates": metrics.counters.get("lost_updates", 0),
            "rejected_checkins": metrics.counters.get("rejected_checkins", 0),
            "mean_busy_s": metrics.stats("edit_session").mean,
            "elapsed_s": metrics.elapsed,
            "edits_per_min": 60.0 * completed / metrics.elapsed if metrics.elapsed else 0.0,
        })
    return [{key: (round(value, 3) if isinstance(value, float) else value)
             for key, value in row.items()} for row in rows]


@experiment(
    "E6", "Atomicity of in-place file update",
    sections="4.2, 2.2",
    paper_claim="'This ensures that either all changes to a file between open "
                "and close calls complete successfully or none of the changes "
                "survive the failure' (Section 4.2); DLFM changes roll back "
                "with the SQL transaction (Section 2.2).",
    columns=("scenario", "expected", "observed", "pass"))
def e6(context):
    rows = []

    def scenario(name: str, expected: str, run) -> None:
        observed = run()
        rows.append({"scenario": name, "expected": expected, "observed": observed,
                     "pass": "yes" if observed == expected else "NO"})

    def update_outcome(mode, disturb, survivor=None) -> str:
        """The file after *disturb* hit an update-in-place (*survivor*: the
        content a committed update must leave behind)."""

        system, owner, paths = context.build_microsystem(mode, size=4096)
        files = system.file_server("fs1").files
        before = files.read(paths[0])
        url = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="write")
        disturb(system, owner.update_file(url, truncate=True))
        after = files.read(paths[0])
        if survivor is not None:
            return "committed update survived" if after == survivor \
                else "committed update lost"
        return "last committed version restored" if after == before \
            else "partial update survived"

    def crash_and_recover(system) -> None:
        system.crash_file_server("fs1")
        system.recover_file_server("fs1")

    # 1. explicit abort in the middle of an update
    def fail_mid_update(system, update):
        try:
            with update:
                update.write(b"partial garbage")
                raise RuntimeError("application failure")
        except RuntimeError:
            pass

    scenario("application fails mid-update (rfd)",
             "last committed version restored",
             lambda: update_outcome(ControlMode.RFD, fail_mid_update))

    # 2. file-server crash while an update is open
    def crash_mid_update(system, update):
        update.begin()
        update.write(b"in flight")
        crash_and_recover(system)

    scenario("file server crashes mid-update (rdd)",
             "last committed version restored",
             lambda: update_outcome(ControlMode.RDD, crash_mid_update))

    # 3. crash after commit but before asynchronous archiving
    new_content = make_content(4096, tag="committed", version=1)

    def crash_after_commit(system, update):
        with update:
            update.replace(new_content)
        crash_and_recover(system)    # before the archiver has run

    scenario("crash after close/commit, before archiving",
             "committed update survived",
             lambda: update_outcome(ControlMode.RFD, crash_after_commit,
                                    survivor=new_content))

    # 4. SQL transaction that links a file rolls back
    def run_link_rollback():
        system, owner, paths = context.build_microsystem(None, size=4096)
        url = system.engine.make_url("fs1", paths[0])
        owner.begin()
        owner.insert(FILES_TABLE, {"file_id": 99, "doc": url,
                                   "doc_size": 0, "doc_mtime": 0.0})
        owner.abort()
        linked = system.file_server("fs1").dlfm.repository.linked_file(paths[0])
        attrs = system.file_server("fs1").files.stat(paths[0])
        writable = bool(attrs.mode & 0o200)
        if linked is None and writable:
            return "link undone, file permissions restored"
        return "link or permissions leaked"

    scenario("SQL transaction with link rolls back",
             "link undone, file permissions restored", run_link_rollback)
    return rows


@experiment(
    "E7", "Coordinated backup and point-in-time restore",
    sections="4.4",
    paper_claim="Each file version carries the database state identifier; "
                "restoring the database to a previous point also restores the "
                "corresponding file versions from the archive (Section 4.4).",
    columns=("restore_to", "state_id", "file_content_matches",
             "metadata_matches"),
    notes="Restores are exercised out of order (v1, then back to v0, then "
          "forward to v2) to show the restore picks versions by state id, "
          "not by recency.")
def e7(context):
    system, owner, paths = context.build_microsystem(ControlMode.RFD, size=4096)
    path = paths[0]
    files = system.file_server("fs1").files
    contents = {0: files.read(path)}
    backups = {}

    def update_to(version: int) -> None:
        content = make_content(4096, tag="v", version=version)
        url = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="write")
        with owner.update_file(url, truncate=True) as update:
            update.replace(content)
        system.run_archiver()
        contents[version] = content

    for version in range(3):
        backups[version] = system.backup(f"v{version}")
        update_to(version + 1)

    rows = []
    for version in (1, 0, 2):
        system.restore(backups[version])
        file_content = files.read(path)
        metadata = system.host_db.select_one(FILES_TABLE, {"file_id": 0}, lock=False)
        content_ok = file_content == contents[version]
        metadata_ok = metadata is not None and metadata["doc_size"] == len(contents[version])
        rows.append({
            "restore_to": f"backup taken after v{version}",
            "state_id": backups[version].state_id,
            "file_content_matches": "yes" if content_ok else "NO",
            "metadata_matches": "yes" if metadata_ok else "NO",
        })
    return rows


@experiment(
    "E8", "Synchronization of file access with link/unlink; rfd consistency window",
    sections="4.5, 5",
    paper_claim="Unlink is rejected while a Sync-table entry exists; rdd "
                "serializes readers and writers at open time; rfd leaves a "
                "read/write window; a link can succeed while the file is open "
                "(Sections 4.5 and 5).",
    columns=("scenario", "paper", "observed", "matches_paper"))
def e8(context):
    rows = []

    def record(name: str, paper_expectation: str, observed: str, matches: bool) -> None:
        rows.append({"scenario": name, "paper": paper_expectation,
                     "observed": observed, "matches_paper": "yes" if matches else "NO"})

    def attempt(name: str, paper_expectation: str, action, errors,
                allowed: str, refused: str, paper_refuses: bool) -> None:
        """Record whether *action* goes through or raises one of *errors*."""

        try:
            action()
            record(name, paper_expectation, allowed, not paper_refuses)
        except errors as error:
            record(name, paper_expectation,
                   refused.format(error=type(error).__name__), paper_refuses)

    # a. unlink rejected while the file is open (rdd read)
    system, owner, paths = context.build_microsystem(ControlMode.RDD, size=4096)
    url = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="read")
    fd = owner.open_url(url, OpenFlags.READ)
    attempt("unlink while file open (rdd)", "unlink rejected via Sync table",
            lambda: owner.delete(FILES_TABLE, {"file_id": 0}),
            (DataLinksError, FileSystemError),
            "unlink succeeded", "rejected: {error}", True)
    system.file_server("fs1").lfs.close(fd)

    # b. rfd: a reader holds the file open while a writer updates it
    system, owner, paths = context.build_microsystem(ControlMode.RFD, size=4096)
    reader = system.session("reader", uid=3002)
    reader_fd = system.file_server("fs1").lfs.open(paths[0], OpenFlags.READ, reader.cred)
    wurl = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="write")

    def update_under_the_reader():
        with owner.update_file(wurl, truncate=True) as update:
            update.replace(b"new data visible to the concurrent reader")

    attempt("rfd: write open while another application reads",
            "allowed -- the documented read/write inconsistency window",
            update_under_the_reader, FileSystemError,
            "writer allowed while reader has the file open",
            "writer blocked by existing reader", False)
    data_after = system.file_server("fs1").lfs.read(reader_fd)
    record("rfd: reader's next read during/after the update",
           "may observe the new (or mixed) content",
           "reader saw updated content" if b"new data" in data_after
           else "reader saw original content", b"new data" in data_after)
    system.file_server("fs1").lfs.close(reader_fd)

    # c. rdd: reader open blocks a writer (serialized at open time)
    system, owner, paths = context.build_microsystem(ControlMode.RDD, size=4096)
    rurl = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="read")
    reader_fd = owner.open_url(rurl, OpenFlags.READ)
    wurl = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="write")
    attempt("rdd: write open while a reader holds the file",
            "rejected -- reads and writes serialized at open",
            lambda: owner.update_file(wurl).begin(), FileSystemError,
            "writer allowed", "writer rejected", True)
    system.file_server("fs1").lfs.close(reader_fd)

    # d. rdd: writer open blocks a reader
    wurl = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="write")
    update = owner.update_file(wurl)
    update.begin()
    rurl = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="read")
    attempt("rdd: read open while a writer holds the file",
            "rejected -- reads and writes serialized at open",
            lambda: owner.open_url(rurl, OpenFlags.READ), FileSystemError,
            "reader allowed", "reader rejected", True)
    update.commit()

    # e. link succeeds while the file is already open (acknowledged window)
    system, owner, paths = context.build_microsystem(None, size=4096)
    lfs = system.file_server("fs1").lfs
    open_fd = lfs.open(paths[0], OpenFlags.READ, owner.cred)
    url = system.engine.make_url("fs1", paths[0])
    attempt("link while the file is open by an application",
            "link succeeds (window of inconsistency left as future work)",
            lambda: owner.insert(FILES_TABLE, {"file_id": 0, "doc": url,
                                               "doc_size": 0, "doc_mtime": 0.0}),
            (DataLinksError, FileSystemError),
            "link succeeded", "link rejected", False)
    lfs.close(open_fd)
    return rows


def _token_cache_hit_pct(system) -> float:
    cache = system.engine.token_cache_stats()
    return round(100.0 * cache.get("hit_rate", 0.0), 1) \
        if cache.get("enabled") else 0.0


def _web_mix_row(configuration: str, metrics, **cells) -> dict:
    """An E9 row of one run of the web-site operation mix; *cells* are the
    columns that depend on where the bytes live."""

    reads = metrics.stats("read_page")
    return {
        "configuration": configuration,
        "reads": reads.count,
        "mean_read_ms": round(reads.mean * 1000, 3),
        "read_p50_ms": round(reads.p50 * 1000, 3),
        "read_p99_ms": round(reads.p99 * 1000, 3),
        "queue_p50_ms": 0.0,
        "queue_p99_ms": 0.0,
        "mean_update_ms": round(metrics.stats("update_page").mean * 1000, 3),
        "ops_per_sim_s": round(metrics.throughput(), 1),
        "max_mb_read_per_server": 0.0,
        "host_db_read_mb": 0.0,
        "token_cache_hit_pct": 0.0,
        **cells,
    }


@experiment(
    "E9", "Read-mostly web workload: DataLinks scale-out vs BLOB-in-DB",
    sections="1",
    paper_claim="DataLinks keeps the read path almost free of database "
                "involvement and lets files be spread over multiple file "
                "servers, unlike LOB/BLOB storage which funnels every byte "
                "through the database server (Section 1).",
    columns=("configuration", "reads", "mean_read_ms", "read_p50_ms",
             "read_p99_ms", "queue_p50_ms", "queue_p99_ms", "mean_update_ms",
             "ops_per_sim_s", "max_mb_read_per_server", "host_db_read_mb",
             "token_cache_hit_pct"),
    default={"pages": 24, "operations": 200, "page_size": 64 * 1024,
             "clients": 1, "sweep": (), "admission_limit": None,
             "think_s": 0.0},
    smoke={"pages": 4, "operations": 10, "page_size": 4 * 1024,
           "sweep": (2, 4), "admission_limit": 2, "think_s": 0.05},
    large={"pages": 64, "operations": 2400, "page_size": 16 * 1024,
           "clients": 1200, "sweep": (10, 100, 1000, 10000),
           "admission_limit": 128, "think_s": 2.0},
    notes="max_mb_read_per_server shows how the data-path load spreads as "
          "file servers are added; the BLOB configuration moves that entire "
          "volume through the host database instead.  The host-side token "
          "cache is on by default in the web workload: rfd reads need no "
          "token, so its hit rate reflects the write-token handouts of the "
          "Zipf-hot page updates.  Session-sweep rows spread a tokenized "
          "rdd read mix over N concurrent visitor sessions, each on its "
          "own client clock domain behind the host admission gate: a "
          "session acquires a connection slot (measured queue delay, "
          "the queue_* columns), thinks while holding it, reads, and "
          "releases -- so once N exceeds the admission limit, "
          "ops_per_sim_s flattens at the limit (the saturation knee) "
          "while read_p99_ms keeps growing with the queue.  Each "
          "session's read tokens are minted in one vectorized "
          "get_datalink_many handout whose cost the row reports "
          "separately, and throughput counts the handout inside the "
          "measured window.")
def e9(context, pages, operations, page_size, clients, sweep,
       admission_limit, think_s):
    site = {"pages": pages, "operations": operations, "page_size": page_size}
    linked = [(f"DataLinks rfd, {servers} file server(s)", ControlMode.RFD,
               servers) for servers in (1, 2, 4)]
    # Tokenized-read variant: under rdd every page read needs a read token,
    # so the (default-on) host-side token cache carries the hot path -- the
    # Zipf-skewed popularity means almost every retrieval reuses a live
    # token instead of regenerating the HMAC.
    linked.append(("DataLinks rdd (tokenized reads), 1 file server",
                   ControlMode.RDD, 1))
    rows = []
    for configuration, mode, servers in linked:
        workload = WebServerWorkload(WebSiteConfig(
            **site, file_servers=servers, control_mode=mode,
            clients=clients)).setup()
        metrics = workload.run()
        system = workload.system
        busiest = max(system.file_server(f"web{index}").physical.device
                      .stats.bytes_read for index in range(servers))
        rows.append(_web_mix_row(
            configuration, metrics,
            max_mb_read_per_server=round(busiest / (1024 * 1024), 1),
            token_cache_hit_pct=_token_cache_hit_pct(system)))
    metrics = BlobWebSiteWorkload(WebSiteConfig(**site)).setup().run()
    blob_bytes = sum(stats.count for stats in metrics.operations.values()) * page_size
    rows.append(_web_mix_row("BLOB-in-database (iFS/IXFS style)", metrics,
                             host_db_read_mb=round(blob_bytes / (1024 * 1024), 1)))
    if sweep:
        # Concurrent-session sweep: tokenized (rdd) reads so every page
        # retrieval exercises the vectorized bulk token handout.
        workload = WebServerWorkload(WebSiteConfig(
            **site, file_servers=4, control_mode=ControlMode.RDD)).setup()
        swept = _sweep_rows(
            context, workload.system, workload.sweep_step,
            "rdd session sweep, {clients} sessions{gate} "
            "(bulk handout {handout_ms} ms)",
            {"reads": "operations", "mean_read_ms": "latency_mean_ms",
             "read_p50_ms": "latency_p50_ms", "read_p99_ms": "latency_p99_ms",
             "queue_p50_ms": "queue_p50_ms", "queue_p99_ms": "queue_p99_ms",
             "mean_update_ms": 0.0, "ops_per_sim_s": "ops_per_sim_s",
             "max_mb_read_per_server": "max_mb_read_per_server",
             "host_db_read_mb": 0.0},
            sweep, admission_limit, think_s)
        hit_pct = _token_cache_hit_pct(workload.system)
        for row in swept:
            row["token_cache_hit_pct"] = hit_pct
        rows += swept
    return rows


@experiment(
    "E10", "Ablation: strict read synchronization for rfd-linked files",
    sections="5",
    paper_claim="'Making an upcall to DLFM from DLFS and adding an entry in "
                "the Sync table will eliminate the problem' but 'would incur "
                "additional overhead ... for every open call', which is why "
                "the paper does not recommend it (Section 5).",
    columns=("configuration", "read_open_close_ms", "upcalls_per_read_open",
             "writer_while_reader_open"),
    default={"repeats": 20}, smoke={"repeats": 2},
    notes="The ablation quantifies the trade-off the authors describe: strict "
          "synchronization closes the rfd read/write window at the price of an "
          "upcall plus two Sync-table updates on every read open.")
def e10(context, repeats):
    """Cost and effect of closing the rfd read/write window with Sync entries."""

    rows = []
    for label, strict in (("rfd (default, window open)", False),
                          ("rfd + strict read sync (window closed)", True)):
        system, owner, paths = context.build_microsystem(
            ControlMode.RFD, size=8192, strict_read_sync=strict)
        path = paths[0]
        lfs = system.file_server("fs1").lfs
        mean_ms, upcalls = _measure_open_close(system, lambda: path, OpenFlags.READ,
                                               owner.cred, repeats)

        # Semantic probe: does a writer get in while a reader holds the file?
        reader = system.session("reader", uid=3002)
        reader_fd = lfs.open(path, OpenFlags.READ, reader.cred)
        write_url = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="write")
        try:
            update = owner.update_file(write_url)
            update.begin()
            update.commit()
            writer_outcome = "allowed (window open)"
        except FileSystemError:
            writer_outcome = "rejected (window closed)"
        lfs.close(reader_fd)

        rows.append({
            "configuration": label,
            "read_open_close_ms": mean_ms,
            "upcalls_per_read_open": upcalls,
            "writer_while_reader_open": writer_outcome,
        })
    return rows


@experiment(
    "E11", "Scale-out: sharded DLFMs with group commit and batched pipelines",
    sections=BEYOND_THE_PAPER,
    paper_claim="Beyond the paper: hash-sharding linked files over many "
                "DLFMs, letting each shard's clock domain progress "
                "concurrently, shipping one batched link message per "
                "enlisted shard and resolving commits in groups (one log "
                "force and one prepare/commit message per shard per "
                "batch) should raise link throughput well above the "
                "serial one-server, per-row, per-commit-flush baseline.",
    columns=("configuration", "links", "links_per_sim_s", "mean_txn_ms",
             "txn_p99_ms", "queue_p99_ms", "host_log_flushes",
             "max_links_per_shard", "speedup_vs_baseline"),
    default={"shards": 8, "clients": 4, "transactions_per_client": 3,
             "rows_per_transaction": 16, "file_size": 512, "sweep": (),
             "admission_limit": None, "think_s": 0.0},
    smoke={"shards": 2, "clients": 2, "transactions_per_client": 1,
           "rows_per_transaction": 4, "file_size": 256, "sweep": (2, 4),
           "admission_limit": 2, "think_s": 0.02},
    large={"rows_per_transaction": 8, "sweep": (10, 100, 1000),
           "admission_limit": 64, "think_s": 0.2},
    notes="speedup_vs_baseline is relative to the 1-server clock-domain "
          "row.  The serial-clock rows reproduce the old single-timeline "
          "model, where adding shards *without* batching only adds "
          "two-phase-commit fan-out cost; with per-node clock domains "
          "the same per-row configuration overlaps link work across "
          "shards (the fourth row's win is parallelism alone), and "
          "batching plus WAL group commit stack on top of it while "
          "sharding spreads the linked files (max_links_per_shard) and "
          "with them the data-path load.  Client-sweep rows drive N "
          "concurrent writers, each on its own client clock domain "
          "behind the host admission gate, committing one batched link "
          "transaction apiece: queue_p99_ms is the measured admission "
          "queue delay and txn latency is end-to-end on the client's "
          "timeline, so throughput saturates on whichever is tighter -- "
          "the admission limit or the host commit path.")
def e11(context, shards, clients, transactions_per_client,
        rows_per_transaction, file_size, sweep, admission_limit, think_s):
    """Link throughput of the scale-out layer versus the per-row baseline.

    Links use rdb mode (token-protected reads), so every link drives the
    full DLFM path -- repository rows plus the link-time ownership takeover
    on the shard -- the same deployment style E12 replicates.
    """

    baseline_label = "1 server, per-row links, immediate flush"
    ingest = {"rows_per_transaction": rows_per_transaction,
              "file_size": file_size, "control_mode": ControlMode.RDB}
    per_row = {"batch_links": False, "flush_policy": "immediate",
               "group_commit_window": 1}
    batched = {"batch_links": True, "flush_policy": "group",
               "group_commit_window": 8}

    def run(label, **overrides):
        workload = ScaleOutWorkload(ScaleOutConfig(
            clients=clients, transactions_per_client=transactions_per_client,
            **ingest, **overrides)).setup()
        metrics = workload.run()
        stats = workload.deployment.stats()
        per_shard = stats["linked_files_per_shard"].values()
        return {
            "configuration": label,
            "links": metrics.counters.get("links", 0),
            "links_per_sim_s": round(workload.link_throughput(metrics), 1),
            "mean_txn_ms": round(metrics.stats("link_txn").mean * 1000, 3),
            "txn_p99_ms": round(metrics.stats("link_txn").p99 * 1000, 3),
            "queue_p99_ms": 0.0,
            "host_log_flushes": stats["host_log_flushes"],
            "max_links_per_shard": max(per_shard) if per_shard else 0,
        }

    rows = [
        run("1 server, per-row links, immediate flush, serial clock",
            shards=1, serial_clock=True, **per_row),
        run(f"{shards} shards, per-row links, immediate flush, serial clock",
            shards=shards, serial_clock=True, **per_row),
        run(baseline_label, shards=1, **per_row),
        run(f"{shards} shards, per-row links, immediate flush",
            shards=shards, **per_row),
        run(f"{shards} shards, batched links, group commit",
            shards=shards, **batched),
    ]
    if sweep:
        # Concurrent-writer sweep, one batched link transaction per client.
        workload = ScaleOutWorkload(ScaleOutConfig(
            shards=shards, clients=0, transactions_per_client=0,
            **ingest, **batched)).setup()
        rows += _sweep_rows(
            context, workload.deployment.system, workload.sweep_step,
            "client sweep, {clients} clients{gate}",
            {"links": "links", "links_per_sim_s": "links_per_sim_s",
             "mean_txn_ms": "latency_mean_ms", "txn_p99_ms": "latency_p99_ms",
             "queue_p99_ms": "queue_p99_ms",
             "host_log_flushes": "host_log_flushes",
             "max_links_per_shard": "max_links_per_shard"},
            sweep, admission_limit, think_s)
    baseline = next(row["links_per_sim_s"] for row in rows
                    if row["configuration"] == baseline_label) or 1.0
    for row in rows:
        row["speedup_vs_baseline"] = round(row["links_per_sim_s"] / baseline, 2)
    return rows


@experiment(
    "E12", "Shard replication: writable failover, follower reads, availability",
    sections=BEYOND_THE_PAPER,
    paper_claim="Beyond the paper: shipping each shard's repository WAL "
                "stream to witness replicas and routing through a "
                "replication-aware layer should keep a crashed shard's "
                "URL prefix fully *readable and writable* after "
                "promotion (the promoted witness takes link/unlink "
                "branches and 2PC votes, where the unreplicated "
                "deployment fails every read and every write of that "
                "prefix), and healthy witnesses serving bounded-"
                "staleness follower reads should raise read throughput "
                "with every witness added; the cost is a lower link "
                "ingest rate (content mirroring plus WAL shipping).",
    columns=("configuration", "links_per_sim_s", "victim_reads_after",
             "victim_failures_after", "victim_availability_pct",
             "write_availability_pct", "writes_ok_after",
             "follower_reads_per_sim_s", "mean_read_ms_after", "read_p99_ms",
             "queue_p99_ms", "failover_ms"),
    default={"shards": 4, "files": 32, "reads_per_phase": 48,
             "file_size": 2048, "rows_per_transaction": 8,
             "follower_read_batch": 24, "writes_per_phase": 8, "sweep": (),
             "admission_limit": None, "think_s": 0.0},
    smoke={"shards": 2, "files": 8, "reads_per_phase": 8, "file_size": 256,
           "rows_per_transaction": 4, "follower_read_batch": 8,
           "writes_per_phase": 4, "sweep": (2, 4), "admission_limit": 2,
           "think_s": 0.02},
    large={"sweep": (10, 100, 1000, 10000), "admission_limit": 256,
           "think_s": 0.2},
    notes="Reads use rdb-linked files, so every read needs its token "
          "validated by the node serving it -- failover and follower "
          "reads cover the upcall path, not just raw file content "
          "(witnesses share the primary's token secret, and their "
          "follower-read soft state stays out of the redo-only replica "
          "heaps).  write_availability_pct counts victim-prefix link "
          "transactions after the crash: 0% without replication, ~100% "
          "once the witness is promoted to a full primary.  "
          "follower_reads_per_sim_s measures a concurrent read burst "
          "issued in one scatter-gather window, so it reflects the "
          "bottleneck node's busy time; the router's round-robin over "
          "serving node + witnesses makes it scale with the witness "
          "count.  An epoch fence keeps the deposed ex-primary from "
          "serving anything until it rejoins the (reversed) WAL stream "
          "at fail-back.  Routed-read-sweep rows drive N concurrent "
          "readers over a healthy 1-witness cluster, each on its own "
          "client clock domain behind the host admission gate "
          "(queue_p99_ms is the measured queue delay, and the latency "
          "columns are end-to-end on the reader's timeline); the "
          "crash-phase columns are zero for those rows by "
          "construction.")
def e12(context, sweep, admission_limit, think_s, **cluster):
    """Availability across a shard primary crash: reads, writes, follower reads."""

    shards = cluster["shards"]

    def run(label: str, replication: bool, witnesses: int = 1) -> dict:
        workload = FailoverWorkload(FailoverConfig(
            **cluster, replication=replication, witnesses=witnesses)).setup()
        metrics = workload.run()
        counters = metrics.counters
        return {
            "configuration": label,
            "links_per_sim_s": round(workload.link_throughput(metrics), 1),
            "victim_reads_after": (
                counters.get("victim_reads_ok_after", 0)
                + counters.get("victim_reads_failed_after", 0)),
            "victim_failures_after": counters.get("victim_reads_failed_after", 0),
            "victim_availability_pct": round(
                100.0 * workload.availability(metrics), 1),
            "write_availability_pct": round(
                100.0 * workload.write_availability(metrics), 1),
            "writes_ok_after": counters.get("writes_ok_after", 0),
            "follower_reads_per_sim_s": round(
                workload.follower_read_throughput(metrics), 1),
            "mean_read_ms_after": round(
                metrics.stats("read_after").mean * 1000, 3),
            "read_p99_ms": round(
                metrics.stats("read_after").p99 * 1000, 3),
            "queue_p99_ms": 0.0,
            "failover_ms": round(metrics.stats("promotion").mean * 1000, 3),
        }

    rows = [
        run(f"{shards} shards, no replication (crash = outage)", False),
        run(f"{shards} shards, 1 witness, writable failover + follower reads",
            True, witnesses=1),
        run(f"{shards} shards, 2 witnesses, writable failover + follower reads",
            True, witnesses=2),
    ]
    if sweep:
        # Concurrent-reader sweep over a healthy replicated cluster: the
        # per-client replacement for the follower-read scatter-gather burst.
        workload = FailoverWorkload(FailoverConfig(
            **cluster, replication=True, witnesses=1)).setup()
        rows += _sweep_rows(
            context, workload.deployment.system, workload.sweep_step,
            "routed read sweep, {clients} clients{gate}",
            {"links_per_sim_s": 0.0, "victim_reads_after": 0,
             "victim_failures_after": "reads_failed",
             "victim_availability_pct": 0.0, "write_availability_pct": 0.0,
             "writes_ok_after": 0, "follower_reads_per_sim_s": "ops_per_sim_s",
             "mean_read_ms_after": "latency_mean_ms",
             "read_p99_ms": "latency_p99_ms", "queue_p99_ms": "queue_p99_ms",
             "failover_ms": 0.0},
            sweep, admission_limit, think_s)
    return rows


@experiment(
    "E13", "Online prefix rebalancing: availability during a live shard move",
    sections=BEYOND_THE_PAPER,
    paper_claim="Beyond the paper: converting static hash placement into "
                "a versioned, epoched placement map should let a hot URL "
                "prefix move between shards online -- its linked-file "
                "rows, archived version chain and file content handed "
                "off under one two-phase commit, the destination's "
                "witnesses mirrored in the same step -- with zero "
                "committed-link loss, nonzero foreground link and read "
                "throughput during the move, and the moved prefix "
                "promotable from the destination's witness set "
                "afterwards.",
    columns=("phase", "reads_ok", "reads_failed", "links_ok", "links_blocked",
             "read_availability_pct", "link_availability_pct",
             "ops_per_sim_s", "moved_files", "committed_links_lost",
             "move_ms"),
    default={"shards": 3, "witnesses": 1, "hot_files": 8, "cold_files": 8,
             "file_size": 1024, "reads_per_phase": 12, "links_per_phase": 4},
    smoke={"shards": 2, "hot_files": 4, "cold_files": 4, "file_size": 256,
           "reads_per_phase": 8, "links_per_phase": 4},
    notes="The during-phase traffic runs *inside* the hand-off (hooks "
          "on the rebalance failpoints issue reads and links "
          "mid-protocol).  links_blocked counts links aimed at the "
          "moving prefix itself, refused with a retryable "
          "PlacementError until the map swings -- back-pressure, not "
          "unavailability; hot-prefix reads keep being served on the "
          "source from the pre-export dual-serve snapshot, so "
          "during-phase read availability stays at 100% (the move is "
          "read-invisible).  After the commit a verified sweep "
          "deletes the moved prefix's physical bytes on the fenced "
          "source (deferred and redriven at recovery if any node is "
          "down mid-sweep).  committed_links_lost audits every "
          "committed DATALINK row end-to-end after the move; the "
          "final row crashes the destination's serving node and reads "
          "the moved prefix through the promoted witness -- witness "
          "placement followed the prefix.")
def e13(context, **cluster):
    """Foreground link/read traffic while a hot prefix moves between shards."""

    workload = RebalanceWorkload(RebalanceConfig(**cluster)).setup()
    metrics = workload.run()
    counters = metrics.counters

    moved = counters.get("moved_files", 0)

    def phase_row(phase: str, label: str, *, moved_files: int) -> dict:
        return {
            "phase": label,
            "reads_ok": counters.get(f"reads_ok_{phase}", 0),
            "reads_failed": counters.get(f"reads_failed_{phase}", 0),
            "links_ok": counters.get(f"links_ok_{phase}", 0),
            "links_blocked": counters.get(f"links_blocked_{phase}", 0),
            "read_availability_pct": round(
                100.0 * workload.availability(metrics, phase, "reads"), 1),
            "link_availability_pct": round(
                100.0 * workload.availability(metrics, phase, "links"), 1),
            "ops_per_sim_s": round(
                workload.phase_throughput(metrics, phase), 1),
            "moved_files": moved_files,
            "committed_links_lost": counters.get("committed_links_lost", 0),
            "move_ms": 0.0,
        }

    during = phase_row("during", "during move (inside the 2PC hand-off)",
                       moved_files=moved)
    during["move_ms"] = round(metrics.stats("rebalance").mean * 1000, 3)
    # No links are even attempted in the failover probe: its link and
    # throughput cells stay non-numeric so the per-experiment numeric
    # summary (BENCH_smoke.json) averages measured phases only.
    failover = phase_row("failover",
                         f"after dest failover (moved prefix served by "
                         f"{counters.get('promoted_serving')})",
                         moved_files=moved)
    failover.update(links_ok="n/a", links_blocked="n/a",
                    link_availability_pct="n/a", ops_per_sim_s="n/a",
                    move_ms=round(metrics.stats("promotion").mean * 1000, 3))
    return [
        phase_row("before", "before move", moved_files=0),
        during,
        phase_row("after", "after move (old URLs, new owner)",
                  moved_files=moved),
        failover,
    ]


@experiment(
    "E14", "Autonomous placement balancing under zipf-skewed traffic",
    sections=BEYOND_THE_PAPER,
    paper_claim="Beyond the paper: with placement epoched and moves "
                "online (E13), a balancer daemon watching the routing "
                "layer's per-prefix traffic counters should detect a "
                "zipfian hotspot on its own, move hot prefixes off the "
                "loaded shard within a per-tick move budget and "
                "per-prefix cooldown, split a prefix that dominates its "
                "shard so the subtree can spread, and thereby beat "
                "static hash placement on both max-shard load share and "
                "tail latency -- without losing a single committed "
                "link.",
    columns=("variant", "link_ops", "max_shard_load_share", "link_p50_ms",
             "link_p99_ms", "read_p99_ms", "moves", "max_moves_per_tick",
             "move_budget", "splits", "links_blocked", "committed_links_lost",
             "placement_epoch"),
    default={"shards": 4, "prefixes": 8, "rounds": 8, "links_per_round": 8,
             "reads_per_round": 24, "file_size": 512},
    smoke={"shards": 3, "prefixes": 6, "rounds": 6, "links_per_round": 6,
           "reads_per_round": 18, "file_size": 256},
    large={"prefixes": 12, "rounds": 12, "links_per_round": 120,
           "reads_per_round": 1080},
    notes="link_ops is the variant's total charged simulated primitive "
          "operations, summed across every clock domain in the cluster "
          "(host shards, file servers, replicas) -- the honest "
          "denominator for the large tier's million-op capacity claim.  "
          "Both variants replay the identical zipf traffic (same "
          "seeds); each round's uploads and token-validated reads run "
          "as one concurrent burst in a scatter-gather window, so an "
          "operation's latency is its completion on the node that "
          "served it -- queueing behind the zipf head included, which "
          "is what placement skew costs.  max_shard_load_share is the "
          "busiest shard's fraction of steady-state operations "
          "(1/shards is perfect).  The balanced variant's moves are "
          "all issued by the balancer itself from the router's "
          "per-prefix counters (max_moves_per_tick never exceeds "
          "move_budget); splits deepen the map under a dominating "
          "prefix so its subtrees become independently movable.  "
          "links_blocked counts uploads refused mid-move with the "
          "retryable PlacementError; committed_links_lost audits "
          "every committed row end-to-end after all the balancer's "
          "moves and splits.")
def e14(context, **traffic):
    """Zipf-skewed traffic: static hash placement vs the self-driving balancer."""

    balancer_config = BalancerConfig(window_ops_min=8, move_budget=2,
                                     cooldown_ticks=1,
                                     imbalance_tolerance=1.1,
                                     split_threshold=0.6)
    rows = []
    for variant, balancer in (("static hash", None),
                              ("balanced", balancer_config)):
        workload = HotspotWorkload(HotspotConfig(
            **traffic, balancer=balancer)).setup()
        metrics = workload.run()
        counters = metrics.counters
        rows.append({
            "variant": variant,
            "link_ops": workload.deployment.clocks.stats.total_count(),
            "max_shard_load_share": round(workload.max_shard_load_share(), 3),
            "link_p50_ms": round(metrics.stats("link_steady").p50 * 1000, 3),
            "link_p99_ms": round(metrics.stats("link_steady").p99 * 1000, 3),
            "read_p99_ms": round(metrics.stats("read_steady").p99 * 1000, 3),
            "moves": counters.get("balancer_moves_issued", 0),
            "max_moves_per_tick": counters.get("balancer_max_moves_per_tick",
                                               0),
            "move_budget": counters.get("balancer_move_budget", "n/a"),
            "splits": counters.get("balancer_splits", 0),
            "links_blocked": counters.get("links_blocked", 0),
            "committed_links_lost": counters.get("committed_links_lost", 0),
            "placement_epoch": counters.get("placement_epoch", 0),
        })
    return rows
