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

``python -m repro.bench --smoke`` runs every experiment with tiny
configurations (:data:`SMOKE_PARAMS`) as a fast CI sanity pass.
"""

from __future__ import annotations

from repro.api.system import DataLinksSystem
from repro.bench.metrics import ExperimentResult
from repro.datalinks.baselines.blob_store import BlobFileStore
from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.errors import DataLinksError, FileSystemError
from repro.fs.vfs import OpenFlags
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.util.urls import parse_url
from repro.workloads.editors import ALL_SCHEMES, EditorConfig, compare_schemes
from repro.workloads.generator import make_content
from repro.workloads.webserver import (
    BlobWebSiteWorkload,
    WebServerWorkload,
    WebSiteConfig,
)

FILES_TABLE = "managed_files"
OWNER_UID = 1001

#: Set by the bench harness during a ``--profile`` run: a zero-argument
#: callable returning the profiler's cumulative function-call count so
#: far.  Sweep experiments use it (via :func:`_profile_step_hook`) to
#: attribute deterministic ``profile_calls`` deltas to each sweep step
#: instead of only the per-experiment total.  ``None`` outside profiled
#: runs.
PROFILE_SNAPSHOT = None


def _profile_step_hook():
    """A per-step call-count delta hook for sweep loops.

    Returns ``None`` when no profiler is attached; otherwise a
    zero-argument callable whose each invocation returns the number of
    profiled function calls since the previous invocation (the first
    interval starts here, at hook creation -- call this right before
    entering the sweep).
    """

    snapshot = PROFILE_SNAPSHOT
    if snapshot is None:
        return None
    state = {"last": snapshot()}

    def hook() -> int:
        current = snapshot()
        delta = current - state["last"]
        state["last"] = current
        return delta

    return hook


# ---------------------------------------------------------------------------
# shared scaffolding
# ---------------------------------------------------------------------------

def _build_system(mode: ControlMode | None, *, size: int = 64 * 1024,
                  server: str = "fs1", path: str = "/data/file0.bin",
                  files: int = 1):
    """Build a system with *files* files; link them when *mode* is given.

    Returns ``(system, owner_session, [paths])``.
    """

    system = DataLinksSystem()
    system.add_file_server(server)
    system.create_table(TableSchema(FILES_TABLE, [
        Column("file_id", DataType.INTEGER, nullable=False),
        datalink_column("doc", DatalinkOptions(control_mode=mode)
                        if mode is not None else DatalinkOptions()),
        Column("doc_size", DataType.INTEGER),
        Column("doc_mtime", DataType.TIMESTAMP),
    ], primary_key=("file_id",)))
    system.register_metadata_columns(FILES_TABLE, "doc", "doc_size", "doc_mtime")
    owner = system.session("owner", uid=OWNER_UID)
    paths = []
    for index in range(files):
        file_path = path if files == 1 else f"/data/file{index}.bin"
        content = make_content(size, tag=f"file{index}", version=0)
        url = owner.put_file(server, file_path, content)
        if mode is not None:
            owner.insert(FILES_TABLE, {"file_id": index, "doc": url,
                                       "doc_size": len(content), "doc_mtime": 0.0})
        paths.append(file_path)
    if mode is not None:
        system.run_archiver()
    return system, owner, paths


def _measure(system: DataLinksSystem, operation, repeats: int = 20,
             clock=None) -> float:
    """Mean simulated milliseconds of *operation* over *repeats* runs.

    ``clock`` selects the clock domain the stopwatch runs on -- the domain
    where the measured operation starts and completes.  Host-side and
    session-driven operations measure on ``system.clock`` (the host domain;
    session file calls merge the file server's completion time back into
    it), while operations driven directly against one file server's file
    system measure on that server's domain.
    """

    stopwatch_clock = clock if clock is not None else system.clock
    total = 0.0
    for _ in range(repeats):
        with stopwatch_clock.measure() as timer:
            operation()
        total += timer.elapsed_ms
    return total / repeats


# ---------------------------------------------------------------------------
# E1 -- DATALINK column retrieval cost at the host database
# ---------------------------------------------------------------------------

def experiment_e1(repeats: int = 50) -> ExperimentResult:
    """SELECT of a DATALINK column with and without token generation."""

    system, owner, _ = _build_system(ControlMode.RDB, size=4096, files=10)
    engine = system.engine

    def select_plain():
        engine.select(FILES_TABLE, {"file_id": 3}, lock=False)

    def select_read_token():
        engine.get_datalink(FILES_TABLE, {"file_id": 3}, "doc", access="read")

    rows = [
        {"statement": "SELECT row (no DATALINK processing)",
         "mean_ms": _measure(system, select_plain, repeats)},
        {"statement": "SELECT DATALINK with read-token generation",
         "mean_ms": _measure(system, select_read_token, repeats)},
    ]

    # Write tokens require an update mode; measure on a second system.
    system_w, _, _ = _build_system(ControlMode.RFD, size=4096, files=10)

    def select_write_token():
        system_w.engine.get_datalink(FILES_TABLE, {"file_id": 3}, "doc", access="write")

    rows.append({"statement": "SELECT DATALINK with write-token generation",
                 "mean_ms": _measure(system_w, select_write_token, repeats)})

    # Host-side token cache (ROADMAP read-caching, first slice): repeated
    # retrievals of the same DATALINK reuse the live token and skip the HMAC.
    system_c, _, _ = _build_system(ControlMode.RDB, size=4096, files=10)
    cache = system_c.engine.enable_token_cache()

    def select_cached_token():
        system_c.engine.get_datalink(FILES_TABLE, {"file_id": 3}, "doc",
                                     access="read", ttl=10_000.0)

    select_cached_token()   # warm the cache outside the measured window
    cached_ms = _measure(system_c, select_cached_token, repeats)
    rows.append({"statement": "SELECT DATALINK with token cache "
                              f"(hit rate {cache.stats()['hit_rate']:.2f})",
                 "mean_ms": cached_ms})
    for row in rows:
        row["within_3ms"] = "yes" if row["mean_ms"] < 3.0 else "no"
    return ExperimentResult(
        experiment_id="E1",
        title="DATALINK column retrieval overhead at the host database",
        paper_claim="Retrieving a DATALINK column, including access token "
                    "generation, costs less than 3 ms at the host database "
                    "(Section 3.2).",
        headers=["statement", "mean_ms", "within_3ms"],
        rows=rows,
        notes="The token-cache row goes beyond the paper: repeated "
              "retrievals of the same (path, access) reuse a still-live "
              "token instead of regenerating the HMAC.",
    )


# ---------------------------------------------------------------------------
# E2 -- DLFS + token validation overhead at open/close, per control mode
# ---------------------------------------------------------------------------

def experiment_e2(repeats: int = 20) -> ExperimentResult:
    """open+close latency and upcall counts across control modes."""

    rows = []
    baseline_ms = None
    scenarios = [("unlinked", None), ("rff", ControlMode.RFF),
                 ("rfb", ControlMode.RFB), ("rdb", ControlMode.RDB),
                 ("rfd", ControlMode.RFD), ("rdd", ControlMode.RDD)]
    for label, mode in scenarios:
        system, owner, paths = _build_system(mode, size=4096)
        path = paths[0]
        server = system.file_server("fs1")
        lfs = server.lfs
        needs_token = mode is not None and mode.requires_read_token
        url = None
        if needs_token:
            url = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc",
                                     access="read", ttl=10_000.0)

        def open_close():
            if needs_token:
                parsed = parse_url(url)
                open_path = f"{parsed.directory}/{parsed.filename};token={parsed.token}"
            else:
                open_path = path
            fd = lfs.open(open_path, OpenFlags.READ, owner.cred)
            lfs.close(fd)

        # open/close (and its upcalls) run entirely on the file server's
        # node, so measure on that clock domain and count upcalls in the
        # cluster-wide merged statistics.
        before_upcalls = system.clocks.stats.count("upcall_round_trip")
        mean_ms = _measure(system, open_close, repeats, clock=server.clock)
        upcalls = (system.clocks.stats.count("upcall_round_trip")
                   - before_upcalls) / repeats
        if label == "unlinked":
            baseline_ms = mean_ms
        rows.append({
            "mode": label,
            "read_open_close_ms": mean_ms,
            "added_vs_unlinked_ms": mean_ms - (baseline_ms or 0.0),
            "upcalls_per_open": upcalls,
        })
    return ExperimentResult(
        experiment_id="E2",
        title="DLFS and token-validation overhead on the open/close path",
        paper_claim="The DLFS layer plus token validation add roughly 1 ms to "
                    "open, read and close at the file server (Section 3.2); "
                    "modes not under full control avoid upcalls on read opens.",
        headers=["mode", "read_open_close_ms", "added_vs_unlinked_ms", "upcalls_per_open"],
        rows=rows,
        notes="Full-control modes (rdb, rdd) pay two upcalls per tokenized read "
              "open (token validation at lookup, Sync-table check at open); "
              "rff/rfb/rfd reads bypass the DLFM entirely.",
    )


# ---------------------------------------------------------------------------
# E3 -- end-to-end read overhead vs file size; DataLinks vs plain FS vs BLOB
# ---------------------------------------------------------------------------

def experiment_e3(sizes: tuple = (64 * 1024, 1024 * 1024, 4 * 1024 * 1024),
                  repeats: int = 5) -> ExperimentResult:
    rows = []
    for size in sizes:
        # plain file system (file not linked) -- a node-local read, measured
        # on the file server's clock domain
        system_plain, owner_plain, paths_plain = _build_system(None, size=size)
        server_plain = system_plain.file_server("fs1")
        lfs_plain = server_plain.lfs

        def read_plain():
            lfs_plain.read_file(paths_plain[0], owner_plain.cred)

        plain_ms = _measure(system_plain, read_plain, repeats,
                            clock=server_plain.clock)

        # DataLinks full control: the DB-side token retrieval and the FS-side
        # tokenized read are measured separately so the paper's "<1 % at the
        # file system side" claim can be checked on its own terms.
        system_dl, owner_dl, _ = _build_system(ControlMode.RDB, size=size)
        url_holder = {}

        def retrieve_token():
            url_holder["url"] = owner_dl.get_datalink(FILES_TABLE, {"file_id": 0},
                                                      "doc", access="read")

        def read_datalinks_fs():
            owner_dl.read_url(url_holder["url"])

        token_ms = _measure(system_dl, retrieve_token, repeats)
        datalinks_fs_ms = _measure(system_dl, read_datalinks_fs, repeats)

        # BLOB in the database (iFS / IXFS style)
        system_blob = DataLinksSystem()
        store = BlobFileStore(system_blob.host_db, system_blob.clock)
        store.write("/data/file0.bin", make_content(size, tag="blob", version=0))

        def read_blob():
            store.read("/data/file0.bin")

        blob_ms = _measure(system_blob, read_blob, repeats)

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
    return ExperimentResult(
        experiment_id="E3",
        title="End-to-end read cost: DataLinks vs plain file system vs BLOB-in-DB",
        paper_claim="The DLFS layer and token validation add about 1 ms, i.e. "
                    "under 1 % of the time to read a 1 MB file (Section 3.2); "
                    "LOB/BLOB approaches pay database processing on every read "
                    "byte (Section 1).",
        headers=["size_kb", "plain_fs_ms", "datalinks_fs_ms", "fs_overhead_pct",
                 "db_token_ms", "total_overhead_pct", "blob_in_db_ms",
                 "blob_overhead_pct"],
        rows=rows,
        notes="fs_overhead_pct isolates the file-server side (DLFS + upcalls + "
              "token validation), which is what the paper's <1 % figure covers; "
              "total_overhead_pct additionally counts the DATALINK retrieval at "
              "the host database.  Both are fixed per open, so they shrink as "
              "the file grows, while the BLOB penalty is per byte.",
    )


# ---------------------------------------------------------------------------
# E4 -- update-status bookkeeping overhead (the paper's Section 5 claim)
# ---------------------------------------------------------------------------

def experiment_e4(repeats: int = 20) -> ExperimentResult:
    rows = []

    # Plain file owned by the application: open for write, close.  A
    # node-local operation, measured on the file server's clock domain.
    system_plain, owner_plain, paths_plain = _build_system(None, size=8192)
    server_plain = system_plain.file_server("fs1")
    lfs_plain = server_plain.lfs

    def plain_write_open_close():
        fd = lfs_plain.open(paths_plain[0], OpenFlags.READ | OpenFlags.WRITE,
                            owner_plain.cred)
        lfs_plain.close(fd)

    plain_ms = _measure(system_plain, plain_write_open_close, repeats,
                        clock=server_plain.clock)
    rows.append({"case": "plain file, write open/close (no DataLinks)",
                 "mean_ms": plain_ms, "added_ms": 0.0})

    for mode in (ControlMode.RFD, ControlMode.RDD):
        system, owner, paths = _build_system(mode, size=8192)

        def managed_write_open_close():
            url = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="write")
            update = owner.update_file(url)
            update.begin()
            update.commit()
            system.run_archiver()

        mean_ms = _measure(system, managed_write_open_close, repeats)
        rows.append({"case": f"{mode.value}-linked file, write open/close "
                             f"(token + Sync + tracking)",
                     "mean_ms": mean_ms, "added_ms": mean_ms - plain_ms})
    return ExperimentResult(
        experiment_id="E4",
        title="Cost of maintaining file-update status at the DLFM",
        paper_claim="'There is only minor difference in the response time between "
                    "opening a DataLinks managed file and opening a file system "
                    "managed file'; the update-status bookkeeping at DLFM is "
                    "insignificant (Section 5).",
        headers=["case", "mean_ms", "added_ms"],
        rows=rows,
        notes="The managed cases include write-token generation at the host DB, "
              "the lookup/open/close upcalls and the Sync-table and "
              "update-tracking rows -- everything Section 4 adds to an update.",
    )


# ---------------------------------------------------------------------------
# E5 -- update schemes compared: UIP vs CICO vs CAU
# ---------------------------------------------------------------------------

def experiment_e5(config: EditorConfig | None = None) -> ExperimentResult:
    base = config if config is not None else EditorConfig(
        editors=6, files=3, edits_per_editor=4)
    results = compare_schemes(base)
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
    return ExperimentResult(
        experiment_id="E5",
        title="Update schemes under concurrent editing",
        paper_claim="CICO holds database locks across whole edit sessions and "
                    "needs two extra database updates per edit; CAU avoids locks "
                    "but admits lost updates; UIP serializes writers at open/close "
                    "without losing updates (Section 3).",
        headers=["scheme", "completed_edits", "acquire_conflicts", "lost_updates",
                 "rejected_checkins", "mean_busy_s", "elapsed_s", "edits_per_min"],
        rows=[{key: (round(value, 3) if isinstance(value, float) else value)
               for key, value in row.items()} for row in rows],
        notes="cau-overwrite publishes every edit but silently loses intervening "
              "ones; cau-detect refuses them instead; uip and cico both refuse "
              "concurrent writers up front and never lose an update.",
    )


# ---------------------------------------------------------------------------
# E6 -- atomicity of file update under aborts and crashes
# ---------------------------------------------------------------------------

def experiment_e6() -> ExperimentResult:
    rows = []

    def scenario(name: str, expected: str, run) -> None:
        observed = run()
        rows.append({"scenario": name, "expected": expected, "observed": observed,
                     "pass": "yes" if observed == expected else "NO"})

    # 1. explicit abort in the middle of an update
    def run_abort():
        system, owner, paths = _build_system(ControlMode.RFD, size=4096)
        before = system.file_server("fs1").files.read(paths[0])
        url = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="write")
        try:
            with owner.update_file(url, truncate=True) as update:
                update.write(b"partial garbage")
                raise RuntimeError("application failure")
        except RuntimeError:
            pass
        after = system.file_server("fs1").files.read(paths[0])
        return "last committed version restored" if after == before \
            else "partial update survived"

    scenario("application fails mid-update (rfd)",
             "last committed version restored", run_abort)

    # 2. file-server crash while an update is open
    def run_crash():
        system, owner, paths = _build_system(ControlMode.RDD, size=4096)
        before = system.file_server("fs1").files.read(paths[0])
        url = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="write")
        update = owner.update_file(url, truncate=True)
        update.begin()
        update.write(b"in flight")
        system.crash_file_server("fs1")
        system.recover_file_server("fs1")
        after = system.file_server("fs1").files.read(paths[0])
        return "last committed version restored" if after == before \
            else "partial update survived"

    scenario("file server crashes mid-update (rdd)",
             "last committed version restored", run_crash)

    # 3. crash after commit but before asynchronous archiving
    def run_crash_after_commit():
        system, owner, paths = _build_system(ControlMode.RFD, size=4096)
        new_content = make_content(4096, tag="committed", version=1)
        url = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="write")
        with owner.update_file(url, truncate=True) as update:
            update.replace(new_content)
        # crash before the archiver has run
        system.crash_file_server("fs1")
        system.recover_file_server("fs1")
        after = system.file_server("fs1").files.read(paths[0])
        return "committed update survived" if after == new_content \
            else "committed update lost"

    scenario("crash after close/commit, before archiving",
             "committed update survived", run_crash_after_commit)

    # 4. SQL transaction that links a file rolls back
    def run_link_rollback():
        system, owner, paths = _build_system(None, size=4096)
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

    return ExperimentResult(
        experiment_id="E6",
        title="Atomicity of in-place file update",
        paper_claim="'This ensures that either all changes to a file between open "
                    "and close calls complete successfully or none of the changes "
                    "survive the failure' (Section 4.2); DLFM changes roll back "
                    "with the SQL transaction (Section 2.2).",
        headers=["scenario", "expected", "observed", "pass"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# E7 -- coordinated backup and point-in-time restore
# ---------------------------------------------------------------------------

def experiment_e7() -> ExperimentResult:
    system, owner, paths = _build_system(ControlMode.RFD, size=4096)
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

    backups[0] = system.backup("v0")
    update_to(1)
    backups[1] = system.backup("v1")
    update_to(2)
    backups[2] = system.backup("v2")
    update_to(3)

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
    return ExperimentResult(
        experiment_id="E7",
        title="Coordinated backup and point-in-time restore",
        paper_claim="Each file version carries the database state identifier; "
                    "restoring the database to a previous point also restores the "
                    "corresponding file versions from the archive (Section 4.4).",
        headers=["restore_to", "state_id", "file_content_matches", "metadata_matches"],
        rows=rows,
        notes="Restores are exercised out of order (v1, then back to v0, then "
              "forward to v2) to show the restore picks versions by state id, "
              "not by recency.",
    )


# ---------------------------------------------------------------------------
# E8 -- synchronization of file access with link/unlink; the rfd window
# ---------------------------------------------------------------------------

def experiment_e8() -> ExperimentResult:
    rows = []

    def record(name: str, paper_expectation: str, observed: str, matches: bool) -> None:
        rows.append({"scenario": name, "paper": paper_expectation,
                     "observed": observed, "matches_paper": "yes" if matches else "NO"})

    # a. unlink rejected while the file is open (rdd read)
    system, owner, paths = _build_system(ControlMode.RDD, size=4096)
    url = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="read")
    fd = owner.open_url(url, OpenFlags.READ)
    try:
        owner.delete(FILES_TABLE, {"file_id": 0})
        record("unlink while file open (rdd)", "unlink rejected via Sync table",
               "unlink succeeded", False)
    except (DataLinksError, FileSystemError) as error:
        record("unlink while file open (rdd)", "unlink rejected via Sync table",
               f"rejected: {type(error).__name__}", True)
    system.file_server("fs1").lfs.close(fd)

    # b. rfd: a reader holds the file open while a writer updates it
    system, owner, paths = _build_system(ControlMode.RFD, size=4096)
    reader = system.session("reader", uid=3002)
    reader_fd = system.file_server("fs1").lfs.open(paths[0], OpenFlags.READ, reader.cred)
    wurl = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="write")
    try:
        with owner.update_file(wurl, truncate=True) as update:
            update.replace(b"new data visible to the concurrent reader")
        observed = "writer allowed while reader has the file open"
        matches = True
    except FileSystemError:
        observed = "writer blocked by existing reader"
        matches = False
    record("rfd: write open while another application reads",
           "allowed -- the documented read/write inconsistency window", observed, matches)
    data_after = system.file_server("fs1").lfs.read(reader_fd)
    record("rfd: reader's next read during/after the update",
           "may observe the new (or mixed) content",
           "reader saw updated content" if b"new data" in data_after
           else "reader saw original content", b"new data" in data_after)
    system.file_server("fs1").lfs.close(reader_fd)

    # c. rdd: reader open blocks a writer (serialized at open time)
    system, owner, paths = _build_system(ControlMode.RDD, size=4096)
    rurl = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="read")
    reader_fd = owner.open_url(rurl, OpenFlags.READ)
    wurl = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="write")
    try:
        owner.update_file(wurl).begin()
        record("rdd: write open while a reader holds the file",
               "rejected -- reads and writes serialized at open", "writer allowed", False)
    except FileSystemError:
        record("rdd: write open while a reader holds the file",
               "rejected -- reads and writes serialized at open", "writer rejected", True)
    system.file_server("fs1").lfs.close(reader_fd)

    # d. rdd: writer open blocks a reader
    wurl = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="write")
    update = owner.update_file(wurl)
    update.begin()
    rurl = owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc", access="read")
    try:
        owner.open_url(rurl, OpenFlags.READ)
        record("rdd: read open while a writer holds the file",
               "rejected -- reads and writes serialized at open", "reader allowed", False)
    except FileSystemError:
        record("rdd: read open while a writer holds the file",
               "rejected -- reads and writes serialized at open", "reader rejected", True)
    update.commit()

    # e. link succeeds while the file is already open (acknowledged window)
    system, owner, paths = _build_system(None, size=4096)
    lfs = system.file_server("fs1").lfs
    open_fd = lfs.open(paths[0], OpenFlags.READ, owner.cred)
    url = system.engine.make_url("fs1", paths[0])
    try:
        owner.insert(FILES_TABLE, {"file_id": 0, "doc": url,
                                   "doc_size": 0, "doc_mtime": 0.0})
        record("link while the file is open by an application",
               "link succeeds (window of inconsistency left as future work)",
               "link succeeded", True)
    except (DataLinksError, FileSystemError):
        record("link while the file is open by an application",
               "link succeeds (window of inconsistency left as future work)",
               "link rejected", False)
    lfs.close(open_fd)

    return ExperimentResult(
        experiment_id="E8",
        title="Synchronization of file access with link/unlink; rfd consistency window",
        paper_claim="Unlink is rejected while a Sync-table entry exists; rdd "
                    "serializes readers and writers at open time; rfd leaves a "
                    "read/write window; a link can succeed while the file is open "
                    "(Sections 4.5 and 5).",
        headers=["scenario", "paper", "observed", "matches_paper"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# E9 -- read-mostly web workload; scale-out and the BLOB comparison
# ---------------------------------------------------------------------------

def experiment_e9(pages: int = 24, operations: int = 200,
                  page_size: int = 64 * 1024,
                  clients: int = 1,
                  session_sweep: tuple = (),
                  admission_limit: int | None = None,
                  client_think_s: float = 0.0) -> ExperimentResult:
    rows = []
    for servers in (1, 2, 4):
        config = WebSiteConfig(pages=pages, operations=operations, page_size=page_size,
                               file_servers=servers, control_mode=ControlMode.RFD,
                               clients=clients)
        workload = WebServerWorkload(config).setup()
        metrics = workload.run()
        per_server_mb = [
            workload.system.file_server(f"web{index}").physical.device.stats.bytes_read
            / (1024 * 1024)
            for index in range(servers)
        ]
        cache = workload.system.engine.token_cache_stats()
        reads = metrics.stats("read_page")
        rows.append({
            "configuration": f"DataLinks rfd, {servers} file server(s)",
            "reads": reads.count,
            "mean_read_ms": round(reads.mean * 1000, 3),
            "read_p50_ms": round(reads.p50 * 1000, 3),
            "read_p99_ms": round(reads.p99 * 1000, 3),
            "queue_p50_ms": 0.0,
            "queue_p99_ms": 0.0,
            "mean_update_ms": round(metrics.stats("update_page").mean * 1000, 3),
            "ops_per_sim_s": round(metrics.throughput(), 1),
            "max_mb_read_per_server": round(max(per_server_mb), 1),
            "host_db_read_mb": 0.0,
            "token_cache_hit_pct": round(100.0 * cache.get("hit_rate", 0.0), 1)
            if cache.get("enabled") else 0.0,
        })
    # Tokenized-read variant: under rdd every page read needs a read token,
    # so the (default-on) host-side token cache carries the hot path -- the
    # Zipf-skewed popularity means almost every retrieval reuses a live
    # token instead of regenerating the HMAC.
    rdd_config = WebSiteConfig(pages=pages, operations=operations,
                               page_size=page_size, file_servers=1,
                               control_mode=ControlMode.RDD, clients=clients)
    rdd = WebServerWorkload(rdd_config).setup()
    metrics = rdd.run()
    cache = rdd.system.engine.token_cache_stats()
    rdd_mb = rdd.system.file_server("web0").physical.device.stats.bytes_read \
        / (1024 * 1024)
    rdd_reads = metrics.stats("read_page")
    rows.append({
        "configuration": "DataLinks rdd (tokenized reads), 1 file server",
        "reads": rdd_reads.count,
        "mean_read_ms": round(rdd_reads.mean * 1000, 3),
        "read_p50_ms": round(rdd_reads.p50 * 1000, 3),
        "read_p99_ms": round(rdd_reads.p99 * 1000, 3),
        "queue_p50_ms": 0.0,
        "queue_p99_ms": 0.0,
        "mean_update_ms": round(metrics.stats("update_page").mean * 1000, 3),
        "ops_per_sim_s": round(metrics.throughput(), 1),
        "max_mb_read_per_server": round(rdd_mb, 1),
        "host_db_read_mb": 0.0,
        "token_cache_hit_pct": round(100.0 * cache.get("hit_rate", 0.0), 1)
        if cache.get("enabled") else 0.0,
    })
    blob_config = WebSiteConfig(pages=pages, operations=operations, page_size=page_size)
    blob = BlobWebSiteWorkload(blob_config).setup()
    metrics = blob.run()
    blob_bytes = sum(stats.count for stats in metrics.operations.values()) * page_size
    blob_reads = metrics.stats("read_page")
    rows.append({
        "configuration": "BLOB-in-database (iFS/IXFS style)",
        "reads": blob_reads.count,
        "mean_read_ms": round(blob_reads.mean * 1000, 3),
        "read_p50_ms": round(blob_reads.p50 * 1000, 3),
        "read_p99_ms": round(blob_reads.p99 * 1000, 3),
        "queue_p50_ms": 0.0,
        "queue_p99_ms": 0.0,
        "mean_update_ms": round(metrics.stats("update_page").mean * 1000, 3),
        "ops_per_sim_s": round(metrics.throughput(), 1),
        "max_mb_read_per_server": 0.0,
        "host_db_read_mb": round(blob_bytes / (1024 * 1024), 1),
        "token_cache_hit_pct": 0.0,
    })
    profile_steps = {}
    if session_sweep:
        # Concurrent-session sweep: tokenized (rdd) reads so every page
        # retrieval exercises the vectorized bulk token handout.  Every
        # swept session rides its own client clock domain through the
        # host admission gate (see repro.workloads.clients).
        sweep_config = WebSiteConfig(pages=pages, operations=operations,
                                     page_size=page_size, file_servers=4,
                                     control_mode=ControlMode.RDD,
                                     admission_limit=admission_limit,
                                     client_think_s=client_think_s)
        sweep = WebServerWorkload(sweep_config).setup()
        gate = f", admission limit {admission_limit}" \
            if admission_limit is not None else ""
        for step in sweep.run_session_sweep(tuple(session_sweep),
                                            step_hook=_profile_step_hook()):
            cache = sweep.system.engine.token_cache_stats()
            label = (f"rdd session sweep, {step['sessions']} sessions{gate} "
                     f"(bulk handout {step['handout_ms']} ms)")
            rows.append({
                "configuration": label,
                "reads": step["reads"],
                "mean_read_ms": step["mean_read_ms"],
                "read_p50_ms": step["read_p50_ms"],
                "read_p99_ms": step["read_p99_ms"],
                "queue_p50_ms": step["queue_p50_ms"],
                "queue_p99_ms": step["queue_p99_ms"],
                "mean_update_ms": 0.0,
                "ops_per_sim_s": step["ops_per_sim_s"],
                "max_mb_read_per_server": step["max_mb_read_per_server"],
                "host_db_read_mb": 0.0,
                "token_cache_hit_pct": round(100.0 * cache.get("hit_rate", 0.0), 1)
                if cache.get("enabled") else 0.0,
            })
            if step.get("profile_calls") is not None:
                profile_steps[label] = step["profile_calls"]
    result = ExperimentResult(
        experiment_id="E9",
        title="Read-mostly web workload: DataLinks scale-out vs BLOB-in-DB",
        paper_claim="DataLinks keeps the read path almost free of database "
                    "involvement and lets files be spread over multiple file "
                    "servers, unlike LOB/BLOB storage which funnels every byte "
                    "through the database server (Section 1).",
        headers=["configuration", "reads", "mean_read_ms", "read_p50_ms",
                 "read_p99_ms", "queue_p50_ms", "queue_p99_ms",
                 "mean_update_ms", "ops_per_sim_s",
                 "max_mb_read_per_server", "host_db_read_mb",
                 "token_cache_hit_pct"],
        rows=rows,
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
              "measured window.",
    )
    if profile_steps:
        result.extra["profile_steps"] = profile_steps
    return result


# ---------------------------------------------------------------------------
# E10 -- ablation: strict read synchronization (the paper's future-work fix)
# ---------------------------------------------------------------------------

def experiment_e10(repeats: int = 20) -> ExperimentResult:
    """Cost and effect of closing the rfd read/write window with Sync entries."""

    from repro.fs.vfs import OpenFlags as _OpenFlags

    rows = []
    for label, strict in (("rfd (default, window open)", False),
                          ("rfd + strict read sync (window closed)", True)):
        system = DataLinksSystem()
        system.add_file_server("fs1", strict_read_upcalls=strict)
        system.create_table(TableSchema(FILES_TABLE, [
            Column("file_id", DataType.INTEGER, nullable=False),
            datalink_column("doc", DatalinkOptions(control_mode=ControlMode.RFD,
                                                   strict_read_sync=strict)),
            Column("doc_size", DataType.INTEGER),
            Column("doc_mtime", DataType.TIMESTAMP),
        ], primary_key=("file_id",)))
        system.register_metadata_columns(FILES_TABLE, "doc", "doc_size", "doc_mtime")
        owner = system.session("owner", uid=OWNER_UID)
        path = "/data/file0.bin"
        url = owner.put_file("fs1", path, make_content(8192, tag="e10"))
        owner.insert(FILES_TABLE, {"file_id": 0, "doc": url,
                                   "doc_size": 0, "doc_mtime": 0.0})
        system.run_archiver()
        server = system.file_server("fs1")
        lfs = server.lfs

        def open_close():
            fd = lfs.open(path, _OpenFlags.READ, owner.cred)
            lfs.close(fd)

        before_upcalls = system.clocks.stats.count("upcall_round_trip")
        mean_ms = _measure(system, open_close, repeats, clock=server.clock)
        upcalls = (system.clocks.stats.count("upcall_round_trip")
                   - before_upcalls) / repeats

        # Semantic probe: does a writer get in while a reader holds the file?
        reader = system.session("reader", uid=3002)
        reader_fd = lfs.open(path, _OpenFlags.READ, reader.cred)
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
    return ExperimentResult(
        experiment_id="E10",
        title="Ablation: strict read synchronization for rfd-linked files",
        paper_claim="'Making an upcall to DLFM from DLFS and adding an entry in "
                    "the Sync table will eliminate the problem' but 'would incur "
                    "additional overhead ... for every open call', which is why "
                    "the paper does not recommend it (Section 5).",
        headers=["configuration", "read_open_close_ms", "upcalls_per_read_open",
                 "writer_while_reader_open"],
        rows=rows,
        notes="The ablation quantifies the trade-off the authors describe: strict "
              "synchronization closes the rfd read/write window at the price of an "
              "upcall plus two Sync-table updates on every read open.",
    )


# ---------------------------------------------------------------------------
# E11 -- scale-out: sharded multi-DLFM, WAL group commit, batched pipelines
# ---------------------------------------------------------------------------

def experiment_e11(shards: int = 8, clients: int = 4,
                   transactions_per_client: int = 3,
                   rows_per_transaction: int = 16,
                   file_size: int = 512,
                   client_sweep: tuple = (),
                   sweep_admission_limit: int | None = None,
                   sweep_think_s: float = 0.0) -> ExperimentResult:
    """Link throughput of the scale-out layer versus the per-row baseline.

    Links use rdb mode (token-protected reads), so every link drives the
    full DLFM path -- repository rows plus the link-time ownership takeover
    on the shard -- the same deployment style E12 replicates.
    """

    from repro.datalinks.control_modes import ControlMode as _ControlMode
    from repro.workloads.scaleout import ScaleOutConfig, ScaleOutWorkload

    def run(label, **overrides):
        config = ScaleOutConfig(clients=clients,
                                transactions_per_client=transactions_per_client,
                                rows_per_transaction=rows_per_transaction,
                                file_size=file_size,
                                control_mode=_ControlMode.RDB, **overrides)
        workload = ScaleOutWorkload(config).setup()
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
            shards=1, batch_links=False, flush_policy="immediate",
            group_commit_window=1, serial_clock=True),
        run(f"{shards} shards, per-row links, immediate flush, serial clock",
            shards=shards, batch_links=False, flush_policy="immediate",
            group_commit_window=1, serial_clock=True),
        run("1 server, per-row links, immediate flush",
            shards=1, batch_links=False, flush_policy="immediate",
            group_commit_window=1),
        run(f"{shards} shards, per-row links, immediate flush",
            shards=shards, batch_links=False, flush_policy="immediate",
            group_commit_window=1),
        run(f"{shards} shards, batched links, group commit",
            shards=shards, batch_links=True, flush_policy="group",
            group_commit_window=8),
    ]
    profile_steps = {}
    if client_sweep:
        # Concurrent-writer sweep: every ingest client on its own clock
        # domain, admitted through the host connection gate, committing
        # one batched link transaction per operation through its own
        # session (client <-> host barriers per SQL call).
        sweep_config = ScaleOutConfig(shards=shards, clients=0,
                                      transactions_per_client=0,
                                      rows_per_transaction=rows_per_transaction,
                                      file_size=file_size,
                                      control_mode=_ControlMode.RDB,
                                      batch_links=True, flush_policy="group",
                                      group_commit_window=8)
        sweep = ScaleOutWorkload(sweep_config).setup()
        gate = f", admission limit {sweep_admission_limit}" \
            if sweep_admission_limit is not None else ""
        for step in sweep.run_client_sweep(
                tuple(client_sweep), transactions_per_client=1,
                admission_limit=sweep_admission_limit,
                think_s=sweep_think_s, step_hook=_profile_step_hook()):
            label = f"client sweep, {step['clients']} clients{gate}"
            rows.append({
                "configuration": label,
                "links": step["links"],
                "links_per_sim_s": step["links_per_sim_s"],
                "mean_txn_ms": step["txn_mean_ms"],
                "txn_p99_ms": step["txn_p99_ms"],
                "queue_p99_ms": step["queue_p99_ms"],
                "host_log_flushes": step["host_log_flushes"],
                "max_links_per_shard": step["max_links_per_shard"],
            })
            if step.get("profile_calls") is not None:
                profile_steps[label] = step["profile_calls"]
    baseline_row = next(
        row for row in rows
        if row["configuration"] == "1 server, per-row links, immediate flush")
    baseline = baseline_row["links_per_sim_s"] or 1.0
    for row in rows:
        row["speedup_vs_baseline"] = round(row["links_per_sim_s"] / baseline, 2)
    result = ExperimentResult(
        experiment_id="E11",
        title="Scale-out: sharded DLFMs with group commit and batched pipelines",
        paper_claim="Beyond the paper: hash-sharding linked files over many "
                    "DLFMs, letting each shard's clock domain progress "
                    "concurrently, shipping one batched link message per "
                    "enlisted shard and resolving commits in groups (one log "
                    "force and one prepare/commit message per shard per "
                    "batch) should raise link throughput well above the "
                    "serial one-server, per-row, per-commit-flush baseline.",
        headers=["configuration", "links", "links_per_sim_s", "mean_txn_ms",
                 "txn_p99_ms", "queue_p99_ms", "host_log_flushes",
                 "max_links_per_shard", "speedup_vs_baseline"],
        rows=rows,
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
              "the admission limit or the host commit path.",
    )
    if profile_steps:
        result.extra["profile_steps"] = profile_steps
    return result


# ---------------------------------------------------------------------------
# E12 -- replication: witness replicas, WAL shipping, replica failover
# ---------------------------------------------------------------------------

def experiment_e12(shards: int = 4, files: int = 32, reads_per_phase: int = 48,
                   file_size: int = 2048,
                   rows_per_transaction: int = 8,
                   follower_read_batch: int = 24,
                   writes_per_phase: int = 8,
                   client_sweep: tuple = (),
                   sweep_admission_limit: int | None = None,
                   sweep_think_s: float = 0.0,
                   sweep_reads_per_client: int = 1) -> ExperimentResult:
    """Availability across a shard primary crash: reads, writes, follower reads."""

    from repro.workloads.failover import FailoverConfig, FailoverWorkload

    def run(label: str, replication: bool, witnesses: int = 1) -> dict:
        config = FailoverConfig(shards=shards, files=files,
                                reads_per_phase=reads_per_phase,
                                file_size=file_size,
                                rows_per_transaction=rows_per_transaction,
                                follower_read_batch=follower_read_batch,
                                writes_per_phase=writes_per_phase,
                                replication=replication,
                                witnesses=witnesses)
        workload = FailoverWorkload(config).setup()
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
    profile_steps = {}
    if client_sweep:
        # Concurrent-reader sweep over a healthy replicated cluster:
        # every reader on its own client clock domain behind the host
        # admission gate, its reads routed over the serving node and its
        # witnesses.  The per-client replacement for the single
        # follower-read scatter-gather burst.
        sweep_config = FailoverConfig(shards=shards, files=files,
                                      reads_per_phase=reads_per_phase,
                                      file_size=file_size,
                                      rows_per_transaction=rows_per_transaction,
                                      follower_read_batch=follower_read_batch,
                                      writes_per_phase=writes_per_phase,
                                      replication=True, witnesses=1)
        sweep = FailoverWorkload(sweep_config).setup()
        gate = f", admission limit {sweep_admission_limit}" \
            if sweep_admission_limit is not None else ""
        for step in sweep.run_read_sweep(
                tuple(client_sweep),
                reads_per_client=sweep_reads_per_client,
                admission_limit=sweep_admission_limit,
                think_s=sweep_think_s, step_hook=_profile_step_hook()):
            label = f"routed read sweep, {step['clients']} clients{gate}"
            rows.append({
                "configuration": label,
                "links_per_sim_s": 0.0,
                "victim_reads_after": 0,
                "victim_failures_after": step["reads_failed"],
                "victim_availability_pct": 0.0,
                "write_availability_pct": 0.0,
                "writes_ok_after": 0,
                "follower_reads_per_sim_s": step["reads_per_sim_s"],
                "mean_read_ms_after": step["read_mean_ms"],
                "read_p99_ms": step["read_p99_ms"],
                "queue_p99_ms": step["queue_p99_ms"],
                "failover_ms": 0.0,
            })
            if step.get("profile_calls") is not None:
                profile_steps[label] = step["profile_calls"]
    result = ExperimentResult(
        experiment_id="E12",
        title="Shard replication: writable failover, follower reads, availability",
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
        headers=["configuration", "links_per_sim_s",
                 "victim_reads_after", "victim_failures_after",
                 "victim_availability_pct", "write_availability_pct",
                 "writes_ok_after", "follower_reads_per_sim_s",
                 "mean_read_ms_after", "read_p99_ms", "queue_p99_ms",
                 "failover_ms"],
        rows=rows,
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
              "construction.",
    )
    if profile_steps:
        result.extra["profile_steps"] = profile_steps
    return result


# ---------------------------------------------------------------------------
# E13 -- online prefix rebalancing: availability during a live shard move
# ---------------------------------------------------------------------------

def experiment_e13(shards: int = 3, witnesses: int = 1, hot_files: int = 8,
                   cold_files: int = 8, file_size: int = 1024,
                   reads_per_phase: int = 12,
                   links_per_phase: int = 4) -> ExperimentResult:
    """Foreground link/read traffic while a hot prefix moves between shards."""

    from repro.workloads.rebalance import RebalanceConfig, RebalanceWorkload

    config = RebalanceConfig(shards=shards, witnesses=witnesses,
                             hot_files=hot_files, cold_files=cold_files,
                             file_size=file_size,
                             reads_per_phase=reads_per_phase,
                             links_per_phase=links_per_phase)
    workload = RebalanceWorkload(config).setup()
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
    failover = {
        "phase": f"after dest failover (moved prefix served by "
                 f"{counters.get('promoted_serving')})",
        "reads_ok": counters.get("reads_ok_failover", 0),
        "reads_failed": counters.get("reads_failed_failover", 0),
        "links_ok": "n/a", "links_blocked": "n/a",
        "read_availability_pct": round(
            100.0 * workload.availability(metrics, "failover", "reads"), 1),
        "link_availability_pct": "n/a",
        "ops_per_sim_s": "n/a",
        "moved_files": moved,
        "committed_links_lost": counters.get("committed_links_lost", 0),
        "move_ms": round(metrics.stats("promotion").mean * 1000, 3),
    }
    rows = [
        phase_row("before", "before move", moved_files=0),
        during,
        phase_row("after", "after move (old URLs, new owner)",
                  moved_files=moved),
        failover,
    ]
    return ExperimentResult(
        experiment_id="E13",
        title="Online prefix rebalancing: availability during a live shard move",
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
        headers=["phase", "reads_ok", "reads_failed", "links_ok",
                 "links_blocked", "read_availability_pct",
                 "link_availability_pct", "ops_per_sim_s", "moved_files",
                 "committed_links_lost", "move_ms"],
        rows=rows,
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
              "placement followed the prefix.",
    )


# ---------------------------------------------------------------------------
# E14 -- autonomous placement balancing: static hash vs the balancer
# ---------------------------------------------------------------------------

def experiment_e14(shards: int = 4, prefixes: int = 8, rounds: int = 8,
                   links_per_round: int = 8, reads_per_round: int = 24,
                   file_size: int = 512, theta: float = 1.1,
                   move_budget: int = 2) -> ExperimentResult:
    """Zipf-skewed traffic: static hash placement vs the self-driving balancer."""

    from repro.datalinks.balancer import BalancerConfig
    from repro.workloads.hotspot import HotspotConfig, HotspotWorkload

    def run_variant(balancer: BalancerConfig | None):
        config = HotspotConfig(shards=shards, prefixes=prefixes,
                               rounds=rounds,
                               links_per_round=links_per_round,
                               reads_per_round=reads_per_round,
                               file_size=file_size, theta=theta,
                               balancer=balancer)
        workload = HotspotWorkload(config).setup()
        metrics = workload.run()
        return workload, metrics

    balancer_config = BalancerConfig(window_ops_min=8,
                                     move_budget=move_budget,
                                     cooldown_ticks=1,
                                     imbalance_tolerance=1.1,
                                     split_threshold=0.6)
    rows = []
    for variant, balancer in (("static hash", None),
                              ("balanced", balancer_config)):
        workload, metrics = run_variant(balancer)
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
    return ExperimentResult(
        experiment_id="E14",
        title="Autonomous placement balancing under zipf-skewed traffic",
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
        headers=["variant", "link_ops", "max_shard_load_share", "link_p50_ms",
                 "link_p99_ms", "read_p99_ms", "moves", "max_moves_per_tick",
                 "move_budget", "splits", "links_blocked",
                 "committed_links_lost", "placement_epoch"],
        rows=rows,
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
              "moves and splits.",
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

ALL_EXPERIMENTS = {
    "E1": experiment_e1,
    "E2": experiment_e2,
    "E3": experiment_e3,
    "E4": experiment_e4,
    "E5": experiment_e5,
    "E6": experiment_e6,
    "E7": experiment_e7,
    "E8": experiment_e8,
    "E9": experiment_e9,
    "E10": experiment_e10,
    "E11": experiment_e11,
    "E12": experiment_e12,
    "E13": experiment_e13,
    "E14": experiment_e14,
}

#: Tiny per-experiment overrides for the ``--smoke`` CI mode: every
#: experiment must complete in a fraction of a second, exercising the full
#: code path with minimal repeats/sizes.
SMOKE_PARAMS = {
    "E1": {"repeats": 2},
    "E2": {"repeats": 2},
    "E3": {"sizes": (16 * 1024,), "repeats": 1},
    "E4": {"repeats": 2},
    "E5": {"config": EditorConfig(editors=2, files=1, edits_per_editor=1)},
    "E6": {},
    "E7": {},
    "E8": {},
    "E9": {"pages": 4, "operations": 10, "page_size": 4 * 1024,
           "session_sweep": (2, 4), "admission_limit": 2,
           "client_think_s": 0.05},
    "E10": {"repeats": 2},
    "E11": {"shards": 2, "clients": 2, "transactions_per_client": 1,
            "rows_per_transaction": 4, "file_size": 256,
            "client_sweep": (2, 4), "sweep_admission_limit": 2,
            "sweep_think_s": 0.02},
    "E12": {"shards": 2, "files": 8, "reads_per_phase": 8, "file_size": 256,
            "rows_per_transaction": 4, "follower_read_batch": 8,
            "writes_per_phase": 4,
            "client_sweep": (2, 4), "sweep_admission_limit": 2,
            "sweep_think_s": 0.02},
    "E13": {"shards": 2, "hot_files": 4, "cold_files": 4, "file_size": 256,
            "reads_per_phase": 8, "links_per_phase": 4},
    "E14": {"shards": 3, "prefixes": 6, "rounds": 6, "links_per_round": 6,
            "reads_per_round": 18, "file_size": 256},
}


#: Scaled-up overrides for the ``--scale large`` bench tier.  These runs
#: exist to exercise the vectorized-schedule fast paths at volume -- E14 at
#: roughly 100x the smoke operation count (12 rounds x (120 links + 1080
#: reads) = 14,400 burst operations against smoke's 144), E9 with the
#: operation mix spread over 1,200 concurrent reader sessions plus a
#: 10..10,000-session admission-control sweep (each session on its own
#: client clock domain; the sweep is where the saturation knee lives),
#: E11 with a 10..1,000 concurrent-writer sweep and E12 with a
#: 10..10,000 concurrent routed-reader sweep.  The tier is *not* part of
#: tier-1 CI and writes no artifact by default; the working budget is
#: that E14 completes in well under a minute.
LARGE_PARAMS = {
    "E9": {"pages": 64, "operations": 2400, "page_size": 16 * 1024,
           "clients": 1200, "session_sweep": (10, 100, 1000, 10000),
           "admission_limit": 128, "client_think_s": 2.0},
    "E11": {"shards": 8, "clients": 4, "transactions_per_client": 3,
            "rows_per_transaction": 8, "file_size": 512,
            "client_sweep": (10, 100, 1000),
            "sweep_admission_limit": 64, "sweep_think_s": 0.2},
    "E12": {"shards": 4, "files": 32, "reads_per_phase": 48,
            "file_size": 2048, "rows_per_transaction": 8,
            "follower_read_batch": 24, "writes_per_phase": 8,
            "client_sweep": (10, 100, 1000, 10000),
            "sweep_admission_limit": 256, "sweep_think_s": 0.2},
    "E14": {"shards": 4, "prefixes": 12, "rounds": 12,
            "links_per_round": 120, "reads_per_round": 1080,
            "file_size": 512},
}

#: Per-scale parameter overrides; ``"default"`` runs every experiment with
#: its full (paper-shaped) configuration.
SCALE_PARAMS = {
    "smoke": SMOKE_PARAMS,
    "default": {},
    "large": LARGE_PARAMS,
}


def run_experiment(experiment_id: str, smoke: bool = False,
                   scale: str | None = None) -> ExperimentResult:
    """Run one experiment by id (``"E1"`` .. ``"E14"``).

    ``smoke=True`` substitutes the tiny :data:`SMOKE_PARAMS` configuration --
    the fast sanity mode behind ``python -m repro.bench --smoke``.  ``scale``
    names a tier from :data:`SCALE_PARAMS` explicitly (``"smoke"``,
    ``"default"`` or ``"large"``) and wins over the ``smoke`` flag.
    """

    identifier = experiment_id.upper()
    try:
        factory = ALL_EXPERIMENTS[identifier]
    except KeyError:
        raise KeyError(f"unknown experiment {experiment_id!r}; "
                       f"known: {sorted(ALL_EXPERIMENTS)}") from None
    if scale is None:
        scale = "smoke" if smoke else "default"
    try:
        params = SCALE_PARAMS[scale]
    except KeyError:
        raise KeyError(f"unknown scale {scale!r}; "
                       f"known: {sorted(SCALE_PARAMS)}") from None
    return factory(**params.get(identifier, {}))


# Public name of the one-server micro system, for tests that need the E1
# fixture without running the experiment.
build_microsystem = _build_system
