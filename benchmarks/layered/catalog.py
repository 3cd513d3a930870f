"""Names, units, bounds and frozen sizes of the layered benchmark.

Everything another file (``BENCHMARK.json``, ``README.md``, the smoke test)
repeats is defined once here: the four workloads with their frozen sizes, the
end-to-end metrics with their regression bounds, the layer maps (which source
file belongs to which host layer, which ``CostModel`` primitive to which
simulated layer), the entry-point probes, the public-stats counters, and the
interaction table (which end-to-end metric each layer metric should move, on
which workload).
"""

from __future__ import annotations

#: How long one invocation measures (set-ups plus timed phases), seconds.
RUN_SECONDS = 12
#: Reps per invocation: as many as start within the measuring time, but at
#: least MIN_REPS (a per-slice median needs two) and at most MAX_REPS.
MIN_REPS = 2
MAX_REPS = 8
DEFAULT_SEED = 42

# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------
#: ``sizes`` are frozen (tuned once on the 2-core box for a 2.5-5 s timed phase
#: per rep); ``smoke`` are the tier-1 self-test sizes.  ``slice_ops`` is K, the
#: number of operations per timed slice.
WORKLOADS = {
    "web_rfd": {
        "why": "read-mostly web site, rfd: read path nearly free of DB work; "
               "bypasses token registry and cluster layers, working set fits "
               "every cache",
        "primary": "get_datalink + read_url",
        "secondary": "write token + update_file(truncate) + run_archiver",
        "loop": "closed, 1 serial client, zero think",
        "sizes": {"servers": 2, "pages": 256, "page_bytes": 16 * 1024,
                  "theta": 0.99, "ops": 40_000, "update_share": 0.02,
                  "slice_ops": 500, "setup_slice": 32},
        "smoke": {"servers": 2, "pages": 16, "page_bytes": 2048,
                  "theta": 0.99, "ops": 300, "update_share": 0.05,
                  "slice_ops": 50, "setup_slice": 8},
    },
    "session_knee": {
        "why": "3000 closed-loop sessions behind 128 admission slots, rdd "
               "tokenized reads: concurrency model and the DLFM token-registry "
               "scan; token cache working set fits",
        "primary": "tokenized read_url incl. admission queue + think",
        "secondary": "none (queue delay reported as a layer metric)",
        "loop": "closed, 3000 sessions x 3 reads, think 2.0 s, limit 128",
        "sizes": {"servers": 4, "pages": 64, "page_bytes": 16 * 1024,
                  "theta": 0.99, "sessions": 3000, "reads_per_session": 3,
                  "think_s": 2.0, "admission": 128, "token_ttl": 3600.0,
                  "slice_ops": 150, "handout_slice": 50, "setup_slice": 16},
        "smoke": {"servers": 2, "pages": 8, "page_bytes": 2048,
                  "theta": 0.99, "sessions": 24, "reads_per_session": 2,
                  "think_s": 2.0, "admission": 4, "token_ttl": 3600.0,
                  "slice_ops": 12, "handout_slice": 6, "setup_slice": 4},
    },
    "edit_uip": {
        "why": "update-in-place beside reads, rdd, uniform choice over 2560 "
               "docs: uip, archive jobs, version chains, host metadata scan; "
               "almost no token reuse; set-up is the serial link-ingest cost",
        "primary": "write token + update_file(truncate) + run_archiver",
        "secondary": "read token + read_url",
        "loop": "closed, 8 editor sessions round-robin, zero think",
        "sizes": {"servers": 2, "docs": 2560, "doc_bytes": 4 * 1024,
                  "editors": 8, "ops": 2400, "update_share": 0.5,
                  "slice_ops": 40, "setup_slice": 64},
        "smoke": {"servers": 2, "docs": 24, "doc_bytes": 1024,
                  "editors": 4, "ops": 60, "update_share": 0.5,
                  "slice_ops": 10, "setup_slice": 8},
    },
    "cluster_hotspot": {
        "why": "batched link transactions beside routed follower reads on 4 "
               "shards x 1 witness under the balancer: replication, routing, "
               "placement, WAL shipping, 2PC; URL caches overflow",
        "primary": "deployment.read_url by 64 reader sessions",
        "secondary": "link transaction: begin + insert_many(8) + commit",
        "loop": "closed, 64 reader sessions, think 0.4 s; links serial",
        "sizes": {"shards": 4, "witnesses": 1, "prefixes": 12, "subdirs": 4,
                  "theta": 1.1, "rounds": 12, "batches_per_round": 12,
                  "links_per_batch": 8, "reads_per_round": 900,
                  "readers": 64, "think_s": 0.4, "doc_bytes": 2048,
                  "seed_per_prefix": 4,
                  "group_commit_window": 4, "move_budget": 2,
                  "cooldown_ticks": 1, "token_ttl": 1e9, "slice_ops": 75},
        "smoke": {"shards": 2, "witnesses": 1, "prefixes": 4, "subdirs": 2,
                  "theta": 1.1, "rounds": 3, "batches_per_round": 2,
                  "links_per_batch": 4, "reads_per_round": 24,
                  "readers": 4, "think_s": 0.2, "doc_bytes": 512,
                  "seed_per_prefix": 2,
                  "group_commit_window": 2, "move_budget": 2,
                  "cooldown_ticks": 1, "token_ttl": 1e9, "slice_ops": 8},
    },
}

#: Sizes of files are jittered by this share around the nominal size, from
#: the seed, so that no simulated time is the same on every seed.
SIZE_JITTER = 0.03

# --------------------------------------------------------------------------
# end-to-end metrics
# --------------------------------------------------------------------------
#: "host" = reference host seconds (wall time of the simulator, normalised by
#: the calibration kernel); "sim" = simulated time, exact for a given seed.
#: ``bound`` is the share of the parent's median by which the metric may get
#: worse.  Failures are reported through ``attempted``/``failed``, not as a
#: metric (it is 0 on every accepted run).
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "host_ops_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
    {"name": "sim_ops_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.01},
    {"name": "sim_p50_ms", "unit": "ms", "better": "lower", "bound": 0.02},
    {"name": "sim_p99_ms", "unit": "ms", "better": "lower", "bound": 0.05},
]

# --------------------------------------------------------------------------
# host layers: one per source file under src/repro/
# --------------------------------------------------------------------------
HOST_LAYERS = [
    "simclock", "storage.database", "storage.query", "storage.wal",
    "storage.other", "fs.logical", "fs.physical", "fs.other", "ipc", "dlfs",
    "dlfm", "engine", "cluster", "api", "workloads", "util", "builtins",
    "bench",
]

_CLUSTER_FILES = {"replication.py", "routing.py", "placement.py",
                  "sharding.py", "balancer.py"}
_ENGINE_FILES = {"__init__.py", "engine.py", "tokens.py", "uip.py",
                 "datalink_type.py", "control_modes.py",
                 "backup_coordinator.py"}


def host_layer_of(relpath: str) -> str:
    """The host layer of a source file, given its path after ``repro/``.

    Raises ``KeyError`` for a path no rule covers, so a new module cannot
    silently fall out of the ledger (the smoke test walks ``src/repro``).
    """

    parts = relpath.split("/")
    top, name = parts[0], parts[-1]
    if len(parts) == 1:
        if name == "simclock.py":
            return "simclock"
        if name in ("errors.py", "__init__.py"):
            return "util"
    elif top == "storage":
        return {"database.py": "storage.database", "query.py": "storage.query",
                "wal.py": "storage.wal"}.get(name, "storage.other")
    elif top == "fs":
        return {"logical.py": "fs.logical",
                "physical.py": "fs.physical"}.get(name, "fs.other")
    elif top in ("ipc", "api", "workloads", "util", "bench"):
        return top
    elif top == "datalinks":
        if len(parts) == 2:
            if name in _CLUSTER_FILES:
                return "cluster"
            if name in _ENGINE_FILES:
                return "engine"
        elif parts[1] in ("dlfs", "dlfm"):
            return parts[1]
        elif parts[1] == "baselines":
            return "engine"
    raise KeyError(f"no host layer for src/repro/{relpath}")


# --------------------------------------------------------------------------
# simulated layers: one per CostModel primitive
# --------------------------------------------------------------------------
SIM_LAYERS = ["storage", "engine", "dlfm", "ipc", "fs.logical", "fs.other",
              "dlfs", "fs.physical"]

SIM_LAYER_OF_PRIMITIVE = {
    "sql_statement_base": "storage", "row_read": "storage",
    "row_write": "storage", "log_write": "storage",
    "lock_acquire": "storage", "index_probe": "storage",
    "backup_per_row": "storage",
    "token_generate": "engine", "datalink_engine_dispatch": "engine",
    "blob_db_per_byte": "engine", "blob_request_overhead": "engine",
    "token_validate": "dlfm", "archive_per_byte": "dlfm",
    "archive_job_overhead": "dlfm", "dlfm_repository_scale": "dlfm",
    "upcall_round_trip": "ipc", "db_dlfm_message": "ipc",
    "daemon_dispatch": "ipc", "message_send": "ipc",
    "syscall_base": "fs.logical", "directory_lookup": "fs.logical",
    "vfs_op": "fs.other",
    "dlfs_filter": "dlfs",
    "disk_seek": "fs.physical", "disk_transfer_per_byte": "fs.physical",
    "fs_metadata_update": "fs.physical",
}


def sim_layer_of(label: str) -> str:
    """The simulated layer a ``ClockStats`` label is charged to.

    The DLFM repository prefixes its database primitives with ``dlfm.``;
    every other label is the primitive's own name.  Unknown labels raise.
    """

    if label.startswith("dlfm."):
        return "dlfm"
    return SIM_LAYER_OF_PRIMITIVE[label]


# --------------------------------------------------------------------------
# entry-point probes: (path after repro/, function names)
# --------------------------------------------------------------------------
PROBES = {
    "dlfm.find_token_entry":
        ("datalinks/dlfm/repository.py", ("find_token_entry",)),
    "cluster.witness_find_token_entry":
        ("datalinks/replication.py", ("find_token_entry",)),
    "simclock.charge_run": ("simclock.py", ("charge_run",)),
    "storage.wal.append": ("storage/wal.py", ("append",)),
    "storage.wal.records_from": ("storage/wal.py", ("records_from",)),
    "engine.update_file_metadata":
        ("datalinks/engine.py", ("update_file_metadata",)),
    "engine.get_datalink_many":
        ("datalinks/engine.py", ("get_datalink_many",)),
    "cluster.route_read": ("datalinks/routing.py", ("route_read",)),
    "ipc.request": ("ipc/channel.py", ("request", "post", "post_group")),
    "fs.logical.open": ("fs/logical.py", ("open",)),
}

# --------------------------------------------------------------------------
# counters taken from public stats (name, unit, better)
# --------------------------------------------------------------------------
COUNTERS = [
    ("simclock.events_per_op", "count/op", "lower"),
    ("simclock.host_us_per_event", "us", "lower"),
    ("dlfm.row_reads_per_op", "count/op", "lower"),
    ("storage.wal.flushes_per_op", "count/op", "lower"),
    ("storage.wal.records_per_op", "count/op", "lower"),
    ("fs.physical.bytes_read_per_op", "B/op", "lower"),
    ("fs.physical.bytes_written_per_op", "B/op", "lower"),
    ("engine.token_cache_hit_share", "ratio", "higher"),
    ("engine.handout_sim_ms", "ms", "lower"),
    ("util.parse_url_hit_share", "ratio", "higher"),
    ("api.admission.queue_p50_ms", "ms", "lower"),
    ("api.admission.queue_p99_ms", "ms", "lower"),
    ("api.admission.ceiling_ratio", "ratio", "higher"),
    ("cluster.moves", "count", "lower"),
    ("cluster.splits", "count", "lower"),
    ("cluster.max_shard_load_share", "ratio", "lower"),
    ("cluster.follower_read_share", "ratio", "higher"),
    ("dlfm.archive_jobs_per_op", "count/op", "lower"),
    ("workloads.secondary_p50_ms", "ms", "lower"),
    ("workloads.secondary_p99_ms", "ms", "lower"),
    ("workloads.primary_samples", "count", "higher"),
    ("bench.noise_ratio", "ratio", "lower"),
    ("bench.wall_cpu_ratio", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.kernel_ms", "ms", "lower"),
    ("bench.reps", "count", "higher"),
]


def repeats_exactly(name: str) -> bool:
    """Whether a per-layer metric is a count or a simulated time, which two
    runs of the same code and seed must report bit for bit (host-time shares
    and everything under ``bench.`` depend on the box)."""

    return not (name.startswith("bench.") or name.endswith(
        (".host_share", ".incl_share", ".host_us_per_event")))


def per_layer_catalog() -> list[dict]:
    """Every per-layer metric, in print order, as ``BENCHMARK.json`` lists it."""

    metrics = []
    for layer in HOST_LAYERS:
        metrics.append({"name": f"{layer}.host_share", "unit": "ratio",
                        "better": "lower"})
        metrics.append({"name": f"{layer}.py_calls_per_op", "unit": "calls/op",
                        "better": "lower"})
    for probe in PROBES:
        metrics.append({"name": f"{probe}.calls_per_op", "unit": "calls/op",
                        "better": "lower"})
        metrics.append({"name": f"{probe}.incl_share", "unit": "ratio",
                        "better": "lower"})
    for layer in SIM_LAYERS:
        metrics.append({"name": f"{layer}.sim_ms_per_op", "unit": "ms/op",
                        "better": "lower"})
        metrics.append({"name": f"{layer}.sim_charges_per_op",
                        "unit": "count/op", "better": "lower"})
    for name, unit, better in COUNTERS:
        metrics.append({"name": name, "unit": unit, "better": better})
    return metrics


# --------------------------------------------------------------------------
# how the metrics interact: layer-metric prefix -> end-to-end metric it moves
# --------------------------------------------------------------------------
MOVES = [
    {"layer_metrics": ["storage.database.host_share",
                       "storage.query.host_share",
                       "dlfm.find_token_entry.calls_per_op",
                       "dlfm.find_token_entry.incl_share",
                       "dlfm.row_reads_per_op"],
     "moves": [{"metric": "host_ops_per_s", "workload": "session_knee"},
               {"metric": "sim_p99_ms", "workload": "session_knee"}],
     "flat_on": ["web_rfd"]},
    {"layer_metrics": ["simclock.host_share",
                       "simclock.charge_run.incl_share",
                       "simclock.host_us_per_event"],
     "moves": [{"metric": "host_ops_per_s", "workload": "session_knee"},
               {"metric": "host_ops_per_s", "workload": "web_rfd"},
               {"metric": "host_ops_per_s", "workload": "edit_uip"},
               {"metric": "host_ops_per_s", "workload": "cluster_hotspot"}],
     "flat_on": [],
     "note": "any simulated metric moving means the change was not "
             "simulator-only"},
    {"layer_metrics": ["engine.update_file_metadata.calls_per_op",
                       "engine.update_file_metadata.incl_share",
                       "storage.wal.host_share",
                       "storage.wal.append.calls_per_op",
                       "storage.wal.flushes_per_op",
                       "storage.wal.records_per_op",
                       "dlfm.archive_jobs_per_op"],
     "moves": [{"metric": "host_ops_per_s", "workload": "edit_uip"},
               {"metric": "sim_p50_ms", "workload": "edit_uip"},
               {"metric": "setup_s", "workload": "edit_uip"}],
     "flat_on": ["session_knee"]},
    {"layer_metrics": ["fs.logical.host_share", "fs.physical.host_share",
                       "fs.other.host_share", "dlfs.host_share",
                       "ipc.request.calls_per_op", "ipc.request.incl_share",
                       "fs.logical.open.incl_share"],
     "moves": [{"metric": "host_ops_per_s", "workload": "web_rfd"},
               {"metric": "host_ops_per_s", "workload": "cluster_hotspot"}],
     "flat_on": ["session_knee"]},
    {"layer_metrics": ["cluster.host_share", "cluster.route_read.incl_share",
                       "cluster.witness_find_token_entry.incl_share",
                       "storage.wal.records_from.incl_share",
                       "cluster.moves", "cluster.max_shard_load_share"],
     "moves": [{"metric": "host_ops_per_s", "workload": "cluster_hotspot"},
               {"metric": "sim_p99_ms", "workload": "cluster_hotspot"}],
     "flat_on": ["web_rfd", "session_knee", "edit_uip"]},
    {"layer_metrics": ["api.admission.queue_p99_ms",
                       "api.admission.ceiling_ratio"],
     "moves": [{"metric": "sim_p99_ms", "workload": "session_knee"},
               {"metric": "sim_ops_per_s", "workload": "session_knee"}],
     "flat_on": ["web_rfd", "edit_uip"],
     "note": "latency rises with queueing long before throughput stops "
             "rising (the knee)"},
    {"layer_metrics": ["engine.token_cache_hit_share",
                       "engine.sim_ms_per_op"],
     "moves": [{"metric": "sim_p50_ms", "workload": "edit_uip"}],
     "flat_on": ["session_knee"],
     "note": "edit_uip has almost no token reuse; session_knee's working "
             "set fits the cache"},
]
