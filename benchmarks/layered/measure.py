"""One invocation's measuring loop: reps of one workload, then its metrics."""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import statistics
import time

import repro

from . import catalog
from .drivers import DRIVERS
from .harness import (Calibrator, Meter, parked_gc, peak_rss_mib, percentile,
                      reference_seconds, roll_up)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
SOURCE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


class Rep:
    """One rep's meters, simulated results and failed output checks."""

    def __init__(self, driver, setup_meter: Meter, run_meter: Meter,
                 failures: list[str]):
        self.result = driver.result
        self.setup_meter = setup_meter
        self.run_meter = run_meter
        self.failures = failures


def run_rep(workload: str, sizes: dict, seed: int, calibrator: Calibrator,
            profiler=None) -> Rep:
    """Fresh set-up, timed phase, output checks.  GC is parked in both
    timed phases; with *profiler* only the run phase is traced."""

    driver = DRIVERS[workload](sizes, seed)
    setup_meter = Meter(calibrator)
    run_meter = Meter(calibrator, profiler)
    with parked_gc():
        setup_meter.start()
        driver.setup(setup_meter)
        setup_meter.stop()
    with parked_gc():
        run_meter.start()
        driver.run(run_meter)
        run_meter.stop()
    failures = driver.verify()
    if driver.result.failed:
        failures.append(f"{driver.result.failed} of {driver.result.ops} "
                        f"operations failed or returned wrong bytes")
    return Rep(driver, setup_meter, run_meter, failures)


def measure(workload: str, *, seed: int, seconds: float, trace: bool,
            smoke: bool = False, reps: int | None = None,
            trace_out: str | None = None) -> dict:
    """Measure *workload* and return its report.

    Untraced reps run until *seconds* of set-up plus timed phase have been
    measured (between ``MIN_REPS`` and ``MAX_REPS`` of them, or exactly
    *reps*).  With *trace* one untraced rep (or *reps*) is followed by one
    rep under ``cProfile``, and the report carries the per-layer metrics
    instead of the end-to-end ones.
    """

    spec = catalog.WORKLOADS[workload]
    sizes = spec["smoke" if smoke else "sizes"]
    calibrator = Calibrator()
    for _ in range(5):      # page the kernel's working set in
        calibrator.sample()
    low = reps if reps is not None else (1 if trace else catalog.MIN_REPS)
    high = reps if reps is not None else (1 if trace else catalog.MAX_REPS)
    done: list[Rep] = []
    started = time.perf_counter()
    while len(done) < low or (len(done) < high
                              and time.perf_counter() - started < seconds):
        done.append(run_rep(workload, sizes, seed, calibrator))
        gc.collect()
    rss = peak_rss_mib()

    first = done[0].result
    failures: list[str] = []

    def check(rep: Rep, label: str) -> None:
        if rep.result.digest != first.digest:
            failures.append(f"{label} simulated digest differs from rep 0")
        failures.extend(line for line in rep.failures
                        if line not in failures)

    for index, rep in enumerate(done):
        check(rep, f"rep {index}")
    ops = first.ops
    run_s = reference_seconds([rep.run_meter for rep in done])
    setup_s = reference_seconds([rep.setup_meter for rep in done])
    raw_runs = [rep.run_meter.wall() for rep in done]
    wall_cpu = statistics.median(rep.run_meter.wall() / rep.run_meter.cpu()
                                 for rep in done)
    kernels = [sample for rep in done for sample in rep.run_meter.kernels]

    report = {
        "workload": workload, "seed": seed, "smoke": smoke, "reps": len(done),
        "attempted": sum(rep.result.ops for rep in done),
        "failed": sum(rep.result.failed for rep in done),
        "failures": failures, "digest": first.digest,
        "primary_samples": len(first.primary),
    }
    end_to_end = {
        "setup_s": setup_s,
        "host_ops_per_s": ops / run_s,
        "peak_rss_mb": rss,
        "sim_ops_per_s": ops / first.sim_window_s,
        "sim_p50_ms": percentile(first.primary, 50) * 1000.0,
        "sim_p99_ms": percentile(first.primary, 99) * 1000.0,
    }
    if not trace:
        report["metrics"] = end_to_end
        report["noise_ratio"] = statistics.median(raw_runs) / run_s
        report["wall_cpu_ratio"] = wall_cpu
        return report

    profiler = cProfile.Profile()
    traced = run_rep(workload, sizes, seed, calibrator, profiler)
    check(traced, "traced rep")
    report["attempted"] += traced.result.ops
    report["failed"] += traced.result.failed
    metrics, table = roll_up(profiler, ops, SOURCE_DIR, BENCH_DIR)
    metrics.update(_simulated_layer_metrics(first, ops, sizes))
    traced_s = sum(traced.run_meter.rescaled())
    metrics.update({
        "simclock.host_us_per_event":
            run_s * 1e6 / max(1, first.counters["events"]),
        "workloads.primary_samples": len(first.primary),
        "bench.noise_ratio": statistics.median(raw_runs) / run_s,
        "bench.wall_cpu_ratio": wall_cpu,
        "bench.trace_overhead_ratio": traced_s / run_s,
        "bench.kernel_ms": statistics.median(kernels) * 1000.0,
        "bench.reps": len(done),
    })
    names = [metric["name"] for metric in catalog.per_layer_catalog()]
    if set(names) != set(metrics):
        raise AssertionError("per-layer metrics and catalogue disagree: "
                             f"{sorted(set(names) ^ set(metrics))}")
    report["metrics"] = {name: metrics[name] for name in names}
    report["end_to_end_preview"] = end_to_end
    if trace_out:
        _dump_trace(trace_out, workload, profiler, table, ops)
    return report


def _simulated_layer_metrics(result, ops: int, sizes: dict) -> dict:
    """Per-layer metrics that come from simulated time and public stats."""

    counters = result.counters
    metrics = {}
    for layer in catalog.SIM_LAYERS:
        charges, total_ms = result.ledger[layer]
        metrics[f"{layer}.sim_ms_per_op"] = total_ms / ops
        metrics[f"{layer}.sim_charges_per_op"] = charges / ops
    queue = counters.get("queue_delays", [])
    ceiling = counters.get("ceiling_ops_per_s")
    metrics.update({
        "simclock.events_per_op": counters["events"] / ops,
        "dlfm.row_reads_per_op": counters["dlfm_row_reads"] / ops,
        "storage.wal.flushes_per_op": counters["wal_flushes"] / ops,
        "storage.wal.records_per_op": counters["wal_records"] / ops,
        "fs.physical.bytes_read_per_op": counters["bytes_read"] / ops,
        "fs.physical.bytes_written_per_op": counters["bytes_written"] / ops,
        "engine.token_cache_hit_share": counters["token_hit_share"],
        "engine.handout_sim_ms": counters.get("handout_sim_ms", 0.0),
        "util.parse_url_hit_share": counters["url_hit_share"],
        "api.admission.queue_p50_ms": percentile(queue, 50) * 1000.0,
        "api.admission.queue_p99_ms": percentile(queue, 99) * 1000.0,
        "api.admission.ceiling_ratio":
            ops / result.sim_window_s / ceiling if ceiling else 0.0,
        "cluster.moves": counters.get("moves", 0),
        "cluster.splits": counters.get("splits", 0),
        "cluster.max_shard_load_share":
            counters.get("max_shard_load_share", 0.0),
        "cluster.follower_read_share":
            counters.get("follower_read_share", 0.0),
        "dlfm.archive_jobs_per_op": counters["archive_jobs"] / ops,
        "workloads.secondary_p50_ms":
            percentile(result.secondary, 50) * 1000.0,
        "workloads.secondary_p99_ms":
            percentile(result.secondary, 99) * 1000.0,
    })
    return metrics


def _dump_trace(directory: str, workload: str, profiler, table, ops) -> None:
    """``--trace-out``: the raw pstats file plus the rolled-up layer table."""

    os.makedirs(directory, exist_ok=True)
    pstats.Stats(profiler).dump_stats(
        os.path.join(directory, f"{workload}.pstats"))
    with open(os.path.join(directory, f"{workload}.layers.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(f"# {workload}: traced timed phase, {ops} ops\n")
        handle.write(f"{'layer':<18}{'self_s':>10}{'share':>9}"
                     f"{'calls':>12}{'calls/op':>12}\n")
        for layer, self_s, share, calls in table:
            handle.write(f"{layer:<18}{self_s:>10.4f}{share:>9.4f}"
                         f"{calls:>12d}{calls / ops:>12.2f}\n")
