"""Run every experiment and render the results (text, markdown, JSON).

A full run of the smoke or the large tier (``python -m repro.bench --smoke``,
``--scale large``; no experiment ids) additionally writes ``BENCH_smoke.json``
/ ``BENCH_large.json`` -- a per-experiment summary of the simulated-millisecond
columns, the perf trajectory future changes compare against -- into the
current working directory: run it from the repository root to refresh the
committed baseline, and commit it whenever a change moves the numbers.  A
partial run (ids given) or a default-tier run writes an artifact only where
``--json PATH`` says.

Each experiment's ``wall_clock_s`` is measured around its run, and the
top-level ``wall_clock`` summary holds their total.  Keys starting with
``wall_clock`` (and the ``profile`` tables) are the only non-deterministic
fields in the artifact; everything else is simulated and must be
byte-identical across runs of the same code (the tier-1 invariant test
enforces this).

``--profile`` wraps every experiment in :mod:`cProfile` and attaches the
top-N cumulative-time rows to the artifact (and prints them), so "what got
slow" is answered by the artifact itself instead of an ad-hoc rerun.
Sweep experiments additionally attribute the call count per sweep *step*
(``profile_steps`` in the artifact entry, keyed by the step's row label):
the experiment's
:class:`~repro.bench.runner.RunContext` reads the live profiler between
steps and books the delta each step consumed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import sys
import time

from repro.bench.metrics import ExperimentResult, format_table
from repro.bench.runner import EXPERIMENTS, RunContext, run_experiment

#: Default artifact of a full run of a tier (the default tier has none).
TIER_ARTIFACTS = {"smoke": "BENCH_smoke.json", "large": "BENCH_large.json"}
PROFILE_TOP_N = 15


def _profile_summary(profiler: cProfile.Profile,
                     top_n: int = PROFILE_TOP_N) -> dict:
    """Profile digest: total call count + top-N rows.

    ``total_calls`` is the profiler's total function-call count across the
    experiment -- unlike the timing columns it repeats exactly for one
    command on one box and interpreter build (the simulator is
    single-threaded and seeded), so successive artifacts from one box can
    be diffed call-for-call; across boxes it differs by about 1 %, and it
    falls as more warm passes fill the caches before it.  It is
    summed over the raw entries of ``getstats()``, as
    :meth:`~repro.bench.runner.RunContext.mark_step` counts: ``pstats``
    keys entries by (file, line, name) and keeps only one of several code
    objects that share a key (the generated ``__init__`` of dataclasses),
    so its ``total_calls`` drops a run-dependent share of the calls.
    """

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows = []
    for func in stats.fcn_list[:top_n]:        # (file, line, name), sorted
        cc, ncalls, tottime, cumtime, _callers = stats.stats[func]
        filename, line, name = func
        location = f"{os.path.basename(filename)}:{line}({name})" \
            if line else name
        rows.append({
            "function": location,
            "ncalls": ncalls,
            "tottime_s": round(tottime, 4),
            "cumtime_s": round(cumtime, 4),
        })
    total = sum(entry.callcount for entry in profiler.getstats())
    return {"total_calls": total, "rows": rows}


def _run_once(identifier: str, scale: str,
              profiler: cProfile.Profile | None = None) -> tuple:
    """One pass of an experiment, instrumented when a *profiler* is given:
    ``(result, wall seconds, profile_steps)``."""

    context = RunContext(profiler)
    started = time.time()
    if profiler is not None:
        profiler.enable()
    try:
        result = run_experiment(identifier, scale, context)
    finally:
        if profiler is not None:
            profiler.disable()
    return result, time.time() - started, context.profile_steps


def steady_state_calls(identifier: str, scale: str) -> int:
    """The Python calls of one pass of an experiment after one warm pass:
    the count a ``--profile`` run records as ``profile_calls``."""

    _run_once(identifier, scale)
    profiler = cProfile.Profile()
    _run_once(identifier, scale, profiler)
    return sum(entry.callcount for entry in profiler.getstats())


def _render_profile(identifier: str, summary: dict) -> str:
    rows = summary["rows"]
    lines = [f"profile {identifier} (total calls: {summary['total_calls']}; "
             f"top {len(rows)} by cumulative time):"]
    lines.append(f"  {'ncalls':>8}  {'tottime_s':>9}  {'cumtime_s':>9}  function")
    for row in rows:
        lines.append(f"  {row['ncalls']:>8}  {row['tottime_s']:>9.4f}  "
                     f"{row['cumtime_s']:>9.4f}  {row['function']}")
    return "\n".join(lines)


def write_artifact(results: list[ExperimentResult], wall_clock: dict,
                   path: str, scale: str,
                   profiles: dict | None = None,
                   wall_clock_samples: dict | None = None) -> None:
    """Write the JSON perf artifact for *results* (run at *scale*) to *path*.

    ``wall_clock_samples`` records *every* timing sample of a best-of-N run
    (the per-experiment ``wall_clock_s`` is the winner, but the artifact
    keeps the full sample list so the measurement's spread is auditable,
    not just its minimum).
    """

    experiments = {}
    for result in results:
        identifier = result.experiment_id
        entry = {
            **result.to_dict(),
            "wall_clock_s": round(wall_clock.get(identifier, 0.0), 3),
        }
        samples = (wall_clock_samples or {}).get(identifier)
        if samples:
            entry["wall_clock_samples_s"] = [round(sample, 3)
                                             for sample in samples]
        if profiles and identifier in profiles:
            entry["profile"] = profiles[identifier]["rows"]
            entry["profile_calls"] = profiles[identifier]["total_calls"]
            if profiles[identifier]["steps"]:
                entry["profile_steps"] = profiles[identifier]["steps"]
        experiments[identifier] = entry
    payload = {
        "mode": scale if scale != "default" else "full",
        "experiments": experiments,
    }
    total = sum(wall_clock.get(result.experiment_id, 0.0) for result in results)
    payload["wall_clock"] = {"total_s": round(total, 3)}
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True, default=str)
        stream.write("\n")


def run_all(experiment_ids: list[str] | None = None, *,
            markdown: bool = False, scale: str = "default",
            json_path: str | None = None,
            profile: bool = False, best_of: int = 1,
            stream=None) -> list[ExperimentResult]:
    """Run the selected experiments (all by default), printing each table.

    ``scale="smoke"`` uses the tiny per-experiment configurations,
    ``scale="large"`` the scaled-up tier (by default only the experiments
    that declare large sizes).  A full run of either (no
    ``experiment_ids``) writes its :data:`TIER_ARTIFACTS` perf summary
    into the current working directory unless ``json_path`` says
    otherwise; a partial run writes only where ``json_path`` says, so it
    never replaces a committed all-experiment baseline.
    ``profile=True`` adds one :mod:`cProfile`-instrumented pass of every
    experiment after its timing passes and attaches that pass's total
    call count (:func:`steady_state_calls`) plus the top-N cumulative
    table to its artifact entry.  ``best_of``
    re-times each experiment that many times: ``wall_clock_s`` is the
    fastest sample and the artifact records the full
    ``wall_clock_samples_s`` list (simulated results come from one run;
    the others are timing-only and discarded).
    """

    stream = stream if stream is not None else sys.stdout
    if experiment_ids:
        ids = [identifier.upper() for identifier in experiment_ids]
    else:
        ids = sorted(identifier for identifier, spec in EXPERIMENTS.items()
                     if scale in spec.tiers)
        if json_path is None:
            json_path = TIER_ARTIFACTS.get(scale)
    best_of = max(1, best_of)
    results = []
    wall_clock: dict[str, float] = {}
    wall_samples: dict[str, list] = {}
    profiles: dict[str, dict] = {}
    # The experiments allocate heavily but retain almost nothing between
    # rounds; collector pauses inside the measured window are pure noise,
    # so the cyclic GC is parked for the duration of the run.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for identifier in ids:
            result, first, steps = _run_once(identifier, scale)
            samples = [first] + [_run_once(identifier, scale)[1]
                                 for _ in range(best_of - 1)]
            profiler = None
            if profile:
                # Timing and profiling want different passes: the
                # instrumented pass is not a timing sample, and it counts
                # *steady-state* calls -- cold first-run cache fills depend
                # on what ran earlier in the process.  So it runs last,
                # after the timing passes warmed the caches: one warm pass
                # is enough, and it is the warm-up tier-1's call-count
                # budget takes too (``steady_state_calls``).
                profiler = cProfile.Profile()
                result, _, steps = _run_once(identifier, scale, profiler)
            elapsed = min(samples)
            wall_clock[identifier] = elapsed
            wall_samples[identifier] = samples
            results.append(result)
            rendered = result.as_markdown() if markdown else result.as_text()
            print(rendered, file=stream)
            if best_of > 1:
                rendered_samples = ", ".join(f"{value:.3f}" for value in samples)
                print(f"(wall clock: {elapsed:.1f} s, best of {best_of}: "
                      f"[{rendered_samples}])", file=stream)
            else:
                print(f"(wall clock: {elapsed:.1f} s)", file=stream)
            if profiler is not None:
                profiles[identifier] = {**_profile_summary(profiler),
                                        "steps": steps}
                print(_render_profile(identifier, profiles[identifier]),
                      file=stream)
            print("", file=stream)
    finally:
        if gc_was_enabled:
            gc.enable()
    if json_path:
        write_artifact(results, wall_clock, json_path, scale,
                       profiles=profiles or None,
                       wall_clock_samples=wall_samples)
        print(f"wrote {json_path}", file=stream)
    return results


def list_experiments() -> None:
    """Print the index of declared experiments -- id, title, paper sections,
    columns and tiers -- as a markdown table.  Runs nothing: it is the
    declarations alone, and ``README.md`` carries a copy."""

    rows = [[spec.experiment_id, spec.title, spec.sections,
             ", ".join(spec.columns), ", ".join(spec.tiers)]
            for spec in EXPERIMENTS.values()]
    print(format_table(["id", "title", "sections", "columns", "tiers"], rows,
                       markdown=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's evaluation claims (experiments "
                    "E1..E10) plus the scale-out study (E11), the "
                    "replica-failover study (E12), the online-"
                    "rebalancing study (E13) and the autonomous-"
                    "balancer study (E14).  A full run of the smoke or "
                    "the large tier also writes that tier's BENCH_*.json.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids to run (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="print the index of experiments (id, title, "
                             "paper sections, columns, tiers) from their "
                             "declarations and exit; runs nothing")
    parser.add_argument("--markdown", action="store_true",
                        help="emit markdown tables")
    parser.add_argument("--smoke", action="store_true",
                        help="run every experiment with a tiny configuration "
                             "(fast CI sanity mode; shorthand for --scale "
                             "smoke)")
    parser.add_argument("--scale", choices=("smoke", "default", "large"),
                        default=None,
                        help="configuration tier: smoke (tiny CI configs), "
                             "default (full paper-shaped configs) or large "
                             "(scaled-up stress tier -- E14 at ~100x the "
                             "smoke operation count, E9 with thousands of "
                             "client sessions; not part of tier-1 CI); "
                             "default: default")
    parser.add_argument("--profile", action="store_true",
                        help="run each experiment once more, warm, under "
                             "cProfile and attach the total call count "
                             "plus the "
                             f"top-{PROFILE_TOP_N} cumulative-time table to "
                             "the artifact (and print it)")
    parser.add_argument("--best-of", type=int, default=1, metavar="N",
                        help="time each experiment N times, report the "
                             "fastest run and record every sample in the "
                             "artifact (simulated results are identical "
                             "across reruns; default: 1)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write a JSON perf summary to PATH (default: "
                             f"{TIER_ARTIFACTS['smoke']} / "
                             f"{TIER_ARTIFACTS['large']} for a run of the "
                             "whole smoke / large tier; off when experiment "
                             "ids are given and for the default tier)")
    args = parser.parse_args(argv)
    if args.list:
        list_experiments()
        return 0
    scale = args.scale if args.scale is not None else \
        ("smoke" if args.smoke else "default")
    run_all(args.experiments or None, markdown=args.markdown, scale=scale,
            json_path=args.json, profile=args.profile, best_of=args.best_of)
    return 0
