"""Layered benchmark of the DataLinks reproduction: the one command.

``python3 benchmarks/layered/run.py`` runs every workload (each in its own
single-threaded child process, one at a time), prints every end-to-end and
per-layer metric by name with its unit, verifies outputs and exits non-zero
on any failed check.

``--workload NAME --seed N --seconds S --trace 0|1`` measures one workload in
this process and prints, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).

Other modes: ``--check-repeat`` (run the full set twice, fail when the two
disagree by more than the bounds), ``--compare A.json B.json`` (before/after
ledger from two ``--json-out`` files), ``--smoke`` (tiny sizes),
``--reps R``, ``--trace-out DIR``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")


def _bootstrap() -> None:
    """Make ``repro`` (from ``src/``) and this package importable."""

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        sys.exit(f"layered benchmark: {SOURCE}/repro not found; run it from "
                 f"a checkout of the repository")
    for path in (SOURCE, os.path.dirname(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _units() -> dict:
    from layered import catalog
    units = {metric["name"]: metric["unit"] for metric in catalog.END_TO_END}
    units.update((metric["name"], metric["unit"])
                 for metric in catalog.per_layer_catalog())
    return units


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<44}{value:>18.6f} {units[name]}")


# --------------------------------------------------------------------------
# one workload, in this process
# --------------------------------------------------------------------------
def run_one(args) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash order must not change the work done between invocations.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    from layered import catalog
    from layered.measure import measure

    if args.workload not in catalog.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(catalog.WORKLOADS)}")
    report = measure(args.workload, seed=args.seed, seconds=args.seconds,
                     trace=bool(args.trace), smoke=args.smoke, reps=args.reps,
                     trace_out=args.trace_out)
    units = _units()
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"reps {report['reps']}  trace {args.trace}"
          f"{'  (smoke sizes)' if report['smoke'] else ''}")
    _print_metrics(report["metrics"], units)
    if args.trace:
        print("  -- end-to-end preview (measured beside the trace; not the "
              "gate)")
        _print_metrics(report["end_to_end_preview"], units)
    else:
        print(f"  bench.noise_ratio {report['noise_ratio']:.3f} "
              f"(median raw wall of a rep / reference seconds), "
              f"wall/cpu {report['wall_cpu_ratio']:.3f}")
    print(f"  failed {report['failed']} of {report['attempted']} operations "
          f"attempted; p99 rests on {report['primary_samples']} samples; "
          f"digest {report['digest'][:16]}")
    for line in report["failures"]:
        print(f"  CHECK FAILED: {line}")
    correct = not report["failures"]
    print(json.dumps({
        "correct": correct, "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()},
    }))
    return 0 if correct else 1


# --------------------------------------------------------------------------
# every workload, one child process each
# --------------------------------------------------------------------------
def _child(workload: str, args, trace: int) -> dict:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    if args.reps is not None:
        command += ["--reps", str(args.reps)]
    if trace and args.trace_out:
        command += ["--trace-out", args.trace_out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONHASHSEED="0"))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    if done.returncode != 0:
        result["correct"] = False
    return result


def run_set(args, workloads: list[str]) -> dict:
    """``{workload: {"end_to_end", "per_layer", "correct", ...}}``: each
    workload untraced, then traced."""

    results = {}
    for workload in workloads:
        plain = _child(workload, args, 0)
        layers = _child(workload, args, 1)
        results[workload] = {
            "correct": plain["correct"] and layers["correct"],
            "attempted": plain["attempted"], "failed": plain["failed"],
            "end_to_end": {name: cell["value"]
                           for name, cell in plain["metrics"].items()},
            "per_layer": {name: cell["value"]
                          for name, cell in layers["metrics"].items()},
        }
    return results


def run_all(args) -> int:
    from layered import catalog

    workloads = list(catalog.WORKLOADS)
    first = run_set(args, workloads)
    correct = all(entry["correct"] for entry in first.values())
    document = {"seed": args.seed, "seconds": args.seconds,
                "smoke": args.smoke, "workloads": first}
    if args.check_repeat:
        second = run_set(args, workloads)
        correct = correct and all(entry["correct"]
                                  for entry in second.values())
        document["repeat"] = second
        print("\ncheck-repeat: same code, same seed, two sets")
        correct = _repeat_agrees(first, second, catalog) and correct
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    print("\nall checks passed" if correct else "\nFAILED")
    return 0 if correct else 1


def _change_percent(before: float, after: float) -> float:
    return (after - before) / before * 100 if before else 0.0


def _worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse *after* is than *before*, as a share of *before*."""

    if before == 0:
        return 0.0 if after == 0 else float("inf")
    change = (after - before) / abs(before)
    return change if metric["better"] == "lower" else -change


def _repeat_agrees(first: dict, second: dict, catalog) -> bool:
    """Simulated metrics must repeat exactly, host metrics within bounds."""

    agrees = True
    for workload, entry in first.items():
        other = second[workload]
        for metric in catalog.END_TO_END:
            name = metric["name"]
            one, two = entry["end_to_end"][name], other["end_to_end"][name]
            exact = name.startswith("sim_")
            apart = abs(_worse_by(metric, one, two))
            good = one == two if exact else apart <= metric["bound"]
            agrees = agrees and good
            print(f"  {workload:<16}{name:<16}{one:>16.6f}{two:>16.6f}"
                  f"{apart * 100:>8.2f}% "
                  f"{'exact' if exact else 'bound %.0f%%' % (metric['bound'] * 100)}"
                  f"  {'ok' if good else 'DISAGREES'}")
        for name, one in entry["per_layer"].items():
            two = other["per_layer"][name]
            if catalog.repeats_exactly(name) and one != two:
                agrees = False
                print(f"  {workload:<16}{name} differs between two traced "
                      f"runs: {one!r} vs {two!r}")
    return agrees


# --------------------------------------------------------------------------
# before/after ledger
# --------------------------------------------------------------------------
def compare(before_path: str, after_path: str) -> int:
    from layered import catalog

    with open(before_path, encoding="utf-8") as handle:
        before = json.load(handle)["workloads"]
    with open(after_path, encoding="utf-8") as handle:
        after = json.load(handle)["workloads"]
    print(f"{'workload':<16}{'metric':<46}{'before':>16}{'after':>16}"
          f"{'change':>9}  verdict")
    for workload in catalog.WORKLOADS:
        if workload not in before or workload not in after:
            continue
        for metric in catalog.END_TO_END:
            name = metric["name"]
            one = before[workload]["end_to_end"][name]
            two = after[workload]["end_to_end"][name]
            worse = _worse_by(metric, one, two)
            verdict = "REGRESSION" if worse > metric["bound"] else \
                "better" if worse < 0 else "within bound"
            print(f"{workload:<16}{name:<46}{one:>16.6f}{two:>16.6f}"
                  f"{_change_percent(one, two):>8.2f}%  "
                  f"{verdict} (bound {metric['bound'] * 100:.0f}%)")
        for metric in catalog.per_layer_catalog():
            name = metric["name"]
            one = before[workload]["per_layer"].get(name)
            two = after[workload]["per_layer"].get(name)
            if one is None or two is None or one == two:
                continue
            print(f"{workload:<16}{name:<46}{one:>16.6f}{two:>16.6f}"
                  f"{_change_percent(one, two):>8.2f}%  layer")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure only this workload, in "
                        "this process, and end with the result JSON line")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=None,
                        help="exactly this many untraced reps")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the tier-1 self-test uses them)")
    parser.add_argument("--trace-out", metavar="DIR",
                        help="dump pstats and the layer table per workload")
    parser.add_argument("--json-out", metavar="FILE",
                        help="write the full set's numbers (for --compare)")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    _bootstrap()
    from layered import catalog
    if args.seed is None:
        args.seed = catalog.DEFAULT_SEED
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(catalog.RUN_SECONDS)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
