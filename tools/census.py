"""Function census of ``src/repro``: product, test-only and never entered.

    python tools/census.py [--names]

Classifies every ``def`` under ``src/repro`` (nested ones included) by
what enters it, and prints a per-module table and the totals:

* **product** -- entered by a product surface: ``python -m repro.bench
  --smoke``, every ``examples/*.py``, or one of the four layered
  workloads (``benchmarks/layered/run.py --workload W --smoke --trace 0``);
* **test-only** -- entered by tier-1 (``python -m pytest``) and by no
  product surface;
* **never** -- entered by neither.

Each command runs in a child process under ``sys.settrace``.  Not
``sys.setprofile``: the bench's ``--profile`` and the layered driver
install cProfile, which replaces a profile hook without a word.  Every
child runs with ``PYTHONHASHSEED=0`` (so ``run.py`` does not re-execute
itself without the hook) and ``PYTHONPATH=src:.`` (so ``tests.conftest``
imports).  Under the trace ``TestWallClockBudget`` fails on its budget:
that is the trace's overhead, not a finding.  A function's lines run from
its ``def`` to its last body line.  The traced passes take minutes, so
the census is opt-in and not part of tier-1.  ``--names`` also lists
every test-only and never-entered function.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("web_rfd", "session_knee", "edit_uip", "cluster_hotspot")
PRODUCT = [["-m", "repro.bench", "--smoke"],
           *([str(path)] for path in sorted((ROOT / "examples").glob("*.py"))),
           *([str(ROOT / "benchmarks" / "layered" / "run.py"), "--workload",
              name, "--smoke", "--trace", "0"] for name in WORKLOADS)]
TIER1 = [["-m", "pytest", "-q", "-p", "no:cacheprovider"]]
KINDS = ("product", "test-only", "never")


def functions(src: Path) -> dict:
    """``{(module, first code line): (name, lines)}`` for every ``def``
    under *src*, keyed as its code object names itself: a decorated
    function's code starts at its first decorator."""

    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [decorator.lineno for decorator
                                              in child.decorator_list])
                found[(module, first)] = (prefix + child.name, child.end_lineno
                                          - child.lineno + 1)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}{child.name}."
            visit(child, module, name)

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")),
              path.relative_to(src).as_posix(), "")
    return found


def classify(defs: dict, product: set, tested: set) -> dict:
    """``{key: kind}``: product wins over tests, tests over nothing."""

    return {key: "product" if key in product else "test-only" if key in tested
            else "never" for key in defs}


def report(defs: dict, kinds: dict, names: bool = False) -> list[str]:
    """The per-module table (modules holding anything but product code)
    and the totals line."""

    by_module: dict = {}
    for key, kind in kinds.items():
        counts = by_module.setdefault(key[0], {k: [0, 0] for k in KINDS})
        counts[kind][0] += 1
        counts[kind][1] += defs[key][1]
    lines = [f"{'module':<44}{'product':>8}{'test-only (lines)':>19}"
             f"{'never (lines)':>15}"]
    for module, counts in sorted(by_module.items()):
        if counts["test-only"][0] or counts["never"][0]:
            lines.append(f"{module:<44}{counts['product'][0]:>8}"
                         f"{'%d (%d)' % tuple(counts['test-only']):>19}"
                         f"{'%d (%d)' % tuple(counts['never']):>15}")
    total = {kind: [sum(counts[kind][i] for counts in by_module.values())
                    for i in (0, 1)] for kind in KINDS}
    lines.append(f"{len(kinds)} functions: {total['product'][0]} product, "
                 f"{total['test-only'][0]} test-only ({total['test-only'][1]} "
                 f"lines), {total['never'][0]} never entered "
                 f"({total['never'][1]} lines)")
    if names:
        lines += [f"{kind:<10} {key[0]}:{key[1]} {defs[key][0]}"
                  for key, kind in sorted(kinds.items()) if kind != "product"]
    return lines


def record(out: str, argv: list[str]) -> None:
    """Run *argv* (``-m module ...`` or ``script ...``) in this process and
    write the ``src`` code objects it entered to *out*."""

    seen = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        seen.add((code.co_filename, code.co_firstlineno))

    sys.settrace(tracer)
    try:
        if argv[0] == "-m":
            sys.argv = argv[1:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = argv
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.settrace(None)
        prefix = f"{SRC}{os.sep}"
        Path(out).write_text(json.dumps(sorted(
            [Path(name).relative_to(SRC).as_posix(), line]
            for name, line in seen if name.startswith(prefix))))


def run_pass(commands: list, cwd: Path, scratch: Path) -> set:
    """Every ``src`` code object the *commands* enter, each traced in a
    child process."""

    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=f"{SRC}{os.pathsep}{ROOT}")
    out = scratch / "entered.json"
    entered = set()
    for argv in commands:
        out.unlink(missing_ok=True)
        subprocess.run([sys.executable, __file__, "--record", str(out), *argv],
                       cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=False)
        entered |= {tuple(key) for key in json.loads(out.read_text())}
    return entered


def main() -> None:
    if sys.argv[1:2] == ["--record"]:
        record(sys.argv[2], sys.argv[3:])
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--names", action="store_true",
                        help="also list every test-only and never-entered def")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        product = run_pass(PRODUCT, Path(scratch), Path(scratch))
        tested = run_pass(TIER1, ROOT, Path(scratch))
    defs = functions(SRC)
    print("\n".join(report(defs, classify(defs, product, tested), args.names)))


if __name__ == "__main__":
    main()
