"""Tier-1 guards for the bench artifact: sim identity and wall-clock budget.

The simulator fast path is maintained under a strict pure-refactor
invariant: optimizations may change how fast the simulation *runs*, never
what it *simulates*.  These tests re-run the full ``--smoke`` suite
in-process and hold it against the committed ``BENCH_smoke.json``:

* every simulated field (rows, sim_ms columns, notes -- everything except
  the ``wall_clock*`` measurements and ``profile`` tables) must be
  byte-identical to the committed artifact;
* the total wall clock must not regress by more than 25% against the
  committed baseline (best of three runs here, and the baseline is the
  *worst* recorded ``wall_clock_samples_s`` sample per experiment, so a
  noisy neighbor does not fail the build).
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.harness import run_all, steady_state_calls
from tests.conftest import run_smoke

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_ARTIFACT = REPO_ROOT / "BENCH_smoke.json"
LARGE_ARTIFACT = REPO_ROOT / "BENCH_large.json"

#: The large tier re-runs E9-large and E14-large for real (about a
#: minute of single-threaded work), so its identity and budget guards
#: only run when explicitly requested; tier-1 CI covers the committed
#: artifact's shape and acceptance bars cheaply in test_00_ci_guards.
RUN_LARGE_TIER = os.environ.get("REPRO_LARGE_BENCH") == "1"

#: Keys in a per-experiment artifact entry that are *measured*, not
#: simulated; everything else must be deterministic.
NON_SIM_KEYS = ("wall_clock", "profile")


def _is_sim_key(key: str) -> bool:
    return not key.startswith(NON_SIM_KEYS)


def _drift(golden: dict, fresh: dict) -> list:
    """The simulated fields where *fresh* differs from *golden*."""

    mismatches = []
    for name, entry in golden["experiments"].items():
        run = fresh["experiments"][name]
        mismatches += [f"{name}.{key}" for key, value in entry.items()
                       if _is_sim_key(key) and run.get(key) != value]
        mismatches += [f"{name}.{key} (new field)" for key in run
                       if _is_sim_key(key) and key not in entry]
    return mismatches


def _worst_total(payload: dict) -> float:
    """The wall-clock budget's baseline: the *worst* recorded best-of sample
    per experiment, summed.  A fresh pass is one draw from the same
    distribution, so comparing it against the committed minimum would flag
    ordinary variance as a regression."""

    return sum(max(entry.get("wall_clock_samples_s") or [entry["wall_clock_s"]])
               for entry in payload["experiments"].values())


@pytest.fixture(scope="module")
def committed() -> dict:
    if not COMMITTED_ARTIFACT.exists():
        pytest.skip("no committed BENCH_smoke.json to compare against")
    with open(COMMITTED_ARTIFACT, "r", encoding="utf-8") as stream:
        return json.load(stream)


@pytest.fixture(scope="module")
def smoke_payload(smoke_run) -> dict:
    return smoke_run[1]


class TestSimulatedResultsInvariant:
    """Golden-value check: simulated output equals the committed artifact."""

    def test_same_experiments(self, committed, smoke_payload):
        assert set(smoke_payload["experiments"]) == set(committed["experiments"])

    def test_simulated_fields_are_identical(self, committed, smoke_payload):
        mismatches = _drift(committed, smoke_payload)
        assert not mismatches, (
            "simulated results drifted from the committed BENCH_smoke.json "
            f"baseline: {mismatches}; if the change is intentional, "
            "regenerate the artifact with `python -m repro.bench --smoke` "
            "from the repository root and commit it")


class TestHashSeedDeterminism:
    """Simulated results must not depend on set or dict-key hash order.

    Index buckets are sets and several registries are keyed by tuples of
    strings, whose iteration order follows ``PYTHONHASHSEED``.  The seed is
    fixed at interpreter start, so this runs ``python -m repro.bench
    --smoke`` in two fresh processes, side by side, and compares every
    simulated field.
    """

    def test_smoke_is_identical_under_two_hash_seeds(self, tmp_path):
        source = str(REPO_ROOT / "src")
        inherited = os.environ.get("PYTHONPATH")
        runs = []
        for hash_seed in ("0", "1"):
            json_path = tmp_path / f"hashseed{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=source + (os.pathsep + inherited
                                            if inherited else ""))
            runs.append((json_path, subprocess.Popen(
                [sys.executable, "-m", "repro.bench", "--smoke",
                 "--json", str(json_path)],
                cwd=tmp_path, env=env, stdout=subprocess.DEVNULL)))
        payloads = []
        try:
            for json_path, process in runs:
                assert process.wait(timeout=300) == 0
                with open(json_path, "r", encoding="utf-8") as stream:
                    payloads.append(json.load(stream)["experiments"])
        finally:
            for _, process in runs:
                process.kill()      # a no-op once it has exited
        first, second = payloads
        assert set(first) == set(second)
        differing = [f"{name}.{key}"
                     for name, entry in first.items()
                     for key in set(entry) | set(second[name])
                     if _is_sim_key(key)
                     and entry.get(key) != second[name].get(key)]
        assert not differing, (
            "simulated fields depend on PYTHONHASHSEED (an unordered set or "
            f"dict drives simulated work somewhere): {differing}")


class TestWallClockBudget:
    """The smoke suite must not silently get slower than the baseline."""

    # The baseline is recorded by a standalone `python -m repro.bench`
    # process; this gate measures inside a long pytest process whose heap
    # and cache state run the same code up to ~1.6x slower, on a VM with
    # variable steal time on top.  The allowance covers that context gap:
    # this gate is the coarse backstop against order-of-magnitude
    # slowdowns, while TestCallCountBudget below holds the tight,
    # noise-free line on per-event work.
    ALLOWED_REGRESSION = 1.75
    ATTEMPTS = 3

    def test_total_wall_clock_within_budget(self, committed, smoke_payload,
                                            tmp_path):
        baseline = _worst_total(committed)
        if baseline <= 0:
            pytest.skip("committed artifact carries no wall-clock baseline")
        budget = baseline * self.ALLOWED_REGRESSION
        best = smoke_payload["wall_clock"]["total_s"]
        attempt = 1
        # Wall clock is noisy; only repeated misses count as a regression.
        while best > budget and attempt < self.ATTEMPTS:
            attempt += 1
            best = min(best, run_smoke(
                tmp_path / f"bench_retry{attempt}.json")[1]["wall_clock"]["total_s"])
        assert best <= budget, (
            f"--smoke total wall clock regressed: best of {attempt} runs was "
            f"{best:.3f}s against a committed baseline of {baseline:.3f}s "
            f"(>{self.ALLOWED_REGRESSION:.0%} budget {budget:.3f}s); profile "
            "with `python -m repro.bench --profile --smoke` and recover the "
            "loss, or justify and regenerate the committed artifact")


class TestCallCountBudget:
    """Per-event work must not silently grow: call counts, not wall clock.

    Wall clock is a noisy channel (VM steal time, pytest heap state); the
    steady-state Python function-call count of an experiment is far less
    so -- the simulator is single-threaded and fully seeded.  The committed
    artifact records it per experiment (``profile_calls``, written by
    ``--profile``: a profiled pass after the timing passes), and this test
    takes it after the same warm-up, through the harness's own pass
    (:func:`~repro.bench.harness.steady_state_calls`: one unprofiled pass,
    then the profiled one).  A cold pass counts the cache fills too (E14
    smoke alone: 225 059 cold, 189 486 on every warm pass after it), and
    one warm pass is enough: ``--best-of 1`` and ``--best-of 3`` record the
    same count.  The count repeats exactly on one box and interpreter
    build, but it is not a constant of the code alone: the same tree and
    command read about 1 % apart on two boxes.  The 10 % headroom covers
    that gap; a fresh warm count above it means a hot path gained
    per-event work, however quiet the machine, while a regression smaller
    than the gap cannot be told from it.
    """

    # Headroom for intentional small additions; regenerating the artifact
    # resets the baseline when a change legitimately adds calls.
    ALLOWED_GROWTH = 1.10
    EXPERIMENT = "E14"  # the call-heaviest experiment guards the floor

    def test_e14_steady_state_calls_within_budget(self, committed):
        entry = committed["experiments"].get(self.EXPERIMENT, {})
        baseline = entry.get("profile_calls")
        if not baseline:
            pytest.skip("committed artifact carries no profile_calls "
                        "baseline; regenerate with --profile")
        fresh = steady_state_calls(self.EXPERIMENT, "smoke")
        budget = int(baseline * self.ALLOWED_GROWTH)
        assert fresh <= budget, (
            f"{self.EXPERIMENT} smoke now executes {fresh} Python calls "
            f"against a committed steady-state baseline of {baseline} "
            f"(>{self.ALLOWED_GROWTH - 1:.0%} budget {budget}); this metric "
            "repeats on one box, so a miss is a real hot-path regression — "
            "profile with `python -m repro.bench --profile --smoke`, shed "
            "the per-event work, or justify and regenerate the artifact")


# ---------------------------------------------------------------------------
# Large tier (opt-in): REPRO_LARGE_BENCH=1 re-runs E9/E14 at capacity scale
# ---------------------------------------------------------------------------


def _run_large(tmp_path: Path, tag: str) -> dict:
    json_path = tmp_path / f"bench_large_{tag}.json"
    run_all(scale="large", json_path=str(json_path), stream=io.StringIO())
    with open(json_path, "r", encoding="utf-8") as stream:
        return json.load(stream)


@pytest.fixture(scope="module")
def committed_large() -> dict:
    if not LARGE_ARTIFACT.exists():
        pytest.skip("no committed BENCH_large.json to compare against")
    with open(LARGE_ARTIFACT, "r", encoding="utf-8") as stream:
        return json.load(stream)


@pytest.fixture(scope="module")
def large_payload(tmp_path_factory) -> dict:
    tmp_path = tmp_path_factory.mktemp("bench_large")
    return _run_large(tmp_path, "fresh")


@pytest.mark.skipif(not RUN_LARGE_TIER,
                    reason="set REPRO_LARGE_BENCH=1 to re-run the large "
                           "tier (roughly a minute of workload)")
class TestLargeTierInvariant:
    """Golden-value + budget checks for the million-link capacity tier.

    Same contract as the smoke guards above, at capacity scale: the
    simulated payload of a fresh ``--scale large`` run must be
    byte-identical to the committed ``BENCH_large.json``, and the wall
    clock self-calibrates against the committed best-of samples (the
    baseline is the *worst* sample, the allowance is the same 1.75x the
    smoke budget uses, so the gate inherits the calibration of whatever
    machine regenerated the artifact rather than hard-coding seconds).
    """

    ALLOWED_REGRESSION = 1.75
    ATTEMPTS = 2

    def test_same_experiments(self, committed_large, large_payload):
        assert set(large_payload["experiments"]) == \
            set(committed_large["experiments"])

    def test_simulated_fields_are_identical(self, committed_large,
                                            large_payload):
        mismatches = _drift(committed_large, large_payload)
        assert not mismatches, (
            "large-tier simulated results drifted from the committed "
            f"BENCH_large.json baseline: {mismatches}; if the change is "
            "intentional, regenerate with `python -m repro.bench --scale "
            "large --profile --best-of 2` from the repository root and "
            "commit it")

    def test_wall_clock_within_calibrated_budget(self, committed_large,
                                                 large_payload, tmp_path):
        baseline = _worst_total(committed_large)
        if baseline <= 0:
            pytest.skip("committed BENCH_large.json carries no wall-clock "
                        "baseline")
        budget = baseline * self.ALLOWED_REGRESSION
        best = float(large_payload["wall_clock"]["total_s"])
        attempt = 1
        while best > budget and attempt < self.ATTEMPTS:
            attempt += 1
            retry = _run_large(tmp_path, f"retry{attempt}")
            best = min(best, float(retry["wall_clock"]["total_s"]))
        assert best <= budget, (
            f"--scale large total wall clock regressed: best of {attempt} "
            f"runs was {best:.1f}s against a committed worst-sample "
            f"baseline of {baseline:.1f}s (budget {budget:.1f}s)")

    def test_e14_large_call_budget(self, committed_large):
        """Warm steady-state call count of E14-large, held to the
        committed ``profile_calls`` with the same 10% headroom the smoke
        gate uses.  Deterministic, so a miss is a real regression."""

        baseline = committed_large["experiments"]["E14"].get("profile_calls")
        if not baseline:
            pytest.skip("committed BENCH_large.json carries no "
                        "profile_calls baseline; regenerate with --profile")
        fresh = steady_state_calls("E14", "large")
        budget = int(baseline * 1.10)
        assert fresh <= budget, (
            f"E14-large now executes {fresh} Python calls against the "
            f"committed steady-state baseline {baseline} (budget {budget})")
