"""Tier-1 fail-fast guards: sources must compile, the artifact must parse.

Named ``test_00_*`` so pytest's alphabetical collection runs this module
first: under ``-x`` a syntax error anywhere beneath ``src/`` or a
malformed committed ``BENCH_smoke.json`` aborts the run immediately,
before the functional suites spend minutes re-running workloads against a
baseline that was never going to load.  This is the test-suite face of the
CI entrypoint's ``python -m compileall src`` + artifact-shape check.
"""

from __future__ import annotations

import compileall
import json
from pathlib import Path

import pytest

from repro.bench.runner import EXPERIMENTS, run_experiment

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
COMMITTED_ARTIFACT = REPO_ROOT / "BENCH_smoke.json"
LARGE_ARTIFACT = REPO_ROOT / "BENCH_large.json"
LAYERED_ARTIFACT = REPO_ROOT / "BENCH_layered.json"

#: The large tier's capacity acceptance bars, checked against the
#: *committed* artifact (cheap -- no workload runs here; the gated suite
#: in ``test_bench_artifact.py`` re-runs the tier for real).
E14_LARGE_MIN_LINK_OPS = 1_000_000
E14_LARGE_WALL_BUDGET_S = 60.0
#: 25% under the pre-optimization steady-state call count (18,520,550).
E14_LARGE_MAX_PROFILE_CALLS = 13_890_412

#: Fields every per-experiment artifact entry must carry.  ``rows`` and
#: ``sim_ms`` are the simulated (deterministic) payload; ``wall_clock_s``
#: is the measured timing the wall-clock budget test diffs against.
REQUIRED_ENTRY_FIELDS = ("experiment_id", "title", "headers", "rows",
                        "sim_ms", "wall_clock_s")


#: The closed-loop sweeps: experiment, row marker, throughput column and
#: the size holding how many counted units one admitted operation carries
#: (``None`` = one).  Every sweep spells its gate ``admission_limit`` and
#: its think time ``think_s``.
SWEEPS = (
    ("E9", "session sweep", "ops_per_sim_s", None),
    ("E11", "client sweep", "links_per_sim_s", "rows_per_transaction"),
    ("E12", "routed read sweep", "follower_reads_per_sim_s", None),
)


def assert_sweeps_obey_the_admission_ceiling(payload: dict, scale: str):
    """Operational law for a closed loop behind ``limit`` slots: a client
    holds its slot for at least the think time ``Z``, so no sweep step can
    complete more than ``limit / Z`` operations per simulated second.
    The committed columns are rounded to one decimal, hence the 0.05."""

    checked = 0
    for name, marker, column, units_key in SWEEPS:
        tier = EXPERIMENTS[name].sizes(scale)
        limit, think_s = tier["admission_limit"], tier["think_s"]
        if not limit or not think_s:
            continue
        ceiling = limit / think_s * (tier[units_key] if units_key else 1)
        for row in payload["experiments"][name]["rows"]:
            if marker not in row["configuration"]:
                continue
            checked += 1
            assert row[column] <= ceiling + 0.05, (
                f"{name} {row['configuration']!r}: {column} {row[column]} "
                f"is above the admission ceiling limit/think = {ceiling}")
    assert checked, "no sweep step was checked against its ceiling"


def test_every_source_file_compiles():
    """``python -m compileall src``: no syntax error hides behind an
    untested import path."""

    assert compileall.compile_dir(str(SRC_ROOT), quiet=2, force=False), \
        "a file under src/ failed to byte-compile (syntax error)"


class TestCommittedArtifactShape:
    """The committed BENCH_smoke.json must be loadable and well-formed
    *before* the suites that treat it as their golden baseline run."""

    @pytest.fixture(scope="class")
    def payload(self) -> dict:
        if not COMMITTED_ARTIFACT.exists():
            pytest.skip("no committed BENCH_smoke.json in this checkout")
        with open(COMMITTED_ARTIFACT, "r", encoding="utf-8") as stream:
            return json.load(stream)

    def test_top_level_shape(self, payload):
        assert payload.get("mode") == "smoke"
        assert isinstance(payload.get("experiments"), dict)
        summary = payload.get("wall_clock")
        assert isinstance(summary, dict)
        assert isinstance(summary.get("total_s"), (int, float))
        assert summary["total_s"] > 0

    def test_covers_every_experiment(self, payload):
        assert set(payload["experiments"]) == set(EXPERIMENTS)

    def test_entries_are_well_formed(self, payload):
        for name, entry in payload["experiments"].items():
            for field in REQUIRED_ENTRY_FIELDS:
                assert field in entry, f"{name} entry lacks {field!r}"
            assert entry["experiment_id"] == name
            assert isinstance(entry["rows"], list) and entry["rows"], \
                f"{name} entry carries no result rows"
            headers = entry["headers"]
            for row in entry["rows"]:
                assert set(row) == set(headers), \
                    f"{name} row keys diverge from its headers"
            assert isinstance(entry["wall_clock_s"], (int, float))

    def test_sweeps_stay_under_the_admission_ceiling(self, payload):
        assert_sweeps_obey_the_admission_ceiling(payload, "smoke")


class TestCommittedLargeArtifactShape:
    """The committed BENCH_large.json (the million-link capacity tier)
    must be well-formed and must still document its acceptance bars."""

    @pytest.fixture(scope="class")
    def payload(self) -> dict:
        if not LARGE_ARTIFACT.exists():
            pytest.skip("no committed BENCH_large.json in this checkout")
        with open(LARGE_ARTIFACT, "r", encoding="utf-8") as stream:
            return json.load(stream)

    def test_top_level_shape(self, payload):
        assert payload.get("mode") == "large"
        assert isinstance(payload.get("experiments"), dict)
        summary = payload.get("wall_clock")
        assert isinstance(summary, dict)
        assert isinstance(summary.get("total_s"), (int, float))
        assert summary["total_s"] > 0

    def test_covers_the_large_tier(self, payload):
        assert set(payload["experiments"]) == {
            name for name, spec in EXPERIMENTS.items() if "large" in spec.tiers}

    def test_entries_are_well_formed(self, payload):
        for name, entry in payload["experiments"].items():
            for field in REQUIRED_ENTRY_FIELDS:
                assert field in entry, f"{name} entry lacks {field!r}"
            assert entry["experiment_id"] == name
            assert isinstance(entry["rows"], list) and entry["rows"], \
                f"{name} entry carries no result rows"
            headers = entry["headers"]
            for row in entry["rows"]:
                assert set(row) == set(headers), \
                    f"{name} row keys diverge from its headers"
            assert isinstance(entry["wall_clock_s"], (int, float))

    def test_sweeps_stay_under_the_admission_ceiling(self, payload):
        assert_sweeps_obey_the_admission_ceiling(payload, "large")

    def test_e14_million_link_capacity(self, payload):
        """Every E14-large variant clears the 10^6 charged-op floor and
        the whole experiment fits the 60 s wall budget (worst committed
        best-of sample, so re-timing noise is already priced in)."""

        entry = payload["experiments"]["E14"]
        for row in entry["rows"]:
            assert row["link_ops"] >= E14_LARGE_MIN_LINK_OPS, \
                f"E14-large {row['variant']!r} ran only {row['link_ops']} ops"
        samples = entry.get("wall_clock_samples_s") or [entry["wall_clock_s"]]
        assert max(samples) < E14_LARGE_WALL_BUDGET_S, \
            f"E14-large worst sample {max(samples):.1f}s blows the 60s budget"

    def test_e14_profile_calls_hold_the_optimized_line(self, payload):
        """The committed warm steady-state call count must stay >=25%
        under the pre-fast-path baseline; regressions must regenerate
        the artifact and justify the loss."""

        calls = payload["experiments"]["E14"].get("profile_calls")
        if not calls:
            pytest.skip("committed BENCH_large.json was written without "
                        "--profile; no call-count line to hold")
        assert calls <= E14_LARGE_MAX_PROFILE_CALLS, \
            (f"E14-large profile_calls {calls} exceeds the optimized "
             f"ceiling {E14_LARGE_MAX_PROFILE_CALLS}")

    def test_e9_records_the_session_sweep(self, payload):
        """E9-large must report the concurrent-session sweep steps with
        throughput and latency percentiles per step."""

        entry = payload["experiments"]["E9"]
        for column in ("read_p50_ms", "read_p99_ms", "ops_per_sim_s"):
            assert column in entry["headers"]
        sweep_rows = [row for row in entry["rows"]
                      if "session sweep" in row["configuration"]]
        swept = sorted(int(row["configuration"].split("sweep, ")[1]
                           .split(" sessions")[0]) for row in sweep_rows)
        assert swept == [10, 100, 1000, 10000], \
            f"E9-large swept {swept}, expected [10, 100, 1000, 10000]"
        for row in sweep_rows:
            assert row["ops_per_sim_s"] > 0
            assert row["read_p99_ms"] >= row["read_p50_ms"] > 0

    def test_e9_sweep_saturates_at_the_admission_limit(self, payload):
        """The committed E9-large sweep must show an honest saturation
        curve: throughput non-decreasing while the session count is
        under the admission limit, flat (within tolerance) past the
        knee, and a p99 that keeps growing with queued sessions --
        queueing, not Python-side table effects, is what saturates."""

        limit = EXPERIMENTS["E9"].sizes("large")["admission_limit"]
        if not limit:
            pytest.skip("E9-large runs without an admission limit")
        entry = payload["experiments"]["E9"]
        for column in ("queue_p50_ms", "queue_p99_ms"):
            assert column in entry["headers"]
        sweep = sorted(
            (int(row["configuration"].split("sweep, ")[1]
                 .split(" sessions")[0]), row)
            for row in entry["rows"]
            if "session sweep" in row["configuration"])
        assert sweep, "no session-sweep rows in the committed E9-large"
        below = [row for sessions, row in sweep if sessions <= limit]
        above = [row for sessions, row in sweep if sessions > limit]
        assert below and above, \
            "the sweep must straddle the admission limit to show a knee"
        rates = [row["ops_per_sim_s"] for row in below]
        assert all(later >= earlier
                   for earlier, later in zip(rates, rates[1:])), \
            f"throughput fell below the admission limit: {rates}"
        knee_rate = max(row["ops_per_sim_s"] for _, row in sweep)
        for row in above:
            assert 0.85 * knee_rate <= row["ops_per_sim_s"] \
                <= 1.15 * knee_rate, \
                (f"past the knee throughput should be flat near "
                 f"{knee_rate}, got {row['ops_per_sim_s']}")
        p99_floor = sweep[0][1]["read_p99_ms"]
        p99_peak = sweep[-1][1]["read_p99_ms"]
        assert p99_peak >= 5.0 * p99_floor, \
            (f"p99 shows no queueing knee: {p99_floor} ms at the bottom "
             f"vs {p99_peak} ms at the top of the sweep")
        assert sweep[-1][1]["queue_p99_ms"] > sweep[0][1]["queue_p99_ms"], \
            "queue delay must be what grows past the admission limit"


class TestCommittedLayeredArtifactShape:
    """``BENCH_layered.json`` is ``python3 benchmarks/layered/run.py
    --json-out BENCH_layered.json`` at seed 42, regenerated by any PR that
    claims a perf change.  Checked here: shape, ``failed == 0`` and
    *simulated identity* -- host numbers in the file are the box's that
    wrote it and gate nothing.

    ``--json-out`` writes values only: metric units live in
    ``BENCHMARK.json`` (so "the right units" is "exactly the declared
    names") and the four digests of ROADMAP's "Layered benchmark" paragraph
    are printed, not written.  What the file does carry of the simulated
    run is pinned instead, to the last digit: the three ``sim_*`` end-to-end
    metrics of the runs those digests name."""

    #: ``(sim_ops_per_s, sim_p50_ms, sim_p99_ms)`` at seed 42, unchanged
    #: since PR 15; digests 9f02af7fd43f2555 / 447e7bd9957e5dbf /
    #: 5f80905a8dc97eba / 1f1fb72439ab7e2a in this order.
    SIMULATED = {
        "web_rfd": (85.10712802577955, 11.292711182022686,
                    11.349244995017216),
        "session_knee": (62.78828676495274, 46768.023894838996,
                         48223.648881357),
        "edit_uip": (48.9668149410877, 28.468114638002362,
                     28.519441390997713),
        "cluster_hotspot": (91.8978824008268, 10.76865838601293,
                            16.13148742700332),
    }

    @pytest.fixture(scope="class")
    def payload(self):
        with LAYERED_ARTIFACT.open(encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.fixture(scope="class")
    def declared(self):
        with (REPO_ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
            return json.load(handle)

    def test_is_a_full_run_at_seed_42(self, payload, declared):
        assert (payload["seed"], payload["smoke"]) == (42, False)
        assert payload["seconds"] == declared["run_seconds"]
        assert "repeat" not in payload

    def test_covers_every_workload_without_a_failed_operation(
            self, payload, declared):
        assert list(payload["workloads"]) == \
            [workload["name"] for workload in declared["workloads"]]
        for name, entry in payload["workloads"].items():
            assert entry["correct"] is True, name
            assert entry["attempted"] > 0 and entry["failed"] == 0, name

    def test_carries_exactly_the_declared_metrics(self, payload, declared):
        for name, entry in payload["workloads"].items():
            for group in ("end_to_end", "per_layer"):
                assert set(entry[group]) == \
                    {metric["name"] for metric in declared[group]}, \
                    (name, group)
                assert all(isinstance(value, (int, float))
                           for value in entry[group].values()), (name, group)

    def test_simulated_metrics_are_the_pinned_runs(self, payload):
        assert set(payload["workloads"]) == set(self.SIMULATED)
        for name, pinned in self.SIMULATED.items():
            metrics = payload["workloads"][name]["end_to_end"]
            assert (metrics["sim_ops_per_s"], metrics["sim_p50_ms"],
                    metrics["sim_p99_ms"]) == pinned, name


class TestIntegerTimeStaysOneDesign:
    """Simulated time is integer ticks with one ledger: the bookkeeping
    that float time needed must not grow back outside ``simclock.py``."""

    @pytest.fixture(scope="class")
    def sources(self) -> dict:
        return {path.relative_to(SRC_ROOT).as_posix():
                path.read_text(encoding="utf-8")
                for path in sorted((SRC_ROOT / "repro").rglob("*.py"))}

    def test_ledger_internals_stay_inside_simclock(self, sources):
        import re

        # ``_cells`` as a name of its own (not inside ``header_cells``).
        words = re.compile(r"(?<![A-Za-z0-9])_cells\b|_mirror_stats")
        offenders = [
            f"{name}: {match.group()}"
            for name, text in sources.items() if name != "repro/simclock.py"
            for match in words.finditer(text)]
        assert not offenders, \
            f"charge sites reach into the clock's ledger: {offenders}"
        assert "_mirror_stats" not in sources["repro/simclock.py"]

    #: Retired machinery that no structural guard would catch coming
    #: back: every operation has one implementation (ROADMAP item 1).  The
    #: reference-path flags themselves are gone from this list: any flag
    #: is a module-level boolean or an environment read, which
    #: ``TestOnePathPerOperation`` refuses whatever its name, and so is a
    #: clock compared with ``None`` or defaulting to it.
    RETIRED = ("_point_select", "_AutoTxn", "_audit_batched", "post_group",
               # Per-block payloads (spelt as calls: ``write_blocked`` is a
               # different word): file bytes live once, on the inode.
               "read_blocks", ".read_block(", ".write_block(",
               # Experiments are declared once and run by one runner; the
               # closed-loop sweeps have one driver and one spelling.
               "PROFILE_SNAPSHOT", "step_hook", "run_session_sweep",
               "run_client_sweep", "run_read_sweep", "SMOKE_PARAMS",
               "LARGE_PARAMS", "SCALE_PARAMS", "sweep_admission_limit",
               "sweep_think_s", "client_think_s", "client_domain_pool",
               "_NO_WINDOW",
               # The log links a transaction's records (``LogRecord.prev``);
               # it indexes no transaction past its outcome record.
               "_by_txn")

    def test_retired_flags_and_twins_stay_gone(self, sources):
        offenders = [f"{name}: {word}" for name, text in sources.items()
                     for word in self.RETIRED if word in text]
        assert not offenders, f"a retired path grew back: {offenders}"

    def test_no_hand_rolled_ledger_block_at_a_charge_site(self, sources):
        """The old inline site was ``try: cell = cells[key]; cell[0] += 1
        ... except KeyError: cells[key] = [1, amount]``.  A site is now a
        clock advance plus one meter bump; ledger storage is requested
        from ``ClockStats`` (``cell`` / ``meter``), never built in place."""

        import re

        block = re.compile(
            r"try:\n\s+\w+ = \w+\[[^\]]+\]\n\s+\w+\[0\] \+= [^\n]+\n"
            r"(?:\s+\w+\[1\] \+= [^\n]+\n)?\s*except KeyError:\n"
            r"\s+\w+\[[^\]]+\] = \[")
        offenders = [name for name, text in sources.items()
                     if name != "repro/simclock.py" and block.search(text)]
        assert not offenders, \
            f"a try/except KeyError ledger block grew back in {offenders}"

    def test_every_clock_value_and_ledger_total_is_an_int(self):
        from repro.simclock import ClockDomainGroup

        groups = []
        original = ClockDomainGroup.__init__

        def recording(self, *args, **kwargs):
            original(self, *args, **kwargs)
            groups.append(self)

        ClockDomainGroup.__init__ = recording
        try:
            run_experiment("E12", "smoke")
        finally:
            ClockDomainGroup.__init__ = original
        domains = [domain for group in groups
                   for domain in group.domains.values()]
        assert len(domains) > 3
        charged = 0
        for group in groups:
            assert type(group.ticks) is int
            for domain in group.domains.values():
                assert type(domain.ticks) is int, domain.name
                for label, (count, ticks) in domain.stats.ledger().items():
                    assert type(count) is int and type(ticks) is int, label
                    charged += count
            for count, ticks in group.stats.ledger().values():
                assert type(count) is int and type(ticks) is int
        assert charged > 100


class TestOnePathPerOperation:
    """No switch selects between two implementations of one operation.
    Structural, not a list of names: whatever a future flag is called, a
    module-level boolean constant or an environment read is what it would
    have to be made of."""

    def test_no_module_level_boolean_and_no_environment_read(self):
        import ast

        switches, env_reads = [], []
        for path in sorted((SRC_ROOT / "repro").rglob("*.py")):
            name = path.relative_to(SRC_ROOT).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign):
                    targets, value = [node.target], node.value
                else:
                    continue
                if isinstance(value, ast.Constant) \
                        and isinstance(value.value, bool):
                    switches += [f"{name}:{node.lineno} {target.id}"
                                 for target in targets
                                 if isinstance(target, ast.Name)
                                 and target.id.isupper()]
            for node in ast.walk(tree):
                word = node.attr if isinstance(node, ast.Attribute) \
                    else node.id if isinstance(node, ast.Name) \
                    else node.name if isinstance(node, ast.alias) else None
                if word in ("environ", "environb", "getenv"):
                    env_reads.append(f"{name}:{getattr(node, 'lineno', 0)}")
        assert not switches, f"module-level on/off switch: {switches}"
        assert not env_reads, f"environment read under src/: {env_reads}"

    #: The four "``None`` means the host clock" defaults: each resolves to
    #: a real clock on its first line and has both values in use (client
    #: domains in E9 / E11 / E12, co-located sessions everywhere else).
    HOST_CLOCK_DEFAULTS = {
        ("repro/api/session.py", "synced_lfs"),
        ("repro/api/session.py", "__init__"),
        ("repro/api/system.py", "session"),
        ("repro/datalinks/sharding.py", "session"),
    }

    def test_no_component_has_a_clockless_twin(self):
        """A constructor-level switch is still a switch: no comparison of
        a clock (a name or attribute ending in ``clock``) with ``None``
        and no ``clock=None`` parameter default under ``src/repro/``,
        outside the four host-clock defaults."""

        import ast

        def is_none(node) -> bool:
            return isinstance(node, ast.Constant) and node.value is None

        def is_clock(node) -> bool:
            word = node.id if isinstance(node, ast.Name) \
                else node.attr if isinstance(node, ast.Attribute) else ""
            return word.endswith("clock")

        comparisons, defaults = [], []
        for path in sorted((SRC_ROOT / "repro").rglob("*.py")):
            name = path.relative_to(SRC_ROOT).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"))
            functions = [node for node in ast.walk(tree) if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef))]
            allowed = set()
            for function in functions:
                spec = function.args
                positional = spec.posonlyargs + spec.args
                pairs = list(zip(positional[len(positional)
                                            - len(spec.defaults):],
                                 spec.defaults))
                pairs += [(arg, default) for arg, default in zip(
                    spec.kwonlyargs, spec.kw_defaults) if default is not None]
                optional = [arg.arg for arg, default in pairs
                            if arg.arg.endswith("clock") and is_none(default)]
                if not optional:
                    continue
                if (name, function.name) in self.HOST_CLOCK_DEFAULTS:
                    allowed.update(ast.walk(function))
                else:
                    defaults += [f"{name}:{function.lineno} "
                                 f"{function.name}({arg}=None)"
                                 for arg in optional]
            for node in ast.walk(tree):
                if isinstance(node, ast.AnnAssign) and is_clock(node.target) \
                        and is_none(node.value):        # a dataclass field
                    defaults.append(f"{name}:{node.lineno} "
                                    f"{ast.unparse(node.target)} = None")
                if node in allowed or not isinstance(node, ast.Compare) \
                        or not isinstance(node.ops[0], (ast.Is, ast.IsNot)):
                    continue
                left, right = node.left, node.comparators[0]
                if (is_none(right) and is_clock(left)) \
                        or (is_none(left) and is_clock(right)):
                    comparisons.append(
                        f"{name}:{node.lineno} {ast.unparse(node)}")
        assert not defaults, f"a clock may not default to None: {defaults}"
        assert not comparisons, \
            f"a clockless twin of a charge site: {comparisons}"

    def test_the_bench_builds_systems_in_one_place_and_patches_no_module(self):
        """Under ``src/repro/bench/`` exactly one function constructs a
        ``DataLinksSystem`` (the runner context's ``build_host`` -- the
        injection point for a cost model), and no module assigns an
        attribute on another imported module (a harness-to-experiments
        global by another name)."""

        import ast

        builders, patches = [], []
        for path in sorted((SRC_ROOT / "repro" / "bench").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    imported.update((alias.asname or alias.name).split(".")[0]
                                    for alias in node.names)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    builders += [
                        f"{path.name}:{node.name}" for call in ast.walk(node)
                        if isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id == "DataLinksSystem"]
            for node in ast.walk(tree):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target] if isinstance(
                        node, (ast.AugAssign, ast.AnnAssign)) else []
                patches += [
                    f"{path.name}:{node.lineno} {target.value.id}.{target.attr}"
                    for target in targets
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in imported]
        assert builders == ["runner.py:build_host"], builders
        assert not patches, f"a module global set from outside: {patches}"

    def test_the_message_envelope_module_is_gone(self):
        import importlib.util

        assert importlib.util.find_spec("repro.ipc.message") is None

    def test_the_layered_benchmark_is_the_only_one_under_benchmarks(self):
        stray = [path.relative_to(REPO_ROOT).as_posix()
                 for path in (REPO_ROOT / "benchmarks").rglob("*.py")
                 if "layered" not in path.relative_to(REPO_ROOT).parts]
        assert not stray, f"a second bench harness grew back: {stray}"


class TestTheLogKeepsItsOwnState:
    """Only ``storage/wal.py`` reads or writes a log's private state: once
    the log folds, its retained list, flush count and open-transaction
    table are positions behind a fold offset, and a caller that indexes
    them directly (the follower-read gate did, ``wal._records[-1]``) reads
    the wrong thing or fails on an empty retained list."""

    PRIVATE = {"_records", "_flushed_count", "_open", "_next_lsn"}

    def test_no_module_outside_the_wal_touches_its_private_state(self):
        import ast

        offenders = []
        for path in sorted((SRC_ROOT / "repro").rglob("*.py")):
            name = path.relative_to(SRC_ROOT).as_posix()
            if name == "repro/storage/wal.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) \
                        and node.attr in self.PRIVATE:
                    offenders.append(f"{name}:{node.lineno} .{node.attr}")
        assert not offenders, f"the log's private state read from outside: " \
                              f"{offenders}"


class TestNothingRebuiltPerRead:
    """Per-operation code builds only what is per-operation: the value
    objects are tuples, the clock bracket is a class, and the read path
    runs no ``import`` statement."""

    def test_the_clock_bracket_is_a_class_not_a_generator(self):
        import inspect

        from repro import simclock

        assert inspect.isclass(simclock.synchronized_call)
        assert not inspect.isgeneratorfunction(simclock.synchronized_call)
        clock = simclock.SimClock()
        assert "__dict__" not in dir(simclock.synchronized_call(clock, clock))
        assert not inspect.isgeneratorfunction(simclock.SimClock.overlap)

    def test_the_value_objects_are_tuples(self):
        from repro.datalinks.tokens import AccessToken
        from repro.fs.inode import FileAttributes
        from repro.fs.vfs import Vnode
        from repro.util.urls import DatalinkURL

        for cls in (FileAttributes, Vnode, DatalinkURL, AccessToken):
            assert issubclass(cls, tuple), cls
            assert cls.__slots__ == (), cls

    #: Functions every read runs: ``{file: {(class or None, function)}}``.
    READ_PATH = {
        "repro/api/session.py": {
            ("Session", "read_url"), ("Session", "_route_url"),
            ("Session", "_server_of"), ("Session", "get_datalink"),
            ("Session", "get_datalink_many")},
        "repro/datalinks/uip.py": {
            (None, "tokenized_path"), (None, "open_for_read")},
        "repro/fs/logical.py": {(None, "_normalize_path_for_table")},
    }

    def test_no_import_statement_on_the_read_path(self):
        import ast

        for relpath, wanted in self.READ_PATH.items():
            tree = ast.parse((SRC_ROOT / relpath).read_text(encoding="utf-8"))
            scopes = [(None, tree)] + [
                (node.name, node) for node in tree.body
                if isinstance(node, ast.ClassDef)]
            found = set()
            for owner, scope in scopes:
                for node in scope.body:
                    if not isinstance(node, ast.FunctionDef) \
                            or (owner, node.name) not in wanted:
                        continue
                    found.add((owner, node.name))
                    imports = [inner.lineno for inner in ast.walk(node)
                               if isinstance(inner, (ast.Import,
                                                     ast.ImportFrom))]
                    assert not imports, (
                        f"{relpath}: {node.name} runs an import statement "
                        f"per call (line {imports})")
            assert found == wanted, f"{relpath}: missing {wanted - found}"


class TestFileBytesAreStoredOnce:
    """A file's content is one immutable ``bytes`` on its inode, shared with
    the archive and the mirrors: the file-system layers hold no second copy
    and no zero-filled block payload can come back."""

    FILES, SIZE = 200, 4100

    def test_staging_linking_and_archiving_copies_no_content(self):
        import os
        import tracemalloc

        from repro.datalinks.control_modes import ControlMode
        from tests.conftest import FILES_TABLE, build_system

        system, alice, _, _ = build_system(ControlMode.RFF, files=0)
        contents = [os.urandom(self.SIZE) for _ in range(self.FILES)]
        tracemalloc.start()
        try:
            for index, content in enumerate(contents):
                url = alice.put_file("fs1", f"/docs/doc{index}.dat", content)
                alice.insert(FILES_TABLE, {"doc_id": index, "body": url})
            assert system.run_archiver() == self.FILES
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(stat.size for stat in snapshot.filter_traces([
            tracemalloc.Filter(True, "*/repro/fs/*"),
            tracemalloc.Filter(True, "*/repro/datalinks/dlfm/archive.py"),
        ]).statistics("filename"))
        assert len(system.archive) == self.FILES
        assert held < 0.5 * self.FILES * self.SIZE, \
            (f"fs/ + dlfm/archive.py hold {held} B for "
             f"{self.FILES * self.SIZE} B of content the caller keeps alive")

    def test_nothing_under_fs_builds_a_block_sized_buffer(self):
        import ast

        offenders = []
        for path in sorted((SRC_ROOT / "repro" / "fs").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in ("bytes", "bytearray")):
                    continue
                words = {getattr(inner, "attr", None) or
                         getattr(inner, "id", None)
                         for arg in node.args for inner in ast.walk(arg)}
                if "block_size" in words:
                    offenders.append(f"{path.name}:{node.lineno}")
        assert not offenders, \
            f"a zero-filled block payload grew back: {offenders}"
