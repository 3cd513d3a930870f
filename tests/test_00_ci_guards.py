"""Tier-1 fail-fast guards: sources must compile, the artifact must parse.

Named ``test_00_*`` so pytest's alphabetical collection runs this module
first: under ``-x`` a syntax error anywhere beneath ``src/`` or a
malformed committed ``BENCH_smoke.json`` aborts the run immediately,
before the functional suites spend minutes re-running workloads against a
baseline that was never going to load.  This is the test-suite face of the
CI entrypoint's ``python -m compileall src`` + artifact-shape check.
"""

from __future__ import annotations

import ast
import compileall
import json
import re
from pathlib import Path

import pytest

from repro.bench.claims import CLAIMS, Status
from repro.bench.runner import EXPERIMENTS, run_experiment

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
COMMITTED_ARTIFACT = REPO_ROOT / "BENCH_smoke.json"
LARGE_ARTIFACT = REPO_ROOT / "BENCH_large.json"
LAYERED_ARTIFACT = REPO_ROOT / "BENCH_layered.json"
#: This file, as ``scanned`` names it: the tables of retired names live here.
OWN_MODULE = "tests/test_00_ci_guards.py"

#: The large tier's budgets, checked against the *committed* artifact
#: (cheap -- no workload runs here; the gated suite in
#: ``test_bench_artifact.py`` re-runs the tier for real).  Its capacity
#: floor is claim E14.f.
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


@pytest.fixture(scope="module")
def scanned() -> dict:
    """Every Python file under ``src/``, ``tests/``, ``examples/`` and
    ``tools/``, read once for the text and AST guards: ``{"<top>/<path>.py":
    text}``, in path order."""

    return {path.relative_to(REPO_ROOT).as_posix():
            path.read_text(encoding="utf-8")
            for top in ("src", "tests", "examples", "tools")
            for path in sorted((REPO_ROOT / top).rglob("*.py"))}


def test_every_source_file_compiles():
    """``python -m compileall src``: no syntax error hides behind an
    untested import path."""

    assert compileall.compile_dir(str(SRC_ROOT), quiet=2, force=False), \
        "a file under src/ failed to byte-compile (syntax error)"


def _load(artifact: Path) -> dict:
    if not artifact.exists():
        pytest.skip(f"no committed {artifact.name} in this checkout")
    with open(artifact, "r", encoding="utf-8") as stream:
        return json.load(stream)


class TestCommittedArtifactShape:
    """The committed BENCH_smoke.json and BENCH_large.json must be loadable
    and well-formed *before* the suites that treat them as their golden
    baseline run."""

    @pytest.fixture(scope="class", params=["smoke", "large"])
    def tier(self, request) -> tuple:
        artifact = {"smoke": COMMITTED_ARTIFACT, "large": LARGE_ARTIFACT}
        return request.param, _load(artifact[request.param])

    def test_top_level_shape(self, tier):
        scale, payload = tier
        assert payload.get("mode") == scale
        assert isinstance(payload.get("experiments"), dict)
        summary = payload.get("wall_clock")
        assert isinstance(summary, dict)
        assert isinstance(summary.get("total_s"), (int, float))
        assert summary["total_s"] > 0

    def test_covers_every_experiment_of_its_tier(self, tier):
        scale, payload = tier
        assert set(payload["experiments"]) == {
            name for name, spec in EXPERIMENTS.items() if scale in spec.tiers}

    def test_entries_are_well_formed(self, tier):
        for name, entry in tier[1]["experiments"].items():
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

    def test_sweeps_stay_under_the_admission_ceiling(self, tier):
        assert_sweeps_obey_the_admission_ceiling(tier[1], tier[0])


class TestCommittedLargeArtifactShape:
    """The committed BENCH_large.json (the million-link capacity tier)
    stays within its budgets."""

    @pytest.fixture(scope="class")
    def payload(self) -> dict:
        return _load(LARGE_ARTIFACT)

    def test_e14_fits_the_wall_budget(self, payload):
        """E14-large fits the 60 s wall budget (worst committed best-of
        sample, so re-timing noise is already priced in)."""

        entry = payload["experiments"]["E14"]
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


class TestOneClaimList:
    """The paper's claims are one list, and each entry is grounded in the
    declaration of the experiment that answers it."""

    def test_every_claim_quotes_its_experiment_within_its_tiers(self):
        ids = [claim.id for claim in CLAIMS]
        assert len(ids) == len(set(ids)), "claim ids repeat"
        assert {claim.experiment_id for claim in CLAIMS} == set(EXPERIMENTS)
        for claim in CLAIMS:
            spec = EXPERIMENTS[claim.experiment_id]
            assert claim.quote in spec.paper_claim + "\n" + spec.notes, \
                f"{claim.id} quotes words its experiment does not say"
            assert claim.tiers and set(claim.tiers) <= set(spec.tiers), \
                f"{claim.id} names a tier {claim.experiment_id} lacks"

    def test_every_reason_explains_a_shortfall(self):
        for claim in CLAIMS:
            assert Status.REPRODUCED not in claim.reasons, claim.id
            assert all(claim.reasons.values()), claim.id
        interpreted = {claim.experiment_id for claim in CLAIMS
                       if claim.interpreted}
        assert {"E2", "E4"} <= interpreted


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

    #: ``(sim_ops_per_s, sim_p50_ms, sim_p99_ms)`` at seed 42; digests
    #: 631e333f3d240653 / e4bf3d56d9ca89cf / d93ec392bd489c4e /
    #: d4f365138df588ab in this order.  The archiver's fan-out across
    #: file servers moved web_rfd, edit_uip and cluster_hotspot (their
    #: archiver runs inside the window) and session_knee's digest, not
    #: its metrics (its archiver runs before the window opens).  The
    #: replica-copy fan-out moved cluster_hotspot only (was
    #: 62c13189c841d91c; its put_file waits for the slowest copy).  The
    #: deployment's token cache moved cluster_hotspot only (was
    #: 79599646a079c381; its per-round handout reuses live tokens): its
    #: window shrank by the handout's shrink, and every read latency is
    #: the same in ticks (p50 differs in its last float digits only,
    #: because it is a difference of two clock readings taken earlier).
    #: Lazy soft-state WAL shipping moved cluster_hotspot only (was
    #: 5e6c59be096e1d22; its witness reads stop queueing behind token and
    #: Sync shipments, so p99 fell from 16.131 ms).  The per-node soft
    #: store with the token upsert moved all four (were 2ddf3c5d28f02f48 /
    #: d1de8dcf079053ca / 7d29d3698dd4cc7c / 82752c65ab70cccc): a
    #: tokenized open no longer writes, locks or forces the repository, so
    #: reads and updates both got cheaper.  web_rfd's reads are untouched
    #: (an rfd read makes no upcall): its p50 and p99 are the same to the
    #: last digit, and only its updates moved.  The one-round-trip close
    #: with its archive job (and an rfd file's hand-back) in the branch,
    #: and the archiver's one local transaction per job, moved all four
    #: (were b35df5aa0f8f41c1 / 932fe3ce13c38cea / 935dd7bebef8f1f3 /
    #: a4e7e29b9ccfc683): edit_uip's updates got cheaper; web_rfd's and
    #: session_knee's sim_* latencies are the same to the last digit.  The
    #: link's archive job, written in its branch (no BEGIN and log force of
    #: its own), moved all four (were ba883e225c2fcf61 / 501a0028fd6ac550 /
    #: 202307cda375580b / a1c922aa4b256482): set-up ends earlier, so
    #: edit_uip's metrics and cluster_hotspot's p99 differ in their last
    #: float digits only (at most 5.3e-13 relative), cluster_hotspot's
    #: window shrank (sim_ops_per_s was 127.58070608877907), and web_rfd's
    #: and session_knee's are the same to the last digit.  The archiver's
    #: one transfer in flight per file server moved all four (were
    #: e8f048b092f0450b / 4008e9df7a67ce48 / e41c88209deca420 /
    #: 1d42ae5d771fba26): every set-up archiver run ends earlier, but
    #: web_rfd's, session_knee's and edit_uip's sim_* metrics are the same
    #: to the last digit; cluster_hotspot's window shrank (sim_ops_per_s
    #: was 127.62304788907504) and its p99 differs in its last float digits
    #: only (3.4e-13 relative; every read latency is the same in ticks).
    #: The admission statement and the read close that names its path
    #: moved all four (were 1b26f3b38bddb33f / 7f323302422f2f45 /
    #: f4f1478d8c8aca37 / 3366bfd64cdbc868): a tokenized read charges
    #: six DLFM statements instead of eight and a write open one soft
    #: statement instead of three; web_rfd's p50 and p99 are the same to
    #: the last digit (an rfd read makes no upcall), only its updates and
    #: so its sim_ops_per_s moved.  A file put as a send, with the link as
    #: its barrier, moved all four (were 4accd26972ac229f /
    #: 03eec5ff84d1ec43 / e773a72fe00ed1e7 / 4aa51fe890d0380f): set-up
    #: timing moved, the first three workloads' sim_* metrics and
    #: cluster_hotspot's p50 and p99 are the same to the last digit, and
    #: cluster_hotspot's ingest client stops waiting for its copies
    #: (sim_ops_per_s was 128.68228675190406).  DLFS's upcalls carrying
    #: the attributes it read, one path walk per archive job and the
    #: causal hand-off copy moved all four (were 533f239d1a7a76ed /
    #: 4ea2fa5b2b66f24e / a4de0fc294ef2ed3 / 7be010cbc3b81733): an update
    #: walks no path at its open, its close or its archive job;
    #: session_knee's sim_* metrics and web_rfd's and cluster_hotspot's
    #: p50 and p99 are the same to the last digit, and sim_ops_per_s was
    #: 85.3728670240611 / 51.32023380508916 / 140.90433295417185 for
    #: web_rfd / edit_uip / cluster_hotspot (edit_uip's p50 and p99 were
    #: 27.083370774001025 and 27.13469752499975).  A hand-off export that
    #: gives nothing back on its source witnesses moved cluster_hotspot
    #: only (was cd99586f8f9f34b6): the witnesses' clocks run less, its p50
    #: and p99 are the same to the last digit, and sim_ops_per_s was
    #: 141.00175198142784.  A version row written during its transfer, a
    #: write close that reads no tracking row back and a replace that
    #: skips its fstat after a truncating open moved all four (were
    #: fd2538f47eadea87 / cfe23669ebe747e8 / d0a36a73daddb672 /
    #: 2347c70267aab08e): every set-up archiver run ends earlier;
    #: session_knee's sim_* metrics, cluster_hotspot's p50 and p99 and
    #: web_rfd's p50 and p99 are the same to the last digit, web_rfd's
    #: sim_ops_per_s was 85.4523859595603 (its updates), cluster_hotspot's
    #: 141.11435725378345 (its archiver runs inside the window) and
    #: edit_uip's sim_* were 52.04992045324173 / 26.53837077399146 /
    #: 26.589697525011502.
    SIMULATED = {
        "web_rfd": (85.5147915225278, 11.292711182022686,
                    11.349244995017216),
        "session_knee": (62.81117134924346, 46738.171172795,
                         48214.985881357),
        "edit_uip": (52.63483335609756, 26.111370773989506,
                     26.16269752500955),
        "cluster_hotspot": (141.12563433932016, 10.348802795000722,
                            10.356241454999804),
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
    def sources(self, scanned) -> dict:
        return {module[len("src/"):]: text for module, text in scanned.items()
                if module.startswith("src/repro/")}

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

    def test_every_client_gets_its_own_domain(self):
        """No pooling knob: a client count is a domain count."""

        import inspect

        from repro.api.system import DataLinksSystem
        from repro.simclock import ClockDomainGroup
        from repro.workloads.clients import ClientPool

        for function in (ClientPool.__init__, DataLinksSystem.client_domains,
                         ClockDomainGroup.session_domains):
            assert "limit" not in inspect.signature(function).parameters, \
                function.__qualname__

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


class TestOneLedgerWindow:
    """What work charged is read off one window
    (:meth:`~repro.simclock.ClockDomainGroup.window`,
    :meth:`~repro.simclock.SimClock.window`): no function under ``src/``,
    ``tests/``, ``tools/`` or ``examples/`` outside ``simclock.py`` takes
    two ``.ledger()`` snapshots of one receiver to diff them by hand.  The
    helpers the window replaced are retired names
    (:class:`TestRetiredNamesStayGone`)."""

    @staticmethod
    def offenders(module: str, text: str) -> list:
        found = []
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                receivers = [ast.dump(call.func.value)
                             for call in ast.walk(node)
                             if isinstance(call, ast.Call)
                             and getattr(call.func, "attr", None) == "ledger"]
                if len(receivers) > len(set(receivers)):
                    found.append(f"{module}:{node.lineno} {node.name}")
        return found

    def test_no_function_diffs_two_ledger_snapshots(self, scanned):
        offenders = [found for module, text in scanned.items()
                     if module != "src/repro/simclock.py"
                     and text.count(".ledger()") > 1
                     for found in self.offenders(module, text)]
        assert not offenders, f"a hand-written ledger diff: {offenders}"

    #: The diffs the window replaced, as they stood in the tree.  Each must
    #: be flagged.
    DIFF_SHAPES = {
        "measured": """
            def measured(deployment, caller, nodes, work):
                deployment.clocks.barrier()
                start = caller.ticks
                before = deployment.clocks.stats.ledger()
                work()
                branches = {node.name: node.clock.ticks - start
                            for node in nodes}
                return (caller.ticks - start, branches,
                        ledger_delta(before, deployment.clocks.stats.ledger()))
            """,
        "per-domain diff": """
            def _delete(self, wheres):
                before = {name: domain.stats.ledger()
                          for name, domain in domains.items()}
                run(wheres)
                return {name: {label: (count - before[name][label][0],
                                       ticks - before[name][label][1])
                               for label, (count, ticks)
                               in domain.stats.ledger().items()}
                        for name, domain in domains.items()}
            """,
    }

    @pytest.mark.parametrize("shape", sorted(DIFF_SHAPES))
    def test_the_guard_flags_a_hand_written_diff(self, shape):
        import textwrap

        source = textwrap.dedent(self.DIFF_SHAPES[shape])
        assert self.offenders("tests/planted.py", source), shape


class TestOnePathPerOperation:
    """No switch selects between two implementations of one operation.
    Structural, not a list of names: whatever a future flag is called, a
    module-level boolean constant or an environment read is what it would
    have to be made of."""

    def test_no_module_level_boolean_and_no_environment_read(self, trees):
        switches, env_reads = [], []
        for name, tree in trees.items():
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

    def test_no_component_has_a_clockless_twin(self, trees):
        """A constructor-level switch is still a switch: no comparison of
        a clock (a name or attribute ending in ``clock``) with ``None``
        and no ``clock=None`` parameter default under ``src/repro/``,
        outside the four host-clock defaults."""

        def is_none(node) -> bool:
            return isinstance(node, ast.Constant) and node.value is None

        def is_clock(node) -> bool:
            word = node.id if isinstance(node, ast.Name) \
                else node.attr if isinstance(node, ast.Attribute) else ""
            return word.endswith("clock")

        comparisons, defaults = [], []
        for name, tree in trees.items():
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

    def test_the_bench_builds_systems_in_one_place_and_patches_no_module(
            self, trees):
        """Under ``src/repro/bench/`` exactly one function constructs a
        ``DataLinksSystem`` (the runner context's ``build_host`` -- the
        injection point for a cost model), and no module assigns an
        attribute on another imported module (a harness-to-experiments
        global by another name)."""

        builders, patches = [], []
        for name, tree in trees.items():
            if not name.startswith("repro/bench/"):
                continue
            filename = name.rpartition("/")[2]
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    imported.update((alias.asname or alias.name).split(".")[0]
                                    for alias in node.names)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    builders += [
                        f"{filename}:{node.name}" for call in ast.walk(node)
                        if isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id == "DataLinksSystem"]
            for node in ast.walk(tree):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target] if isinstance(
                        node, (ast.AugAssign, ast.AnnAssign)) else []
                patches += [
                    f"{filename}:{node.lineno} {target.value.id}.{target.attr}"
                    for target in targets
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in imported]
        assert builders == ["runner.py:build_host"], builders
        assert not patches, f"a module global set from outside: {patches}"

    def test_one_token_handout(self, trees):
        """``DataLinksEngine.get_datalink`` is ``get_datalink_many`` of one
        ``where`` and calls nothing else: the set-oriented handout stays
        the only one."""

        engine = next(node for node in trees["repro/datalinks/engine.py"].body
                      if isinstance(node, ast.ClassDef)
                      and node.name == "DataLinksEngine")
        method = next(node for node in engine.body
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "get_datalink")
        called = {call.func.attr if isinstance(call.func, ast.Attribute)
                  else ast.unparse(call.func)
                  for call in ast.walk(method) if isinstance(call, ast.Call)}
        assert called == {"get_datalink_many"}, called

    def test_the_message_envelope_module_is_gone(self):
        import importlib.util

        assert importlib.util.find_spec("repro.ipc.message") is None

    def test_the_layered_benchmark_is_the_only_one_under_benchmarks(self):
        stray = [path.relative_to(REPO_ROOT).as_posix()
                 for path in (REPO_ROOT / "benchmarks").rglob("*.py")
                 if "layered" not in path.relative_to(REPO_ROOT).parts]
        assert not stray, f"a second bench harness grew back: {stray}"


class TestOneScheduler:
    """Work on several nodes overlaps in simulated time, through one
    scheduler: :func:`repro.simclock.interleave` runs every set of
    concurrent actors, and no loop waits for one node after another.

    The guard is one rule over every module of ``src/repro/``: a loop
    (``for``, ``while`` or a comprehension) issues no cross-domain call
    (``synchronized_call``, ``_at_server``, ``mirror_file``) unless the
    loop runs inside a ``with <clock>.overlap():`` or ``with
    <clock>.posted():`` body, where every iteration leaves at the window's
    start, or yields, which makes it an actor that ``interleave`` steps.
    In the replica copy paths the serving write and the mirrors also
    leave in one window: every copy call there is inside a window body,
    loop or not."""

    CROSS_DOMAIN = {"synchronized_call", "_at_server", "mirror_file"}
    COPY_CALLS = {"synchronized_call", "put_file", "mirror_file"}
    COPY_PATHS = {"repro/datalinks/sharding.py": {"put_file"},
                  "repro/datalinks/replication.py": {"mirror_file",
                                                     "receive_file"},
                  "repro/datalinks/placement.py": {"sweep_moved_prefix"}}
    LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp)

    @classmethod
    def serial_calls(cls, module: str, tree) -> tuple:
        """``(offenders, copy paths that issue a copy)`` of one module."""

        copy_paths = cls.COPY_PATHS.get(module, set())
        offenders, seen = [], set()

        def is_overlap(item) -> bool:
            call = item.context_expr
            return isinstance(call, ast.Call) and \
                isinstance(call.func, ast.Attribute) and \
                call.func.attr in ("overlap", "posted")

        def visit(node, overlapped, serial, copy_path):
            if isinstance(node, ast.Call):
                func = node.func
                word = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", None)
                if serial and word in cls.CROSS_DOMAIN:
                    offenders.append(f"{module}:{node.lineno} {word} "
                                     f"in a serial loop")
                if copy_path and word in cls.COPY_CALLS:
                    seen.add(copy_path)
                    if not overlapped:
                        offenders.append(f"{module}:{node.lineno} {word} "
                                         f"outside an overlap window")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                overlapped = serial = False
                name = getattr(node, "name", None)
                copy_path = name if name in copy_paths else copy_path
            window = isinstance(node, ast.With) \
                and any(is_overlap(item) for item in node.items)
            loop = isinstance(node, cls.LOOPS)
            if loop:    # an actor's loop yields between its calls
                repeated = not overlapped and not any(
                    isinstance(step, (ast.Yield, ast.YieldFrom))
                    for step in ast.walk(node))
            for field, value in ast.iter_fields(node):
                inner = overlapped, serial
                if window and field == "body":
                    inner = True, serial
                elif loop and field in ("body", "test", "elt", "key",
                                        "value"):
                    inner = overlapped, repeated
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, ast.AST):
                        visit(child, *inner, copy_path)

        visit(tree, False, False, None)
        return offenders, seen

    def test_no_loop_waits_for_one_node_after_another(self, trees):
        offenders, seen = [], set()
        for module, tree in trees.items():
            found, copy_paths = self.serial_calls(module, tree)
            offenders += found
            seen |= copy_paths
        assert seen == set().union(*self.COPY_PATHS.values()), seen
        assert not offenders, f"a serial cross-domain call: {offenders}"
        heaps = [module for module, tree in trees.items()
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and "heapq" in ([alias.name for alias in node.names]
                                 if isinstance(node, ast.Import)
                                 else [node.module])]
        # The admission gate's slot heap is a queue, not a scheduler.
        assert heaps == ["repro/api/admission.py", "repro/simclock.py"], \
            f"a second earliest-clock-first loop: {heaps}"

    #: The serial shapes this guard replaced, as they stood in the tree:
    #: ``{shape: (module, source)}``.  Each must be flagged.
    SERIAL_SHAPES = {
        "run_archiver": ("repro/api/system.py", """
            def run_archiver(self):
                jobs = 0
                for server in self.file_servers.values():
                    with self._at_server(server):
                        jobs += server.process_archive_jobs()
                return jobs
            """),
        "run_housekeeping": ("repro/api/system.py", """
            def run_housekeeping(self):
                results = {}
                for name, server in sorted(self.file_servers.items()):
                    with self._at_server(server):
                        results[name] = server.dlfm.run_housekeeping()
                return results
            """),
        "witness mirror": ("repro/datalinks/replication.py", """
            def mirror_file(self, path, content, uid, gid):
                for node_name in list(self._streams):
                    node = self.nodes[node_name]
                    if not node.running:
                        self.mirror_misses += 1
                        continue
                    with synchronized_call(self.clock, node.clock):
                        self._copy_below_dlfs(node, path, content, uid, gid)
            """),
        "source sweep": ("repro/datalinks/placement.py", """
            def sweep_moved_prefix(deployment, prefix):
                swept = 0
                for node in source_nodes:
                    with synchronized_call(deployment.clock, node.clock):
                        for path in entry["paths"]:
                            if node.files.exists(path):
                                node.files.unlink(path)
                                swept += 1
                return swept
            """),
        "serving write, then mirror": ("repro/datalinks/sharding.py", """
            def put_file(self, session, path, content):
                shard = self.shard_of(path)
                serving = self.router.route_write(shard)
                self.router.note_write(path)
                session.put_file(serving.name, path, content)
                replica = self.replicas.get(shard)
                if replica is not None:
                    replica.mirror_file(path, content, session.cred.uid,
                                        session.cred.gid)
                return format_url(shard, path)
            """),
        "mirror after the send window": ("repro/datalinks/sharding.py", """
            def put_file(self, session, path, content):
                clock = session.clock
                with clock.posted():
                    session.put_file(serving.name, path, content)
                replica.mirror_file(clock, path, content, uid, gid)
                return format_url(shard, path)
            """),
    }

    #: A put whose copies all leave in one send window: nothing flagged.
    POSTED_PUT = ("repro/datalinks/sharding.py", """
        def put_file(self, session, path, content):
            clock = session.clock
            with clock.posted():
                session.put_file(serving.name, path, content)
                if replica is not None:
                    clock.charge_run("message_send", replica.mirror_file(
                        clock, path, content, uid, gid))
            return format_url(shard, path)
        """)

    @pytest.mark.parametrize("shape", sorted(SERIAL_SHAPES))
    def test_the_guard_flags_a_serial_shape_it_replaced(self, shape):
        import textwrap

        module, source = self.SERIAL_SHAPES[shape]
        offenders, _ = self.serial_calls(
            module, ast.parse(textwrap.dedent(source)))
        assert offenders, f"the guard misses the serial {shape}"

    def test_the_guard_passes_copies_sent_in_one_send_window(self):
        import textwrap

        module, source = self.POSTED_PUT
        offenders, seen = self.serial_calls(
            module, ast.parse(textwrap.dedent(source)))
        assert (offenders, seen) == ([], {"put_file"})


class TestEveryConfigFieldIsTurned:
    """A config field that no caller sets is a constant in disguise, and
    every option doubles what tests and benchmarks must cover.  Each field
    of a ``*Config`` dataclass anywhere under ``src/repro/`` (the workload
    configs and ``BalancerConfig``) must be set by a caller outside ``tests/``
    (``src/``, ``examples/``, ``benchmarks/``): as a keyword of a call to
    the class, or as a size (any tier) of an experiment that builds the
    class from its ``**sizes``.  A keyword counts through ``**`` of a dict
    literal, of a name bound to one, or of a nested function's
    ``**kwargs`` (then the keywords its callers pass count)."""

    @staticmethod
    def _configs(trees) -> dict:
        import dataclasses
        import importlib

        configs = {}
        for path, tree in trees.items():
            names = [node.name for node in tree.body
                     if isinstance(node, ast.ClassDef)
                     and node.name.endswith("Config")]
            if not names:
                continue
            module = importlib.import_module(path[:-3].replace("/", "."))
            for name in names:
                value = getattr(module, name)
                if dataclasses.is_dataclass(value):
                    configs[name] = [field.name
                                     for field in dataclasses.fields(value)]
        return configs

    @staticmethod
    def _keywords_by_class(tree, classes, sizes: dict) -> dict:
        """``{class: keywords}`` of the calls to *classes* in *tree*."""

        def outermost(node):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield child
                else:
                    yield from outermost(child)

        found: dict = {}
        for scope in outermost(tree):
            nodes = list(ast.walk(scope))
            bound = {node.targets[0].id: node.value for node in nodes
                     if isinstance(node, ast.Assign)
                     and isinstance(node.value, ast.Dict)
                     and len(node.targets) == 1
                     and isinstance(node.targets[0], ast.Name)}
            kwargs_of = {node.args.kwarg.arg: node.name for node in nodes
                         if isinstance(node, (ast.FunctionDef,
                                              ast.AsyncFunctionDef))
                         and node is not scope and node.args.kwarg}
            own = scope.args.kwarg.arg if scope.args.kwarg else None
            calls = [node for node in nodes if isinstance(node, ast.Call)]

            def keywords(call, seen) -> set:
                words = {keyword.arg for keyword in call.keywords
                         if keyword.arg}
                for keyword in call.keywords:
                    if keyword.arg is None:
                        words |= keys(keyword.value, seen)
                return words

            def keys(node, seen) -> set:
                if isinstance(node, ast.Dict):
                    words = set()
                    for key, value in zip(node.keys, node.values):
                        if key is None:
                            words |= keys(value, seen)
                        elif isinstance(key, ast.Constant):
                            words.add(key.value)
                    return words
                if not isinstance(node, ast.Name) or node.id in seen:
                    return set()
                seen = seen | {node.id}
                if node.id in bound:
                    return keys(bound[node.id], seen)
                if node.id == own:
                    return sizes.get(scope.name, set())
                if node.id in kwargs_of:
                    function = kwargs_of[node.id]
                    return set().union(*(
                        keywords(call, seen) for call in calls
                        if isinstance(call.func, ast.Name)
                        and call.func.id == function))
                return set()

            for call in calls:
                name = call.func.id if isinstance(call.func, ast.Name) \
                    else getattr(call.func, "attr", None)
                if name in classes:
                    found.setdefault(name, set()).update(
                        keywords(call, frozenset()))
        return found

    def test_every_field_is_set_by_a_caller_outside_the_tests(self, trees):
        configs = self._configs(trees)
        assert len(configs) == 8, sorted(configs)
        sizes = {spec.run.__name__: {key for tier in spec.tiers
                                     for key in spec.sizes(tier)}
                 for spec in EXPERIMENTS.values()}
        callers = [*trees.values(), *(
            ast.parse(path.read_text(encoding="utf-8"))
            for path in [*sorted((REPO_ROOT / "examples").glob("*.py")),
                         *sorted((REPO_ROOT / "benchmarks").rglob("*.py"))])]
        set_by_callers: dict = {name: set() for name in configs}
        for tree in callers:
            for name, words in self._keywords_by_class(
                    tree, configs, sizes).items():
                set_by_callers[name] |= words
        unset = [f"{name}.{field}" for name, fields in configs.items()
                 for field in fields if field not in set_by_callers[name]]
        assert not unset, \
            f"config fields no caller sets (make them constants): {unset}"


class TestOneFailpointTable:
    """Crash injection is one table and one ``fire``
    (:mod:`repro.util.failpoints`): no component grows its own hook dict,
    no optional table defaults to a private ``{}``, and no firing site
    names a point the registry does not hold."""

    #: Where a ``*failpoints`` attribute may be assigned: the engine owns
    #: the table, a shipper or applier keeps the one it was handed.
    ATTRIBUTE_OWNERS = {("repro/datalinks/engine.py", "failpoints"),
                        ("repro/datalinks/replication.py", "_failpoints")}

    def test_one_fire_one_table_and_only_registered_points(self, trees):
        from repro.util.failpoints import SCOPED, registered

        fires, attributes, parameters, points = [], [], [], []
        for name, tree in trees.items():
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node.name in ("fire", "_fire"):
                        fires.append(f"{name}:{node.name}")
                    spec = node.args
                    positional = spec.posonlyargs + spec.args
                    optional = positional[len(positional) - len(spec.defaults):]
                    optional += [arg for arg, default in zip(
                        spec.kwonlyargs, spec.kw_defaults) if default]
                    parameters += [
                        f"{name}:{node.lineno} {node.name}({arg.arg})"
                        for arg in positional + spec.kwonlyargs
                        if arg.arg.endswith("failpoints")
                        and (arg.arg != "failpoints" or arg in optional)]
                elif isinstance(node, ast.Attribute) \
                        and node.attr.endswith("failpoints") and (
                            node.attr not in ("failpoints", "_failpoints")
                            or isinstance(node.ctx, ast.Store)
                            and (name, node.attr) not in self.ATTRIBUTE_OWNERS):
                    attributes.append(f"{name}:{node.lineno} .{node.attr}")
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Name) \
                        and node.func.id == "fire":
                    point = node.args[1]
                    if not (isinstance(point, ast.Constant)
                            and (point.value in SCOPED if len(node.args) > 2
                                 else registered(point.value))):
                        points.append(f"{name}:{node.lineno} "
                                      f"{ast.unparse(point)}")
        assert fires == ["repro/util/failpoints.py:fire"], fires
        assert not attributes, f"a failpoint table outside the engine: " \
                               f"{attributes}"
        assert not parameters, f"an optional or renamed table: {parameters}"
        assert not points, f"fired at an unregistered point: {points}"


class TestTheLogKeepsItsOwnState:
    """Only ``storage/wal.py`` reads or writes a log's private state: once
    the log folds, its retained list, flush count and open-transaction
    table are positions behind a fold offset, and a caller that indexes
    them directly (the follower-read gate did, ``wal._records[-1]``) reads
    the wrong thing or fails on an empty retained list."""

    PRIVATE = {"_records", "_flushed_count", "_open", "_next_lsn"}

    def test_no_module_outside_the_wal_touches_its_private_state(self, trees):
        offenders = []
        for name, tree in trees.items():
            if name == "repro/storage/wal.py":
                continue
            for node in ast.walk(tree):
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
        "repro/fs/logical.py": {("LogicalFileSystem", "open"),
                                ("LogicalFileSystem", "_resolve_parent")},
    }

    def test_no_import_statement_on_the_read_path(self, trees):
        for relpath, wanted in self.READ_PATH.items():
            tree = trees[relpath]
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

    def test_nothing_under_fs_builds_a_block_sized_buffer(self, trees):
        offenders = []
        for name, tree in trees.items():
            if not name.startswith("repro/fs/"):
                continue
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in ("bytes", "bytearray")):
                    continue
                words = {getattr(inner, "attr", None) or
                         getattr(inner, "id", None)
                         for arg in node.args for inner in ast.walk(arg)}
                if "block_size" in words:
                    offenders.append(f"{name.rpartition('/')[2]}:{node.lineno}")
        assert not offenders, \
            f"a zero-filled block payload grew back: {offenders}"


class TestSoftStateStaysOutOfTheDatabase:
    """The token registry and the Sync table are node-local soft state
    (``datalinks/dlfm/soft_state.py``): volatile, charged like the
    repository, never logged or shipped.  No module names a
    ``token_entries`` or ``sync_entries`` table, so none can create one in
    a :class:`~repro.storage.database.Database` and draw soft state back
    into its WAL and the replication stream."""

    TABLES = {"token_entries", "sync_entries"}

    def test_no_module_names_a_soft_state_table(self, trees):
        offenders = [f"{name}:{node.lineno} {node.value!r}"
                     for name, tree in trees.items()
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and node.value in self.TABLES]
        assert not offenders, f"a soft-state table came back: {offenders}"

    def test_a_repository_holds_only_hard_state(self):
        from repro.datalinks.control_modes import ControlMode
        from tests.conftest import build_system

        system, _, _, _ = build_system(ControlMode.RDD)
        tables = set(system.file_server("fs1").dlfm.repository.db.catalog
                     .table_names())
        assert tables == {"linked_files", "update_tracking", "file_versions",
                          "archive_queue"}


class TestRecoveryIsRestart:
    """A node recovers by ``restart(node)`` alone: nothing under ``src/``,
    ``examples/``, ``tools/`` or ``tests/`` (outside ``tests/storage/``,
    which drives a bare database) runs a recovery step of its own.  The
    host database's ``crash`` / ``recover`` and the DLFMs'
    ``resolve_in_doubt`` run only inside ``DataLinksSystem.crash`` /
    ``restart``; a replica applier's ``resolve_in_doubt`` (called on a
    DLFM's ``replica``) is its participant-side step of a promotion.  The
    recovery verbs ``restart`` replaced are retired names
    (:class:`TestRetiredNamesStayGone`)."""

    HOST_VERBS = {"crash", "recover"}
    #: Where the host's crash and restart are written, and their names.
    OWN_MODULE, OWN_VERBS = "src/repro/api/system.py", {"crash", "restart"}

    @classmethod
    def offenders(cls, module: str, tree) -> list:
        own = [range(node.lineno, node.end_lineno + 1)
               for node in ast.walk(tree) if module == cls.OWN_MODULE
               and isinstance(node, ast.FunctionDef)
               and node.name in cls.OWN_VERBS]
        found = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or \
                    any(node.lineno in lines for lines in own):
                continue
            func = node.func
            word = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            receiver = getattr(func, "value", None)
            on = receiver.attr if isinstance(receiver, ast.Attribute) \
                else getattr(receiver, "id", None)
            if (word == "resolve_in_doubt" and on != "replica") or \
                    (word in cls.HOST_VERBS and on == "host_db"):
                found.append(f"{module}:{node.lineno} {on}.{word}")
        return found

    def test_no_caller_runs_a_recovery_step_of_its_own(self, scanned, trees):
        # Only a file whose text holds such a call is looked at; this one
        # holds them in its planted source only.
        calls = ["resolve_in_doubt("] + \
            [f"host_db.{verb}" for verb in self.HOST_VERBS]
        offenders = []
        for module, text in scanned.items():
            if module.startswith("tests/storage/") or module == OWN_MODULE \
                    or not any(call in text for call in calls):
                continue
            tree = trees.get(module[len("src/"):]) \
                if module.startswith("src/") else ast.parse(text)
            offenders += self.offenders(module, tree)
        assert not offenders, \
            f"a recovery step outside restart(node): {offenders}"

    def test_the_guard_flags_the_host_recovered_by_hand(self):
        import textwrap

        source = textwrap.dedent("""
            system.host_db.crash()
            system.host_db.recover()
            system.resolve_in_doubt()
            """)
        flagged = self.offenders("tests/planted.py", ast.parse(source))
        assert len(flagged) == len(source.strip().splitlines()), flagged


class TestOneArchiveJobPath:
    """An archive job is written in the 2PC branch of the link or close that
    owes it, and commits, aborts, ships and is resolved in doubt with that
    branch: every ``enqueue_archive_job`` call under ``src/`` passes a
    transaction.  The retired post-commit path -- the link's state-id
    provider, the owed-job recovery script -- and the ordered index that
    outlived its last user are retired names
    (:class:`TestRetiredNamesStayGone`)."""

    @staticmethod
    def offenders(module: str, text: str) -> list:
        found = []
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "attr", None) == "enqueue_archive_job":
                txn = node.args[1] if len(node.args) > 1 else next(
                    (keyword.value for keyword in node.keywords
                     if keyword.arg == "txn"), None)
                if txn is None or (isinstance(txn, ast.Constant)
                                   and txn.value is None):
                    found.append(f"{module}:{node.lineno} "
                                 f"enqueue_archive_job without a transaction")
        return found

    def test_every_job_is_a_branch_write(self, scanned):
        offenders, enqueues = [], 0
        for module, text in scanned.items():
            if module.startswith("src/"):
                enqueues += text.count(".enqueue_archive_job(")
            if "enqueue_archive_job(" in text and module != OWN_MODULE:
                offenders += self.offenders(module, text)
        assert not offenders, f"a second archive-job path: {offenders}"
        assert enqueues == 2, "the link's and the close's job, one call each"

    def test_the_guard_flags_a_post_commit_job(self):
        import textwrap

        source = textwrap.dedent("""
            txn.on_commit.append(lambda: repo.enqueue_archive_job(path))
            repo.enqueue_archive_job(path, None, 7)
            repo.enqueue_archive_job(path, txn=None, host_txn_id=7)
            """).strip()
        flagged = self.offenders("tests/planted.py", source)
        assert len(flagged) == len(source.splitlines()), flagged


class TestOneRuleForWhatALinkDoesToItsFile:
    """A file's ownership and mode change only through the link rule
    (``dlfm/link_manager.py``: ``constrain``, ``settle`` and the rfd
    update's take-over and hand-back) over ``dlfm/files.py``'s privileged
    calls: no other module calls ``take_over``, ``restore_ownership`` or
    ``chmod`` on a :class:`~repro.datalinks.dlfm.files.FileServerFiles`
    (a receiver named ``files`` or ``_files``).  The commit/abort
    callbacks that used to carry a second copy of the rule are retired
    names (:class:`TestRetiredNamesStayGone`)."""

    OWNERS = ("repro/datalinks/dlfm/link_manager.py",
              "repro/datalinks/dlfm/files.py")
    CALLS = ("take_over", "restore_ownership", "chmod")

    @classmethod
    def offenders(cls, module: str, tree) -> list[str]:
        if module in cls.OWNERS:
            return []
        return [f"{module}:{node.lineno} {ast.unparse(node.func)}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in cls.CALLS
                and ast.unparse(node.func.value).rpartition(".")[2]
                in ("files", "_files")]

    def test_only_the_link_rule_changes_a_file_s_owner_or_mode(self, trees):
        offenders = [found for module, tree in trees.items()
                     for found in self.offenders(module, tree)]
        assert not offenders, f"a second copy of the link rule: {offenders}"

    def test_the_guard_flags_a_file_changed_elsewhere(self):
        import textwrap

        planted = textwrap.dedent("""
            self.files.take_over(path, mode=0o400)
            self._files.chmod(path, attrs.mode & ~0o222)
            node.files.restore_ownership(path, 1001, 1001, 0o644)
            files.take_over(path)
            """).strip()
        allowed = textwrap.dedent("""
            file_server.raw_lfs.chmod(path, 0o664, owner_cred(system))
            self.lfs.chmod(path, mode, self.dlfm_cred)
            constrain(self.files, row, attrs)
            """).strip()
        flagged = self.offenders("repro/planted.py", ast.parse(planted))
        assert len(flagged) == len(planted.splitlines()), flagged
        assert not self.offenders("repro/planted.py", ast.parse(allowed))
        assert not self.offenders(self.OWNERS[0], ast.parse(planted))


class TestRetiredNamesStayGone:
    """Retired machinery that no structural guard would catch coming back,
    in one table (:attr:`RETIRED`), matched as a word (a call or keyword
    spelling where the bare word is English or another name's stem) in one
    pass over ``src/``, ``tests/``, ``examples/`` and ``tools/``.
    Reference-path flags are not listed: any flag is a module-level boolean
    or an environment read, which ``TestOnePathPerOperation`` refuses
    whatever its name."""

    #: ``{name: the change that retired it (its CHANGES.md title words),
    #: and why}``.
    RETIRED = {
        "_point_select": "prepared repository statements: one plan each",
        "_AutoTxn": "prepared repository statements: one plan each",
        "_audit_batched": "one path per operation",
        "post_group": "one path per operation",
        "read_blocks": "file bytes stored once, on the inode",
        "read_block(": "file bytes stored once, on the inode",
        "write_block(": "file bytes stored once, on the inode",
        "PROFILE_SNAPSHOT": "experiments declared once, run by one runner",
        "step_hook": "experiments declared once, run by one runner",
        "run_session_sweep": "experiments declared once: one sweep loop",
        "run_client_sweep": "experiments declared once: one sweep loop",
        "run_read_sweep": "experiments declared once: one sweep loop",
        "SMOKE_PARAMS": "experiments declared once: sizes live on them",
        "LARGE_PARAMS": "experiments declared once: sizes live on them",
        "SCALE_PARAMS": "experiments declared once: sizes live on them",
        "sweep_admission_limit": "experiments declared once: a sweep's "
                                 "gate is admission_limit",
        "sweep_think_s": "experiments declared once: think time is think_s",
        "client_think_s": "experiments declared once: think time is think_s",
        "_NO_WINDOW": "every component has a clock",
        "_by_txn": "row images stored once: the log links a transaction's "
                   "records (LogRecord.prev), no per-transaction index",
        "serial_clock": "one time model: a clock domain per node",
        "serial=": "one time model: the one-timeline figure is read off "
                   "the ledger, never run",
        "domain_pool": "one time model: a client count is a domain count",
        "_run_serial": "one time model: a clock domain per node",
        "reader_sessions": "knobs nothing turns become constants: E14 has "
                           "one read path",
        "_pooled_reads": "knobs nothing turns become constants: E14 has "
                         "one read path",
        "shard_prefix": "knobs nothing turns become constants: one "
                        "naming scheme",
        "replica_suffix": "knobs nothing turns become constants: one "
                          "naming scheme",
        "keep_versions": "the archive keeps only what a restore can still "
                         "read: retention is not a count",
        "_normalize_path_for_table": "shrink per-operation memory: an open "
                                     "file keeps its path as opened",
        "_handout": "set-oriented token handout: no per-row twin",
        "redrive_sweeps": "restart is recovery",
        "resync(": "restart is recovery",
        "crash_shard": "restart is recovery",
        "recover_shard": "restart is recovery",
        "crash_witness": "restart is recovery",
        "recover_witness": "restart is recovery",
        "crash_file_server": "restart is recovery",
        "recover_file_server": "restart is recovery",
        "state_id_provider": "one archive-job path: a link's job is a "
                             "branch write",
        "set_state_id_provider": "one archive-job path: a link's job is a "
                                 "branch write",
        "_host_state_id": "one archive-job path: a link's job is a branch "
                          "write",
        "recovery_links": "one archive-job path: no owed-job script",
        "_owed_jobs": "one archive-job path: no owed-job script",
        "_queue_owed_jobs": "one archive-job path: no owed-job script",
        "owed_jobs": "one archive-job path: no owed-job script",
        "OrderedIndex": "one archive-job path: the ordered index lost its "
                        "last user",
        "range_scan": "one archive-job path: the ordered index lost its "
                      "last user",
        "find_token_entry": "one DLFM statement per open decision: the "
                            "token check rides the Sync insert (admit)",
        "add_sync_entry": "one DLFM statement per open decision: the "
                          "Sync insert is the admission statement's",
        "_begin_strict_read": "one DLFM statement per open decision: a "
                              "strict read is a read admitted without "
                              "a token",
        "_releases": "archive space by reachability: one sweep frees what "
                     "nothing names, no release queue",
        "_release_shipped": "archive space by reachability: the shipped-LSN "
                            "horizon falls out of the names",
        "_reclaim_unnamed_objects": "archive space by reachability: a "
                                    "crash loses no release to reclaim",
        "stored_by": "archive space by reachability: the sweep reads a "
                     "path's objects, not a server's",
        "archive.release(": "archive space by reachability: only the "
                            "sweep frees an object",
        "named_archive_ids": "archive space by reachability: names are "
                             "read per path, uncharged",
        "_all_versions": "archive space by reachability: no scan of "
                         "file_versions is left",
        "commit_group": "one two-phase commit: a commit is a group of one",
        "group:begin": "one two-phase commit: commit:* serves every group",
        "group:prepared": "one two-phase commit: commit:* serves every group",
        "group:before_host_commit": "one two-phase commit: commit:* again",
        "group:after_host_commit": "one two-phase commit: commit:* again",
        "group:committed": "one two-phase commit: commit:* again",
        "commit:mid_flush": "one two-phase commit: append and force at once",
        "prepare_many": "one two-phase commit: one list-valued prepare",
        "_prepare_many": "one two-phase commit: one list-valued prepare",
        "_commit_many": "one two-phase commit: one list-valued commit",
        "link_batch": "one two-phase commit: one list-valued link",
        "unlink_batch": "one two-phase commit: one list-valued unlink",
        "_link_batch": "one two-phase commit: one list-valued link",
        "_unlink_batch": "one two-phase commit: one list-valued unlink",
        "_link_file": "one two-phase commit: one list-valued link",
        "_unlink_file": "one two-phase commit: one list-valued unlink",
        "connection.link_file(": "one two-phase commit: link_files",
        "connection.unlink_file(": "one two-phase commit: unlink_files",
        "host_transaction_outcome": "one two-phase commit: one outcome query",
        "_host_outcome": "one two-phase commit: one outcome query",
        "ledger_delta": "one ledger window: window() takes every diff",
        "_stats_cells": "one ledger window: window() takes every diff",
        ".savepoint(": "what the system uses: no savepoints",
        "rollback_to_savepoint": "what the system uses: no savepoints",
        "add_savepoint": "what the system uses: no savepoints",
        "find_savepoint": "what the system uses: no savepoints",
        "drop_savepoints_after": "what the system uses: no savepoints",
        ".savepoints": "what the system uses: no savepoints",
        "Savepoint": "what the system uses: no savepoints",
        "SAVEPOINT": "what the system uses: no savepoints",
        ".drop_table(": "what the system uses: no DROP TABLE",
        "DROP_TABLE": "what the system uses: no DROP TABLE",
        "_waits_for": "what the system uses: no-wait locking forms no cycle",
        "_record_wait": "what the system uses: no-wait locking forms no cycle",
        "_has_cycle": "what the system uses: no-wait locking forms no cycle",
        "try_acquire": "what the system uses: no-wait locking forms no cycle",
        "DeadlockError": "what the system uses: "
                         "no-wait locking forms no cycle",
        "db.count(": "what the system uses: len(select(...)) counts rows",
        "host_db.count(": "what the system uses: len(select(...)) counts rows",
        "def count(self, table": "what the system uses: "
                                 "len(select(...)) counts rows",
        ".scan(": "what the system uses: scan_live is the one heap scan",
        "_scan_order": "what the system uses: scan_live is the one heap scan",
        "indexes_of": "what the system uses: "
                      "iter_indexes is the one index list",
        "VFSOperations": "what the system uses: no abstract VFS",
        "FilterVFS": "what the system uses: "
                     "DLFS holds lower and forwards itself",
        "fs_rmdir": "what the system uses: no rmdir",
        "ENOTEMPTY": "what the system uses: no rmdir",
        ".rmdir(": "what the system uses: no rmdir",
        "fs_readdir": "what the system uses: no readdir",
        ".listdir(": "what the system uses: no readdir",
        ".truncate(": "what the system uses: truncate is fs_setattr(size=...)",
        "lock_file": "what the system uses: DLFS alone calls fs_lockctl",
        "unlock_file": "what the system uses: DLFS alone calls fs_lockctl",
        "open_file_entry": "what the system uses: no descriptor-table readers",
        "open_descriptors": "what the system uses: "
                            "no descriptor-table readers",
        "read_whole_file": "what the system uses: "
                           "a file's bytes are inode.content",
        "write_whole_file": "what the system uses: "
                            "a file's bytes are inode.content",
        "replica_status": "what the system uses: "
                          "ReplicatedShard.status reports a witness",
        "restore_version": "resolve each file once: a tracking column "
                           "nothing read",
        "latest_version_no": "resolve each file once: its one caller "
                             "filled restore_version",
        "on_commit": "one rule for what a link does to its file: an "
                     "outcome settles its records, no callbacks",
        "on_abort": "one rule for what a link does to its file: an "
                    "outcome settles its records, no callbacks",
        "only_if_needed": "one rule for what a link does to its file: "
                          "constrain skips what is in effect",
        "_constrain_local_file": "one rule for what a link does to its "
                                 "file: a witness constrains like a link",
        "_release_local_file": "one rule for what a link does to its "
                               "file: a witness settles its commits",
        "_finish_from_log": "one rule for what a link does to its file: "
                            "the log and the live outcome settle alike",
        "_undo_links_from_log": "one rule for what a link does to its "
                                "file: the log and the live outcome "
                                "settle alike",
        "_give_back": "one rule for what a link does to its file: "
                      "link_manager hands an rfd file back",
        "_release_takeover": "one rule for what a link does to its file: "
                             "link_manager hands an rfd file back",
        "apply_link_constraints": "one rule for what a link does to its "
                                  "file: constrain, no abort callback",
        "_apply_link_constraints": "one rule for what a link does to its "
                                   "file: constrain, no abort callback",
        "ShardRouter": "one placement map: PlacementMap owns the prefix "
                       "hash",
        "shard_of_key": "one placement map: PlacementMap.hashed_shard "
                        "hashes a derived prefix",
        "register_shard": "one shard shape: an unreplicated shard is a "
                          "ReplicatedShard with no witness",
        "_singles": "one shard shape: the router keeps one shard table",
    }
    #: ``{module: names}`` still written there: the frozen layered
    #: benchmark calls the two until ROADMAP 5(e).
    KEPT = {"src/repro/api/system.py": {"crash_file_server",
                                        "recover_file_server"}}
    WORDS = re.compile(r"\b(?:%s)" % "|".join(
        re.escape(name) + (r"\b" if name[-1].isalnum() or name[-1] == "_"
                           else "")
        for name in sorted(RETIRED, key=len, reverse=True)))

    @classmethod
    def offenders(cls, module: str, text: str) -> list:
        if not any(name in text for name in cls.RETIRED):
            return []       # no substring, no word: the cheap test first
        kept = cls.KEPT.get(module, ())
        return [f"{module}:{text.count(chr(10), 0, match.start()) + 1} "
                f"{match.group()}" for match in cls.WORDS.finditer(text)
                if match.group().rstrip("(") not in kept]

    def test_no_retired_name_grows_back(self, scanned):
        offenders = [found for module, text in scanned.items()
                     if module != OWN_MODULE
                     for found in self.offenders(module, text)]
        assert not offenders, f"a retired name grew back: {offenders}"
        for module, names in self.KEPT.items():
            for name in names:
                assert f"def {name}(" in scanned[module], (module, name)

    def test_the_bound_file_system_keeps_what_its_callers_use(self):
        """``Session.fs`` dropped its other pass-throughs (open, close,
        read, lseek, stat, exists, listdir, chmod, makedirs); the logical
        file system keeps those names, so the table cannot list them."""

        from repro.api.session import BoundFileSystem

        assert sorted(name for name in vars(BoundFileSystem)
                      if not name.startswith("_")) == [
            "read_file", "rename", "unlink", "write_file"]

    #: Shapes the table refuses, one offence a line; the words it must
    #: let through.
    PLANTED = {
        "deferred resync": """
            deployment.replicas["shard0"].resync()
            """,
        "witness verbs": """
            deployment.crash_witness("shard0")
            deployment.recover_witness("shard0")
            deployment.redrive_sweeps()
            """,
        "owed-job script": """
            owed = recovery_links(records)
            self._queue_owed_jobs(resolved.pop("owed_jobs", ()))
            links.set_state_id_provider(self._host_state_id)
            index = OrderedIndex("idx", "t", ("k",))
            """,
        "block payloads and twins": """
            data = device.read_block(ino, 0)
            run_experiment("E9", serial=True)
            system.crash_file_server("fs1")
            """,
        "dead tracking column": """
            "restore_version": self.repository.latest_version_no(path),
            """,
        "storage and fs generality": """
            db.savepoint(txn, "sp")
            db.rollback_to_savepoint(txn, "sp")
            db.drop_table("t")
            locks.try_acquire(2, "r", LockMode.SHARED)
            raise DeadlockError("cycle")
            assert system.host_db.count(FILES_TABLE) == 1
            rows = dict(heap.scan())
            for index in db.catalog.indexes_of(table):
            lfs.mount("/", FilterVFS(pfs))
            names = lfs.listdir("/d", cred)
            lfs.truncate("/f", 2, cred)
            pfs.write_whole_file(vnode.ino, b"v2")
            """,
        "file callbacks": """
            txn.on_commit.append(lambda: self.finish_unlink(row))
            txn.on_abort.append(lambda: files.chmod(path, attrs.mode))
            apply_link_constraints(files, txn, path, attrs, mode, only_if_needed=True)
            self._constrain_local_file(after)
            self._release_local_file(before)
            self._finish_from_log(records)
            self._undo_links_from_log(records)
            local_txn.on_commit.append(lambda: self._give_back(row))
            self._release_takeover(row)
            """,
        "two commit paths": """
            engine.commit_group([first, second])
            engine.failpoints["group:after_host_commit"] = hook
            engine.failpoints["commit:mid_flush"] = hook
            connection.link_file(txn_id, path, options)
            outcome = self._host_outcome(host_txn_id)
            """,
        "two placement shapes": """
            router = ShardRouter(["shard0", "shard1"])
            shard = base.shard_of_key(prefix)
            self.router.register_shard(name, self.shard(name))
            server = self._singles.get(shard)
            """,
    }
    ALLOWED = """
        # a full resync; a snapshot-resync fallback
        device.write_blocked(ino)
        header_cells, serial_ticks = [], group.serial_ticks()
        state_id = self.db.commit_many(txns)
        connection.link_files(txn_id, [(path, options)])
        row = self._manager.link_file(txn_id, path, options)
        shard = self.placement.hashed_shard(prefix)
        self.router.register_replicated(name, replica)
        outcomes = engine.host_transaction_outcomes(txn_ids)
        if self._try_acquire(editor, target, metrics):
        before = stats.count("index_probe")
        rows = dict(heap.scan_live())
        for index in db.catalog.iter_indexes(table):
        self._truncate(inode, 0)
        settle(self._files, txn.records, committed=True)
        give_back(files, record.after)
        fire(engine.failpoints, "commit:after_host_commit")
        """

    @pytest.mark.parametrize("shape", sorted(PLANTED))
    def test_the_guard_flags_a_retired_shape(self, shape):
        import textwrap

        source = textwrap.dedent(self.PLANTED[shape]).strip()
        flagged = self.offenders("tests/planted.py", source)
        lines = {entry.split()[0] for entry in flagged}
        assert len(lines) == len(source.splitlines()), flagged
        assert not self.offenders("tests/planted.py", self.ALLOWED)


class TestOnePlacementMemo:
    """The path-to-prefix memo is :class:`~repro.datalinks.placement.
    PlacementMap`'s own: no file under ``src/`` but ``placement.py`` names
    ``_prefix_cache``, so a caller asks ``prefix_of`` and a second memo or
    an inline probe of the map's cannot grow back."""

    OWNER = "src/repro/datalinks/placement.py"

    @classmethod
    def offenders(cls, module: str, text: str) -> list[str]:
        if module == cls.OWNER or not module.startswith("src/"):
            return []
        return [f"{module}:{number} _prefix_cache"
                for number, line in enumerate(text.splitlines(), 1)
                if "_prefix_cache" in line]

    def test_only_the_placement_map_names_its_memo(self, scanned):
        assert "_prefix_cache" in scanned[self.OWNER]
        offenders = [found for module, text in scanned.items()
                     for found in self.offenders(module, text)]
        assert not offenders, f"a second prefix memo: {offenders}"

    def test_the_guard_flags_an_inline_probe(self):
        import textwrap

        planted = textwrap.dedent("""
            prefix = placement._prefix_cache[path]
            self._prefix_cache: dict[str, str] = {}
            """).strip()
        assert len(self.offenders("src/repro/datalinks/routing.py",
                                  planted)) == 2
        assert not self.offenders(self.OWNER, planted)
        assert not self.offenders(
            "src/repro/datalinks/routing.py",
            "prefix = self.placement.prefix_of(path)")


class TestEachFileStepResolvesOnce:
    """DLFS hands the DLFM the attributes it read at open and at close, so
    no upcall handler and no ``_begin_file_update`` in
    ``datalinks/dlfm/manager.py`` walks the file's path again: none calls
    ``self.files.stat`` or ``self.files.exists``."""

    MODULE = "repro/datalinks/dlfm/manager.py"

    @staticmethod
    def offenders(tree) -> list[str]:
        found = []
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef) or not (
                    function.name.startswith("upcall_")
                    or function.name == "_begin_file_update"):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in ("stat", "exists") and \
                        ast.unparse(node.func.value) == "self.files":
                    found.append(f"{function.name}:{node.lineno} "
                                 f"self.files.{node.func.attr}")
        return found

    def test_no_upcall_walks_a_path_dlfs_resolved(self, trees):
        tree = trees[self.MODULE]
        handlers = {node.name for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    and node.name.startswith("upcall_")}
        assert {"upcall_check_open", "upcall_write_open_fallback",
                "upcall_file_closed"} <= handlers
        assert not self.offenders(tree), self.offenders(tree)

    def test_the_guard_flags_a_second_walk(self):
        import textwrap

        tree = ast.parse(textwrap.dedent("""
            class Manager:
                def upcall_file_closed(self, ino, was_write, userid, path):
                    attrs = self.files.stat(path)
                def _begin_file_update(self, row, mode, userid):
                    if self.files.exists(row["path"]):
                        pass
                def archive_steps(self):
                    if self.files.exists(path):
                        content = self.files.read(path)
            """))
        assert self.offenders(tree) == [
            "upcall_file_closed:4 self.files.stat",
            "_begin_file_update:6 self.files.exists"]


class TestEveryImportIsLoaded:
    """No module-level import binds a name that no ``src/`` module loads:
    neither the importing module nor a module importing the name from it.
    An ``__init__.py`` re-exports its package's names and is exempt."""

    @staticmethod
    def unused(trees: dict) -> list[str]:
        exported = {(node.module, alias.name) for tree in trees.values()
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        flagged = []
        for path, tree in trees.items():
            if path.endswith("/__init__.py"):
                continue
            module = path.removesuffix(".py").replace("/", ".")
            loaded = {node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Load)}
            for node in tree.body:
                if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                        getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in loaded and \
                            (module, bound) not in exported:
                        flagged.append(f"{path}: {bound}")
        return flagged

    def test_no_module_imports_a_name_nothing_loads(self, trees):
        assert not self.unused(trees), self.unused(trees)

    def test_the_guard_flags_an_unused_import_and_passes_a_re_export(self):
        trees = {"repro/a.py": ast.parse(
                     "from dataclasses import dataclass, field\n"
                     "from repro.b import helper\n@dataclass\nclass A: pass"),
                 "repro/b.py": ast.parse("import os\nhelper = os.sep"),
                 "repro/c.py": ast.parse("from repro.a import helper"),
                 "repro/__init__.py": ast.parse("from repro.b import helper")}
        assert self.unused(trees) == ["repro/a.py: field", "repro/c.py: helper"]
