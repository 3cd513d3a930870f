"""The experiments run, the harness records them, and every claim of
:data:`~repro.bench.claims.CLAIMS` holds on the rows that can show it."""

import dataclasses
import io
import json
from pathlib import Path

import pytest

from repro.bench import harness
from repro.bench.claims import CLAIMS, Rows, Status
from repro.bench.harness import run_all
from repro.bench.metrics import ExperimentResult, format_table
from repro.bench.runner import EXPERIMENTS, SCALES, run_experiment

REPO_ROOT = Path(__file__).resolve().parent.parent
#: The committed artifacts, by the tier each records.
ARTIFACT_TIERS = {"BENCH_smoke.json": "smoke", "BENCH_large.json": "large"}


class _DefaultRuns(dict):
    """Default-tier rows by experiment id; each experiment runs on first use."""

    def __missing__(self, experiment_id: str) -> list:
        rows = self[experiment_id] = run_experiment(experiment_id).rows
        return rows


@pytest.fixture(scope="session")
def row_sets(smoke_run) -> dict:
    """``{source: (tier, {experiment id: rows})}``: the session's smoke rows,
    one default-tier run per experiment and the committed artifacts."""

    sets = {"smoke run": ("smoke", {result.experiment_id: result.rows
                                    for result in smoke_run[0]}),
            "default run": ("default", _DefaultRuns())}
    for name, tier in ARTIFACT_TIERS.items():
        if not (REPO_ROOT / name).exists():
            continue
        payload = json.loads((REPO_ROOT / name).read_text(encoding="utf-8"))
        sets[name] = (tier, {experiment_id: entry["rows"] for experiment_id,
                             entry in payload["experiments"].items()})
    return sets


def _smoke_result(smoke_run, experiment_id: str) -> ExperimentResult:
    return next(result for result in smoke_run[0]
                if result.experiment_id == experiment_id)


def _replay_smoke(monkeypatch, smoke_run) -> None:
    """Let the harness serve the session's smoke results instead of running
    the experiments again: for tests of what it writes, not of what an
    experiment measures."""

    monkeypatch.setattr(harness, "run_experiment",
                        lambda identifier, scale, context:
                        _smoke_result(smoke_run, identifier))


def _section_table(trees: dict) -> str:
    """README's paper-section -> module table, from a scan of the module
    docstrings under ``src/repro/`` (*trees*, the session's parsed source)
    for ``Section N`` / ``Sections N, M and K`` references -- nothing else:
    no section number is written by hand."""

    import ast
    import re

    number = r"\d+(?:\.\d+)*"
    cites = re.compile(rf"Sections?\s+({number}(?:(?:,\s*|,?\s+and\s+){number})*)")
    modules_of: dict[str, list] = {}
    for relpath, tree in trees.items():
        parts = Path(relpath).with_suffix("").parts[1:]
        module = ".".join(part for part in parts if part != "__init__") \
            or "repro"
        docstring = ast.get_docstring(tree) or ""
        for section in {section for cited in cites.findall(docstring)
                        for section in re.findall(number, cited)}:
            modules_of.setdefault(section, []).append(module)
    lines = ["| section | modules whose docstring cites it |", "|---|---|"]
    for section in sorted(modules_of,
                          key=lambda text: [int(n) for n in text.split(".")]):
        modules = ", ".join(f"`{module}`" for module in modules_of[section])
        lines.append(f"| {section} | {modules} |")
    return "\n".join(lines)


class TestHarness:
    def test_registry_covers_all_experiments(self):
        expected = {f"E{i}" for i in range(1, 15)}
        assert set(EXPERIMENTS) == expected

    def test_smoke_params_cover_every_experiment(self):
        """Every declaration resolves every tier to the keyword sizes of its
        function: the overrides of ``smoke`` / ``large`` name default sizes."""

        for spec in EXPERIMENTS.values():
            assert "smoke" in spec.tiers and "default" in spec.tiers
            for scale in SCALES:
                assert set(spec.sizes(scale)) == set(spec.default), \
                    f"{spec.experiment_id} {scale} overrides an unknown size"

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_every_experiment_completes_in_smoke_mode(self, experiment_id,
                                                      smoke_run):
        """CI gate: ``python -m repro.bench --smoke`` must cover E1..E14."""

        result = {result.experiment_id: result
                  for result in smoke_run[0]}.get(experiment_id)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == experiment_id
        assert result.rows
        assert result.headers == list(EXPERIMENTS[experiment_id].columns)

    def test_a_row_that_strays_from_the_declared_columns_is_refused(
            self, monkeypatch):
        spec = EXPERIMENTS["E6"]
        monkeypatch.setitem(
            EXPERIMENTS, "E6", dataclasses.replace(
                spec, run=lambda context: [{"scenario": "x", "passed": "yes"}]))
        with pytest.raises(ValueError, match="declared columns"):
            run_experiment("E6", "smoke")

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            run_experiment("E1", "huge")

    def test_run_experiment_by_id_case_insensitive(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "E6", dataclasses.replace(
            EXPERIMENTS["E6"], run=lambda context: []))
        result = run_experiment("e6")
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == "E6"

    def test_unknown_experiment_id(self):
        with pytest.raises(KeyError):
            run_experiment("E42")

    def test_smoke_mode_emits_perf_artifact(self, tmp_path, monkeypatch,
                                            smoke_run):
        """``python -m repro.bench --smoke`` writes BENCH_smoke.json with a
        per-experiment simulated-ms summary for the perf trajectory."""

        _replay_smoke(monkeypatch, smoke_run)
        artifact = tmp_path / "BENCH_smoke.json"
        run_all(["E1", "E11"], scale="smoke", json_path=str(artifact),
                stream=io.StringIO())
        payload = json.loads(artifact.read_text())
        assert payload["mode"] == "smoke"
        assert set(payload["experiments"]) == {"E1", "E11"}
        e11 = payload["experiments"]["E11"]
        assert e11["rows"] and e11["wall_clock_s"] >= 0.0
        assert any(key.endswith("_ms") or "per_sim_s" in key
                   for key in e11["sim_ms"])
        # every cell is JSON-round-trippable (LSNs and such become strings)
        json.dumps(payload)

    def test_only_a_full_tier_run_defaults_its_artifact_path(
            self, tmp_path, monkeypatch, smoke_run):
        """``python -m repro.bench E9 --smoke`` from the repository root must
        not replace the committed 14-experiment baseline with one entry."""

        _replay_smoke(monkeypatch, smoke_run)
        monkeypatch.chdir(tmp_path)
        run_all(["E1"], scale="smoke", stream=io.StringIO())
        assert list(tmp_path.iterdir()) == []
        run_all(scale="smoke", stream=io.StringIO())
        assert [path.name for path in tmp_path.iterdir()] == ["BENCH_smoke.json"]
        payload = json.loads((tmp_path / "BENCH_smoke.json").read_text())
        assert set(payload["experiments"]) == set(EXPERIMENTS)

    def test_profiled_sweeps_attribute_calls_per_step(self, tmp_path, smoke_run):
        """``--profile`` books each sweep step's deterministic call count
        under the step's row label; an unprofiled run books nothing."""

        sweeps = ["E9", "E11", "E12"]
        artifact = tmp_path / "profiled.json"
        run_all(sweeps, scale="smoke", profile=True, json_path=str(artifact),
                stream=io.StringIO())
        for name, entry in json.loads(
                artifact.read_text())["experiments"].items():
            swept = [row["configuration"] for row in entry["rows"]
                     if "sweep" in row["configuration"]]
            steps = entry["profile_steps"]
            assert len(swept) == 2 and list(steps) == swept, name
            assert all(type(calls) is int and calls > 0
                       for calls in steps.values()), name
            assert sum(steps.values()) < entry["profile_calls"], name
        for name in sweeps:     # the session's unprofiled run
            entry = smoke_run[1]["experiments"][name]
            assert "profile_steps" not in entry and "profile" not in entry

    def test_listing_runs_nothing_and_is_the_readme_index(
            self, monkeypatch, capsys, trees):
        """``--list`` and a walk of the declarations give id, title,
        sections, claim, columns and per-tier sizes without building a
        system; ``README.md`` carries the ``--list`` table verbatim."""

        from repro.api.system import DataLinksSystem
        from repro.bench.harness import main

        def refuse(self, *args, **kwargs):
            raise AssertionError("listing experiments built a system")

        monkeypatch.setattr(DataLinksSystem, "__init__", refuse)
        assert main(["--list"]) == 0
        listing = capsys.readouterr().out
        for spec in EXPERIMENTS.values():
            assert spec.title and spec.sections and spec.paper_claim
            assert len(spec.columns) >= 2
            assert all(isinstance(spec.sizes(scale), dict)
                       for scale in spec.tiers)
            row = next(line for line in listing.splitlines()
                       if line.startswith(f"| {spec.experiment_id} "))
            for cell in (spec.title, spec.sections, ", ".join(spec.columns),
                         ", ".join(spec.tiers)):
                assert cell in row
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert listing.strip() in readme, \
            "README.md's experiment index is not `python -m repro.bench --list`"
        assert _section_table(trees) in readme, \
            "README.md's section table is not the docstring scan:\n" \
            + _section_table(trees)

    def test_table_formatting_text_and_markdown(self):
        headers = ["name", "value"]
        rows = [{"name": "a", "value": 1.5}, ["b", 2]]
        text = format_table(headers, rows)
        assert "name" in text and "1.500" in text
        markdown = format_table(headers, rows, markdown=True)
        assert markdown.count("|") > 4
        result = ExperimentResult("EX", "t", "claim", headers, rows, notes="n")
        assert "claim" in result.as_text()
        assert "### EX" in result.as_markdown()


class TestClaims:
    """Every claim of :data:`CLAIMS` on every row set that can show it."""

    @pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
    def test_claim_is_reproduced_or_explained(self, claim, row_sets):
        evaluated = []
        for source, (tier, runs) in row_sets.items():
            if tier not in claim.tiers:
                continue
            rows = Rows(runs[claim.experiment_id],
                        EXPERIMENTS[claim.experiment_id].sizes(tier))
            status, margin = claim.predicate(rows), claim.margin(rows)
            assert status is Status.REPRODUCED or status in claim.reasons, (
                f"{claim.id} ({claim.quote!r}) is {status.value} on {source}, "
                f"margin {margin:.4g}, and no reason says why")
            evaluated.append(source)
        assert evaluated, f"{claim.id}: no row set holds its tiers"

    def test_e9_sweep_rows_report_their_handout(self, smoke_run):
        """A session-sweep row reports its handout in the ``handout_ms``
        column, not in its label: labels key ``profile_steps``, so a cost
        must not move one.  The mix rows measure no handout: the cell is
        empty, not a zero that would drag down the sim_ms mean."""

        result = _smoke_result(smoke_run, "E9")
        assert {"token_cache_hit_pct", "handout_ms"} <= set(result.headers)
        swept = [row for row in result.rows
                 if "session sweep" in row["configuration"]]
        assert [row["configuration"] for row in swept] == [
            f"rdd session sweep, {clients} sessions, admission limit 2"
            for clients in (2, 4)]
        assert all(row["handout_ms"] > 0.0 for row in swept)
        assert all(row["handout_ms"] is None for row in result.rows
                   if row not in swept)
        assert result.to_dict()["sim_ms"]["handout_ms"] == pytest.approx(
            sum(row["handout_ms"] for row in swept) / len(swept))
