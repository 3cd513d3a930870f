"""The reproduced experiments must run and reproduce the paper's qualitative claims."""

import dataclasses
import io
import json
from pathlib import Path

import pytest

from repro.bench.harness import run_all
from repro.bench.metrics import ExperimentResult, format_table
from repro.bench.runner import EXPERIMENTS, SCALES, run_experiment

REPO_ROOT = Path(__file__).resolve().parent.parent


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

    def test_run_experiment_by_id_case_insensitive(self):
        result = run_experiment("e1")
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == "E1"

    def test_unknown_experiment_id(self):
        with pytest.raises(KeyError):
            run_experiment("E42")

    def test_smoke_mode_emits_perf_artifact(self, tmp_path):
        """``python -m repro.bench --smoke`` writes BENCH_smoke.json with a
        per-experiment simulated-ms summary for the perf trajectory."""

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
            self, tmp_path, monkeypatch):
        """``python -m repro.bench E9 --smoke`` from the repository root must
        not replace the committed 14-experiment baseline with one entry."""

        monkeypatch.chdir(tmp_path)
        run_all(["E1"], scale="smoke", stream=io.StringIO())
        assert list(tmp_path.iterdir()) == []
        run_all(scale="smoke", stream=io.StringIO())
        assert [path.name for path in tmp_path.iterdir()] == ["BENCH_smoke.json"]
        payload = json.loads((tmp_path / "BENCH_smoke.json").read_text())
        assert set(payload["experiments"]) == set(EXPERIMENTS)

    def test_profiled_sweeps_attribute_calls_per_step(self, tmp_path):
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
        run_all(sweeps, scale="smoke", json_path=str(artifact),
                stream=io.StringIO())
        for entry in json.loads(artifact.read_text())["experiments"].values():
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
            assert len(spec.columns) >= 3
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


class TestExperimentClaims:
    def test_e1_datalink_retrieval_under_three_ms(self):
        result = run_experiment("E1")
        token_rows = [row for row in result.rows if "token" in row["statement"]]
        assert token_rows and all(row["within_3ms"] == "yes" for row in token_rows)

    def test_e2_reads_outside_full_control_avoid_upcalls(self):
        result = run_experiment("E2")
        by_mode = {row["mode"]: row for row in result.rows}
        for mode in ("rff", "rfb", "rfd"):
            assert by_mode[mode]["upcalls_per_open"] == 0
            assert by_mode[mode]["added_vs_unlinked_ms"] == pytest.approx(0.0, abs=1e-6)
        for mode in ("rdb", "rdd"):
            assert by_mode[mode]["upcalls_per_open"] >= 2
            assert 0.0 < by_mode[mode]["added_vs_unlinked_ms"] < 5.0

    def test_e3_overhead_shrinks_with_file_size_and_blob_does_not(self):
        result = run_experiment("E3")
        small, large, _ = result.rows          # 64 KB, 1 MB, 4 MB
        assert large["fs_overhead_pct"] < small["fs_overhead_pct"]
        assert large["fs_overhead_pct"] < 3.0
        assert large["blob_overhead_pct"] > 10 * large["fs_overhead_pct"]

    def test_e5_scheme_comparison_shape(self):
        result = run_experiment("E5")
        by_scheme = {row["scheme"]: row for row in result.rows}
        assert by_scheme["uip"]["lost_updates"] == 0
        assert by_scheme["cico"]["lost_updates"] == 0
        assert by_scheme["cau-overwrite"]["lost_updates"] > 0
        assert by_scheme["cau-detect"]["lost_updates"] == 0
        assert by_scheme["cau-detect"]["rejected_checkins"] > 0

    def test_e6_atomicity_scenarios_all_pass(self):
        result = run_experiment("E6")
        assert all(row["pass"] == "yes" for row in result.rows)

    def test_e7_coordinated_restore_consistency(self):
        result = run_experiment("E7")
        assert all(row["file_content_matches"] == "yes" for row in result.rows)
        assert all(row["metadata_matches"] == "yes" for row in result.rows)

    def test_e8_sync_semantics_match_paper(self):
        result = run_experiment("E8")
        assert all(row["matches_paper"] == "yes" for row in result.rows)

    def test_e12_replica_failover_gives_full_availability(self):
        result = run_experiment("E12")
        baseline = next(row for row in result.rows
                        if "no replication" in row["configuration"])
        replicated = next(row for row in result.rows
                          if "1 witness" in row["configuration"])
        two_witness = next(row for row in result.rows
                           if "2 witnesses" in row["configuration"])
        # the crashed shard's prefix was actually exercised after the crash
        assert baseline["victim_reads_after"] > 0
        assert replicated["victim_reads_after"] > 0
        # unreplicated: every read of the crashed prefix fails;
        # replicated: zero failures after promotion
        assert baseline["victim_availability_pct"] == 0.0
        assert baseline["victim_failures_after"] == baseline["victim_reads_after"]
        assert replicated["victim_availability_pct"] == 100.0
        assert replicated["victim_failures_after"] == 0
        assert replicated["failover_ms"] > 0
        # writable failover: victim-prefix link transactions go from a full
        # outage to full availability once the witness is a full primary
        assert baseline["write_availability_pct"] == 0.0
        assert baseline["writes_ok_after"] == 0
        assert replicated["write_availability_pct"] == 100.0
        assert replicated["writes_ok_after"] > 0
        assert two_witness["write_availability_pct"] == 100.0
        # follower reads: throughput of the concurrent read burst rises
        # with every witness the router may load-balance over
        assert replicated["follower_reads_per_sim_s"] > \
            baseline["follower_reads_per_sim_s"]
        assert two_witness["follower_reads_per_sim_s"] > \
            replicated["follower_reads_per_sim_s"]
        # replication taxes the write path
        assert replicated["links_per_sim_s"] < baseline["links_per_sim_s"]

    def test_e12_smoke_rows_have_availability_shape(self):
        """CI gate: the smoke-mode E12 rows (what BENCH_smoke.json records)
        carry the write-availability and follower-read columns."""

        result = run_experiment("E12", "smoke")
        required = {"write_availability_pct", "writes_ok_after",
                    "follower_reads_per_sim_s", "victim_availability_pct",
                    "failover_ms"}
        assert required <= set(result.headers)
        for row in result.rows:
            assert required <= set(row)
        baseline = next(row for row in result.rows
                        if "no replication" in row["configuration"])
        promoted = [row for row in result.rows
                    if "writable failover" in row["configuration"]]
        assert baseline["write_availability_pct"] == 0.0
        assert promoted and all(row["write_availability_pct"] > 0.0
                                for row in promoted)

    def test_e13_online_rebalance_keeps_foreground_alive(self):
        """E13: a prefix moves between shards with zero committed-link loss,
        nonzero foreground link+read throughput *during* the move, and the
        moved prefix promotable from the destination's witness set."""

        result = run_experiment("E13")
        by_phase = {row["phase"]: row for row in result.rows}
        during = next(row for row in result.rows
                      if row["phase"].startswith("during move"))
        failover = next(row for row in result.rows
                        if "after dest failover" in row["phase"])
        # the move actually moved something, and lost nothing
        assert during["moved_files"] > 0
        for row in result.rows:
            assert row["committed_links_lost"] == 0
        assert during["move_ms"] > 0
        # foreground traffic kept flowing inside the 2PC hand-off; reads
        # of the moving prefix are dual-served from the pre-export
        # snapshot, so the move is read-invisible (100%, not merely >0)
        assert during["reads_ok"] > 0 and during["links_ok"] > 0
        assert during["read_availability_pct"] == 100.0
        assert during["link_availability_pct"] > 0
        # the moving prefix itself was back-pressured, not failed
        assert during["links_blocked"] > 0
        # old URLs resolve on the new owner afterwards
        after = by_phase["after move (old URLs, new owner)"]
        assert after["read_availability_pct"] == 100.0
        assert after["link_availability_pct"] == 100.0
        # witness placement followed the prefix: promotion on the
        # destination serves the moved files
        assert failover["reads_ok"] > 0 and failover["reads_failed"] == 0
        assert failover["move_ms"] > 0      # the promotion was timed

    def test_e13_smoke_rows_have_rebalance_shape(self):
        """CI gate: the smoke-mode E13 rows (what BENCH_smoke.json records)
        carry the availability and loss columns, and the dual-served
        read availability stays at 100% during the move."""

        result = run_experiment("E13", "smoke")
        required = {"read_availability_pct", "link_availability_pct",
                    "committed_links_lost", "moved_files", "links_blocked",
                    "ops_per_sim_s", "move_ms"}
        assert required <= set(result.headers)
        for row in result.rows:
            assert required <= set(row)
            assert row["committed_links_lost"] == 0
        during = next(row for row in result.rows
                      if row["phase"].startswith("during move"))
        assert during["read_availability_pct"] == 100.0
        assert during["link_availability_pct"] > 0
        assert during["ops_per_sim_s"] > 0

    def test_e14_balancer_beats_static_hash(self):
        """E14: under zipf skew the self-driving balancer beats static
        hash placement on max-shard load share and p99 link latency,
        respects its move budget, and loses no committed links."""

        result = run_experiment("E14")
        by_variant = {row["variant"]: row for row in result.rows}
        static, balanced = by_variant["static hash"], by_variant["balanced"]
        # the balancer acted, and entirely on its own initiative
        assert balanced["moves"] > 0
        assert balanced["placement_epoch"] > static["placement_epoch"]
        # governed: never more moves in a tick than the budget allows
        assert balanced["max_moves_per_tick"] <= balanced["move_budget"]
        # the win: better balance AND a better tail
        assert balanced["max_shard_load_share"] \
            < static["max_shard_load_share"]
        assert balanced["link_p99_ms"] < static["link_p99_ms"]
        assert balanced["read_p99_ms"] < static["read_p99_ms"]
        # and nothing was lost along the way
        for row in result.rows:
            assert row["committed_links_lost"] == 0

    def test_e14_smoke_rows_have_balancer_shape(self):
        """CI gate: the smoke-mode E14 rows (what BENCH_smoke.json
        records) carry the comparison columns and still show the
        balanced variant winning within its budget."""

        result = run_experiment("E14", "smoke")
        required = {"variant", "max_shard_load_share", "link_p99_ms",
                    "read_p99_ms", "moves", "max_moves_per_tick",
                    "move_budget", "splits", "links_blocked",
                    "committed_links_lost", "placement_epoch"}
        assert required <= set(result.headers)
        for row in result.rows:
            assert required <= set(row)
            assert row["committed_links_lost"] == 0
        by_variant = {row["variant"]: row for row in result.rows}
        static, balanced = by_variant["static hash"], by_variant["balanced"]
        assert balanced["moves"] > 0
        assert balanced["max_moves_per_tick"] <= balanced["move_budget"]
        assert balanced["max_shard_load_share"] \
            < static["max_shard_load_share"]
        assert balanced["link_p99_ms"] < static["link_p99_ms"]

    def test_e9_reports_token_cache_hit_rate(self):
        """The web workload runs with the host token cache on by default and
        the rdd row shows the hot-page hit rate.  A session-sweep row
        reports its handout in the ``handout_ms`` column, not in its label:
        labels key ``profile_steps``, so a cost must not move one."""

        result = run_experiment("E9", "smoke")
        assert {"token_cache_hit_pct", "handout_ms"} <= set(result.headers)
        rdd = next(row for row in result.rows
                   if "rdd" in row["configuration"])
        assert rdd["token_cache_hit_pct"] > 0.0
        swept = [row for row in result.rows
                 if "session sweep" in row["configuration"]]
        assert [row["configuration"] for row in swept] == [
            f"rdd session sweep, {clients} sessions, admission limit 2"
            for clients in (2, 4)]
        assert all(row["handout_ms"] > 0.0 for row in swept)
        # The mix rows measure no handout: the cell is empty, not a zero
        # that would drag down the sim_ms mean.
        assert all(row["handout_ms"] is None for row in result.rows
                   if row not in swept)
        assert result.to_dict()["sim_ms"]["handout_ms"] == pytest.approx(
            sum(row["handout_ms"] for row in swept) / len(swept))

    def test_e11_scaleout_beats_baseline_by_1_5x(self):
        result = run_experiment("E11")
        by_config = {row["configuration"]: row for row in result.rows}
        scaled = by_config["8 shards, batched links, group commit"]
        baseline = by_config["1 server, per-row links, immediate flush"]
        assert scaled["speedup_vs_baseline"] >= 1.5
        # group commit visibly reduces host log forces
        assert scaled["host_log_flushes"] < baseline["host_log_flushes"]
        # sharding spreads the linked files across servers
        assert scaled["max_links_per_shard"] < baseline["max_links_per_shard"]

    def test_e11_clock_domains_beat_serial_clock_from_parallelism_alone(self):
        """With batching and group commit both disabled, 8 shards must win
        >=1.5x over 1 shard purely from clock-domain overlap, and the
        per-node clock must never run slower than the old serial model."""

        result = run_experiment("E11")
        by_config = {row["configuration"]: row for row in result.rows}
        parallel = by_config["8 shards, per-row links, immediate flush"]
        one_server = by_config["1 server, per-row links, immediate flush"]
        serial_8 = by_config[
            "8 shards, per-row links, immediate flush, serial clock"]
        serial_1 = by_config[
            "1 server, per-row links, immediate flush, serial clock"]
        # parallelism alone: no batching, no group commit, same shard count
        assert parallel["links_per_sim_s"] >= 1.5 * one_server["links_per_sim_s"]
        # the clock-domain model must not be slower than the serial baseline
        assert parallel["links_per_sim_s"] >= serial_8["links_per_sim_s"]
        assert one_server["links_per_sim_s"] >= serial_1["links_per_sim_s"]
        # under the serial clock, extra shards only added 2PC fan-out cost --
        # the regression E11 used to hide
        assert serial_8["links_per_sim_s"] <= serial_1["links_per_sim_s"]

    def test_e1_token_cache_row_reports_hits(self):
        result = run_experiment("E1")
        cache_rows = [row for row in result.rows
                      if "token cache" in row["statement"]]
        assert len(cache_rows) == 1
        # the warm-up call misses; every measured retrieval hits
        assert "hit rate 0." in cache_rows[0]["statement"] or \
            "hit rate 1.00" in cache_rows[0]["statement"]
        generated = [row for row in result.rows
                     if row["statement"].endswith("read-token generation")]
        # a cache hit skips HMAC generation, so it must be cheaper
        assert cache_rows[0]["mean_ms"] < generated[0]["mean_ms"]
