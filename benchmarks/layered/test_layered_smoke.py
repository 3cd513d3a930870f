"""Tier-1 self-test of the layered benchmark (smoke sizes, one rep each).

Checks the emitted schema, that no ``CostModel`` primitive and no source file
can fall out of the layer ledger, that simulated results repeat, and that a
corrupted expected-content table is detected.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(ROOT, "src"), os.path.dirname(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from layered import catalog                                   # noqa: E402
from layered.drivers import DRIVERS                           # noqa: E402
from layered.harness import Calibrator, Meter                 # noqa: E402
from layered.measure import measure                           # noqa: E402
from repro.simclock import CostModel                          # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN = os.path.join(HERE, "run.py")


def test_every_cost_model_field_maps_to_exactly_one_sim_layer():
    primitives = {field.name for field in fields(CostModel)}
    assert primitives == set(catalog.SIM_LAYER_OF_PRIMITIVE)
    assert set(catalog.SIM_LAYER_OF_PRIMITIVE.values()) == \
        set(catalog.SIM_LAYERS)
    assert catalog.sim_layer_of("dlfm.row_read") == "dlfm"
    with pytest.raises(KeyError):
        catalog.sim_layer_of("no_such_primitive")


def test_every_source_file_maps_to_exactly_one_host_layer():
    source = os.path.join(ROOT, "src", "repro")
    seen = set()
    for folder, _dirs, files in os.walk(source):
        for name in files:
            if name.endswith(".py"):
                relpath = os.path.relpath(os.path.join(folder, name), source)
                seen.add(catalog.host_layer_of(relpath.replace(os.sep, "/")))
    assert seen <= set(catalog.HOST_LAYERS)
    # Every layer but the two that hold no file of src/repro is populated.
    assert set(catalog.HOST_LAYERS) - seen <= {"builtins"}
    with pytest.raises(KeyError):
        catalog.host_layer_of("newpackage/module.py")
    with pytest.raises(KeyError):
        catalog.host_layer_of("datalinks/new_module.py")


def test_metric_catalogue_is_well_formed():
    per_layer = catalog.per_layer_catalog()
    names = [metric["name"] for metric in catalog.END_TO_END + per_layer]
    assert len(names) == len(set(names))
    assert len(per_layer) <= 128 and len(catalog.END_TO_END) <= 16
    for metric in catalog.END_TO_END + per_layer:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in catalog.END_TO_END if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in catalog.END_TO_END)
    assert setup[0]["bound"] == max(m["bound"] for m in catalog.END_TO_END)
    known = set(names)
    for row in catalog.MOVES:
        assert set(row["layer_metrics"]) <= known, row
        for target in row["moves"]:
            assert target["metric"] in known
            assert target["workload"] in catalog.WORKLOADS


def test_benchmark_json_carries_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert document["paths"] == ["benchmarks/layered"]
    assert document["command"] == ["python3", "benchmarks/layered/run.py"]
    assert document["run_seconds"] == catalog.RUN_SECONDS
    assert [w["name"] for w in document["workloads"]] == \
        list(catalog.WORKLOADS)
    assert document["end_to_end"] == catalog.END_TO_END
    assert document["per_layer"] == catalog.per_layer_catalog()


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_smoke_run_emits_every_metric_and_repeats(workload):
    traced = measure(workload, seed=7, seconds=0.0, trace=True, smoke=True,
                     reps=1)
    assert traced["failures"] == []
    assert traced["failed"] == 0 and traced["attempted"] > 0
    assert list(traced["metrics"]) == \
        [metric["name"] for metric in catalog.per_layer_catalog()]
    assert list(traced["end_to_end_preview"]) == \
        [metric["name"] for metric in catalog.END_TO_END]
    assert all(value > 0 for value in traced["end_to_end_preview"].values())
    again = measure(workload, seed=7, seconds=0.0, trace=False, smoke=True,
                    reps=1)
    assert again["digest"] == traced["digest"]
    other_seed = measure(workload, seed=8, seconds=0.0, trace=False,
                         smoke=True, reps=1)
    assert other_seed["digest"] != traced["digest"]
    shares = sum(value for name, value in traced["metrics"].items()
                 if name.endswith(".host_share"))
    assert abs(shares - 1.0) < 1e-9
    if workload != "cluster_hotspot":
        assert traced["metrics"]["cluster.host_share"] == 0.0


def test_corrupted_expected_content_is_detected():
    driver = DRIVERS["web_rfd"](catalog.WORKLOADS["web_rfd"]["smoke"], 7)
    calibrator = Calibrator()
    meter = Meter(calibrator)
    meter.start()
    driver.setup(meter)
    hottest = max(set(driver.files), key=driver.files.count)
    driver.expected[hottest] = b"not what was written"
    meter = Meter(calibrator)
    meter.start()
    assert driver.run(meter).failed > 0


def test_command_line_contract(tmp_path):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "edit_uip", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--smoke", "--reps", "1"],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == \
        [metric["name"] for metric in catalog.END_TO_END]
    for cell in result["metrics"].values():
        assert set(cell) == {"value", "unit"}
    # Away from the repository (no src/) it must fail without a result line.
    lonely = tmp_path / "benchmarks" / "layered"
    shutil.copytree(HERE, lonely,
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    done = subprocess.run(
        [sys.executable, str(lonely / "run.py"), "--workload", "web_rfd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
