"""Benchmark harness reproducing the paper's evaluation claims (E1..E9).

``python -m repro.bench`` runs every experiment and prints its tables; the
committed ``BENCH_smoke.json`` and ``BENCH_large.json`` record them for the
smoke and large tiers.
"""

from repro.bench.metrics import ExperimentResult, format_table
from repro.bench.experiments import ALL_EXPERIMENTS, run_experiment

__all__ = ["ExperimentResult", "format_table", "ALL_EXPERIMENTS", "run_experiment"]
