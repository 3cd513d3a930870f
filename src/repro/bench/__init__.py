"""Benchmark harness reproducing the paper's evaluation claims (E1..E14).

``python -m repro.bench`` runs every experiment and prints its tables; the
committed ``BENCH_smoke.json`` and ``BENCH_large.json`` record them for the
smoke and large tiers; ``--list`` prints the index of experiments, running none.
"""

import repro.bench.experiments  # noqa: F401 -- the declarations fill EXPERIMENTS
from repro.bench.metrics import ExperimentResult, format_table
from repro.bench.runner import EXPERIMENTS, run_experiment

__all__ = ["ExperimentResult", "format_table", "EXPERIMENTS", "run_experiment"]
