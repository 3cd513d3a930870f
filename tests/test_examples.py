"""The example scripts are part of the contract: each runs standalone."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_and_prints(script, tmp_path):
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src") + (
        os.pathsep + inherited if inherited else ""))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip(), f"{script.name} printed nothing"
