"""Smoke test: each demo script runs to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [
        "01_bruhat_basics.py",
        "02_exact_counts.py",
        "03_monte_carlo_scaling.py",
        "04_hypergeometric_laws.py",
        "05_sheet_persistence.py",
        "06_fkg_correlation.py",
    ],
)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
