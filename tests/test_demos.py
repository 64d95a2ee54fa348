"""Smoke test: every script in demos/ runs to completion, with warnings
raised as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-W", "error", str(script)],
                            env=env, cwd=tmp_path, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
