"""Every demo runs to completion from a fresh temporary working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SLOW = {"03_synthetic_rank_recovery.py", "05_embedding_compression.py"}


@pytest.mark.parametrize(
    "demo",
    [
        pytest.param(p.name, marks=[pytest.mark.slow] if p.name in SLOW else [])
        for p in sorted((ROOT / "demos").glob("*.py"))
    ],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
