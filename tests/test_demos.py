"""Every demo runs to completion against this checkout's dudasim.

Each runs in a fresh interpreter in an empty working directory, because
demo 03 writes its CSV to the working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dudasim

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SLOW = {"04_monte_carlo_campaign.py", "05_attempt_models.py"}  # about 10 s and 4 s


@pytest.mark.parametrize("name", [
    pytest.param(p.name, marks=pytest.mark.slow) if p.name in SLOW else p.name
    for p in sorted(DEMOS.glob("*.py"))
])
def test_demo_runs(name, tmp_path):
    src = str(Path(dudasim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == (["deployment_snapshot.csv"] if name.startswith("03_") else [])
