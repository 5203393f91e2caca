"""The demos run end to end: each is started as its own process against
the source tree, so a renamed function or a changed signature breaks a test
rather than only the demo. demos/ablations.py takes minutes and stays out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, line", [
    ("gradient_check.py", "OK, below 1e-3"),
    ("quickstart.py", "VUS-PR"),
])
def test_demo_runs(script, line):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    r = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert line in r.stdout
