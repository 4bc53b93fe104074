"""Run the demos end to end, each in its own interpreter.

Demo 01 is left out: its random-search tuning makes it take about 40 s,
several times the other three together.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "demo",
    ["02_objectives_tour.py", "03_generate_counterfactuals.py", "04_small_benchmark.py"],
)
def test_demo_runs(demo, tmp_path):
    # demo 04 writes its report to a temporary directory
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
