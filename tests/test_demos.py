"""Run the demos and the README's library quick start end to end, each in
its own interpreter.

Demo 01 is left out: its random-search tuning makes it take about 40 s,
several times the other three together.
"""

import os
import re
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


def test_readme_quick_start_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        [code] = re.findall(r"^```python\n(.*?)^```", handle.read(), re.DOTALL | re.MULTILINE)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
