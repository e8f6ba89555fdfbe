"""The benchmark's known answers (perfbench/selfcheck.py) guard the library
on every test run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selfcheck_passes():
    run = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py", "--instances", "8"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "selfcheck: PASS" in run.stdout
