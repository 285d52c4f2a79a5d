"""The benchmark's own test: python3 -m pytest perfbench/test_smoke.py

Runs every workload at a tiny size in both trace modes and checks that each
metric BENCHMARK.json names is emitted with its unit, with no failed call.
"""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_smoke_emits_every_metric():
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
