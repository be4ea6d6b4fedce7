"""The benchmark's quick mode, run as a test so that its harness and its
own arithmetic checks (witnesses, cross-route verdicts) keep working."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_finite_status_quick_run_is_correct():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"),
         "--workload", "finite-status", "--seed", "1", "--seconds", "1",
         "--quick", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
