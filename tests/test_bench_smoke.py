"""The benchmark's quick mode, run as a test so that its harness, its own
arithmetic checks (witnesses, cross-route verdicts) and its tracer keep
working.  The tracer wraps library functions by name, so renaming one of
them fails here rather than in the benchmark."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quick_traced_run(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--quick", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    return result


def test_finite_status_quick_run_is_correct():
    metrics = _quick_traced_run("finite-status")["metrics"]
    # one row reduction per solve_array, and no solver built per tuple
    assert metrics["gf_core.rref_calls"]["value"] < 2.0
    assert metrics["gf_core.solver_builds"]["value"] == 0


def test_presentation_lifts_quick_run_is_correct():
    metrics = _quick_traced_run("presentation-lifts")["metrics"]
    # found lifts are checked in one batched pass over packed entries,
    # not by a Python walk of every relator per lift
    assert metrics["groups.evaluate_word_calls"]["value"] == 0
    assert metrics["unitriangular.uni_mul_calls"]["value"] == 0
    # one exponent-sum solver per (presentation, p), not one per search
    assert metrics["gf_core.solver_builds"]["value"] < 1.0
    # the same lifts as before that change, at this seed
    assert metrics["massey.lifts_found"]["value"] == pytest.approx(716.47,
                                                                  abs=0.005)


def test_cli_jobs_quick_run_is_correct():
    _quick_traced_run("cli-jobs")
