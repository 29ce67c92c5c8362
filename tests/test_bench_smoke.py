"""Smoke test of the benchmark's traced runs on the exact workloads.

A traced run reports ``correct: false`` when a function that a workload
names as exercised exists but is never called. A fast path that stops
calling such a function (for example an integer route that bypasses
``symmetric.inner_product``) would pass every library test and still break
the benchmark, so each traced run here must be correct and print no
"was never called" line. Both runs together take a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["scan", "project"])
def test_traced_run_is_correct_and_calls_every_exercised_function(workload):
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--trace", "1", "--seconds", "1", "--seed", "3"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "was never called" not in result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["correct"] is True, result.stderr
    assert report["failed"] == 0
