"""The benchmark contract: nvbench/run.py still runs against the package.

The traced run installs nvbench/tracer.py, which patches every nvdeer
name the benchmark touches, so a refactor that renames or drops one of
them fails here instead of only in a benchmark run.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_workload(workload, trace):
    proc = subprocess.run(
        [sys.executable, "nvbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0
    assert result["attempted"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_rabi_nutation_benchmark_runs(trace):
    _run_workload("rabi-nutation", trace)


def test_spectrum_fit_benchmark_runs():
    # the fit stages with the tracer's patches: DeerFixedParams and the
    # stage functions' call forms as the benchmark uses them
    _run_workload("spectrum-fit", "1")
