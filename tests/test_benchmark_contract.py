"""The benchmark in ``perfbench/`` calls the package's entry points by
name (``CholFactor.solve``, ``project_ellipsoid_coeff``, the traced
learner methods, ``harness.sweep``); its self-test keeps them honest.
Its gate compares every cell with ``perfbench/references.json``; the
seeds replayed here are those whose cells sit at rounding-noise ties."""

import os
import subprocess
import sys

import pytest

from corectron import harness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


@pytest.mark.parametrize(
    "name, seed",
    [("linear-wide", s) for s in (5, 9, 11)] + [("kernel-long", s) for s in (0, 2, 5, 6)],
)
def test_gate_holds_on_tie_seeds(name, seed):
    # the full-size workload cell for cell against the recorded references
    results = harness.sweep(workloads.config_for(name, seed), jobs=1)
    assert workloads.cell_failures(results, workloads.reference_for(name, seed, None)) == {}
