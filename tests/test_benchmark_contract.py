"""The benchmark in ``perfbench/`` calls the package's entry points by
name (``CholFactor.solve``, ``project_ellipsoid_coeff``, the traced
learner methods, ``harness.sweep``); its self-test keeps them honest."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
