"""Which code loads scipy.linalg, each case in a fresh interpreter.

numpy serves every routine of the explicit learners, the baselines'
ball projection, the certificates and the CLI's ``certify`` and
``best``; scipy.linalg is imported only by a kernel learner's
Cholesky factor (and KONS's ellipsoid projection), when it is built.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import corectron

SRC = os.path.dirname(os.path.dirname(os.path.abspath(corectron.__file__)))


def run_fresh(code: str, tmp_path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_explicit_run_certify_and_best_leave_scipy_linalg_unloaded(tmp_path):
    out = run_fresh("""
        import glob, json, sys
        import corectron
        assert "scipy.linalg" not in sys.modules, "import corectron"
        from corectron.cli import main
        for setting in ("linear", "noncontextual"):
            out = f"out-{setting}"
            assert main(["run", "--setting", setting, "--algos", "corectron-l,ogd,ons",
                         "--T", "120", "--seeds", "1", "--coef-grid", "0.001,1",
                         "--n", "6", "--m", "3", "--p", "3", "--out", out,
                         "--save-traces"]) == 0
            with open(f"{out}/report.json") as fh:
                report = json.load(fh)
            projections = sum(r["projection_count"] for r in report["results"]
                              if r["algorithm"] == "ons")
            assert projections > 0, f"ONS never projected in the {setting} setting"
            assert set(report["provenance"]["blas"]) == {"numpy"}
            for trace in glob.glob(f"{out}/traces/*.json"):
                assert main(["certify", "--trace", trace]) == 0
            assert main(["best", "--in", f"{out}/results.csv"]) == 0
        print("loaded" if "scipy.linalg" in sys.modules else "not loaded")
    """, tmp_path)
    assert out.splitlines()[-1] == "not loaded"


@pytest.mark.parametrize("learner", [
    'CoRectronK(spec, regularizer=1.0)',
    'KONS(spec, ridge=1.0)',
])
def test_kernel_learners_load_scipy_linalg_when_built(tmp_path, learner):
    out = run_fresh(f"""
        import sys
        import numpy as np
        from corectron import KONS, CoRectronK, KernelSpec, LiftSpec
        spec = LiftSpec.kernelized(4, 3, KernelSpec.rbf(1.0))
        print("scipy.linalg" in sys.modules)
        learner = {learner}
        print("scipy.linalg" in sys.modules)
        z = np.full(3, 0.1)
        learner.predict(z)
        learner.update(z, np.array([1.0, -1.0, 0.0, 0.0]))
    """, tmp_path)
    assert out.splitlines() == ["False", "True"]
