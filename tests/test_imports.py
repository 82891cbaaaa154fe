"""Which code loads scipy's BLAS module and scipy.linalg, each case in a
fresh interpreter.

``import corectron`` loads numpy alone.  Every learner but OGD loads
scipy's BLAS module, ``scipy.linalg.cython_blas``, when it is built,
without importing scipy.linalg; only KONS's first ellipsoid projection
imports scipy.linalg, which then reuses that module.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import corectron
from corectron.numkit import SCIPY_BLAS as BLAS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(corectron.__file__)))


def run_fresh(code: str, tmp_path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_neither_scipy_linalg_nor_its_blas(tmp_path):
    out = run_fresh(f"""
        import sys
        import corectron
        print("scipy.linalg" in sys.modules, {BLAS!r} in sys.modules)
    """, tmp_path)
    assert out.splitlines() == ["False False"]


def test_explicit_run_certify_and_best_leave_scipy_linalg_unloaded(tmp_path):
    out = run_fresh(f"""
        import glob, json, sys
        from corectron.cli import main
        for setting in ("linear", "noncontextual"):
            out = f"out-{{setting}}"
            assert main(["run", "--setting", setting, "--algos", "corectron-l,ogd,ons",
                         "--T", "120", "--seeds", "1", "--coef-grid", "0.001,1",
                         "--n", "6", "--m", "3", "--p", "3", "--out", out,
                         "--save-traces"]) == 0
            with open(f"{{out}}/report.json") as fh:
                report = json.load(fh)
            projections = sum(r["projection_count"] for r in report["results"]
                              if r["algorithm"] == "ons")
            assert projections > 0, f"ONS never projected in the {{setting}} setting"
            assert set(report["provenance"]["blas"]) == {{"numpy", "scipy"}}
            for trace in glob.glob(f"{{out}}/traces/*.json"):
                assert main(["certify", "--trace", trace]) == 0
            assert main(["best", "--in", f"{{out}}/results.csv"]) == 0
        assert {BLAS!r} in sys.modules
        print("loaded" if "scipy.linalg" in sys.modules else "not loaded")
    """, tmp_path)
    assert out.splitlines()[-1] == "not loaded"


def test_kernel_run_and_certify_leave_scipy_linalg_unloaded(tmp_path):
    out = run_fresh(f"""
        import glob, json, sys
        from corectron.cli import main
        assert main(["run", "--setting", "kernel", "--algos", "corectron-k",
                     "--T", "120", "--seeds", "1", "--coef-grid", "0.01,1",
                     "--n", "6", "--m", "3", "--p", "3", "--out", "out",
                     "--save-traces"]) == 0
        with open("out/report.json") as fh:
            assert set(json.load(fh)["provenance"]["blas"]) == {{"numpy", "scipy"}}
        traces = glob.glob("out/traces/*.json")
        assert len(traces) == 2
        for trace in traces:
            assert main(["certify", "--trace", trace]) == 0
        assert {BLAS!r} in sys.modules
        print("loaded" if "scipy.linalg" in sys.modules else "not loaded")
    """, tmp_path)
    assert out.splitlines()[-1] == "not loaded"


@pytest.mark.parametrize("learner", [
    'CoRectron(LiftSpec.linear(4, 3), regularizer=1.0)',
    'ONS(LiftSpec.linear(4, 3), ridge=1.0)',
    'CoRectronK(LiftSpec.kernelized(4, 3, KernelSpec.rbf(1.0)), regularizer=1.0)',
    'KONS(LiftSpec.kernelized(4, 3, KernelSpec.rbf(1.0)), ridge=1.0)',
])
def test_second_order_learners_load_the_blas_module_when_built(tmp_path, learner):
    out = run_fresh(f"""
        import sys
        import numpy as np
        from corectron import KONS, ONS, CoRectron, CoRectronK, KernelSpec, LiftSpec
        print({BLAS!r} in sys.modules)
        learner = {learner}
        print({BLAS!r} in sys.modules)
        z = np.full(3, 0.1)
        learner.predict(z)
        learner.update(z, np.array([0.1, -0.1, 0.0, 0.0]))
        print("scipy.linalg" in sys.modules)
    """, tmp_path)
    assert out.splitlines() == ["False", "True", "False"]


def test_kons_first_projection_imports_scipy_linalg(tmp_path):
    out = run_fresh("""
        import sys
        import numpy as np
        from corectron import KONS, KernelSpec, LiftSpec
        learner = KONS(LiftSpec.kernelized(4, 3, KernelSpec.rbf(1.0)), ridge=1e-3)
        rng = np.random.default_rng(0)
        for t in range(50):
            before = "scipy.linalg" in sys.modules
            z = rng.standard_normal(3)
            learner.predict(z)
            if learner.update(z, np.array([1.0, -1.0, 0.0, 0.0])).projected:
                break
        else:
            raise AssertionError("KONS never projected")
        print(before, "scipy.linalg" in sys.modules)
    """, tmp_path)
    assert out.splitlines() == ["False True"]


@pytest.mark.parametrize("accessor_first", [True, False])
def test_scipy_linalg_shares_the_accessors_blas_module(tmp_path, accessor_first):
    out = run_fresh(f"""
        import sys
        from corectron.numkit import scipy_blas
        if {accessor_first}:
            blas = scipy_blas()
            assert "scipy.linalg" not in sys.modules
            import scipy.linalg
        else:
            import scipy.linalg
            blas = scipy_blas()
        from scipy.linalg import cython_blas
        print(blas is sys.modules[{BLAS!r}] is cython_blas)
    """, tmp_path)
    assert out.splitlines() == ["True"]


def test_blas_accessor_has_no_fallback(tmp_path):
    # Without the module's file in scipy's directory, the accessor raises
    # and names the directory it searched.
    out = run_fresh("""
        import os, scipy
        from corectron.numkit import scipy_blas
        scipy.__file__ = os.path.abspath(os.path.join("scipy", "__init__.py"))
        try:
            scipy_blas()
        except ImportError as exc:
            print(exc)
    """, tmp_path)
    assert out.splitlines() == [f"{BLAS} not found in {tmp_path / 'scipy' / 'linalg'}"]
