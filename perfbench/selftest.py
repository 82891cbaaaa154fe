"""Self-test of the benchmark at tiny sizes (T=50), about a minute.

    python3 perfbench/selftest.py

Checks that:
1. run.py prints exactly the metric names of BENCHMARK.json, with
   tracing off and on, and a correct result;
2. the traced sweep reproduces the untraced one cell by cell, and the
   wrappers are gone afterwards;
3. a failing cell (episode error, broken certificate, reference
   mismatch) is counted, not fatal;
4. run.py fails, printing no result, without the program's sources.
Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from corectron import harness, numkit  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

T = 50


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def run_py(workload: str, trace: int, cwd: str = ROOT, script: str = run.__file__):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace), "--horizon", str(T)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_names() -> None:
    with open(run.BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    check([w["name"] for w in bench["workloads"]] == list(workloads.NAMES),
          "BENCHMARK.json lists the workloads of workloads.py")
    for trace in (0, 1):
        proc = run_py("kernel-long", trace)
        check(proc.returncode == 0, f"run.py --trace {trace} exits 0 ({proc.stderr[-300:]})")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        check(sorted(out) == ["attempted", "correct", "failed", "metrics"], "result has exactly the four keys")
        want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        check(got == want, f"--trace {trace} metric names and units match BENCHMARK.json")
        check(out["correct"] and out["failed"] == 0 and out["attempted"] > 0, f"--trace {trace} result is correct")


def originals() -> list:
    return [getattr(owner, attr, None) for owner, attr, _, _ in tracing.WRAPPED]


def test_traced_sweep_matches() -> None:
    before = originals()
    for name in workloads.NAMES:
        config = workloads.config_for(name, 7, T)
        plain = harness.sweep(config, jobs=1)
        spans = tracing.Spans()
        with tracing.installed(spans):
            traced = harness.sweep(config, jobs=1)
        same = [
            (a.final_regret, a.projection_count, [(c.name, c.holds) for c in a.certificates])
            == (b.final_regret, b.projection_count, [(c.name, c.holds) for c in b.certificates])
            for a, b in zip(plain, traced)
        ]
        check(len(plain) == len(traced) and all(same), f"{name}: traced sweep reproduces the untraced one")
        check(spans.episode == len(plain) - 1 and spans.counts.get("learners.updates") == sum(r.horizon for r in plain),
              f"{name}: every episode and update is seen by the wrappers")
        check(originals() == before, f"{name}: wrappers removed")


def test_failures_counted() -> None:
    config = workloads.config_for("linear-wide", 7, T)
    rows = harness.sweep(config, jobs=1)
    reference = {workloads.cell_key(r): [r.final_regret, r.projection_count] for r in rows}
    check(workloads.cell_failures(rows, reference) == {}, "recorded reference passes")

    key = workloads.cell_key(rows[0])
    reference[key] = [reference[key][0] + 1.0, reference[key][1]]
    check(len(workloads.cell_failures(rows, reference)) == 1, "a reference mismatch is one failed cell")

    cert = rows[0].certificates[0]
    rows[0].certificates[0] = type(cert)(cert.name, 1.0, 0.0, 0.0)
    check(len(workloads.cell_failures(rows, None)) == 1, "a broken certificate is one failed cell")

    original = numkit.SpdInverse.rank_one_update

    def corrupted(self, g):
        raise FloatingPointError("injected")

    numkit.SpdInverse.rank_one_update = corrupted
    try:
        failed_rows = harness.sweep(config, jobs=1)
    finally:
        numkit.SpdInverse.rank_one_update = original
    problems = workloads.cell_failures(failed_rows, None)
    expected = sum(r.algorithm in ("corectron_l", "ons") for r in failed_rows)
    check(len(failed_rows) == len(rows) and len(problems) == expected,
          f"episode errors are counted ({len(problems)} of {len(failed_rows)} cells), the sweep goes on")


def test_bare_directory_fails() -> None:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.BENCHMARK_JSON, bare)
    proc = run_py("kernel-long", 0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without src/ run.py exits nonzero and prints no result")


if __name__ == "__main__":
    test_traced_sweep_matches()
    test_failures_counted()
    test_bare_directory_fails()
    test_metric_names()
    print("selftest passed")
