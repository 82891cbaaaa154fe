"""The corectron benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each measurement runs in a fresh
single process (``perfbench/measure.py``) with BLAS pinned to one thread
through its environment, importing corectron from ``src/``.

``--trace 0`` prints every end-to-end metric of BENCHMARK.json;
``setup_s`` is the median of twenty fresh-process set-ups, ten
before and ten after the measurement.
``--trace 1`` prints every per-layer metric and writes the spans.
Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is nonzero, with no result printed, when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
MEASURE = os.path.join(HERE, "measure.py")
OUT = os.path.join(HERE, "out")

SETUP_RUNS = 10
DEADLINE_S = 175.0
SETUP_TIMEOUT_S = 5.0
PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PIN)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    return env


def measure(mode: str, args, timeout: float) -> dict:
    cmd = [sys.executable, MEASURE, mode, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.horizon is not None:
        cmd += ["--horizon", str(args.horizon)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} measurement exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} measurement exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} measurement printed nothing")
    return json.loads(lines[-1])


def declared(bench: dict, trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="corectron benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Shrinks every episode; only the self-test passes it.
    ap.add_argument("--horizon", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "corectron", "__init__.py")):
        raise BenchError("src/corectron is missing: run from the root of a corectron checkout")
    os.makedirs(OUT, exist_ok=True)

    units = declared(bench, bool(args.trace))
    metrics: dict = {}
    setup_runs: list[float] = []
    if not args.trace:
        setup_runs += [measure("setup", args, SETUP_TIMEOUT_S)["setup_s"] for _ in range(SETUP_RUNS)]
    left = DEADLINE_S - (time.perf_counter() - start) - SETUP_RUNS * SETUP_TIMEOUT_S * (not args.trace)
    result = measure("trace" if args.trace else "run", args, left)
    metrics.update(result["metrics"])
    if not args.trace:
        # Half the set-ups before the measurement and half after, so one
        # slow spell of the machine cannot cover all of them.
        setup_runs += [measure("setup", args, SETUP_TIMEOUT_S)["setup_s"] for _ in range(SETUP_RUNS)]
        metrics["setup_s"] = statistics.median(setup_runs)

    if set(metrics) != set(units):
        raise BenchError(
            f"metric names differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}"
        )
    result["setup_runs_s"] = setup_runs
    result["args"] = vars(args)
    name = f"{args.workload}-s{args.seed}-{'trace' if args.trace else 'run'}-result.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(result, fh, indent=1)

    prov = result["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {prov['python']}  numpy {prov['numpy']}  scipy {prov['scipy']}  "
          f"blas threads {[b.get('threads') for b in prov['blas']]}  backend {prov['backend']}")
    for key in units:
        print(f"  {key:<44} {metrics[key]:>14.6g} {units[key]}")
    if not args.trace:
        for key, value in result["detail"].items():
            unit = "frac" if key == "failed_frac" else "us"
            print(f"  {key:<44} {value:>14.6g} {unit}   (detail)")
    print(f"  cells attempted {result['attempted']}, failed {result['failed']}, "
          f"reference {'checked' if result['reference_checked'] else 'not recorded for this seed'}")
    for problem in result["problems"][:20]:
        print(f"  FAILED {problem}")

    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
