"""One benchmark measurement in a fresh process; ``run.py`` starts it.

    python3 perfbench/measure.py {setup,run,trace} --workload W --seed N
        --seconds S [--horizon T]

* ``setup``: times ``import corectron`` plus building every Environment
  the workload uses.
* ``run``: tracing off.  Runs the workload's cells round-robin through
  ``harness.sweep`` (jobs=1) and ``harness.emit`` until the next round
  would overrun ``--seconds``, and reports trimmed means over rounds.
* ``trace``: one untraced sweep, then the same sweep with every layer's
  entry points wrapped, the numkit primitive rows, and the per-layer
  metrics.  Spans and every layer's statistics go to
  ``out/<workload>-s<seed>-trace.json``.

The last line of stdout is one JSON object.  Module imports are kept to
the standard library so ``setup`` times the whole ``import corectron``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time

from run import OUT, PIN

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WARMUP_HORIZON = 20


def _import_corectron() -> None:
    """Import corectron, refusing any copy other than this checkout's."""
    import corectron

    if not os.path.abspath(corectron.__file__).startswith(SRC + os.sep):
        raise ImportError(f"corectron imported from {corectron.__file__}, not from {SRC}")


def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    _import_corectron()
    import workloads
    from corectron import harness

    config = workloads.config_for(args.workload, args.seed, args.horizon)
    for feedback in config.feedback_models:
        for seed in config.seeds:
            harness.make_environment(config, feedback, seed)
    return {"setup_s": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_readback() -> list[dict]:
    """Vendor and effective thread count of every OpenBLAS loaded here,
    read back from the library itself (threadpoolctl is not required)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return []
    out = []
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            entry["error"] = str(exc)
            out.append(entry)
            continue
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.argtypes, threads.restype = [], ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    entry["config"] = config().decode(errors="replace")
        out.append(entry)
    return out


def _importable(name: str) -> bool:
    if importlib.util.find_spec(name) is None:
        return False
    try:
        __import__(name)
    except Exception:  # a broken install counts as not importable
        return False
    return True


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "corectron")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def provenance(args) -> dict:
    import numpy
    import scipy

    kernels = sys.modules.get("corectron._kernels")
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_readback(),
        "blas_pin_env": {v: os.environ.get(v) for v in PIN},
        "numba_importable": _importable("numba"),
        "threadpoolctl_importable": _importable("threadpoolctl"),
        "backend": getattr(kernels, "BACKEND", None),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "horizon_override": args.horizon,
    }


# ---------------------------------------------------------------------------
# untraced run


def _warm_up(config, out_dir) -> None:
    """A short sweep of the same cells, untimed: lazy imports, BLAS
    initialisation and first-touch page faults land here."""
    from dataclasses import replace

    from corectron import harness

    short = replace(config, horizon=min(WARMUP_HORIZON, config.horizon))
    harness.emit(harness.sweep(short, jobs=1), os.path.join(out_dir, "warmup"), short)


def _check(workloads, rows, reference, first) -> dict[str, str]:
    """``{cell: reason}`` for the failed cells of one round; later rounds
    must repeat the first round's outcome exactly."""
    problems = workloads.cell_failures(rows, reference)
    for r in rows:
        key = workloads.cell_key(r)
        if first is not None and first.get(key) != (r.final_regret, r.projection_count):
            problems.setdefault(key, "not deterministic across rounds")
    return problems


def _cells(config) -> list:
    """One single-cell config per cell of ``harness.sweep(config)``, in its
    task order."""
    from dataclasses import replace

    return [
        replace(config, algorithms=(a,), coef_grid=(c,), feedback_models=(f,), seeds=(s,))
        for a in config.algorithms
        for c in config.coef_grid
        for f in config.feedback_models
        for s in config.seeds
    ]


def trimmed_mean(samples) -> float:
    """Mean of ``samples`` without the lowest and the highest tenth.

    The machine's speed moves between a few levels, each held for seconds
    to a minute.  A median snaps to whichever level held longest in the
    run; a mean weighs the levels by their time, so runs that straddle a
    change of level read in between, and their spread over seeds is
    smaller.  Trimming keeps a single stall from moving the result.
    """
    s = sorted(samples)
    k = len(s) // 10
    return statistics.fmean(s[k:len(s) - k])


def cmd_run(args) -> dict:
    """Round-robin over the workload's cells, each through ``harness.sweep``,
    then ``harness.emit`` of the round, until the next round would overrun
    ``--seconds``.  Every cell's wall and learner time is the mean over
    rounds without the fastest and slowest tenth (:func:`trimmed_mean`);
    ``sweep_s`` sums the cells' figures and the emit figure."""
    _import_corectron()
    import workloads
    from corectron import harness

    config = workloads.config_for(args.workload, args.seed, args.horizon)
    reference = workloads.reference_for(args.workload, args.seed, args.horizon)
    out_dir = os.path.join(OUT, f"{args.workload}-s{args.seed}-run")
    cells = _cells(config)
    _warm_up(config, out_dir)

    wall = [[] for _ in cells]
    learner = [[] for _ in cells]
    emit_s, problems, attempted, first = [], [], 0, None
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        rows = []
        for i, cell in enumerate(cells):
            t0 = time.perf_counter()
            (row,) = harness.sweep(cell, jobs=1)
            wall[i].append(time.perf_counter() - t0)
            learner[i].append(row.runtime_seconds)
            rows.append(row)
        t0 = time.perf_counter()
        harness.emit(rows, out_dir, config)
        emit_s.append(time.perf_counter() - t0)
        attempted += len(rows)
        problems += [f"{k}: {v}" for k, v in _check(workloads, rows, reference, first).items()]
        if first is None:
            first = {workloads.cell_key(r): (r.final_regret, r.projection_count) for r in rows}
        now = time.perf_counter()
        if now - start + (now - t_round) > args.seconds:
            break

    cell_wall = [trimmed_mean(w) for w in wall]
    cell_learner = [trimmed_mean(x) for x in learner]

    def round_us(algos) -> float:
        picked = [i for i, r in enumerate(rows) if r.algorithm in algos]
        return sum(cell_learner[i] for i in picked) / sum(rows[i].horizon for i in picked) * 1e6

    metrics = {
        "sweep_s": sum(cell_wall) + trimmed_mean(emit_s),
        "learner_s": sum(cell_learner),
        "round_us.corectron": round_us(workloads.ROLES["corectron"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {f"round_us.{a}": round_us((a,)) for a in config.algorithms}
    detail["failed_frac"] = len(problems) / attempted
    return {
        "metrics": metrics,
        "detail": detail,
        "rounds": len(emit_s),
        "cell_wall_s": wall,
        "cell_learner_s": learner,
        "emit_s": emit_s,
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "reference_checked": reference is not None,
        "cells": [r.to_dict() for r in rows],
    }


# ---------------------------------------------------------------------------
# traced run


def _pct_us(samples_ns, q) -> float:
    """Percentile in microseconds; 0.0 when the layer made no calls."""
    import numpy as np

    return float(np.percentile(samples_ns, q)) / 1e3 if samples_ns else 0.0


def _layer_table(spans) -> dict:
    durations = spans.durations()
    self_ns = spans.self_times()
    return {
        name: {
            "calls": len(d),
            "total_s": sum(d) * 1e-9,
            "self_s": self_ns[name] * 1e-9,
            "p50_us": _pct_us(d, 50),
            "p99_us": _pct_us(d, 99),
        }
        for name, d in sorted(durations.items())
    }


def _role_durations(durations, workloads, role, op) -> list[int]:
    out = []
    for algo in workloads.ROLES[role]:
        out += durations.get(f"learners.{algo}.{op}", [])
    return out


def per_layer_metrics(spans, workloads, results, untraced, prims) -> dict:
    d = spans.durations()
    calls = {name: len(v) for name, v in d.items()}
    m = {
        "lifting.map_for_us.p50": _pct_us(d.get("lifting.map_for", []), 50),
        "lifting.lift_us.p50": _pct_us(d.get("lifting.lift", []), 50),
        "lifting.adjoint_us.p50": _pct_us(d.get("lifting.adjoint", []), 50),
        "lifting.adjoint_us.p99": _pct_us(d.get("lifting.adjoint", []), 99),
        "lifting.kernel_column.calls": calls.get("lifting.kernel_column", 0),
        "environment.oracle_us.p50": _pct_us(d.get("environment.oracle", []), 50),
        "environment.oracle_us.p99": _pct_us(d.get("environment.oracle", []), 99),
        "environment.build_s": statistics.median(d["environment.build"]) * 1e-9,
        "environment.zero_residual_frac": (
            spans.counts.get("learners.zero_residual", 0) / max(1, spans.counts.get("learners.updates", 0))
        ),
        "numkit.project_ball.calls": calls.get("numkit.project_ball", 0),
        "numkit.project_ball_us.p50": _pct_us(d.get("numkit.project_ball", []), 50),
        "numkit.chol_solve.calls": calls.get("numkit.chol_solve", 0),
        "diagnostics.potential_direct_us.p50": _pct_us(d.get("diagnostics.potential_direct", []), 50),
        "diagnostics.post_round_leverage_us.p50": _pct_us(d.get("diagnostics.post_round_leverage", []), 50),
        "diagnostics.post_round_leverage_us.p99": _pct_us(d.get("diagnostics.post_round_leverage", []), 99),
        "diagnostics.certificates_s": sum(d.get("diagnostics.certificates", [])) * 1e-9,
        "diagnostics.certificates.count": sum(len(r.certificates) for r in results),
        "harness.loop_nonlearner_s": sum(r.total_seconds - r.runtime_seconds for r in untraced["rows"]),
        "harness.emit_s": untraced["emit_s"],
        "trace.overhead_frac": untraced["traced_wall_s"] / untraced["sweep_s"] - 1.0,
    }
    for role in workloads.ROLES:
        for op in ("predict", "update"):
            samples = _role_durations(d, workloads, role, op)
            m[f"learners.{role}.{op}_us.p50"] = _pct_us(samples, 50)
            m[f"learners.{role}.{op}_us.p99"] = _pct_us(samples, 99)
        m[f"learners.{role}.rounds"] = len(_role_durations(d, workloads, role, "update"))
    m.update(prims)
    return m


def cmd_trace(args) -> dict:
    _import_corectron()
    import primitives
    import tracing
    import workloads
    from corectron import harness

    config = workloads.config_for(args.workload, args.seed, args.horizon)
    reference = workloads.reference_for(args.workload, args.seed, args.horizon)
    out_dir = os.path.join(OUT, f"{args.workload}-s{args.seed}-trace")
    _warm_up(config, out_dir)

    t0 = time.perf_counter()
    rows = harness.sweep(config, jobs=1)
    t1 = time.perf_counter()
    harness.emit(rows, os.path.join(out_dir, "untraced"), config)
    t2 = time.perf_counter()

    spans = tracing.Spans()
    with tracing.installed(spans):
        traced = spans.call("harness.sweep", harness.sweep, config, jobs=1)
        spans.episode = -1
        spans.call("harness.emit", harness.emit, traced, os.path.join(out_dir, "traced"), config)
    t3 = time.perf_counter()

    untraced_bad = workloads.cell_failures(rows, reference)
    traced_bad = workloads.cell_failures(traced, reference)
    for u, t in zip(rows, traced):
        if (u.final_regret, u.projection_count) != (t.final_regret, t.projection_count):
            traced_bad.setdefault(
                workloads.cell_key(t),
                f"traced sweep gave {t.final_regret!r} / {t.projection_count}, "
                f"untraced sweep gave {u.final_regret!r} / {u.projection_count}",
            )
    problems = [f"{k}: {v}" for k, v in untraced_bad.items()]
    problems += [f"traced {k}: {v}" for k, v in traced_bad.items()]

    prims = primitives.primitive_rows()
    untraced = {"rows": rows, "sweep_s": t2 - t0, "emit_s": t2 - t1, "traced_wall_s": t3 - t2}
    metrics = per_layer_metrics(spans, workloads, traced, untraced, prims)
    layers = _layer_table(spans)
    trace_path = os.path.join(OUT, f"{args.workload}-s{args.seed}-trace.json")
    with open(trace_path, "w") as fh:
        json.dump({
            "metrics": metrics,
            "layers": layers,
            "span_columns": ["name", "start_ns", "end_ns", "parent", "episode"],
            "spans": spans.rows,
        }, fh, separators=(",", ":"))
    return {
        "metrics": metrics,
        "detail": {"layers": layers, "spans": len(spans.rows), "trace_file": os.path.relpath(trace_path, ROOT)},
        "attempted": 2 * len(rows),
        "failed": len(problems),
        "problems": problems,
        "reference_checked": reference is not None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--horizon", type=int, default=None)
    args = ap.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    out = {"setup": cmd_setup, "run": cmd_run, "trace": cmd_trace}[args.mode](args)
    if args.mode != "setup":
        out["provenance"] = provenance(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
