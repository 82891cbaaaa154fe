"""Same-answers check over a 234-cell full-diagnostic grid.

    python tools/grid_check.py run OUT.json
    python tools/grid_check.py compare A.json B.json

``run`` plays every cell of the grid below with the ``src/`` of the
checkout this file sits in, BLAS pinned to one thread before numpy
loads, and writes one record per cell: digests of the ``RunResult``
without its timings, of each field of the trace JSON and of the action
the harness recommended in each round (recorded by wrapping
``harness.top_m_oracle``), plus the cell's status, ``final_regret``,
certificate verdicts and certificate values ``(lhs, rhs)`` in the clear.
It also writes each block's rows with ``harness.emit`` into a temporary
directory and records one digest per top-level key of that ``report.json``
(``provenance`` included), without the timings ``runtime_seconds``,
``total_seconds``, ``mean_runtime`` and ``std_runtime``.

``compare`` sorts the cells of two such files into three groups:
byte-identical cells, cells whose every action is the same but whose
values moved, and moved cells, each with its first round recommending a
different action.  Each value-only cell is printed with what differs
(the result, and by name the trace fields that changed, were added or
were removed), its certificate drift, the largest change of a
certificate value ``v`` relative to ``1 + |v|``, and its regret change,
the change of ``final_regret`` relative to ``1 + |final_regret|``: the
measure that ``perfbench``'s references bound by 1e-12.  The largest of
each over the grid follows the list.  It names any cell
whose status or certificate verdicts changed, and each block whose
report differs, with the keys that differ.  It exits 1 when a cell or a
report differs.  To check a change,
run this file from both checkouts (copy it into the older one if it
lacks it) and compare the two outputs.

The grid, optimal, one-swap 0.5 and score-perturb 0.5 feedback and
coefficients 0.01 and 1 throughout, in four blocks:

* the linear, kernel and noncontextual settings with every algorithm
  they admit; 6 items, pick 3, context dimension 3, T=150; seeds 0-2.
  11 algorithm-settings x 2 x 3 x 3 = 198 cells.
* "linear-wide": the linear setting's ``corectron_l`` and ``ons`` at
  lifted dimension 1000, where the stored inverse spans several blocks
  of ``SpdInverse``'s pass; 10 items, pick 5, context dimension 100,
  T=50; seed 0.  2 x 2 x 3 = 12 cells.
* "linear-2000": the same at lifted dimension 2000, where a block of
  the pass holds 16 rows; 10 items, pick 5, context dimension 200, T=50;
  seed 0.  2 x 2 x 3 = 12 cells.
* "kernel-long": the kernel setting's ``corectron_k`` and ``ons`` over a
  long horizon, where a round's cost is mostly its bookkeeping; 10 items,
  pick 5, context dimension 10, T=2000; seed 0.  2 x 2 x 3 = 12 cells.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SMALL = dict(items=6, pick=3, context_dim=3, horizon=150)
# (label, setting, sizes, algorithms or None for all the setting admits, seeds)
BLOCKS = (
    ("linear", "linear", SMALL, None, (0, 1, 2)),
    ("kernel", "kernel", SMALL, None, (0, 1, 2)),
    ("noncontextual", "noncontextual", SMALL, None, (0, 1, 2)),
    ("linear-wide", "linear", dict(items=10, pick=5, context_dim=100, horizon=50),
     ("corectron_l", "ons"), (0,)),
    ("linear-2000", "linear", dict(items=10, pick=5, context_dim=200, horizon=50),
     ("corectron_l", "ons"), (0,)),
    ("kernel-long", "kernel", dict(items=10, pick=5, context_dim=10, horizon=2000),
     ("corectron_k", "ons"), (0,)),
)
COEFFICIENTS = (0.01, 1.0)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _json_digest(obj) -> str:
    return _digest(json.dumps(obj, sort_keys=True).encode())


def _report_record(harness, rows, config) -> dict:
    """One digest per top-level key of the ``report.json`` that
    ``harness.emit`` writes for ``rows``, without its timings."""
    with tempfile.TemporaryDirectory() as out_dir:
        with open(harness.emit(rows, out_dir, config)["json"]) as fh:
            report = json.load(fh)
    for row in report["results"]:
        del row["runtime_seconds"], row["total_seconds"]
    for cell in report["summary"]:
        del cell["mean_runtime"], cell["std_runtime"]
    return {name: _json_digest(value) for name, value in report.items()}


def run(out_path: str) -> None:
    sys.path.insert(0, SRC)
    from corectron import harness
    from corectron.environment import FeedbackModel

    feedbacks = (
        FeedbackModel.optimal(),
        FeedbackModel.one_swap(0.5),
        FeedbackModel.score_perturb(0.5),
    )
    actions: list[bytes] = []
    oracle = harness.top_m_oracle

    def recording_oracle(w, spec):
        x = oracle(w, spec)
        actions.append(x.tobytes())
        return x

    harness.top_m_oracle = recording_oracle
    cells, reports = {}, {}
    try:
        for label, setting, sizes, algorithms, seeds in BLOCKS:
            config = harness.default_config(
                setting, diag_level="full", coef_grid=COEFFICIENTS, feedback_models=feedbacks,
                seeds=seeds, **sizes)
            if algorithms:
                config = replace(config, algorithms=algorithms)
            rows = []
            for algorithm in config.algorithms:
                for coefficient in COEFFICIENTS:
                    params = harness.resolve_hyperparameters(config, algorithm, coefficient)
                    for feedback in feedbacks:
                        for seed in seeds:
                            actions.clear()
                            result, trace = harness.run_episode(
                                config, algorithm, coefficient, params, feedback, seed
                            )
                            rows.append(result)
                            record = result.to_dict()
                            del record["runtime_seconds"], record["total_seconds"]
                            key = (f"{label}/{algorithm}/c{coefficient:g}"
                                   f"/{feedback.kind}/s{seed}")
                            cells[key] = {
                                "result": _json_digest(record),
                                "trace": ({name: _json_digest(value)
                                           for name, value in trace.to_dict().items()}
                                          if trace else None),
                                "actions": [_digest(a) for a in actions],
                                "status": result.status,
                                "final_regret": result.final_regret,
                                "holds": {c.name: c.holds for c in result.certificates},
                                "certificates": {c.name: [c.lhs, c.rhs]
                                                 for c in result.certificates},
                            }
            reports[label] = _report_record(harness, rows, config)
    finally:
        harness.top_m_oracle = oracle
    with open(out_path, "w") as fh:
        json.dump({"cells": cells, "reports": reports}, fh, indent=0, sort_keys=True)
    print(f"{len(cells)} cells and {len(reports)} reports written to {out_path}")


def _first_divergence(a: list, b: list) -> int:
    for t, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return t
    return min(len(a), len(b))


def _certificate_drift(a: dict, b: dict) -> float:
    """Largest change of a certificate value ``v`` relative to ``1 + |v|``."""
    return max((abs(x - y) / (1.0 + abs(x))
                for name in a.keys() & b.keys() for x, y in zip(a[name], b[name])), default=0.0)


def _regret_change(a: dict, b: dict) -> float:
    """Change of ``final_regret`` relative to ``1 + |final_regret|``."""
    x, y = a["final_regret"], b["final_regret"]
    return abs(x - y) / (1.0 + abs(x))


def _differences(a: dict, b: dict) -> str:
    """What differs between two records of one cell whose actions agree."""
    parts = ["result"] if a["result"] != b["result"] else []
    fields_a, fields_b = a["trace"] or {}, b["trace"] or {}
    for label, names in (
        ("changed", [n for n in fields_a.keys() & fields_b.keys() if fields_a[n] != fields_b[n]]),
        ("added", fields_b.keys() - fields_a.keys()),
        ("removed", fields_a.keys() - fields_b.keys()),
    ):
        if names:
            parts.append(f"trace {label}: {' '.join(sorted(names))}")
    return "; ".join(parts)


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        run_a = json.load(fh)
    with open(path_b) as fh:
        run_b = json.load(fh)
    cells_a, cells_b = run_a["cells"], run_b["cells"]
    reports_a, reports_b = run_a["reports"], run_b["reports"]
    only = sorted(set(cells_a) ^ set(cells_b))
    identical, value_only, moved = [], [], []
    for key in sorted(set(cells_a) & set(cells_b)):
        a, b = cells_a[key], cells_b[key]
        if a == b:
            identical.append(key)
        elif a["actions"] == b["actions"]:
            value_only.append(key)
        else:
            moved.append((key, _first_divergence(a["actions"], b["actions"])))
    verdicts = [key for key in sorted(set(cells_a) & set(cells_b))
                if (cells_a[key]["status"], cells_a[key]["holds"])
                != (cells_b[key]["status"], cells_b[key]["holds"])]
    print(f"byte-identical: {len(identical)}")
    print(f"value-only:     {len(value_only)}")
    drifts, regrets = [], []
    for key in value_only:
        a, b = cells_a[key], cells_b[key]
        drifts.append(_certificate_drift(a["certificates"], b["certificates"]))
        regrets.append(_regret_change(a, b))
        print(f"  {key}  ({_differences(a, b)})"
              f"  certificate drift {drifts[-1]:.1e}  regret change {regrets[-1]:.1e}")
    if drifts:
        print(f"  largest certificate drift: {max(drifts):.1e}")
        print(f"  largest regret change: {max(regrets):.1e}")
    print(f"moved:          {len(moved)}")
    for key, t in moved:
        print(f"  {key}  first different action at round {t}")
    print(f"status or certificate verdict changed: {len(verdicts)}")
    for key in verdicts:
        print(f"  {key}")
    if only:
        print(f"in one file only: {', '.join(only)}")
    labels = sorted(reports_a.keys() | reports_b.keys())
    differing = [label for label in labels if reports_a.get(label) != reports_b.get(label)]
    print(f"reports byte-identical: {len(labels) - len(differing)} of {len(labels)}")
    for label in differing:
        a, b = reports_a.get(label, {}), reports_b.get(label, {})
        keys = sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))
        print(f"  {label}  differs in: {' '.join(keys)}")
    same = len(identical) == len(cells_a) == len(cells_b) and not differing
    return 0 if same else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "run":
        run(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
