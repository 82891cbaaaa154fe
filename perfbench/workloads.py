"""The benchmark's workloads and the correctness gate shared by every run.

Each workload is one ``harness.ExperimentConfig`` over a single
environment seed, the ``--seed`` of the run.  Sizes are the ones where
the costs the ROADMAP targets show; the reasons are in BENCHMARK.json
and, at length, in README.md.

Every workload runs at least one projection-free learner (the
"corectron" role: ``corectron_l`` / ``corectron_k``) and at least one
Newton baseline (the "newton" role: ``ons`` / ``kons``), so the
per-role figures exist on every workload.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace

from corectron import harness
from corectron.environment import FeedbackModel

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

ROLES = {
    "corectron": ("corectron_l", "corectron_k"),
    "newton": ("ons", "kons"),
}


def _configs() -> dict:
    return {
        "linear-wide": harness.ExperimentConfig(
            setting="linear",
            algorithms=("corectron_l", "ons"),
            context_dim=100,
            horizon=50,
            coef_grid=(1.0,),
            feedback_models=(FeedbackModel.score_perturb(0.3),),
            diag_level="light",
        ),
        "kernel-long": harness.ExperimentConfig(
            setting="kernel",
            algorithms=("corectron_k", "ons"),
            horizon=2000,
            coef_grid=(1.0,),
            diag_level="full",
            diag_cap=2000,
        ),
    }


NAMES = tuple(_configs())


def config_for(name: str, seed: int, horizon: int | None = None) -> harness.ExperimentConfig:
    """The workload's config on environment seed ``seed``.

    ``horizon`` shrinks the episodes for the self-test; measured runs
    never pass it.
    """
    configs = _configs()
    if name not in configs:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    config = replace(configs[name], seeds=(int(seed),))
    if horizon is not None:
        config = replace(config, horizon=int(horizon), diag_cap=max(int(horizon), 1))
    return config


def cell_key(result) -> str:
    return f"{result.algorithm}|{result.coefficient!r}|{result.alpha!r}|{result.xi!r}"


def load_references() -> dict:
    if not os.path.exists(REFERENCES_PATH):
        return {}
    with open(REFERENCES_PATH) as fh:
        return json.load(fh)["workloads"]


def reference_for(name: str, seed: int, horizon: int | None) -> dict | None:
    """Recorded ``{cell: [final_regret, projection_count]}``, or None when
    the seed was not recorded or the horizon is not the workload's own."""
    if horizon is not None:
        return None
    return load_references().get(name, {}).get(str(int(seed)))


def cell_failures(results, reference: dict | None) -> dict[str, str]:
    """``{cell: reason}`` for every failed cell; empty when all passed.

    A cell fails when its episode failed, any certificate does not hold,
    or its final regret or projection count differs from the reference.
    Failures are counted, never raised.
    """
    problems = {}
    for r in results:
        key = cell_key(r)
        broken = [c.name for c in r.certificates if not c.holds]
        want = reference.get(key) if reference is not None else None
        if r.status != "ok":
            problems[key] = f"status {r.status} ({r.message})"
        elif broken:
            problems[key] = f"certificates failed: {', '.join(broken)}"
        elif reference is not None and want is None:
            problems[key] = "no reference recorded for this cell"
        elif want is not None and (not same_regret(r.final_regret, want[0]) or r.projection_count != want[1]):
            problems[key] = (
                f"final_regret {r.final_regret!r} / projections {r.projection_count} "
                f"differ from reference {want[0]!r} / {want[1]}"
            )
    return problems


def same_regret(got: float, want: float) -> bool:
    # Regret depends on the learner only through discrete argmax choices,
    # so equal choices give an equal sum; the tolerance only absorbs a
    # different summation order.
    return math.isfinite(got) and abs(got - want) <= 1e-12 * (1.0 + abs(want))
