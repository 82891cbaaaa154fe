"""Experiment runner: coefficient sweeps over algorithms, seeds, and
feedback channels, with certificate evaluation and CSV/JSON emission.

Per (config, seed) all algorithms face the identical round sequence, so
rows differ only through the learners.  Learner compute is timed on its
own, excluding the argmax oracle and the environment; both the
learner-only and loop-total times are reported, with the learner-only
figure as the headline ``runtime_seconds``.

A :class:`RunResult`'s schema is stated once, in ``_CSV_SCHEMA``: it
gives the CSV header, the CSV row, the CSV parser, and the one field
(``horizon``) whose column and report key differ from its name (``T``).
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .diagnostics import TraceSummary, standard_certificates
from .environment import (
    BOUND_PAYOFF,
    MODELS as SETTINGS,
    ActionSetSpec,
    Environment,
    FeedbackModel,
    UtilitySpec,
    top_m_oracle,
)
from .learners import STEP_COEFF, CoRectron, CoRectronK, KONS, OGD, ONS
from .lifting import KERNEL, LINEAR, NONCONTEXTUAL, KernelSpec, LiftSpec
from .numkit import SCIPY_BLAS, DegenerateGramError

__all__ = [
    "SETTINGS",
    "ALGORITHMS",
    "DEFAULT_COEF_GRID",
    "ExperimentConfig",
    "RunResult",
    "default_config",
    "resolve_hyperparameters",
    "make_environment",
    "build_learner",
    "run_episode",
    "sweep",
    "aggregate_results",
    "best_coefficients",
    "emit",
    "read_results_csv",
    "CSV_HEADER",
]

_LEARNERS = {
    "corectron_l": CoRectron,
    "corectron_k": CoRectronK,
    "ogd": OGD,
    "ons": ONS,
    "kons": KONS,
}
ALGORITHMS = tuple(_LEARNERS)
KERNEL_ONLY_ALGOS = ("corectron_k", "kons")
EXPLICIT_ALGOS = tuple(a for a in ALGORITHMS if a not in KERNEL_ONLY_ALGOS)
DEFAULT_COEF_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)

# (results.csv column, RunResult field, parser), in column order.
_CSV_SCHEMA = (
    ("setting", "setting", str),
    ("algorithm", "algorithm", str),
    ("coefficient", "coefficient", float),
    ("seed", "seed", int),
    ("alpha", "alpha", float),
    ("xi", "xi", float),
    ("T", "horizon", int),
    ("final_regret", "final_regret", float),
    ("runtime_seconds", "runtime_seconds", float),
    ("projection_count", "projection_count", int),
)
CSV_HEADER = ",".join(column for column, _, _ in _CSV_SCHEMA)
# The CSV column, which is also the report key, of each field stored under
# another name.
_KEY_OF = {name: column for column, name, _ in _CSV_SCHEMA if column != name}


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep's shape: problem sizes, grids, and diagnostics policy."""

    setting: str = LINEAR
    algorithms: tuple = EXPLICIT_ALGOS
    items: int = 10
    pick: int = 5
    context_dim: int = 10
    horizon: int = 2000
    bandwidth: float = 1.0
    seeds: tuple = (0, 1, 2, 3, 4)
    coef_grid: tuple = DEFAULT_COEF_GRID
    feedback_models: tuple = (FeedbackModel.optimal(),)
    diag_cap: int = 2000
    diag_level: str = "full"

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ValueError(f"unknown setting: {self.setting!r}")
        for name in ("algorithms", "seeds", "coef_grid", "feedback_models"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must not be empty")
        if not all(0 < c < math.inf for c in self.coef_grid):
            raise ValueError(f"coefficients must be finite and positive: {self.coef_grid}")
        bad = [a for a in self.algorithms if a not in ALGORITHMS]
        if bad:
            raise ValueError(f"unknown algorithms: {bad}")
        if self.setting != KERNEL:
            kernel_algos = [a for a in self.algorithms if a in KERNEL_ONLY_ALGOS]
            if kernel_algos:
                raise ValueError(
                    f"{kernel_algos} require the kernel setting, got {self.setting!r}"
                )
        if self.diag_level not in ("full", "light"):
            raise ValueError(f"unknown diag level: {self.diag_level!r}")
        if self.diag_cap < 0:
            raise ValueError("diag_cap must be nonnegative")
        if not (0 < self.pick <= self.items):
            raise ValueError("need 0 < pick <= items")
        if self.setting != NONCONTEXTUAL and self.context_dim < 1:
            raise ValueError(f"the {self.setting} setting needs context_dim >= 1")
        if self.setting == KERNEL and not 0 < self.bandwidth < math.inf:
            raise ValueError("the kernel setting needs a finite positive bandwidth")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")


def default_config(setting: str, full_scale: bool = False, **overrides) -> ExperimentConfig:
    """Desk-scale defaults per setting; ``full_scale`` restores the long
    horizons and ten seeds."""
    if setting == KERNEL:
        horizon = 1000 if full_scale else 500
        algos = ALGORITHMS
    else:
        horizon = 10000 if full_scale else 2000
        algos = EXPLICIT_ALGOS
    seeds = tuple(range(10 if full_scale else 5))
    base = ExperimentConfig(setting=setting, algorithms=algos, horizon=horizon, seeds=seeds)
    return replace(base, **overrides) if overrides else base


@dataclass
class RunResult:
    """Aggregated outcome of one (algorithm, coefficient, seed, feedback) cell."""

    setting: str
    algorithm: str
    coefficient: float
    seed: int
    alpha: float
    xi: float
    horizon: int
    final_regret: float
    runtime_seconds: float
    total_seconds: float
    projection_count: int
    status: str = "ok"
    message: str = ""
    certificates: list = field(default_factory=list)
    skipped_checks: tuple = ()

    def csv_row(self) -> list[str]:
        return [str(getattr(self, name)) for _, name, _ in _CSV_SCHEMA]

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "certificates":
                value = [c.to_dict() for c in value]
            elif f.name == "skipped_checks":
                value = list(value)
            out[_KEY_OF.get(f.name, f.name)] = value
        return out


def resolve_hyperparameters(config: ExperimentConfig, algorithm: str, coefficient: float) -> dict:
    """Concrete learner parameters for one grid coefficient.

    The reference values follow the unit-diameter, unit-utility scaling
    of the benchmark: gradient descent sweeps a 2/sqrt(T) step divided by
    the coefficient, the Newton baselines sweep their ridge around
    d / (4 * STEP_COEFF^2), and the second-order learners sweep their
    regularizer around the payoff-bound-squared times the dimension, where
    d is the dimension of the setting's explicit lift.  In the kernel
    setting that dimension serves as the proxy for the unavailable
    effective dimension.
    """
    d = _explicit_lift(config).dim
    if algorithm == "ogd":
        return {"step_size": (2.0 / math.sqrt(config.horizon)) / coefficient}
    if algorithm in ("ons", "kons"):
        return {"ridge": coefficient * d / (4.0 * STEP_COEFF**2)}
    if algorithm in ("corectron_l", "corectron_k"):
        return {"regularizer": coefficient * BOUND_PAYOFF**2 * d}
    raise ValueError(f"unknown algorithm: {algorithm!r}")


def _explicit_lift(config: ExperimentConfig) -> LiftSpec:
    """The lift of the non-kernel learners: the identity in the
    noncontextual setting, the outer-product lift in the other two."""
    if config.setting == NONCONTEXTUAL:
        return LiftSpec.identity(config.items)
    return LiftSpec.linear(config.items, config.context_dim)


def build_learner(config: ExperimentConfig, algorithm: str, params: dict):
    if algorithm not in _LEARNERS:
        raise ValueError(f"unknown algorithm: {algorithm!r}")
    if algorithm in KERNEL_ONLY_ALGOS:
        kernel = KernelSpec.rbf(config.bandwidth)
        spec = LiftSpec.kernelized(config.items, config.context_dim, kernel)
    else:
        spec = _explicit_lift(config)
    return _LEARNERS[algorithm](spec, **params)


def make_environment(config: ExperimentConfig, feedback: FeedbackModel, seed: int) -> Environment:
    actions = ActionSetSpec(config.items, config.pick)
    utility = UtilitySpec(config.setting, config.context_dim, bandwidth=config.bandwidth)
    return Environment(actions, utility, feedback, config.horizon, seed)


_CORECTRON_ALGOS = ("corectron_l", "corectron_k")
_EPISODE_ERRORS = (DegenerateGramError, FloatingPointError, np.linalg.LinAlgError)


def run_episode(
    config: ExperimentConfig,
    algorithm: str,
    coefficient: float,
    params: dict,
    feedback: FeedbackModel,
    seed: int,
) -> tuple[RunResult, TraceSummary | None]:
    """Play one full episode and collect metrics.

    The config's diagnostics level "full" records per-round recomputed
    diagnostics and the residuals of the r rounds with a mistake, whose
    Gram is built after the loop, so the entire certificate battery can
    run: :meth:`LiftSpec.gram` applies the formula ``kappa(z, z') * <g, g'>``,
    which the kernel learners apply per column, to the stacked rounds, r x r
    or, for an explicit lift of dimension D < r, D x D; stored when its side
    is within ``diag_cap``.  "light" keeps only the O(T) scalars and the
    always-on certificates.
    Episodes that produce non-finite numbers or a matrix that is not
    positive definite are reported with status "failed" instead of
    aborting the sweep.
    """
    env = make_environment(config, feedback, seed)
    learner = build_learner(config, algorithm, params)
    actions = env.actions
    T = config.horizon
    is_corectron = algorithm in _CORECTRON_ALGOS
    want_full = config.diag_level == "full" and is_corectron

    leverage = np.zeros(T)
    alignment = np.zeros(T)
    alignment_scale = np.zeros(T)
    recommended = np.zeros((T, config.items))
    projection_count = 0
    potential_direct = np.zeros(T) if want_full else None
    post_leverage = np.zeros(T) if want_full else None

    status, message = "ok", ""
    learner_time = 0.0
    t_total0 = time.perf_counter()
    try:
        for t in range(T):
            z, x = env.contexts[t], env.revealed[t]
            t0 = time.perf_counter()
            w_base = learner.predict(z)
            learner_time += time.perf_counter() - t0
            if not np.all(np.isfinite(w_base)):
                raise FloatingPointError("non-finite prediction")
            xhat = recommended[t] = top_m_oracle(w_base, actions)
            t0 = time.perf_counter()
            diag = learner.update(z, xhat - x)
            learner_time += time.perf_counter() - t0
            leverage[t] = diag.leverage
            alignment[t] = diag.alignment
            alignment_scale[t] = diag.alignment_scale
            projection_count += diag.projected
            if want_full:
                potential_direct[t] = learner.potential_direct()
                post_leverage[t] = learner.post_round_leverage()
        # One dot per row, rounded as a per-round ``u.dot(x - xhat)`` would be.
        lost = env.revealed - recommended
        regret = np.matmul(env.utilities[:, None, :], lost[:, :, None])[:, 0, 0]
        if not np.isfinite(regret.sum()):
            raise FloatingPointError("non-finite regret")
        if is_corectron:
            # The trace accepts only finite numbers; a learner's non-finite
            # diagnostic fails this cell instead of the sweep.
            final_potential_direct = learner.potential_direct() if T else 0.0
            for name, column in (("leverage", leverage), ("alignment", alignment),
                                 ("alignment_scale", alignment_scale),
                                 ("potential_direct", potential_direct),
                                 ("post_leverage", post_leverage),
                                 ("final_potential_direct", final_potential_direct)):
                if column is not None and not np.all(np.isfinite(column)):
                    raise FloatingPointError(f"non-finite {name}")
    except _EPISODE_ERRORS as exc:
        status, message = "failed", f"{type(exc).__name__}: {exc}"
    total_time = time.perf_counter() - t_total0
    # Only the lift is read from here on, so the learner's state (a kernel
    # learner's factor) is freed before the trace Gram is built.
    lift_spec = learner.lift_spec
    del learner

    final_regret = float(regret.sum()) if status == "ok" else float("nan")
    result = RunResult(
        setting=config.setting,
        algorithm=algorithm,
        coefficient=float(coefficient),
        seed=int(seed),
        alpha=feedback.alpha,
        xi=feedback.xi,
        horizon=T,
        final_regret=final_regret,
        runtime_seconds=learner_time,
        total_seconds=total_time,
        projection_count=projection_count,
        status=status,
        message=message,
    )

    trace = None
    if is_corectron and status == "ok":
        gram = None
        if want_full:
            # From the environment's contexts and the residuals seen here, not
            # the learner's, so the log-det product identity is independent.
            residuals = recommended - env.revealed
            mistakes = np.flatnonzero(residuals.any(axis=1))
            Z, G = env.contexts[mistakes], residuals[mistakes]
            r = mistakes.size
            if (r if lift_spec.kind == KERNEL else min(r, lift_spec.dim)) <= config.diag_cap:
                gram = lift_spec.gram(Z, G)
        trace = TraceSummary(
            algorithm=algorithm,
            model_kind=config.setting,
            regularizer=float(params["regularizer"]),
            horizon=T,
            base_dim=config.items,
            context_dim=config.context_dim,
            diameter=actions.diameter,
            leverage=leverage,
            alignment=alignment,
            alignment_scale=alignment_scale,
            regret=regret,
            subopt=env.subopt.copy(),
            final_potential_direct=final_potential_direct,
            potential_direct=potential_direct,
            post_leverage=post_leverage,
            gram=gram,
            # A lift of another model than the setting's (the linear lift
            # facing RBF utilities) has no comparator in its span.
            comparator_in_span=lift_spec.kind == config.setting,
        )
        certs, skipped = standard_certificates(trace)
        result.certificates = certs
        result.skipped_checks = tuple(skipped)
    return result, trace


def _run_cell(args) -> RunResult:
    result, _ = run_episode(*args)
    return result


def sweep(config: ExperimentConfig, jobs: int = 1, trace_hook=None) -> list[RunResult]:
    """Cartesian product over algorithms x coefficients x feedback x seeds.

    Cells are independent; with ``jobs > 1`` they run in at most ``jobs``
    worker processes, never more than there are cells, and results are
    merged back in the deterministic task order.
    ``trace_hook(result, trace)`` is invoked per cell in sequential mode,
    e.g. to persist traces.  Failed cells are kept (status "failed") and
    the sweep continues.
    """
    tasks = []
    for algorithm in config.algorithms:
        for coefficient in config.coef_grid:
            params = resolve_hyperparameters(config, algorithm, coefficient)
            for feedback in config.feedback_models:
                for seed in config.seeds:
                    tasks.append((config, algorithm, coefficient, params, feedback, seed))
    if jobs > 1 and trace_hook is None and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # The executor may start every worker at once, so start no idle ones.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(_run_cell, tasks, chunksize=1))
    results = []
    for task in tasks:
        result, trace = run_episode(*task)
        if trace_hook is not None:
            trace_hook(result, trace)
        results.append(result)
    return results


# The RunResult fields that identify an aggregate cell; the seed varies within one.
_CELL_FIELDS = ("setting", "algorithm", "coefficient", "alpha", "xi", "horizon")


def _mean_std(vals) -> tuple[float, float]:
    if not vals:
        return float("nan"), float("nan")
    arr = np.asarray(vals, dtype=float)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def aggregate_results(rows: list[RunResult]) -> list[dict]:
    """Mean and sample standard deviation per cell across seeds.

    Failed rows are excluded from the statistics (with a warning) but
    counted in ``n_failed``.
    """
    cells: dict[tuple, list[RunResult]] = {}
    for r in rows:
        key = tuple(getattr(r, name) for name in _CELL_FIELDS)
        cells.setdefault(key, []).append(r)
    out = []
    for key in sorted(cells):
        group = cells[key]
        ok = [r for r in group if r.status == "ok"]
        failed = len(group) - len(ok)
        if failed:
            warnings.warn(
                f"{failed} failed episode(s) excluded from cell {key}", stacklevel=2
            )
        regret_m, regret_s = _mean_std([r.final_regret for r in ok])
        runtime_m, runtime_s = _mean_std([r.runtime_seconds for r in ok])
        proj_m, _ = _mean_std([r.projection_count for r in ok])
        cell = {_KEY_OF.get(name, name): value for name, value in zip(_CELL_FIELDS, key)}
        cell.update(
            mean_regret=regret_m,
            std_regret=regret_s,
            mean_runtime=runtime_m,
            std_runtime=runtime_s,
            mean_projections=proj_m,
            n_seeds=len(ok),
            n_failed=failed,
        )
        out.append(cell)
    return out


def best_coefficients(
    rows: list[RunResult], alpha: float = 0.0, xi: float = 0.0
) -> dict[str, tuple[float, float]]:
    """Per algorithm, the grid coefficient with the lowest mean final
    regret in the selected feedback cell; ties go to the smaller value."""
    cells = aggregate_results(
        [r for r in rows if r.alpha == alpha and r.xi == xi]
    )
    best: dict[str, tuple[float, float]] = {}
    for cell in cells:
        algo = cell["algorithm"]
        entry = (cell["mean_regret"], cell["coefficient"])
        if not math.isfinite(entry[0]):
            continue
        cur = best.get(algo)
        if cur is None or entry < (cur[1], cur[0]):
            best[algo] = (entry[1], entry[0])
    return best


def _blas_provenance() -> dict:
    """Name and version of the BLAS that numpy was built against, and of
    scipy's (a library of its own) when this process loaded it, from each
    package's ``show_config``."""
    packages = {"numpy": np}
    if SCIPY_BLAS in sys.modules:
        import scipy

        packages["scipy"] = scipy
    out = {}
    for name, package in packages.items():
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out[name] = {"name": blas.get("name"), "version": blas.get("version")}
    return out


def emit(
    rows: list[RunResult],
    out_dir,
    config: ExperimentConfig | None = None,
    traces: dict | None = None,
    thread_pinning: str = "not requested",
) -> dict:
    """Write results.csv, report.json, and optional trace files.

    The CSV carries the ten columns of ``_CSV_SCHEMA``, each value as its
    ``str`` (full-precision decimal for floats); the JSON report embeds
    everything else, including per-run certificates and status, and a
    ``provenance`` block: the python, numpy and scipy versions, ``blas``
    (see :func:`_blas_provenance`; scipy's entry appears once this process
    has loaded scipy's BLAS, which every learner but OGD uses) and
    ``thread_pinning``, the state of BLAS thread pinning during the sweep
    ("not requested", "applied", or "unavailable" when it was requested
    but threadpoolctl is not installed).
    """
    import scipy

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "results.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for r in rows:
            writer.writerow(r.csv_row())

    report = {
        "config": asdict(config) if config is not None else None,
        "provenance": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_provenance(),
            "thread_pinning": thread_pinning,
        },
        "summary": aggregate_results(rows) if rows else [],
        "results": [r.to_dict() for r in rows],
        "certificates_failed": sum(
            1 for r in rows for c in r.certificates if not c.holds
        ),
    }
    json_path = os.path.join(out_dir, "report.json")
    with open(json_path, "w") as fh:
        json.dump(report, fh, indent=1)

    paths = {"csv": csv_path, "json": json_path}
    if traces:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        for name, trace in traces.items():
            path = os.path.join(trace_dir, f"{name}.json")
            trace.save(path)
        paths["traces"] = trace_dir
    return paths


def read_results_csv(path) -> list[RunResult]:
    """Parse an emitted CSV back into RunResults.

    The CSV carries no loop-total time, so ``total_seconds`` is the
    learner time.  A file without a header naming every column, or with
    a row whose value does not parse (a short row leaves some empty),
    raises ``ValueError``.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or ()
        missing = [column for column, _, _ in _CSV_SCHEMA if column not in header]
        if missing:
            raise ValueError(f"missing column(s) {', '.join(missing)}")
        for rec in reader:
            try:
                values = {name: parse(rec[column]) for column, name, parse in _CSV_SCHEMA}
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from exc
            rows.append(RunResult(total_seconds=values["runtime_seconds"], **values))
    return rows
