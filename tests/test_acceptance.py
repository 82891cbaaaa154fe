"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run ``pytest -v -s`` to see
them inline).  The linear-setting sweep is shared by the comparison,
projection-accounting, and suboptimal-feedback criteria.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from corectron.environment import FeedbackModel, top_m_oracle
from corectron.harness import (
    best_coefficients,
    default_config,
    make_environment,
    resolve_hyperparameters,
    run_episode,
    sweep,
)
from corectron.learners import CoRectron, CoRectronK
from corectron.lifting import KernelSpec, LiftSpec
from corectron.numkit import (
    CholFactor,
    SpdInverse,
    project_ball_mahalanobis,
    project_ellipsoid_coeff,
)

from test_numkit import (
    grid_oracle_ball_2d,
    pgd_oracle_ball,
    pgd_oracle_ellipsoid,
    random_spd,
)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------------------
# criterion 1: certificate battery on randomized configurations


def test_criterion_1_certificates_on_random_configurations():
    rng = np.random.default_rng(20240501)
    feedbacks = [
        FeedbackModel.optimal(),
        FeedbackModel.one_swap(0.3),
        FeedbackModel.score_perturb(0.3),
    ]
    kinds = ("noncontextual", "linear", "kernel")
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for i in range(20):
        n = int(rng.choice([4, 10]))
        m = int(rng.choice([1, n // 2]))
        p = int(rng.choice([3, 10]))
        T = int(rng.choice([100, 500]))
        lam = float(rng.choice([1.0, 100.0]))
        feedback = feedbacks[int(rng.integers(len(feedbacks)))]
        kind = kinds[i % 3]
        setting = {"noncontextual": "noncontextual", "linear": "linear",
                   "kernel": "kernel"}[kind]
        algorithm = "corectron_k" if kind == "kernel" else "corectron_l"
        config = default_config(
            setting, items=n, pick=m, context_dim=p, horizon=T,
            seeds=(int(rng.integers(1000)),), diag_level="full",
            algorithms=("corectron_k",) if kind == "kernel" else ("corectron_l",),
        )
        seed = config.seeds[0]
        result, trace = run_episode(
            config, algorithm, lam, {"regularizer": lam}, feedback, seed
        )
        assert result.status == "ok", result.message
        assert not result.skipped_checks
        checked += len(result.certificates)
        for cert in result.certificates:
            if not cert.holds:
                failures.append(
                    (i, kind, feedback.kind, cert.name, cert.lhs, cert.rhs)
                )
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    assert report(
        "criterion-1 theorem certificates",
        ok,
        f"{checked} certificates over 20 configs, {len(failures)} failures, "
        f"{elapsed:.1f}s",
    ), failures


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalences


def test_criterion_2a_rank_one_chain_vs_direct_inversion():
    rng = np.random.default_rng(1)
    d, T, ridge = 50, 200, 1.0
    state = SpdInverse.from_ridge(d, ridge)
    A = ridge * np.eye(d)
    for _ in range(T):
        g = rng.standard_normal(d) * rng.uniform(0.1, 2.0)
        state.rank_one_update(g)
        A += np.outer(g, g)
    direct = np.linalg.inv(A)
    err = np.abs(state.inv - direct).max() / np.abs(direct).max()
    assert report("criterion-2a inverse chain", err < 1e-8, f"rel err {err:.2e}")


def test_criterion_2b_incremental_cholesky_vs_fresh():
    rng = np.random.default_rng(2)
    T, ridge = 200, 0.7
    vecs = rng.standard_normal((T, 12))
    K = vecs.dot(vecs.T)
    factor = CholFactor()
    for i in range(T):
        factor.extend(K[i, :i], K[i, i] + ridge)
    fresh = np.linalg.cholesky(K + ridge * np.eye(T))
    err = np.abs(factor.L - fresh).max() / np.abs(fresh).max()
    assert report("criterion-2b cholesky chain", err < 1e-8, f"rel err {err:.2e}")


def test_criterion_2c_representer_matches_explicit():
    config = default_config("linear", horizon=200, seeds=(0,))
    env = make_environment(config, FeedbackModel.optimal(), seed=0)
    lam = 10.0
    explicit = CoRectron(LiftSpec.linear(config.items, config.context_dim), lam)
    rep = CoRectronK(
        LiftSpec.kernelized(config.items, config.context_dim, KernelSpec.linear_dot()),
        lam,
    )
    max_w = 0.0
    same_sets = True
    for z, x in zip(env.contexts, env.revealed):
        w1, w2 = explicit.predict(z), rep.predict(z)
        max_w = max(max_w, float(np.abs(w1 - w2).max()))
        a1, a2 = top_m_oracle(w1, env.actions), top_m_oracle(w2, env.actions)
        same_sets = same_sets and np.array_equal(a1, a2)
        g = a1 - x
        explicit.update(z, g)
        rep.update(z, g)
    ok = same_sets and max_w < 1e-7
    assert report(
        "criterion-2c representer equivalence",
        ok,
        f"identical index sets={same_sets}, max prediction gap {max_w:.2e}",
    )


def test_criterion_2d_projections_vs_brute_force():
    rng = np.random.default_rng(3)
    worst = 0.0
    # ball metric: 2-d angular grid oracle; the projection takes the
    # inverse metric, the oracles the metric
    metric = np.diag([4.0, 1.0])
    point = np.array([2.0, 2.0])
    got = project_ball_mahalanobis(np.diag([0.25, 1.0]), point, 1.0).point
    worst = max(worst, float(np.abs(got - grid_oracle_ball_2d(metric, point, 1.0)).max()))
    # ball metric in dimension 4: projected-gradient oracle
    for _ in range(3):
        metric = random_spd(rng, 4)
        point = rng.standard_normal(4) * 3.0
        got = project_ball_mahalanobis(np.linalg.inv(metric), point, 1.0).point
        worst = max(worst, float(np.abs(got - pgd_oracle_ball(metric, point, 1.0)).max()))
    # coefficient-space ellipsoid constraint in dimension 4
    for _ in range(3):
        metric = random_spd(rng, 4)
        shape = random_spd(rng, 4, spread=0.5)
        point = rng.standard_normal(4) * 3.0
        got = project_ellipsoid_coeff(metric, shape, point, 1.0).point
        worst = max(
            worst, float(np.abs(got - pgd_oracle_ellipsoid(metric, shape, point, 1.0)).max())
        )
    assert report(
        "criterion-2d projection solvers", worst < 1e-4, f"max gap {worst:.2e}"
    )


# ---------------------------------------------------------------------------
# criterion 3: logarithmic regret growth at desk scale


def test_criterion_3_log_regret_growth():
    checkpoints = [250, 500, 1000, 2000]
    lam = 100.0
    config = default_config(
        "noncontextual", items=10, pick=5, horizon=2000,
        seeds=tuple(range(5)), diag_level="light",
        algorithms=("corectron_l",),
    )
    curves = []
    for seed in config.seeds:
        _, trace = run_episode(
            config, "corectron_l", lam, {"regularizer": lam},
            FeedbackModel.optimal(), seed,
        )
        curves.append(np.cumsum(trace.regret))
    mean_curve = np.mean(curves, axis=0)
    ratios = [mean_curve[T - 1] / np.log(T) for T in checkpoints]
    tail = [r for T, r in zip(checkpoints, ratios) if T >= 500]
    ok = all(tail[i + 1] <= 1.2 * tail[i] for i in range(len(tail) - 1))
    detail = ", ".join(
        f"T={T}: {r:.3f}" for T, r in zip(checkpoints, ratios)
    )
    assert report("criterion-3 log-regret growth", ok, detail)


# ---------------------------------------------------------------------------
# criteria 4-6 share the linear-setting sweep


@pytest.fixture(scope="module")
def linear_sweep():
    config = default_config("linear", diag_level="light")  # T=2000, 5 seeds
    rows = sweep(config)
    return config, rows


def test_criterion_4_linear_comparison(linear_sweep):
    _, rows = linear_sweep
    best = best_coefficients(rows)
    corectron = best["corectron_l"][1]
    ons, ogd = best["ons"][1], best["ogd"][1]
    ok = corectron < ons and corectron < ogd
    assert report(
        "criterion-4 linear comparison",
        ok,
        f"best means: corectron_l={corectron:.3f} (c={best['corectron_l'][0]:g}), "
        f"ons={ons:.3f} (c={best['ons'][0]:g}), ogd={ogd:.3f} (c={best['ogd'][0]:g})",
    )


def test_criterion_5_projection_accounting(linear_sweep):
    config, rows = linear_sweep
    free_rows = [r for r in rows if r.algorithm in ("corectron_l", "ogd")]
    zero_ok = all(r.projection_count == 0 for r in free_rows)

    by_coef = {}
    for r in rows:
        if r.algorithm == "ons":
            by_coef.setdefault(r.coefficient, []).append(r)
    coefs = sorted(by_coef)
    mean_proj = [np.mean([r.projection_count for r in by_coef[c]]) for c in coefs]
    mean_time = [np.mean([r.runtime_seconds for r in by_coef[c]]) for c in coefs]
    rho = spearmanr(mean_proj, mean_time).statistic
    ok = zero_ok and rho > 0
    assert report(
        "criterion-5 projection accounting",
        ok,
        f"projection-free rows zero={zero_ok}, "
        f"ons spearman(projections, runtime)={rho:.3f} over {len(coefs)} coefficients",
    )


def test_criterion_6_suboptimal_feedback_ordering(linear_sweep):
    _, rows = linear_sweep
    best = best_coefficients(rows)
    alphas = (0.0, 0.5, 1.0)
    means = {}
    for algorithm in ("corectron_l", "ons", "ogd"):
        coef = best[algorithm][0]
        config = default_config(
            "linear", horizon=1000, seeds=tuple(range(5)), diag_level="light",
            algorithms=(algorithm,), coef_grid=(coef,),
            feedback_models=tuple(FeedbackModel.one_swap(a) for a in alphas),
        )
        for r in sweep(config):
            means.setdefault((algorithm, r.alpha), []).append(r.final_regret)
    table = {k: float(np.mean(v)) for k, v in means.items()}
    ok = all(
        table[("corectron_l", a)] <= table[("ons", a)]
        and table[("corectron_l", a)] <= table[("ogd", a)]
        for a in alphas
    )
    detail = "; ".join(
        f"a={a:g}: corectron={table[('corectron_l', a)]:.3f}, "
        f"ons={table[('ons', a)]:.3f}, ogd={table[('ogd', a)]:.3f}"
        for a in alphas
    )
    assert report("criterion-6 suboptimal-feedback ordering", ok, detail)


# ---------------------------------------------------------------------------
# criterion 7: determinism


def test_criterion_7_determinism():
    config = default_config(
        "linear", horizon=200, seeds=(3,), diag_level="full",
        algorithms=("ons",), coef_grid=(0.001,),
        feedback_models=(FeedbackModel.one_swap(0.4),),
    )
    params = resolve_hyperparameters(config, "ons", 0.001)
    a, _ = run_episode(config, "ons", 0.001, params, config.feedback_models[0], 3)
    b, _ = run_episode(config, "ons", 0.001, params, config.feedback_models[0], 3)
    fields_a = (a.final_regret, a.projection_count, a.csv_row()[:8])
    fields_b = (b.final_regret, b.projection_count, b.csv_row()[:8])
    ok = fields_a == fields_b
    assert report(
        "criterion-7 determinism",
        ok,
        f"regret {a.final_regret!r} == {b.final_regret!r}, "
        f"projections {a.projection_count} == {b.projection_count}",
    )
