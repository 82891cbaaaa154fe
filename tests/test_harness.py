import csv
import json
import math
import os
import platform
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy

from corectron import harness
from corectron.cli import main as cli_main
from corectron.environment import FeedbackModel
from corectron.harness import (
    CSV_HEADER,
    ExperimentConfig,
    RunResult,
    aggregate_results,
    best_coefficients,
    default_config,
    emit,
    make_environment,
    read_results_csv,
    resolve_hyperparameters,
    run_episode,
    sweep,
)
from corectron.learners import ONS
from corectron.numkit import SCIPY_BLAS, SpdInverse

from kernel_reference import kernel_value


def tiny_config(**overrides):
    base = dict(
        setting="linear",
        algorithms=("corectron_l", "ogd", "ons"),
        items=4,
        pick=2,
        context_dim=3,
        horizon=25,
        seeds=(0, 1),
        coef_grid=(0.1, 1.0),
        diag_level="light",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def make_row(**overrides):
    base = dict(
        setting="linear", algorithm="ogd", coefficient=1.0, seed=0, alpha=0.0,
        xi=0.0, horizon=10, final_regret=2.5, runtime_seconds=0.1,
        total_seconds=0.2, projection_count=0,
    )
    base.update(overrides)
    return RunResult(**base)


class TestResolveHyperparameters:
    def test_newton_ridge_reference(self):
        config = default_config("linear")  # n = p = 10 so d = 100
        params = resolve_hyperparameters(config, "ons", 1.0)
        assert params == {"ridge": pytest.approx(100.0)}

    def test_second_order_regularizer_reference(self):
        config = default_config("linear")
        params = resolve_hyperparameters(config, "corectron_l", 1.0)
        assert params["regularizer"] == pytest.approx(100.0)

    def test_gradient_step_reference(self):
        config = default_config("linear", horizon=10000)
        params = resolve_hyperparameters(config, "ogd", 1.0)
        assert params["step_size"] == pytest.approx(0.02)

    def test_coefficient_scales(self):
        config = default_config("linear")
        assert resolve_hyperparameters(config, "ons", 10.0)["ridge"] == pytest.approx(1000.0)
        assert resolve_hyperparameters(config, "corectron_l", 0.001)[
            "regularizer"
        ] == pytest.approx(0.1)
        assert resolve_hyperparameters(config, "ogd", 2.0)["step_size"] == pytest.approx(
            (2.0 / math.sqrt(config.horizon)) / 2.0
        )

    def test_noncontextual_dimension_is_items(self):
        config = default_config("noncontextual", items=10)
        assert resolve_hyperparameters(config, "corectron_l", 1.0)[
            "regularizer"
        ] == pytest.approx(10.0)


class TestConfigValidation:
    def test_kernel_algos_require_kernel_setting(self):
        with pytest.raises(ValueError):
            ExperimentConfig(setting="linear", algorithms=("corectron_k",))
        with pytest.raises(ValueError):
            ExperimentConfig(setting="noncontextual", algorithms=("kons",))

    def test_kernel_setting_admits_all_five(self):
        config = default_config("kernel")
        assert set(config.algorithms) == {
            "corectron_l", "corectron_k", "ogd", "ons", "kons"
        }

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithms=("mystery",))
        with pytest.raises(ValueError):
            ExperimentConfig(setting="cubic")
        with pytest.raises(ValueError):
            ExperimentConfig(diag_level="off")

    @pytest.mark.parametrize("setting", ["linear", "kernel"])
    def test_contextual_settings_need_a_context(self, setting):
        with pytest.raises(ValueError, match="context_dim"):
            default_config(setting, context_dim=0)
        assert default_config("noncontextual", context_dim=0).context_dim == 0

    @pytest.mark.parametrize("bandwidth", [0.0, float("nan"), float("inf")])
    def test_kernel_setting_needs_finite_positive_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth"):
            default_config("kernel", bandwidth=bandwidth)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            ExperimentConfig(horizon=-1)

    @pytest.mark.parametrize("grids", [
        {"algorithms": ()}, {"seeds": ()}, {"coef_grid": ()}, {"feedback_models": ()},
        {"coef_grid": (0.0,)}, {"coef_grid": (1.0, -1.0)}, {"coef_grid": (float("nan"),)},
        {"coef_grid": (float("inf"), 1.0)},
    ])
    def test_grids_must_be_nonempty_and_coefficients_finite_positive(self, grids):
        # Each would otherwise fail inside the sweep (a zero coefficient
        # divides OGD's step, an infinite one breaks the trace) or, empty,
        # run nothing.
        with pytest.raises(ValueError, match="must not be empty|finite and positive"):
            ExperimentConfig(**grids)

    @pytest.mark.parametrize("seeds", [(-1,), (0, -3), (1.5,), (2.0,), ("1",), (True,), (None,)])
    def test_seeds_must_be_nonnegative_integers(self, seeds):
        # A negative seed would abort the sweep in numpy's seeding, outside
        # the episode errors, and 1.5 would run as seed 1.
        with pytest.raises(ValueError, match="seeds must be non-negative integers"):
            default_config("linear", seeds=seeds)

    def test_numpy_integer_seeds_accepted(self):
        assert default_config("linear", seeds=(0, np.int64(3))).seeds == (0, 3)


class TestRunEpisode:
    @pytest.mark.parametrize("setting, algorithm", [
        ("noncontextual", "corectron_l"),
        ("linear", "corectron_l"),
        ("kernel", "corectron_k"),
        ("kernel", "corectron_l"),
    ])
    def test_trace_names_the_setting_and_the_comparator(self, setting, algorithm):
        # the trace's model kind is the setting; only the explicit learner
        # facing RBF utilities has no comparator in its lift's span
        config = tiny_config(setting=setting, algorithms=(algorithm,), horizon=10)
        params = resolve_hyperparameters(config, algorithm, 1.0)
        _, trace = run_episode(config, algorithm, 1.0, params, FeedbackModel.optimal(), 0)
        assert trace.model_kind == setting
        assert trace.comparator_in_span == ((setting, algorithm) != ("kernel", "corectron_l"))

    def test_zero_horizon(self):
        config = tiny_config(horizon=0, diag_level="full")
        params = resolve_hyperparameters(config, "corectron_l", 1.0)
        result, trace = run_episode(
            config, "corectron_l", 1.0, params, FeedbackModel.optimal(), 0
        )
        assert result.status == "ok"
        assert result.final_regret == 0.0
        assert trace.horizon == 0

    def test_optimal_feedback_regret_nonnegative(self):
        config = tiny_config(horizon=60)
        for algorithm in config.algorithms:
            params = resolve_hyperparameters(config, algorithm, 1.0)
            result, _ = run_episode(
                config, algorithm, 1.0, params, FeedbackModel.optimal(), 0
            )
            assert result.final_regret >= -1e-9 * config.horizon

    def test_optimal_feedback_per_round_regret_in_payoff_range(self):
        # the revealed action maximises the hidden utility, so every
        # learner's per-round gap lies in [0, payoff bound]
        from corectron.environment import top_m_oracle
        from corectron.harness import build_learner, make_environment

        config = default_config(
            "kernel", items=6, pick=3, context_dim=4, horizon=50, seeds=(0,)
        )
        env = make_environment(config, FeedbackModel.optimal(), seed=0)
        for algorithm in config.algorithms:
            params = resolve_hyperparameters(config, algorithm, 1.0)
            learner = build_learner(config, algorithm, params)
            for z, u, x in zip(env.contexts, env.utilities, env.revealed):
                xhat = top_m_oracle(learner.predict(z), env.actions)
                r = float(u.dot(x - xhat))
                assert -1e-12 <= r <= 1.0 + 1e-9
                learner.update(z, xhat - x)

    @pytest.mark.parametrize("setting, algorithm", [("linear", "corectron_l"), ("kernel", "corectron_k")])
    @pytest.mark.parametrize(
        "feedback", [FeedbackModel.one_swap(0.5), FeedbackModel.score_perturb(0.3)], ids=["swap", "perturb"]
    )
    def test_regret_equals_per_round_dots_bitwise(self, setting, algorithm, feedback):
        # the episode's stacked regret and subopt against a per-round replay
        from corectron.environment import top_m_oracle
        from corectron.harness import build_learner

        config = default_config(setting, items=6, pick=3, context_dim=3, horizon=60, seeds=(0,))
        params = resolve_hyperparameters(config, algorithm, 0.1)
        result, trace = run_episode(config, algorithm, 0.1, params, feedback, 2)
        env, learner = make_environment(config, feedback, 2), build_learner(config, algorithm, params)
        regret, subopt = [], []
        for z, u, x, delta in zip(env.contexts, env.utilities, env.revealed, env.subopt):
            xhat = top_m_oracle(learner.predict(z), env.actions)
            learner.update(z, xhat - x)
            regret.append(float(u.dot(x - xhat)))
            subopt.append(delta)
        assert trace.regret.tobytes() == np.array(regret).tobytes()
        assert trace.subopt.tobytes() == np.array(subopt).tobytes()
        assert result.final_regret == float(np.sum(regret))

    def test_rerun_is_bit_identical(self):
        config = tiny_config(horizon=40)
        params = resolve_hyperparameters(config, "ons", 0.1)
        a, _ = run_episode(config, "ons", 0.1, params, FeedbackModel.one_swap(0.4), 1)
        b, _ = run_episode(config, "ons", 0.1, params, FeedbackModel.one_swap(0.4), 1)
        assert a.final_regret == b.final_regret
        assert a.projection_count == b.projection_count
        assert a.csv_row()[:8] == b.csv_row()[:8]  # all non-timing fields

    def test_learner_time_below_total(self):
        config = tiny_config(horizon=50)
        params = resolve_hyperparameters(config, "corectron_l", 1.0)
        result, _ = run_episode(
            config, "corectron_l", 1.0, params, FeedbackModel.optimal(), 0
        )
        assert 0.0 < result.runtime_seconds <= result.total_seconds

    @pytest.mark.parametrize(
        "setting, algorithm",
        [("noncontextual", "corectron_l"), ("linear", "corectron_l"), ("kernel", "corectron_k")],
    )
    def test_trace_gram_matches_dense_reference(self, monkeypatch, setting, algorithm):
        # the trace Gram, built through the learner's lift, against one
        # lifted inner product per entry
        from corectron.lifting import lift

        config = tiny_config(setting=setting, algorithms=(algorithm,), horizon=40, diag_level="full")
        build = harness.build_learner
        learners, rounds = [], []

        def recording(config, algorithm, params):
            learner = build(config, algorithm, params)
            update = learner.update

            def update_and_record(z, g):
                rounds.append((np.array(z, dtype=float), g.copy()))
                return update(z, g)

            learner.update = update_and_record
            learners.append(learner)
            return learner

        monkeypatch.setattr(harness, "build_learner", recording)
        params = resolve_hyperparameters(config, algorithm, 1.0)
        result, trace = run_episode(
            config, algorithm, 1.0, params, FeedbackModel.one_swap(0.4), 2
        )
        # the trace Gram holds only the rounds with a mistake; an explicit
        # lift stores it from the smaller side, Phi Phi^T (r x r) or
        # Phi^T Phi (D x D)
        rounds = [(z, g) for z, g in rounds if g.any()]
        r = len(rounds)
        assert 0 < r < 40 and result.status == "ok"
        spec = learners[0].lift_spec
        if spec.kind == "kernel":
            dense = [
                [kernel_value(spec.kernel, zs, zt) * float(gs.dot(gt)) for zt, gt in rounds]
                for zs, gs in rounds
            ]
        else:
            lifted = [lift(spec, spec.check_context(z), g) for z, g in rounds]
            if r > spec.dim:
                dense = sum(np.outer(a, a) for a in lifted)
            else:
                dense = [[float(a.dot(b)) for b in lifted] for a in lifted]
        assert trace.gram.shape == np.shape(dense)
        assert np.any(trace.gram != 0.0)
        np.testing.assert_allclose(trace.gram, dense, rtol=1e-12, atol=1e-14)
        if algorithm == "corectron_k":
            L = learners[0]._chol.L
            ridged = trace.gram + learners[0].regularizer * np.eye(len(rounds))
            np.testing.assert_allclose(L.dot(L.T), ridged, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("setting, algorithm", [("kernel", "corectron_k"),
                                                    ("linear", "corectron_l")])
    def test_cap_bounds_the_stored_side_not_the_horizon(self, setting, algorithm):
        # the kernel Gram is r x r, the explicit one min(r, D) square, so an
        # episode longer than the cap stores its Gram when that side fits
        config = tiny_config(setting=setting, algorithms=(algorithm,), horizon=40,
                             diag_level="full")
        params = resolve_hyperparameters(config, algorithm, 1.0)
        feedback = FeedbackModel.one_swap(0.4)
        _, trace = run_episode(config, algorithm, 1.0, params, feedback, 2)
        side = trace.gram.shape[0]
        assert 0 < side < config.horizon
        result, fits = run_episode(replace(config, diag_cap=side), algorithm, 1.0, params,
                                   feedback, 2)
        np.testing.assert_array_equal(fits.gram, trace.gram)
        assert not result.skipped_checks
        result, over = run_episode(replace(config, diag_cap=side - 1), algorithm, 1.0,
                                   params, feedback, 2)
        assert over.gram is None and "elliptical_potential" in result.skipped_checks


class TestSweep:
    def test_row_count_is_full_product(self):
        config = tiny_config()
        rows = sweep(config)
        assert len(rows) == 3 * 2 * 2  # algorithms x coefficients x seeds

    def test_projection_counts_zero_for_projection_free_rows(self):
        config = tiny_config(horizon=40)
        rows = sweep(config)
        for r in rows:
            if r.algorithm in ("corectron_l", "ogd"):
                assert r.projection_count == 0

    def test_shared_streams_across_algorithms(self):
        config = tiny_config()
        env_a = make_environment(config, FeedbackModel.optimal(), seed=3)
        env_b = make_environment(config, FeedbackModel.optimal(), seed=3)
        np.testing.assert_array_equal(env_a.contexts, env_b.contexts)
        np.testing.assert_array_equal(env_a.revealed, env_b.revealed)

    def test_parallel_matches_sequential(self):
        config = tiny_config(horizon=15)
        seq = sweep(config, jobs=1)
        par = sweep(config, jobs=2)
        assert [r.csv_row()[:8] for r in seq] == [r.csv_row()[:8] for r in par]

    def test_pool_has_no_more_workers_than_cells(self, monkeypatch):
        import concurrent.futures

        workers = []

        class InlineExecutor:
            """Records its size and runs the tasks here; starts no process."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        config = tiny_config(horizon=10, algorithms=("corectron_l", "ons"), seeds=(0,))
        rows = sweep(config, jobs=8)
        assert workers == [4]  # 2 algorithms x 2 coefficients x 1 seed
        assert [r.csv_row()[:8] for r in rows] == [r.csv_row()[:8] for r in sweep(config)]

    def test_corrupted_inverse_fails_only_its_cell(self, monkeypatch):
        config = tiny_config(horizon=30)
        clean = sweep(config)
        build = harness.build_learner
        corrupted = []

        def corrupting(config, algorithm, params):
            learner = build(config, algorithm, params)
            if algorithm == "corectron_l" and not corrupted:
                # negative definite: the first nonzero residual breaks it
                learner._inv = SpdInverse(learner.lift_spec.dim, -1e6 * np.eye(learner.lift_spec.dim))
                corrupted.append(learner)
            return learner

        monkeypatch.setattr(harness, "build_learner", corrupting)
        rows = sweep(config)
        assert len(rows) == len(clean)
        assert rows[0].algorithm == "corectron_l" and rows[0].status == "failed"
        assert rows[0].message.startswith("FloatingPointError")
        for row, ref in zip(rows[1:], clean[1:]):
            assert row.status == "ok"
            assert row.csv_row()[:8] == ref.csv_row()[:8]

    @pytest.mark.parametrize("field", ["leverage", "alignment", "final_potential_direct"])
    def test_non_finite_diagnostic_fails_only_its_cell(self, monkeypatch, field):
        config = tiny_config(horizon=30)
        clean = sweep(config)
        build = harness.build_learner
        damaged = []

        def damaging(config, algorithm, params):
            learner = build(config, algorithm, params)
            if algorithm == "corectron_l" and not damaged:
                if field == "final_potential_direct":
                    learner.potential_direct = lambda: float("nan")
                else:
                    update = learner.update
                    learner.update = lambda z, g: update(z, g)._replace(**{field: float("inf")})
                damaged.append(learner)
            return learner

        monkeypatch.setattr(harness, "build_learner", damaging)
        rows = sweep(config)
        assert len(rows) == len(clean)
        assert rows[0].algorithm == "corectron_l" and rows[0].status == "failed"
        assert rows[0].message == f"FloatingPointError: non-finite {field}"
        for row, ref in zip(rows[1:], clean[1:]):
            assert row.status == "ok"
            assert row.csv_row()[:8] == ref.csv_row()[:8]

    def test_failed_cell_keeps_projections_before_its_failure(self, monkeypatch):
        # An update that raises at round k fails the cell, which still
        # reports the projections of rounds 0..k-1; k is the last
        # projecting round of the clean run.
        config = tiny_config(algorithms=("ons",), coef_grid=(0.01,), seeds=(0,),
                             feedback_models=(FeedbackModel.one_swap(0.5),))
        args = (config, "ons", 0.01, resolve_hyperparameters(config, "ons", 0.01),
                config.feedback_models[0], 0)
        update = ONS.update
        projected, fail_at = [], []

        def flaky(self, z, g):
            if len(projected) in fail_at:
                raise FloatingPointError("injected")
            diag = update(self, z, g)
            projected.append(diag.projected)
            return diag

        monkeypatch.setattr(ONS, "update", flaky)
        clean, _ = run_episode(*args)
        k = max(t for t, flag in enumerate(projected) if flag)
        before = sum(projected[:k])
        assert 0 < before < clean.projection_count == sum(projected)
        projected.clear()
        fail_at.append(k)
        failed, trace = run_episode(*args)
        assert (failed.status, failed.message) == ("failed", "FloatingPointError: injected")
        assert math.isnan(failed.final_regret) and trace is None
        assert failed.projection_count == before

    def test_feedback_sweep_expands_rows(self):
        config = tiny_config(
            algorithms=("ogd",),
            coef_grid=(1.0,),
            feedback_models=(
                FeedbackModel.optimal(),
                FeedbackModel.one_swap(0.5),
            ),
        )
        rows = sweep(config)
        assert len(rows) == 4
        assert {(r.alpha, r.xi) for r in rows} == {(0.0, 0.0), (0.5, 0.0)}


class TestAggregation:
    def test_mean_of_constant_rows(self):
        rows = [make_row(seed=s, final_regret=3.25) for s in range(4)]
        cells = aggregate_results(rows)
        assert len(cells) == 1
        assert cells[0]["mean_regret"] == 3.25
        assert cells[0]["std_regret"] == 0.0

    def test_failed_rows_excluded(self):
        rows = [make_row(seed=0), make_row(seed=1, status="failed",
                                           final_regret=float("nan"))]
        with pytest.warns(UserWarning):
            cells = aggregate_results(rows)
        assert cells[0]["n_seeds"] == 1
        assert cells[0]["n_failed"] == 1
        assert cells[0]["mean_regret"] == 2.5

    def test_best_coefficient_ties_to_smaller(self):
        rows = []
        for coef in (0.1, 1.0, 10.0):
            for seed in range(3):
                regret = 5.0 if coef != 10.0 else 7.0
                rows.append(make_row(coefficient=coef, seed=seed,
                                     final_regret=regret))
        best = best_coefficients(rows)
        assert best["ogd"][0] == 0.1

    def test_best_is_argmin_of_means(self):
        rows = [
            make_row(coefficient=0.1, seed=0, final_regret=9.0),
            make_row(coefficient=0.1, seed=1, final_regret=9.0),
            make_row(coefficient=1.0, seed=0, final_regret=2.0),
            make_row(coefficient=1.0, seed=1, final_regret=4.0),
        ]
        coef, mean = best_coefficients(rows)["ogd"]
        assert coef == 1.0
        assert mean == pytest.approx(3.0)


class TestEmit:
    def test_empty_results_header_only(self, tmp_path):
        paths = emit([], tmp_path)
        with open(paths["csv"]) as fh:
            content = fh.read().strip()
        assert content == CSV_HEADER

    def test_schema_and_round_trip(self, tmp_path):
        config = tiny_config(horizon=20, algorithms=("corectron_l",),
                             coef_grid=(1.0,), seeds=(0,))
        rows = sweep(config)
        paths = emit(rows, tmp_path, config=config)
        with open(paths["csv"]) as fh:
            header = fh.readline().strip()
        assert header == CSV_HEADER
        parsed = read_results_csv(paths["csv"])
        assert len(parsed) == len(rows)
        for rec, row in zip(parsed, rows):
            assert rec.final_regret == row.final_regret  # full precision
            assert rec.coefficient == row.coefficient
            assert rec.projection_count == row.projection_count

    def test_every_csv_column_round_trips(self, tmp_path):
        # a feedback model built with a numpy scalar still writes plain
        # decimals that read back
        feedback = FeedbackModel("one_swap", alpha=np.float64(0.5))
        config = tiny_config(feedback_models=(feedback,), seeds=(0,), coef_grid=(0.01,))
        rows = sweep(config)
        assert any(r.projection_count > 0 for r in rows)
        paths = emit(rows, tmp_path, config=config)
        with open(paths["csv"], newline="") as fh:
            assert {rec["alpha"] for rec in csv.DictReader(fh)} == {"0.5"}
        columns = ("setting", "algorithm", "coefficient", "seed", "alpha", "xi",
                   "horizon", "final_regret", "runtime_seconds", "projection_count")
        parsed = read_results_csv(paths["csv"])
        assert len(parsed) == len(rows)
        for back, row in zip(parsed, rows):
            for name in columns:
                assert getattr(back, name) == getattr(row, name), name
            assert back.csv_row() == row.csv_row()
            assert back.total_seconds == row.runtime_seconds

    def test_report_embeds_certificates(self, tmp_path):
        config = tiny_config(horizon=20, algorithms=("corectron_l",),
                             coef_grid=(1.0,), seeds=(0,), diag_level="full")
        rows = sweep(config)
        paths = emit(rows, tmp_path, config=config)
        with open(paths["json"]) as fh:
            report = json.load(fh)
        certs = report["results"][0]["certificates"]
        assert certs and all(c["holds"] for c in certs)
        assert report["certificates_failed"] == 0
        assert report["config"] == {
            "setting": "linear",
            "algorithms": ["corectron_l"],
            "items": 4,
            "pick": 2,
            "context_dim": 3,
            "horizon": 20,
            "bandwidth": 1.0,
            "seeds": [0],
            "coef_grid": [1.0],
            "feedback_models": [{"kind": "optimal", "alpha": 0.0, "xi": 0.0}],
            "diag_cap": 2000,
            "diag_level": "full",
        }

    def test_report_records_each_openblas_thread_count_in_effect(self, tmp_path):
        # read back from each library at emit, after a change at run time
        SpdInverse.from_ridge(2, 1.0)  # loads scipy's BLAS
        libraries = {"numpy": np, "scipy": scipy}
        get, put = {}, {}
        for name, package in libraries.items():
            get[name], put[name] = harness._openblas_functions(
                package, ("get_num_threads", "set_num_threads"))
        before = {name: function() for name, function in get.items()}
        try:
            for threads in sorted({1, before["numpy"]}):
                for function in put.values():
                    function(threads)
                with open(emit([], tmp_path)["json"]) as fh:
                    blas = json.load(fh)["provenance"]["blas"]
                assert set(blas) == set(libraries)
                for entry in blas.values():
                    assert entry["threads"] == threads
                    assert entry["config"].startswith(f"OpenBLAS {entry['version']}")
        finally:
            for name, function in put.items():
                function(before[name])

    def test_report_finds_each_openblas_without_the_process_maps(self, tmp_path, monkeypatch):
        # Each library is found through the module that calls it, so a
        # process that cannot read its own maps records both all the same.
        real_open = open

        def open_without_maps(path, *args, **kwargs):
            if path == "/proc/self/maps":
                raise OSError("no maps here")
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", open_without_maps)
        with real_open(emit([], tmp_path)["json"]) as fh:
            blas = json.load(fh)["provenance"]["blas"]
        assert set(blas) == {"numpy", "scipy"}
        for entry in blas.values():
            assert entry["threads"] >= 1
            assert entry["config"].startswith(f"OpenBLAS {entry['version']}")


class TestCli:
    @pytest.mark.parametrize("setting, algos, jobs", [
        ("linear", "corectron-l", 1),
        ("linear", "corectron-l", 2),
        ("kernel", "corectron-k", 1),
        ("kernel", "corectron-k", 2),
        ("linear", "ogd", 1),
    ])
    def test_report_records_blas_provenance(self, tmp_path, monkeypatch, setting, algos, jobs):
        # As in a fresh process, where no run has loaded scipy.linalg or its
        # BLAS module yet; its submodules go too, so that the run loads the
        # BLAS module afresh.
        for name in [m for m in sys.modules if m.split(".")[:2] == ["scipy", "linalg"]]:
            monkeypatch.delitem(sys.modules, name)
        if "linalg" in vars(scipy):  # hasattr would import it through scipy's __getattr__
            monkeypatch.delattr(scipy, "linalg")
        out = tmp_path / "out"
        assert cli_main(["run", "--setting", setting, "--algos", algos, "--T", "5",
                         "--seeds", "2", "--coef-grid", "1", "--n", "4", "--m", "2",
                         "--p", "3", "--jobs", str(jobs), "--out", str(out)]) == 0
        with open(out / "report.json") as fh:
            provenance = json.load(fh)["provenance"]
        # Each OpenBLAS's thread count and core, read back from the library.
        for entry in provenance["blas"].values():
            assert entry.pop("threads") >= 1
            assert entry.pop("config").startswith(f"OpenBLAS {entry['version']}")
        # The report names scipy's BLAS too, though neither an OGD-only run
        # nor the parent of parallel workers builds a learner that uses it.
        blas = {"numpy": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
                "scipy": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]}
        assert provenance == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {lib: {"name": b["name"], "version": b["version"]} for lib, b in blas.items()},
        }
        assert SCIPY_BLAS in sys.modules
        assert "scipy.linalg" not in sys.modules

    def test_run_certify_best_workflow(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main([
            "run", "--setting", "linear", "--algos", "corectron-l,ogd",
            "--T", "30", "--seeds", "2", "--coef-grid", "0.1,1",
            "--n", "4", "--m", "2", "--p", "3",
            "--out", str(out), "--save-traces", "--diag-level", "full",
        ])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "report.json").exists()
        traces = sorted((out / "traces").iterdir())
        assert traces

        code = cli_main(["certify", "--trace", str(traces[0])])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

        code = cli_main(["best", "--in", str(out / "results.csv")])
        assert code == 0
        assert "corectron_l" in capsys.readouterr().out

    def test_certify_fails_tampered_trace(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main([
            "run", "--setting", "linear", "--algos", "corectron-l",
            "--T", "30", "--seeds", "1", "--coef-grid", "1",
            "--n", "4", "--m", "2", "--p", "3",
            "--out", str(out), "--save-traces", "--diag-level", "full",
        ])
        assert code == 0
        (path,) = (out / "traces").iterdir()
        saved = json.loads(path.read_text())
        saved["regret"] = [r + 10.0 for r in saved["regret"]]
        path.write_text(json.dumps(saved))
        capsys.readouterr()
        code = cli_main(["certify", "--trace", str(path)])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("main_regret_bound") and "FAIL" in line for line in lines)

    @pytest.mark.parametrize("damage", ["missing_file", "bad_json", "missing_key",
                                        "zero_regularizer", "bad_model_kind",
                                        "short_potential_direct", "short_leverage",
                                        "nonsquare_gram", "asymmetric_gram",
                                        "string_regularizer", "small_horizon",
                                        "nan_regularizer", "inf_regularizer",
                                        "leverage_below_minus_one", "inf_alignment",
                                        "nan_diameter", "nan_regret",
                                        "nan_final_potential_direct", "nan_gram"])
    def test_certify_rejects_unreadable_trace(self, tmp_path, capsys, damage):
        config = tiny_config(horizon=20, diag_level="full")
        params = resolve_hyperparameters(config, "corectron_l", 1.0)
        _, trace = run_episode(config, "corectron_l", 1.0, params, FeedbackModel.optimal(), 0)
        saved = trace.to_dict()
        path = tmp_path / "trace.json"
        if damage == "bad_json":
            path.write_text(json.dumps(saved)[:-1])
        elif damage == "missing_key":
            del saved["leverage"]
            path.write_text(json.dumps(saved))
        elif damage == "zero_regularizer":
            saved["regularizer"] = 0.0
            path.write_text(json.dumps(saved))
        elif damage == "bad_model_kind":
            saved["model_kind"] = "mystery"
            path.write_text(json.dumps(saved))
        elif damage in ("nan_regularizer", "inf_regularizer"):
            # json writes these as the non-standard NaN / Infinity tokens, which it reads back
            saved["regularizer"] = float(damage.removesuffix("_regularizer"))
            path.write_text(json.dumps(saved))
        elif damage == "leverage_below_minus_one":
            saved["leverage"][0] = -2.0
            path.write_text(json.dumps(saved))
        elif damage in ("inf_alignment", "nan_diameter", "nan_regret",
                        "nan_final_potential_direct", "nan_gram"):
            bad, key = damage.split("_", 1)
            value = float(bad)
            if isinstance(saved[key], list):
                row = saved[key][0] if key == "gram" else saved[key]
                row[0] = value
            else:
                saved[key] = value
            path.write_text(json.dumps(saved))
        elif damage != "missing_file":
            # internally inconsistent: each field reads, but they disagree
            assert len(saved["gram"]) >= 2
            if damage in ("short_potential_direct", "short_leverage"):
                key = damage.removeprefix("short_")
                saved[key] = saved[key][:-1]
            elif damage == "nonsquare_gram":
                saved["gram"] = saved["gram"][:-1]
            elif damage == "asymmetric_gram":
                saved["gram"][0][1] += 1.0
            elif damage == "string_regularizer":
                saved["regularizer"] = str(saved["regularizer"])
            elif damage == "small_horizon":
                saved["horizon"] = 5
            path.write_text(json.dumps(saved))
        code = cli_main(["certify", "--trace", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert not captured.out
        (line,) = captured.err.splitlines()
        assert line.startswith(f"corectron certify: cannot read trace {path}: ")
        if damage == "missing_key":
            assert line.endswith("leverage")
        if damage.startswith(("inf_", "nan_")) and not damage.endswith("_regularizer"):
            assert line.endswith(f"{damage.split('_', 1)[1]} must be finite")

    @pytest.mark.parametrize("args", [["--n", "3", "--m", "5"], ["--alpha", "1.5"],
                                      ["--T", "-1"], ["--alpha", "0.5", "--xi", "0.5"],
                                      ["--diag-cap", "-1"], ["--coef-grid", "nan"],
                                      ["--coef-grid", "1,inf"], ["--jobs", "0"],
                                      ["--jobs", "-2"], ["--alpha", "-0.5"],
                                      ["--alpha", "nan"], ["--xi", "-1"], ["--xi", "nan"],
                                      ["--xi", "inf"], ["--p", "0"],
                                      ["--setting", "kernel", "--bandwidth", "0"],
                                      ["--seeds", "0"], ["--coef-grid", "0"]])
    def test_run_rejects_bad_input_in_one_line(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        code = cli_main(["run", *args, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert not captured.out
        (line,) = captured.err.splitlines()
        assert line.startswith("corectron run: ")
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["missing_file", "empty_file", "missing_column",
                                        "bad_value", "short_row", "not_text"])
    def test_best_rejects_unreadable_csv(self, tmp_path, capsys, damage):
        path = tmp_path / "results.csv"
        if damage == "not_text":
            path.write_bytes(b"\xff\xfe\x00garbage")
        elif damage != "missing_file":
            emit([make_row(), make_row(coefficient=0.1)], tmp_path)
            header, first, second = path.read_text().splitlines()
            lines = {
                "empty_file": [],
                "missing_column": [",".join(line.split(",")[1:]) for line in (header, first, second)],
                "bad_value": [header, first, second.replace("0.1", "tenth")],
                "short_row": [header, first, second.rsplit(",", 1)[0]],
            }[damage]
            path.write_text("".join(line + "\n" for line in lines))
        code = cli_main(["best", "--in", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert not captured.out
        (line,) = captured.err.splitlines()
        assert line.startswith(f"corectron best: cannot read results {path}: ")
        if damage == "missing_column":
            assert line.endswith("missing column(s) setting")
        if damage in ("bad_value", "short_row"):
            assert ": line 3: " in line

    @pytest.mark.parametrize("setting, tiny, algos", [
        ("linear", 1e-30, ("ons", "corectron_l")),
        ("noncontextual", 1e-100, ("ons", "corectron_l")),
    ], ids=["linear-1e-30", "noncontextual-1e-100"])
    def test_tiny_ridge_fails_only_its_cells(self, tmp_path, capsys, setting, tiny, algos):
        # a ridge lost to rounding leaves ONS an inverse metric that is not
        # positive definite: its cells fail, and the sweep finishes and
        # writes every cell
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="failed episode"):
            code = cli_main(["run", "--setting", setting,
                             "--algos", ",".join(a.replace("_", "-") for a in algos),
                             "--coef-grid", f"{tiny!r},1", "--T", "150", "--seeds", "1",
                             "--n", "6", "--m", "3", "--p", "3", "--out", str(out)])
        assert code == 0
        rows = read_results_csv(out / "results.csv")
        assert {(r.algorithm, r.coefficient) for r in rows} == {
            (a, c) for a in algos for c in (tiny, 1.0)}
        report = json.loads((out / "report.json").read_text())
        status = {(r["algorithm"], r["coefficient"]): (r["status"], r["message"])
                  for r in report["results"]}
        assert status[("ons", tiny)] == (
            "failed", "LinAlgError: inverse metric must be positive definite")
        for algorithm in algos:
            assert status[(algorithm, tiny)][0] == "failed"
            assert status[(algorithm, 1.0)] == ("ok", "")

    def test_run_rejects_conflicting_noise(self, tmp_path):
        code = cli_main([
            "run", "--alpha", "0.5", "--xi", "0.5", "--out", str(tmp_path)
        ])
        assert code == 2

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "--algos", "mystery"])

    def test_diag_level_off_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--diag-level", "off"])
        assert exc.value.code == 2

    def test_removed_pinning_flag_rejected(self):
        # BLAS threads are set by the environment alone.
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--single-thread"])
        assert exc.value.code == 2
