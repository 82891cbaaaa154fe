import json
import math
from dataclasses import fields

import numpy as np
import pytest

from corectron.cli import main as cli_main
from corectron.diagnostics import (
    Certificate,
    TraceSummary,
    check_cei,
    check_gram_spectrum,
    check_increment_identity,
    check_main_bound,
    check_potential_crosscheck,
    check_robust_bound,
    check_sign_condition,
    standard_certificates,
)
from corectron.environment import BOUND_PAYOFF, FeedbackModel
from corectron.harness import default_config, resolve_hyperparameters, run_episode


def run_trace(setting="linear", algorithm="corectron_l", T=120, coefficient=1.0,
              feedback=None, seed=0, **overrides):
    config = default_config(setting, horizon=T, seeds=(seed,), diag_level="full",
                            **overrides)
    params = resolve_hyperparameters(config, algorithm, coefficient)
    fb = feedback or FeedbackModel.optimal()
    result, trace = run_episode(config, algorithm, coefficient, params, fb, seed)
    assert result.status == "ok"
    return result, trace


def empty_trace():
    z = np.empty(0)
    return TraceSummary(
        algorithm="corectron_l", model_kind="linear", regularizer=1.0, horizon=0,
        base_dim=3, context_dim=2, diameter=1.0,
        leverage=z, alignment=z, alignment_scale=z, regret=z,
        subopt=z, final_potential_direct=0.0,
        potential_direct=z, post_leverage=z, gram=np.empty((0, 0)),
    )


class TestCertificate:
    def test_holds_within_tolerance(self):
        c = Certificate("x", 1.0, 1.0 - 5e-7, tolerance=1e-6 * 2.0)
        assert c.holds
        assert c.slack == pytest.approx(-5e-7)

    def test_fails_beyond_tolerance(self):
        assert not Certificate("x", 2.0, 1.0, tolerance=1e-6).holds


class TestEmptyTraces:
    def test_all_checks_trivial(self):
        tr = empty_trace()
        assert check_sign_condition(tr).holds
        assert check_cei(tr).holds
        spectral = check_gram_spectrum(tr)
        assert [c.name for c in spectral] == [
            "elliptical_potential", "logdet_product_identity",
            "logdet_effective_dim", "gram_operator_norm",
        ]
        assert all(c.holds for c in spectral)
        assert check_main_bound(tr).holds
        assert all(c.holds for c in check_robust_bound(tr))
        # the general formulas, with no horizon-0 branch, give these exactly
        general = [check_cei(tr), check_main_bound(tr), *check_robust_bound(tr)]
        assert [c.name for c in general] == [
            "cumulative_potential_bound", "main_regret_bound",
            "robust_regret_bound", "squared_regret_self_bound",
        ]
        assert all((c.lhs, c.rhs, c.tolerance) == (0.0, 0.0, 1e-6) for c in general)
        certs, skipped = standard_certificates(tr)
        assert all(c.holds for c in certs)
        assert not skipped


class TestOnRealRuns:
    @pytest.mark.parametrize(
        "setting,algorithm,feedback",
        [
            ("linear", "corectron_l", None),
            ("linear", "corectron_l", FeedbackModel.one_swap(1.0)),
            ("linear", "corectron_l", FeedbackModel.score_perturb(0.5)),
            ("kernel", "corectron_k", None),
            ("kernel", "corectron_k", FeedbackModel.one_swap(0.5)),
            ("noncontextual", "corectron_l", None),
        ],
    )
    def test_full_battery_holds(self, setting, algorithm, feedback):
        result, trace = run_trace(setting=setting, algorithm=algorithm,
                                  feedback=feedback)
        certs, skipped = standard_certificates(trace)
        assert not skipped
        failed = [c for c in certs if not c.holds]
        assert not failed, [(c.name, c.lhs, c.rhs) for c in failed]

    def test_single_round_identity(self):
        # after one round the alignment vanishes, so the potential equals
        # the post-update leverage exactly
        _, trace = run_trace(T=1)
        assert trace.alignment[0] == 0.0
        expected = trace.leverage[0] / (1.0 + trace.leverage[0])
        assert trace.final_potential_direct == pytest.approx(expected, abs=1e-9)

    def test_sign_condition_census_is_zero(self):
        _, trace = run_trace(feedback=FeedbackModel.score_perturb(1.0), T=200)
        over = np.sum(trace.alignment > 1e-9 * trace.alignment_scale)
        assert over == 0

    def test_optimal_feedback_reduces_robust_to_main_form(self):
        _, trace = run_trace(T=100)
        assert trace.total_subopt() == 0.0
        robust, self_bound = check_robust_bound(trace)
        B, lam = BOUND_PAYOFF, trace.regularizer
        H = trace.logdet_from_leverage()
        expect = B * H + np.sqrt(lam * H)
        assert robust.rhs == pytest.approx(expect)
        assert robust.holds and self_bound.holds

    def test_logdet_identity_on_orthogonal_stream(self):
        # orthogonal residuals decouple: both sides reduce to the same
        # closed-form sum
        from corectron.learners import CoRectron
        from corectron.lifting import LiftSpec

        lam, d = 2.0, 6
        learner = CoRectron(LiftSpec.identity(d), lam)
        gs = np.eye(d) * 1.5
        log_prod = 0.0
        for i in range(d):
            diag = learner.update(None, gs[i])
            log_prod += np.log1p(diag.leverage)
        K = gs.dot(gs.T)
        expect = float(np.sum(np.log1p(np.diag(K) / lam)))
        assert log_prod == pytest.approx(expect, rel=1e-12)

    def test_residual_route_matches_per_round_regret(self, monkeypatch):
        # each lifted residual's inner product with the hidden utility is
        # minus that round's regret, so -<u*, sum lift(z_t, g_t)> is the
        # total regret
        from corectron import harness

        built = {}
        for name in ("build_learner", "make_environment"):
            make = getattr(harness, name)
            monkeypatch.setattr(
                harness, name, lambda *a, make=make, name=name: built.setdefault(name, make(*a))
            )
        _, trace = run_trace(T=150)
        comparator = built["make_environment"].model.weights.flatten(order="F")
        residual_regret = -float(comparator.dot(built["build_learner"]._cum))
        assert residual_regret == pytest.approx(trace.total_regret(), rel=1e-8, abs=1e-10)

    def test_potential_crosscheck_tight(self):
        _, trace = run_trace(T=400, coefficient=0.001)
        cert = check_potential_crosscheck(trace)
        assert cert.holds

    def test_model_mismatch_skips_comparator_bounds(self):
        # the linear-lift learner as a reference method on RBF utilities:
        # no element of its lifted space realises the hidden utility, so
        # the comparator-dependent bounds are skipped, everything else runs
        result, trace = run_trace(setting="kernel", algorithm="corectron_l", T=80)
        assert not trace.comparator_in_span
        certs, skipped = standard_certificates(trace)
        assert set(skipped) == {"main_regret_bound", "robust_regret_bound"}
        names = {c.name for c in certs}
        assert "squared_regret_self_bound" in names
        assert all(c.holds for c in certs), [c.name for c in certs if not c.holds]

    def test_default_linear_horizon_runs_every_certificate(self):
        # the CLI's default linear run (T=2000) certifies in full: the
        # 100-dimensional lift has more mistakes than dimensions, so it
        # stores the 100 x 100 side of their Gram
        config = default_config("linear", seeds=(0,))
        assert config.horizon == 2000 and config.diag_level == "full"
        params = resolve_hyperparameters(config, "corectron_l", 1.0)
        result, trace = run_episode(config, "corectron_l", 1.0, params,
                                    FeedbackModel.optimal(), 0)
        assert result.status == "ok" and not result.skipped_checks
        assert len(result.certificates) == 12
        assert all(c.holds for c in result.certificates)
        assert np.count_nonzero(trace.leverage) > 100
        assert trace.gram.shape == (100, 100)

    def test_gram_cap_skips_spectral_checks(self):
        result, trace = run_trace(T=60, diag_cap=10)
        assert trace.gram is None
        certs, skipped = standard_certificates(trace)
        assert result.skipped_checks == tuple(skipped)
        assert "elliptical_potential" in skipped
        assert "logdet_product_identity" in skipped
        names = {c.name for c in certs}
        # O(T) checks still run
        assert {"sign_condition", "cumulative_potential_bound",
                "main_regret_bound"} <= names
        assert all(c.holds for c in certs)

    def test_increment_identity_needs_record(self):
        _, trace = run_trace(T=30)
        trace.potential_direct = None
        with pytest.raises(ValueError):
            check_increment_identity(trace)

    def test_unknown_model_kind_rejected(self):
        _, trace = run_trace(T=10)
        saved = {f.name: getattr(trace, f.name) for f in fields(TraceSummary)}
        saved["model_kind"] = "mystery"
        with pytest.raises(ValueError, match="unknown model kind"):
            TraceSummary(**saved)

    def test_certificates_read_every_field_but_file_metadata(self):
        # a field no certificate reads is either file metadata or dead
        read = set()

        class RecordingTrace(TraceSummary):
            def __getattribute__(self, name):
                read.add(name)
                return object.__getattribute__(self, name)

        names = {f.name for f in fields(TraceSummary)}
        traces = []
        for setting, algorithm in [("linear", "corectron_l"), ("kernel", "corectron_k"),
                                   ("noncontextual", "corectron_l")]:
            _, trace = run_trace(setting=setting, algorithm=algorithm, T=40)
            traces.append(RecordingTrace(**{n: getattr(trace, n) for n in names}))
        read.clear()
        for trace in traces:
            _, skipped = standard_certificates(trace)
            assert not skipped
        assert names - read == {"algorithm", "model_kind", "base_dim", "context_dim"}

    def test_spectral_checks_need_stored_gram(self):
        _, trace = run_trace(T=10)
        trace.gram = None
        with pytest.raises(ValueError, match="no stored Gram"):
            check_gram_spectrum(trace)


    def test_spectral_checks_share_one_eigendecomposition(self, monkeypatch):
        # one eigvalsh per battery, of the stored Gram matrix (the rounds
        # with a mistake only), and the certificate values of the
        # spectral expressions, bit for bit
        _, trace = run_trace(setting="kernel", algorithm="corectron_k", T=60)
        trace = TraceSummary.from_dict(trace.to_dict())
        lam = trace.regularizer
        r = int(np.count_nonzero(trace.leverage))
        assert 0 < r < trace.horizon and trace.gram.shape == (r, r)
        evals = np.clip(np.linalg.eigvalsh(trace.gram), 0.0, None)
        h_eig = float(np.sum(np.log1p(evals / lam)))
        deff = float(np.sum(evals / (evals + lam)))
        opnorm = float(evals[-1])
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda K: calls.append(K) or eigvalsh(K))
        certs = {c.name: c for c in standard_certificates(trace)[0]}
        assert len(calls) == 1
        assert certs["elliptical_potential"].rhs == h_eig
        assert certs["logdet_product_identity"].lhs == abs(trace.logdet_from_leverage() - h_eig)
        assert certs["logdet_effective_dim"].lhs == h_eig
        assert certs["logdet_effective_dim"].rhs == deff * (1.0 + math.log1p(opnorm / lam))
        assert certs["gram_operator_norm"].lhs == opnorm
        trace.gram = trace.gram.copy()
        standard_certificates(trace)
        assert len(calls) == 2  # each battery decomposes once


class TestTraceSerialization:
    def test_round_trip(self, tmp_path):
        _, trace = run_trace(T=50)
        path = tmp_path / "trace.json"
        trace.save(path)
        back = TraceSummary.load(path)
        np.testing.assert_array_equal(back.leverage, trace.leverage)
        np.testing.assert_array_equal(back.gram, trace.gram)
        assert back.regularizer == trace.regularizer
        assert back.to_dict() == trace.to_dict()
        certs_a, _ = standard_certificates(trace)
        certs_b, _ = standard_certificates(back)
        for ca, cb in zip(certs_a, certs_b):
            assert ca.name == cb.name
            assert ca.lhs == pytest.approx(cb.lhs)
            assert ca.holds == cb.holds

    def test_missing_optional_keys_take_defaults(self):
        # trace files written before this field existed lack its key
        _, trace = run_trace(T=30)
        saved = trace.to_dict()
        del saved["comparator_in_span"]
        back = TraceSummary.from_dict(saved)
        assert back.comparator_in_span is True
        np.testing.assert_array_equal(back.gram, trace.gram)

    def test_trace_without_mistake_certifies(self, tmp_path):
        # every recommendation is the revealed action, so the Gram of the
        # rounds with a mistake is 0 x 0, which the file holds as []
        _, trace = run_trace(setting="noncontextual", T=20, items=2, pick=1)
        assert not trace.leverage.any() and trace.gram.shape == (0, 0)
        path = tmp_path / "trace.json"
        trace.save(path)
        back = TraceSummary.load(path)
        assert back.gram.shape == (0, 0)
        certs, skipped = standard_certificates(back)
        assert not skipped and all(c.holds for c in certs)
        assert cli_main(["certify", "--trace", str(path)]) == 0

    @pytest.mark.parametrize("setting, algorithm, coefficient", [
        ("noncontextual", "corectron_l", 0.01),
        ("linear", "corectron_l", 1.0),
        ("kernel", "corectron_k", 0.01),
    ])
    def test_horizon_square_gram_certifies_the_same(self, monkeypatch, setting, algorithm,
                                                   coefficient):
        # trace files written when the Gram had a row per round carry a
        # T x T matrix, zero on the rounds without a mistake, and a
        # gram_capped key
        from corectron import harness
        from corectron.lifting import lift

        build = harness.build_learner
        rounds, specs = [], []

        def recording(config, algorithm, params):
            learner = build(config, algorithm, params)
            update = learner.update

            def update_and_record(z, g):
                if g.any():
                    rounds.append((learner.lift_spec.check_context(z), g.copy()))
                return update(z, g)

            learner.update = update_and_record
            specs.append(learner.lift_spec)
            return learner

        monkeypatch.setattr(harness, "build_learner", recording)
        _, trace = run_trace(setting=setting, algorithm=algorithm, T=150,
                             coefficient=coefficient, feedback=FeedbackModel.one_swap(0.5))
        mistakes = np.flatnonzero(trace.leverage)
        assert 0 < mistakes.size < trace.horizon and len(rounds) == mistakes.size
        if algorithm == "corectron_k":
            assert trace.gram.shape[0] == mistakes.size
            dense = trace.gram
        else:
            # an explicit lift stores the smaller side; the old file held
            # the r x r Gram of the lifted residuals
            (spec,) = specs
            assert trace.gram.shape[0] == min(mistakes.size, spec.dim)
            lifted = np.array([lift(spec, z, g) for z, g in rounds])
            dense = [[float(a.dot(b)) for b in lifted] for a in lifted]
        padded = np.zeros((trace.horizon, trace.horizon))
        padded[np.ix_(mistakes, mistakes)] = dense
        saved = trace.to_dict()
        saved.update(gram=padded.tolist(), gram_capped=False)
        old = standard_certificates(TraceSummary.from_dict(saved))[0]
        new = standard_certificates(trace)[0]
        assert [c.name for c in old] == [c.name for c in new]
        for a, b in zip(old, new):
            assert a.holds == b.holds
            assert abs(a.lhs - b.lhs) <= 1e-12 * (1.0 + abs(b.lhs))
            assert abs(a.rhs - b.rhs) <= 1e-12 * (1.0 + abs(b.rhs))

    def test_missing_required_key_named(self, tmp_path):
        _, trace = run_trace(T=30)
        saved = trace.to_dict()
        del saved["leverage"]
        path = tmp_path / "short_trace.json"
        path.write_text(json.dumps(saved))
        with pytest.raises(ValueError, match="required keys: leverage$"):
            TraceSummary.load(path)

    @pytest.mark.parametrize("regularizer", [0.0, -1.0])
    def test_nonpositive_regularizer_rejected(self, tmp_path, regularizer):
        _, trace = run_trace(T=30)
        saved = trace.to_dict()
        saved["regularizer"] = regularizer
        path = tmp_path / "bad_trace.json"
        path.write_text(json.dumps(saved))
        with pytest.raises(ValueError, match="regularizer"):
            standard_certificates(TraceSummary.load(path))

    def test_loads_trace_with_extras_key(self, tmp_path):
        # trace files written before these fields were removed carry
        # "extras", "projected" and "residual_regret", and later ones the
        # running "potential" and four problem constants that were always 1
        _, trace = run_trace(T=30)
        saved = trace.to_dict()
        retired = {"extras": {}, "projected": [0] * 30, "residual_regret": trace.total_regret(),
                   "potential": np.cumsum(trace.potential_increments()).tolist(),
                   "bound_payoff": 1.0, "context_bound": 1.0, "kernel_bound": 1.0,
                   "comparator_norm": 1.0}
        assert not retired.keys() & saved.keys()
        saved.update(retired)
        path = tmp_path / "old_trace.json"
        path.write_text(json.dumps(saved))
        back = TraceSummary.load(path)
        np.testing.assert_array_equal(back.gram, trace.gram)
        certs_a, _ = standard_certificates(trace)
        certs_b, _ = standard_certificates(back)
        assert [c.to_dict() for c in certs_a] == [c.to_dict() for c in certs_b]

