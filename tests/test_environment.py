import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corectron import environment
from corectron.environment import (
    MODELS,
    ROLE_CONTEXTS,
    ROLE_FEEDBACK,
    ROLE_MODEL,
    ActionSetSpec,
    Environment,
    FeedbackModel,
    FixedUtility,
    LinearUtility,
    RbfUtility,
    UtilitySpec,
    build_utility_model,
    reveal_action,
    rng_stream,
    sample_context,
    suboptimality,
    top_m_oracle,
    utility_eval,
)
from corectron.lifting import KernelSpec

from kernel_reference import kernel_value


class _StubRng:
    def __init__(self, draw):
        self._draw = np.asarray(draw, dtype=float)

    def standard_normal(self, shape):
        assert np.empty(shape).shape == self._draw.shape
        return self._draw.copy()


def _assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# The per-round construction of the environment, kept as written before its
# helpers took whole-horizon stacks: one draw, one utility and one reveal per
# round.  The stacked construction must reproduce it bit for bit.


def _reference_oracle(w, spec):
    x = np.zeros(spec.n)
    x[np.argsort(-w, kind="stable")[: spec.m]] = spec.scale
    return x


def _reference_utility(model, z):
    if isinstance(model, FixedUtility):
        return model.vector.copy()
    if isinstance(model, LinearUtility):
        return model.weights.dot(z)
    d = model.centers - z[None, :]
    return np.exp(-np.einsum("ij,ij->i", d, d) / (2.0 * model.bandwidth**2)).dot(model.coeffs)


def _reference_reveal(model, u, spec, rng):
    if model.kind == "optimal":
        return _reference_oracle(u, spec), 0.0
    if model.kind == "one_swap":
        coin = float(rng.random())
        x = _reference_oracle(u, spec)
        if coin < model.alpha and spec.m < spec.n:
            ranked = np.argsort(-u, kind="stable")
            x[ranked[spec.m - 1]] = 0.0
            x[ranked[spec.m]] = spec.scale
            return x, spec.scale * float(u[ranked[spec.m - 1]] - u[ranked[spec.m]])
        return x, 0.0
    noise = rng.standard_normal(spec.n)
    x = _reference_oracle(u + model.xi * float(np.linalg.norm(u)) * noise, spec)
    return x, float(u.dot(_reference_oracle(u, spec)) - u.dot(x))


def _reference_environment(actions, utility, feedback, horizon, seed):
    model = build_utility_model(rng_stream(seed, ROLE_MODEL), utility, actions.n)
    p = max(utility.context_dim, 1)
    rng_ctx, rng_fb = rng_stream(seed, ROLE_CONTEXTS), rng_stream(seed, ROLE_FEEDBACK)
    contexts = np.empty((horizon, p))
    for t in range(horizon):
        z = rng_ctx.standard_normal(p)
        nrm = float(np.linalg.norm(z))
        if nrm > 1.0:
            z /= nrm
        contexts[t] = z
    utilities = np.empty((horizon, actions.n))
    for t in range(horizon):
        utilities[t] = _reference_utility(model, contexts[t])
    revealed, subopt = np.empty((horizon, actions.n)), np.empty(horizon)
    for t in range(horizon):
        revealed[t], subopt[t] = _reference_reveal(feedback, utilities[t], actions, rng_fb)
    return {"contexts": contexts, "utilities": utilities, "revealed": revealed, "subopt": subopt}


_UTILITIES = {
    "linear_wide": UtilitySpec("linear", context_dim=100),
    "linear": UtilitySpec("linear", context_dim=10),
    "kernel": UtilitySpec("kernel", context_dim=10, bandwidth=1.0),
    "noncontextual": UtilitySpec("noncontextual", context_dim=10),
}
_FEEDBACKS = {
    "optimal": FeedbackModel.optimal(),
    "one_swap_0.5": FeedbackModel.one_swap(0.5),
    "one_swap_1": FeedbackModel.one_swap(1.0),
    "score_perturb_0": FeedbackModel.score_perturb(0.0),
    "score_perturb_0.3": FeedbackModel.score_perturb(0.3),
}


class TestActionSetSpec:
    def test_default_scale_reproduces_unit_diameter(self):
        spec = ActionSetSpec(10, 5)
        assert spec.scale == pytest.approx(1.0 / math.sqrt(10.0))
        assert spec.diameter == pytest.approx(1.0)

    def test_diameter_bound_over_all_pairs(self):
        # exhaustive pair check on a small instance
        from itertools import combinations

        spec = ActionSetSpec(6, 2)
        acts = []
        for sel in combinations(range(6), 2):
            x = np.zeros(6)
            x[list(sel)] = spec.scale
            acts.append(x)
        worst = max(
            np.linalg.norm(a - b) for a in acts for b in acts
        )
        assert worst <= 1.0 + 1e-12


class TestTopMOracle:
    def test_example(self):
        spec = ActionSetSpec(3, 2)
        x = top_m_oracle(np.array([3.0, 1.0, 2.0]), spec)
        np.testing.assert_allclose(x, spec.scale * np.array([1.0, 0.0, 1.0]))

    def test_zero_scores_tie_break(self):
        spec = ActionSetSpec(5, 3)
        x = top_m_oracle(np.zeros(5), spec)
        np.testing.assert_allclose(x, spec.scale * np.array([1, 1, 1, 0, 0.0]))

    def test_tie_lowest_index_wins(self):
        spec = ActionSetSpec(3, 1)
        x = top_m_oracle(np.array([1.0, 1.0, 0.0]), spec)
        np.testing.assert_allclose(x, spec.scale * np.array([1.0, 0.0, 0.0]))

    def test_exhaustive_optimality(self):
        from itertools import combinations

        rng = np.random.default_rng(0)
        spec = ActionSetSpec(6, 3)
        for _ in range(20):
            w = rng.standard_normal(6)
            x = top_m_oracle(w, spec)
            best = max(
                spec.scale * sum(w[i] for i in sel)
                for sel in combinations(range(6), 3)
            )
            assert w.dot(x) == pytest.approx(best)

    def test_stacked_rows_equal_row_calls(self):
        spec = ActionSetSpec(6, 3)
        w = np.random.default_rng(2).standard_normal((4, 5, 6))
        w[0, :, 1] = w[0, :, 4]  # exact ties, lowest index first
        w[1] = 0.0
        _assert_bitwise(
            top_m_oracle(w, spec), np.array([[top_m_oracle(r, spec) for r in b] for b in w])
        )
        _assert_bitwise(top_m_oracle(np.empty((0, 6)), spec), np.empty((0, 6)))


class TestSampleContext:
    def test_always_in_unit_ball(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            z = sample_context(rng, 10)
            assert np.linalg.norm(z) <= 1.0 + 1e-12

    def test_interior_draw_unchanged(self):
        z = sample_context(_StubRng([0.3]), 1)
        assert z[0] == pytest.approx(0.3)

    def test_exterior_draw_normalized(self):
        z = sample_context(_StubRng([-2.0]), 1)
        assert z[0] == pytest.approx(-1.0)

    def test_stacked_rows_rescaled_one_by_one(self):
        z = sample_context(_StubRng([[0.3, 0.4], [3.0, 4.0]]), (2, 2))
        np.testing.assert_allclose(z, [[0.3, 0.4], [0.6, 0.8]])

    @pytest.mark.parametrize("p", [1, 10, 100])
    def test_stacked_draw_equals_draws_in_turn(self, p):
        stacked = sample_context(rng_stream(5, 0), (30, p))
        rng = rng_stream(5, 0)
        _assert_bitwise(stacked, np.array([sample_context(rng, p) for _ in range(30)]))


class TestUtilityModels:
    @pytest.mark.parametrize("bandwidth", [0.0, float("nan"), float("inf")])
    def test_rbf_bandwidth_must_be_finite_and_positive(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth"):
            UtilitySpec("kernel", context_dim=4, bandwidth=bandwidth)

    def test_linear_unit_frobenius_norm(self):
        rng = rng_stream(0, 1)
        model = build_utility_model(rng, UtilitySpec("linear", context_dim=7), 5)
        assert np.linalg.norm(model.weights) == pytest.approx(1.0, abs=1e-12)

    def test_rbf_unit_function_norm(self):
        rng = rng_stream(1, 1)
        spec = UtilitySpec("kernel", context_dim=4, bandwidth=0.8)
        model = build_utility_model(rng, spec, 5)
        assert model.centers.shape == (16, 4)
        assert np.all(np.linalg.norm(model.centers, axis=1) <= 1.0 + 1e-12)
        kern = KernelSpec.rbf(0.8)
        kmat = np.array(
            [[kernel_value(kern, a, b) for b in model.centers] for a in model.centers]
        )
        norm_sq = float(np.einsum("in,ij,jn->", model.coeffs, kmat, model.coeffs))
        assert norm_sq == pytest.approx(1.0, abs=1e-10)

    def test_fixed_unit_norm(self):
        model = build_utility_model(rng_stream(2, 1), UtilitySpec("noncontextual"), 6)
        assert np.linalg.norm(model.vector) == pytest.approx(1.0, abs=1e-12)

    def test_eval_linear_at_origin(self):
        model = LinearUtility(np.eye(3) / np.sqrt(3.0))
        np.testing.assert_array_equal(utility_eval(model, np.zeros(3)), np.zeros(3))

    def test_eval_rbf_at_lone_center(self):
        a = np.array([[0.3, 0.4, 0.0]])
        model = RbfUtility(centers=np.array([[0.5, 0.5]]), coeffs=a, bandwidth=1.0)
        np.testing.assert_allclose(utility_eval(model, np.array([0.5, 0.5])), a[0])

    @pytest.mark.parametrize("kind", sorted(_UTILITIES))
    def test_stacked_contexts_equal_row_calls(self, kind):
        spec = _UTILITIES[kind]
        model = build_utility_model(rng_stream(4, 1), spec, 10)
        z = sample_context(rng_stream(4, 0), (3, 7, max(spec.context_dim, 1)))
        stacked = utility_eval(model, z)
        _assert_bitwise(stacked, np.array([[utility_eval(model, r) for r in b] for b in z]))
        _assert_bitwise(stacked[0, 0], _reference_utility(model, z[0, 0]))
        _assert_bitwise(utility_eval(model, z[:0, 0]), np.empty((0, 10)))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.integers(1, 12),
           st.sampled_from([0.1, 1.0, 5.0]))
    def test_rbf_kernel_independent_of_row_count(self, seed, t, p, bandwidth):
        # Each kernel value of the difference form depends on its row and
        # center alone, so any stack of contexts gives its one-row calls.
        rows = sample_context(rng_stream(seed, 0), (t, p))
        rows[rng_stream(seed, 1).integers(t, size=t // 2)] = rows[0]  # duplicates
        centers = sample_context(rng_stream(seed, 2), (16, p))
        stacked = environment._rbf_columns(rows, centers, bandwidth)
        one_row = np.concatenate([environment._rbf_columns(rows[s : s + 1], centers, bandwidth)
                                  for s in range(t)])
        _assert_bitwise(stacked, one_row)
        _assert_bitwise(stacked[: t // 2], environment._rbf_columns(rows[: t // 2], centers, bandwidth))

    def test_linear_utilities_bounded_on_draws(self):
        rng = rng_stream(3, 1)
        model = build_utility_model(rng, UtilitySpec("linear", context_dim=6), 4)
        ctx = rng_stream(3, 0)
        for _ in range(100):
            z = sample_context(ctx, 6)
            assert np.linalg.norm(utility_eval(model, z)) <= 1.0 + 1e-12


class TestFeedback:
    def spec(self):
        return ActionSetSpec(5, 2)

    def test_optimal_has_zero_gap(self):
        rng = rng_stream(4, 2)
        spec = self.spec()
        for _ in range(50):
            u = rng.standard_normal(5)
            x, delta = reveal_action(FeedbackModel.optimal(), u, spec, rng)
            assert delta == 0.0
            np.testing.assert_array_equal(x, top_m_oracle(u, spec))

    def test_one_swap_rank_arithmetic(self):
        spec = self.spec()
        u = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        x, delta = reveal_action(
            FeedbackModel.one_swap(1.0), u, spec, rng_stream(5, 2)
        )
        expect = np.zeros(5)
        expect[[0, 2]] = spec.scale
        np.testing.assert_allclose(x, expect)
        assert delta == pytest.approx(spec.scale * 1.0)

    def test_one_swap_gap_matches_definition(self):
        spec = self.spec()
        rng = rng_stream(6, 2)
        for _ in range(100):
            u = rng.standard_normal(5)
            x, delta = reveal_action(FeedbackModel.one_swap(1.0), u, spec, rng)
            assert delta == pytest.approx(suboptimality(u, x, spec), abs=1e-12)

    def test_one_swap_frequency(self):
        spec = self.spec()
        rng = rng_stream(7, 2)
        alpha, n_draws = 0.3, 10_000
        u = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        swapped = sum(
            reveal_action(FeedbackModel.one_swap(alpha), u, spec, rng)[1] > 0
            for _ in range(n_draws)
        )
        sigma = math.sqrt(alpha * (1 - alpha) / n_draws)
        assert abs(swapped / n_draws - alpha) <= 3 * sigma

    def test_score_perturb_zero_noise_is_optimal(self):
        spec = self.spec()
        rng_a, rng_b = rng_stream(8, 2), rng_stream(8, 2)
        for _ in range(30):
            u = np.random.default_rng(11).standard_normal(5)
            xa, da = reveal_action(FeedbackModel.score_perturb(0.0), u, spec, rng_a)
            xb, db = reveal_action(FeedbackModel.optimal(), u, spec, rng_b)
            np.testing.assert_array_equal(xa, xb)
            assert da == db == 0.0

    def test_score_perturb_gap_nonnegative(self):
        spec = self.spec()
        rng = rng_stream(9, 2)
        for _ in range(100):
            u = rng.standard_normal(5)
            _, delta = reveal_action(FeedbackModel.score_perturb(0.5), u, spec, rng)
            assert delta >= -1e-12

    @pytest.mark.parametrize("name", sorted(_FEEDBACKS))
    @pytest.mark.parametrize("n, m", [(10, 5), (5, 5), (7, 1)])
    def test_stacked_rows_equal_row_calls_on_one_stream(self, name, n, m):
        spec, model = ActionSetSpec(n, m), _FEEDBACKS[name]
        u = np.random.default_rng(3).standard_normal((40, n))
        u[:5, -1] = u[:5, 0]  # exact ties
        x, delta = reveal_action(model, u, spec, rng_stream(10, 2))
        rng = rng_stream(10, 2)
        rows = [reveal_action(model, r, spec, rng) for r in u]
        _assert_bitwise(x, np.array([r[0] for r in rows]))
        _assert_bitwise(delta, np.array([r[1] for r in rows]))
        rng = rng_stream(10, 2)
        want = [_reference_reveal(model, r, spec, rng) for r in u]
        _assert_bitwise(x, np.array([r[0] for r in want]))
        _assert_bitwise(delta, np.array([r[1] for r in want]))

    def test_zero_rows_draw_nothing(self):
        spec, rng = self.spec(), rng_stream(12, 2)
        for model in _FEEDBACKS.values():
            x, delta = reveal_action(model, np.empty((0, 5)), spec, rng)
            assert x.shape == (0, 5) and delta.shape == (0,)
        assert rng.random() == rng_stream(12, 2).random()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FeedbackModel.one_swap(1.5)
        for xi in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                FeedbackModel.score_perturb(xi)


class TestSuboptimality:
    def test_optimal_action_has_zero_gap(self):
        spec = ActionSetSpec(4, 2)
        u = np.array([3.0, 1.0, 2.0, 0.0])
        assert suboptimality(u, top_m_oracle(u, spec), spec) == 0.0

    def test_zero_utility_any_action(self):
        spec = ActionSetSpec(4, 2)
        x = np.zeros(4)
        x[[1, 3]] = spec.scale
        assert suboptimality(np.zeros(4), x, spec) == 0.0

    def test_infeasible_support_rejected(self):
        spec = ActionSetSpec(4, 2)
        bad = np.zeros(4)
        bad[0] = spec.scale
        with pytest.raises(ValueError):
            suboptimality(np.ones(4), bad, spec)

    def test_stacked_rows_equal_row_calls(self):
        spec = ActionSetSpec(6, 3)
        u = np.random.default_rng(5).standard_normal((30, 6))
        x = top_m_oracle(np.random.default_rng(6).standard_normal((30, 6)), spec)
        gaps = suboptimality(u, x, spec)
        _assert_bitwise(gaps, np.array([suboptimality(a, b, spec) for a, b in zip(u, x)]))
        _assert_bitwise(gaps, np.array([a.dot(_reference_oracle(a, spec)) - a.dot(b) for a, b in zip(u, x)]))

    def test_one_infeasible_row_rejects_the_stack(self):
        spec = ActionSetSpec(4, 2)
        x = top_m_oracle(np.random.default_rng(7).standard_normal((5, 4)), spec)
        x[3] = 0.0
        x[3, 0] = spec.scale
        with pytest.raises(ValueError):
            suboptimality(np.ones((5, 4)), x, spec)


class TestEnvironment:
    def make(self, seed=0, feedback=None, kind="linear", T=40):
        spec = ActionSetSpec(6, 3)
        utility = UtilitySpec(kind, context_dim=4, bandwidth=1.0)
        fb = feedback or FeedbackModel.optimal()
        return Environment(spec, utility, fb, T, seed)

    def test_replay_is_identical(self):
        a, b = self.make(seed=3), self.make(seed=3)
        np.testing.assert_array_equal(a.contexts, b.contexts)
        np.testing.assert_array_equal(a.utilities, b.utilities)
        np.testing.assert_array_equal(a.revealed, b.revealed)

    def test_seeds_differ(self):
        a, b = self.make(seed=1), self.make(seed=2)
        assert not np.array_equal(a.contexts, b.contexts)

    def test_utility_kinds_are_the_model_names(self):
        models = dict(zip(MODELS, (FixedUtility, LinearUtility, RbfUtility)))
        for kind in MODELS:
            assert isinstance(self.make(kind=kind).model, models[kind])
        for retired in ("fixed", "rbf"):
            with pytest.raises(ValueError):
                UtilitySpec(retired, context_dim=4)

    def test_payoff_bound_on_sampled_rounds(self):
        # |<u, x - x'>| <= 1 for feasible pairs under unit utility norms
        env = self.make(kind="kernel", T=60)
        rng = np.random.default_rng(12)
        for u in env.utilities:
            a = top_m_oracle(rng.standard_normal(6), env.actions)
            b = top_m_oracle(rng.standard_normal(6), env.actions)
            assert abs(u.dot(a - b)) <= 1.0 + 1e-9

    def test_optimal_feedback_gaps_zero(self):
        env = self.make(T=30)
        np.testing.assert_array_equal(env.subopt, np.zeros(30))

    def test_one_swap_gaps_recorded(self):
        env = self.make(feedback=FeedbackModel.one_swap(1.0), T=30)
        assert np.all(env.subopt >= 0)
        assert np.any(env.subopt > 0)

    @pytest.mark.parametrize("feedback", sorted(_FEEDBACKS))
    @pytest.mark.parametrize("utility", sorted(_UTILITIES))
    def test_matches_per_round_reference_bitwise(self, utility, feedback):
        actions = ActionSetSpec(10, 5)
        spec, fb = _UTILITIES[utility], _FEEDBACKS[feedback]
        for seed in (0, 7, 1009):
            env = Environment(actions, spec, fb, 30, seed)
            want = _reference_environment(actions, spec, fb, 30, seed)
            for name, array in want.items():
                _assert_bitwise(getattr(env, name), array)

    @pytest.mark.parametrize("feedback", sorted(_FEEDBACKS))
    def test_zero_horizon(self, feedback):
        env = self.make(kind="kernel", feedback=_FEEDBACKS[feedback], T=0)
        assert env.contexts.shape == (0, 4)
        assert env.utilities.shape == env.revealed.shape == (0, 6)
        assert env.subopt.shape == (0,)
