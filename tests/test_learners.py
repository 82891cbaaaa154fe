import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular

from corectron.environment import ActionSetSpec, top_m_oracle
from corectron.learners import KONS, OGD, ONS, CoRectron, CoRectronK
from corectron.lifting import KernelSpec, LiftSpec
from corectron.numkit import JITTER_REL, SpdInverse

from kernel_reference import kernel_value


def unit_context(rng, p):
    z = rng.standard_normal(p)
    return z / max(1.0, np.linalg.norm(z))


def rkhs_norm_sq(learner: KONS) -> float:
    c = learner._coef
    return float(c.dot(learner._gram.entries.dot(c)))


def check_kernel_column_reuse(monkeypatch, make, sign):
    """``update`` after ``predict`` at an equal context reuses its kernel
    column, and its result is the same as without the ``predict``.

    ``sign`` is the sign of the representer weights: the prediction is
    ``(sign * coefficients * kcol) . residuals``.
    """
    rng = np.random.default_rng(14)
    spec = LiftSpec.kernelized(3, 2, KernelSpec.rbf(1.0))
    asked, silent = make(spec), make(spec)
    column = KernelSpec.column
    calls = []
    monkeypatch.setattr(KernelSpec, "column",
                        lambda self, Z, z, sq=None: calls.append(z) or column(self, Z, z, sq))
    for t in range(30):
        z, g = unit_context(rng, 2), rng.standard_normal(3)
        calls.clear()
        if t % 3 == 1:
            asked.predict(z)
        elif t % 3 == 2:
            asked.predict(unit_context(rng, 2))  # another context: no reuse
        diag = asked.update(z, g)
        if t % 3 == 1:
            assert len(calls) == 1  # one kernel column for predict and update
        np.testing.assert_equal(diag, silent.update(z, g))  # NaN-filled for KONS
        np.testing.assert_array_equal(asked._coef, silent._coef)
        w = asked.predict(z)
        np.testing.assert_array_equal(w, silent.predict(z))
        kcol = spec.kernel.column(asked._hist.contexts, z)
        np.testing.assert_array_equal(w, (sign * asked._coef * kcol).dot(asked._hist.residuals))


class TestCoRectron:
    def test_fresh_prediction_is_zero(self):
        learner = CoRectron(LiftSpec.identity(3), 1.0)
        np.testing.assert_array_equal(learner.predict(), np.zeros(3))

    def test_prediction_after_one_residual(self):
        learner = CoRectron(LiftSpec.identity(2), 1.0)
        learner.update(None, np.array([1.0, 0.0]))
        np.testing.assert_allclose(learner.predict(), [-0.5, 0.0], atol=1e-14)

    def test_prediction_after_one_residual_ridge_two(self):
        learner = CoRectron(LiftSpec.identity(2), 2.0)
        learner.update(None, np.array([1.0, 1.0]))
        np.testing.assert_allclose(learner.predict(), [-0.25, -0.25], atol=1e-14)

    def test_first_round_diagnostics(self):
        learner = CoRectron(LiftSpec.identity(2), 1.0)
        diag = learner.update(None, np.array([1.0, 0.0]))
        assert diag.leverage == pytest.approx(1.0)
        assert diag.alignment == 0.0
        assert not diag.projected

    def test_zero_residual_is_noop(self):
        learner = CoRectron(LiftSpec.identity(2), 1.0)
        learner.update(None, np.array([1.0, 0.5]))
        before = learner.predict().copy()
        pot = learner.potential_direct()
        diag = learner.update(None, np.zeros(2))
        assert diag.leverage == 0.0
        assert diag.alignment == 0.0
        assert learner.potential_direct() == pot
        np.testing.assert_array_equal(learner.predict(), before)

    def test_rejects_kernel_lift(self):
        with pytest.raises(ValueError):
            CoRectron(LiftSpec.kernelized(2, 2, KernelSpec.rbf(1.0)), 1.0)

    def test_linear_lift_prediction_shape(self):
        rng = np.random.default_rng(0)
        learner = CoRectron(LiftSpec.linear(3, 2), 1.0)
        z = unit_context(rng, 2)
        learner.update(z, rng.standard_normal(3))
        assert learner.predict(z).shape == (3,)

    def test_potential_increment_matches_direct(self):
        rng = np.random.default_rng(1)
        learner = CoRectron(LiftSpec.identity(4), 0.7)
        prev_direct = 0.0
        for _ in range(50):
            diag = learner.update(None, rng.standard_normal(4) * 0.5)
            direct = learner.potential_direct()
            step = direct - prev_direct
            expected = (diag.leverage + 2 * diag.alignment - diag.alignment**2) / (
                1 + diag.leverage
            )
            assert abs(step - expected) < 1e-8 * (1 + abs(expected))
            prev_direct = direct

    def test_post_round_leverage_identity(self):
        rng = np.random.default_rng(2)
        learner = CoRectron(LiftSpec.identity(4), 1.5)
        for _ in range(30):
            diag = learner.update(None, rng.standard_normal(4))
            post = learner.post_round_leverage()
            assert post == pytest.approx(diag.leverage / (1 + diag.leverage), abs=1e-10)

    def test_cancelling_stream_predicts_exact_zero(self):
        # g then -g brings the cumulative residual back to exact zero, and
        # the prediction with it, so the oracle breaks the tie by index.
        rng = np.random.default_rng(4)
        learner = CoRectron(LiftSpec.identity(5), 0.3)
        for _ in range(6):
            g = rng.standard_normal(5)
            learner.update(None, g)
            learner.update(None, -g)
            np.testing.assert_array_equal(learner.predict(), np.zeros(5))

    def test_update_same_with_or_without_predict(self):
        # predict leaves no state behind that update reads
        rng = np.random.default_rng(3)
        spec = LiftSpec.linear(3, 2)
        asked, silent = CoRectron(spec, 0.5), CoRectron(spec, 0.5)
        for t in range(20):
            z, g = unit_context(rng, 2), rng.standard_normal(3)
            if t % 3:
                asked.predict(z)
            assert asked.update(z, g) == silent.update(z, g)
            np.testing.assert_array_equal(asked.predict(z), silent.predict(z))


class TestCoRectronK:
    def kernel_spec(self):
        return LiftSpec.kernelized(3, 2, KernelSpec.rbf(1.0))

    def test_first_round_prediction_zero(self):
        learner = CoRectronK(self.kernel_spec(), 1.0)
        np.testing.assert_array_equal(learner.predict(np.zeros(2)), np.zeros(3))

    def test_zero_residual_round(self):
        # a vanishing residual stores nothing: factor and history keep
        # their size, prediction and potential are unchanged bit for bit,
        # and both leverages read 0
        lam = 2.0
        learner = CoRectronK(self.kernel_spec(), lam)
        rng = np.random.default_rng(3)
        z = unit_context(rng, 2)
        learner.update(z, rng.standard_normal(3))
        before = learner.predict(z).copy()
        pot = learner.potential_direct()
        assert learner.post_round_leverage() > 0.0
        diag = learner.update(z, np.zeros(3))
        assert diag == (0.0, 0.0, 1.0, False)
        assert learner._chol.size == learner._hist.size == learner._coef.size == 1
        np.testing.assert_array_equal(learner.predict(z), before)
        assert learner.potential_direct() == pot
        assert learner.post_round_leverage() == 0.0

    def test_coefficients_solve_ones_system(self):
        rng = np.random.default_rng(4)
        learner = CoRectronK(self.kernel_spec(), 0.9)
        K = None
        hist = []
        for t in range(20):
            z = unit_context(rng, 2)
            g = rng.standard_normal(3) * 0.4
            learner.update(z, g)
            hist.append((z, g))
        kern = learner.lift_spec.kernel
        K = np.array(
            [
                [kernel_value(kern, zs, zt) * float(gs.dot(gt)) for zt, gt in hist]
                for zs, gs in hist
            ]
        )
        c = np.linalg.solve(K + 0.9 * np.eye(len(hist)), np.ones(len(hist)))
        np.testing.assert_allclose(learner._coef, c, rtol=1e-8, atol=1e-10)

    def test_update_same_with_or_without_predict(self, monkeypatch):
        # update reuses the kernel column predict computed at the same context
        check_kernel_column_reuse(monkeypatch, lambda spec: CoRectronK(spec, 0.5), -1.0)

    @settings(deadline=None, max_examples=30)
    @given(st.sampled_from([1e-3, 0.7, 10.0]), st.lists(st.booleans(), max_size=30),
           st.integers(0, 2**32 - 1))
    def test_stored_potential_is_the_recomputed_one(self, ridge, zeros, seed):
        # the potential kept by update is, to the byte, the formula on the
        # coefficients as they stand, after zero and nonzero residuals alike
        rng = np.random.default_rng(seed)
        learner = CoRectronK(self.kernel_spec(), ridge)
        for zero in zeros:
            z = unit_context(rng, 2)
            learner.update(z, np.zeros(3) if zero else rng.standard_normal(3))
            expected = learner._hist.size - ridge * float(learner._coef.sum())
            assert np.float64(learner.potential_direct()).tobytes() == np.float64(expected).tobytes()


# Hostile kernel streams: per round, a fresh context or a near-duplicate
# of the previous one, and a fresh, zero or repeated residual.  A zero
# residual is not stored; near-duplicate contexts with repeated residuals
# under the 1e-13 regularizer push the new pivot under the floor, so the
# factor takes the jitter retry.
kernel_streams = st.tuples(
    st.sampled_from([1e-13, 1e-3, 0.1, 1.0, 10.0]),
    st.lists(
        st.tuples(st.sampled_from(["fresh", "near"]), st.sampled_from(["fresh", "zero", "repeat"])),
        max_size=30,
    ),
    st.integers(0, 2**32 - 1),
)


def run_kernel_stream(stream, check):
    """Feed a stream to CoRectronK; after each round call ``check(learner,
    M, zero)`` with ``M = K + ridge * I`` plus the jitter the factor added,
    ``K`` the Gram matrix of the rounds with a nonzero residual, and
    ``zero`` whether this round's residual was zero.  Returns the number
    of jittered rounds."""
    lam, kinds, seed = stream
    rng = np.random.default_rng(seed)
    spec = LiftSpec.kernelized(3, 2, KernelSpec.rbf(1.0))
    learner = CoRectronK(spec, lam)
    z, g = unit_context(rng, 2), np.zeros(3)
    hist, jitter = [], []
    for zkind, gkind in kinds:
        if zkind == "fresh":
            z = unit_context(rng, 2)
        else:
            z = z + 1e-9 * rng.standard_normal(2)
            z /= max(1.0, np.linalg.norm(z))
        if gkind == "fresh":
            g = rng.standard_normal(3)
        elif gkind == "zero":
            g = np.zeros(3)
        learner.update(z, g)
        zero = not g.any()
        if not zero:
            hist.append((z.copy(), g.copy()))
        n = len(hist)
        K = np.array([[kernel_value(spec.kernel, zs, zt) * gs.dot(gt) for zt, gt in hist] for zs, gs in hist]).reshape(n, n)
        if not zero:
            L = learner._chol.L
            y, pivot = L[n - 1, : n - 1], L[n - 1, n - 1]
            diag = K[n - 1, n - 1] + lam
            took = abs(pivot * pivot + y.dot(y) - diag) > 0.5 * JITTER_REL * diag
            jitter.append(JITTER_REL * diag if took else 0.0)
        check(learner, K + lam * np.eye(n) + np.diag(jitter), zero)
    return np.count_nonzero(jitter)


class TestPackedFactorInLearners:
    """CoRectronK's incremental Gram quantities against dense references.

    Forward errors are bounded relative to the condition number, which the
    1e-13 regularizer and the jitter make large.
    """

    @settings(deadline=None, max_examples=40)
    @given(kernel_streams)
    def test_gram_quantities_match_dense(self, stream):
        lam = stream[0]

        def check(learner, M, zero):
            n = M.shape[0]
            assert learner._chol.size == learner._hist.size == n
            if zero:
                assert learner.post_round_leverage() == 0.0
            if n == 0:
                return
            L = learner._chol.L
            cond = np.linalg.cond(M)
            ref = np.linalg.cholesky(M)
            assert np.abs(L - ref).max() <= 1e-12 * cond * np.abs(ref).max()
            fresh = solve_triangular(L, np.ones(n), lower=True)
            v = learner._fwd_ones[:n]
            assert np.abs(v - fresh).max() <= 1e-12 * np.linalg.cond(L) * np.abs(fresh).max()
            c = np.linalg.solve(M, np.ones(n))
            assert np.abs(learner._coef - c).max() <= 1e-12 * cond * np.abs(c).max()
            if not zero:
                post = 1.0 - lam * np.linalg.inv(M)[-1, -1]
                assert abs(learner.post_round_leverage() - post) <= 1e-12 * cond

        run_kernel_stream(stream, check)

    def test_near_duplicate_contexts_take_jitter(self):
        stream = (1e-13, [("fresh", "fresh"), ("near", "repeat"), ("near", "repeat")], 5)
        calls = []
        jitters = run_kernel_stream(stream, lambda learner, M, zero: calls.append(M))
        assert jitters == 2 and len(calls) == 3


class TestRepresenterEquivalence:
    def test_matches_explicit_on_dot_kernel(self):
        # dot-product kernel in representer form reproduces the explicit
        # learner on the outer-product lift, round for round
        rng = np.random.default_rng(5)
        n, p, lam, T = 4, 3, 6.0, 120
        explicit = CoRectron(LiftSpec.linear(n, p), lam)
        rep = CoRectronK(LiftSpec.kernelized(n, p, KernelSpec.linear_dot()), lam)
        spec = ActionSetSpec(n, 2)
        for _ in range(T):
            z = unit_context(rng, p)
            w1, w2 = explicit.predict(z), rep.predict(z)
            assert np.abs(w1 - w2).max() < 1e-7
            assert np.array_equal(top_m_oracle(w1, spec), top_m_oracle(w2, spec))
            u = rng.standard_normal(n)
            x = top_m_oracle(u, spec)
            g = top_m_oracle(w1, spec) - x
            d1, d2 = explicit.update(z, g), rep.update(z, g)
            assert d1.leverage == pytest.approx(d2.leverage, abs=1e-9)
            assert d1.alignment == pytest.approx(d2.alignment, abs=1e-9)


class TestSignCondition:
    def run_stream(self, learner, feedback_rng, rounds=80, swap=False):
        spec = ActionSetSpec(5, 2)
        worst = -np.inf
        for _ in range(rounds):
            z = unit_context(feedback_rng, 3)
            w = learner.predict(z)
            xhat = top_m_oracle(w, spec)
            u = feedback_rng.standard_normal(5)
            x = top_m_oracle(u, spec)
            if swap and feedback_rng.random() < 0.5:
                # arbitrary feasible (suboptimal) feedback
                x = top_m_oracle(feedback_rng.standard_normal(5), spec)
            diag = learner.update(z, xhat - x)
            worst = max(worst, diag.alignment - 1e-9 * diag.alignment_scale)
        return worst

    def test_explicit_all_feedback(self):
        for swap in (False, True):
            learner = CoRectron(LiftSpec.linear(5, 3), 2.0)
            assert self.run_stream(learner, np.random.default_rng(6), swap=swap) <= 0

    def test_representer_all_feedback(self):
        for swap in (False, True):
            learner = CoRectronK(
                LiftSpec.kernelized(5, 3, KernelSpec.rbf(1.0)), 2.0
            )
            assert self.run_stream(learner, np.random.default_rng(7), swap=swap) <= 0


def test_recommendations_scale_invariant():
    # the oracle's argmax, including tie-breaking, ignores positive scaling
    rng = np.random.default_rng(8)
    spec = ActionSetSpec(6, 3)
    for _ in range(50):
        w = rng.standard_normal(6)
        w[rng.integers(6)] = w[rng.integers(6)]  # inject occasional ties
        for s in (1e-6, 0.5, 3.0, 1e6):
            np.testing.assert_array_equal(
                top_m_oracle(w, spec), top_m_oracle(s * w, spec)
            )


class TestOGD:
    def test_zero_gradient_noop(self):
        learner = OGD(LiftSpec.identity(2), 0.5)
        learner.update(None, np.zeros(2))
        np.testing.assert_array_equal(learner._w, np.zeros(2))

    def test_interior_step(self):
        learner = OGD(LiftSpec.identity(2), 0.5)
        learner.update(None, np.array([1.0, 0.0]))
        np.testing.assert_allclose(learner._w, [-0.5, 0.0])

    def test_clipped_to_boundary(self):
        learner = OGD(LiftSpec.identity(2), 1.0)
        learner._w = np.array([0.9, 0.0])
        learner.update(None, np.array([-1.0, 0.0]))
        np.testing.assert_allclose(learner._w, [1.0, 0.0])

    def test_norm_invariant(self):
        rng = np.random.default_rng(9)
        learner = OGD(LiftSpec.identity(4), 2.0)
        for _ in range(100):
            learner.update(None, rng.standard_normal(4))
            assert np.linalg.norm(learner._w) <= 1.0 + 1e-12


class TestONS:
    def test_zero_gradient_noop(self):
        learner = ONS(LiftSpec.identity(2), ridge=1.0)
        diag = learner.update(None, np.zeros(2))
        np.testing.assert_array_equal(learner._w, np.zeros(2))
        assert not diag.projected

    def test_scalar_example(self):
        # the surrogate scale 0.1 turns the residual 1 into the gradient 0.1
        learner = ONS(LiftSpec.identity(1), ridge=1.0)
        diag = learner.update(None, np.array([1.0]))
        assert learner._w[0] == pytest.approx(-0.2 / 1.01)
        assert not diag.projected

    def test_forced_projection_hits_boundary(self):
        learner = ONS(LiftSpec.identity(2), ridge=0.01)
        projected = False
        for _ in range(5):
            diag = learner.update(None, np.array([10.0, 0.0]))
            projected = projected or diag.projected
        assert projected
        assert np.linalg.norm(learner._w) <= 1.0 + 1e-9

    def test_norm_invariant(self):
        rng = np.random.default_rng(10)
        learner = ONS(LiftSpec.identity(3), ridge=0.5)
        for _ in range(150):
            learner.update(None, rng.standard_normal(3) * 0.6)
            assert np.linalg.norm(learner._w) <= 1.0 + 1e-9

    def test_diagnostics_flag_the_projections_that_moved_the_point(self, monkeypatch):
        # NaN for the scalars ONS does not have; projected exactly when the
        # projection returned another point than the Newton target
        targets = []
        project = SpdInverse.project_ball
        monkeypatch.setattr(SpdInverse, "project_ball",
                            lambda self, point, radius: targets.append(point.copy())
                            or project(self, point, radius))
        rng = np.random.default_rng(15)
        learner = ONS(LiftSpec.linear(3, 2), ridge=0.3)
        seen = set()
        for _ in range(40):
            targets.clear()
            diag = learner.update(unit_context(rng, 2), rng.standard_normal(3))
            assert all(math.isnan(v) for v in diag[:3])
            (target,) = targets
            assert diag.projected == (learner._w.tobytes() != target.tobytes())
            seen.add(diag.projected)
        assert seen == {False, True}

    def test_holds_one_square_matrix(self):
        # the stored inverse serves both the Newton step and the projection
        d = 200
        learner = ONS(LiftSpec.identity(d), ridge=0.5)
        learner.update(None, np.ones(d))
        held = sum(
            v.nbytes
            for owner in (learner, learner._inv)
            for v in vars(owner).values()
            if isinstance(v, np.ndarray)
        )
        assert held < 2 * 8 * d * d


class TestKONS:
    def kernel_spec(self):
        return LiftSpec.kernelized(3, 2, KernelSpec.rbf(1.0))

    def test_zero_first_residual_keeps_zero_function(self):
        learner = KONS(self.kernel_spec(), ridge=1.0)
        diag = learner.update(np.zeros(2), np.zeros(3))
        assert not diag.projected
        np.testing.assert_array_equal(learner.predict(np.zeros(2)), np.zeros(3))
        assert rkhs_norm_sq(learner) == 0.0

    def test_feasible_step_not_flagged(self):
        rng = np.random.default_rng(11)
        learner = KONS(self.kernel_spec(), ridge=100.0)
        diag = learner.update(unit_context(rng, 2), rng.standard_normal(3) * 0.1)
        assert not diag.projected

    def test_rkhs_norm_invariant(self):
        rng = np.random.default_rng(12)
        learner = KONS(self.kernel_spec(), ridge=0.0005)
        saw_projection = False
        for _ in range(60):
            z = unit_context(rng, 2)
            diag = learner.update(z, rng.standard_normal(3))
            saw_projection = saw_projection or diag.projected
            assert rkhs_norm_sq(learner) <= 1.0 + 1e-9
        assert saw_projection

    def test_update_same_with_or_without_predict(self, monkeypatch):
        # the history's kernel-column cache, shared with CoRectronK
        check_kernel_column_reuse(monkeypatch, lambda spec: KONS(spec, ridge=0.0005), 1.0)

    def test_matches_explicit_ons_on_dot_kernel(self):
        # agreement holds on streams where the ball constraint never binds
        rng = np.random.default_rng(13)
        n, p, T = 3, 2, 60
        explicit = ONS(LiftSpec.linear(n, p), ridge=50.0)
        rep = KONS(LiftSpec.kernelized(n, p, KernelSpec.linear_dot()), ridge=50.0)
        spec = ActionSetSpec(n, 1)
        for _ in range(T):
            z = unit_context(rng, p)
            w1, w2 = explicit.predict(z), rep.predict(z)
            assert np.abs(w1 - w2).max() < 1e-6
            assert np.array_equal(top_m_oracle(w1, spec), top_m_oracle(w2, spec))
            u = rng.standard_normal(n)
            g = top_m_oracle(w1, spec) - top_m_oracle(u, spec)
            d1 = explicit.update(z, g)
            d2 = rep.update(z, g)
            assert not d1.projected and not d2.projected


CONTEXTUAL_LEARNERS = [
    pytest.param(lambda: CoRectron(LiftSpec.linear(3, 2), 1.0), id="corectron_l"),
    pytest.param(lambda: CoRectronK(LiftSpec.kernelized(3, 2, KernelSpec.rbf(1.0)), 1.0), id="corectron_k"),
    pytest.param(lambda: OGD(LiftSpec.linear(3, 2), 0.1), id="ogd"),
    pytest.param(lambda: ONS(LiftSpec.linear(3, 2), 1.0), id="ons"),
    pytest.param(lambda: KONS(LiftSpec.kernelized(3, 2, KernelSpec.rbf(1.0)), 1.0), id="kons"),
]


@pytest.mark.parametrize("make", CONTEXTUAL_LEARNERS)
@pytest.mark.parametrize(
    "z",
    [np.array([5.0]), np.array([0.1, 0.1, 0.1]), np.array([2.0, 0.0]), np.array([np.nan, 0.0]),
     np.array([0.0, -np.inf])],
    ids=["short", "long", "outside", "nan", "inf"],
)
def test_every_entry_rejects_bad_context(make, z):
    # a context of the wrong length, outside the unit ball or not finite is
    # refused by predict and update alike, before any state changes
    learner = make()
    learner.update(np.array([0.6, 0.0]), np.array([1.0, 0.0, -1.0]))
    before = learner.predict(np.array([0.0, 0.6])).copy()
    with pytest.raises(ValueError):
        learner.predict(z)
    with pytest.raises(ValueError):
        learner.update(z, np.array([0.0, 1.0, -1.0]))
    np.testing.assert_array_equal(learner.predict(np.array([0.0, 0.6])), before)


@pytest.mark.parametrize("make", [p for p in CONTEXTUAL_LEARNERS
                                  if p.id in ("corectron_k", "kons")])
def test_kernel_update_checks_only_a_context_predict_did_not(make, monkeypatch):
    # update skips the check of the context whose kernel column predict
    # cached; one overwritten in place after predict is checked and refused
    learner = make()
    check, calls = LiftSpec.check_context, []
    monkeypatch.setattr(LiftSpec, "check_context",
                        lambda self, z: calls.append(z) or check(self, z))
    learner.update(np.array([0.6, 0.0]), np.array([1.0, 0.0, -1.0]))
    z = np.array([0.0, 0.6])
    learner.predict(z)
    learner.update(z, np.array([0.0, 1.0, -1.0]))
    assert len(calls) == 2  # the first update's and predict's
    learner.predict(z)
    z[0] = np.nan
    with pytest.raises(ValueError):
        learner.update(z, np.array([0.0, 1.0, -1.0]))
    assert len(calls) == 4


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda v: CoRectron(LiftSpec.linear(3, 2), v), id="corectron_l"),
        pytest.param(lambda v: CoRectronK(LiftSpec.kernelized(3, 2, KernelSpec.rbf(1.0)), v), id="corectron_k"),
        pytest.param(lambda v: OGD(LiftSpec.linear(3, 2), v), id="ogd"),
        pytest.param(lambda v: ONS(LiftSpec.linear(3, 2), v), id="ons_ridge"),
        pytest.param(lambda v: KONS(LiftSpec.kernelized(3, 2, KernelSpec.rbf(1.0)), v), id="kons_ridge"),
    ],
)
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_every_learner_rejects_nonpositive_or_nan_parameter(make, value):
    # NaN compares false both ways, so only a "not value > 0" check refuses it
    with pytest.raises(ValueError, match="must be positive"):
        make(value)


ZERO_STREAM_LEARNERS = {
    "corectron_l": lambda: CoRectron(LiftSpec.linear(3, 2), 0.5),
    "corectron_k": lambda: CoRectronK(LiftSpec.kernelized(3, 2, KernelSpec.rbf(1.0)), 0.5),
    "ogd": lambda: OGD(LiftSpec.linear(3, 2), 0.5),
    "ons": lambda: ONS(LiftSpec.linear(3, 2), 0.0005),
    "kons": lambda: KONS(LiftSpec.kernelized(3, 2, KernelSpec.rbf(1.0)), 0.0005),
}


def learner_state(learner) -> dict:
    state = {name: getattr(learner, name) for name in ("_cum", "_w", "_coef", "_fwd_ones") if hasattr(learner, name)}
    if hasattr(learner, "_inv"):
        state["inv"] = learner._inv.inv
    for name in ("_chol", "_hist", "_gram"):
        if hasattr(learner, name):
            state[name] = getattr(learner, name).size
    if hasattr(learner, "_chol"):
        state["L"] = learner._chol.L
    return state


@pytest.mark.parametrize("name", list(ZERO_STREAM_LEARNERS))
@settings(deadline=None, max_examples=25)
@given(st.lists(st.booleans(), max_size=25), st.integers(0, 2**32 - 1))
def test_zero_residual_rounds_are_skipped(name, zeros, seed):
    # every learner fed a stream with zero residuals stays, bit for bit,
    # the twin that saw only the nonzero ones; the kernel learners store
    # only the nonzero residuals
    make = ZERO_STREAM_LEARNERS[name]
    full, twin = make(), make()
    second_order = name.startswith("corectron")
    rng = np.random.default_rng(seed)
    for zero in zeros:
        z = unit_context(rng, 2)
        g = np.zeros(3) if zero else rng.standard_normal(3)
        np.testing.assert_array_equal(full.predict(z), twin.predict(z))
        diag = full.update(z, g)
        if zero:
            assert not diag.projected
            if second_order:
                assert diag == (0.0, 0.0, 1.0, False)
                assert full.post_round_leverage() == 0.0
        else:
            np.testing.assert_equal(diag, twin.update(z, g))
        np.testing.assert_equal(learner_state(full), learner_state(twin))
    if name in ("corectron_k", "kons"):
        assert full._chol.size == full._hist.size == zeros.count(False)
