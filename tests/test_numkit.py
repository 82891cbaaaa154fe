import math
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import solve_triangular

from corectron import harness, numkit
from corectron.diagnostics import TraceSummary, check_gram_spectrum
from corectron.environment import FeedbackModel, top_m_oracle
from corectron.learners import ONS, SURROGATE_SCALE, CoRectron
from corectron.lifting import LiftSpec
from corectron.numkit import (
    CholFactor,
    JITTER_REL,
    TRIVIAL_SLACK,
    DegenerateGramError,
    GramMatrix,
    SpdInverse,
    _block_starts,
    _radius_multiplier,
    _require_symmetric,
    gram_eigenvalues,
    project_ball_mahalanobis,
    project_ellipsoid_coeff,
)


def random_spd(rng, d, spread=1.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    evals = rng.uniform(0.5, 0.5 + 3.0 * spread, d)
    return (q * evals).dot(q.T)


# ---------------------------------------------------------------------------
# rank-one inverse updates


def updated_copy(state: SpdInverse, g: np.ndarray) -> SpdInverse:
    """The inverse of ``A + g g^T`` as a new state; ``state`` is untouched."""
    out = state.copy()
    out.rank_one_update(g)
    return out


class TestSmInverseUpdate:
    def test_identity_plus_e1(self):
        state = SpdInverse.from_ridge(2, 1.0)
        out = updated_copy(state, np.array([1.0, 0.0]))
        # direct inversion of [[2, 0], [0, 1]]
        np.testing.assert_allclose(out.inv, [[0.5, 0.0], [0.0, 1.0]], atol=1e-14)

    def test_zero_vector_is_noop(self):
        rng = np.random.default_rng(1)
        inv = np.linalg.inv(random_spd(rng, 5))
        state = SpdInverse(5, 0.5 * (inv + inv.T))
        out = updated_copy(state, np.zeros(5))
        np.testing.assert_array_equal(out.inv, state.inv)

    # The update is in place on the stored inverse, whatever the layout of
    # the matrix the state was built from.
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_direct_inversion(self, order):
        rng = np.random.default_rng(2)
        A = random_spd(rng, 5)
        g = rng.standard_normal(5)
        state = SpdInverse(5, np.asarray(np.linalg.inv(A), order=order))
        out = updated_copy(state, g)
        direct = np.linalg.inv(A + np.outer(g, g))
        err = np.abs(out.inv - direct).max() / np.abs(direct).max()
        assert err < 1e-10

    def test_dimension_mismatch(self):
        state = SpdInverse.from_ridge(3, 1.0)
        with pytest.raises(ValueError):
            updated_copy(state, np.ones(4))

    def test_returns_pre_update_quadratic_form(self):
        state = SpdInverse.from_ridge(2, 1.0)
        lev, ag = state.rank_one_update(np.array([1.0, 0.0]))
        assert lev == pytest.approx(1.0)
        np.testing.assert_array_equal(ag, [1.0, 0.0])

    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 8), st.integers(0, 12), st.integers(0, 2**32 - 1))
    def test_chain_inverse_property(self, d, t, seed):
        rng = np.random.default_rng(seed)
        ridge = float(rng.uniform(0.2, 3.0))
        state = SpdInverse.from_ridge(d, ridge)
        A = ridge * np.eye(d)
        for _ in range(t):
            g = rng.standard_normal(d)
            state.rank_one_update(g)
            A += np.outer(g, g)
        resid = np.abs(state.inv.dot(A) - np.eye(d)).max()
        assert resid < 1e-8

    def test_long_chain_stays_inverse(self):
        # chain of 200 rank-one terms in dimension 50
        rng = np.random.default_rng(3)
        d, t, ridge = 50, 200, 1.0
        state = SpdInverse.from_ridge(d, ridge)
        A = ridge * np.eye(d)
        for _ in range(t):
            g = rng.standard_normal(d)
            state.rank_one_update(g)
            A += np.outer(g, g)
        resid = np.abs(state.inv.dot(A) - np.eye(d)).max()
        assert resid < 1e-8
        sym = np.abs(state.inv - state.inv.T).max() / np.abs(state.inv).max()
        assert sym < 1e-10


# A stream of residuals for the property tests: fresh Gaussian vectors,
# zero residuals and exact repeats of the previous residual, mixed.  Sizes
# run from BLAS's small-matrix kernels to its blocked ones.
hostile_streams = st.tuples(
    st.integers(1, 300),
    st.sampled_from([1e-3, 1e-2, 0.1, 1.0, 10.0]),
    st.lists(st.sampled_from(["fresh", "zero", "repeat"]), max_size=24),
    st.integers(0, 2**32 - 1),
)


def residual_stream(d, kinds, seed):
    rng = np.random.default_rng(seed)
    g = np.zeros(d)
    for kind in kinds:
        if kind == "fresh":
            g = rng.standard_normal(d)
        elif kind == "zero":
            g = np.zeros(d)
        yield g.copy()


class TestBlockedInverseUpdate:
    @settings(deadline=None, max_examples=60)
    @given(hostile_streams)
    def test_matches_dense_inverse(self, stream):
        d, ridge, kinds, seed = stream
        state = SpdInverse.from_ridge(d, ridge)
        A = ridge * np.eye(d)
        for g in residual_stream(d, kinds, seed):
            lev, _ = state.rank_one_update(g)
            assert lev == pytest.approx(g.dot(np.linalg.solve(A, g)), rel=1e-8, abs=1e-12)
            A += np.outer(g, g)
        inv = state.inv
        np.testing.assert_array_equal(inv, inv.T)
        direct = np.linalg.inv(A)
        assert np.abs(inv - direct).max() <= 1e-8 * np.abs(direct).max()

    @settings(deadline=None, max_examples=30)
    @given(hostile_streams)
    def test_bitwise_equal_to_dense_formula(self, stream):
        d, ridge, kinds, seed = stream
        state = SpdInverse.from_ridge(d, ridge)
        ref = np.eye(d) / ridge
        for g in residual_stream(d, kinds, seed):
            state.rank_one_update(g)
            ag = ref.dot(g)
            b = ag / np.sqrt(1.0 + g.dot(ag))
            ref -= np.outer(b, b)
        np.testing.assert_array_equal(state.inv, ref)

    @pytest.mark.parametrize("d", [1, 2, 8, 100, 129, 257, 1000])
    def test_signed_zero_chain_bytes_equal_dense_formula(self, d):
        # Sparse residuals leave exact zeros in b, and negating them makes
        # zero products of either sign in outer(b, b); the stored inverse
        # must still match the dense formula to the byte, and its transpose.
        # Sizes 1 to 100 are the range of BLAS's small-matrix kernels.
        rng = np.random.default_rng(d)
        state = SpdInverse.from_ridge(d, 0.5)
        ref = np.eye(d) / 0.5
        negative_zero_products = 0
        g = np.zeros(d)
        for step in range(8):
            if step % 4 == 3:
                g = np.zeros(d)
            elif step % 2:
                g = -g
            else:
                g = np.zeros(d)
                support = rng.choice(d, size=max(d // 16, 1), replace=False)
                g[support] = rng.standard_normal(support.size)
            state.rank_one_update(g)
            ag = ref.dot(g)
            b = ag / np.sqrt(1.0 + g.dot(ag))
            outer = np.outer(b, b)
            negative_zero_products += int(np.signbit(outer[outer == 0]).sum())
            ref -= outer
            inv = state.inv
            assert inv.tobytes() == ref.tobytes()
            assert inv.tobytes() == np.ascontiguousarray(inv.T).tobytes()
        # A 1 x 1 outer product is a square, never -0.0.
        assert negative_zero_products > 0 or d == 1

    def test_update_makes_no_square_temporary(self):
        d = 1000
        state = SpdInverse.from_ridge(d, 1.0)
        g = np.random.default_rng(0).standard_normal(d)
        state.rank_one_update(g)
        tracemalloc.start()
        try:
            state.rank_one_update(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * d * 8 // 16

    def test_copy_is_independent(self):
        state = SpdInverse.from_ridge(3, 1.0)
        twin = state.copy()
        state.rank_one_update(np.ones(3))
        np.testing.assert_array_equal(twin.inv, np.eye(3))

    @pytest.mark.parametrize("corrupt", [-np.eye(4), np.full((4, 4), np.nan)])
    def test_spd_violation_leaves_state_unchanged(self, corrupt):
        state = SpdInverse(4, corrupt)
        before = state.inv
        with pytest.raises(FloatingPointError):
            state.rank_one_update(np.array([1.0, 2.0, 0.0, -1.0]))
        np.testing.assert_array_equal(state.inv, before)

    @pytest.mark.parametrize("ridge", [0.0, -1.0, float("nan")])
    def test_from_ridge_rejects_nonpositive_or_nan(self, ridge):
        with pytest.raises(ValueError, match="ridge must be positive"):
            SpdInverse.from_ridge(3, ridge)

    def test_non_symmetric_start_rejected(self):
        with pytest.raises(ValueError):
            SpdInverse(2, np.array([[1.0, 0.5], [0.0, 1.0]]))

    @settings(deadline=None, max_examples=30)
    @given(hostile_streams)
    def test_ons_metric_matches_dense_sum(self, stream):
        d, ridge, kinds, seed = stream
        # ONS keeps only the inverse of its metric; the projection reads it too
        ons = ONS(LiftSpec.identity(d), ridge)
        metric = ridge * np.eye(d)
        for g in residual_stream(d, kinds, seed):
            ons.update(None, g)
            metric += np.outer(SURROGATE_SCALE * g, SURROGATE_SCALE * g)
        inv = ons._inv.inv
        np.testing.assert_array_equal(inv, inv.T)
        assert np.abs(inv.dot(metric) - np.eye(d)).max() <= 1e-8

    @settings(deadline=None, max_examples=40)
    @given(hostile_streams)
    @example((100, 1.0, ["fresh", "fresh", "zero", "repeat"] * 500, 0))
    def test_corectron_solution_matches_inverse_apply(self, stream):
        # CoRectron keeps A^{-1} cum through the rank-one identity instead
        # of recomputing it from the stored inverse.  The bound is relative
        # to |A^{-1}| |cum|, the scale of the reference product's own
        # rounding: at a small ridge that product cancels heavily.
        d, ridge, kinds, seed = stream
        learner = CoRectron(LiftSpec.identity(d), ridge)
        for g in residual_stream(d, kinds, seed):
            learner.update(None, g)
            inv, cum = learner._inv.inv, learner._cum
            scale = np.abs(inv).dot(np.abs(cum)).max()
            assert np.abs(learner._pre - inv.dot(cum)).max() <= 1e-10 * scale


# ---------------------------------------------------------------------------
# the deferred downdate


@contextmanager
def one_blas_thread():
    """numpy's OpenBLAS on one thread for the duration.

    The whole-matrix product's own last bits depend on how OpenBLAS splits
    its rows among threads: at two threads it splits d = 1001 at row 501,
    off the groups of four rows that a block of the pass starts.  The pass
    keeps the bits of the product on one thread.
    """
    get, put = harness._openblas_functions(np, ("get_num_threads", "set_num_threads"))
    if get is None or put is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be set here")
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


class DenseInverse:
    """:class:`SpdInverse`'s reference: the dense formula, each downdate
    subtracted at once."""

    def __init__(self, dim: int, ridge: float):
        self.ref = np.eye(dim) / ridge

    def rank_one_update(self, g):
        ag = self.ref.dot(g)
        lev = float(g.dot(ag))
        b = ag / math.sqrt(1.0 + lev)
        self.ref -= np.outer(b, b)
        return lev, ag

    def apply(self, v):
        return self.ref.dot(v)

    def quad(self, v):
        return float(v.dot(self.ref.dot(v)))

    def project_ball(self, point, radius):
        return project_ball_mahalanobis(self.ref, point, radius)


READERS = ["rank_one_update", "apply", "quad", "project_ball", "inv", "copy"]


class TestDeferredDowndate:
    @pytest.mark.parametrize("d", [1, 2, 100, 512, 513, 673, 1000, 1001, 1057, 4096, 10000])
    def test_blocks_start_on_multiples_of_16_rows(self, d):
        starts = _block_starts(d)
        assert starts[0] == 0 and all(r0 % 16 == 0 for r0 in starts)
        assert (len(starts) == 1) == (d <= 512)
        # every block but the last has one positive multiple of 16 rows;
        # no block has one row
        rows = {r1 - r0 for r0, r1 in zip(starts, starts[1:])}
        assert len(rows) <= 1 and all(n > 0 and n % 16 == 0 for n in rows)
        assert d - starts[-1] >= min(d, 2)
        if d <= 1057:  # the state's own blocks, at a size that is quick to build
            blocks = SpdInverse.from_ridge(d, 1.0)._blocks
            assert (starts == [0]) if blocks is None else ([b[0] for b in blocks] == starts)

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from([1, 3, 100, 129, 257, 1000, 1001]),
           st.lists(st.sampled_from(READERS), min_size=1, max_size=10),
           st.integers(0, 2**32 - 1))
    @example(1001, ["rank_one_update", "rank_one_update", "apply", "rank_one_update", "quad",
                    "rank_one_update", "copy", "rank_one_update", "inv"], 0)
    def test_interleaved_readers_bytes_equal_dense_formula(self, d, ops, seed):
        # A pending downdate is subtracted by whichever reader comes next;
        # every reader's answer and the stored inverse must be those of the
        # dense formula, to the byte.
        rng = np.random.default_rng(seed)
        ridge = float(rng.uniform(0.2, 3.0))
        state, ref = SpdInverse.from_ridge(d, ridge), DenseInverse(d, ridge)
        with one_blas_thread():
            for op in ops:
                v = rng.standard_normal(d)
                if op == "rank_one_update":
                    lev, ag = state.rank_one_update(v)
                    ref_lev, ref_ag = ref.rank_one_update(v)
                    assert lev == ref_lev and ag.tobytes() == ref_ag.tobytes()
                elif op == "apply":
                    assert state.apply(v).tobytes() == ref.apply(v).tobytes()
                elif op == "quad":
                    assert state.quad(v) == ref.quad(v)
                elif op == "project_ball":
                    # Outside the ball, so the projection reads the inverse,
                    # where its eigendecomposition is quick (d <= 257).
                    radius = 0.5 * float(np.linalg.norm(v)) if d <= 257 else 2.0 * float(np.linalg.norm(v))
                    got, want = state.project_ball(v, radius), ref.project_ball(v, radius)
                    assert got.point.tobytes() == want.point.tobytes()
                    assert (got.multiplier, got.trivial) == (want.multiplier, want.trivial)
                elif op == "inv":
                    assert state.inv.tobytes() == ref.ref.tobytes()
                else:
                    # the copy goes on; the original keeps today's inverse
                    original, state = state, state.copy()
                    kept = ref.ref.copy()
            assert state.inv.tobytes() == ref.ref.tobytes()
            if "copy" in ops:
                assert original.inv.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("block_kb", [128, 512, 1024, 4096])
    @pytest.mark.parametrize("d", [1000, 1001, 2000])
    def test_pass_bytes_do_not_depend_on_block_size(self, monkeypatch, d, block_kb):
        # Blocks of 16 to 512 rows: every update, reader and stored inverse
        # keeps the dense formula's bytes, whatever the block size.
        monkeypatch.setattr(numkit, "PASS_BLOCK_BYTES", block_kb * 1024)
        rng = np.random.default_rng(d)
        state, ref = SpdInverse.from_ridge(d, 0.7), DenseInverse(d, 0.7)
        starts = [block[0] for block in state._blocks]
        assert len(starts) > 1 and starts[1] <= max(16, block_kb * 1024 // (8 * d))
        with one_blas_thread():
            for op in ["rank_one_update", "rank_one_update", "apply", "rank_one_update", "quad",
                       "rank_one_update", "rank_one_update", "inv", "rank_one_update", "apply"]:
                v = rng.standard_normal(d)
                if op == "rank_one_update":
                    lev, ag = state.rank_one_update(v)
                    ref_lev, ref_ag = ref.rank_one_update(v)
                    assert lev == ref_lev and ag.tobytes() == ref_ag.tobytes()
                elif op == "apply":
                    assert state.apply(v).tobytes() == ref.apply(v).tobytes()
                elif op == "quad":
                    assert state.quad(v) == ref.quad(v)
                else:
                    assert state.inv.tobytes() == ref.ref.tobytes()
            assert state.inv.tobytes() == ref.ref.tobytes()

    @pytest.mark.parametrize("d", [100, 1000])
    def test_pending_downdate_keeps_one_buffer(self, d):
        # One pending vector per state, written in place by every update; a
        # copy gets its own, so the two states' downdates stay apart.
        rng = np.random.default_rng(d)
        state, ref = SpdInverse.from_ridge(d, 0.5), DenseInverse(d, 0.5)
        address = state._b.ctypes.data
        with one_blas_thread():
            for _ in range(3):
                g = rng.standard_normal(d)
                state.rank_one_update(g)
                ref.rank_one_update(g)
                assert state._b.ctypes.data == address
            twin, twin_ref = state.copy(), DenseInverse(d, 0.5)
            twin_ref.ref = ref.ref.copy()
            assert not np.shares_memory(twin._b, state._b)
            for states in ((state, ref), (twin, twin_ref), (state, ref)):
                g = rng.standard_normal(d)
                for s in states:
                    s.rank_one_update(g)
            assert state._b.ctypes.data == address
            assert state.inv.tobytes() == ref.ref.tobytes()
            assert twin.inv.tobytes() == twin_ref.ref.tobytes()

    @pytest.mark.parametrize("algorithm", ["corectron_l", "ons"])
    @pytest.mark.parametrize("read_every_round", [True, False])
    def test_wide_learners_bytes_equal_dense_twins(self, algorithm, read_every_round):
        # A linear-wide-shaped stream (10 items x context 100, D = 1000)
        # through each learner and its twin on the dense formula.  Reading
        # the inverse subtracts the pending downdate, so the unread run is
        # the one whose every update fuses it into the next product.
        config = harness.default_config("linear", items=10, context_dim=100, horizon=60)
        feedback = FeedbackModel.score_perturb(0.3)
        env = harness.make_environment(config, feedback, 0)
        params = harness.resolve_hyperparameters(config, algorithm, 1.0)
        learner = harness.build_learner(config, algorithm, params)
        twin = harness.build_learner(config, algorithm, params)
        dim = learner.lift_spec.dim
        assert dim == 1000
        (ridge,) = params.values()
        twin._inv = DenseInverse(dim, ridge)
        state = "_pre" if algorithm == "corectron_l" else "_w"
        with one_blas_thread():
            for t in range(config.horizon):
                z, x = env.contexts[t], env.revealed[t]
                xhat = top_m_oracle(learner.predict(z), env.actions)
                assert xhat.tobytes() == top_m_oracle(twin.predict(z), env.actions).tobytes()
                learner.update(z, xhat - x)
                twin.update(z, xhat - x)
                assert getattr(learner, state).tobytes() == getattr(twin, state).tobytes()
                if read_every_round:
                    assert learner._inv.inv.tobytes() == twin._inv.ref.tobytes()
            assert learner._inv.inv.tobytes() == twin._inv.ref.tobytes()


# ---------------------------------------------------------------------------
# incremental Cholesky


class TestCholFactor:
    def test_first_entry(self):
        f = CholFactor()
        f.extend(np.empty(0), 9.0)
        np.testing.assert_allclose(f.L, [[3.0]])

    def test_diagonal_extension(self):
        f = CholFactor()
        f.extend(np.empty(0), 1.0)
        out = f.copy()
        out.extend(np.array([0.0]), 4.0)
        np.testing.assert_allclose(out.L, [[1.0, 0.0], [0.0, 2.0]])
        assert f.size == 1  # the copy leaves the original untouched
        np.testing.assert_allclose(f.L, [[1.0]])

    def test_chain_matches_fresh_factorization(self):
        rng = np.random.default_rng(4)
        t, ridge = 200, 0.5
        vecs = rng.standard_normal((t, 7))  # rank-deficient Gram, ridge fixes it
        K = vecs.dot(vecs.T)
        f = CholFactor()
        for i in range(t):
            f.extend(K[i, :i], K[i, i] + ridge)
        fresh = np.linalg.cholesky(K + ridge * np.eye(t))
        err = np.abs(f.L - fresh).max() / np.abs(fresh).max()
        assert err < 1e-8

    def test_solve_examples(self):
        f = CholFactor()
        f.extend(np.empty(0), 9.0)
        np.testing.assert_allclose(f.solve(np.array([9.0])), [1.0])
        f2 = CholFactor()
        f2.extend(np.empty(0), 1.0)
        f2.extend(np.array([0.0]), 4.0)
        np.testing.assert_allclose(f2.solve(np.array([1.0, 4.0])), [1.0, 1.0])

    def test_solve_residual(self):
        rng = np.random.default_rng(5)
        t = 40
        vecs = rng.standard_normal((t, t))
        K = vecs.dot(vecs.T)
        f = CholFactor()
        for i in range(t):
            f.extend(K[i, :i], K[i, i] + 1.0)
        b = rng.standard_normal(t)
        x = f.solve(b)
        M = K + np.eye(t)
        assert np.linalg.norm(M.dot(x) - b) <= 1e-9 * np.linalg.norm(b)

    def test_degenerate_extension_raises(self):
        f = CholFactor()
        f.extend(np.empty(0), 1.0)
        with pytest.raises(DegenerateGramError):
            f.extend(np.array([2.0]), 1.0)  # pivot^2 = 1 - 4 < 0 beyond jitter

    def test_jitter_rescues_borderline_pivot(self):
        # duplicated point: exact pivot is sqrt(ridge), tiny ridge makes the
        # subtraction borderline but jitter keeps the factor usable
        f = CholFactor()
        f.extend(np.empty(0), 1.0 + 1e-13)
        y, pivot = f.extend(np.array([1.0]), 1.0 + 1e-13)
        assert pivot > 0

    def test_dimension_mismatch(self):
        f = CholFactor()
        f.extend(np.empty(0), 1.0)
        with pytest.raises(ValueError):
            f.solve(np.ones(3))
        with pytest.raises(ValueError):
            f.extend(np.ones(2), 1.0)


# Gram streams for the packed factor: fresh feature vectors, zero vectors
# (decoupled rows), exact repeats and near-duplicates of the previous
# vector.  Under the 1e-13 ridge, repeats and the rank deficiency of the
# Gram matrix (rank at most the feature dimension) push new pivots under
# the floor, so extend takes the jitter retry.
gram_streams = st.tuples(
    st.integers(1, 4),
    st.sampled_from([1e-13, 1e-3, 0.1, 1.0, 10.0]),
    st.lists(st.sampled_from(["fresh", "zero", "repeat", "near"]), max_size=40),
    st.integers(0, 2**32 - 1),
)

EPS = np.finfo(float).eps


def jittered(y, pivot, rho_plus_ridge):
    """Whether ``extend`` added jitter to the pivot it returned."""
    return abs(pivot * pivot + y.dot(y) - rho_plus_ridge) > 0.5 * JITTER_REL * rho_plus_ridge


def grow_packed(stream):
    """A factor grown from capacity 1 over a Gram stream, the matrix it
    factors (``K + ridge * I`` plus the jitter on the rows that took it),
    the number of those rows, and the stream's generator."""
    dim, ridge, kinds, seed = stream
    rng = np.random.default_rng(seed)
    phi, feats = np.zeros(dim), []
    for kind in kinds:
        if kind == "fresh":
            phi = rng.standard_normal(dim)
        elif kind == "zero":
            phi = np.zeros(dim)
        elif kind == "near":
            phi = phi + 1e-9 * rng.standard_normal(dim)
        feats.append(phi.copy())
    F = np.array(feats).reshape(len(kinds), dim)
    K = F.dot(F.T)
    M = K + ridge * np.eye(len(kinds))
    with mock.patch.object(numkit, "CHOL_CAPACITY", 1):
        factor = CholFactor()
    jitters = 0
    for t in range(len(kinds)):
        y, pivot = factor.extend(K[t, :t], M[t, t])
        if jittered(y, pivot, M[t, t]):
            M[t, t] += JITTER_REL * M[t, t]
            jitters += 1
    return factor, M, jitters, rng


class TestPackedFactorProperties:
    """The packed factor and its ``dtpsv`` solves against dense references.

    Forward errors are bounded relative to the condition number, which the
    1e-13 ridge and the jitter make large; residuals are bounded absolutely.
    """

    @settings(deadline=None, max_examples=80)
    @given(gram_streams)
    def test_factor_matches_dense_cholesky(self, stream):
        factor, M, _, _ = grow_packed(stream)
        n = M.shape[0]
        L = factor.L
        assert factor.size == n and L.shape == (n, n)
        if n == 0:
            return
        np.testing.assert_array_equal(L, np.tril(L))
        assert np.all(np.diag(L) > 0)
        ref = np.linalg.cholesky(M)
        scale = np.abs(M).max()
        assert np.abs(L - ref).max() <= 1e-12 * np.linalg.cond(M) * np.abs(ref).max()
        assert np.abs(L.dot(L.T) - M).max() <= 1e-13 * scale

    @settings(deadline=None, max_examples=80)
    @given(gram_streams)
    def test_solves_match_dense_solve(self, stream):
        factor, M, _, rng = grow_packed(stream)
        n = M.shape[0]
        b = rng.standard_normal(n)
        x = factor.solve(b)
        xb = factor.backward(b)
        assert x.shape == xb.shape == (n,)
        if n == 0:
            return
        ref = np.linalg.solve(M, b)
        assert np.abs(x - ref).max() <= 1e-12 * np.linalg.cond(M) * np.abs(ref).max()
        assert np.abs(M.dot(x) - b).max() <= 1e-13 * np.abs(M).max() * np.abs(x).max()
        L = factor.L
        ref = np.linalg.solve(L.T, b)
        assert np.abs(xb - ref).max() <= 1e-12 * np.linalg.cond(L) * np.abs(ref).max()
        assert np.abs(L.T.dot(xb) - b).max() <= 1e-13 * np.abs(L).max() * np.abs(xb).max()

    def test_near_duplicate_stream_takes_jitter(self):
        factor, M, jitters, _ = grow_packed((2, 1e-13, ["fresh", "near", "repeat", "fresh"], 3))
        assert jitters == 2
        np.testing.assert_allclose(factor.L.dot(factor.L.T), M, rtol=0, atol=1e-13 * np.abs(M).max())

    def test_growth_keeps_rows(self):
        # capacity 1 doubles to 2, 4, ..., 64; every row survives each copy
        with mock.patch.object(numkit, "CHOL_CAPACITY", 1):
            factor = CholFactor()
        rows = []
        for t in range(40):
            k = np.full(t, 0.01)
            y, pivot = factor.extend(k, 2.0)
            rows.append(np.append(y, pivot))
            L = factor.L
            for i, row in enumerate(rows):
                np.testing.assert_array_equal(L[i, : i + 1], row)

    def test_size_zero(self):
        factor = CholFactor()
        assert factor.L.shape == (0, 0)
        assert factor.solve(np.empty(0)).shape == (0,)
        assert factor.backward(np.empty(0)).shape == (0,)
        twin = factor.copy()
        twin.extend(np.empty(0), 4.0)
        assert factor.size == 0 and twin.size == 1


# ---------------------------------------------------------------------------
# Mahalanobis ball projection


def grid_oracle_ball_2d(metric, point, radius, n_grid=200_000):
    """Dense angular sweep of the circle plus golden-section refinement."""
    def objective(theta):
        w = radius * np.array([np.cos(theta), np.sin(theta)])
        d = w - point
        return float(d.dot(metric.dot(d)))

    thetas = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    pts = radius * np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    diffs = pts - point
    vals = np.einsum("ij,jk,ik->i", diffs, metric, diffs)
    k = int(np.argmin(vals))
    lo, hi = thetas[k] - 2.0 * np.pi / n_grid, thetas[k] + 2.0 * np.pi / n_grid
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(80):
        if objective(c) < objective(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    theta = 0.5 * (a + b)
    return radius * np.array([np.cos(theta), np.sin(theta)])


def pgd_oracle_ball(metric, point, radius, steps=60_000):
    """Projected gradient descent with Euclidean clipping onto the ball."""
    lip = 2.0 * np.linalg.eigvalsh(metric)[-1]
    w = np.zeros_like(point)
    for _ in range(steps):
        w = w - (2.0 / lip) * metric.dot(w - point)
        nrm = np.linalg.norm(w)
        if nrm > radius:
            w *= radius / nrm
    return w


def reference_project_ball(inv_metric, point, radius):
    """Dense reference for :func:`project_ball_mahalanobis` from the same
    inverse metric ``P``: brentq finds the multiplier on
    ``||solve(I + theta P, point)|| = radius``, with no eigendecomposition
    and without the library's root-finder."""
    from scipy.optimize import brentq

    if np.linalg.norm(point) <= radius * (1.0 + TRIVIAL_SLACK):
        return point.copy()
    eye = np.eye(point.shape[0])

    def gap(theta):
        return float(np.linalg.norm(np.linalg.solve(eye + theta * inv_metric, point))) - radius

    hi = 1.0
    while gap(hi) > 0.0:
        hi *= 2.0
    theta = brentq(gap, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    return np.linalg.solve(eye + theta * inv_metric, point)


class TestProjectBall:
    """``project_ball_mahalanobis`` takes the inverse metric; the oracles
    take the metric (the identity and diag(1, -1) are their own inverses)."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 30), st.floats(0.0, 6.0), st.floats(-3.0, 3.0),
           st.sampled_from([0.3, 1.0001, 1.01, 2.0, 50.0]), st.integers(0, 2**32 - 1))
    def test_matches_same_inverse_reference(self, d, log_cond, log_scale, ratio, seed):
        # random SPD inverse metrics up to condition number 1e6
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        mu = 10.0 ** (log_scale + rng.uniform(0.0, log_cond, d))
        mu[0], mu[-1] = 10.0**log_scale, 10.0 ** (log_scale + log_cond)
        inv_metric = (q * mu).dot(q.T)
        inv_metric = 0.5 * (inv_metric + inv_metric.T)
        radius = float(rng.uniform(0.2, 2.0))
        point = rng.standard_normal(d)
        point *= ratio * radius / np.linalg.norm(point)
        out = project_ball_mahalanobis(inv_metric, point, radius)
        ref = reference_project_ball(inv_metric, point, radius)
        assert np.abs(out.point - ref).max() <= 1e-9 * np.abs(ref).max()
        assert np.linalg.norm(out.point) <= radius * (1.0 + 1e-9)
        assert out.trivial == (ratio < 1.0)
        assert project_ball_mahalanobis(inv_metric, out.point, radius).trivial

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.floats(allow_nan=False) | st.sampled_from([1e300, -1e-300, 5e-324, 1e-160]),
                    min_size=1, max_size=40))
    def test_trivial_test_reads_numpy_norm(self, entries):
        # The feasibility test compares the norm of the point with
        # radius * (1 + TRIVIAL_SLACK).  At the radius that puts that bound
        # on np.linalg.norm's value the point is feasible, and one float
        # below it is not: the projection then reads the inverse metric,
        # here not symmetric, and raises.  So the norm is numpy's, to the bit.
        point = np.array(entries)
        with np.errstate(over="ignore"):  # huge entries: the norm is inf
            norm = float(np.linalg.norm(point))
        skew = np.array([[1.0, 1.0], [0.0, 1.0]])

        def radius_for(bound):
            r = bound / (1.0 + TRIVIAL_SLACK)
            for _ in range(4):
                c = r * (1.0 + TRIVIAL_SLACK)
                if c == bound:
                    return r
                r = float(np.nextafter(r, math.inf if c < bound else 0.0))
            return None

        with np.errstate(over="ignore"):
            assert project_ball_mahalanobis(skew, point, radius_for(norm) if norm else 5e-324).trivial
            below = float(np.nextafter(norm, 0.0))
            radius = radius_for(below)
            if below > 0.0 and radius:
                with pytest.raises(ValueError, match="symmetric"):
                    project_ball_mahalanobis(skew, point, radius)

    def test_feasible_point_is_trivial(self):
        out = project_ball_mahalanobis(np.eye(3), np.array([0.1, 0.2, 0.1]), 1.0)
        assert out.trivial
        assert out.multiplier == 0.0
        np.testing.assert_array_equal(out.point, [0.1, 0.2, 0.1])

    def test_euclidean_case(self):
        out = project_ball_mahalanobis(np.eye(2), np.array([2.0, 0.0]), 1.0)
        np.testing.assert_allclose(out.point, [1.0, 0.0], atol=1e-10)
        assert not out.trivial

    def test_against_angular_grid(self):
        metric = np.diag([4.0, 1.0])
        point = np.array([2.0, 2.0])
        out = project_ball_mahalanobis(np.diag([0.25, 1.0]), point, 1.0)
        oracle = grid_oracle_ball_2d(metric, point, 1.0)
        assert np.abs(out.point - oracle).max() < 1e-4

    def test_against_pgd_dim4(self):
        rng = np.random.default_rng(6)
        metric = random_spd(rng, 4)
        point = rng.standard_normal(4) * 3.0
        out = project_ball_mahalanobis(np.linalg.inv(metric), point, 1.0)
        oracle = pgd_oracle_ball(metric, point, 1.0)
        assert np.abs(out.point - oracle).max() < 1e-4

    def test_non_spd_rejected(self):
        bad = np.diag([1.0, -1.0])
        with pytest.raises(ValueError):
            project_ball_mahalanobis(bad, np.array([3.0, 3.0]), 1.0)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_feasibility_and_kkt(self, d, seed):
        rng = np.random.default_rng(seed)
        metric = random_spd(rng, d)
        point = rng.standard_normal(d) * rng.uniform(0.1, 5.0)
        radius = float(rng.uniform(0.2, 2.0))
        out = project_ball_mahalanobis(np.linalg.inv(metric), point, radius)
        assert np.linalg.norm(out.point) <= radius * (1.0 + 1e-9)
        assert out.multiplier >= 0.0
        stat = metric.dot(out.point - point) + out.multiplier * out.point
        scale = 1.0 + np.abs(metric).max() * np.linalg.norm(point)
        assert np.linalg.norm(stat) <= 1e-7 * scale

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_projected_point_is_not_projected_again(self, d, seed):
        # the root-finder stops on the feasible side of the sphere, so a
        # projected point passes the trivial test of the next projection
        rng = np.random.default_rng(seed)
        metric = random_spd(rng, d, spread=float(rng.uniform(0.1, 300.0)))
        radius = float(rng.uniform(0.2, 2.0))
        point = rng.standard_normal(d)
        point *= radius * float(rng.uniform(1.0001, 50.0)) / np.linalg.norm(point)
        inv_metric = np.linalg.inv(metric)
        out = project_ball_mahalanobis(inv_metric, point, radius)
        assert not out.trivial
        again = project_ball_mahalanobis(inv_metric, out.point, radius)
        assert again.trivial
        assert np.linalg.norm(out.point) == pytest.approx(radius, rel=1e-9)


def general_spd(rng, d):
    """``A A^T + 0.1 I`` for a Gaussian ``A``: condition numbers into the
    thousands, eigenvectors unrelated to any other matrix drawn."""
    a = rng.standard_normal((d, d))
    return a.dot(a.T) + 0.1 * np.eye(d)


def outside_point(rng, d, norm, radius):
    """A Gaussian point scaled to ``norm`` between 1.0001 and 50 radii."""
    point = rng.standard_normal(d)
    return point * (radius * float(rng.uniform(1.0001, 50.0)) / norm(point))


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 29), st.integers(0, 2**32 - 1))
def test_ball_projection_is_feasible_exactly(d, seed):
    # the returned point, not only its eigenbasis image, lies in the ball,
    # with no slack, so the next projection leaves it alone
    rng = np.random.default_rng(seed)
    inv_metric = general_spd(rng, d)
    radius = float(rng.uniform(0.2, 2.0))
    point = outside_point(rng, d, np.linalg.norm, radius)
    out = project_ball_mahalanobis(inv_metric, point, radius)
    assert not out.trivial
    assert np.linalg.norm(out.point) <= radius
    assert project_ball_mahalanobis(inv_metric, out.point, radius).trivial


# ---------------------------------------------------------------------------
# ellipsoid-constrained projection in coefficient space


def shape_norm(shape, c):
    return np.sqrt(max(float(c.dot(shape.dot(c))), 0.0))


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 29), st.integers(0, 2**32 - 1))
def test_ellipsoid_projection_is_feasible_exactly(d, seed):
    # a metric and a full-rank shape that do not commute: the returned
    # point satisfies the constraint with no slack and is not projected
    # again
    rng = np.random.default_rng(seed)
    metric = general_spd(rng, d)
    feats = rng.standard_normal((d, d))
    shape = feats.dot(feats.T)
    radius = float(rng.uniform(0.3, 2.0))
    point = outside_point(rng, d, lambda c: shape_norm(shape, c), radius)
    out = project_ellipsoid_coeff(metric, shape, point, radius)
    assert not out.trivial
    assert shape_norm(shape, out.point) <= radius
    assert project_ellipsoid_coeff(metric, shape, out.point, radius).trivial


def _euclidean_ellipsoid_clip(shape, eig, c, radius):
    """Euclidean projection onto {c : c^T shape c <= radius^2} via brentq,
    given ``eig = np.linalg.eigh(shape)``."""
    from scipy.optimize import brentq

    val = float(c.dot(shape.dot(c)))
    if val <= radius * radius:
        return c
    evals, vecs = eig
    evals = np.clip(evals, 0.0, None)
    ct = vecs.T.dot(c)

    def constraint(mu):
        w = ct / (1.0 + mu * evals)
        return float(np.sum(evals * w * w)) - radius * radius

    hi = 1.0
    while constraint(hi) > 0:
        hi *= 2.0
    mu = brentq(constraint, 0.0, hi, xtol=1e-15, rtol=1e-14)
    return vecs.dot(ct / (1.0 + mu * evals))


def pgd_oracle_ellipsoid(metric, shape, point, radius, steps=60_000):
    lip = 2.0 * np.linalg.eigvalsh(metric)[-1]
    eig = np.linalg.eigh(shape)
    c = np.zeros_like(point)
    for _ in range(steps):
        c = c - (2.0 / lip) * metric.dot(c - point)
        c = _euclidean_ellipsoid_clip(shape, eig, c, radius)
    return c


def reference_project_ellipsoid(metric, shape, point, radius):
    """Dense reference for :func:`project_ellipsoid_coeff` through the
    Cholesky factor ``metric = L L^T``: two triangular block solves give
    ``M = L^{-1} shape L^{-T}``, its eigenbasis makes the stationarity
    condition diagonal, and a back-solve maps the optimum back.  It shares
    only the multiplier root-finder with the library."""
    if np.sqrt(max(float(point.dot(shape.dot(point))), 0.0)) <= radius * (1.0 + TRIVIAL_SLACK):
        return point.copy()
    L = np.linalg.cholesky(metric)
    W = solve_triangular(L, shape, lower=True)
    M = solve_triangular(L, W.T, lower=True)
    s, Q = np.linalg.eigh(0.5 * (M + M.T))
    s = np.clip(s, 0.0, None)
    bt = Q.T.dot(L.T.dot(point))
    theta = _radius_multiplier(s * bt * bt, s, radius, 1.0)
    return solve_triangular(L, Q.dot(bt / (1.0 + theta * s)), lower=True, trans=1)


def factored_norm(feats, c):
    """``sqrt(c^T shape c)`` for ``shape = feats feats^T``, as ``||feats^T c||``.

    Far more accurate than ``c . (shape c)`` when ``c`` has a large
    component in the shape's null space: there the rounding of ``shape``
    itself and of the quadratic form moves ``c^T shape c`` by up to ~1e-8
    relative (under rescalings of ``c`` by 1e-12).
    """
    return float(np.linalg.norm(feats.T.dot(c)))


# (size, rank of shape, point's shape-norm over the radius, seed): shapes
# full-rank and rank-deficient, points inside and outside the ellipsoid.
ellipsoid_cases = st.integers(1, 40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(0, n),
        st.sampled_from([0.3, 0.999, 1.001, 2.0, 50.0]),
        st.integers(0, 2**32 - 1),
    )
)


class TestProjectEllipsoid:
    @settings(deadline=None, max_examples=60)
    @given(ellipsoid_cases)
    def test_matches_cholesky_reference(self, case):
        n, rank, ratio, seed = case
        rng = np.random.default_rng(seed)
        metric = random_spd(rng, n, spread=float(rng.uniform(0.1, 30.0)))
        feats = rng.standard_normal((n, rank)) * rng.uniform(0.1, 3.0)
        shape = feats.dot(feats.T)
        radius = float(rng.uniform(0.3, 2.0))
        point = rng.standard_normal(n)
        norm = np.sqrt(float(point.dot(shape.dot(point))))
        if norm > 0.0:
            point *= ratio * radius / norm
            norm = np.sqrt(float(point.dot(shape.dot(point))))
        out = project_ellipsoid_coeff(metric, shape, point, radius)
        ref = reference_project_ellipsoid(metric, shape, point, radius)
        assert np.abs(out.point - ref).max() <= 1e-9 * np.abs(ref).max()
        val = factored_norm(feats, out.point)
        assert val <= radius * (1.0 + 1e-9)
        assert out.trivial == (norm <= radius * (1.0 + TRIVIAL_SLACK))
        if out.trivial:
            np.testing.assert_array_equal(out.point, point)
        else:
            assert val == pytest.approx(radius, rel=1e-9)
            assert out.multiplier > 0.0

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    # A rank-1 shape and a point of norm 2.8e4, nearly all in the shape's
    # null space, whose rounding-noise eigenvalues once pushed the
    # multiplier past the root (3.6e-8 inside).
    @example(n=19, seed=495)
    # Rank 1 again: the quadratic form read the projected point as outside,
    # and scaling it by radius over that reading moved it 2.3e-9 inside.
    @example(n=6, seed=630666469)
    def test_projected_point_is_not_projected_again(self, n, seed):
        # KONS's case: shape K = F F^T and metric s^2 K + lam I
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        shape = feats.dot(feats.T)
        scale = float(rng.uniform(0.05, 1.0))
        metric = scale * scale * shape + float(rng.uniform(1e-3, 10.0)) * np.eye(n)
        radius = float(rng.uniform(0.3, 2.0))
        point = rng.standard_normal(n)
        point *= radius * float(rng.uniform(1.0001, 50.0)) / np.sqrt(point.dot(shape.dot(point)))
        out = project_ellipsoid_coeff(metric, shape, point, radius)
        assert not out.trivial
        again = project_ellipsoid_coeff(metric, shape, out.point, radius)
        assert again.trivial
        assert factored_norm(feats, out.point) == pytest.approx(radius, rel=1e-9)

    def test_non_spd_metric_rejected(self):
        bad = np.diag([1.0, -1.0])
        with pytest.raises(ValueError):
            project_ellipsoid_coeff(bad, np.eye(2), np.array([3.0, 3.0]), 1.0)

    def test_feasible_point_is_trivial(self):
        shape = np.diag([1.0, 4.0])
        out = project_ellipsoid_coeff(np.eye(2), shape, np.array([0.1, 0.1]), 1.0)
        assert out.trivial

    def test_reduces_to_ball_with_identity_shape(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            metric = random_spd(rng, 3)
            point = rng.standard_normal(3) * 2.0
            ball = project_ball_mahalanobis(np.linalg.inv(metric), point, 1.0)
            ell = project_ellipsoid_coeff(metric, np.eye(3), point, 1.0)
            assert np.abs(ball.point - ell.point).max() < 1e-8

    def test_against_pgd_dim4(self):
        rng = np.random.default_rng(8)
        metric = random_spd(rng, 4)
        shape = random_spd(rng, 4, spread=0.5)
        point = rng.standard_normal(4) * 3.0
        out = project_ellipsoid_coeff(metric, shape, point, 1.0)
        oracle = pgd_oracle_ellipsoid(metric, shape, point, 1.0)
        assert np.abs(out.point - oracle).max() < 1e-4

    def test_constraint_active_at_solution(self):
        rng = np.random.default_rng(9)
        metric = random_spd(rng, 5)
        shape = random_spd(rng, 5)
        point = rng.standard_normal(5) * 4.0
        out = project_ellipsoid_coeff(metric, shape, point, 1.0)
        val = float(out.point.dot(shape.dot(out.point)))
        assert val == pytest.approx(1.0, rel=1e-8)
        assert out.multiplier > 0

    def test_singular_shape_direction_unconstrained(self):
        # the constraint ignores the nullspace of shape
        metric = np.eye(2)
        shape = np.diag([1.0, 0.0])
        point = np.array([3.0, 5.0])
        out = project_ellipsoid_coeff(metric, shape, point, 1.0)
        assert abs(out.point[0]) <= 1.0 + 1e-9
        assert out.point[1] == pytest.approx(5.0, rel=1e-9)


# ---------------------------------------------------------------------------
# spectral functionals, read back from the Gram-spectrum certificates


def spectral(K, lam):
    """``(log det(I + K/lam), tr(K (K + lam I)^{-1}), ||K||)`` as
    :func:`check_gram_spectrum` computes them for a trace storing ``K``."""
    t = K.shape[0]
    z = np.zeros(t)
    trace = TraceSummary(
        algorithm="corectron_l", model_kind="noncontextual", regularizer=lam,
        horizon=t, base_dim=1, context_dim=1, diameter=1.0,
        leverage=z, alignment=z, alignment_scale=z, regret=z,
        subopt=z, final_potential_direct=0.0,
        gram=K,
    )
    certs = {c.name: c for c in check_gram_spectrum(trace)}
    logdet = certs["elliptical_potential"].rhs
    opnorm = certs["gram_operator_norm"].lhs
    deff = certs["logdet_effective_dim"].rhs / (1.0 + np.log1p(opnorm / lam))
    return logdet, deff, opnorm


class TestSpectralFunctionals:
    def test_zero_matrix(self):
        logdet, deff, _ = spectral(np.zeros((4, 4)), 2.0)
        assert logdet == 0.0
        assert deff == 0.0

    def test_single_eigenvalue_equal_to_ridge(self):
        assert spectral(np.array([[2.5]]), 2.5)[0] == pytest.approx(np.log(2.0))

    def test_diagonal_closed_form(self):
        sig = np.array([0.3, 1.0, 4.2, 9.9])
        lam = 1.7
        expect = float(np.sum(np.log1p(sig / lam)))
        assert spectral(np.diag(sig), lam)[0] == pytest.approx(expect, rel=1e-12)

    def test_effective_dimension_ridge_identity(self):
        T = 6
        assert spectral(np.eye(T) * 3.0, 3.0)[1] == pytest.approx(T / 2.0)

    def test_effective_dimension_direct_solve(self):
        rng = np.random.default_rng(10)
        vecs = rng.standard_normal((8, 5))
        K = vecs.dot(vecs.T)
        lam = 0.9
        direct = float(np.trace(K.dot(np.linalg.inv(K + lam * np.eye(8)))))
        assert spectral(K, lam)[1] == pytest.approx(direct, abs=1e-10)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            gram_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            spectral(np.array([[1.0, 2.0], [0.0, 1.0]]), 1.0)

    def test_zero_row_with_nonzero_column_rejected(self):
        m = np.array([[1.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(ValueError, match="symmetric"):
            gram_eigenvalues(m)

    def test_gram_matrix_container(self):
        g = GramMatrix()
        g.append(np.empty(0), 2.0)
        g.append(np.array([1.0]), 3.0)
        np.testing.assert_allclose(g.entries, [[2.0, 1.0], [1.0, 3.0]])
        assert spectral(g.entries, 1.0)[0] > 0

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 10), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_logdet_effective_dim_inequality(self, rank, t, seed):
        # log det(I + K/lam) <= d_eff * (1 + log(1 + opnorm/lam))
        rng = np.random.default_rng(seed)
        vecs = rng.standard_normal((t, rank))
        K = vecs.dot(vecs.T)
        lam = float(rng.uniform(0.1, 5.0))
        lhs, deff, opnorm = spectral(K, lam)
        assert opnorm == float(np.clip(np.linalg.eigvalsh(K), 0, None)[-1])
        rhs = deff * (1.0 + np.log1p(opnorm / lam))
        assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 600), st.sampled_from([0.0, 0.5, 0.99, 1.01, 2.0, 1e6]), st.integers(0, 2**32 - 1))
def test_symmetry_check_by_tiles_keeps_full_rule(n, ratio, seed):
    # one entry off its mirror by ratio times the tolerance, in any tile:
    # rejected exactly when the full |m - m^T| rule rejects it
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    m = a + a.T
    i, j = rng.integers(0, n, 2)
    m[i, j] += ratio * 1e-8 * (1.0 + np.abs(m).max())
    if np.abs(m - m.T).max() > 1e-8 * (1.0 + np.abs(m).max()):
        with pytest.raises(ValueError, match="symmetric"):
            _require_symmetric(m, "matrix")
    else:
        assert _require_symmetric(m, "matrix") is m


def test_leverage_product_matches_gram_determinant():
    # chained pre-update quadratic forms reproduce det(I + K/ridge)
    rng = np.random.default_rng(11)
    d, t, ridge = 6, 30, 0.8
    state = SpdInverse.from_ridge(d, ridge)
    vecs = rng.standard_normal((t, d))
    log_prod = 0.0
    for g in vecs:
        log_prod += np.log1p(state.rank_one_update(g)[0])
    K = vecs.dot(vecs.T)
    logdet = spectral(K, ridge)[0]
    assert abs(log_prod - logdet) < 1e-6
