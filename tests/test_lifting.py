import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corectron.lifting import KernelSpec, LiftSpec, adjoint_apply, lift, row_sq_norms

from kernel_reference import kernel_value

# (seed, rows, context dim, bandwidth, how the query relates to the rows)
column_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 80),
    st.integers(1, 12),
    st.sampled_from([0.1, 0.5, 1.0, 3.0, 10.0]),
    st.sampled_from(["fresh", "exact", "near", "origin"]),
)


def ball_rows(rng, t, p):
    """``t`` contexts in the unit ball, on the sphere, inside it and repeated."""
    Z = rng.standard_normal((t, p))
    Z /= np.maximum(1.0, np.linalg.norm(Z, axis=1))[:, None]
    Z[rng.random(t) < 0.3] *= rng.random()
    Z[rng.integers(t, size=t // 3)] = Z[rng.integers(t)]  # exact duplicate rows
    return Z


class TestKernelSpec:
    def test_rbf_is_one_on_diagonal(self):
        k = KernelSpec.rbf(0.7)
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = rng.standard_normal(4)
            assert k.column(z[None, :], z)[0] == pytest.approx(1.0)
            assert k.diag_value(z) == 1.0

    def test_linear_dot(self):
        k = KernelSpec.linear_dot()
        assert k.column(np.array([[1.0, 2.0]]), np.array([3.0, -1.0]))[0] == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for k in (KernelSpec.rbf(1.3), KernelSpec.linear_dot()):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            assert k.column(a[None, :], b)[0] == pytest.approx(k.column(b[None, :], a)[0])

    def test_column_matches_value(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((6, 3))
        z = rng.standard_normal(3)
        for k in (KernelSpec.rbf(0.9), KernelSpec.linear_dot()):
            col = k.column(Z, z)
            expect = [kernel_value(k, row, z) for row in Z]
            np.testing.assert_allclose(col, expect, rtol=1e-12)

    @settings(deadline=None, max_examples=200)
    @given(column_cases)
    def test_rbf_column_with_stored_norms(self, case):
        # The column from norms stored row by row (as the kernel learners'
        # history keeps them) is the column without them, bit for bit; it
        # lies in [0, 1] even at exact and near duplicates, and it is the
        # difference form ``kernel_value`` up to the expansion's cancellation.
        seed, t, p, bandwidth, query = case
        rng = np.random.default_rng(seed)
        Z = ball_rows(rng, t, p)
        z = {
            "fresh": ball_rows(rng, 1, p)[0],
            "exact": Z[rng.integers(t)].copy(),
            "near": Z[rng.integers(t)] * (1.0 - 1e-12) + 1e-13,
            "origin": np.zeros(p),
        }[query]
        z /= max(1.0, np.linalg.norm(z))
        k = KernelSpec.rbf(bandwidth)
        sq = np.array([row_sq_norms(Z[s : s + 1])[0] for s in range(t)])
        col = k.column(Z, z, sq)
        assert col.tobytes() == k.column(Z, z).tobytes()
        assert np.all((col >= 0.0) & (col <= 1.0))
        expect = np.array([kernel_value(k, row, z) for row in Z])
        assert np.max(np.abs(col - expect)) <= 1e-12

    @pytest.mark.parametrize("bandwidth", [0.0, float("nan"), float("inf")])
    def test_bad_bandwidth(self, bandwidth):
        with pytest.raises(ValueError):
            KernelSpec.rbf(bandwidth)


class TestContextMap:
    """Context checks, lifts and adjoints at one round's context."""

    def test_identity_adjoint(self):
        spec = LiftSpec.identity(2)
        np.testing.assert_array_equal(adjoint_apply(spec, None, [1.0, 2.0]), [1.0, 2.0])

    def test_linear_adjoint_example(self):
        # weight matrix I_2 flattened column-major applied to z = (3, 4)
        spec = LiftSpec.linear(2, 2)
        w = np.eye(2).flatten(order="F")
        np.testing.assert_allclose(adjoint_apply(spec, np.array([0.6, 0.8]), w), [0.6, 0.8])

    def test_kernel_adjoint_empty_history_is_zero(self):
        # the representer sum sum_s c_s kappa(z_s, z) g_s over no rounds
        spec = LiftSpec.kernelized(4, 3, KernelSpec.rbf(1.0))
        kcol = spec.kernel.column(np.empty((0, 3)), np.zeros(3))
        np.testing.assert_array_equal((np.empty(0) * kcol).dot(np.empty((0, 4))), np.zeros(4))

    def test_kernel_has_no_explicit_adjoint(self):
        spec = LiftSpec.kernelized(3, 2, KernelSpec.rbf(1.0))
        with pytest.raises(ValueError):
            adjoint_apply(spec, np.zeros(2), np.zeros(3))

    def test_context_outside_unit_ball_rejected(self):
        for spec in (LiftSpec.linear(2, 2), LiftSpec.kernelized(2, 2, KernelSpec.rbf(1.0))):
            with pytest.raises(ValueError):
                spec.check_context(np.array([2.0, 0.0]))

    def test_context_of_wrong_length_rejected(self):
        for spec in (LiftSpec.linear(2, 2), LiftSpec.kernelized(2, 2, KernelSpec.rbf(1.0))):
            for z in (np.array([0.5]), np.array([0.1, 0.1, 0.1]), None):
                with pytest.raises(ValueError):
                    spec.check_context(z)

    def test_identity_ignores_context(self):
        assert LiftSpec.identity(3).check_context(None) is None
        assert LiftSpec.identity(3).check_context(np.array([5.0])) is None

    def test_lifted_dims(self):
        assert LiftSpec.identity(5).dim == 5
        assert LiftSpec.linear(4, 3).dim == 12
        with pytest.raises(ValueError):
            LiftSpec.kernelized(4, 2, KernelSpec.rbf(1.0)).dim

    def test_adjoint_identity_property(self):
        # <w, lift(x)> == <adjoint(w), x> for identity and linear variants
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, p = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            z = rng.standard_normal(p)
            z /= max(1.0, np.linalg.norm(z))
            x = rng.standard_normal(n)
            for spec in (LiftSpec.identity(n), LiftSpec.linear(n, p)):
                zc = spec.check_context(z)
                w = rng.standard_normal(spec.dim)
                lhs = float(w.dot(lift(spec, zc, x)))
                rhs = float(adjoint_apply(spec, zc, w).dot(x))
                assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))

    def test_stacked_lift_is_its_rows(self):
        # Rows stacked in any shape lift bit for bit as one by one, -0.0
        # entries included: each lifted row is ``z_j * x`` column by column.
        rng = np.random.default_rng(6)
        for n, p, shape in [(1, 1, (1,)), (3, 2, (6,)), (4, 3, (2, 5))]:
            Z = ball_rows(rng, int(np.prod(shape)), p)
            G = rng.standard_normal((Z.shape[0], n))
            G[0] = 0.0
            Z[-1, 0] = -0.0
            Z, G = Z.reshape(shape + (p,)), G.reshape(shape + (n,))
            for spec in (LiftSpec.identity(n), LiftSpec.linear(n, p)):
                stacked = lift(spec, Z, G)
                rows = [lift(spec, z, g) for z, g in zip(Z.reshape(-1, p), G.reshape(-1, n))]
                assert stacked.shape == shape + (spec.dim,)
                assert stacked.tobytes() == np.array(rows).tobytes()
            assert np.signbit(stacked[np.nonzero(stacked == 0.0)]).any()

    def test_kernel_lift_not_materializable(self):
        spec = LiftSpec.kernelized(3, 2, KernelSpec.rbf(1.0))
        with pytest.raises(ValueError):
            lift(spec, np.zeros(2), np.zeros(3))


def lifted_inner(spec, zs, gs, zt, gt):
    """One lifted inner product, off the diagonal of a two-row Gram.

    Every lift passed here has a dimension of at least two, so the Gram is
    on its r x r side.
    """
    Z = np.zeros((2, spec.context_dim or 1)) if zs is None else np.array([zs, zt])
    return float(spec.gram(Z, np.array([gs, gt]))[0, 1])


def dense_gram(spec, Z, G):
    """Entry by entry, the Gram ``spec.gram`` builds, and the sum of the
    absolute terms behind each entry (the scale of its rounding error)."""
    r = G.shape[0]
    if spec.kind == "kernel":
        kappa = np.array([[kernel_value(spec.kernel, a, b) for b in Z] for a in Z]).reshape(r, r)
        inner = np.array([[float(a.dot(b)) for b in G] for a in G]).reshape(r, r)
        return kappa * inner, np.abs(kappa) * np.abs(G).dot(np.abs(G).T)
    phi = np.array([lift(spec, z, g) for z, g in zip(Z, G)]).reshape(r, spec.dim)
    rows = phi.T if spec.dim < r else phi
    side = rows.shape[0]
    ref = np.array([[float(a.dot(b)) for b in rows] for a in rows]).reshape(side, side)
    return ref, np.abs(rows).dot(np.abs(rows).T)


# (seed, lift, base dim, context dim, rows, share of zero residual rows)
gram_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["noncontextual", "linear", "rbf", "linear_dot"]),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 24),
    st.sampled_from([0.0, 0.3, 1.0]),
)


class TestGramEntry:
    def test_identity(self):
        spec = LiftSpec.identity(2)
        g = np.array([1.0, 1.0])
        assert lifted_inner(spec, None, g, None, g) == pytest.approx(2.0)
        assert spec.gram(np.zeros((1, 1)), g[None, :])[0, 0] == 2.0

    def test_linear_same_unit_context(self):
        z = np.array([0.6, 0.8])
        spec = LiftSpec.linear(2, 2)
        g = np.array([1.0, 1.0])
        assert lifted_inner(spec, z, g, z, g) == pytest.approx(2.0)
        assert spec.gram(z[None, :], g[None, :])[0, 0] == pytest.approx(2.0)

    def test_rbf_orthogonal_residuals(self):
        z = np.zeros(2)
        spec = LiftSpec.kernelized(2, 2, KernelSpec.rbf(1.0))
        val = lifted_inner(spec, z, np.array([1.0, 0.0]), z, np.array([0.0, 1.0]))
        assert val == 0.0

    def test_linear_kernel_equals_linear_context(self):
        # dot-product kernel entries coincide with outer-product lift entries
        # on the r x r side, which the linear lift takes for r <= n * p
        rng = np.random.default_rng(4)
        for _ in range(20):
            n, p = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            via_kernel = LiftSpec.kernelized(n, p, KernelSpec.linear_dot())
            via_linear = LiftSpec.linear(n, p)
            t = int(rng.integers(0, min(6, n * p) + 1))
            Z = rng.standard_normal((t, p))
            Z /= np.maximum(1.0, np.linalg.norm(Z, axis=1))[:, None]
            G = rng.standard_normal((t, n))
            np.testing.assert_array_equal(via_kernel.gram(Z, G), via_linear.gram(Z, G))

    def test_matches_explicit_lift_inner_product(self):
        rng = np.random.default_rng(5)
        for spec in (LiftSpec.identity(3), LiftSpec.linear(3, 4)):
            for _ in range(10):
                Z = rng.standard_normal((4, 4))
                Z /= np.maximum(1.0, np.linalg.norm(Z, axis=1))[:, None]
                G = rng.standard_normal((4, 3))
                phi = np.array([lift(spec, spec.check_context(z), g) for z, g in zip(Z, G)])
                direct = phi.T.dot(phi) if spec.dim < 4 else phi.dot(phi.T)
                np.testing.assert_allclose(spec.gram(Z, G), direct, rtol=1e-12)

    def test_context_factors(self):
        Z = np.array([[0.1, 0.2], [0.3, -0.4]])
        G = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, 1.0]])
        k = KernelSpec.rbf(1.0)
        np.testing.assert_array_equal(LiftSpec.identity(3).gram(Z, G), G.dot(G.T))
        np.testing.assert_array_equal(LiftSpec.linear(3, 2).gram(Z, G), Z.dot(Z.T) * G.dot(G.T))
        np.testing.assert_array_equal(LiftSpec.kernelized(3, 2, k).gram(Z, G), k.matrix(Z) * G.dot(G.T))

    @settings(deadline=None, max_examples=200)
    @given(gram_cases)
    def test_gram_property(self, case):
        # From its smaller side, exactly symmetric, the per-entry lifted
        # inner products up to rounding, with zero residual rows exactly
        # zero; on the D x D side, bit for bit the product of stacked lifts.
        seed, kind, n, p, r, zero_share = case
        rng = np.random.default_rng(seed)
        spec = {
            "noncontextual": LiftSpec.identity(n),
            "linear": LiftSpec.linear(n, p),
            "rbf": LiftSpec.kernelized(n, p, KernelSpec.rbf(rng.choice([0.1, 1.0, 10.0]))),
            "linear_dot": LiftSpec.kernelized(n, p, KernelSpec.linear_dot()),
        }[kind]
        Z = ball_rows(rng, r, p) if r else np.zeros((0, p))
        G = rng.standard_normal((r, n))
        zero = rng.random(r) < zero_share
        G[zero] = 0.0
        gram = spec.gram(Z, G)
        side = r if spec.kind == "kernel" else min(r, spec.dim)
        assert gram.shape == (side, side)
        np.testing.assert_array_equal(gram, gram.T)
        ref, scale = dense_gram(spec, Z, G)
        assert np.all(np.abs(gram - ref) <= 1e-12 * (np.abs(ref) + scale))
        if side == r:
            assert not gram[zero].any()
        else:
            phi = np.array([lift(spec, z, g) for z, g in zip(Z, G)]).reshape(r, spec.dim)
            np.testing.assert_array_equal(gram, phi.T.dot(phi))


class TestLiftSpec:
    def test_dims(self):
        assert LiftSpec.identity(7).dim == 7
        assert LiftSpec.linear(3, 5).dim == 15
        with pytest.raises(ValueError):
            LiftSpec.kernelized(3, 5, KernelSpec.rbf(1.0)).dim
