import numpy as np
import pytest

from corectron.lifting import (
    ContextMap,
    KernelSpec,
    LiftSpec,
    RepresenterWeights,
    adjoint_apply,
    gram_entry,
    lift,
)


class TestKernelSpec:
    def test_rbf_is_one_on_diagonal(self):
        k = KernelSpec.rbf(0.7)
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = rng.standard_normal(4)
            assert k.value(z, z) == pytest.approx(1.0)
            assert k.diag_value(z) == 1.0

    def test_linear_dot(self):
        k = KernelSpec.linear_dot()
        assert k.value(np.array([1.0, 2.0]), np.array([3.0, -1.0])) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for k in (KernelSpec.rbf(1.3), KernelSpec.linear_dot()):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            assert k.value(a, b) == pytest.approx(k.value(b, a))

    def test_column_matches_value(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((6, 3))
        z = rng.standard_normal(3)
        for k in (KernelSpec.rbf(0.9), KernelSpec.linear_dot()):
            col = k.column(Z, z)
            expect = [k.value(row, z) for row in Z]
            np.testing.assert_allclose(col, expect, rtol=1e-12)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            KernelSpec.rbf(0.0)


class TestContextMap:
    def test_identity_adjoint(self):
        cmap = ContextMap.identity(2)
        np.testing.assert_array_equal(adjoint_apply(cmap, [1.0, 2.0]), [1.0, 2.0])

    def test_linear_adjoint_example(self):
        # weight matrix I_2 flattened column-major applied to z = (3, 4)
        cmap = ContextMap.linear_context(np.array([0.6, 0.8]), 2)
        w = np.eye(2).flatten(order="F")
        np.testing.assert_allclose(adjoint_apply(cmap, w), [0.6, 0.8])

    def test_kernel_adjoint_empty_history_is_zero(self):
        cmap = ContextMap.kernel_feature(np.zeros(3), KernelSpec.rbf(1.0), 4)
        w = RepresenterWeights(np.empty(0), np.empty((0, 3)), np.empty((0, 4)))
        np.testing.assert_array_equal(adjoint_apply(cmap, w), np.zeros(4))

    def test_context_outside_unit_ball_rejected(self):
        with pytest.raises(ValueError):
            ContextMap.linear_context(np.array([2.0, 0.0]), 2)

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
                cmap = spec.map_for(z)
                w = rng.standard_normal(spec.dim)
                lhs = float(w.dot(lift(cmap, x)))
                rhs = float(adjoint_apply(cmap, w).dot(x))
                assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))

    def test_kernel_lift_not_materializable(self):
        cmap = ContextMap.kernel_feature(np.zeros(2), KernelSpec.rbf(1.0), 3)
        with pytest.raises(ValueError):
            lift(cmap, np.zeros(3))


class TestGramEntry:
    def test_identity(self):
        cmap = ContextMap.identity(2)
        g = np.array([1.0, 1.0])
        assert gram_entry(cmap, g, cmap, g) == pytest.approx(2.0)

    def test_linear_same_unit_context(self):
        z = np.array([0.6, 0.8])
        cmap = ContextMap.linear_context(z, 2)
        g = np.array([1.0, 1.0])
        assert gram_entry(cmap, g, cmap, g) == pytest.approx(2.0)

    def test_rbf_orthogonal_residuals(self):
        z = np.zeros(2)
        k = KernelSpec.rbf(1.0)
        cmap = ContextMap.kernel_feature(z, k, 2)
        val = gram_entry(cmap, np.array([1.0, 0.0]), cmap, np.array([0.0, 1.0]))
        assert val == 0.0

    def test_mixed_variants_rejected(self):
        a = ContextMap.identity(2)
        b = ContextMap.linear_context(np.array([1.0, 0.0]), 2)
        with pytest.raises(ValueError):
            gram_entry(a, np.ones(2), b, np.ones(2))

    def test_mixed_kernels_rejected(self):
        z = np.zeros(2)
        a = ContextMap.kernel_feature(z, KernelSpec.rbf(1.0), 2)
        b = ContextMap.kernel_feature(z, KernelSpec.rbf(2.0), 2)
        with pytest.raises(ValueError):
            gram_entry(a, np.ones(2), b, np.ones(2))

    def test_linear_kernel_equals_linear_context(self):
        # dot-product kernel entries coincide with outer-product lift entries
        rng = np.random.default_rng(4)
        k = KernelSpec.linear_dot()
        for _ in range(20):
            n, p = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            zs, zt = rng.standard_normal((2, p))
            zs /= max(1.0, np.linalg.norm(zs))
            zt /= max(1.0, np.linalg.norm(zt))
            gs, gt = rng.standard_normal((2, n))
            via_kernel = gram_entry(
                ContextMap.kernel_feature(zs, k, n), gs,
                ContextMap.kernel_feature(zt, k, n), gt,
            )
            via_linear = gram_entry(
                ContextMap.linear_context(zs, n), gs,
                ContextMap.linear_context(zt, n), gt,
            )
            assert via_kernel == via_linear

    def test_matches_explicit_lift_inner_product(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, p = 3, 4
            zs, zt = rng.standard_normal((2, p))
            zs /= max(1.0, np.linalg.norm(zs))
            zt /= max(1.0, np.linalg.norm(zt))
            gs, gt = rng.standard_normal((2, n))
            ms = ContextMap.linear_context(zs, n)
            mt = ContextMap.linear_context(zt, n)
            direct = float(lift(ms, gs).dot(lift(mt, gt)))
            assert gram_entry(ms, gs, mt, gt) == pytest.approx(direct, rel=1e-12)


class TestLiftSpec:
    def test_dims(self):
        assert LiftSpec.identity(7).dim == 7
        assert LiftSpec.linear(3, 5).dim == 15
        with pytest.raises(ValueError):
            LiftSpec.kernelized(3, 5, KernelSpec.rbf(1.0)).dim

    def test_map_factory(self):
        z = np.array([0.1, 0.2])
        assert LiftSpec.identity(3).map_for(None).kind == "identity"
        assert LiftSpec.linear(3, 2).map_for(z).kind == "linear"
        spec = LiftSpec.kernelized(3, 2, KernelSpec.rbf(1.0))
        assert spec.map_for(z).kernel == spec.kernel
