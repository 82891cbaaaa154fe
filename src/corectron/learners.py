"""Online learners behind a shared predict/update interface.

All learners consume base-space residuals (recommended action minus
revealed action) and emit base-space utility predictions whose argmax
over the action set is the next recommendation.

* :class:`CoRectron` - projection-free second-order updates on an
  explicit finite-dimensional lift.  Its prediction is the solution of a
  ridge system against the cumulative residual and may have any norm;
  only its direction matters.
* :class:`CoRectronK` - the same learner in representer form for kernel
  lifts, maintained through an incrementally factorised Gram system.
* :class:`OGD`, :class:`ONS`, :class:`KONS` - first- and second-order
  baselines constrained to the unit ball, requiring Euclidean or
  Mahalanobis projections.

A round whose residual (lifted, for the explicit learners) is exactly
zero, one without a mistake, leaves every learner's state and prediction
unchanged, so ``update`` returns at once: no inverse update, no history
row, no solve, no projection.  Its diagnostics are those the full update
would give: leverage and alignment 0, hence a zero potential increment,
``alignment_scale`` 1, not projected.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .lifting import KERNEL, LiftSpec, adjoint_apply, lift, row_sq_norms
from .numkit import CholFactor, GramMatrix, SpdInverse, in_ellipsoid, project_ellipsoid_coeff

__all__ = ["SURROGATE_SCALE", "STEP_COEFF", "RoundDiagnostics", "CoRectron", "CoRectronK", "OGD",
           "ONS", "KONS"]

# The Newton baselines' surrogate-gradient scale and step coefficient, the
# one setting at which they are compared; only their ridge is swept.
SURROGATE_SCALE = 0.1
STEP_COEFF = 0.5
# CoRectron's largest leverage: from 1 / eps on, the downdate of the stored
# inverse cancels every digit of it in the residual's direction.
LEVERAGE_LIMIT = 1.0 / np.finfo(float).eps


class RoundDiagnostics(NamedTuple):
    """Per-round scalars recorded by the second-order learners.

    ``leverage``    quadratic form of the new residual under the inverse
                    preconditioner, before the update.
    ``alignment``   inner product of the new residual with the
                    preconditioned cumulative residual; non-positive by
                    construction because the recommendation maximised the
                    predicted utility.
    ``alignment_scale``  natural scale ``1 + ||g|| * ||cumulative||`` for
                    tolerance checks on ``alignment``.
    ``projected``   True when a baseline performed a nontrivial
                    projection this round; always False for the
                    projection-free learners.

    Baselines fill the unavailable scalars with NaN.  The potential is not
    recorded: its per-round increment is a function of the leverage and
    the alignment (:meth:`corectron.diagnostics.TraceSummary.potential_increments`).
    """

    leverage: float
    alignment: float
    alignment_scale: float
    projected: bool


# A round without a mistake: no leverage, no alignment.
_ZERO_ROUND = RoundDiagnostics(0.0, 0.0, 1.0, False)
# A baseline's round, without and with a nontrivial projection.
_UNPROJECTED = RoundDiagnostics(math.nan, math.nan, math.nan, False)
_PROJECTED = RoundDiagnostics(math.nan, math.nan, math.nan, True)


class _History:
    """Growable store of (context, base residual) pairs of a kernel lift.

    Keeps each context's squared norm beside it, so a kernel column over
    the stored contexts is one matvec, and the kernel column of the last
    context it was asked about, so a kernel learner's ``predict`` and
    ``update`` at one context compute it once; ``append`` drops it.
    """

    def __init__(self, lift_spec: LiftSpec):
        self._kernel = lift_spec.kernel
        self._Z = np.zeros((64, lift_spec.context_dim))
        self._G = np.zeros((64, lift_spec.base_dim))
        self._sq = np.zeros(64)
        self.size = 0
        self._kcol: tuple[bytes, np.ndarray] | None = None  # (z's bytes, column at z)

    @property
    def contexts(self) -> np.ndarray:
        return self._Z[: self.size]

    @property
    def residuals(self) -> np.ndarray:
        return self._G[: self.size]

    def append(self, z: np.ndarray, g: np.ndarray) -> None:
        t = self.size
        if t >= self._Z.shape[0]:
            self._Z = np.vstack([self._Z, np.zeros_like(self._Z)])
            self._G = np.vstack([self._G, np.zeros_like(self._G)])
            self._sq = np.concatenate([self._sq, np.zeros_like(self._sq)])
        self._Z[t] = z
        self._G[t] = g
        self._sq[t] = row_sq_norms(self._Z[t : t + 1])[0]
        self.size = t + 1
        self._kcol = None

    def kernel_column(self, z: np.ndarray) -> np.ndarray:
        """The kernel values of the stored contexts at ``z``."""
        key = z.tobytes()
        if self._kcol is None or self._kcol[0] != key:
            column = self._kernel.column(self.contexts, z, self._sq[: self.size])
            self._kcol = (key, column)
        return self._kcol[1]

    def gram_column(self, z: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float]:
        """``(k(Z, z) * (G g), k(z, z) * (g . g))``: ``(z, g)``'s lifted Gram column."""
        col = self.kernel_column(z) * self.residuals.dot(g)
        return col, self._kernel.diag_value(z) * float(g.dot(g))


class CoRectron:
    """Projection-free second-order learner on an explicit lift.

    Maintains the inverse of ``A = ridge * I + sum_s g_s g_s^T``, the
    cumulative residual ``cum`` and the solution ``pre = A^{-1} cum`` of
    the ridge system against it, and predicts ``-pre``, so ``predict``
    makes no ``d x d`` product.  A round with a mistake updates ``pre``
    from the vector ``ag = A^{-1} g`` that the inverse update returns:
    by the rank-one identity the new solution is
    ``pre + ag * (1 - align) / (1 + lev)``, with ``align = g . pre`` and
    ``lev = g . ag`` taken before the update.  When ``cum`` returns to
    exact zero, ``pre`` is reset to exact zeros, so an all-way tie stays
    a tie broken by index rather than by rounding residue.  No norm
    constraint is ever enforced on the prediction: the downstream argmax
    is scale invariant.  A leverage of :data:`LEVERAGE_LIMIT` or more (a
    ridge lost to rounding) raises :class:`FloatingPointError`.
    """

    def __init__(self, lift_spec: LiftSpec, regularizer: float):
        if lift_spec.kind == KERNEL:
            raise ValueError("use CoRectronK for kernel lifts")
        if not regularizer > 0:
            raise ValueError("regularizer must be positive")
        self.lift_spec = lift_spec
        self.regularizer = float(regularizer)
        d = lift_spec.dim
        self._inv = SpdInverse.from_ridge(d, regularizer)
        self._cum = np.zeros(d)
        self._pre = np.zeros(d)
        self._last_lifted: np.ndarray | None = None

    def predict(self, z=None) -> np.ndarray:
        z = self.lift_spec.check_context(z)
        return adjoint_apply(self.lift_spec, z, -self._pre)

    def update(self, z, g_base) -> RoundDiagnostics:
        z = self.lift_spec.check_context(z)
        g = lift(self.lift_spec, z, g_base)
        self._last_lifted = g
        if not g.any():
            return _ZERO_ROUND
        align = float(g.dot(self._pre))
        scale = 1.0 + float(np.linalg.norm(g)) * float(np.linalg.norm(self._cum))
        lev, ag = self._inv.rank_one_update(g)
        if lev >= LEVERAGE_LIMIT:
            raise FloatingPointError(f"leverage {lev:.3g} is past 1/eps; the inverse update "
                                     "cancels every digit")
        self._cum += g
        if self._cum.any():
            self._pre += ag * ((1.0 - align) / (1.0 + lev))
        else:
            self._pre[:] = 0.0
        return RoundDiagnostics(lev, align, scale, False)

    def potential_direct(self) -> float:
        """Quadratic form of the cumulative residual, recomputed from state."""
        return self._inv.quad(self._cum)

    def post_round_leverage(self) -> float:
        """Quadratic form of the last residual under the updated inverse."""
        if self._last_lifted is None:
            raise RuntimeError("no update has been applied yet")
        return self._inv.quad(self._last_lifted)


class CoRectronK:
    """Representer-form twin of :class:`CoRectron` for kernel lifts.

    Keeps the Cholesky factor ``L`` of the ridged residual Gram matrix
    and the coefficient vector solving it against the all-ones
    right-hand side; the prediction is the negated coefficient
    combination of past residual features evaluated at the current
    context; the negated coefficients are kept too, as its weights.
    ``L^{-1} 1`` is kept incrementally in a growing buffer, so each round
    with a nonzero residual costs one forward solve (inside
    :meth:`CholFactor.extend`) and one backward solve.  Only those rounds
    are stored: a zero residual's row would be decoupled from the rest and
    weighted by nothing in the prediction.
    """

    def __init__(self, lift_spec: LiftSpec, regularizer: float):
        if lift_spec.kind != KERNEL:
            raise ValueError("CoRectronK requires a kernel lift")
        if not regularizer > 0:
            raise ValueError("regularizer must be positive")
        self.lift_spec = lift_spec
        self.regularizer = float(regularizer)
        self._chol = CholFactor()
        self._fwd_ones = np.zeros(64)  # L^{-1} 1 in its first size entries
        self._coef = np.empty(0)
        self._weights = np.empty(0)  # -coef, the prediction's representer weights
        self._hist = _History(lift_spec)
        self._gram_total = 0.0  # sum of all Gram entries = ||cumulative||^2
        self._potential = 0.0  # t - ridge * sum(coef), with t = 0
        self._post_leverage: float | None = None  # of the last round

    def predict(self, z) -> np.ndarray:
        # The representer sum with weights -coefficients; the history keeps
        # the kernel column for update.
        z = self.lift_spec.check_context(z)
        if self._hist.size == 0:
            return np.zeros(self.lift_spec.base_dim)
        return (self._weights * self._hist.kernel_column(z)).dot(self._hist.residuals)

    def update(self, z, g_base) -> RoundDiagnostics:
        z = self.lift_spec.check_context(z)
        g = np.asarray(g_base, dtype=float)
        if not g.any():
            self._post_leverage = 0.0
            return _ZERO_ROUND
        col, rho = self._hist.gram_column(z, g)
        y, pivot = self._chol.extend(col, rho + self.regularizer)
        lev = (rho - float(y.dot(y))) / self.regularizer
        align = float(self._coef.dot(col)) if self._hist.size else 0.0
        scale = 1.0 + math.sqrt(max(rho, 0.0)) * math.sqrt(max(self._gram_total, 0.0))
        self._gram_total += 2.0 * float(col.sum()) + rho
        t = self._hist.size
        self._hist.append(z, g)
        # The new row [y^T, pivot] of L extends L v = 1 by one entry.
        if t == self._fwd_ones.shape[0]:
            self._fwd_ones = np.concatenate([self._fwd_ones, np.zeros(t)])
        self._fwd_ones[t] = (1.0 - float(y.dot(self._fwd_ones[:t]))) / pivot
        self._coef = self._chol.backward(self._fwd_ones[: t + 1])
        self._weights = -self._coef
        self._potential = self._hist.size - self.regularizer * float(self._coef.sum())
        # Last diagonal entry of K (K + ridge I)^{-1}: L is lower triangular,
        # so L^{-1} e_t = e_t / pivot and the last entry of (L L^T)^{-1} e_t
        # is (1 / pivot) / pivot, the value two dense triangular solves give.
        self._post_leverage = 1.0 - self.regularizer * ((1.0 / pivot) / pivot)
        return RoundDiagnostics(lev, align, scale, False)

    def potential_direct(self) -> float:
        """Potential from the Gram solve: ``t - ridge * sum(coefficients)``.

        Follows from pairing the ridged system solved by the coefficient
        vector with the all-ones vector.  ``t`` counts the stored
        (nonzero) residuals: a zero residual's row would be decoupled, with
        coefficient ``1 / ridge``, and add ``1 - ridge / ridge = 0``.
        The value is computed in :meth:`update` whenever the coefficients
        change, and stored: a round without a mistake leaves it as it is.
        """
        return self._potential

    def post_round_leverage(self) -> float:
        """The last round's diagonal entry of ``K (K + ridge I)^{-1}``,
        from the new pivot of the factor; 0 after a zero residual."""
        if self._post_leverage is None:
            raise RuntimeError("no update has been applied yet")
        return self._post_leverage


class OGD:
    """Projected online gradient descent on the unit ball."""

    def __init__(self, lift_spec: LiftSpec, step_size: float):
        if lift_spec.kind == KERNEL:
            raise ValueError("OGD runs on explicit lifts only")
        if not step_size > 0:
            raise ValueError("step_size must be positive")
        self.lift_spec = lift_spec
        self.step_size = float(step_size)
        self._w = np.zeros(lift_spec.dim)

    def predict(self, z=None) -> np.ndarray:
        z = self.lift_spec.check_context(z)
        return adjoint_apply(self.lift_spec, z, self._w)

    def update(self, z, g_base) -> RoundDiagnostics:
        z = self.lift_spec.check_context(z)
        g = lift(self.lift_spec, z, g_base)
        if not g.any():
            return _UNPROJECTED
        self._w -= self.step_size * g
        nrm = float(np.linalg.norm(self._w))
        if nrm > 1.0:
            self._w /= nrm
        return _UNPROJECTED


class ONS:
    """Online Newton step on surrogate gradients, unit-ball domain.

    Gradients are scaled by :data:`SURROGATE_SCALE` before entering the
    preconditioner, of which only the inverse is stored; the Newton step
    (coefficient :data:`STEP_COEFF`) and the Mahalanobis projection back
    onto the ball both read it after the update.  Rounds whose
    unconstrained step already lands inside the ball skip the projection
    and are not counted as projected.
    """

    def __init__(self, lift_spec: LiftSpec, ridge: float):
        if lift_spec.kind == KERNEL:
            raise ValueError("use KONS for kernel lifts")
        if not ridge > 0:
            raise ValueError("ridge must be positive")
        self.lift_spec = lift_spec
        self.ridge = float(ridge)
        self._inv = SpdInverse.from_ridge(lift_spec.dim, ridge)
        self._w = np.zeros(lift_spec.dim)

    def predict(self, z=None) -> np.ndarray:
        z = self.lift_spec.check_context(z)
        return adjoint_apply(self.lift_spec, z, self._w)

    def update(self, z, g_base) -> RoundDiagnostics:
        z = self.lift_spec.check_context(z)
        g = lift(self.lift_spec, z, g_base)
        g *= SURROGATE_SCALE
        if not g.any():
            return _UNPROJECTED
        self._inv.rank_one_update(g)
        # w - A^{-1} g / STEP_COEFF, formed in the product's own array.
        target = self._inv.apply(g)
        target /= STEP_COEFF
        np.subtract(self._w, target, out=target)
        proj = self._inv.project_ball(target, 1.0)
        self._w = proj.point
        return _UNPROJECTED if proj.trivial else _PROJECTED


class KONS:
    """Kernelized online Newton step in coefficient space.

    Works on the Gram matrix of lifted residual features.  The Newton
    direction comes from the ridged Gram system of the residuals scaled by
    :data:`SURROGATE_SCALE`, with step coefficient :data:`STEP_COEFF`; the
    iterate is then projected in that metric onto the set of coefficient
    vectors whose span element has norm at most one.
    """

    def __init__(self, lift_spec: LiftSpec, ridge: float):
        if lift_spec.kind != KERNEL:
            raise ValueError("KONS requires a kernel lift")
        if not ridge > 0:
            raise ValueError("ridge must be positive")
        self.lift_spec = lift_spec
        self.ridge = float(ridge)
        self._gram = GramMatrix()
        self._chol = CholFactor()
        self._coef = np.empty(0)
        self._hist = _History(lift_spec)

    def predict(self, z) -> np.ndarray:
        # The representer sum with weights coefficients; the history keeps
        # the kernel column for update.
        z = self.lift_spec.check_context(z)
        if self._hist.size == 0:
            return np.zeros(self.lift_spec.base_dim)
        return (self._coef * self._hist.kernel_column(z)).dot(self._hist.residuals)

    def update(self, z, g_base) -> RoundDiagnostics:
        z = self.lift_spec.check_context(z)
        g = np.asarray(g_base, dtype=float)
        if not g.any():
            return _UNPROJECTED
        col, rho = self._hist.gram_column(z, g)
        s2 = SURROGATE_SCALE**2
        self._gram.append(col, rho)
        _, pivot = self._chol.extend(s2 * col, s2 * rho + self.ridge)
        self._hist.append(z, g)
        # (L L^T)^{-1} e_t, with L^{-1} e_t = e_t / pivot as L is lower
        # triangular.
        e = np.zeros(self._hist.size)
        e[-1] = 1.0 / pivot
        q = self._chol.backward(e)
        target = np.append(self._coef, 0.0) - (SURROGATE_SCALE / STEP_COEFF) * q
        gram = self._gram.entries
        if in_ellipsoid(gram, target, 1.0):
            self._coef = target
            return _UNPROJECTED
        # The projection metric s^2 K + ridge I, formed only when projecting.
        metric = s2 * gram
        metric.flat[:: metric.shape[0] + 1] += self.ridge
        self._coef = project_ellipsoid_coeff(metric, gram, target, 1.0).point
        return _PROJECTED
