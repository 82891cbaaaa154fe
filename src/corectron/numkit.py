"""Dense symmetric linear-algebra primitives shared by all learners.

Covers maintenance of a positive-definite inverse under rank-one updates,
a packed incremental Cholesky factor of a ridged Gram matrix with its
BLAS triangular solves, projections onto a Mahalanobis-weighted ball
(one eigendecomposition of the inverse metric) and onto an ellipsoid
(one generalized symmetric eigendecomposition), and the clamped Gram
eigenvalues from which the diagnostics layer certifies the
log-determinant, effective dimension and operator norm.

Both projections return a point that satisfies the constraint as
evaluated on that point, not only in the eigenbasis.  A metric that is
not positive definite (a tiny ridge lost to rounding) raises
``np.linalg.LinAlgError``, a numerical failure of that one episode.

Everything but two routines runs on numpy alone: the ball projection's
``np.linalg.eigh`` and the Gram eigenvalues' ``eigvalsh`` are LAPACK
through numpy's own build of it.  numpy has neither a packed triangular
solve nor a generalized symmetric eigensolver, so ``CholFactor``'s BLAS
``dtpsv`` and ``project_ellipsoid_coeff``'s ``eigh(shape, metric)`` come
from scipy.linalg through :func:`scipy_linalg`.  Importing scipy.linalg
takes a few tenths of a second and tens of MB, so it happens only when
the first ``CholFactor`` is built (a kernel learner's constructor) or the
first ellipsoid is projected, never for the explicit learners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateGramError",
    "SpdInverse",
    "CholFactor",
    "GramMatrix",
    "ProjectionResult",
    "project_ball_mahalanobis",
    "project_ellipsoid_coeff",
    "in_ellipsoid",
    "gram_eigenvalues",
]

# Feasible inputs within this multiplicative slack are returned unchanged
# and the projection is flagged trivial.
TRIVIAL_SLACK = 1e-12
# Radius tolerance of the nontrivial projection solvers, relative.
RADIUS_TOL = 1e-10
# New Cholesky pivots at or below BETA_FLOOR_REL * (rho + ridge) get one
# retry with JITTER_REL * (rho + ridge) added to the diagonal.
BETA_FLOOR_REL = 1e-12
JITTER_REL = 1e-10
# Rows of the stored inverse updated per block of SpdInverse.rank_one_update;
# the scratch block (1 MB at dim 1000) stays in cache between its two
# passes (outer product, subtraction).  Blocks of 32 to 128 rows measured
# the same at dim 1000; 256 rows and more were slower.
UPDATE_BLOCK_ROWS = 128
# Side of the square tiles in which _require_symmetric compares a matrix
# with its transpose.
SYMMETRY_TILE = 256


def scipy_linalg():
    """The scipy.linalg module, imported on the first call."""
    import scipy.linalg

    return scipy.linalg


class DegenerateGramError(RuntimeError):
    """Raised when a Gram extension stays non-positive after jitter."""


def _as_vector(v, dim: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _require_symmetric(m: np.ndarray, what: str) -> np.ndarray:
    """``m`` unless some ``|m[i, j] - m[j, i]|`` exceeds ``1e-8 * (1 + max|m|)``.

    Compares ``SYMMETRY_TILE``-square tiles below the diagonal with their
    mirror images, so no temporary grows with ``m``.
    """
    if not m.size:
        return m
    scale = 1.0 + max(m.max(), -m.min())
    n = m.shape[0]
    worst = 0.0
    for r0 in range(0, n, SYMMETRY_TILE):
        rows = slice(r0, r0 + SYMMETRY_TILE)
        for c0 in range(0, r0 + 1, SYMMETRY_TILE):
            cols = slice(c0, c0 + SYMMETRY_TILE)
            # np.maximum, unlike max, carries a NaN on as one full max would.
            worst = np.maximum(worst, np.abs(m[rows, cols] - m[cols, rows].T).max())
    if worst > 1e-8 * scale:
        raise ValueError(f"{what} must be symmetric")
    return m


class SpdInverse:
    """Stored inverse of ``A = ridge * I + sum_s g_s g_s^T``.

    ``rank_one_update`` folds one more ``g g^T`` term into ``A`` with the
    rank-one inverse-update identity, written as a symmetric downdate
    ``inv - outer(b, b)`` with ``b = ag / sqrt(1 + lev)``, ``ag = inv . g``
    and ``lev = g . ag``.  Scaling the vector once leaves two passes over
    the stored inverse, the outer product and the subtraction, where
    ``outer(ag, ag) / (1 + lev)`` needs a third.  It subtracts a block of
    rows at a time through a scratch buffer owned by the instance, so no
    ``dim x dim`` temporary is made.  Entries ``(i, j)`` and ``(j, i)``
    subtract the same product ``b_i * b_j == b_j * b_i``, so the stored
    inverse stays exactly symmetric without re-symmetrising.

    The arithmetic is that of the dense formula ``inv - outer(b, b)``,
    bit for bit.  Each block of the outer product is
    ``np.einsum("i,j->ij", ...)``: numpy's C loop writes every entry as
    ``0 + a * b``, the same correctly rounded product as ``np.multiply``,
    except that a product of ``-0.0`` becomes ``+0.0``.  That sign cannot
    reach the stored inverse, which never holds a ``-0.0`` (the
    constructors store none, and ``x - y`` is ``-0.0`` only when ``x``
    is), and ``x - 0.0 == x - (-0.0)`` for every other ``x``.  It is
    about twice as fast at ``dim`` 1000 as the broadcast
    ``np.multiply(b[:, None], b)``, whose stride-0 operand makes it the
    slower of the update's two passes.  ``optimize`` must stay False:
    an optimized einsum may route the product through BLAS.  A BLAS ``dsyr``
    update of one triangle is several times faster at large ``dim`` but
    rounds differently, and the last bit decides the argmax between
    predicted utilities that are tied in exact arithmetic, so it changes
    which actions get recommended and the resulting regret.
    """

    def __init__(self, dim: int, inv):
        """Start from ``inv``, a symmetric ``dim x dim`` matrix.

        Its lower triangle is copied and mirrored, so the stored matrix is
        exactly symmetric.
        """
        inv = _require_symmetric(_as_square(inv), "inverse")
        if inv.shape[0] != dim:
            raise ValueError(f"dimension mismatch: expected {dim}, got {inv.shape[0]}")
        low = np.tril(inv)
        self._setup(low + np.tril(low, -1).T)

    def _setup(self, inv: np.ndarray) -> None:
        self.dim = inv.shape[0]
        self._inv = inv
        self._buf = np.empty((min(UPDATE_BLOCK_ROWS, self.dim), self.dim))

    @classmethod
    def from_ridge(cls, dim: int, ridge: float) -> "SpdInverse":
        if dim <= 0:
            raise ValueError("dim must be positive")
        if not ridge > 0:
            raise ValueError("ridge must be positive")
        inv = np.zeros((dim, dim))
        np.fill_diagonal(inv, 1.0 / ridge)
        out = cls.__new__(cls)
        out._setup(inv)
        return out

    @property
    def inv(self) -> np.ndarray:
        """A copy of the stored inverse."""
        return self._inv.copy()

    def copy(self) -> "SpdInverse":
        out = SpdInverse.__new__(SpdInverse)
        out._setup(self._inv.copy())
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._inv.dot(v)

    def quad(self, v: np.ndarray) -> float:
        """Quadratic form ``v^T A^{-1} v``."""
        return float(v.dot(self._inv.dot(v)))

    def project_ball(self, point: np.ndarray, radius: float) -> "ProjectionResult":
        """:func:`project_ball_mahalanobis` in the metric ``A``, from the
        stored inverse itself (no copy)."""
        return project_ball_mahalanobis(self._inv, point, radius)

    def rank_one_update(self, g: np.ndarray) -> tuple[float, np.ndarray]:
        """In place, absorb ``g g^T`` into ``A``; returns ``(lev, ag)``.

        ``ag = A^{-1} g`` and ``lev = g^T A^{-1} g`` are both taken against
        the state before the update.  The denominator ``1 + lev`` is
        positive for any positive-definite state; a non-positive (or NaN)
        value means the state was corrupted and raises
        :class:`FloatingPointError` before anything is changed.
        """
        g = _as_vector(g, self.dim)
        ag = self._inv.dot(g)
        lev = float(g.dot(ag))
        if not lev > -1.0:
            raise FloatingPointError("inverse update denominator not positive; state is not SPD")
        b = ag / math.sqrt(1.0 + lev)
        for r0 in range(0, self.dim, UPDATE_BLOCK_ROWS):
            r1 = min(r0 + UPDATE_BLOCK_ROWS, self.dim)
            blk = self._buf[: r1 - r0]
            np.einsum("i,j->ij", b[r0:r1], b, out=blk)
            self._inv[r0:r1] -= blk
        return lev, ag


class CholFactor:
    """Growing lower-triangular factor ``L L^T = K + ridge * I``.

    Rows are appended one at a time via :meth:`extend`.  Row ``t`` of
    ``L`` (its ``t + 1`` leading entries) is stored right after row
    ``t - 1`` in one flat buffer that doubles as needed, so the first
    ``t`` rows are always one contiguous block of ``t (t + 1) / 2``
    entries.  Read column-major, that block is the packed upper triangle
    of ``L^T``, so both triangular solves are BLAS ``dtpsv`` calls on the
    buffer itself, with no copy of the factor.  The constructor imports
    scipy.linalg for ``dtpsv``, so no solve pays for that import.
    """

    def __init__(self, capacity: int = 64):
        cap = max(capacity, 1)
        self._ap = np.zeros(cap * (cap + 1) // 2)
        self.size = 0
        self._dtpsv = scipy_linalg().blas.dtpsv

    @property
    def L(self) -> np.ndarray:
        """Dense copy of the current factor (lower triangular, positive diagonal)."""
        n = self.size
        out = np.zeros((n, n))
        out[np.tril_indices(n)] = self._ap[: n * (n + 1) // 2]
        return out

    def copy(self) -> "CholFactor":
        out = CholFactor.__new__(CholFactor)
        out._ap = self._ap.copy()
        out.size = self.size
        out._dtpsv = self._dtpsv
        return out

    def _tpsv(self, b: np.ndarray, trans: int) -> np.ndarray:
        # lower=0: the buffer is the packed upper triangle U = L^T, so
        # trans=1 solves L x = b and trans=0 solves L^T x = b.
        if self.size == 0:
            return np.empty(0)
        return self._dtpsv(self.size, self._ap, b, lower=0, trans=trans)

    def extend(self, k: np.ndarray, rho_plus_ridge: float) -> tuple[np.ndarray, float]:
        """Append the row for a new point with cross terms ``k``.

        ``rho_plus_ridge`` is the new diagonal entry of ``K + ridge * I``
        and must be positive.  Solves ``L y = k``, sets the new pivot to
        ``sqrt(rho_plus_ridge - ||y||^2)``, and appends ``[y^T, pivot]``.
        A pivot at or below the relative floor gets one diagonal-jitter
        retry before :class:`DegenerateGramError` is raised.

        Returns ``(y, pivot)``.
        """
        k = _as_vector(k, self.size)
        if rho_plus_ridge <= 0:
            raise ValueError("rho_plus_ridge must be positive")
        y = self._tpsv(k, trans=1)
        pivot_sq = rho_plus_ridge - float(y.dot(y))
        floor = BETA_FLOOR_REL * rho_plus_ridge
        if pivot_sq <= floor:
            pivot_sq += JITTER_REL * rho_plus_ridge
            if pivot_sq <= floor:
                raise DegenerateGramError(
                    "Gram extension is numerically degenerate even after jitter"
                )
        pivot = float(np.sqrt(pivot_sq))
        t = self.size
        start, stop = t * (t + 1) // 2, (t + 1) * (t + 2) // 2
        if stop > self._ap.shape[0]:
            # t equals the row capacity here; double it.
            grown = np.empty(t * (2 * t + 1))
            grown[:start] = self._ap[:start]
            self._ap = grown
        self._ap[start : stop - 1] = y
        self._ap[stop - 1] = pivot
        self.size = t + 1
        return y, pivot

    def backward(self, b: np.ndarray) -> np.ndarray:
        """Solve ``L^T x = b``."""
        return self._tpsv(_as_vector(b, self.size), trans=0)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``(L L^T) x = b``."""
        y = self._tpsv(_as_vector(b, self.size), trans=1)
        return self._tpsv(y, trans=0)


class GramMatrix:
    """Growing symmetric matrix of pairwise residual inner products."""

    def __init__(self):
        self._buf = np.zeros((64, 64))
        self.size = 0

    @property
    def entries(self) -> np.ndarray:
        return self._buf[: self.size, : self.size]

    def append(self, col: np.ndarray, diag: float) -> None:
        """Add one point given its inner products with the existing ones."""
        col = _as_vector(col, self.size)
        if self.size >= self._buf.shape[0]:
            cap = self._buf.shape[0]
            new = np.zeros((2 * cap, 2 * cap))
            new[:cap, :cap] = self._buf
            self._buf = new
        t = self.size
        self._buf[t, :t] = col
        self._buf[:t, t] = col
        self._buf[t, t] = diag
        self.size = t + 1


@dataclass(frozen=True)
class ProjectionResult:
    """Output of a constrained projection.

    ``multiplier`` is the KKT multiplier of the active norm constraint
    (zero when the input was already feasible and ``trivial`` is set).
    """

    point: np.ndarray
    multiplier: float
    trivial: bool


def _radius_multiplier(num, slope, radius, hi):
    """Solve ``sum(num / (1 + theta * slope)^2) = radius^2`` for theta >= 0.

    The left-hand side is strictly decreasing in theta, exceeds radius^2
    at theta = 0 (callers dispatch the feasible case beforehand), and the
    bracket ``[0, hi]`` is widened by doubling until it straddles the
    root.  Safeguarded bisection with Newton steps near the root.

    The returned theta lies on the feasible side of the root (the point it
    yields satisfies the constraint), so a projected point passes the
    trivial-feasibility test of the next projection.
    """
    target = radius * radius

    def value(theta):
        q = 1.0 + theta * slope
        return float(np.sum(num / (q * q)))

    lo = 0.0
    hi = max(hi, 1e-30)
    while value(hi) > target:
        hi *= 2.0
    theta = 0.5 * (lo + hi)
    for _ in range(300):
        q = 1.0 + theta * slope
        f = float(np.sum(num / (q * q)))
        err = np.sqrt(f) - radius
        if -RADIUS_TOL * radius <= err <= 0.0:
            return theta
        if err > 0.0:
            lo = theta
        else:
            hi = theta
        # Newton on sqrt(value) - radius; fall back to bisection when the
        # step leaves the bracket.
        fp = -2.0 * float(np.sum(num * slope / (q * q * q)))
        step_ok = fp < 0.0
        if step_ok:
            cand = theta - err * (2.0 * np.sqrt(f)) / fp
            step_ok = lo < cand < hi
        theta = cand if step_ok else 0.5 * (lo + hi)
        if hi - lo <= 1e-17 * max(1.0, hi):
            return hi
    return hi


def _inside(point: np.ndarray, norm, radius: float) -> np.ndarray:
    """``point`` times the first ``1 - 2^k eps`` (k = 0, 1, ...) that makes
    ``norm(point) <= radius``.

    The root-finder's multiplier is feasible in the eigenbasis; the
    back-transformed point can still overshoot by rounding or, where the
    evaluated norm is noisy, seem to, and small steps stop at the first
    scaling that passes rather than moving the point inside by the noise.
    """
    if not norm(point) > radius:  # NaN passes through to the caller's checks
        return point
    step = np.finfo(float).eps
    while True:
        scaled = point * (1.0 - step)
        if not norm(scaled) > radius:
            return scaled
        step *= 2.0


def _shape_norm(shape: np.ndarray, c: np.ndarray) -> float:
    """``sqrt(c^T shape c)``, read as zero when rounding makes it negative."""
    return float(np.sqrt(max(float(c.dot(shape.dot(c))), 0.0)))


def in_ellipsoid(shape: np.ndarray, point: np.ndarray, radius: float) -> bool:
    """Whether ``point^T shape point <= radius^2`` within the trivial slack,
    the test under which :func:`project_ellipsoid_coeff` returns ``point``."""
    return _shape_norm(shape, point) <= radius * (1.0 + TRIVIAL_SLACK)


def project_ball_mahalanobis(inv_metric, point, radius: float) -> ProjectionResult:
    """Minimise ``(w - point)^T M (w - point)`` over ``||w||_2 <= radius``.

    ``M`` is given by its inverse ``P``, which second-order learners store.
    Any already-feasible ``point`` (within a tiny multiplicative slack) is
    returned unchanged and flagged trivial.  Otherwise the optimum lies on
    the sphere and satisfies ``M (w - point) + theta * w = 0``, that is
    ``(I + theta P) w = point``, for a unique multiplier ``theta > 0``,
    located by safeguarded root-finding on ``||w(theta)||`` after one
    eigendecomposition of ``P``.

    Parameters
    ----------
    inv_metric : ndarray, shape (d, d)
        Symmetric positive-definite inverse ``P`` of the weighting matrix.
    point : ndarray, shape (d,)
        Point to project.
    radius : float
        Euclidean ball radius, positive.
    """
    point = _as_vector(point)
    if radius <= 0:
        raise ValueError("radius must be positive")
    nrm = float(np.linalg.norm(point))
    if nrm <= radius * (1.0 + TRIVIAL_SLACK):
        return ProjectionResult(point.copy(), 0.0, True)

    inv_metric = _require_symmetric(_as_square(inv_metric), "inverse metric")
    if inv_metric.shape[0] != point.shape[0]:
        raise ValueError("inverse metric and point dimensions disagree")
    mu, V = np.linalg.eigh(inv_metric)
    if mu[0] <= 0:
        raise np.linalg.LinAlgError("inverse metric must be positive definite")
    b = V.T.dot(point)
    # ||w(theta)|| <= nrm / (1 + theta * mu[0]) < radius at this bracket end.
    theta = _radius_multiplier(b * b, mu, radius, nrm / (radius * float(mu[0])))
    w = _inside(V.dot(b / (1.0 + theta * mu)), np.linalg.norm, radius)
    return ProjectionResult(w, theta, False)


def project_ellipsoid_coeff(metric, shape, point, radius: float) -> ProjectionResult:
    """Minimise ``(c - point)^T metric (c - point)`` over ``c^T shape c <= radius^2``.

    ``metric`` must be positive definite and ``shape`` positive
    semidefinite.  The optimum satisfies ``metric (c - point) +
    theta * shape c = 0``.  One generalized symmetric eigendecomposition
    ``shape V = metric V diag(s)``, normalised so that ``V^T metric V =
    I``, makes that condition diagonal: with ``b = V^T metric point`` the
    optimum is ``V (b / (1 + theta * s))``, and the multiplier is found by
    the same safeguarded root-finding as the ball projection.  With
    ``shape = I`` this is :func:`project_ball_mahalanobis` given ``metric``'s
    inverse.
    """
    point = _as_vector(point)
    if radius <= 0:
        raise ValueError("radius must be positive")
    shape = _require_symmetric(_as_square(shape), "shape")
    if shape.shape[0] != point.shape[0]:
        raise ValueError("shape and point dimensions disagree")
    if in_ellipsoid(shape, point, radius):
        return ProjectionResult(point.copy(), 0.0, True)

    metric = _require_symmetric(_as_square(metric), "metric")
    if metric.shape != shape.shape:
        raise ValueError("metric and shape dimensions disagree")
    try:
        s, V = scipy_linalg().eigh(shape, metric, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("metric must be positive definite") from exc
    # Eigenvalues within rounding of zero are noise of the shape's null space;
    # times a large component of b they would push the multiplier past the root.
    s = np.where(s > s.size * np.finfo(float).eps * max(float(s[-1]), 0.0), s, 0.0)
    b = V.T.dot(metric.dot(point))
    theta = _radius_multiplier(s * b * b, s, radius, 1.0)
    c = _inside(V.dot(b / (1.0 + theta * s)), lambda v: _shape_norm(shape, v), radius)
    return ProjectionResult(c, theta, False)


def gram_eigenvalues(gram) -> np.ndarray:
    """Ascending eigenvalues of a positive-semidefinite matrix ``K``.

    Eigenvalues that dip slightly negative (near-duplicate residuals) are
    clamped to zero.
    """
    K = _require_symmetric(_as_square(gram), "gram matrix")
    return np.clip(np.linalg.eigvalsh(K), 0.0, None)
