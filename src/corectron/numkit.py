"""Dense symmetric linear-algebra primitives shared by all learners.

Covers maintenance of a positive-definite inverse under rank-one updates
(each downdate deferred to the next reader's one pass over the inverse),
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

Two BLAS libraries serve these routines.  numpy's own BLAS and
LAPACK run the matrix-vector products (block of rows by block of rows
in ``SpdInverse``'s pass), the ball projection's
``np.linalg.eigh`` and the Gram eigenvalues' ``eigvalsh``.  scipy's
BLAS, a separate build, runs what numpy has no routine for:
``SpdInverse``'s in-place rank-one downdate (``dgemm``, on one block of
rows at a time in the pass) and
``CholFactor``'s packed triangular solves (``dtpsv``), called through
the C function pointers of ``scipy.linalg.cython_blas``, which
:func:`scipy_blas` loads without scipy.linalg when the first
``SpdInverse`` or ``CholFactor`` is built, never inside a timed update.
scipy.linalg itself, which takes a few tenths of a second and tens of MB
to import, serves only ``project_ellipsoid_coeff``'s generalized
``eigh(shape, metric)`` through :func:`scipy_linalg`, so it is imported
on KONS's first ellipsoid projection and by no other code.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import os
import sys
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
# Side of the square tiles in which _require_symmetric compares a matrix
# with its transpose.
SYMMETRY_TILE = 256
# scipy's BLAS as C function pointers, a public module of scipy.linalg.
SCIPY_BLAS = "scipy.linalg.cython_blas"
# SpdInverse's pass covers the stored inverse in blocks of rows of about
# PASS_BLOCK_BYTES, which a block's matrix-vector product reads back from
# the L2 cache after its downdate, once the inverse holds more than
# PASS_ONE_BLOCK_BYTES; a smaller inverse stays in L2 between passes, and
# blocks would only add calls.  Measured on one core of a Xeon with 2 MB
# of L2 per core: at d = 400 blocks of 512 KB made an update about 20%
# slower, from d = 560 on faster; at d = 1000 blocks of 1 MB beat 512 KB
# and 1.5 MB by about 5%.
PASS_BLOCK_BYTES = 1024 * 1024
PASS_ONE_BLOCK_BYTES = 2 * 1024 * 1024
# The rows a new CholFactor holds before its buffer first doubles.
CHOL_CAPACITY = 64


def scipy_linalg():
    """The scipy.linalg module, imported on the first call."""
    import scipy.linalg

    return scipy.linalg


def scipy_blas():
    """scipy's BLAS module ``scipy.linalg.cython_blas``, loaded on the first
    call without importing scipy.linalg.

    Importing the package would also import scipy.sparse and scipy.special
    (about 28 MB); this module and the OpenBLAS it links add about 1.7 MB,
    where scipy's f2py BLAS module would add 2.7 MB with its own Fortran
    runtime.  It is found in the package's directory and registered in
    ``sys.modules`` under its own name, as the import system would, so a
    later ``import scipy.linalg`` reuses it rather than loading a second
    copy.
    """
    module = sys.modules.get(SCIPY_BLAS)
    if module is None:
        import scipy

        where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        spec = importlib.machinery.PathFinder.find_spec(SCIPY_BLAS, [where])
        if spec is None:
            raise ImportError(f"{SCIPY_BLAS} not found in {where}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[SCIPY_BLAS] = module
        spec.loader.exec_module(module)
    return module


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _blas_routine(name: str):
    """scipy's BLAS routine ``name`` as a C function.

    A Fortran routine takes every argument by reference, so each call
    passes only ``ctypes.byref`` objects.  Declaring no argument types
    leaves ctypes nothing to convert: a call costs about 0.4 us, against
    1.2 us with every argument declared a pointer.  Nothing is checked at
    the call, so each caller passes only float64 arrays whose layout and
    length it has checked.
    """
    capsule = scipy_blas().__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None)(_capsule_pointer(capsule, _capsule_name(capsule)))


# The BLAS arguments that are the same in every call, by reference (each
# reference keeps its value alive).
_N, _T, _U = (ctypes.byref(ctypes.c_char(c)) for c in (b"N", b"T", b"U"))
_ONE = ctypes.byref(ctypes.c_int(1))
_MINUS_ONE, _PLUS_ONE = ctypes.byref(ctypes.c_double(-1.0)), ctypes.byref(ctypes.c_double(1.0))


def _address(a: np.ndarray):
    """A BLAS array argument: the first element of the writable, contiguous
    ``a``, by reference."""
    return ctypes.byref(ctypes.c_char.from_buffer(a))


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
    and ``lev = g . ag``.  Scaling the vector once leaves one product and
    one subtraction per entry, with no division.

    The downdate is not applied at once: ``b`` is kept pending, and the
    next reader subtracts it on its way.  It is kept in one vector made
    with the state, which every update overwrites in place, and the BLAS
    references to it, whole and at each block's first row, are made once
    with the inverse's own, so an update allocates no vector for ``b``
    and makes no reference; a copy gets a vector of its own.
    ``rank_one_update``, ``apply`` and ``quad`` each make one pass over
    the stored inverse, block of rows by block of rows: each block first
    takes the pending downdate, then its share of the matrix-vector
    product, while it is still in cache.  An update therefore costs one pass where a matrix-vector
    product followed by a downdate cost two.  ``project_ball``, ``inv``
    and ``copy`` subtract a pending downdate first, in one call, so no
    reader ever sees the stored inverse without it.  When the whole
    inverse is one block the pass makes two calls, the downdate and then
    the product, with no slicing.

    The downdate is one BLAS ``dgemm`` of scipy's, ``C := -1 * b b^T + 1 * C``
    with inner dimension 1, on the stored C-ordered inverse read as the
    Fortran-ordered matrix ``C = inv^T`` (on a block of rows, ``C`` is
    that block's columns of ``inv^T``), in place and with no temporary
    (``b b^T`` is symmetric, so updating ``inv^T`` updates ``inv``).  With
    one term in each inner product, every entry's product ``b_i * b_j``
    is rounded once on its own, then negated exactly and added to ``C``,
    so each entry is that of the dense formula ``inv - outer(b, b)``, bit
    for bit, however the rows are split into blocks.  A product may come
    out as ``+0.0`` where ``np.outer`` has ``-0.0``; that sign cannot
    reach the stored inverse, which never holds a ``-0.0`` (the
    constructors store none, and ``x - y`` is ``-0.0`` only when ``x``
    is), and ``x - 0.0 == x - (-0.0)`` for every other ``x``.  Entries
    ``(i, j)`` and ``(j, i)`` subtract the same product
    ``b_i * b_j == b_j * b_i``, so the stored inverse stays exactly
    symmetric without re-symmetrising.  BLAS's rank-one routines ``dger``
    and ``dsyr`` round differently: their kernels fuse each product into
    its update (``c - b_i * b_j`` rounded once, a fused multiply-add), and
    the last bit decides the argmax between predicted utilities that are
    tied in exact arithmetic, so it would change which actions get
    recommended and the resulting regret.

    The matrix-vector product stays on numpy's BLAS, whose OpenBLAS is a
    different build from scipy's, one ``dot`` per block of rows.
    OpenBLAS's ``dgemv`` kernel computes output rows in groups of four
    from the first row it is given, and a row's last bit depends on
    whether it falls in a group or in the remainder.  So every block
    starts on a multiple of 16 rows, which suits groups of any power of
    two up to 16, and each output row gets the bits of the product of the
    whole matrix on one thread.  Every block but the last holds about
    ``PASS_BLOCK_BYTES`` of the inverse, and an inverse of at most
    ``PASS_ONE_BLOCK_BYTES`` (``d <= 512``) is one block
    (:func:`_block_starts`).  On more threads OpenBLAS splits a
    large product's rows among them, and where a split falls off a
    multiple of four (at two threads: ``d >= 679`` with ``ceil(d / 2)``
    not a multiple of four) the whole product's bits themselves can
    differ from the one-thread bits that the pass keeps.
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
        if not (inv.dtype == np.float64 and inv.flags.c_contiguous):
            raise ValueError("the stored inverse must be a C-ordered float64 array")
        self.dim = d = inv.shape[0]
        self._inv = inv
        # b of the pending downdate, valid while _pending is set.
        self._b = b = np.empty(d)
        self._pending = False
        self._dgemm = _blas_routine("dgemm")
        self._dim_ref, self._inv_ref, self._b_ref = (
            ctypes.byref(ctypes.c_int(d)), _address(inv), _address(b))
        # Per block of rows: its first row, its rows as a view, its row
        # count by reference, its first entry by reference and the entry of
        # b at its first row by reference.  None when the whole inverse is
        # one block.
        starts = _block_starts(d)
        self._blocks = None if len(starts) == 1 else [
            (r0, inv[r0:r1], ctypes.byref(ctypes.c_int(r1 - r0)), _address(inv[r0]),
             _address(b[r0:]))
            for r0, r1 in zip(starts, starts[1:] + [d])
        ]

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
        self._flush()
        return self._inv.copy()

    def copy(self) -> "SpdInverse":
        self._flush()
        out = SpdInverse.__new__(SpdInverse)
        out._setup(self._inv.copy())
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``A^{-1} v``, in one pass that subtracts the pending downdate."""
        if not self._pending:
            return self._inv.dot(v)
        if self._blocks is None:
            self._flush()
            return self._inv.dot(v)
        self._pending = False
        out = np.empty(self.dim)
        b_ref, d = self._b_ref, self._dim_ref
        for r0, block, n, c_ref, b_r0_ref in self._blocks:
            # inv[r0:r1] -= outer(b[r0:r1], b): the block's columns of inv^T
            self._dgemm(_N, _N, d, n, _ONE, _MINUS_ONE, b_ref, d, b_r0_ref, _ONE, _PLUS_ONE,
                        c_ref, d)
            np.dot(block, v, out=out[r0 : r0 + block.shape[0]])
        return out

    def quad(self, v: np.ndarray) -> float:
        """Quadratic form ``v^T A^{-1} v``."""
        return float(v.dot(self.apply(v)))

    def project_ball(self, point: np.ndarray, radius: float) -> "ProjectionResult":
        """:func:`project_ball_mahalanobis` in the metric ``A``, from the
        stored inverse itself (no copy)."""
        self._flush()
        return project_ball_mahalanobis(self._inv, point, radius)

    def rank_one_update(self, g: np.ndarray) -> tuple[float, np.ndarray]:
        """Absorb ``g g^T`` into ``A``; returns ``(lev, ag)``.

        ``ag = A^{-1} g`` and ``lev = g^T A^{-1} g`` are both taken against
        the state before the update, whose downdate is left pending.  The
        denominator ``1 + lev`` is positive for any positive-definite
        state; a non-positive (or NaN) value means the state was corrupted
        and raises :class:`FloatingPointError` before ``A`` is changed.
        """
        g = _as_vector(g, self.dim)
        ag = self.apply(g)
        lev = float(g.dot(ag))
        if not lev > -1.0:
            raise FloatingPointError("inverse update denominator not positive; state is not SPD")
        np.divide(ag, math.sqrt(1.0 + lev), out=self._b)
        self._pending = True
        return lev, ag

    def _flush(self) -> None:
        """Subtract the pending downdate from the whole stored inverse."""
        if self._pending:
            self._pending = False
            b_ref, d = self._b_ref, self._dim_ref
            # transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc
            self._dgemm(_N, _N, d, d, _ONE, _MINUS_ONE, b_ref, d, b_ref, _ONE, _PLUS_ONE,
                        self._inv_ref, d)


def _block_starts(dim: int) -> list[int]:
    """First rows of the blocks of :class:`SpdInverse`'s pass.

    One block while the inverse holds at most ``PASS_ONE_BLOCK_BYTES``;
    otherwise blocks of the largest multiple of 16 rows (at least 16) that
    holds at most ``PASS_BLOCK_BYTES``.  A last row on its own joins the
    block before it: numpy computes a one-row product as a dot product,
    whose bits differ from ``dgemv``'s.
    """
    if 8 * dim * dim <= PASS_ONE_BLOCK_BYTES:
        return [0]
    rows = max(16, PASS_BLOCK_BYTES // (8 * dim) // 16 * 16)
    return list(range(0, dim - 1, rows))


class CholFactor:
    """Growing lower-triangular factor ``L L^T = K + ridge * I``.

    Rows are appended one at a time via :meth:`extend`.  Row ``t`` of
    ``L`` (its ``t + 1`` leading entries) is stored right after row
    ``t - 1`` in one flat buffer that doubles as needed, so the first
    ``t`` rows are always one contiguous block of ``t (t + 1) / 2``
    entries.  Read column-major, that block is the packed upper triangle
    of ``L^T``, so both triangular solves are BLAS ``dtpsv`` calls on the
    buffer itself, with no copy of the factor.  The constructor takes
    scipy's ``dtpsv`` (see :func:`scipy_blas`), so no solve pays for
    loading it and no factor imports scipy.linalg.
    """

    def __init__(self):
        self._dtpsv = _blas_routine("dtpsv")
        self._bind(np.zeros(CHOL_CAPACITY * (CHOL_CAPACITY + 1) // 2), 0)

    def _bind(self, ap: np.ndarray, size: int) -> None:
        # The solves pass the buffer and the factor's size by reference;
        # both references are made here, once per new row, not per solve.
        self._ap, self.size = ap, size
        self._ap_ref, self._size_ref = _address(ap), ctypes.byref(ctypes.c_int(size))

    @property
    def L(self) -> np.ndarray:
        """Dense copy of the current factor (lower triangular, positive diagonal)."""
        n = self.size
        out = np.zeros((n, n))
        out[np.tril_indices(n)] = self._ap[: n * (n + 1) // 2]
        return out

    def copy(self) -> "CholFactor":
        out = CholFactor.__new__(CholFactor)
        out._dtpsv = self._dtpsv
        out._bind(self._ap.copy(), self.size)
        return out

    def _tpsv(self, b: np.ndarray, *ops) -> np.ndarray:
        """Solve with each of ``ops`` in turn, in place on a copy of ``b``.

        uplo "U": the buffer is the packed upper triangle U = L^T, so
        ``_T`` solves ``L x = b`` and ``_N`` solves ``L^T x = b``.
        """
        x = b.copy()  # dtpsv overwrites its right-hand side
        if self.size:
            x_ref = _address(x)
            for op in ops:
                # uplo, trans, diag, n, ap, x, incx
                self._dtpsv(_U, op, _N, self._size_ref, self._ap_ref, x_ref, _ONE)
        return x

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
        y = self._tpsv(k, _T)
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
        ap = self._ap
        if stop > ap.shape[0]:
            # t equals the row capacity here; double it.
            ap = np.empty(t * (2 * t + 1))
            ap[:start] = self._ap[:start]
        ap[start : stop - 1] = y
        ap[stop - 1] = pivot
        self._bind(ap, t + 1)
        return y, pivot

    def backward(self, b: np.ndarray) -> np.ndarray:
        """Solve ``L^T x = b``."""
        return self._tpsv(_as_vector(b, self.size), _N)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``(L L^T) x = b``."""
        return self._tpsv(_as_vector(b, self.size), _T, _N)


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
    # np.linalg.norm's formula for a float vector, without its dispatch.
    nrm = math.sqrt(point.dot(point))
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
