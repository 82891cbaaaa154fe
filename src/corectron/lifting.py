"""Context lifts: per-round linear maps from base actions into the
learner's inner-product space, with adjoints and lifted Grams.

One variant per model, named after it: the identity for the
noncontextual model, the outer-product lift ``x -> x z^T`` for the
linear context model, and the kernel feature lift realised as a scalar
kernel times the identity.

Every lifted inner product factors into a context part and a base part,
``<lift(z, g), lift(z', g')> = kappa(z, z') * <g, g'>``, where the
context factor ``kappa`` is 1 for the noncontextual lift, ``z . z'`` for the
linear lift and ``k(z, z')`` for a kernel lift.  The kernel learners apply
it per column, ``k(Z, z) * (G g)``, and :meth:`LiftSpec.gram` to stacked
rounds, ``kappa(Z, Z) * (G G^T)``.  :class:`LiftSpec` knows the variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["KernelSpec", "LiftSpec", "lift", "adjoint_apply", "row_dot"]

NONCONTEXTUAL = "noncontextual"
LINEAR = "linear"
KERNEL = "kernel"

# Contexts are supplied by the environment on the unit ball; a little
# headroom absorbs normalisation round-off.  Compared with ``z . z``.
_CONTEXT_SQ_NORM_BOUND = (1.0 + 1e-9) ** 2


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot of each row of ``a`` with that of ``b``, each the BLAS dot of ``a.dot(b)``,
    whatever the number of rows; ``row_dot(Z, Z)`` is the ``sq`` of :meth:`KernelSpec.column`."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class KernelSpec:
    """Scalar kernel acting as ``k(z, z') * I`` on base vectors.

    ``rbf`` uses ``exp(-||z - z'||^2 / (2 * bandwidth^2))`` and satisfies
    ``k(z, z) = 1``; ``linear`` is the plain dot product, under which the
    kernel lift coincides with the outer-product context lift.
    """

    kind: str
    bandwidth: float = 1.0

    def __post_init__(self):
        if self.kind not in ("rbf", "linear"):
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if self.kind == "rbf" and not 0 < self.bandwidth < math.inf:
            raise ValueError("rbf bandwidth must be finite and positive")

    @classmethod
    def rbf(cls, bandwidth: float) -> "KernelSpec":
        return cls("rbf", float(bandwidth))

    @classmethod
    def linear_dot(cls) -> "KernelSpec":
        return cls("linear")

    def column(self, Z: np.ndarray, z: np.ndarray, sq: np.ndarray | None = None) -> np.ndarray:
        """Vector of ``k(Z[s], z)`` over the rows of ``Z``.

        ``sq`` is ``row_dot(Z, Z)``, which a caller may already hold; the
        RBF column then makes one matvec and no pass over ``Z`` besides.
        """
        if self.kind == "linear":
            return Z.dot(z)
        if sq is None:
            sq = row_dot(Z, Z)
        dist = Z.dot(z)
        dist *= -2.0
        dist += sq + float(z.dot(z))
        return self._rbf(dist)

    def matrix(self, Z: np.ndarray) -> np.ndarray:
        """Exactly symmetric ``k(Z[s], Z[t])`` by the arithmetic of :meth:`column`;
        the RBF diagonal is exactly 1, as :meth:`diag_value` gives it."""
        if self.kind == "linear":
            return Z.dot(Z.T)
        sq = row_dot(Z, Z)
        dist = Z.dot(Z.T)
        dist *= -2.0
        # Each entry adds the rounded sq[s] + sq[t], as column adds sq + z.z;
        # 64 rows at a time, so no second r x r array is made.
        for s in range(0, len(sq), 64):
            dist[s : s + 64] += sq[s : s + 64, None] + sq
        dist.flat[:: dist.shape[0] + 1] = 0.0
        return self._rbf(dist)

    def _rbf(self, dist: np.ndarray) -> np.ndarray:
        """``exp(-max(dist, 0) / (2 * bandwidth^2))`` of squared distances, in place."""
        np.maximum(dist, 0.0, out=dist)
        dist /= -2.0 * self.bandwidth**2
        return np.exp(dist, out=dist)

    def diag_value(self, z: np.ndarray) -> float:
        """``k(z, z)`` without forming a difference."""
        if self.kind == "linear":
            return float(z.dot(z))
        return 1.0


@dataclass(frozen=True)
class LiftSpec:
    """The lift that represents one model's utilities exactly, named after it."""

    kind: str
    base_dim: int
    context_dim: int = 0
    kernel: KernelSpec | None = None

    def __post_init__(self):
        if self.kind not in (NONCONTEXTUAL, LINEAR, KERNEL):
            raise ValueError(f"unknown lift kind: {self.kind!r}")
        if self.kind != NONCONTEXTUAL and self.context_dim <= 0:
            raise ValueError("contextual lifts need a positive context dimension")
        if self.kind == KERNEL and self.kernel is None:
            raise ValueError("kernel lifts need a KernelSpec")

    @classmethod
    def identity(cls, base_dim: int) -> "LiftSpec":
        return cls(NONCONTEXTUAL, base_dim)

    @classmethod
    def linear(cls, base_dim: int, context_dim: int) -> "LiftSpec":
        return cls(LINEAR, base_dim, context_dim)

    @classmethod
    def kernelized(cls, base_dim: int, context_dim: int, kernel: KernelSpec) -> "LiftSpec":
        return cls(KERNEL, base_dim, context_dim, kernel)

    @property
    def dim(self) -> int:
        """Explicit lifted dimension (identity and linear variants only)."""
        if self.kind == NONCONTEXTUAL:
            return self.base_dim
        if self.kind == LINEAR:
            return self.base_dim * self.context_dim
        raise ValueError("kernel lifts have no explicit coordinate dimension")

    def check_context(self, z) -> np.ndarray | None:
        """The round's context as a float vector in the unit ball.

        The identity lift ignores the context and returns None.
        """
        if self.kind == NONCONTEXTUAL:
            return None
        z = np.asarray(z, dtype=float)
        if z.shape != (self.context_dim,):
            raise ValueError("context vector has wrong dimension")
        # Negated, so a NaN or infinite entry fails too.
        if not z.dot(z) <= _CONTEXT_SQ_NORM_BOUND:
            raise ValueError("context vector must be finite and lie in the unit ball")
        return z

    def gram(self, Z: np.ndarray, G: np.ndarray) -> np.ndarray:
        """Gram of the lifted rows ``lift(Z[s], G[s])`` from its smaller side:
        ``kappa(Z, Z) * (G G^T)`` (r x r), or ``Phi^T Phi`` (D x D) for an
        explicit lift with D < r, which has the same nonzero eigenvalues."""
        if self.kind != KERNEL and self.dim < G.shape[0]:
            phi = lift(self, Z, G)
            return phi.T.dot(phi)
        gram = G.dot(G.T)
        if self.kind == LINEAR:
            gram *= Z.dot(Z.T)
        elif self.kind == KERNEL:
            gram *= self.kernel.matrix(Z)
        return gram


def lift(spec: LiftSpec, z, x_base) -> np.ndarray:
    """Explicit coordinates of the lifted vector at context ``z``.

    Linear-context lifts are stored column-major: the flat vector of
    ``x z^T`` stacks the columns ``z_j * x``.  Stacked rows, ``x_base`` of
    shape ``(..., base_dim)`` with contexts ``z`` of shape
    ``(..., context_dim)``, lift to rows of shape ``(..., dim)``, each bit
    for bit the lift of its own row.
    """
    x = np.asarray(x_base, dtype=float)
    if x.shape[-1:] != (spec.base_dim,):
        raise ValueError("base vector has wrong dimension")
    if spec.kind == NONCONTEXTUAL:
        return x.copy()
    if spec.kind == LINEAR:
        if x.ndim == 1:  # the per-round call: the same products, without broadcasting
            return np.multiply.outer(z, x).ravel()
        phi = np.asarray(z)[..., :, None] * x[..., None, :]
        return phi.reshape(phi.shape[:-2] + (spec.dim,))
    raise ValueError("kernel lifts cannot be materialised explicitly")


def adjoint_apply(spec: LiftSpec, z, w) -> np.ndarray:
    """Pull an explicit lifted weight vector back to base coordinates.

    The identity lift returns the vector itself; the linear lift applies
    the reshaped weight matrix to the context.  Kernel lifts keep their
    weights in representer form and have no explicit adjoint.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (spec.dim,):
        raise ValueError("weight vector has wrong dimension")
    if spec.kind == NONCONTEXTUAL:
        return w.copy()
    return w.reshape((spec.base_dim, spec.context_dim), order="F").dot(z)
