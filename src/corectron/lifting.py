"""Context lifts: per-round linear maps from base actions into the
learner's inner-product space, with adjoints and Gram entries.

Three variants are supported: the identity (no context), the
outer-product lift ``x -> x z^T`` for linear context models, and the
kernel feature lift realised as a scalar kernel times the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "ContextMap",
    "RepresenterWeights",
    "LiftSpec",
    "lift",
    "adjoint_apply",
    "gram_entry",
]

IDENTITY = "identity"
LINEAR = "linear"
KERNEL = "kernel"

# Contexts are supplied by the environment on the unit ball; a little
# headroom absorbs normalisation round-off.
_CONTEXT_NORM_SLACK = 1e-9


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
        if self.kind == "rbf" and self.bandwidth <= 0:
            raise ValueError("rbf bandwidth must be positive")

    @classmethod
    def rbf(cls, bandwidth: float) -> "KernelSpec":
        return cls("rbf", float(bandwidth))

    @classmethod
    def linear_dot(cls) -> "KernelSpec":
        return cls("linear")

    def value(self, za: np.ndarray, zb: np.ndarray) -> float:
        if self.kind == "linear":
            return float(np.dot(za, zb))
        d = za - zb
        return float(np.exp(-d.dot(d) / (2.0 * self.bandwidth**2)))

    def column(self, Z: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Vector of ``k(Z[s], z)`` over the rows of ``Z``."""
        if Z.shape[0] == 0:
            return np.empty(0)
        if self.kind == "linear":
            return Z.dot(z)
        d = Z - z[None, :]
        return np.exp(-np.einsum("ij,ij->i", d, d) / (2.0 * self.bandwidth**2))

    def diag_value(self, z: np.ndarray) -> float:
        """``k(z, z)`` without forming a difference."""
        if self.kind == "linear":
            return float(z.dot(z))
        return 1.0


@dataclass(frozen=True)
class ContextMap:
    """One round's lift, tagged by variant.

    ``z`` and ``kernel`` are set for the variants that need them; the
    context vector must lie in the unit ball.
    """

    kind: str
    base_dim: int
    z: np.ndarray | None = None
    kernel: KernelSpec | None = None

    def __post_init__(self):
        if self.kind not in (IDENTITY, LINEAR, KERNEL):
            raise ValueError(f"unknown context map variant: {self.kind!r}")
        if self.base_dim <= 0:
            raise ValueError("base_dim must be positive")
        if self.kind in (LINEAR, KERNEL):
            if self.z is None:
                raise ValueError(f"{self.kind} map requires a context vector")
            if np.linalg.norm(self.z) > 1.0 + _CONTEXT_NORM_SLACK:
                raise ValueError("context vector must lie in the unit ball")
        if self.kind == KERNEL and self.kernel is None:
            raise ValueError("kernel map requires a KernelSpec")

    @classmethod
    def identity(cls, base_dim: int) -> "ContextMap":
        return cls(IDENTITY, base_dim)

    @classmethod
    def linear_context(cls, z, base_dim: int) -> "ContextMap":
        return cls(LINEAR, base_dim, z=np.asarray(z, dtype=float))

    @classmethod
    def kernel_feature(cls, z, kernel: KernelSpec, base_dim: int) -> "ContextMap":
        return cls(KERNEL, base_dim, z=np.asarray(z, dtype=float), kernel=kernel)


@dataclass(frozen=True)
class RepresenterWeights:
    """Span representation ``w = sum_s coeffs[s] * (lift of residuals[s])``.

    The coefficients are stored signed; :func:`adjoint_apply` uses them
    exactly as given.
    """

    coeffs: np.ndarray
    contexts: np.ndarray
    residuals: np.ndarray


def lift(cmap: ContextMap, x_base) -> np.ndarray:
    """Explicit coordinates of the lifted vector.

    Linear-context lifts are stored column-major: the flat vector of
    ``x z^T`` stacks the columns ``z_j * x``.
    """
    x = np.asarray(x_base, dtype=float)
    if x.shape != (cmap.base_dim,):
        raise ValueError("base vector has wrong dimension")
    if cmap.kind == IDENTITY:
        return x.copy()
    if cmap.kind == LINEAR:
        return np.outer(cmap.z, x).ravel()
    raise ValueError("kernel lifts cannot be materialised explicitly")


def adjoint_apply(cmap: ContextMap, w_repr) -> np.ndarray:
    """Pull a lifted weight vector back to base-action coordinates.

    Identity maps return the vector itself; linear-context maps apply the
    reshaped weight matrix to the context; kernel maps evaluate a
    :class:`RepresenterWeights` sum at the round's context.
    """
    if cmap.kind == IDENTITY:
        w = np.asarray(w_repr, dtype=float)
        if w.shape != (cmap.base_dim,):
            raise ValueError("weight vector has wrong dimension")
        return w.copy()
    if cmap.kind == LINEAR:
        w = np.asarray(w_repr, dtype=float)
        p = cmap.z.shape[0]
        if w.shape != (cmap.base_dim * p,):
            raise ValueError("weight vector has wrong dimension")
        return w.reshape((cmap.base_dim, p), order="F").dot(cmap.z)
    if not isinstance(w_repr, RepresenterWeights):
        raise ValueError("kernel maps require RepresenterWeights")
    if w_repr.coeffs.shape[0] == 0:
        return np.zeros(cmap.base_dim)
    kcol = cmap.kernel.column(w_repr.contexts, cmap.z)
    return (w_repr.coeffs * kcol).dot(w_repr.residuals)


def gram_entry(map_s: ContextMap, g_s_base, map_t: ContextMap, g_t_base) -> float:
    """Inner product of two lifted residuals.

    Both rounds must use the same lift variant (and kernel, where
    applicable); the entry always factors into a context part times the
    base dot product.
    """
    if map_s.kind != map_t.kind:
        raise ValueError("cannot mix context map variants in one Gram matrix")
    gs = np.asarray(g_s_base, dtype=float)
    gt = np.asarray(g_t_base, dtype=float)
    if gs.shape != (map_s.base_dim,) or gt.shape != (map_t.base_dim,):
        raise ValueError("residual has wrong dimension")
    base = float(gs.dot(gt))
    if map_s.kind == IDENTITY:
        return base
    if map_s.kind == LINEAR:
        return float(map_s.z.dot(map_t.z)) * base
    if map_s.kernel != map_t.kernel:
        raise ValueError("cannot mix kernels in one Gram matrix")
    return map_s.kernel.value(map_s.z, map_t.z) * base


@dataclass(frozen=True)
class LiftSpec:
    """Family of per-round context maps for one contextual model."""

    kind: str
    base_dim: int
    context_dim: int = 0
    kernel: KernelSpec | None = None

    def __post_init__(self):
        if self.kind not in (IDENTITY, LINEAR, KERNEL):
            raise ValueError(f"unknown lift kind: {self.kind!r}")
        if self.kind in (LINEAR, KERNEL) and self.context_dim <= 0:
            raise ValueError("contextual lifts need a positive context dimension")
        if self.kind == KERNEL and self.kernel is None:
            raise ValueError("kernel lifts need a KernelSpec")

    @classmethod
    def identity(cls, base_dim: int) -> "LiftSpec":
        return cls(IDENTITY, base_dim)

    @classmethod
    def linear(cls, base_dim: int, context_dim: int) -> "LiftSpec":
        return cls(LINEAR, base_dim, context_dim)

    @classmethod
    def kernelized(cls, base_dim: int, context_dim: int, kernel: KernelSpec) -> "LiftSpec":
        return cls(KERNEL, base_dim, context_dim, kernel)

    @property
    def dim(self) -> int:
        """Explicit lifted dimension (identity and linear variants only)."""
        if self.kind == IDENTITY:
            return self.base_dim
        if self.kind == LINEAR:
            return self.base_dim * self.context_dim
        raise ValueError("kernel lifts have no explicit coordinate dimension")

    def map_for(self, z) -> ContextMap:
        if self.kind == IDENTITY:
            return ContextMap.identity(self.base_dim)
        if self.kind == LINEAR:
            return ContextMap.linear_context(z, self.base_dim)
        return ContextMap.kernel_feature(z, self.kernel, self.base_dim)
