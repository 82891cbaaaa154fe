"""Simulated contextual m-out-of-n recommendation world.

Provides the scaled top-m action set with its exact linear-optimization
oracle, context sampling on the unit ball, the hidden utility models of
the three settings (noncontextual: a fixed vector; linear; kernel: an RBF
combination) normalised to unit strength, and three feedback channels:
exact argmax actions, rank-m one-swap corruption, and argmax under
relative Gaussian score noise.

All randomness flows through counter-based streams keyed by (seed, role)
so that every algorithm sees the identical round sequence for a seed.
Each per-round helper also takes a ``(T, ...)`` stack of rounds and gives,
bit for bit, its T one-round calls, drawing from its stream in that order.

For that reason the RBF utilities evaluate their kernel in the difference
form ``exp(-|z - c|^2 / (2 bandwidth^2))``, a row-wise reduction whose
rounding does not depend on how many contexts are stacked.  The learners'
kernel column (``corectron.lifting``) uses the expanded form with one BLAS
matvec, which is faster but rounds differently with the number of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lifting import KERNEL, LINEAR, NONCONTEXTUAL

__all__ = [
    "MODELS",
    "RBF_CENTERS",
    "BOUND_PAYOFF",
    "ActionSetSpec",
    "LinearUtility",
    "RbfUtility",
    "FixedUtility",
    "UtilitySpec",
    "FeedbackModel",
    "Environment",
    "rng_stream",
    "sample_context",
    "top_m_oracle",
    "utility_eval",
    "reveal_action",
    "suboptimality",
    "build_utility_model",
]

# The three models, one name each: the setting, the hidden utility's kind, a
# trace's model kind and the kind of the lift that represents that utility.
MODELS = (NONCONTEXTUAL, LINEAR, KERNEL)

# The number of centers of every RBF utility model.
RBF_CENTERS = 16
# Every hidden utility has unit strength and every action lies in a set of
# unit diameter, so no payoff difference exceeds one.
BOUND_PAYOFF = 1.0

ROLE_CONTEXTS = 0
ROLE_MODEL = 1
ROLE_FEEDBACK = 2


def rng_stream(seed: int, role: int) -> np.random.Generator:
    """Independent counter-based generator for one (seed, role) pair."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(role),))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class ActionSetSpec:
    """Choose m of n items; selected coordinates carry ``scale``.

    ``scale`` is derived, not chosen: ``1 / sqrt(2 * min(m, n - m))``, or
    1 when every item is selected, which makes the set's Euclidean
    diameter exactly one, since two selections differ in at most
    ``min(m, n - m)`` swapped items of two coordinates each.
    """

    n: int
    m: int
    scale: float = field(init=False)

    def __post_init__(self):
        if not (0 < self.m <= self.n):
            raise ValueError("need 0 < m <= n")
        span = min(self.m, self.n - self.m)
        object.__setattr__(self, "scale", 1.0 / math.sqrt(2.0 * span) if span else 1.0)

    @property
    def diameter(self) -> float:
        return self.scale * math.sqrt(2.0 * min(self.m, self.n - self.m))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot of each row of ``a`` with that of ``b``, each the BLAS dot of ``a.dot(b)``."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def sample_context(rng: np.random.Generator, shape: int | tuple) -> np.ndarray:
    """Standard normal rows of shape ``(..., p)``, each rescaled onto the unit ball if outside."""
    z = rng.standard_normal(shape)
    nrm = np.sqrt(_rowdot(z, z))[..., None]
    return np.divide(z, nrm, out=z, where=nrm > 1.0)


def top_m_oracle(w: np.ndarray, spec: ActionSetSpec) -> np.ndarray:
    """Exact argmax over the action set per row of scores; ties go to the lowest index."""
    w = np.asarray(w, dtype=float)
    if w.shape[-1:] != (spec.n,):
        raise ValueError("score vector has wrong dimension")
    # The method, not np.argsort: the same stable order without its dispatch.
    order = (-w).argsort(kind="stable")
    if w.ndim == 1:  # the per-round call: plain indexing skips put_along_axis's set-up
        x = np.zeros(spec.n)
        x[order[: spec.m]] = spec.scale
        return x
    x = np.zeros(w.shape)
    np.put_along_axis(x, order[..., : spec.m], spec.scale, axis=-1)
    return x


def _rbf_columns(rows: np.ndarray, centers: np.ndarray, bandwidth: float) -> np.ndarray:
    """RBF kernel values ``(len(rows), len(centers))`` in the difference form.

    Each entry depends only on its row and center, never on the number of
    rows, so a stack of contexts gives its one-row calls bit for bit.
    """
    cols = []
    for c in centers:
        d = rows - c[None, :]
        cols.append(np.exp(-np.einsum("ij,ij->i", d, d) / (2.0 * bandwidth**2)))
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class LinearUtility:
    """Hidden utility ``u(z) = W z`` with unit Frobenius norm."""

    weights: np.ndarray  # (n, p)


@dataclass(frozen=True)
class RbfUtility:
    """Hidden utility as an RBF combination with unit function norm."""

    centers: np.ndarray  # (J, p)
    coeffs: np.ndarray  # (J, n)
    bandwidth: float


@dataclass(frozen=True)
class FixedUtility:
    """Context-independent hidden utility with unit Euclidean norm."""

    vector: np.ndarray  # (n,)


@dataclass(frozen=True)
class UtilitySpec:
    """Recipe for drawing a hidden utility model; an RBF model has
    :data:`RBF_CENTERS` centers."""

    kind: str  # one of MODELS
    context_dim: int = 0
    bandwidth: float = 1.0

    def __post_init__(self):
        if self.kind not in MODELS:
            raise ValueError(f"unknown utility kind: {self.kind!r}")
        if self.kind != NONCONTEXTUAL and self.context_dim <= 0:
            raise ValueError(f"the {self.kind} model needs context_dim >= 1")
        if self.kind == KERNEL and not 0 < self.bandwidth < math.inf:
            raise ValueError("bandwidth must be finite and positive")


def build_utility_model(rng: np.random.Generator, spec: UtilitySpec, n: int):
    """Draw a hidden utility model of unit strength.

    Linear weights and fixed vectors are standard normal followed by norm
    division (redrawn in the measure-zero event of an exactly zero draw).
    RBF centers are standard normal projected onto the unit ball so they
    live where contexts do; coefficients are standard normal rescaled by
    the square root of the kernel quadratic form, which sets the function
    norm to one.
    """
    if spec.kind == NONCONTEXTUAL:
        while True:
            v = rng.standard_normal(n)
            nrm = float(np.linalg.norm(v))
            if nrm > 0:
                return FixedUtility(v / nrm)
    if spec.kind == LINEAR:
        while True:
            W = rng.standard_normal((n, spec.context_dim))
            nrm = float(np.linalg.norm(W))
            if nrm > 0:
                return LinearUtility(W / nrm)
    centers = rng.standard_normal((RBF_CENTERS, spec.context_dim))
    norms = np.linalg.norm(centers, axis=1)
    over = norms > 1.0
    centers[over] /= norms[over, None]
    # The kernel matrix of the centers, as utility_eval forms it.
    kmat = _rbf_columns(centers, centers, spec.bandwidth)
    while True:
        raw = rng.standard_normal((RBF_CENTERS, n))
        sq = float(np.einsum("in,ij,jn->", raw, kmat, raw))
        if sq > 0:
            return RbfUtility(centers, raw / math.sqrt(sq), spec.bandwidth)


def utility_eval(model, z) -> np.ndarray:
    """Base-space utility vectors ``(..., n)`` of contexts ``(..., p)``, one ``gemv`` a row."""
    if isinstance(model, FixedUtility):
        return np.tile(model.vector, np.shape(z)[:-1] + (1,))
    z = np.asarray(z, dtype=float)
    if isinstance(model, LinearUtility):
        return np.matmul(model.weights, z[..., None])[..., 0]
    if isinstance(model, RbfUtility):
        rows = z.reshape(-1, z.shape[-1])
        k = _rbf_columns(rows, model.centers, model.bandwidth)
        u = np.matmul(k[:, None, :], model.coeffs)[:, 0, :]
        return u.reshape(z.shape[:-1] + u.shape[-1:])
    raise TypeError(f"unknown utility model: {type(model).__name__}")


@dataclass(frozen=True)
class FeedbackModel:
    """How the revealed action relates to the hidden utility's argmax."""

    kind: str  # "optimal" | "one_swap" | "score_perturb"
    alpha: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        if self.kind not in ("optimal", "one_swap", "score_perturb"):
            raise ValueError(f"unknown feedback kind: {self.kind!r}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.xi < math.inf:
            raise ValueError("xi must be finite and nonnegative")

    @classmethod
    def optimal(cls) -> "FeedbackModel":
        return cls("optimal")

    @classmethod
    def one_swap(cls, alpha: float) -> "FeedbackModel":
        return cls("one_swap", alpha=float(alpha))

    @classmethod
    def score_perturb(cls, xi: float) -> "FeedbackModel":
        return cls("score_perturb", xi=float(xi))


def suboptimality(u: np.ndarray, x_base: np.ndarray, spec: ActionSetSpec) -> np.ndarray:
    """Utility gap of a feasible action to the best action under ``u``, per row."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x_base, dtype=float)
    sel = np.abs(x) > 0.5 * spec.scale
    feasible = (
        x.shape[-1:] == (spec.n,)
        and np.all(sel.sum(axis=-1) == spec.m)
        and np.allclose(x[sel], spec.scale, rtol=1e-9, atol=0.0)
        and np.all(x[~sel] == 0.0)
    )
    if not feasible:
        raise ValueError("action is not a feasible m-item selection")
    best = top_m_oracle(u, spec)
    return _rowdot(u, best) - _rowdot(u, x)


def reveal_action(
    model: FeedbackModel,
    u: np.ndarray,
    spec: ActionSetSpec,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the revealed action and its utility gap for each row of ``u``.

    One-swap: with probability alpha the m-th ranked item of the optimal
    selection is replaced by the (m+1)-th ranked item, costing exactly
    the scaled score difference of the two.  Score-perturb: the argmax is
    taken under the utility plus Gaussian noise of relative size xi.
    Both channels consume their random draws every round, so the stream
    position never depends on the noise parameters.
    """
    u = np.asarray(u, dtype=float)
    rounds = u.shape[:-1]
    if model.kind == "optimal":
        return top_m_oracle(u, spec), np.zeros(rounds)
    if model.kind == "one_swap":
        coin = rng.random(rounds)
        x = top_m_oracle(u, spec)
        if spec.m == spec.n:
            return x, np.zeros(rounds)
        # The m-th and (m+1)-th ranked items: the one swapped out, the one in.
        pair = np.argsort(-u, kind="stable")[..., spec.m - 1 : spec.m + 1]
        swap = coin < model.alpha
        out_in = np.take_along_axis(u, pair, axis=-1)
        swapped = np.where(swap[..., None], [0.0, spec.scale], [spec.scale, 0.0])
        np.put_along_axis(x, pair, swapped, axis=-1)
        return x, np.where(swap, spec.scale * (out_in[..., 0] - out_in[..., 1]), 0.0)
    noise = rng.standard_normal(u.shape)
    size = model.xi * np.sqrt(_rowdot(u, u))
    x = top_m_oracle(u + size[..., None] * noise, spec)
    return x, suboptimality(u, x, spec)


class Environment:
    """Frozen round sequence for one (specification, seed) pair.

    The hidden model, contexts, revealed actions, and suboptimality gaps
    are drawn up front, one call each over the horizon, from separate
    (seed, role) streams, so repeated construction with the same
    arguments replays identical rounds and different learners can be run
    against the same world.
    """

    def __init__(
        self,
        actions: ActionSetSpec,
        utility: UtilitySpec,
        feedback: FeedbackModel,
        horizon: int,
        seed: int,
    ):
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        self.actions = actions
        self.model = build_utility_model(rng_stream(seed, ROLE_MODEL), utility, actions.n)

        p = max(utility.context_dim, 1)
        self.contexts = sample_context(rng_stream(seed, ROLE_CONTEXTS), (int(horizon), p))
        self.utilities = utility_eval(self.model, self.contexts)
        rng_fb = rng_stream(seed, ROLE_FEEDBACK)
        self.revealed, self.subopt = reveal_action(feedback, self.utilities, actions, rng_fb)
