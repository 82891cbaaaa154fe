"""Numerical certificates over recorded run traces.

Each certificate compares two scalars derived from a trace of the
projection-free second-order learner and holds when the left-hand side
does not exceed the right-hand side beyond a stated tolerance.  Identity
checks are encoded as an absolute deviation compared against zero.  The
checks are pure functions of the trace, so one recorded run feeds the
whole battery.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .environment import BOUND_PAYOFF, MODELS
from .numkit import gram_eigenvalues

__all__ = [
    "Certificate",
    "TraceSummary",
    "check_sign_condition",
    "check_increment_identity",
    "check_post_leverage_identity",
    "check_cei",
    "check_gram_spectrum",
    "check_main_bound",
    "check_self_bounding",
    "check_robust_bound",
    "check_potential_crosscheck",
    "standard_certificates",
]

# Default relative tolerance of inequality certificates, scaled by 1+|rhs|.
DEFAULT_REL_TOL = 1e-6


@dataclass(frozen=True)
class Certificate:
    """One verified inequality: holds iff ``rhs - lhs >= -tolerance``."""

    name: str
    lhs: float
    rhs: float
    tolerance: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.slack >= -self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tolerance": self.tolerance,
            "slack": self.slack,
            "holds": self.holds,
        }


def _cert(name: str, lhs: float, rhs: float, rel: float = DEFAULT_REL_TOL) -> Certificate:
    return Certificate(name, float(lhs), float(rhs), rel * (1.0 + abs(float(rhs))))


# The TraceSummary fields that hold one entry per round.
_PER_ROUND = ("leverage", "alignment", "alignment_scale", "regret", "subopt",
              "potential_direct", "post_leverage")


@dataclass
class TraceSummary:
    """Per-round diagnostics and problem constants from one episode.

    ``regret`` holds the per-round utility gaps of the revealed action
    over the recommendation; ``subopt`` the revealed action's own gap to
    the argmax.  The leverage/alignment columns come from the learner, and
    the running potential is derived from them
    (:meth:`potential_increments`); ``potential_direct`` and
    ``post_leverage`` are optional recomputations captured outside the
    learner's hot path.  ``gram`` (when its side fits under the cap) has
    the nonzero spectrum of the Gram of the rounds with a mistake: that
    r x r Gram for a kernel lift, the smaller of ``Phi Phi^T`` and
    ``Phi^T Phi`` for an explicit one.  ``diameter`` is the action set's.
    ``algorithm``, ``model_kind``, ``base_dim`` and ``context_dim`` are
    file metadata that no certificate reads; every other field feeds one.

    The other problem constants are the same for every trace, so they are
    not stored: payoff differences are bounded by
    :data:`corectron.environment.BOUND_PAYOFF`, the hidden utility (the
    comparator) has unit norm, and every context factor ``kappa(z, z)`` is
    at most 1 (contexts lie in the unit ball; the RBF kernel has
    ``k(z, z) = 1``), so the Gram envelope of every model is
    ``horizon * diameter**2``.
    """

    algorithm: str
    model_kind: str  # one of environment.MODELS
    regularizer: float
    horizon: int
    base_dim: int
    context_dim: int
    diameter: float
    leverage: np.ndarray
    alignment: np.ndarray
    alignment_scale: np.ndarray
    regret: np.ndarray
    subopt: np.ndarray
    final_potential_direct: float
    potential_direct: np.ndarray | None = None
    post_leverage: np.ndarray | None = None
    gram: np.ndarray | None = None
    # False when the hidden utility is not representable in the learner's
    # lifted space (reference runs under model mismatch); the
    # comparator-dependent bounds are then not applicable.
    comparator_in_span: bool = True

    def __post_init__(self):
        # Every number a certificate reads must be finite: a NaN would fail
        # the learner's certificates, an infinity could pass them all.
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not self.regularizer > 0:
            raise ValueError("regularizer must be finite and positive")
        if self.model_kind not in MODELS:
            raise ValueError(f"unknown model kind: {self.model_kind!r}")
        for name in _PER_ROUND:
            value = getattr(self, name)
            if value is None:
                continue
            if np.shape(value) != (self.horizon,):
                raise ValueError(f"{name} has shape {np.shape(value)}, not ({self.horizon!r},)")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if not np.all(np.asarray(self.leverage) > -1.0):
            raise ValueError("leverages must be above -1")
        if self.gram is not None:
            shape = np.shape(self.gram)
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"gram has shape {shape}, not square")
            if not np.all(np.isfinite(self.gram)):
                raise ValueError("gram must be finite")

    # -- derived quantities -------------------------------------------------

    def potential_increments(self) -> np.ndarray:
        """Per-round increments of the potential, the quadratic form of the
        cumulative residual under the inverse preconditioner:
        ``(lev + 2 align - align^2) / (1 + lev)``."""
        lev, align = self.leverage, self.alignment
        return (lev + 2.0 * align - align * align) / (1.0 + lev)

    def post_update_leverages(self) -> np.ndarray:
        """Per-round leverages under the updated preconditioner, which the
        Sherman-Morrison step gives from the pre-update ones as
        ``lev / (1 + lev)``."""
        return self.leverage / (1.0 + self.leverage)

    def total_regret(self) -> float:
        return float(self.regret.sum())

    def total_subopt(self) -> float:
        return float(self.subopt.sum())

    def logdet_from_leverage(self) -> float:
        """Log-determinant of the ridged Gram system via the exact
        product identity over per-round leverages."""
        return float(np.sum(np.log1p(self.leverage)))

    def comparator_metric_norm(self) -> float:
        """Norm of the hidden utility under the final preconditioner.

        Expands to the ridge times the squared comparator norm, which is 1,
        plus the summed squared per-round regrets, because each residual's
        inner product with the hidden utility is minus that round's regret.
        """
        return math.sqrt(self.regularizer + float(np.sum(self.regret**2)))

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready fields; arrays as lists."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "TraceSummary":
        """Inverse of :meth:`to_dict`.  Absent optional keys take their
        field defaults; unknown keys (such as the retired ``extras``,
        ``projected``, ``residual_regret``, ``gram_capped``, ``potential``,
        ``bound_payoff``, ``context_bound``, ``kernel_bound`` and
        ``comparator_norm``) are ignored, so older traces still load.
        Raises ``ValueError`` naming any absent required key."""
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
        if missing:
            raise ValueError(f"trace lacks required keys: {', '.join(missing)}")
        kwargs = {}
        for f in fields(cls):
            if f.name in d:
                value = d[f.name]
                if isinstance(value, list):
                    value = np.asarray(value, dtype=float)
                    if f.name == "gram" and not value.size:
                        # to_dict writes a 0 x 0 Gram (no round with a mistake) as []
                        value = value.reshape(0, 0)
                kwargs[f.name] = value
        return cls(**kwargs)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "TraceSummary":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# individual checks


def check_sign_condition(trace: TraceSummary) -> Certificate:
    """Every round's alignment is nonpositive up to its natural scale.

    This is the optimality of the recommendation for the predicted
    utility and must hold under any feedback channel.
    """
    if trace.horizon == 0:
        return Certificate("sign_condition", 0.0, 0.0, 0.0)
    worst = float(np.max(trace.alignment - 1e-9 * trace.alignment_scale))
    return Certificate("sign_condition", worst, 0.0, 0.0)


def check_increment_identity(trace: TraceSummary) -> Certificate:
    """Directly recomputed potential steps match the closed-form increment."""
    if trace.horizon == 0:
        return Certificate("potential_increment", 0.0, 0.0, 1e-8)
    if trace.potential_direct is None:
        raise ValueError("trace has no per-round direct potential")
    expected = trace.potential_increments()
    steps = np.diff(np.concatenate([[0.0], trace.potential_direct]))
    err = float(np.max(np.abs(steps - expected) / (1.0 + np.abs(expected))))
    return Certificate("potential_increment", err, 0.0, 1e-8)


def check_post_leverage_identity(trace: TraceSummary) -> Certificate:
    """Post-update leverage equals ``lev / (1 + lev)`` of the pre-update one."""
    if trace.horizon == 0:
        return Certificate("leverage_update_identity", 0.0, 0.0, 1e-8)
    if trace.post_leverage is None:
        raise ValueError("trace has no post-update leverage record")
    expected = trace.post_update_leverages()
    err = float(np.max(np.abs(trace.post_leverage - expected) / (1.0 + np.abs(expected))))
    return Certificate("leverage_update_identity", err, 0.0, 1e-8)


def check_cei(trace: TraceSummary) -> Certificate:
    """Final potential is at most the summed post-update leverages."""
    rhs = float(np.sum(trace.post_update_leverages()))
    lhs = trace.final_potential_direct if trace.horizon else 0.0
    return _cert("cumulative_potential_bound", lhs, rhs)


def check_main_bound(trace: TraceSummary) -> Certificate:
    """Total regret against the comparator-norm / log-determinant product.

    Valid under any feedback channel; the log-determinant enters through
    the exact leverage-product identity so the check runs without the
    stored Gram matrix.
    """
    rhs = trace.comparator_metric_norm() * math.sqrt(trace.logdet_from_leverage())
    return _cert("main_regret_bound", trace.total_regret(), rhs)


def check_self_bounding(trace: TraceSummary) -> Certificate:
    """Squared per-round regrets against regret plus suboptimality.

    Purely base-space quantities; holds whether or not the hidden
    utility is representable in the learner's lift.
    """
    B = BOUND_PAYOFF
    rhs = B * trace.total_regret() + 2.0 * B * trace.total_subopt()
    return _cert("squared_regret_self_bound", float(np.sum(trace.regret**2)), rhs)


def check_robust_bound(trace: TraceSummary) -> list[Certificate]:
    """Suboptimality-robust regret bound and its self-bounding lemma.

    The bound's three terms are the payoff bound times the log-det, the
    comparator norm (1) times the square root of ridge times log-det, and
    the square root of twice the payoff bound times cumulative
    suboptimality times log-det.
    """
    B = BOUND_PAYOFF
    H = trace.logdet_from_leverage()
    lam = trace.regularizer
    delta = trace.total_subopt()
    rhs = (
        B * H
        + math.sqrt(lam * H)
        + math.sqrt(2.0 * B * delta * H)
    )
    return [
        _cert("robust_regret_bound", trace.total_regret(), rhs),
        check_self_bounding(trace),
    ]


# The certificates of check_gram_spectrum, in the order it returns them.
_SPECTRAL_CHECKS = (
    "elliptical_potential",
    "logdet_product_identity",
    "logdet_effective_dim",
    "gram_operator_norm",
)


def check_gram_spectrum(trace: TraceSummary) -> list[Certificate]:
    """Certificates of the stored Gram matrix, from one eigendecomposition.

    With ``H = log det(I + K / ridge)``: the elliptical-potential
    inequality (summed post-update leverages at most ``H``); the exact
    identity tying the per-round leverage product to ``H``, in the log
    domain; ``H`` at most the effective dimension times one plus the log
    of one plus the Gram operator norm over the ridge; and the operator
    norm within the horizon-times-squared-diameter envelope.
    """
    if trace.horizon == 0:
        return [Certificate(name, 0.0, 0.0, DEFAULT_REL_TOL) for name in _SPECTRAL_CHECKS]
    if trace.gram is None:
        raise ValueError("trace has no stored Gram matrix")
    lam = trace.regularizer
    evals = gram_eigenvalues(trace.gram)
    h_eig = float(np.sum(np.log1p(evals / lam)))
    deff = float(np.sum(evals / (evals + lam)))
    opnorm = float(evals.max(initial=0.0))
    lhs = float(np.sum(trace.post_update_leverages()))
    ident_err = abs(trace.logdet_from_leverage() - h_eig)
    cap = trace.horizon * trace.diameter**2
    return [
        _cert("elliptical_potential", lhs, h_eig),
        Certificate("logdet_product_identity", ident_err, 0.0, 1e-6),
        _cert("logdet_effective_dim", h_eig, deff * (1.0 + math.log1p(opnorm / lam))),
        _cert("gram_operator_norm", opnorm, cap),
    ]


def check_potential_crosscheck(trace: TraceSummary) -> Certificate:
    """Potential accumulated from the per-round increments, in round order,
    matches the direct recomputation."""
    if trace.horizon == 0:
        return Certificate("potential_crosscheck", 0.0, 0.0, DEFAULT_REL_TOL)
    inc = float(np.cumsum(trace.potential_increments())[-1])
    direct = trace.final_potential_direct
    err = abs(inc - direct)
    return Certificate("potential_crosscheck", err, 0.0, 1e-6 * (1.0 + abs(direct)))


def standard_certificates(trace: TraceSummary) -> tuple[list[Certificate], list[str]]:
    """Full battery applicable to a projection-free learner's trace.

    Returns the computed certificates and the names of checks skipped
    because the trace lacks the needed record (no Gram matrix beyond the
    storage cap, no optional per-round recomputations).
    """
    certs = [check_sign_condition(trace)]
    skipped: list[str] = []
    if trace.potential_direct is not None or trace.horizon == 0:
        certs.append(check_increment_identity(trace))
    else:
        skipped.append("potential_increment")
    if trace.post_leverage is not None or trace.horizon == 0:
        certs.append(check_post_leverage_identity(trace))
    else:
        skipped.append("leverage_update_identity")
    certs.append(check_cei(trace))
    if trace.gram is not None or trace.horizon == 0:
        certs.extend(check_gram_spectrum(trace))
    else:
        skipped.extend(_SPECTRAL_CHECKS)
    if trace.comparator_in_span:
        certs.append(check_main_bound(trace))
        certs.extend(check_robust_bound(trace))
    else:
        certs.append(check_self_bounding(trace))
        skipped.extend(["main_regret_bound", "robust_regret_bound"])
    certs.append(check_potential_crosscheck(trace))
    return certs, skipped
