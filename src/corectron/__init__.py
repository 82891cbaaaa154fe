"""Projection-free second-order online learning for contextual
recommendation, with projected baselines, contextual lifts, a simulated
benchmark environment, and a certificate-backed experiment harness."""

from .diagnostics import Certificate, TraceSummary, standard_certificates
from .environment import (
    ActionSetSpec,
    Environment,
    FeedbackModel,
    FixedUtility,
    LinearUtility,
    RbfUtility,
    UtilitySpec,
    build_utility_model,
    reveal_action,
    sample_context,
    suboptimality,
    top_m_oracle,
    utility_eval,
)
from .harness import (
    ExperimentConfig,
    RunResult,
    aggregate_results,
    best_coefficients,
    default_config,
    emit,
    read_results_csv,
    resolve_hyperparameters,
    run_episode,
    sweep,
)
from .learners import KONS, OGD, ONS, CoRectron, CoRectronK, RoundDiagnostics
from .lifting import KernelSpec, LiftSpec, adjoint_apply, lift
from .numkit import (
    CholFactor,
    DegenerateGramError,
    GramMatrix,
    ProjectionResult,
    SpdInverse,
    gram_eigenvalues,
    project_ball_mahalanobis,
    project_ellipsoid_coeff,
)

__version__ = "0.1.0"
