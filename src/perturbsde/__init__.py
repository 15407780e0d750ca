"""Numerical laboratory for diffusions with running-supremum feedback.

The package simulates the dynamics

    X_t = x0 + int_0^t b(X_s) ds + int_0^t sigma(X_s) dB_s
          + alpha * sup_{s<=t} X_s,        alpha < 1,

propagates pathwise noise derivatives, evaluates closed-form lower bounds
on the derivative norm, changes variables to unit diffusion, estimates the
terminal density, and cross-checks all of it against exact special cases.

Layers, bottom up: ``model`` (coefficients, specs, validation),
``integrate`` (path simulation), ``malliavin`` (derivative propagation),
``bounds`` (regime classification), ``lamperti`` (unit-diffusion
transform), ``density`` (kernel estimation and the closed-form oracle),
``verify`` (invariant suites), ``io``/``cli`` (configs and artifacts).
"""

from .bounds import (
    RegimeReport,
    final_lower_bound,
    max_horizon,
    regime_report,
    sup_lower_bound,
    theta,
)
from .density import (
    DensityEstimate,
    bandwidth_rule,
    kde,
    l1_distance,
    oracle_driftless,
    smoothness_diagnostic,
)
from .errors import (
    AlphaOutOfRange,
    ConfigError,
    DegenerateDiffusion,
    DomainTooSmall,
    EmptySample,
    GridMismatch,
    IntegrationFailure,
    NonFinite,
    NumericalFailure,
    OutOfDomain,
    PerturbSDEError,
    UnknownPreset,
    UnsupportedOrder,
    VerificationFailure,
)
from .integrate import (
    PathBatch,
    PicardResult,
    explicit_additive_path,
    generate_increments,
    picard_solve,
    simulate_batch,
    simulate_increments,
    simulate_terminal,
)
from .io import TOOL_VERSION as __version__
from .lamperti import (
    TransformTable,
    build_transform,
    forward,
    inverse,
    lift_bound_check,
    transformed_drift_bound,
    transformed_field,
    transformed_spec,
)
from .malliavin import (
    DerivativeFieldBatch,
    cameron_martin_fd,
    inner_product,
    propagate_derivative_batch,
)
from .model import (
    Coefficient,
    EffectiveBounds,
    GridSpec,
    ProblemSpec,
)
from .verify import ALL_SUITES, SuiteResult, run_suites

__all__ = [
    "__version__",
    # model
    "Coefficient", "EffectiveBounds", "ProblemSpec", "GridSpec",
    # integrate
    "PathBatch", "PicardResult", "generate_increments",
    "simulate_increments", "simulate_batch", "simulate_terminal",
    "explicit_additive_path", "picard_solve",
    # malliavin
    "DerivativeFieldBatch", "propagate_derivative_batch", "inner_product",
    "cameron_martin_fd",
    # bounds
    "theta", "sup_lower_bound", "final_lower_bound",
    "max_horizon", "RegimeReport", "regime_report",
    # lamperti
    "TransformTable", "build_transform", "forward", "inverse",
    "transformed_spec", "transformed_drift_bound", "transformed_field",
    "lift_bound_check",
    # density
    "oracle_driftless", "bandwidth_rule", "kde", "DensityEstimate",
    "smoothness_diagnostic", "l1_distance",
    # verify
    "SuiteResult", "ALL_SUITES", "run_suites",
    # errors
    "PerturbSDEError", "ConfigError", "AlphaOutOfRange", "UnknownPreset",
    "UnsupportedOrder", "NumericalFailure", "DegenerateDiffusion",
    "GridMismatch", "NonFinite", "OutOfDomain", "DomainTooSmall",
    "IntegrationFailure", "EmptySample", "VerificationFailure",
]
