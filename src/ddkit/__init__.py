"""ddkit: drawdown-time and running-maximum laws for 1D diffusions.

The package computes the joint law of the first time a regular
one-dimensional diffusion falls a fixed distance delta below its
running maximum, and of the maximum at that time, from the scale
structure of the model alone.  A Monte Carlo engine with exact
Gaussian stepping and Brownian-bridge corrections cross-checks every
analytic output.
"""

from .errors import (
    DdkitError,
    DegenerateBasisError,
    DomainError,
    NumericError,
    UnsupportedModelError,
    ValidationError,
)
from .laws import (
    DrawdownQuery,
    TailCurve,
    TransformResult,
    b_factor,
    c_hat,
    conditional_curve,
    conditional_laplace,
    exit_probability,
    exit_transform,
    hitting_laplace,
    joint_transform,
    max_density,
    max_tail,
    nu,
    run_up_transform,
    tail_curve,
    tau_cdf,
)
from .mc import (
    ExcursionRecord,
    McConfig,
    PathCollection,
    estimate_tail,
    estimate_transform,
    excursion_counts,
    extract_excursions,
    paired_simulate,
    sample_trajectory,
    simulate,
    tau_cdf_estimate,
)
from .models import (
    CATALOG_KINDS,
    DiffusionModel,
    SpeedDensity,
    brownian,
    custom_model,
    drifted_brownian,
    geometric_brownian,
    model_from_dict,
    model_from_json,
    ornstein_uhlenbeck,
    scale,
    scale_density,
    scale_diff,
    validate_query,
)
from .verify import (
    CheckRow,
    ExcursionReport,
    VerificationReport,
    dt_pair_simulate,
    excursion_report,
    verification_report,
)

__version__ = "0.1.0"

__all__ = [
    "DdkitError", "DegenerateBasisError", "DomainError", "NumericError",
    "UnsupportedModelError", "ValidationError",
    "CATALOG_KINDS", "DiffusionModel", "SpeedDensity",
    "brownian", "custom_model", "drifted_brownian", "geometric_brownian",
    "model_from_dict", "model_from_json", "ornstein_uhlenbeck",
    "scale", "scale_density", "scale_diff", "validate_query",
    "DrawdownQuery", "TailCurve", "TransformResult",
    "b_factor", "c_hat", "conditional_curve", "conditional_laplace",
    "exit_probability", "exit_transform", "hitting_laplace",
    "joint_transform", "max_density", "max_tail", "nu",
    "run_up_transform", "tail_curve", "tau_cdf",
    "ExcursionRecord", "McConfig", "PathCollection",
    "estimate_tail", "estimate_transform", "excursion_counts",
    "extract_excursions", "paired_simulate", "sample_trajectory",
    "simulate", "tau_cdf_estimate",
    "CheckRow", "ExcursionReport", "VerificationReport",
    "dt_pair_simulate", "excursion_report", "verification_report",
    "__version__",
]
