"""Finite-time blow-up bounds and numerics for Caputo power-law systems.

The package has three layers: special-function kernels (ln_gamma,
mittag_leffler), the certified blow-up upper bound (theorem_bound and the
scalar machinery beneath it), and the predictor-corrector solver with
grid-doubling blow-up detection (solve, detect). scenarios wires the three
built-in benchmark systems through all layers; cli exposes them as a
command-line tool.
"""

from __future__ import annotations

from .bounds import (
    BoundCertificate,
    Branch,
    PowerLawParams,
    ScalarBoundProblem,
    ScalarBoundResult,
    b_domain_lower,
    big_B,
    conjugate_index,
    tau_bound,
    theorem_bound,
)
from .config import ScenarioConfig, load_config, parse_config
from .detect import (
    DetectionReport,
    RefinementPolicy,
    crossing_time,
    detect,
)
from .errors import (
    BracketingError,
    ConfigError,
    DomainError,
    FracburstError,
    NonConvergenceError,
    NotApplicableError,
    OverflowRangeError,
    PrecisionLossError,
)
from .scenarios import (
    EXAMPLE_ALPHAS,
    Scenario,
    detection_scenario,
    example_params,
    system_spec,
)
from .solver import (
    Completed,
    NonFinite,
    Overflowed,
    PowerLawRhs,
    SolverConfig,
    Status,
    SystemSpec,
    Trajectory,
    corrector_weight_a,
    l1_caputo,
    predictor_weight_b,
    solve,
)
from .special import gamma, ln_gamma, mittag_leffler

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BoundCertificate",
    "BracketingError",
    "Branch",
    "Completed",
    "ConfigError",
    "DetectionReport",
    "DomainError",
    "EXAMPLE_ALPHAS",
    "FracburstError",
    "NonConvergenceError",
    "NonFinite",
    "NotApplicableError",
    "OverflowRangeError",
    "Overflowed",
    "PowerLawParams",
    "PowerLawRhs",
    "PrecisionLossError",
    "RefinementPolicy",
    "ScalarBoundProblem",
    "ScalarBoundResult",
    "Scenario",
    "ScenarioConfig",
    "SolverConfig",
    "Status",
    "SystemSpec",
    "Trajectory",
    "b_domain_lower",
    "big_B",
    "conjugate_index",
    "corrector_weight_a",
    "crossing_time",
    "detect",
    "detection_scenario",
    "example_params",
    "gamma",
    "l1_caputo",
    "ln_gamma",
    "mittag_leffler",
    "parse_config",
    "predictor_weight_b",
    "load_config",
    "solve",
    "system_spec",
    "tau_bound",
    "theorem_bound",
]
