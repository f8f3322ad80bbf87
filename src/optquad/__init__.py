"""Optimal-weight quadrature on [0, 1] for a Sobolev-type class.

Rules minimise the worst-case integration error over the unit ball of the
space normed by ||f^(m) + f^(m-1)||_L2 (m = 1, 2, 3) at fixed uniform nodes,
and are exact for exp(-x) and for polynomials of degree up to m - 2.
Closed forms exist for m = 1 and m = 2, written once and run in float64 or,
as their own self-check, at 50 digits; a dense constrained solve covers all
supported orders and doubles as the independent oracle for the closed forms.
``coefficients_via_convolution`` is a deprecated alias of
``build_rule(m, n, "closed")``.
"""

from .analysis import (
    ConvergenceRow,
    ConvergenceTable,
    ErrorReport,
    ReportEntry,
    SobolevNormEstimate,
    cauchy_schwarz_check,
    classical_rule,
    convergence_study,
    error_norm_squared,
    error_report,
    kernel_double_integral,
    sobolev_norm,
    stationarity_margin,
)
from .coefficients import (
    build_rule,
    closed_form_m1,
    closed_form_m2,
    coefficients_via_convolution,
    lambda1,
)
from .core import (
    BUILTIN_INTEGRANDS,
    ConstructionError,
    GridSpec,
    Integrand,
    QuadratureError,
    QuadratureRule,
    RuleMethod,
    SolveError,
    apply_rule,
    builtin_integrand,
    constraint_residuals,
    constraint_rows,
    moment_f,
    psi,
)
from .operator import (
    CharacteristicPolynomial,
    IdentityReport,
    OperatorSpec,
    build_operator,
    characteristic_polynomial,
    identity_residuals,
    operator_value,
    stable_roots,
)
from .solver import WienerHopfSystem, assemble_system, solve

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_INTEGRANDS",
    "CharacteristicPolynomial",
    "ConstructionError",
    "ConvergenceRow",
    "ConvergenceTable",
    "ErrorReport",
    "GridSpec",
    "IdentityReport",
    "Integrand",
    "OperatorSpec",
    "QuadratureError",
    "QuadratureRule",
    "ReportEntry",
    "RuleMethod",
    "SobolevNormEstimate",
    "SolveError",
    "WienerHopfSystem",
    "apply_rule",
    "assemble_system",
    "build_operator",
    "build_rule",
    "builtin_integrand",
    "cauchy_schwarz_check",
    "characteristic_polynomial",
    "classical_rule",
    "closed_form_m1",
    "closed_form_m2",
    "coefficients_via_convolution",
    "constraint_residuals",
    "constraint_rows",
    "convergence_study",
    "error_norm_squared",
    "error_report",
    "identity_residuals",
    "kernel_double_integral",
    "lambda1",
    "moment_f",
    "operator_value",
    "psi",
    "sobolev_norm",
    "solve",
    "stable_roots",
    "stationarity_margin",
    "__version__",
]
