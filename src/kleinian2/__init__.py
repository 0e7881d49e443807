"""Kleinian functions of weight 2 on genus-2 hyperelliptic curves.

Build a curve with validate_polynomial, certified period data with
compute_period_data, and an evaluation context with make_context; then
S_eval, S_jk_eval, wp_eval, sigma_eval, abel_forward, jacobi_invert and
friends evaluate the function family.  run_suite checks the defining
identities on any admissible curve.
"""

from .curve import (AdmissiblePolynomial, CurvePoint, Divisor, F_eval,
                    branch_points, involution, is_special, on_curve,
                    validate_polynomial, xi_eval)
from .errors import (ConvergenceError, DegenerateGeometryError, DegreeError,
                     DeltaAmbiguityError, DiagonalError,
                     IllConditionedLatticeError, InfinitePointError,
                     KleinianError, NormalizationError,
                     NotWeierstrassFormError, OnSigmaDivisorError,
                     OnThetaDivisorError, QuadratureError,
                     RepeatedRootError, RiemannMatrixError,
                     RootSelectionAmbiguity, SheetTrackingError,
                     SignResolutionError, SpecialDivisorError,
                     TruncationRadiusError)
from .kleinian import (EvalBundle, KleinianContext, S_eval, S_jk_eval,
                       abel_forward, divisor_clearance, evaluate_bundle,
                       jacobi_invert, log_S_gradient, log_S_hessian,
                       make_context, quartic_matrix, quartic_residual,
                       rho_lambda_eval, sigma_eval, sigma_jets,
                       sigma_log_derivs, wp_eval)
from .periods import (PeriodData, compute_period_data, eta_of_lattice,
                      lattice_vector, nearest_lattice_residual,
                      riemann_constant)
from .theta import ThetaParams, theta_deriv, theta_eval, theta_jet
from .verify import (CHECK_NAMES, VerificationReport, measure_taylor_jets,
                     run_suite)

__version__ = "0.1.0"

__all__ = [
    "AdmissiblePolynomial", "CurvePoint", "Divisor", "F_eval",
    "branch_points", "involution", "is_special", "on_curve",
    "validate_polynomial", "xi_eval",
    "KleinianError", "DegreeError", "RepeatedRootError", "ConvergenceError",
    "SpecialDivisorError", "InfinitePointError", "DiagonalError",
    "DegenerateGeometryError", "QuadratureError", "SheetTrackingError",
    "RiemannMatrixError", "DeltaAmbiguityError",
    "IllConditionedLatticeError", "TruncationRadiusError",
    "NormalizationError", "OnThetaDivisorError", "RootSelectionAmbiguity",
    "OnSigmaDivisorError", "NotWeierstrassFormError", "SignResolutionError",
    "EvalBundle", "KleinianContext", "S_eval", "S_jk_eval",
    "abel_forward", "divisor_clearance", "evaluate_bundle", "jacobi_invert",
    "log_S_gradient", "log_S_hessian", "make_context", "quartic_matrix",
    "quartic_residual", "rho_lambda_eval", "sigma_eval", "sigma_jets",
    "sigma_log_derivs", "wp_eval",
    "PeriodData", "compute_period_data",
    "eta_of_lattice", "lattice_vector", "nearest_lattice_residual",
    "riemann_constant",
    "ThetaParams", "theta_deriv", "theta_eval", "theta_jet",
    "CHECK_NAMES", "VerificationReport", "measure_taylor_jets", "run_suite",
    "__version__",
]
