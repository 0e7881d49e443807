"""Kleinian functions of weight 2 on genus-2 hyperelliptic curves.

Build a curve with validate_polynomial and an evaluation context with
make_context (which computes certified period data through
compute_period_data); then S_eval, S_jk_eval, wp_eval, sigma_eval,
abel_forward, jacobi_invert and evaluate_bundle evaluate the function
family.  run_suite checks the defining identities on any admissible
curve.  The names below are the public surface, one entry point per
capability; the layers' helpers stay importable from their modules
(kleinian2.curve, kleinian2.theta, kleinian2.periods, ...).
"""

from .curve import (AdmissiblePolynomial, CurvePoint, Divisor,
                    validate_polynomial, xi_eval)
from .errors import (ConvergenceError, DegenerateGeometryError, DegreeError,
                     DiagonalError, InfinitePointError,
                     KleinianError, NonFiniteValueError, NormalizationError,
                     NotWeierstrassFormError, OnThetaDivisorError,
                     QuadratureError,
                     RepeatedRootError, RiemannMatrixError,
                     RootSelectionAmbiguity, SheetTrackingError,
                     SignResolutionError, SpecialDivisorError,
                     TruncationRadiusError)
from .kleinian import (EvalBundle, KleinianContext, S_eval, S_jk_eval,
                       abel_forward, divisor_clearance, evaluate_bundle,
                       jacobi_invert, make_context, quartic_residual,
                       sigma_eval, sigma_jets, wp_eval)
from .periods import PeriodData, compute_period_data, nearest_lattice_residual
from .verify import (CHECK_NAMES, VerificationReport, measure_taylor_jets,
                     run_suite)

__version__ = "0.1.0"

# kept equal to the "API" section of README.md by tests/test_surface.py
__all__ = [
    "AdmissiblePolynomial", "CurvePoint", "Divisor", "validate_polynomial",
    "xi_eval",
    "KleinianError", "DegreeError", "RepeatedRootError", "ConvergenceError",
    "SpecialDivisorError", "InfinitePointError", "DiagonalError",
    "DegenerateGeometryError", "QuadratureError", "SheetTrackingError",
    "RiemannMatrixError", "TruncationRadiusError",
    "NormalizationError", "OnThetaDivisorError", "NonFiniteValueError",
    "RootSelectionAmbiguity",
    "NotWeierstrassFormError", "SignResolutionError",
    "EvalBundle", "KleinianContext", "S_eval", "S_jk_eval",
    "abel_forward", "divisor_clearance", "evaluate_bundle", "jacobi_invert",
    "make_context", "quartic_residual", "sigma_eval", "sigma_jets",
    "wp_eval",
    "PeriodData", "compute_period_data", "nearest_lattice_residual",
    "CHECK_NAMES", "VerificationReport", "measure_taylor_jets", "run_suite",
    "__version__",
]
