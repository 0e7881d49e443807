"""Exception hierarchy.

Every error carries a stable ``code`` (the class name) so the CLI can emit
machine-readable {code, message} objects.
"""


class KleinianError(Exception):
    """Base class for all library errors."""

    @property
    def code(self):
        return type(self).__name__


# curve
class DegreeError(KleinianError):
    """Leading coefficients f_5 = f_6 = 0: not a degree-5/6 polynomial."""


class RepeatedRootError(KleinianError):
    """Root separation below the admissibility threshold."""


class ConvergenceError(KleinianError):
    """Iterative refinement failed to reach the requested residual."""


class SpecialDivisorError(KleinianError):
    """Divisor of the form (P) + (JP); xi_11 has a genuine pole there."""


class InfinitePointError(KleinianError):
    """Operation requires affine points."""


class DiagonalError(KleinianError):
    """Operation requires x_1 != x_2."""


# integration / periods
class QuadratureError(KleinianError):
    """A Gauss rule cannot sum an integral to its tolerance within its node
    cap; its a priori bound refuses a branch point on or next to the
    segment before any sum."""


class SheetTrackingError(KleinianError):
    """A y does not square to f(x), or a segment's factored cofactor
    fails its endpoint check, so the sheet is not the one given."""


class RiemannMatrixError(KleinianError):
    """Period data fails its Riemann-matrix, Legendre or conditioning
    certificates."""


# theta
class TruncationRadiusError(KleinianError):
    """Required summation radius exceeds the hard cap."""


# kleinian
class NormalizationError(KleinianError):
    """Taylor-jet cross-check failed while fixing the normalization."""


class OnThetaDivisorError(KleinianError):
    """Evaluation point is on (or too close to) a zero divisor of S."""


class NonFiniteValueError(KleinianError):
    """S, S_jk or sigma lies outside the range of normal doubles at the
    evaluation point, on overflow or underflow."""


class RootSelectionAmbiguity(KleinianError):
    """Cubic root disambiguation found no unique admissible branch."""


class NotWeierstrassFormError(KleinianError):
    """sigma family requires f_6 = 0 and f_5 = 4."""


class SignResolutionError(KleinianError):
    """An inverted divisor's y values are off the line y = wp222 x +
    wp122 that the theta jets at z give."""
