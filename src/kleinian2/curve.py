"""Admissible polynomials, curve points, divisors, and the rational data
attached to y^2 = f(x): the symmetric polynomial F and the functions xi_jk.

Coefficients are stored ascending, f = f0 + f1 x + ... + f6 x^6.  Degree 5
means f6 = 0, f5 != 0; degree 6 means f6 != 0.  All arithmetic is complex.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConvergenceError, DegreeError, InfinitePointError,
                     RepeatedRootError, SpecialDivisorError)

SEP_FACTOR = 1e-8       # root separation threshold, relative to root scale
DIAG_FACTOR = 1e-4      # |x1 - x2| below this (times scale): on the diagonal
SPECIAL_TOL = 1e-9      # is_special: x and y mismatch, relative


def poly_eval(coeffs, x):
    """Horner evaluation of an ascending-coefficient polynomial."""
    x = np.asarray(x, dtype=complex)
    out = np.full_like(x, complex(coeffs[-1]))
    for c in coeffs[-2::-1]:
        out = out * x + c
    return out if out.ndim else complex(out)


def poly_deriv_coeffs(coeffs, order=1):
    c = list(coeffs)
    for _ in range(order):
        c = [k * c[k] for k in range(1, len(c))]
        if not c:
            c = [0.0]
    return tuple(c)


@dataclass(frozen=True)
class AdmissiblePolynomial:
    """Validated curve polynomial.  Build with validate_polynomial().

    roots holds the Newton-polished roots, in a deterministic order
    (ascending real part, ties broken by imaginary part), solved for once
    when the polynomial is made; scale = max(1, max |root|) is set with
    them."""
    coeffs: tuple
    degree: int
    weierstrass_form: bool
    roots: tuple = field(init=False, compare=False, repr=False)
    scale: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        roots = tuple(_polished_roots(self.coeffs, self.degree))
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "scale", max(1.0, max(map(abs, roots))))

    def __call__(self, x):
        return poly_eval(self.coeffs, x)

    def deriv(self, x, order=1):
        return poly_eval(poly_deriv_coeffs(self.coeffs, order), x)

    @property
    def leading(self):
        return self.coeffs[self.degree]


@dataclass(frozen=True, slots=True)
class CurvePoint:
    """Affine point (x, y) with y^2 = f(x), or a point at infinity.

    Degree-6 curves carry two points at infinity, labelled 1 and 2 by the
    sign of y/x^3 -> +-sqrt(f6) (principal branch defines label 1).  On a
    degree-5 curve there is a single point at infinity; both labels denote
    it and are normalised to 1 where a polynomial is in scope.
    """
    x: complex = None
    y: complex = None
    infinity: int = None

    @classmethod
    def affine(cls, x, y):
        return cls(x=complex(x), y=complex(y))

    @classmethod
    def at_infinity(cls, index=1):
        if index not in (1, 2):
            raise ValueError("infinity index must be 1 or 2")
        return cls(infinity=index)

    @property
    def is_affine(self):
        return self.infinity is None


def involution(P):
    """The hyperelliptic involution (x, y) -> (x, -y); swaps the two points
    at infinity (a no-op in effect on degree-5 curves, which have one)."""
    if P.is_affine:
        return CurvePoint.affine(P.x, -P.y)
    return CurvePoint.at_infinity(3 - P.infinity)


@dataclass(frozen=True, slots=True)
class Divisor:
    """Unordered pair of curve points."""
    p: CurvePoint
    q: CurvePoint


def validate_polynomial(coeffs):
    """Check degree and root simplicity; returns the validated polynomial.

    Raises ValueError for a NaN or infinite coefficient, DegreeError when
    f5 = f6 = 0 and RepeatedRootError when the minimal pairwise root
    distance falls below SEP_FACTOR * f.scale.
    """
    c = [complex(v) for v in coeffs]
    if not np.isfinite(c).all():
        raise ValueError("curve coefficients must be finite")
    if len(c) > 7:
        raise DegreeError(f"expected at most 7 coefficients, got {len(c)}")
    c = c + [0j] * (7 - len(c))
    if c[6] != 0:
        degree = 6
    elif c[5] != 0:
        degree = 5
    else:
        raise DegreeError("f5 = f6 = 0: polynomial degree below 5")
    wform = degree == 5 and c[5] == 4
    f = AdmissiblePolynomial(tuple(c), degree, wform)
    roots = f.roots
    min_sep = SEP_FACTOR * f.scale
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) <= min_sep:
                raise RepeatedRootError(
                    f"roots {roots[i]:.6g} and {roots[j]:.6g} closer "
                    f"than {min_sep:.3g}")
    return f


def _polished_roots(coeffs, degree):
    """The roots of the polynomial of ascending coefficients coeffs and
    the given degree, in the order f.roots keeps.  ConvergenceError if a
    polished residual misses its bound, or the bound is not finite."""
    roots = np.roots(coeffs[degree::-1])
    d1 = poly_deriv_coeffs(coeffs)
    # roots past the double range overflow here; the bound test refuses them
    with np.errstate(all="ignore"):
        for _ in range(3):
            fv = poly_eval(coeffs, roots)
            dv = poly_eval(d1, roots)
            step = np.where(np.abs(dv) > 0, fv / np.where(dv == 0, 1, dv), 0)
            roots = roots - step
        scale = max(1.0, float(np.max(np.abs(roots))))
        resid = np.abs(poly_eval(coeffs, roots))
        bound = (1e-10 * max(abs(v) for v in coeffs)
                 * np.float64(scale) ** degree)
    if not np.isfinite(bound):
        raise ConvergenceError(
            f"root residual bound {bound:.2e} is not finite: the roots "
            "leave the double range")
    if not np.all(resid <= bound):
        raise ConvergenceError(
            f"root residual {np.max(resid):.2e} above {bound:.2e}")
    q = 1e-9 * scale
    order = np.lexsort((roots.imag, np.round(roots.real / q)))
    return [complex(r) for r in roots[order]]


def is_special(f, D):
    """(P) + (JP): both points share x with opposite y, or the two infinite
    points pair up (deg 6), or the doubled infinite point (deg 5)."""
    p, q = D.p, D.q
    if p.is_affine != q.is_affine:
        return False
    if not p.is_affine:
        if f.degree == 5:
            return True
        return p.infinity != q.infinity
    scale = max(1.0, abs(p.x), abs(q.x))
    ys = max(1.0, abs(p.y), abs(q.y))
    return (abs(p.x - q.x) <= SPECIAL_TOL * scale
            and abs(p.y + q.y) <= SPECIAL_TOL * ys)


def F_eval(f, a, b):
    """The symmetric bilinear-in-powers companion of f:
    F(a,b) = 2 f0 + f1 (a+b) + 2 f2 ab + f3 ab(a+b) + 2 f4 (ab)^2
             + f5 (ab)^2 (a+b) + 2 f6 (ab)^3,  with F(x,x) = 2 f(x)."""
    c = f.coeffs
    s, m = a + b, a * b
    return (2 * c[0] + c[1] * s + 2 * c[2] * m + c[3] * m * s
            + 2 * c[4] * m * m + c[5] * m * m * s + 2 * c[6] * m ** 3)


def _xi11_series(f, x1, y1, x2, y2):
    """Removable-singularity branch of xi_11 near x1 = x2.

    Expands numerator and denominator around the midpoint m in powers of
    t = x1 - x2; the square-root branch u = +-sqrt(f(m)) is matched against
    (y1 + y2)/2.  Accurate to O(t^4) relative.
    """
    c = f.coeffs
    m = 0.5 * (x1 + x2)
    t = x1 - x2
    fm = poly_eval(c, m)
    u = np.sqrt(complex(fm))
    ymid = 0.5 * (y1 + y2)
    if abs(u - ymid) > abs(u + ymid):
        u = -u
    if u == 0:
        raise SpecialDivisorError("midpoint lies on a branch point")
    d1 = f.deriv(m, 1)
    d2 = f.deriv(m, 2)
    d3 = f.deriv(m, 3)
    d4 = f.deriv(m, 4)
    u1 = d1 / (2 * u)
    u2 = (d2 - 2 * u1 * u1) / (2 * u)
    u3 = (d3 - 6 * u1 * u2) / (2 * u)
    u4 = (d4 - 6 * u2 * u2 - 8 * u1 * u3) / (2 * u)
    m2 = m * m
    p1 = 2 * c[2] + 2 * c[3] * m + 4 * c[4] * m2 + 4 * c[5] * m2 * m \
        + 6 * c[6] * m2 * m2
    p2 = 4 * c[4] + 4 * c[5] * m + 12 * c[6] * m2
    lead = (-p1 - 2 * (u * u2 - u1 * u1)) / 16.0
    corr = (0.5 * p2 - u * u4 / 6.0 + 2.0 * u1 * u3 / 3.0 - u2 * u2 / 2.0) / 64.0
    return lead + t * t * corr


def xi_eval(f, D):
    """(xi_11, xi_12, xi_22) of an affine, non-special divisor.

    xi_22 = x1 + x2, xi_12 = -x1 x2,
    xi_11 = (F(x1,x2) - 2 y1 y2) / (4 (x1 - x2)^2), evaluated by its Taylor
    series around the diagonal when |x1 - x2| is small (the singularity is
    removable when y1, y2 lie on the same sheet).
    """
    p, q = D.p, D.q
    if not (p.is_affine and q.is_affine):
        raise InfinitePointError("xi requires two affine points")
    x1, y1, x2, y2 = p.x, p.y, q.x, q.y
    xi22 = x1 + x2
    xi12 = -x1 * x2
    scale = max(1.0, abs(x1), abs(x2))
    if abs(x1 - x2) < DIAG_FACTOR * scale:
        if abs(y1 + y2) <= abs(y1 - y2):
            raise SpecialDivisorError(
                "divisor is (P) + (JP) within tolerance: xi_11 pole")
        xi11 = _xi11_series(f, x1, y1, x2, y2)
    else:
        xi11 = (F_eval(f, x1, x2) - 2 * y1 * y2) / (4 * (x1 - x2) ** 2)
    return xi11, xi12, xi22
