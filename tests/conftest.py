"""Shared fixtures: the two reference curves with certified period data,
samplers, and a 30-digit mpmath reference for the integral from a branch
point to an affine point, and so between two affine points, as the
difference of their integrals from one common root.

Period computation dominates the runtime, so the contexts are built once
per session and shared read-only (all arrays are frozen).
"""

import mpmath
import numpy as np
import pytest

import kleinian2 as k2
from kleinian2.curve import is_special

W5_COEFFS = [0.0, -4.0, 0.0, 0.0, 0.0, 4.0, 0.0]
G6_COEFFS = [-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
# A sextic whose first basis_independence re-ordering, NEAR_MISS_ORDERING,
# has a loop segment, loop 2 from 0.05 + 6.794i to 0.628 - 0.9077i, that
# passes 2.8e-3 from the root 0.5104 + 0.6967i.
NEAR_MISS_ROOTS = [-1.1341 + 0.3474j, -0.5144 - 0.5585j, 0.05 + 6.794j,
                   0.5104 + 0.6967j, 0.628 - 0.9077j, 0.7315 - 0.1683j]
NEAR_MISS_ORDERING = (1, 0, 2, 4, 3, 5)


@pytest.fixture(scope="session")
def w5_ctx():
    return k2.make_context(k2.validate_polynomial(W5_COEFFS))


@pytest.fixture(scope="session")
def g6_ctx():
    return k2.make_context(k2.validate_polynomial(G6_COEFFS))


@pytest.fixture(scope="session", params=["w5", "g6"])
def any_ctx(request, w5_ctx, g6_ctx):
    return w5_ctx if request.param == "w5" else g6_ctx


def sample_z(ctx, rng, clearance=1e-2):
    """Random z in the fundamental cell, away from the zero set of S."""
    while True:
        t = rng.uniform(-0.5, 0.5, 4)
        z = ctx.pd.A @ t[:2] + ctx.pd.B @ t[2:]
        if k2.divisor_clearance(ctx, z) > clearance:
            return z


def sample_divisor(ctx, rng):
    """Random non-special affine divisor with well-separated x values."""
    f, scale = ctx.f, ctx.f.scale
    while True:
        xs = []
        for _ in range(2):
            r = scale * rng.uniform(0.3, 1.5)
            xs.append(r * np.exp(2j * np.pi * rng.uniform()))
        if abs(xs[0] - xs[1]) < 0.05 * scale:
            continue
        if min(abs(x - b) for x in xs for b in ctx.pd.roots) < 0.05 * scale:
            continue
        ys = [np.sqrt(f(x)) * rng.choice([-1.0, 1.0]) for x in xs]
        D = k2.Divisor(k2.CurvePoint(xs[0], ys[0]), k2.CurvePoint(xs[1], ys[1]))
        if not is_special(f, D):
            return D


def _mp_from_root(f, e, x, y, numerators):
    """The integrals of the numerators from f.roots[e] to (x, y) as mpmath
    numbers of 30 digits (mp_half_segment)."""
    rs = [mpmath.mpc(r) for r in f.roots]
    end, X = rs[e], mpmath.mpc(x)
    # y at 30 digits, on the sheet of the given y
    Y = mpmath.sqrt(mpmath.mpc(f.leading) * mpmath.fprod(X - r for r in rs))
    Y = Y if mpmath.re(Y * mpmath.conj(mpmath.mpc(y))) >= 0 else -Y
    h = X - end
    others = [r for k, r in enumerate(rs) if k != e]
    q = [h / (X - r) for r in others]
    # graded about each singularity: at its foot on the real axis, and
    # one and four times its height off that on either side
    split = {0.0, 1.0}
    for tau in (mpmath.sqrt((r - end) / h) for r in others):
        foot, height = abs(float(tau.real)), abs(float(tau.imag))
        split |= {min(1.0, max(0.0, foot + k * height))
                  for k in (0, -1, 1, -4, 4)}
    cache = {}

    def g(v, n):
        # every numerator's quad reads the same nodes: y once a node
        d = 1 - v * v
        if v not in cache:
            c = Y
            for qk in q:
                c *= mpmath.sqrt(1 - qk * d)
            cache[v] = h / c
        return n(X - h * d) * cache[v]

    return [2 * mpmath.quad(lambda v: g(v, n), sorted(split),
                            method="gauss-legendre") for n in numerators]


def mp_half_segment(f, e, x, y, numerators=None):
    """Reference: the integrals of the numerators (by default 1 and x,
    for dx/y and x dx/y; callables on mpmath numbers) from f.roots[e] to
    (x, y) by mpmath at 30 digits, y the root of lead prod_j (x - r_j)
    on the sheet of the given y: twice the integral over v in [0, 1] of
    h n(x) / (y prod_k sqrt(1 - q_k (1 - v^2))), h = x - e, q_k = h /
    (x - r_k), in principal roots, by Gauss-Legendre on intervals graded
    about the singularities +-sqrt((r_k - e) / h)."""
    with mpmath.workdps(30):
        return np.array([complex(v) for v in _mp_from_root(
            f, e, x, y, numerators or [lambda x: 1, lambda x: x])])


def mp_between(f, e, P0, points, numerators=None):
    """Reference: the integrals of the numerators (as mp_half_segment
    takes them) from the point P0 = (x0, y0) to each of points, by way of
    the branch point f.roots[e], one row per point: the differences of
    the points' integrals from e at 30 digits, each rounded once."""
    numerators = numerators or [lambda x: 1, lambda x: x]
    with mpmath.workdps(30):
        start = _mp_from_root(f, e, *P0, numerators)
        ends = [_mp_from_root(f, e, *P, numerators) for P in points]
    return np.array([[complex(b - a) for a, b in zip(start, end)]
                     for end in ends])


def mp_numerators(f):
    """The numerators of (dx/y, x dx/y, r1, r2) on mpmath numbers, from
    f's coefficients c: 1, x, (c3 x + 2 c4 x^2 + 3 c5 x^3 + 4 c6 x^4)/4
    and (c5 x^2 + 2 c6 x^3)/4."""
    c = [mpmath.mpc(a) for a in f.coeffs]
    return [lambda x: 1, lambda x: x,
            lambda x: (c[3] * x + 2 * c[4] * x ** 2 + 3 * c[5] * x ** 3
                       + 4 * c[6] * x ** 4) / 4,
            lambda x: (c[5] * x ** 2 + 2 * c[6] * x ** 3) / 4]
