"""Output checks that do not rely on kleinian2's own certificates.

Each check raises CheckFailed with a short reason.  Where an identity can
be evaluated from first principles (a period integral, the two-point
functions xi_jk, the quartic relation, the mean-value property of an
entire function) it is computed here with numpy and scipy on the outputs
the program returned.
"""

import numpy as np
from scipy.special import roots_legendre

# Quadrature on a branch-point segment, and the clearance other roots must
# keep from it (relative to its length) for that rule and the sign
# tracking below to be sound.
GAUSS_NODES = (96, 144)
SEGMENT_CLEARANCE = 0.15
LATTICE_TOL = 1e-6
PAIRS_PER_CURVE = 3
TOL_ID = 1e-7
TOL_SIGMA = 1e-8
TOL_XI = 1e-6
TOL_POINT = 1e-6
# The mean-value test of S_jk on sextics: nodes on a circle of radius
# MEAN_VALUE_RADIUS times the smallest singular value of A, in the complex
# line of MEAN_VALUE_DIRECTION.  The trapezoid rule's error for an entire
# function falls like the radius to the power of the node count; at this
# radius it measured below 1e-11.
MEAN_VALUE_NODES = 8
MEAN_VALUE_RADIUS = 5e-3
MEAN_VALUE_DIRECTION = np.array([0.6, 0.8])
TOL_MEAN_VALUE = 1e-8


class CheckFailed(Exception):
    pass


def _require(ok, reason):
    if not ok:
        raise CheckFailed(reason)


def poly_coeffs(f):
    return np.array(f.coeffs, dtype=complex)


def poly_roots(coeffs):
    c = np.trim_zeros(np.asarray(coeffs, dtype=complex), "b")
    return np.roots(c[::-1])


# -- periods ------------------------------------------------------------------

def _segment_dist(p, a, b):
    d = b - a
    t = np.clip(((p - a) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0)
    return abs(p - (a + t * d))


def check_pairs(roots):
    """The first branch-point pairs whose straight segment keeps clear of
    every other root."""
    pairs = []
    n = len(roots)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = roots[i], roots[j]
            clear = min(_segment_dist(roots[k], a, b)
                        for k in range(n) if k not in (i, j))
            if clear >= SEGMENT_CLEARANCE * abs(b - a):
                pairs.append((i, j))
            if len(pairs) == PAIRS_PER_CURVE:
                return pairs
    return pairs


def segment_cycle(coeffs, roots, i, j, nodes):
    """Twice the integral of (dx/y, x dx/y) along the segment from roots[i]
    to roots[j]: the period of the loop around that pair.

    With x = a + u (b - a) and u = (1 - cos t) / 2, y = s(u) sqrt(u (1-u))
    where s^2 = -lead (b-a)^2 prod over the other roots of (x - r), and
    the integrand becomes (b-a)(1, x) / s dt, smooth on [0, pi].  s is
    continued node by node from the principal root at the first node.
    """
    a, b = complex(roots[i]), complex(roots[j])
    d = b - a
    lead = np.trim_zeros(coeffs, "b")[-1]
    others = [r for k, r in enumerate(roots) if k not in (i, j)]
    x_gl, w_gl = roots_legendre(nodes)
    t = 0.5 * np.pi * (x_gl + 1.0)
    w = 0.5 * np.pi * w_gl
    x = a + 0.5 * (1.0 - np.cos(t)) * d
    s2 = -lead * d * d * np.prod([x - r for r in others], axis=0)
    s = np.sqrt(s2)
    for k in range(1, nodes):
        if abs(s[k] - s[k - 1]) > abs(s[k] + s[k - 1]):
            s[k] = -s[k]
    return 2.0 * np.array([np.sum(w * d / s), np.sum(w * d * x / s)])


def lattice_coords(pd, v):
    """Real coordinates of v in the basis given by the columns of A, B."""
    G = np.hstack([pd.A, pd.B])
    M = np.vstack([G.real, G.imag])
    return np.linalg.solve(M, np.concatenate([v.real, v.imag]))


def check_context(ctx):
    """Loop periods of branch-point pairs lie in A Z^2 + B Z^2; Omega is a
    Riemann matrix; the Legendre relation holds."""
    pd = ctx.pd
    coeffs = poly_coeffs(ctx.f)
    roots = poly_roots(coeffs)
    pairs = check_pairs(roots)
    _require(len(pairs) >= 2, "fewer than two clear branch-point pairs")
    for i, j in pairs:
        v, v2 = (segment_cycle(coeffs, roots, i, j, n) for n in GAUSS_NODES)
        _require(np.max(np.abs(v - v2)) <= 1e-10 * max(1.0, np.max(abs(v))),
                 "segment quadrature did not converge")
        c = lattice_coords(pd, v)
        _require(np.max(np.abs(c - np.round(c))) <= LATTICE_TOL,
                 f"loop period off the lattice by "
                 f"{np.max(np.abs(c - np.round(c))):.2e}")
    Om = np.linalg.solve(pd.A, pd.B)
    scale = max(1.0, float(np.max(np.abs(Om))))
    _require(np.max(np.abs(Om - Om.T)) <= 1e-8 * scale, "Omega not symmetric")
    _require(np.max(np.abs(Om - pd.Omega)) <= 1e-8 * scale,
             "Omega differs from A^-1 B")
    _require(np.min(np.linalg.eigvalsh(0.5 * (Om + Om.T).imag)) > 0,
             "Im Omega not positive definite")
    leg = pd.etaA.T @ pd.B - pd.A.T @ pd.etaB - 2j * np.pi * np.eye(2)
    _require(np.max(np.abs(leg)) <= 1e-8, "Legendre relation fails")


# -- point evaluation ---------------------------------------------------------

def kummer_residual(coeffs, p11, p12, p22):
    """Relative residual of the quartic relation among wp11, wp12, wp22,
    derived from the closed forms of xi (see xi_closed_form): with
    s = wp22 = x1 + x2, m = -wp12 = x1 x2 and d2 = (x1 - x2)^2,
    2 y1 y2 = F(s, m) - 4 d2 wp11, so (F - 4 d2 wp11)^2 = 4 f(x1) f(x2)."""
    s, m = p22, -p12
    d2 = s * s - 4 * m
    r = np.sqrt(d2)
    x1, x2 = (s + r) / 2, (s - r) / 2
    a = _F(coeffs, s, m) - 4 * d2 * p11
    ff = 4 * np.polyval(coeffs[::-1], x1) * np.polyval(coeffs[::-1], x2)
    scale = max(abs(_F(coeffs, s, m)), abs(4 * d2 * p11), abs(ff) ** 0.5)
    return abs(a * a - ff) / max(scale, 1e-300) ** 2


def sjk_circle_mean(k2, ctx, z):
    """S_jk is entire, so on a small circle z + r e^(it) v in a complex
    line through z its mean equals its value at z.  Returns the mean of
    S_jk over the circle's nodes and the largest value seen, or None when
    evaluate_bundle at z or at a node raises or returns a wp triple off
    the Kummer surface: the mean would then test that fault, not S_jk."""
    r = MEAN_VALUE_RADIUS * np.linalg.svd(ctx.pd.A, compute_uv=False)[-1]
    ts = 2 * np.pi * np.arange(MEAN_VALUE_NODES) / MEAN_VALUE_NODES
    coeffs = poly_coeffs(ctx.f)
    vals = []
    for w in [z] + [z + r * np.exp(1j * t) * MEAN_VALUE_DIRECTION
                    for t in ts]:
        try:
            b = k2.evaluate_bundle(ctx, w)
        except k2.KleinianError:
            return None
        if (b.p11 is None
                or kummer_residual(coeffs, b.p11, b.p12, b.p22) > TOL_ID):
            return None
        vals.append((b.S11, b.S12, b.S22))
    vals = np.array(vals[1:])
    return vals.mean(axis=0), float(np.max(np.abs(vals)))


def check_bundle(ctx, b, want_sigma, circle=None):
    """`circle` is sjk_circle_mean at b.z, given on sextics."""
    _require(b.p11 is not None, "wp missing at a point off the divisor")
    wp = (b.p11, b.p12, b.p22)
    _require(kummer_residual(poly_coeffs(ctx.f), *wp) <= TOL_ID,
             "Kummer quartic does not vanish")
    for sjk, p in zip((b.S11, b.S12, b.S22), wp):
        ref = max(abs(sjk), abs(p * b.S), 1e-300)
        _require(abs(sjk - p * b.S) <= TOL_ID * ref, "S_jk != wp_jk S")
    if circle is not None:
        # on sextics S_jk_eval returns wp_jk S itself, so the test above
        # is no test there; analyticity is
        mean, largest = circle
        sjk = np.array([b.S11, b.S12, b.S22])
        _require(np.max(np.abs(sjk - mean))
                 <= TOL_MEAN_VALUE * max(largest, np.max(np.abs(sjk))),
                 "S_jk differs from its mean over a circle")
    if want_sigma:
        ref = max(abs(b.sigma) ** 2, abs(b.S), 1e-300)
        _require(abs(b.sigma ** 2 - b.S) <= TOL_SIGMA * ref,
                 "sigma^2 != S")


# -- Abel map and inversion ---------------------------------------------------

def _F(c, s, m):
    """The symmetric polynomial F(x1, x2) of the curve, in s = x1 + x2 and
    m = x1 x2."""
    return (2 * c[0] + c[1] * s + 2 * c[2] * m + c[3] * m * s
            + 2 * c[4] * m * m + c[5] * m * m * s + 2 * c[6] * m ** 3)


def xi_closed_form(coeffs, x1, y1, x2, y2):
    """(xi11, xi12, xi22) of the divisor (x1, y1) + (x2, y2)."""
    s, m = x1 + x2, x1 * x2
    return ((_F(coeffs, s, m) - 2 * y1 * y2) / (4 * (x1 - x2) ** 2), -m, s)


def _same_point(P, x, y):
    return (abs(P.x - x) <= TOL_POINT * max(1.0, abs(x))
            and abs(P.y - y) <= TOL_POINT * max(1.0, abs(y)))


def check_inversion(ctx, pts, D, wp):
    """D reproduces the sampled points as an unordered pair, and wp at
    the Abel image equals xi of the sampled divisor."""
    (x1, y1), (x2, y2) = pts
    _require(D.p.is_affine and D.q.is_affine, "inverted point at infinity")
    same = _same_point(D.p, x1, y1) and _same_point(D.q, x2, y2)
    swapped = _same_point(D.p, x2, y2) and _same_point(D.q, x1, y1)
    _require(same or swapped, "inverted divisor differs from the sample")
    xi = xi_closed_form(poly_coeffs(ctx.f), x1, y1, x2, y2)
    for a, b in zip(wp, xi):
        _require(abs(a - b) <= TOL_XI * max(1.0, abs(b)), "wp(z) != xi(D)")


# -- suite --------------------------------------------------------------------

def check_report(report):
    for entry in report.checks:
        _require(entry["pass"] is True or entry["pass"] == "n/a",
                 f"suite check {entry['name']} failed")
