"""Integration on a hyperelliptic curve y^2 = f(x) along straight
segments from branch points.

The Abel map takes no path.  An affine point P below the series radius
is A(e) + the integral from a branch point e along the straight
half-segment x = e + (x_P - e) v^2, on which y = v sqrt(x_P - e) c(x)
with c fixed by y_P and turned in closed form by the other roots, so
n_k(x) dx/y is an even integrand analytic in v, summed by
Gauss-Legendre at a node count fixed beforehand from a Bernstein
ellipse, all points of a call in one pass (abel_half_segments; Molin and
Neurohr, Math. Comp. 88, 2019).  e is the root whose ellipse is widest;
A(e) is a half-period read off the period data (periods.
branch_point_images).  A point farther out is minus its tail to
infinity, a series (abel_images).

rho_lambda_eval's integrals of all four forms (dx/y, x dx/y, r1, r2)
run along one route per divisor, P0 -> e0 -> e1 -> P1 through the
branch points e0 and e1 (route_integrals).  The outer legs are
half-segments from e0 and e1, summed as the Abel map sums its own; the
middle leg, where e0 != e1, is the straight segment between them,
summed as a period build sums its loop segments.  At a branch point
both sheets meet, so the legs join into a path on the curve whichever
sheet each takes, and two routes differ by a closed loop: by a lattice
vector in the holomorphic integrals and by minus its eta in the
second-kind ones.  (e0, e1) is the pair whose narrowest leg, by its
Bernstein ellipse, is widest; the segments' ellipses are read off once
per curve (_segment_rho).

A segment between two branch points, a period build's loop segment or
a route's middle leg, factors y = s(u) sqrt(u (1-u)) with s^2 = G(u), the
cofactor, whose turn is the sum over the roots off the segment of
Arg((x(u) - r_j) / (x(0) - r_j)) in principal arguments, so
n_k(x)/y dx is the Chebyshev weight times the analytic n_k(x) d/s, and
N-point Gauss-Chebyshev sums it to an error bounded a priori from the
Bernstein ellipse through the nearest root off the segment
(segment_period_integrals; Molin and Neurohr).  The node counts are
fixed before the sum, and all segments of a build are one sheet call.
On a sextic, z_star, the integral between the two points at infinity,
is the half-segment from s = 0 to s = 1/e in the chart s = 1/x: there
s = 0 is a regular point, and s = (1 - v^2)/e turns the root e's
factor into v^2, so the integrand is even and analytic in v and
N-point Gauss-Legendre sums it, N again fixed a priori from a Bernstein
ellipse (half_segment_integrals; Trefethen, Approximation Theory and
Approximation Practice, Thm 19.3).  e is the root whose ellipse is
widest (z_star_root).  A tail to infinity takes no sum over nodes:
from SERIES_FACTOR times the largest root modulus out, y / x^(d/2) is
+-sqrt(lead) / g(1/x) with g(s) = prod_j (1 - r_j s)^(-1/2), whose
binomial series converges at a ratio of 1/SERIES_FACTOR or less, so
tail_integrals sums it term by term.

The branch order is the period build's alone, naming its loop segments;
nearest_branch_point takes any root list.
"""

import math
from functools import lru_cache
from itertools import count

import numpy as np

from .errors import QuadratureError, SheetTrackingError

SERIES_FACTOR = 2.0      # a tail is a series from this radius, times max|r|
FAR_ARG = 0.7310         # direction of the Abel samples, and of a tail from 0
# relative tolerance on the max-norm of every integral the package sums
# over nodes, by Gauss-Chebyshev or Gauss-Legendre
TOL = 1e-12


def _signed(s, psi):
    """s or -s, whichever has its phase within a right angle of psi."""
    return s * np.copysign(1.0, np.cos(np.angle(s) - psi))


def _turn(d, c0):
    """The turn of arg f from x0 to x, shape (N,), from d = x - r, shape
    (n, N), for the roots r: the sum over the roots of the principal
    Arg(d_j c0_j), c0 = conj(x0 - r) of shape (n,)."""
    return np.angle(d * c0[:, None]).sum(axis=0)


def holomorphic_numerators():
    """Numerators of the holomorphic basis dx/y, x dx/y."""
    return [lambda x: np.ones_like(np.asarray(x, dtype=complex)),
            lambda x: np.asarray(x, dtype=complex)]


def second_kind_numerators(f):
    """Numerators of the second-kind basis (poles only at infinity)."""
    return _second_kind(f.coeffs)


def _second_kind(c):
    """The second-kind numerators of the polynomial of ascending
    coefficients c."""
    def n1(x):
        return (c[3] * x + 2 * c[4] * x ** 2 + 3 * c[5] * x ** 3
                + 4 * c[6] * x ** 4) / 4.0

    def n2(x):
        return (c[5] * x ** 2 + 2 * c[6] * x ** 3) / 4.0

    return [n1, n2]


def all_numerators(f):
    return holomorphic_numerators() + second_kind_numerators(f)


def _majorant(f, X, n):
    """max_k n_k+(X) over the first n numerators of all_numerators(f),
    n_k+ the numerator with its coefficients' moduli: a bound on every
    |n_k(x)| for |x| <= X."""
    size = np.maximum(1.0, X)
    if n > 2:
        size = np.maximum.reduce(
            [size] + [m(X) for m in _second_kind(np.abs(f.coeffs))])
    return size


def nearest_branch_point(roots, x):
    """Index of the branch point nearest x, where a run from x ends."""
    return int(np.argmin(np.abs(np.asarray(roots, dtype=complex) - x)))


# -- factored branch-point segments -----------------------------------------

SEGMENT_MAX_NODES = 2 ** 16   # most Gauss-Chebyshev nodes on one segment
# The error bound a node count aims at, of the integral's guessed size:
# well below TOL, because the bound is on a segment's max-norm, and a
# component 1e-4 of it (the second-kind parts on a curve scaled by 0.1)
# must lose no digits to truncation either.  A decade costs about a node.
SEGMENT_AIM = 1e-14
# the ellipses E_r the error bound tries, as log r / log rho_min
_ELLIPSES = np.linspace(0.05, 0.95, 19)[:, None]


def _segment_frames(roots, pairs):
    """(b_i, d, others) of the segments from roots[i] to roots[j], (i, j) =
    pairs[p]: the start, the step d = roots[j] - roots[i], and the roots
    off each segment, one column per segment."""
    roots = [complex(r) for r in roots]
    bi = np.array([roots[i] for i, _ in pairs])
    d = np.array([roots[j] for _, j in pairs]) - bi
    others = [[r for k, r in enumerate(roots) if k not in pair]
              for pair in pairs]
    return bi, d, np.array(others).T


def segment_sheet(f, roots, pairs):
    """The straight segments from roots[i] to roots[j], (i, j) = pairs[p],
    as sheet(p, u, d1): at the parameters u, u[k] on segment p[k], and d1
    = 1 - u, computed stably, (x, dx/du, s) with x = roots[i] + u
    (roots[j] - roots[i]) and s the root of the cofactor G on the sheet of
    its principal root at u = 0.  G's factors x - r_k are formed from the
    nearer end, (b_i - r_k) + u d or (b_j - r_k) - d1 d, so a root just
    off one end costs them no cancellation.

    With x(u) = b_i + u (b_j - b_i) the polynomial factors through
    y = s(u) sqrt(u (1-u)), where s^2 = G(u) = -lc d^2 prod(x(u) - r_k)
    over the roots other than i and j.  G never vanishes on the segment,
    and its turn is the sum over those roots, so s is fixed in closed form,
    and n_k(x)/y dx is the Chebyshev weight 1/sqrt(u (1-u)) times the
    analytic n_k(x) d/s (segment_period_integrals).
    """
    bi, d, others = _segment_frames(roots, pairs)
    lead = f.leading
    start, end = bi - others, bi + d - others      # b_i - r_k, b_j - r_k
    g0 = -lead * d * d * start.prod(axis=0)
    ref = d * f.deriv(bi)
    if np.any(np.abs(g0 - ref) > 1e-8 * np.maximum(np.abs(g0), np.abs(ref))):
        raise SheetTrackingError("factored cofactor fails the endpoint check")
    phase0 = np.angle(np.sqrt(g0))
    c0 = np.conj(start)

    def sheet(p, u, d1):
        dp = d[p]
        dr = np.where(u <= 0.5, start[:, p] + u * dp, end[:, p] - d1 * dp)
        psi = phase0[p] + 0.5 * np.angle(dr * c0[:, p]).sum(axis=0)
        s = _signed(np.sqrt(-lead * dp * dp * dr.prod(axis=0)), psi)
        return bi[p] + u * dp, dp, s

    return sheet


def _bernstein_rho(tau):
    """The parameter rho >= 1 of the Bernstein ellipse through each tau:
    the root of w^2 - 2 tau w + 1 outside the unit circle (the other is
    1/w; a signed zero can make the principal roots pick it)."""
    rho = np.abs(tau + np.sqrt(tau - 1.0) * np.sqrt(tau + 1.0))
    return np.maximum(rho, 1.0 / rho)


def _gaps(rho, R):
    """(rho - R)(1 - 1/(R rho))/2, a lower bound on |t - tau| for t on the
    Bernstein ellipse E_R and tau on E_rho, rho > R: with t = (w + 1/w)/2
    and tau = (om + 1/om)/2, t - tau = (w - om)(1 - 1/(w om))/2."""
    return 0.5 * (rho - R) * (1.0 - 1.0 / (R * rho))


def _segment_bounds(f, frames, tau, rho):
    """(log_2piM, log_r, log_guess) of the segments of segment_sheet, of
    frames (b_i, d, others) = _segment_frames(roots, pairs).

    In t = 2u - 1 the integrand h_k = n_k(x) d/s of segment p is analytic
    inside the Bernstein ellipse E_rho through the nearest root off it,
    whose t is tau_k, rho_k = |tau_k +- sqrt(tau_k^2 - 1)| > 1 (tau and
    rho, one column per segment, as segment_period_integrals passes them).
    On E_r, r < rho_k, |t - tau_k| >= (rho_k - r)(1 - 1/(r rho_k))/2 and
    |x| <= X = |x_mid| + |d| (r + 1/r)/4, so, with |s| = sqrt|lc| |d|
    prod_k sqrt(|d|/2 |t - tau_k|), the largest |h_k| there is at most
    M = max_k n_k+(X) / (sqrt|lc| prod_k sqrt(|d|/2 |t - tau_k|)), n_k+
    the numerator n_k with its coefficients' moduli.  Rows of log_2piM =
    log(2 pi M) and log_r are the trial ellipses _ELLIPSES, columns the
    segments.  log_guess is log(pi max_k n_k+(|x_mid|) / |s/d|) at the
    midpoint: the size of the integral that the node count aims at
    before there is one.
    """
    bi, d, others = frames
    log_r = _ELLIPSES * np.log(rho.min(axis=0))
    r = np.exp(log_r)
    R = r[:, None]
    half = 0.5 * np.abs(d)
    mid = np.abs(bi + 0.5 * d)
    # prod_k |t - tau_k| on E_r, and at the midpoint t = 0, in the last row
    gaps = np.vstack([_gaps(rho, R).prod(axis=1), np.abs(tau).prod(axis=0)])
    X = np.vstack([mid + 0.5 * half * (r + 1.0 / r), mid])
    log_M = np.log(_majorant(f, X, 4)) - 0.5 * (np.log(abs(f.leading) * gaps)
                                   + len(others) * np.log(half))
    return (math.log(2 * math.pi) + log_M[:-1], log_r,
            math.log(math.pi) + log_M[-1])


def _node_counts(log_K, log_r, log_target, cap=SEGMENT_MAX_NODES):
    """The fewest nodes N, per segment and over the trial ellipses, with
    K / (r^(2N) - 1) <= target; at most cap + 1.  K = 2 pi M is the
    aliasing bound of N-point Gauss-Chebyshev on a function bounded by M
    on E_r, and K = 64 M r^2 / (15 (r^2 - 1)) bounds N-point
    Gauss-Legendre by K r^(-2N) (Trefethen, Approximation Theory and
    Approximation Practice, Thm 19.3)."""
    n = np.logaddexp(0.0, log_K - log_target) / (2.0 * log_r)
    return np.minimum(np.ceil(n).min(axis=0), cap + 1).astype(int)


def _error_bounds(log_K, log_r, N):
    """K / (r^(2N) - 1) at N nodes, per segment, the least over the trial
    ellipses."""
    return np.exp(log_K - np.log(np.expm1(2.0 * N * log_r))).min(axis=0)


def _reach(rho, cap, over):
    """Refuse, before any sum, an integral that no rule of at most cap
    nodes sums to TOL.  rho[k] is the narrowest Bernstein ellipse of
    integral k, 1 where a root lies on its segment.  Either rule's K on
    E_r is at least twice the integral (|I| <= pi M against K = 2 pi M
    for Gauss-Chebyshev, |I| <= 2 M against K > 4 M for Gauss-Legendre),
    so its re-check at TOL asks for more than log(2/TOL) / (2 log rho)
    nodes; where that is more than cap, the QuadratureError over(k) of
    the first such k is raised.  A root on or next to a segment is so
    refused with no sum, and before a bound takes the log of a zero gap."""
    short = np.flatnonzero(2.0 * cap * np.log(rho) < math.log(2.0 / TOL))
    if len(short):
        raise over(int(short[0]))


@lru_cache(maxsize=256)
def _chebyshev_nodes(n):
    """(u, d1) = (sin^2(theta/2), cos^2(theta/2)) at the n Gauss-Chebyshev
    angles theta = (2k+1) pi / (2n), read-only: u and d1 = 1 - u with no
    cancellation at either end, where (1 -+ cos theta)/2 would lose it."""
    half = (2 * np.arange(n) + 1) * (0.25 * np.pi / n)
    u, d1 = np.sin(half) ** 2, np.cos(half) ** 2
    for a in (u, d1):
        a.setflags(write=False)
    return u, d1


def _chebyshev_sums(sheet, numerators, p, N):
    """Row k: the N[k]-point Gauss-Chebyshev sums (pi/N) sum n(x) d/s of
    the numerators on segment p[k] of sheet, in one sheet call over the
    nodes of every segment."""
    u, d1 = (np.concatenate(a) for a in
             zip(*(_chebyshev_nodes(int(n)) for n in N)))
    x, dx, s = sheet(np.repeat(p, N), u, d1)
    h = np.stack([nf(x) for nf in numerators], axis=1) * (dx / s)[:, None]
    return np.add.reduceat(h, np.cumsum(N) - N, axis=0) * (np.pi / N)[:, None]


def segment_period_integrals(f, roots, pairs):
    """(W, N, err): row p of W holds the integrals of (dx/y, x dx/y, r1,
    r2) over the straight segment from roots[i] to roots[j], (i, j) =
    pairs[p], on the sheet of segment_sheet, by N[p]-point Gauss-Chebyshev
    (Molin and Neurohr, Math. Comp. 88, 2019), and err[p] bounds its
    error.

    With u = sin^2(theta/2), each integral is the integral over (0, pi)
    in theta of n_k(x) d/s, analytic in t = -cos theta inside a Bernstein
    ellipse (_segment_bounds), so the error of the N-point rule, the
    aliased Chebyshev coefficients, is at most 2 pi M / (r^(2N) - 1).
    N is fixed beforehand from that bound at SEGMENT_AIM times the
    integral's size guessed at the midpoint, and all segments are summed
    in one sheet call.  The bound is then checked against TOL times each
    row's own max-norm (_sums_to_tol); a segment that fails is summed
    again at the N that the bound now asks for.  A segment asking for more than SEGMENT_MAX_NODES raises QuadratureError
    naming it, before any sum where a root lies on it or so near that
    the cap cannot reach TOL (_reach).  A branch ordering whose segments
    cross is not refused here: its periods fail the certificate.
    """
    frames = bi, d, others = _segment_frames(roots, pairs)
    tau = 2.0 * (others - bi) / d - 1.0
    rho = _bernstein_rho(tau)

    def over(p):
        return QuadratureError(
            f"segment {p}, from branch point {pairs[p][0]} to "
            f"{pairs[p][1]}, needs more than {SEGMENT_MAX_NODES} "
            f"Gauss-Chebyshev nodes for rel. tol {TOL:g}")

    _reach(rho.min(axis=0), SEGMENT_MAX_NODES, over)
    sheet = segment_sheet(f, roots, pairs)
    numerators = all_numerators(f)
    log_2piM, log_r, log_guess = _segment_bounds(f, frames, tau, rho)
    return _sums_to_tol(
        lambda p, N: _chebyshev_sums(sheet, numerators, p, N),
        log_2piM, log_r, log_guess, SEGMENT_MAX_NODES, over)


def _sums_to_tol(sums, log_K, log_r, log_guess, cap, over, fit=None):
    """(W, N, err) of integrals whose errors at N nodes are bounded by
    _error_bounds(log_K, log_r, N), one column of the bounds per integral:
    sums(k, N[k]) gives rows k of W, and fit(n), if given, the node counts
    a rule takes at least n (fit(n) <= cap for n <= cap).

    N is fixed beforehand from the bound at SEGMENT_AIM times the
    integral's guessed size, exp(log_guess), and all integrals are summed
    in one call.  The bound is then checked against TOL times each row's
    own max-norm; a row that fails is summed again at the N that the bound now asks for, and a row asking
    for more than cap nodes raises over(k) of the first such k."""
    fit = fit or (lambda n: n)
    N = fit(np.minimum(_node_counts(log_K, log_r,
                                    math.log(SEGMENT_AIM) + log_guess, cap),
                       cap))
    W = sums(np.arange(len(N)), N)
    while True:
        err = _error_bounds(log_K, log_r, N)
        target = TOL * np.abs(W).max(axis=1)
        todo = np.flatnonzero(err > target)
        if not len(todo):
            return W, N, err
        need = _node_counts(log_K[:, todo], log_r[:, todo],
                            np.log(np.maximum(target[todo], 1e-300)), cap)
        big = np.flatnonzero(need > cap)
        if len(big):
            raise over(int(todo[big[0]]))
        # at least one more node, should the logs round need down to N
        N[todo] = fit(np.maximum(need, N[todo] + 1))
        W[todo] = sums(todo, N[todo])


# -- z_star's half-segment in the chart s = 1/x -----------------------------

# most Gauss-Legendre nodes on z_star's half-segment or an Abel
# half-segment; _legendre_nodes takes O(n^2) time, and the widest root's
# half-segment takes 28 to 42 nodes on the benchmark's 218 sextics (24 to
# 40 on the tests' frame curves), an Abel point's 12 to 48 on the
# abel_invert divisors of seed 1
HALF_SEGMENT_MAX_NODES = 2 ** 13


@lru_cache(maxsize=64)
def _half_segment_rho(f):
    """rho[i, k], for the roots r of f: the Bernstein parameter, in v, of
    the singularities v = +-sqrt(1 - r_i / r_k) that the factor 1 - r_k s
    puts near the half-segment from s = 0 into s = 1/r_i, s = (1 - v^2)
    / r_i.  inf where the factor never vanishes (k = i, or r_k = 0), and
    row i all 0 where r_i = 0, which has no half-segment.  Read-only, and
    computed once per curve."""
    r = np.array(f.roots)
    live = r != 0
    ratio = r[:, None] / np.where(live, r, 1.0)
    rho = _bernstein_rho(np.sqrt(1.0 - ratio))
    rho[:, ~live] = np.inf
    np.fill_diagonal(rho, np.inf)
    rho[~live] = 0.0
    rho.setflags(write=False)
    return rho


def z_star_root(f):
    """Index in f.roots of the branch point e into which z_star's
    half-segment runs (half_segment_integrals): the root whose ellipse in
    v is widest, ties to the first in f.roots' canonical order, never a
    root at 0.  It is read off f.roots alone, so the builds of a curve in
    every branch order, and the Delta their data derive, share it."""
    return int(np.argmax(_half_segment_rho(f).min(axis=1)))


def _half_segment_bounds(f, end, others, rho):
    """(log_K, log_r, log_guess) of z_star's half-segment into the root
    end, for _node_counts, in the form _segment_bounds gives them: others
    are the roots whose factor 1 - r_k s vanishes somewhere, and rho > 1
    their ellipse parameters (_half_segment_rho).

    The integrand h = -2 (s, 1) / (end c(v)) is analytic inside the
    Bernstein ellipse through the nearest +-tau_k, tau_k^2 = 1 - end/r_k.
    There 1 - r_k s = q_k (v^2 - tau_k^2), q_k = r_k / end, so on E_r
    |c| >= sqrt|lead| prod_k sqrt|q_k| g_k, g_k = _gaps(rho_k, r), and
    |s| <= (1 + V^2) / |end| with V = (r + 1/r)/2, which bound |h| by M;
    K = 64 M r^2 / (15 (r^2 - 1)) is Gauss-Legendre's (_node_counts).
    log_guess is log(2 |h(0)|), the size of the integral that the node
    count aims at before there is one.
    """
    q = others / end
    log_r = _ELLIPSES * math.log(rho.min())
    R = np.exp(log_r)
    size = abs(end)
    lead = abs(f.leading)
    log_c = 0.5 * math.log(lead * np.abs(q).prod()) + np.log(
        _gaps(rho, R).prod(axis=1, keepdims=True))
    log_M = np.log(2.0 / size * np.maximum(
        1.0, (1.0 + 0.25 * (R + 1.0 / R) ** 2) / size)) - log_c
    log_K = log_M + np.log(64.0 / 15.0 * R * R / np.expm1(2.0 * log_r))
    log_guess = math.log(4.0 * max(1.0, 1.0 / size) / size) - 0.5 * math.log(
        lead * np.abs(1.0 - q).prod())
    return log_K, log_r, log_guess


@lru_cache(maxsize=64)
def _legendre_nodes(n):
    """(d, w) at the n/2 positive nodes v of n-point Gauss-Legendre, n
    even: d = 1 - v^2, formed as (1 - v)(1 + v), and twice the weights,
    read-only, so that a sum over them alone is the rule on an even
    integrand.  Newton's method on P_n from Tricomi's estimates, with
    P_n and P_n' by the three-term recurrence, in O(n) memory."""
    k = np.arange(n // 2)
    v = ((1.0 - 1.0 / (8 * n * n) + 1.0 / (8 * n ** 3))
         * np.cos(np.pi * (4 * k + 3) / (4 * n + 2)))
    step = np.inf
    for _ in range(20):
        p0, p1 = np.ones_like(v), v
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * v * p1 - (j - 1) * p0) / j
        d = (1.0 - v) * (1.0 + v)
        dp = n * (p0 - v * p1) / d
        # the weights take P_n' at the converged nodes: near v = 1 its
        # relative change is 2 dv / d, 1e-11 for a step of 1e-15
        if step <= 1e-15:
            break
        step = np.abs(p1 / dp).max()
        v = v - p1 / dp
    w = 4.0 / (d * dp * dp)
    for a in (d, w):
        a.setflags(write=False)
    return d, w


def _half_segment_sum(f, e, N):
    """z_star by N-point Gauss-Legendre in v on the half-segment into
    e = f.roots[e], summed over the positive nodes: -2 sum w (s, 1) /
    (e c), s = (1 - v^2) / e and c = -sqrt(lead) prod_k sqrt(1 - r_k s)
    over the other roots, in principal roots."""
    d, w = _legendre_nodes(N)
    roots = f.roots
    end = complex(roots[e])
    others = np.array([r for k, r in enumerate(roots) if k != e])
    s = d / end
    c = np.sqrt(1.0 - s[:, None] * others).prod(axis=1)
    h = w / (-np.sqrt(complex(f.leading)) * end * c)
    return -2.0 * np.array([h @ s, h.sum()])


def half_segment_integrals(f, e):
    """(z, N, err): z = (z1, z2), the integrals of (dx/y, x dx/y) from the
    infinite point labelled 2 to the one labelled 1 on a sextic, over
    the half-segment into the branch point f.roots[e], by N-point
    Gauss-Legendre, and err bounds its error.

    In the chart s = 1/x, w = y/x^3 has w^2 = lead prod_k (1 - r_k s),
    s = 0 is a regular point where w = -sqrt(lead) on label 2 (+ on label
    1), and dx/y = -s ds/w, x dx/y = -ds/w.  The path runs straight from
    s = 0 to s = 1/e, where w vanishes, and back on the other sheet,
    which doubles the integral.  With s = (1 - v^2)/e, 1 - e s = v^2, so
    w = v c(v), c = -sqrt(lead) prod_{k != e} sqrt(1 - r_k s) in
    principal roots, each continuous along the segment unless the root's
    singularity lies on it, and z = -2 int_{-1}^{1} (s, 1) / (e c) dv of
    an even integrand analytic on [-1, 1]: the sheet is fixed in closed
    form, and the endpoint singularity is gone.

    N is fixed beforehand from the bound of _half_segment_bounds at
    SEGMENT_AIM times the integral's guessed size, then checked against
    TOL times z's max-norm as segment_period_integrals checks its
    segments, and summed again at the N the bound then asks for.  More
    than HALF_SEGMENT_MAX_NODES raises QuadratureError naming the
    half-segment, before any sum where it meets another root's
    singularity or passes so near that the cap cannot reach TOL
    (_reach); e at 0, where s = 1/e does not exist, raises ValueError.
    """
    r = np.array(f.roots)
    if r[e] == 0:
        raise ValueError("z_star's half-segment cannot end at a branch "
                         "point at 0")
    cap = HALF_SEGMENT_MAX_NODES
    over = QuadratureError(
        f"z_star's half-segment, from infinity into branch point {e}, "
        f"needs more than {cap} Gauss-Legendre nodes for rel. tol {TOL:g}")
    rho = _half_segment_rho(f)[e]
    keep = np.isfinite(rho)
    _reach(rho[keep].min(keepdims=True), cap, lambda _: over)
    log_K, log_r, log_guess = _half_segment_bounds(f, r[e], r[keep],
                                                   rho[keep])
    z, N, err = _sums_to_tol(lambda _, N: _half_segment_sum(f, e, int(N[0]))[None],
                             log_K, log_r, log_guess, cap, lambda _: over,
                             lambda n: n + n % 2)
    return z[0], int(N[0]), float(err[0])


# -- tails to infinity --------------------------------------------------------

TAIL_TOL = 1e-17        # bound on a tail series' dropped terms, of c_0


def _dropped_bound(K, rho):
    """sum_{k >= K} C(k+2, 2) rho^k, in closed form: a bound on the terms
    from s^K on of g(s) = prod_j (1 - r_j s)^(-1/2) where every |r_j s| <=
    rho, since (1 - max|r_j| s)^(-3) majorizes g's at most six factors."""
    a = 1.0 / (1.0 - rho)
    return rho ** K * a * (math.comb(K + 2, 2) + (K + 2) * rho * a
                           + (rho * a) ** 2)


TAIL_TERMS = next(K for K in count()
                  if _dropped_bound(K, 1.0 / SERIES_FACTOR) < TAIL_TOL)
# C(2k, k) / 4^k, the binomial series of (1 - s)^(-1/2)
_HALF_BINOMIAL = np.cumprod([1.0] + [(k - 0.5) / k
                                     for k in range(1, TAIL_TERMS)])


@lru_cache(maxsize=64)
def _tail_coeffs(f):
    """c_0 .. c_{TAIL_TERMS-1} of g(s) = prod_j (1 - r_j s)^(-1/2) over
    the roots r_j of f: the factors' binomial series, multiplied out and
    truncated, read-only.  Computed once per curve."""
    series = _HALF_BINOMIAL * (np.array(f.roots)[:, None]
                               ** np.arange(TAIL_TERMS))
    c = series[0]
    for b in series[1:]:
        c = np.convolve(c, b)[:TAIL_TERMS]
    c.setflags(write=False)
    return c


def tail_integrals(f, x_far, y_far):
    """(T, landed_plus): the integrals T, shape (N, 2), of (dx/y, x dx/y)
    from the far points (x_far[i], y_far[i]) out to infinity, and whether
    each tail lands on the infinite point labelled 1, where y/x^3 ->
    +sqrt(f6) principal (always True on degree 5).

    In the chart x = t^-q (q = 1 on degree 6, 2 on degree 5), s = 1/x,
    y = s0 t^(-d q/2) / g(s), where s0 = +-sqrt(lead), its sign the
    landing label.  So at t1 = x_far^(-1/q), s1 = 1/x_far, with c_k the
    TAIL_TERMS coefficients of g,
        T0 = q t1^(q+1) sum_k c_k s1^k / (q k + q + 1) / s0,
        T1 = q t1 sum_k c_k s1^k / (q k + 1) / s0.
    A far point nearer than SERIES_FACTOR times the largest root modulus
    raises ValueError.
    """
    x_far = np.asarray(x_far, dtype=complex)
    y_far = np.asarray(y_far, dtype=complex)
    s1 = 1.0 / x_far
    if np.abs(s1).max(initial=0.0) * max(map(abs, f.roots)) > (
            1.0 + 1e-12) / SERIES_FACTOR:
        raise ValueError("a far point lies within SERIES_FACTOR times the "
                         "largest root modulus")
    q = 1 if f.degree == 6 else 2
    t1 = s1 if q == 1 else np.sqrt(s1)
    # summed from the smallest, last terms on, so that at a ratio of 1/2
    # the rounding is that of the few largest terms, not of all of them
    c, k = _tail_coeffs(f)[::-1], np.arange(TAIL_TERMS)[::-1]
    V = s1[:, None] ** k
    s0 = y_far * t1 ** (f.degree * q // 2) * (V @ c)
    root = np.sqrt(complex(f.leading))
    plus = np.abs(s0 - root) <= np.abs(s0 + root)
    T = (V @ (c[:, None] / (q * k[:, None] + [q + 1, 1]))
         * (q * t1[:, None] ** [q + 1, 1])
         / np.where(plus, root, -root)[:, None])
    return T, plus | (f.degree == 5)


# -- Abel images: a half-segment from a branch point --------------------------

# a point this near a branch point, times f.scale, integrates from it
BRANCH_SNAP = 1e-7
# the node counts an Abel half-segment is rounded up to, 8 to
# HALF_SEGMENT_MAX_NODES in steps of 4/3 and 3/2: the rules in use stay
# in _legendre_nodes' cache, where a new one costs O(n^2) Newton work
LEGENDRE_LADDER = np.sort(np.concatenate([2 ** np.arange(3, 14),
                                          3 * 2 ** np.arange(2, 12)]))


def _on_ladder(n):
    """The least count of LEGENDRE_LADDER at or above each of n."""
    return LEGENDRE_LADDER[np.searchsorted(LEGENDRE_LADDER, n)]


@lru_cache(maxsize=64)
def _branch_frames(f):
    """(r, others, steps, log_size, far): f.roots as an array, row j of
    others the roots but r_j and of steps their steps r_k - r_j from it,
    log_size[j] = log(2 max(1, |r_j|) / sqrt|lead prod_k (r_j - r_k)|),
    the size of the integrand (1, x) / c at x = r_j that _abel_bounds
    scales, and far = SERIES_FACTOR max |r_j|, less a rounding margin
    well inside the one tail_integrals allows: the radius from which a
    point takes a tail.  Read-only, and computed once per curve."""
    r = np.array(f.roots)
    others = np.array([np.delete(r, j) for j in range(len(r))])
    steps = others - r[:, None]
    log_size = np.log(2.0 * np.maximum(1.0, np.abs(r)) / np.sqrt(
        abs(f.leading) * np.abs(steps).prod(axis=1)))
    for a in (r, others, steps, log_size):
        a.setflags(write=False)
    return (r, others, steps, log_size,
            (1.0 - 1e-13) * SERIES_FACTOR * np.abs(r).max())


def _sheet_values(f, x, y, gap):
    """y at the points (x[i], y[i]) formed from gap[i] = x[i] - f.roots as
    +-sqrt(lead prod_j (x - r_j)), with the sign of the given y, which
    fixes the sheet and no more: a y taken from f's coefficient form
    carries its rounding, relatively large next to a root.  A branch
    point takes y = 0.  SheetTrackingError unless every y[i]^2 is that
    f(x[i]) to 1e-8 of the larger of |f| and |y|^2, plus 1e-14 |lead|
    (|x| + f.scale)^n for that rounding."""
    lead = f.leading
    fx = lead * gap.prod(axis=1)
    y2 = y * y
    slack = 1e-14 * abs(lead) * (np.abs(x) + f.scale) ** f.degree
    miss = np.abs(y2 - fx) > 1e-8 * np.maximum(np.abs(fx), np.abs(y2)) + slack
    if miss.any():
        raise SheetTrackingError(
            f"y = {y[np.argmax(miss)]:.6g} does not square to f(x)")
    root = np.sqrt(fx)
    return root * np.sign((root * y.conj()).real)


def _points(f, x, y):
    """(x, y, frames, gap) of affine points: x and y as arrays, y formed
    by _sheet_values, frames = _branch_frames(f) and gap[i] = x[i] -
    f.roots."""
    x = np.asarray(x, dtype=complex)
    frames = _branch_frames(f)
    gap = x[:, None] - frames[0]
    y = _sheet_values(f, x, np.asarray(y, dtype=complex), gap)
    return x, y, frames, gap


def _point_rho(f, steps, gap):
    """(rho, snap): rho[i, j, k], the Bernstein parameter in v of the
    singularity that the root others[j, k] puts near the half-segment
    from root j to x[i] (abel_half_segments), gap[i] = x[i] - f.roots and
    steps from _branch_frames, and snap[i] the index of the root within
    BRANCH_SNAP times f.scale of x[i], from which alone it integrates,
    else -1.  tau_k^2 = (r_k - r_j) / (x_i - r_j); a point on root j
    takes it, and its row j means nothing."""
    rho = _bernstein_rho(np.sqrt(
        steps / np.where(gap == 0, 1.0, gap)[:, :, None]))
    dist = np.abs(gap)
    near = dist.argmin(axis=1)
    return rho, np.where(dist.min(axis=1) <= BRANCH_SNAP * f.scale, near, -1)


def _abel_ends(f, steps, gap):
    """(e, rho): the index in f.roots of the branch point e from which
    each point x[i] is integrated, gap[i] = x[i] - f.roots and steps from
    _branch_frames, and rho[i, k] the Bernstein parameter in v of the
    singularity that the root others[e[i], k] puts near that half-segment
    (abel_half_segments).  e is the nearest root within BRANCH_SNAP times
    f.scale, else the root whose narrowest ellipse is widest, ties to the
    first in f.roots."""
    rho, snap = _point_rho(f, steps, gap)
    e = np.where(snap >= 0, snap, rho.min(axis=2).argmax(axis=1))
    return e, rho[np.arange(len(e)), e]


def _abel_bounds(f, frames, e, h, rho, more=()):
    """(log_K, log_r, log_guess) of the half-segments of (1, x) and the
    numerators more (_abel_sums) from f.roots[e[i]] to x[i] = f.roots[e[i]]
    + h[i], for _node_counts, in the form _segment_bounds gives them, one
    column per point; rho from _abel_ends.

    In v the integrand sqrt(h) n_k(x) / c has c^2 = lead prod_k (x - r_k)
    = lead h^(n-1) prod_k (v - tau_k)(v + tau_k), n the degree, so on the
    Bernstein ellipse E_r inside the narrowest E_rho_k, |c| >= sqrt|lead|
    |h|^((n-1)/2) prod_k g_k, g_k = _gaps(rho_k, r), and |x| <= X = |e| +
    |h| V^2 with V = (r + 1/r)/2, where max_k n_k+(X) (_majorant) bounds
    the numerators, which bound it by M; K = 64 M r^2 / (15 (r^2 - 1)) is
    Gauss-Legendre's (_node_counts).  log_guess is log(2 |g(0)|), the
    integrand's size at x = e over the interval (log_size, with the
    numerators more sized as well): the size of the integral that the
    node count aims at before there is one."""
    r, _, _, log_size, _ = frames
    n = 2 + len(more)
    log_r = _ELLIPSES * np.log(rho.min(axis=1))
    R = np.exp(log_r)
    size = np.abs(h)
    log_h = np.log(size)
    X = np.abs(r[e]) + size * (0.5 * (R + 1.0 / R)) ** 2
    log_K = (np.log(64.0 / 15.0 * _majorant(f, X, n) / (1.0 - R ** -2.0))
             - np.log(_gaps(rho[None], R[..., None])).sum(axis=2)
             + (1.0 - 0.5 * f.degree) * log_h - 0.5 * math.log(abs(f.leading)))
    log_guess = log_size[e] + 0.5 * log_h
    if more:
        a = np.abs(r[e])
        log_guess = log_guess + np.log(_majorant(f, a, n) / np.maximum(1.0, a))
    return log_K, log_r, log_guess


def _abel_sums(x, y, h, others, N, more=()):
    """Row i: the N[i]-point Gauss-Legendre sums of the numerators 1, x
    and those of more on the half-segment from x[i] - h[i] to (x[i],
    y[i]), others[i] the other roots, over the positive nodes of every
    point in one pass: (h / y) sum w n(x) / prod_k sqrt(1 - q_k d), d = 1
    - v^2, x = x_P - h d and q_k = h / (x_P - r_k), in principal roots.
    x's sum is x_P s0 - h s1 from the sums s0 and s1 of 1 and d."""
    d, w = (np.concatenate(a) for a in
            zip(*(_legendre_nodes(int(n)) for n in N)))
    half = N // 2
    at = np.repeat(np.arange(len(N)), half)
    q = (h[:, None] / (x[:, None] - others))[at]
    g = w / np.sqrt(1.0 - q * d[:, None]).prod(axis=1)
    starts = np.cumsum(half) - half
    s0, s1 = np.add.reduceat(g, starts), np.add.reduceat(g * d, starts)
    c = h / y
    sums = [c * s0, c * (x * s0 - h * s1)]
    if more:
        xs = x[at] - h[at] * d
        sums += [c * np.add.reduceat(g * nf(xs), starts) for nf in more]
    return np.array(sums).T


def _half_segments(f, frames, x, y, e, rho, more=()):
    """(I, N, err) of the half-segments of dx/y, x dx/y and the forms of
    the numerators more, one column each, from the branch points
    f.roots[e[i]] to the points (x[i], y[i]), y from _sheet_values and
    rho[i] the ellipses of _abel_ends of point i from e[i], frames =
    _branch_frames(f): as abel_half_segments describes them."""
    r, others = frames[:2]
    h = x - r[e]
    if not (h.all() and y.all()):
        I = np.zeros((len(x), 2 + len(more)), dtype=complex)
        N = np.zeros(len(x), dtype=int)
        err = np.zeros(len(x))
        k = np.flatnonzero((h != 0) & (y != 0))
        if len(k):
            I[k], N[k], err[k] = _half_segments(f, frames, x[k], y[k], e[k],
                                                rho[k], more)
        return I, N, err
    cap = HALF_SEGMENT_MAX_NODES

    def over(k):
        return QuadratureError(
            f"the half-segment from branch point {e[k]} to x = {x[k]:.6g} "
            f"needs more than {cap} Gauss-Legendre nodes for rel. tol "
            f"{TOL:g}")

    _reach(rho.min(axis=1), cap, over)
    return _sums_to_tol(
        lambda k, n: _abel_sums(x[k], y[k], h[k], others[e[k]], n, more),
        *_abel_bounds(f, frames, e, h, rho, more), cap, over,
        _on_ladder)


def abel_half_segments(f, x, y):
    """(e, I, N, err): I[i], the integrals of (dx/y, x dx/y) from the
    branch point f.roots[e[i]] (_abel_ends) to the affine point (x[i],
    y[i]) along the straight segment, by N[i]-point Gauss-Legendre, and
    err[i] bounds its error.  A y that does not square to f(x) raises
    SheetTrackingError.

    On x = e + h v^2, h = x_P - e, y = v sqrt(h) c(x) with c(x_P) = y_P /
    sqrt(h), and c turns by prod_k sqrt((x - r_k) / (x_P - r_k)) over the
    other roots, in principal roots, each continuous along the segment
    unless r_k lies on it (Molin and Neurohr, Math. Comp. 88, 2019).  So
    dx/y = 2 sqrt(h) dv / c, and I = int_{-1}^{1} h (1, x) / (y_P prod_k
    sqrt(1 - q_k d)) dv, q_k = h / (x_P - r_k), d = 1 - v^2: an even
    integrand analytic on [-1, 1], with no sheet chain and no endpoint
    singularity, whose nearest singularities are +-tau_k, tau_k^2 = (r_k
    - e) / h.  A point on a branch point, x = e or y = 0, has I = 0 and
    N = 0.

    N is fixed beforehand from the bound of _abel_bounds, rounded up onto
    LEGENDRE_LADDER, and checked against TOL as half_segment_integrals
    checks z_star (_sums_to_tol); all points are summed in one pass.
    More than HALF_SEGMENT_MAX_NODES raises QuadratureError naming the
    point, before any sum where a root lies on its segment or so near
    that the cap cannot reach TOL (_reach).
    """
    x, y, frames, gap = _points(f, x, y)
    e, rho = _abel_ends(f, frames[2], gap)
    return (e,) + _half_segments(f, frames, x, y, e, rho)


def abel_images(f, x, y, branch, z_star):
    """A(P), the integrals of (dx/y, x dx/y) from the infinite point
    labelled 2 (the one point at infinity on degree 5) to the affine
    points P = (x[i], y[i]), one row per point, modulo the lattice;
    branch[j] is A at the branch point f.roots[j], and z_star the integral
    from label 2 to label 1 (None on degree 5).

    A point SERIES_FACTOR times the largest root modulus out or beyond is
    minus its tail to infinity (tail_integrals), moved to label 2 by
    z_star where the tail lands on label 1: a branch point's Abel image
    and a half-segment from it can be far larger than the point's own,
    where the roots lie well inside the unit disc.  Every other point is A(e) plus the half-segment
    from e (abel_half_segments), all in one sum.  A y that does not
    square to f(x) raises SheetTrackingError.
    """
    x, y, frames, gap = _points(f, x, y)
    far = np.abs(x) >= frames[4]
    if not far.any():
        e, rho = _abel_ends(f, frames[2], gap)
        return branch[e] + _half_segments(f, frames, x, y, e, rho)[0]
    A = np.empty((len(x), 2), dtype=complex)
    T, landed_plus = tail_integrals(f, x[far], y[far])
    A[far] = -T if z_star is None else np.where(landed_plus[:, None],
                                                z_star - T, -T)
    near = ~far
    if near.any():
        e, rho = _abel_ends(f, frames[2], gap[near])
        A[near] = branch[e] + _half_segments(f, frames, x[near], y[near],
                                             e, rho)[0]
    return A


# -- routes through branch points -------------------------------------------

@lru_cache(maxsize=64)
def _segment_rho(f):
    """rho[j, k]: the narrowest Bernstein ellipse of the straight segment
    between the roots r_j and r_k of f, through the other roots, as
    segment_period_integrals finds it; inf on the diagonal.  Read-only,
    and computed once per curve."""
    n = len(f.roots)
    j, k = np.triu_indices(n, 1)
    bi, d, others = _segment_frames(f.roots, list(zip(j, k)))
    rho = np.full((n, n), np.inf)
    rho[j, k] = rho[k, j] = _bernstein_rho(
        2.0 * (others - bi) / d - 1.0).min(axis=0)
    rho.setflags(write=False)
    return rho


def route_integrals(f, x0, y0, x1, y1):
    """(e0, e1, I): I[i], the integrals of (dx/y, x dx/y, r1, r2) from
    the affine point (x0[i], y0[i]) to (x1[i], y1[i]) along the route
    through the branch points f.roots[e0[i]] and f.roots[e1[i]]: minus
    the half-segment from e0 to the first point, the segment from e0 to
    e1 on the sheet of segment_sheet, none where e0 = e1, and the
    half-segment from e1 to the second point.  The legs meet at branch
    points, where both sheets do, so whichever sheet each leg takes, the
    route is a path on the curve.

    With rho_P[j] the narrowest ellipse of P's half-segment from root j
    (_point_rho), a point within BRANCH_SNAP times f.scale of a root
    taking that root alone, (e0, e1) maximizes min(rho_P0[e0],
    rho_P1[e1], _segment_rho(f)[e0, e1]), ties to the first pair in
    f.roots' order: a divisor's route is its own, whatever the batch.
    Choosing each point's root alone could put a third root on the
    segment between them.  The half-segments of every point are summed
    in one pass (abel_half_segments), and the distinct segments in one
    segment_period_integrals call.  A y that does not square to f(x)
    raises SheetTrackingError, and a leg that no rule sums within its
    node cap QuadratureError, naming it.
    """
    n = len(x0)
    x, y, frames, gap = _points(f, np.concatenate([x0, x1]),
                                np.concatenate([y0, y1]))
    rho, snap = _point_rho(f, frames[2], gap)
    width = rho.min(axis=2)
    snapped = np.flatnonzero(snap >= 0)
    width[snapped] = 0.0
    width[snapped, snap[snapped]] = np.inf
    m = len(f.roots)
    score = np.minimum(np.minimum(width[:n, :, None], width[n:, None, :]),
                       _segment_rho(f))
    pair = score.reshape(n, m * m).argmax(axis=1)
    e0, e1 = np.divmod(pair, m)
    e = np.concatenate([e0, e1])
    I = _half_segments(f, frames, x, y, e, rho[np.arange(2 * n), e],
                       second_kind_numerators(f))[0]
    I = I[n:] - I[:n]
    cross = np.flatnonzero(e0 != e1)
    if len(cross):
        pairs, at = np.unique(pair[cross], return_inverse=True)
        W = segment_period_integrals(f, f.roots,
                                     list(zip(*np.divmod(pairs, m))))[0]
        I[cross] += W[at]
    return e0, e1, I


def period_integrals(f, roots, pairs, radii):
    """(W, J, z_star) of a period build.

    W holds the loop segments' integrals, segment_period_integrals' rows,
    by Gauss-Chebyshev.  With the radii each at least SERIES_FACTOR
    times f.scale, J holds the holomorphic integrals from the infinite
    point labelled 2 (the one point at infinity on degree 5) to the
    points at those radii on the ray of argument FAR_ARG, one row per
    point, and z_star, on degree 6, the integral from label 2 to label 1
    (None on degree 5).  J and z_star are read off f.roots alone, so a
    build of the curve in any branch order makes them bit for bit the
    same.

    Every point's integral is minus its tail, summed as a series in one
    tail_integrals call.  The points are on the sheet of the principal
    root at the outermost one: the ray keeps clear of every root, so arg
    f turns along it by the sum over the roots of Arg((x - r_j) / (x_out
    - r_j)).  On degree 6 the tails are negated, with every y, if the
    outermost lands on label 1, so that every tail lands on label 2.
    z_star is the half-segment into the branch point z_star_root(f), by
    Gauss-Legendre in the chart s = 1/x (half_segment_integrals).
    """
    W = segment_period_integrals(f, roots, pairs)[0]
    xs = np.asarray(radii) * np.exp(1j * FAR_ARG)
    r = np.array(f.roots)[:, None]
    d = xs - r
    ys = np.sqrt(f.leading * d.prod(axis=0))
    ys = _signed(ys, np.angle(ys[-1]) + 0.5 * _turn(d, np.conj(d[:, -1])))
    T, landed_plus = tail_integrals(f, xs, ys)
    if f.degree == 5:
        return W, -T, None
    J = T if landed_plus[-1] else -T
    return W, J, half_segment_integrals(f, z_star_root(f))[0]
