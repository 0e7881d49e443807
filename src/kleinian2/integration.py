"""Sheet-tracked contour integration on a hyperelliptic curve y^2 = f(x).

A path in the x-plane is a stack of pieces, each parametrized over u in
[0, 1] and stored as one row (c, R, b) of a complex (P, 3) array: a line
x = c + R u has b = 0, and a circular arc x = c + R exp(b u), centred at
c, has b = i dphi, its turning angle.  x_dx evaluates x and dx/du on
every row at once, with one exp per node.  The sheet is fixed by
analytic continuation of y = sqrt(f(x)): along every piece we build a
table of (u, y) pairs dense enough that consecutive f-values differ by
less than about half a turn in argument and a factor 3 in modulus, which
pins the square-root branch at every quadrature node without ambiguity.
The table is refined level by level: f is evaluated on arrays of
parameters, once for the base grid and once per refinement level, never
one node at a time.

The same continuation engine drives the factored branch-point segments used
for period integrals, where y = s(u) sqrt(u (1-u)) with s a continuous root
of the nonvanishing cofactor, and the chart at infinity used by Abel-map
tails.

Work is stacked, not looped: all pieces of many paths, all segments of
the period loops, and a fan of radial runs or of tails each go through
one continue_sqrt call, which returns one joined table for the stack,
and one integrate_01 call, which looks the branch up in that table.
path_between continues the straight runs of all its paths in one call
and the sheet-flip loops that some of them need in a second.  Every
stacked integrand is narrowed to the integrals still open, so each
piece is integrated at the level it needs alone.
"""

from functools import lru_cache

import numpy as np

from .curve import poly_eval
from .errors import DegenerateGeometryError, SheetTrackingError
from .quadrature import integrate_01

ARG_STEP = 0.45          # max |d arg f| between continuation nodes (radians)
RATIO_STEP = 3.0         # max |f| ratio between continuation nodes
MAX_DEPTH = 26
MAX_NODES = 60000
BASE_GRID = 32           # minimum continuation nodes per path piece
DETOUR_FACTOR = 0.45     # detour radius as a fraction of root clearance
FAR_FACTOR = 12.0        # far-point radius for infinity tails, times scale
TOL_END = 1e-6           # relative miss of a path's end y against its target


def x_dx(pieces, u):
    """x and dx/du on pieces, rows (c, R, b), at parameters u, the two
    broadcast against each other: x = c + R u where b = 0, else
    c + R exp(b u)."""
    c, R, b = pieces[..., 0], pieces[..., 1], pieces[..., 2]
    e = np.exp(b * u)
    line = b == 0
    return c + R * np.where(line, u, e), R * np.where(line, 1.0, b * e)


def _step_ok(h0, h1):
    """Elementwise: is each step h0 -> h1 short enough to pin the branch?"""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = h1 / h0
    m = np.abs(r)
    return ((h0 != 0) & (h1 != 0) & (m >= 1.0 / RATIO_STEP)
            & (m <= RATIO_STEP) & (np.abs(np.angle(r)) <= ARG_STEP))


def continue_sqrt(h, seeds):
    """Continuous branches of sqrt(h) along a stack of pieces, each
    parametrized over u in [0, 1]; h(u, k) maps arrays of parameters and
    piece indices to nonzero complex values.

    h is called once on a uniform base grid of every piece and then once
    per refinement level, on the midpoints of every interval whose end
    values are not yet close in argument and modulus; refinement stops
    when all are, after which the nearer of +-sqrt(h) is provably the
    analytic continuation.  An interval's fate depends only on its end
    values, so each piece gets the nodes that bisecting it alone would
    give, within its own MAX_DEPTH and MAX_NODES.  seeds[k] must square to
    h(0, k) and fixes piece k's branch; None continues piece k from the
    end of piece k-1, checked the same way (piece 0: the principal root).
    Returns the joined table (us, ss), piece k's nodes stored at u + 2k.
    """
    n = len(seeds)
    # a closed loop can return to h(0) exactly, which would fool a pure
    # endpoint test; a uniform starting grid below the winding scale of
    # any single piece makes the refinement criterion sound
    m = BASE_GRID + 1
    k, u = np.divmod(np.arange(n * m), m)
    u = u / BASE_GRID
    hv = np.asarray(h(u, k), dtype=complex)
    # pending intervals, from grid node i to i + 1, as piece, end
    # parameters and end values; an accepted one contributes its right end
    i = np.flatnonzero(u < 1.0)
    us, ks, hs = [u[::m]], [k[::m]], [hv[::m]]
    k, u_a, u_b, h_a, h_b = k[i], u[i], u[i + 1], hv[i], hv[i + 1]
    n_nodes = np.ones(n, dtype=int)
    for depth in range(MAX_DEPTH + 1):
        ok = _step_ok(h_a, h_b)
        us.append(u_b[ok])
        ks.append(k[ok])
        hs.append(h_b[ok])
        n_nodes += np.bincount(k[ok], minlength=n)
        bad = ~ok
        if not bad.any():
            break
        k, u_a, h_a, u_b, h_b = k[bad], u_a[bad], h_a[bad], u_b[bad], h_b[bad]
        if (depth >= MAX_DEPTH
                or np.any(n_nodes + np.bincount(k, minlength=n) > MAX_NODES)):
            raise SheetTrackingError(
                "analytic continuation did not stabilize; path passes too "
                "close to a zero of f")
        u_m = 0.5 * (u_a + u_b)
        h_m = np.asarray(h(u_m, k), dtype=complex)
        k = np.concatenate([k, k])
        u_a, u_b = np.concatenate([u_a, u_m]), np.concatenate([u_m, u_b])
        h_a, h_b = np.concatenate([h_a, h_m]), np.concatenate([h_m, h_b])
    us, ks, hs = (np.concatenate(a) for a in (us, ks, hs))
    order = np.lexsort((us, ks))
    us, ks, hs = us[order], ks[order], hs[order]

    # the nearer of +-root to the previous branch value: each step's sign
    # flip against the previous principal root, accumulated from the start
    # of the last seeded piece, where the flip is the seed's own; no step
    # can tie, since consecutive values are within ARG_STEP in argument
    first = np.searchsorted(ks, np.arange(n))
    restarts = np.array([s is not None for s in seeds], dtype=bool)
    restarts[:1] = True
    restart, chained = first[restarts], first[~restarts]
    roots = np.sqrt(hs)
    s0 = np.array([roots[0] if s is None else s for s in seeds],
                  dtype=complex)[restarts]
    prev = np.concatenate([roots[:1], roots[:-1]])
    flip = np.abs(roots - prev) > np.abs(roots + prev)
    flip[restart] = np.abs(s0 - roots[restart]) > np.abs(s0 + roots[restart])
    acc = np.logical_xor.accumulate(flip)
    start = restart[np.searchsorted(restart, np.arange(len(us)), "right") - 1]
    ss = np.where(acc ^ np.concatenate([[False], acc[:-1]])[start],
                  -roots, roots)
    # each piece starts exactly on its seed or on the previous piece's end
    ss[restart] = s0
    ss[chained] = ss[chained - 1]
    y0, h0 = ss[first], hs[first]
    miss = np.abs(y0 * y0 - h0) > 1e-8 * np.maximum(np.abs(h0),
                                                      np.abs(y0) ** 2)
    if miss.any():
        raise SheetTrackingError(
            f"seed^2 does not match h(0) on piece {np.argmax(miss)}")
    return us + 2.0 * ks, ss


def lookup_sqrt(us, ss, u, hvals, k=None):
    """Branch-resolved sqrt(hvals) at parameters u using a continuation
    table; hvals of shape (len(u), P) holds the values of piece k[j] (by
    default j) in column j, read at u + 2k in the joined table of the
    pieces, where the unit gap keeps the node nearest to u + 2k, rounding
    included, in piece k."""
    u = np.asarray(u, dtype=float)
    s = np.sqrt(np.asarray(hvals, dtype=complex))
    if s.ndim == 2:
        u = u[:, None] + 2.0 * (np.arange(s.shape[1]) if k is None else k)
    # searchsorted(us, u) clipped to [1, len(us) - 1]
    idx = np.searchsorted(us[1:-1], u) + 1
    nearer_left = (us[idx] - u) > (u - us[idx - 1])
    ref = ss[np.where(nearer_left, idx - 1, idx)]
    return np.where(np.abs(s - ref) > np.abs(s + ref), -s, s)


def _piece_ends(table, k):
    """Branch values at the end, u = 1, of pieces k of a joined table."""
    return table[1][np.searchsorted(table[0], 2.0 * np.asarray(k) + 1.0)]


def integrate_forms(f, pieces, table, numerators):
    """Integrals of n_k(x)/y dx over each piece of a stack, one row per
    piece, with y read from the stack's joined table; all pieces share
    one quadrature."""
    if not len(pieces):
        return np.zeros((0, len(numerators)), dtype=complex)
    live = [pieces, None]      # the open pieces and their indices

    def narrow(k):
        live[:] = pieces[k], k

    def g(u, d0, d1):
        x, dx = x_dx(live[0], u[:, None])
        w = dx / lookup_sqrt(*table, u, f(x), live[1])
        return np.stack([nf(x) * w for nf in numerators], axis=2)

    return integrate_01(g, narrow)[0]


def holomorphic_numerators():
    """Numerators of the holomorphic basis dx/y, x dx/y."""
    return [lambda x: np.ones_like(np.asarray(x, dtype=complex)),
            lambda x: np.asarray(x, dtype=complex)]


def second_kind_numerators(f):
    """Numerators of the second-kind basis (poles only at infinity)."""
    c = f.coeffs

    def n1(x):
        return (c[3] * x + 2 * c[4] * x ** 2 + 3 * c[5] * x ** 3
                + 4 * c[6] * x ** 4) / 4.0

    def n2(x):
        return (c[5] * x ** 2 + 2 * c[6] * x ** 3) / 4.0

    return [n1, n2]


def all_numerators(f):
    return holomorphic_numerators() + second_kind_numerators(f)


def detour_radii(roots):
    """Detour disc radius of each root: a fixed fraction of its distance
    to the nearest other root.  Computed once per root set: every path
    of a curve asks for the same radii."""
    return _detour_radii(np.asarray(roots, dtype=complex).tobytes())


@lru_cache(maxsize=64)
def _detour_radii(key):
    r = np.frombuffer(key, dtype=complex)
    d = np.abs(r[:, None] - r)
    np.fill_diagonal(d, np.inf)
    radii = DETOUR_FACTOR * d.min(axis=1)
    radii.setflags(write=False)
    return radii


def line_with_detours(roots, radii, x0, x1):
    """Pieces for a straight run x0 -> x1 with minor arcs around any root
    whose detour disc the segment enters.  Disc radii are the roots'
    radii, shrunk so the endpoints stay outside."""
    x0 = complex(x0)
    x1 = complex(x1)
    d = x1 - x0
    L = abs(d)
    tiny = 1e-13 * max(1.0, abs(x0), abs(x1))
    if L <= tiny:
        return np.zeros((0, 3), dtype=complex)
    r = np.asarray(roots, dtype=complex)
    w = r - x0
    a0 = np.abs(w)
    near = np.minimum(a0, np.abs(r - x1))
    if near.min() <= tiny:
        raise DegenerateGeometryError(
            "path endpoint coincides with a branch point")
    rho = np.minimum(radii, 0.8 * near)
    # the line enters disc k for t in tm -+ half, if disc > 0; endpoints
    # are outside every disc by the radius cap, so such an interval that
    # meets (0, 1) is interior
    tm = (np.conj(d) * w).real / L ** 2
    disc = tm * tm - (a0 ** 2 - rho ** 2) / L ** 2
    half = np.sqrt(np.maximum(disc, 0.0))
    hit = np.flatnonzero((disc > 0) & (tm + half > 0) & (tm - half < 1))
    if not len(hit):
        return np.array([[x0, d, 0.0]])
    arcs = []
    for k in hit[np.argsort(tm[hit] - half[hit], kind="stable")]:
        x_in = x0 + (tm[k] - half[k]) * d
        x_out = x0 + (tm[k] + half[k]) * d
        dphi = float(np.angle((x_out - r[k]) / (x_in - r[k])))
        if abs(abs(dphi) - np.pi) < 1e-12:
            dphi = np.pi
        arcs.append((r[k], rho[k] * np.exp(1j * np.angle(x_in - r[k])),
                     1j * dphi))
    arcs = np.array(arcs)
    # the lines meet the arcs at their own end points: x0 + t_in d lies
    # off the circle by the rounding of t_in (1e-11 was seen), which is
    # large against a small detour radius, where |f| is small
    ends, _ = x_dx(arcs, np.array([[0.0], [1.0]]))
    pieces, start = [], x0
    for arc, arc_start, arc_end in zip(arcs.tolist(), *ends.tolist()):
        if abs(arc_start - start) > tiny:
            pieces.append((start, arc_start - start, 0))
        pieces.append(arc)
        start = arc_end
    if abs(x1 - start) > tiny:
        pieces.append((start, x1 - start, 0))
    return np.array(pieces)


def flip_loop_pieces(roots, radii, x_at):
    """A loop from x_at encircling the nearest root once, which lands the
    continuation on the other sheet."""
    x_at = complex(x_at)
    r_arr = np.asarray(roots)
    k = int(np.argmin(np.abs(r_arr - x_at)))
    r = complex(r_arr[k])
    if abs(x_at - r) == 0:
        raise DegenerateGeometryError("cannot flip sheets at a branch point")
    rho = min(radii[k], 0.6 * abs(x_at - r))
    arc = np.array([[r, rho * np.exp(1j * np.angle(x_at - r)), 2j * np.pi]])
    ends, _ = x_dx(arc, np.array([[0.0], [1.0]]))
    return np.concatenate([line_with_detours(roots, radii, x_at, ends[0, 0]),
                           arc,
                           line_with_detours(roots, radii, ends[1, 0], x_at)])


def _continue_runs(f, runs, y0):
    """Chains of x-plane pieces, run i from y0[i], in one continuation:
    (pieces, table, y_end), the runs stacked, their joined branch table,
    and each run's end value (y0[i] for a run of no pieces)."""
    pieces = np.concatenate(runs)
    y_end = np.array(y0, dtype=complex)
    if not len(pieces):
        return pieces, (np.zeros(0), np.zeros(0, dtype=complex)), y_end
    seeds, last, full = [], [], []
    for i, run in enumerate(runs):
        if len(run):
            seeds += [y0[i]] + [None] * (len(run) - 1)
            last.append(len(seeds) - 1)
            full.append(i)
    table = continue_sqrt(lambda u, k: f(x_dx(pieces[k], u)[0]), seeds)
    y_end[full] = _piece_ends(table, last)
    return pieces, table, y_end


def path_between(f, roots, P0, P1):
    """Paths from the affine points P0[i] to P1[i] as (pieces, table,
    path): each is the straight run with detours, plus a sheet-flip loop
    when that run lands on -y1; table is the pieces' joined branch table
    and path[k] the index of the path piece k belongs to.  The straight
    runs of all paths share one continuation, and the flip loops that are
    needed a second."""
    radii = detour_radii(roots)
    y1 = np.array([P.y for P in P1], dtype=complex)
    runs = [line_with_detours(roots, radii, a.x, b.x)
            for a, b in zip(P0, P1)]
    pieces, (us, ss), y_end = _continue_runs(f, runs, [P.y for P in P0])
    path = np.repeat(np.arange(len(runs)), [len(run) for run in runs])
    flip = np.flatnonzero(np.abs(y_end - y1) > np.abs(y_end + y1))
    if len(flip):
        loops = [flip_loop_pieces(roots, radii, P1[i].x) for i in flip]
        loop, (us_loop, ss_loop), y_end[flip] = _continue_runs(
            f, loops, y_end[flip])
        us = np.concatenate([us, us_loop + 2.0 * len(pieces)])
        ss = np.concatenate([ss, ss_loop])
        pieces = np.concatenate([pieces, loop])
        path = np.concatenate([path, np.repeat(flip, [len(lp)
                                                      for lp in loops])])
    miss = np.abs(y_end - y1) > TOL_END * np.maximum(
        np.maximum(np.abs(y_end), np.abs(y1)), 1e-300)
    if miss.any():
        i = np.argmax(miss)
        raise SheetTrackingError(
            f"continued y = {y_end[i]:.6g} does not match target "
            f"{y1[i]:.6g}")
    return pieces, (us, ss), path


# -- factored branch-point segments -----------------------------------------

def segment_period_integrals(f, roots, pairs):
    """Row p holds the integrals of (dx/y, x dx/y, r1, r2) over the
    straight segment from roots[i] to roots[j], (i, j) = pairs[p], on the
    sheet fixed by the principal cofactor root; all segments share one
    continuation and one quadrature.

    With x(u) = b_i + u (b_j - b_i) the polynomial factors through
    y = s(u) sqrt(u (1-u)), where s^2 = G(u) = -lc d^2 prod(x(u) - r_k)
    over the roots other than i and j.  G never vanishes on the segment,
    so s is a plain analytic continuation and the endpoint singularity is
    integrable by the doubly exponential rule.
    """
    roots = np.asarray(roots, dtype=complex)
    bi = np.array([roots[i] for i, _ in pairs])
    d = np.array([roots[j] for _, j in pairs]) - bi
    # others[p]: the roots off segment p, one row per segment
    others = np.array([np.delete(roots, [i, j]) for i, j in pairs])
    lead = f.leading

    def G(x, p=slice(None)):
        """Cofactor of segment p at points x on it; by default of every
        segment, along the last axis."""
        acc = -lead * d[p] * d[p]
        for r in others[p].T:
            acc = acc * (x - r)
        return acc

    g0 = G(bi + 0.0 * d)
    ref = d * f.deriv(bi)
    if np.any(np.abs(g0 - ref) > 1e-8 * np.maximum(np.abs(g0), np.abs(ref))):
        raise SheetTrackingError("factored cofactor fails the endpoint check")
    us, ss = continue_sqrt(lambda u, p: G(bi[p] + u * d[p], p),
                           np.sqrt(g0))
    nums = all_numerators(f)
    live = [np.arange(len(pairs))]     # the open segments

    def narrow(p):
        live[0] = p

    def g(u, d0, d1):
        p = live[0]
        x = bi[p] + u[:, None] * d[p]
        y = lookup_sqrt(us, ss, u, G(x, p), p) * np.sqrt(d0 * d1)[:, None]
        return np.stack([nf(x) * d[p] / y for nf in nums], axis=2)

    val, _ = integrate_01(g, narrow)
    return val


# -- tails to infinity --------------------------------------------------------

def tail_integrals(f, x_far, y_far):
    """Integrals of (dx/y, x dx/y) from far points out to infinity.

    x_far and y_far are equal-length sequences of far points; their
    tails share one continuation and one quadrature.  Returns
    (T, landed_plus): T of shape (N, 2), the two integrals along each ray
    to infinity in the compactifying chart, and a bool array, whether
    each continuation arrives at the infinite point labelled 1
    (y/x^3 -> +sqrt(f6) principal; always True on degree-5 curves).
    """
    x_far = np.asarray(x_far, dtype=complex)
    y_far = np.asarray(y_far, dtype=complex)
    if f.degree == 6:
        t1 = 1.0 / x_far
        asc = f.coeffs[::-1]          # t^6 f(1/t), ascending in t
        seeds = y_far * t1 ** 3

        def h(tau, t):
            return poly_eval(asc, (1.0 - tau) * t)

        def forms(tau, t, s):
            return [t ** 2 * (1.0 - tau)[:, None] / s, t / s]
    else:
        t1 = 1.0 / np.sqrt(x_far)
        asc = f.coeffs[5::-1]         # Q(s) = f5 + f4 s + ... + f0 s^5
        seeds = y_far * t1 ** 5

        def h(tau, t):
            return poly_eval(asc, ((1.0 - tau) * t) ** 2)

        def forms(tau, t, s):
            return [2 * t ** 3 * ((1.0 - tau) ** 2)[:, None] / s,
                    2 * t / s]

    table = continue_sqrt(lambda tau, k: h(tau, t1[k]), seeds)
    live = [np.arange(len(t1))]     # the open tails

    def narrow(k):
        live[0] = k

    def g(tau, d0, d1):
        t = t1[live[0]]
        s = lookup_sqrt(*table, tau, h(tau[:, None], t), live[0])
        return np.stack(forms(tau, t, s), axis=2)

    T, _ = integrate_01(g, narrow)
    if f.degree == 5:
        return T, np.ones(len(x_far), dtype=bool)
    s_end = _piece_ends(table, np.arange(len(x_far)))
    pr = np.sqrt(complex(f.coeffs[6]))
    return T, np.abs(s_end - pr) <= np.abs(s_end + pr)


def point_infinity_integrals(f, roots, P, scale, z_star):
    """Holomorphic integrals from the infinite point labelled 2 (the one
    point at infinity on degree 5) to each affine point of the sequence P,
    one row per point, along a tail from infinity to a far point and a
    radial run with detours.  The radial runs share one continuation and
    one quadrature, and so do the tails; a tail that lands on label 1 is
    moved to label 2 by z_star, the integral from 2 to 1 (None on degree 5).
    """
    radii = detour_radii(roots)
    runs, seeds, x_far = [], [], []
    for Q in P:
        R = max(FAR_FACTOR * scale, 2.5 * abs(Q.x))
        phi = float(np.angle(Q.x)) if abs(Q.x) > 1e-12 * scale else 0.7310
        x_far.append(R * np.exp(1j * phi))
        runs.append(line_with_detours(roots, radii, Q.x, x_far[-1]))
        seeds += [Q.y] + [None] * (len(runs[-1]) - 1)
    pieces = np.concatenate(runs)
    table = continue_sqrt(lambda u, k: f(x_dx(pieces[k], u)[0]), seeds)
    ends = np.cumsum([len(run) for run in runs])
    I_aff = np.array([v.sum(axis=0) for v in np.split(
        integrate_forms(f, pieces, table, holomorphic_numerators()),
        ends[:-1])])
    T, landed_plus = tail_integrals(f, x_far, _piece_ends(table, ends - 1))
    J = -T - I_aff
    if f.degree == 6:
        J = J + np.where(landed_plus[:, None], z_star, 0)
    return J


def infinity_to_infinity(f, roots, scale):
    """Holomorphic integrals from the infinite point labelled 2 to the one
    labelled 1, routed through a far point and a sheet-flip loop.
    Degree-6 curves only.

    The loop ends at x_far on the other sheet, -y_far.  The tail from
    there is the tail from y_far with every y negated: the same
    continuation with the opposite sign, so it is exactly -T and lands
    on the other infinite point, and needs no integration of its own."""
    x_far = FAR_FACTOR * scale * np.exp(0.7310j)
    y_far = complex(np.sqrt(f(x_far)))
    T, landed_plus = tail_integrals(f, [x_far], [y_far])
    T = T[0]
    if landed_plus[0]:
        y_far = -y_far
        T = -T
    # now the tail from x_far with seed y_far lands on label 2
    pieces = flip_loop_pieces(roots, detour_radii(roots), x_far)
    _, table, y_end = _continue_runs(f, [pieces], [y_far])
    if abs(y_end[0] + y_far) > TOL_END * abs(y_far):
        raise SheetTrackingError("flip loop failed to change sheets")
    I_loop = integrate_forms(f, pieces, table, holomorphic_numerators())
    return -T + I_loop.sum(axis=0) - T
