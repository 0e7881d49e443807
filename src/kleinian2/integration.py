"""Sheet-tracked contour integration on a hyperelliptic curve y^2 = f(x).

A path in the x-plane is a stack of pieces, each parametrized over u in
[0, 1] and stored as one row (c, R, b) of a complex (P, 3) array: a line
x = c + R u has b = 0, and a circular arc x = c + R exp(b u), centred at
c, has b = i dphi, its turning angle.  x_dx evaluates x and dx/du on
every row at once, with one exp per node where the stack has an arc.

The sheet is fixed in closed form before any quadrature, with no
continuation (Molin and Neurohr, Math. Comp. 88, 2019).  A line piece,
or an arc inside the disc about its centre, lies in a convex set that
excludes every branch point r_j but the arc's centre, so along it

    arg f(x(u)) - arg f(x(0)) = sum_j Arg((x(u) - r_j) / (x(0) - r_j))

in principal arguments, and an arc's own centre root adds exactly
Im(b) u.  Half of that is the turn of y from the piece's start value.
Every node keeps the value +-sqrt(f(x)), formed from the roots as
lead prod_j (x - r_j) with x - r_j = (c - r_j) + (x - c), so f carries
no cancellation noise near a root, and takes only its sign from the
turn; y0 sqrt(f(x)/f(x0)) would carry the start value's rounding down
the whole path.  continue_sqrt chains the turns of the pieces of a run,
so every piece's start and end value is known before any quadrature.

A path that must change sheets at its end x1 does so by a loop about
the branch point e nearest x1.  The loop's way back is its way out on
the other sheet, reversed, and its full turn about e is twice the
radial run into e, so the loop integrates to twice the run from x1 into
e.  That run's last piece factors y = sqrt(x - e) s(x) with
x - e = -R d1, from the quadrature's stable distance to the end, as the
period segments factor theirs: y = s(u) sqrt(u (1-u)) with s^2 = G(u),
the cofactor, whose turn is the same sum over the roots off the
segment.  A tail to infinity takes no quadrature: from SERIES_FACTOR
times the largest root modulus out, y / x^(d/2) is +-sqrt(lead) /
g(1/x) with g(s) = prod_j (1 - r_j s)^(-1/2), whose binomial series
converges at a ratio of 1/SERIES_FACTOR or less, so tail_integrals sums
it term by term.

Every integrand is n_k(x)/y dx on a sheet returning (x, dx/du, y)
(_piece_values), and integrands are stacked, not looped: all pieces of
many paths, or a whole period build (its loop segments and, on degree
6, the run from its far point into a branch point: period_integrals),
go through one integrate_01 call.  _integrate_stack takes groups of
integrals, each of one kind, narrows each group's sheet to the integrals
still open, so each is integrated at the level it needs alone, and pads
the components a group lacks with zeros.  Only the integrands run on
arrays, a row per quadrature node.  Path geometry and sheet chaining
are scalar passes in complex arithmetic: line_with_detours loops over
the roots of one path, and continue_sqrt over the pieces of a stack,
each with a few operations per root, where numpy calls on 5- or
6-element arrays would cost more than the arithmetic.
path_between chains the straight runs of all its paths in one
continue_sqrt call and the runs into a branch point that some of them
need, when one has several pieces, in a second.

Paths read the branch points off the curve, f.roots, and their detour
radii off detour_radii(f), once per curve.  The branch order is the
period build's alone, naming its loop segments; line_with_detours,
nearest_branch_point and run_into_branch_point take any root list.
"""

import cmath
import math
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, count

import numpy as np

from .errors import DegenerateGeometryError, SheetTrackingError
from .quadrature import integrate_01

DETOUR_FACTOR = 0.45     # detour radius as a fraction of root clearance
SERIES_FACTOR = 2.0      # a tail is a series from this radius, times max|r|
FAR_FACTOR = 12.0        # radius of the period build's far point, times scale
FAR_ARG = 0.7310         # direction of the period build's far point


def _steps(pieces, u):
    """x - c and dx/du on pieces, rows (c, R, b), at parameters u, the two
    broadcast against each other: R u where b = 0, else R exp(b u)."""
    R, b = pieces[..., 1], pieces[..., 2]
    if not b.any():
        step = R * u
        return step, R * np.ones_like(step)
    e = np.exp(b * u)
    line = b == 0
    return R * np.where(line, u, e), R * np.where(line, 1.0, b * e)


def x_dx(pieces, u):
    """x and dx/du on pieces, rows (c, R, b), at parameters u, the two
    broadcast against each other: x = c + R u where b = 0, else
    c + R exp(b u)."""
    step, dx = _steps(pieces, u)
    return pieces[..., 0] + step, dx


def _signed(s, psi):
    """s or -s, whichever has its phase within a right angle of psi."""
    return s * np.copysign(1.0, np.cos(np.angle(s) - psi))


def _turn(d, c0, off=None):
    """The turn of arg f from x(0) to x, shape (N, P), on each of P
    pieces, from d = x - r, shape (n, N, P), for the roots r: the sum over
    the roots of the principal Arg(d_j c0_j), c0 = conj(x(0) - r) of shape
    (n, P), over the roots where off is True if off is given."""
    a = np.angle(d * c0[:, None])
    if off is not None:
        a *= off[:, None]
    return a.sum(axis=0)


def _piece_frames(roots, pieces):
    """(c0, off, wind, into) of a stack of pieces for _turn, roots r
    along the first axis: c0[j, k] = conj(x_k(0) - r_j), into[j, k]
    True where line k ends on r_j (a run into a branch point), off[j, k]
    False there and where arc k is centred on r_j, else True, and wind[k]
    the turning rate Im(b) of an arc centred on a root, else 0.  Arcs
    are centred exactly on a root, as line_with_detours builds them, or
    on none; a line ends on a root if it ends within the tolerance at
    which line_with_detours refuses any other end point."""
    c, R, b = pieces.T
    arc = b != 0
    x1 = c + R
    tiny = 1e-13 * np.maximum(1.0, np.maximum(np.abs(c), np.abs(x1)))
    into = ~arc & (np.abs(x1 - roots[:, None]) <= tiny)
    c0 = np.conj(np.where(arc, x1, c) - roots[:, None])
    off = ((c != roots[:, None]) | ~arc) & ~into
    return c0, off, np.where(off.all(axis=0), 0.0, b.imag), into


def continue_sqrt(f, pieces, seeds):
    """Start and end values (y0, y1) of y = sqrt(f(x)) on each piece of a
    stack, continued in closed form.

    seeds[k] must square to f at the start of piece k and fixes its
    sheet; None chains piece k on from the end of piece k-1 (piece 0:
    the principal root), where piece k must start, to well within its
    distance from the nearest root.  Each end value is +-sqrt(f(x(1))),
    formed from the roots as piece_sheet forms it, with the sign of the
    seed of its run turned by the turns of the run's pieces up to it.
    One scalar pass over the pieces: the frames of _piece_frames, piece
    by piece, with no array work but f at the seeded starts.
    """
    n = len(seeds)
    if not n:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=complex)
    rows = pieces.tolist()
    seeded = [k for k in range(n) if k == 0 or seeds[k] is not None]
    f0 = f(np.array([c + R if b else c for c, R, b in
                     (rows[k] for k in seeded)], dtype=complex)).tolist()
    y_seed = {}
    for k, fx in zip(seeded, f0):
        y = cmath.sqrt(fx) if seeds[k] is None else complex(seeds[k])
        if abs(y * y - fx) > 1e-8 * max(abs(fx), abs(y) ** 2):
            raise SheetTrackingError(
                f"seed^2 does not match f(x) at the start of piece {k}")
        y_seed[k] = y
    lead = f.leading
    y0, y1 = [], []
    for k, (c, R, b) in enumerate(rows):
        if b:
            x0, step = c + R, R * cmath.exp(b)
        else:
            x0, step = c, R
            x1 = c + R
            tiny = 1e-13 * max(1.0, abs(c), abs(x1))
        # the turn of arg f over the piece: Arg((x(1) - r_j) conj(x(0) -
        # r_j)) summed over the roots off the piece, and the arc's wind
        # if one root is its centre or the line's end (no turn: b = 0)
        turn, prod = 0.0, 1.0
        for r in f.roots:
            d = (c - r) + step      # x(1) - r_j, as piece_sheet has it
            prod *= d
            if (c == r) if b else (abs(x1 - r) <= tiny):
                turn += b.imag
            else:
                turn += cmath.phase(d * (x0 - r).conjugate())
        if k in y_seed:
            start = y_seed[k]
            psi = cmath.phase(start)
        else:
            gap = abs(x0 - x_end)
            if gap and gap > 1e-6 * min(abs(x0 - r) for r in f.roots):
                raise SheetTrackingError(
                    f"piece {k} does not start where the piece before it "
                    "ends")
            start = y1[-1]
        psi += 0.5 * turn
        y = cmath.sqrt(lead * prod)
        y0.append(start)
        y1.append(-y if math.cos(cmath.phase(y) - psi) < 0 else y)
        x_end = c + step
    return np.array(y0, dtype=complex), np.array(y1, dtype=complex)


def piece_sheet(f, pieces, y0):
    """y on a stack of pieces: rows(k) is the sheet of pieces k, a
    function of parameters u, shape (N, 1), and of d1 = 1 - u, computed
    stably, returning (x, dx/du, y) at u on those pieces, y the root of
    f(x) on the sheet that starts piece k at y0[k].  y^2 is formed as
    lead prod_j (x - r_j) with x - r_j = (c - r_j) + (x - c), exactly
    R exp(b u) about an arc's own centre and -R d1 at the end of a run
    into a branch point, so f carries no cancellation noise near a root
    and the endpoint singularity of a run into one none at all.  An
    integrand narrows by taking rows once per narrowing."""
    r = np.array(f.roots)[:, None]
    c0, off, wind, into = _piece_frames(r[:, 0], pieces)
    phase0 = np.angle(y0)
    lead = f.leading
    offset = pieces[:, 0] - r      # c - r_j, (n, P)

    def rows(k):
        p, c, o, w, ph = pieces[k], c0[:, k], off[:, k], wind[k], phase0[k]
        a, own = offset[:, k][:, None], into[:, k][:, None]
        winds, dives = w.any(), own.any()

        def sheet(u, d1):
            step, dx = _steps(p, u)
            d = a + step
            if dives:
                d = np.where(own, -p[:, 1] * d1, d)
            if winds or dives:
                turn = _turn(d, c, o) + w * u
            else:
                turn = _turn(d, c)
            y = np.sqrt(lead * d.prod(axis=0))
            return p[:, 0] + step, dx, _signed(y, ph + 0.5 * turn)

        return sheet

    return rows


def _piece_values(sheet, numerators, u, d1):
    """The integrands n_k(x)/y dx/du at u, shape (len(u), P,
    len(numerators)), on the sheet of P pieces or segments of piece_sheet
    or segment_sheet."""
    x, dx, y = sheet(u[:, None], d1[:, None])
    return np.stack([nf(x) * dx / y for nf in numerators], axis=2)


def _integrate_stack(groups):
    """One integrate_01 call over stacked groups (rows, n, numerators).
    A group holds n integrals of n_k(x)/y dx on one kind of sheet, rows(k)
    the sheet of those with indices k, narrowed to the integrals still
    open, and its numerators are padded with zeros to the longest list.
    Returns the integrals, shape (sum of n, width), in group order."""
    ends = list(accumulate(n for _, n, _ in groups))
    width = max(len(numerators) for _, _, numerators in groups)
    if not ends[-1]:
        return np.zeros((0, width), dtype=complex)

    def open_sheets(k):
        """(sheet, padded numerators) of the open integrals k, ascending
        stack indices, group by group."""
        parts, i, lo, ks = [], 0, 0, k.tolist()
        for (rows, _, numerators), hi in zip(groups, ends):
            j = bisect_left(ks, hi, i)
            if j > i:
                parts.append((rows(k[i:j] - lo if lo else k[i:j]), numerators
                              + [np.zeros_like] * (width - len(numerators))))
            i, lo = j, hi
        return parts

    live = [open_sheets(np.arange(ends[-1]))]

    def narrow(k):
        live[0] = open_sheets(k)

    def g(u, d0, d1):
        return np.concatenate([_piece_values(*part, u, d1)
                               for part in live[0]], axis=1)

    return integrate_01(g, narrow)[0]


def integrate_forms(f, pieces, y0, numerators):
    """Integrals of n_k(x)/y dx over each piece of a stack, one row per
    piece, piece k on the sheet that starts it at y0[k]; all pieces share
    one quadrature."""
    return _integrate_stack([(piece_sheet(f, pieces, y0),
                              len(pieces), numerators)])


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


@lru_cache(maxsize=64)
def detour_radii(f):
    """Detour disc radius of each of f.roots: a fixed fraction of its
    distance to the nearest other root.  Computed once per curve: every
    path of a curve asks for the same radii."""
    r = np.array(f.roots)
    d = np.abs(r[:, None] - r)
    np.fill_diagonal(d, np.inf)
    radii = DETOUR_FACTOR * d.min(axis=1)
    radii.setflags(write=False)
    return radii


def line_with_detours(roots, radii, x0, x1, into=None):
    """Pieces for a straight run x0 -> x1 with minor arcs around any root
    whose detour disc the segment enters.  Disc radii are the roots'
    radii, shrunk so the endpoints stay outside.  A run into the branch
    point roots[into] ends at x1 = roots[into], which gets no disc."""
    x0 = complex(x0)
    x1 = complex(x1)
    d = x1 - x0
    L = abs(d)
    tiny = 1e-13 * max(1.0, abs(x0), abs(x1))
    if L <= tiny:
        return np.zeros((0, 3), dtype=complex)
    # the line enters disc k for t in tm -+ half, if disc > 0; endpoints
    # are outside every disc by the radius cap, so such an interval that
    # meets (0, 1) is interior
    hits = []
    for k, (r, radius) in enumerate(zip(map(complex, roots),
                                        map(float, radii))):
        if k == into:
            continue
        w = r - x0
        a0 = abs(w)
        near = min(a0, abs(r - x1))
        if near <= tiny:
            raise DegenerateGeometryError(
                "path endpoint coincides with a branch point")
        rho = min(radius, 0.8 * near)
        tm = (d.conjugate() * w).real / L ** 2
        disc = tm * tm - (a0 ** 2 - rho ** 2) / L ** 2
        if disc > 0:
            half = math.sqrt(disc)
            if tm + half > 0 and tm - half < 1:
                hits.append((tm - half, tm + half, r, rho))
    if not hits:
        return np.array([[x0, d, 0.0]])
    hits.sort(key=lambda hit: hit[0])
    arcs = []
    for t_in, t_out, r, rho in hits:
        a_in = x0 + t_in * d - r
        dphi = cmath.phase((x0 + t_out * d - r) / a_in)
        if abs(abs(dphi) - math.pi) < 1e-12:
            dphi = math.pi
        arcs.append((r, cmath.rect(rho, cmath.phase(a_in)), 1j * dphi))
    # the lines meet the arcs at their own end points: x0 + t_in d lies
    # off the circle by the rounding of t_in (1e-11 was seen), which is
    # large against a small detour radius, where |f| is small; an arc
    # starts at c + R exactly, and ends where x_dx puts it
    ends = x_dx(np.array(arcs), 1.0)[0].tolist()
    pieces, start = [], x0
    for arc, arc_end in zip(arcs, ends):
        arc_start = arc[0] + arc[1]
        if abs(arc_start - start) > tiny:
            pieces.append((start, arc_start - start, 0))
        pieces.append(arc)
        start = arc_end
    if abs(x1 - start) > tiny:
        pieces.append((start, x1 - start, 0))
    return np.array(pieces, dtype=complex)


def nearest_branch_point(roots, x):
    """Index of the branch point nearest x, where a run from x ends."""
    return int(np.argmin(np.abs(np.asarray(roots, dtype=complex) - x)))


def run_into_branch_point(roots, radii, x):
    """Pieces of the run from x into its nearest branch point e, with
    detours about the others.  Twice its integral, on the sheet it
    starts on, is that of the sheet-flip loop about e from x: the loop's
    way back is its way out on the other sheet, reversed, and its full
    turn about e is twice the radial run into e."""
    e = nearest_branch_point(roots, x)
    return line_with_detours(roots, radii, x, roots[e], e)


def _continue_runs(f, runs, y0):
    """Chains of x-plane pieces, run i from y0[i], in one continue_sqrt
    call, or none if no run has a piece: (pieces, starts, y_end), the
    runs stacked, each piece's start value, and each run's end value
    (y0[i] for a run of no pieces)."""
    pieces = np.concatenate(runs)
    y_end = np.array(y0, dtype=complex)
    seeds, last, full = [], [], []
    for i, run in enumerate(runs):
        if len(run):
            seeds += [y0[i]] + [None] * (len(run) - 1)
            last.append(len(seeds) - 1)
            full.append(i)
    if not seeds:
        return pieces, np.zeros(0, dtype=complex), y_end
    starts, ends = continue_sqrt(f, pieces, seeds)
    y_end[full] = ends[last]
    return pieces, starts, y_end


def path_between(f, P0, P1):
    """Paths from the affine points P0[i] to P1[i] as (pieces, y0, path,
    weight): each is the straight run with detours, plus, when that run
    lands on -y1, a sheet flip; y0 holds each piece's start value,
    path[k] the index of the path piece k belongs to and weight[k] its
    multiplicity.  The flip is the loop about the branch point nearest
    x1, from -y1 back to y1, which integrates to twice the run from x1
    into that point (run_into_branch_point): the run's pieces, of weight
    2.  The straight runs of all paths are chained in one continue_sqrt
    call, and the runs into a branch point that are needed in a
    second."""
    roots, radii = f.roots, detour_radii(f)
    x1 = np.array([P.x for P in P1], dtype=complex)
    y1 = np.array([P.y for P in P1], dtype=complex)
    f1 = f(x1)
    miss = np.abs(y1 * y1 - f1) > 1e-8 * np.maximum(np.abs(f1),
                                                     np.abs(y1) ** 2)
    if miss.any():
        raise SheetTrackingError(
            f"target y = {y1[np.argmax(miss)]:.6g} does not square to f(x)")
    runs = [line_with_detours(roots, radii, a.x, b)
            for a, b in zip(P0, x1)]
    pieces, y0, y_end = _continue_runs(f, runs, [P.y for P in P0])
    path = np.repeat(np.arange(len(runs)), [len(run) for run in runs])
    weight = np.ones(len(pieces))
    flip = np.flatnonzero(np.abs(y_end - y1) > np.abs(y_end + y1))
    if len(flip):
        dives = [run_into_branch_point(roots, radii, x1[i]) for i in flip]
        # seeded at -y1 itself, not at the run's end value, which is
        # sqrt(f) at the rounded end of the run; a run of one piece
        # starts at its seed and needs no chain
        lens = np.array([len(d) for d in dives])
        if lens.max() <= 1:
            dive, y0_dive = np.concatenate(dives), -y1[flip][lens == 1]
        else:
            dive, y0_dive, _ = _continue_runs(f, dives, -y1[flip])
        pieces = np.concatenate([pieces, dive])
        y0 = np.concatenate([y0, y0_dive])
        path = np.concatenate([path, np.repeat(flip, lens)])
        weight = np.concatenate([weight, np.full(len(dive), 2.0)])
    return pieces, y0, path, weight


# -- factored branch-point segments -----------------------------------------

def segment_sheet(f, roots, pairs):
    """The straight segments from roots[i] to roots[j], (i, j) = pairs[p]:
    rows(p) is the sheet of segments p, a function of parameters u, shape
    (N, 1), and of d1 = 1 - u, computed stably, returning (x, dx/du, y) at
    u on those segments, x = roots[i] + u (roots[j] - roots[i]), with
    y = s sqrt(u d1) and s the root of the cofactor G on the sheet of its
    principal root at u = 0.

    With x(u) = b_i + u (b_j - b_i) the polynomial factors through
    y = s(u) sqrt(u (1-u)), where s^2 = G(u) = -lc d^2 prod(x(u) - r_k)
    over the roots other than i and j.  G never vanishes on the segment,
    and its turn is the sum over those roots, so s is fixed in closed form
    and the endpoint singularity is integrable by the doubly exponential
    rule.
    """
    roots = np.asarray(roots, dtype=complex)
    bi = np.array([roots[i] for i, _ in pairs])
    d = np.array([roots[j] for _, j in pairs]) - bi
    # the roots off each segment, one column per segment
    others = np.array([np.delete(roots, [i, j]) for i, j in pairs]).T
    lead = f.leading

    def G(x, d, others):
        """Cofactor at points x on the segments of steps d and the given
        other roots, segments along the last axis."""
        acc = -lead * d * d
        for r in others:
            acc = acc * (x - r)
        return acc

    g0 = G(bi + 0.0 * d, d, others)
    ref = d * f.deriv(bi)
    if np.any(np.abs(g0 - ref) > 1e-8 * np.maximum(np.abs(g0), np.abs(ref))):
        raise SheetTrackingError("factored cofactor fails the endpoint check")
    phase0 = np.angle(np.sqrt(g0))
    c0 = np.conj(bi - others)

    def rows(p):
        b, dp, r, c, ph = bi[p], d[p], others[:, p], c0[:, p], phase0[p]

        def sheet(u, d1):
            x = b + u * dp
            psi = ph + 0.5 * _turn(x - r[:, None], c)
            s = _signed(np.sqrt(G(x, dp, r)), psi)
            return x, dp, s * np.sqrt(u * d1)

        return sheet

    return rows


def segment_period_integrals(f, roots, pairs):
    """Row p holds the integrals of (dx/y, x dx/y, r1, r2) over the
    straight segment from roots[i] to roots[j], (i, j) = pairs[p], on the
    sheet of segment_sheet; all segments share one quadrature.  The
    segments alone of period_integrals."""
    return period_integrals(f, roots, pairs)[0]


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


def point_infinity_integrals(f, P, z_star):
    """Holomorphic integrals from the infinite point labelled 2 (the one
    point at infinity on degree 5) to each affine point of the sequence P,
    one row per point, along a tail from infinity to a far point and a
    radial run with detours.  The far point is the point itself if it
    lies SERIES_FACTOR times the root scale out or beyond, and takes no
    run; else it lies at that radius, in its direction.  The radial runs
    share one chain and one quadrature, and the tails are summed in
    closed form (tail_integrals); a tail that lands on label 1 is moved
    to label 2 by z_star, the integral from 2 to 1 (None on degree 5).
    """
    roots, radii = f.roots, detour_radii(f)
    R = SERIES_FACTOR * f.scale
    runs, x_far = [], []
    for Q in P:
        if abs(Q.x) >= R:
            x_far.append(Q.x)
        else:
            phi = (float(np.angle(Q.x)) if abs(Q.x) > 1e-12 * f.scale
                   else FAR_ARG)
            x_far.append(R * np.exp(1j * phi))
        runs.append(line_with_detours(roots, radii, Q.x, x_far[-1]))
    pieces, y0, y_far = _continue_runs(f, runs, [Q.y for Q in P])
    T, landed_plus = tail_integrals(f, x_far, y_far)
    J = -T
    if len(pieces):
        ends = np.cumsum([len(run) for run in runs])
        J -= [v.sum(axis=0) for v in np.split(integrate_forms(
            f, pieces, y0, holomorphic_numerators()), ends[:-1])]
    if f.degree == 6:
        J = J + np.where(landed_plus[:, None], z_star, 0)
    return J


def far_point(scale):
    """The period build's far point, where z_star changes sheets."""
    return FAR_FACTOR * scale * np.exp(1j * FAR_ARG)


def period_integrals(f, roots, pairs, radii=None):
    """(W, J, z_star) of a period build, in one quadrature.

    Row p of W holds the integrals of (dx/y, x dx/y, r1, r2) over the
    straight segment from roots[i] to roots[j], (i, j) = pairs[p], on the
    sheet of segment_sheet.  Given the radii, each at least SERIES_FACTOR
    times f.scale, J holds the holomorphic integrals from the infinite
    point labelled 2 (the one point at infinity on degree 5) to the
    points at those radii in the direction of x_far = far_point(f.scale),
    one row per point, and z_star, on degree 6, the integral from label 2
    to label 1 (None on degree 5), both read off f.roots; without the
    radii J and z_star are None.

    Every point's integral is minus its tail, summed as a series in one
    tail_integrals call with x_far's.  x_far's seed y_far is the root of
    f(x_far) whose tail lands on label 2: the tail from -y_far is the
    same with every y negated, so the principal root and every T are
    negated if its tail lands on label 1.  The points are on the sheet of
    y_far: the ray from x_far to each keeps clear of every root, so arg f
    turns along it by the sum over the roots of Arg((x - r_j) / (x_far -
    r_j)).  On degree 6 a sheet-flip loop at x_far about its nearest
    branch point runs from y_far to -y_far, whose tail, exactly -T, lands
    on label 1, so z_star = -T + I_loop - T, I_loop twice the run from
    x_far into that point (run_into_branch_point): one sheet chain,
    seeded at y_far, and with the segments one integrate_01 stack.  On
    degree 5 the segments are the stack.
    """
    segments = (segment_sheet(f, roots, pairs), len(pairs), all_numerators(f))
    if radii is None:
        return _integrate_stack([segments]), None, None
    x_far = far_point(f.scale)
    y_far = complex(np.sqrt(f(x_far)))
    xs = np.append(np.asarray(radii) * np.exp(1j * FAR_ARG), x_far)
    r = np.array(f.roots)[:, None]
    d = xs - r
    ys = _signed(np.sqrt(f.leading * d.prod(axis=0)),
                 cmath.phase(y_far) + 0.5 * _turn(d, np.conj(x_far - r[:, 0])))
    T, landed_plus = tail_integrals(f, xs, ys)
    if f.degree == 6 and landed_plus[-1]:
        y_far, T = -y_far, -T
    J = -T[:-1]
    if f.degree == 5:
        return _integrate_stack([segments]), J, None
    dive = run_into_branch_point(f.roots, detour_radii(f), x_far)
    y0, _ = continue_sqrt(f, dive, [y_far] + [None] * (len(dive) - 1))
    vals = _integrate_stack([segments, (piece_sheet(f, dive, y0),
                                        len(dive), holomorphic_numerators())])
    n = len(pairs)
    return vals[:n], J, 2.0 * (vals[n:, :2].sum(axis=0) - T[-1])
