"""Sheet-tracked contour integration on a hyperelliptic curve y^2 = f(x).

A path in the x-plane is a list of pieces (lines and circular arcs), each
parametrized over u in [0, 1].  The sheet is fixed by analytic continuation
of y = sqrt(f(x)): along every piece we build a table of (u, y) pairs dense
enough that consecutive f-values differ by less than about half a turn in
argument and a factor 3 in modulus, which pins the square-root branch at
every quadrature node without ambiguity.  The table is refined level by
level: f is evaluated on arrays of parameters, once for the base grid and
once per refinement level, never one node at a time.

The same continuation engine drives the factored branch-point segments used
for period integrals, where y = s(u) sqrt(u (1-u)) with s a continuous root
of the nonvanishing cofactor, and the chart at infinity used by Abel-map
tails.
"""

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Line:
    z0: complex
    z1: complex

    def x_of(self, u):
        return self.z0 + u * (self.z1 - self.z0)

    def dx_of(self, u):
        return np.full_like(np.asarray(u, dtype=complex), self.z1 - self.z0)


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    phi0: float
    phi1: float

    def x_of(self, u):
        return self.center + self.radius * np.exp(
            1j * (self.phi0 + u * (self.phi1 - self.phi0)))

    def dx_of(self, u):
        return 1j * (self.phi1 - self.phi0) * (self.x_of(u) - self.center)


def _step_ok(h0, h1):
    """Elementwise: is each step h0 -> h1 short enough to pin the branch?"""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = h1 / h0
    m = np.abs(r)
    return ((h0 != 0) & (h1 != 0) & (m >= 1.0 / RATIO_STEP)
            & (m <= RATIO_STEP) & (np.abs(np.angle(r)) <= ARG_STEP))


def continue_sqrt(h, seed=None):
    """Continuous branch of sqrt(h(u)) on u in [0, 1].

    h maps an array of parameters to nonzero complex values.  It is called
    once on a uniform base grid and then once per refinement level, on the
    midpoints of every interval whose end values are not yet close in
    argument and modulus; refinement stops when all are, after which the
    nearer of +-sqrt(h) is provably the analytic continuation.  Each
    interval's fate depends only on its two end values, so the node set
    is the one bisecting interval by interval would give.  Returns
    (us, ss): node parameters in increasing order and branch values.
    If seed is given it must square to h(0) and fixes the branch;
    otherwise the principal root at u = 0 is used.
    """
    # a closed loop can return to h(0) exactly, which would fool a pure
    # endpoint test; a uniform starting grid below the winding scale of
    # any single piece makes the refinement criterion sound
    u_init = np.linspace(0.0, 1.0, BASE_GRID + 1)
    h_init = np.asarray(h(u_init), dtype=complex)
    h0 = complex(h_init[0])
    # pending intervals as end parameters and end values; an accepted
    # interval contributes its right end
    u_a, h_a, u_b, h_b = u_init[:-1], h_init[:-1], u_init[1:], h_init[1:]
    us, hs = [u_init[:1]], [h_init[:1]]
    n_nodes = 1
    for depth in range(MAX_DEPTH + 1):
        ok = _step_ok(h_a, h_b)
        us.append(u_b[ok])
        hs.append(h_b[ok])
        n_nodes += int(np.count_nonzero(ok))
        bad = ~ok
        if not bad.any():
            break
        u_a, h_a, u_b, h_b = u_a[bad], h_a[bad], u_b[bad], h_b[bad]
        if depth >= MAX_DEPTH or n_nodes + len(u_a) > MAX_NODES:
            raise SheetTrackingError(
                "analytic continuation did not stabilize; path passes too "
                "close to a zero of f")
        u_m = 0.5 * (u_a + u_b)
        h_m = np.asarray(h(u_m), dtype=complex)
        u_a, u_b = np.concatenate([u_a, u_m]), np.concatenate([u_m, u_b])
        h_a, h_b = np.concatenate([h_a, h_m]), np.concatenate([h_m, h_b])
    us = np.concatenate(us)
    order = np.argsort(us)
    us = us[order]
    hs = np.concatenate(hs)[order]

    if seed is None:
        s0 = np.sqrt(h0)
    else:
        s0 = complex(seed)
        if abs(s0 * s0 - h0) > 1e-8 * max(abs(h0), abs(s0) ** 2):
            raise SheetTrackingError(
                f"seed^2 = {s0 * s0:.6g} does not match h(0) = {h0:.6g}")
    # the nearer of +-root to the previous branch value: each step's sign
    # flip against the previous principal root, accumulated; no step can
    # tie, since consecutive values are within ARG_STEP in argument
    roots = np.sqrt(hs)
    prev = np.concatenate([[s0], roots[1:-1]])
    flip = np.abs(roots[1:] - prev) > np.abs(roots[1:] + prev)
    ss = np.empty_like(hs)
    ss[0] = s0
    ss[1:] = np.where(np.logical_xor.accumulate(flip), -roots[1:], roots[1:])
    return us, ss


def lookup_sqrt(us, ss, u, hvals):
    """Branch-resolved sqrt(hvals) at parameters u using a continuation table."""
    u = np.asarray(u, dtype=float)
    s = np.sqrt(np.asarray(hvals, dtype=complex))
    idx = np.clip(np.searchsorted(us, u), 1, len(us) - 1)
    nearer_left = (us[idx] - u) > (u - us[idx - 1])
    ref = ss[np.where(nearer_left, idx - 1, idx)]
    return np.where(np.abs(s - ref) > np.abs(s + ref), -s, s)


@dataclass
class SheetPath:
    """A concrete path on the curve: x-plane pieces plus branch tables."""
    f: object
    pieces: list
    tables: list = field(default_factory=list)
    y_start: complex = 0j
    y_end: complex = 0j

    @classmethod
    def build(cls, f, pieces, y_start):
        path = cls(f=f, pieces=[], y_start=complex(y_start),
                   y_end=complex(y_start))
        path.extend(pieces)
        return path

    def extend(self, pieces):
        """Continue the path along further pieces from its current end."""
        for pc in pieces:
            us, ss = continue_sqrt(lambda u, pc=pc: self.f(pc.x_of(u)),
                                   seed=self.y_end)
            self.pieces.append(pc)
            self.tables.append((us, ss))
            self.y_end = complex(ss[-1])

    def y_at(self, i, u, x):
        us, ss = self.tables[i]
        return lookup_sqrt(us, ss, u, self.f(x))


def integrate_forms(path, numerators):
    """Integrals of n_k(x)/y dx along a SheetPath, one per numerator."""
    total = np.zeros(len(numerators), dtype=complex)
    for i, pc in enumerate(path.pieces):
        def g(u, d0, d1, i=i, pc=pc):
            x = pc.x_of(u)
            dx = pc.dx_of(u)
            y = path.y_at(i, u, x)
            return np.stack([nf(x) * dx / y for nf in numerators], axis=1)
        val, _ = integrate_01(g)
        total += val
    return total


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


def _clearances(roots):
    r = np.asarray(roots)
    n = len(r)
    d = np.abs(r[:, None] - r[None, :]) + np.where(np.eye(n) > 0, np.inf, 0)
    return d.min(axis=1)


def line_with_detours(roots, x0, x1):
    """Pieces for a straight run x0 -> x1 with minor arcs around any root
    whose detour disc the segment enters.  Disc radii are a fixed fraction
    of each root's clearance, shrunk so the endpoints stay outside."""
    x0 = complex(x0)
    x1 = complex(x1)
    d = x1 - x0
    L = abs(d)
    tiny = 1e-13 * max(1.0, abs(x0), abs(x1))
    if L <= tiny:
        return []
    clear = _clearances(roots)
    events = []
    for k, r in enumerate(roots):
        if abs(r - x0) <= tiny or abs(r - x1) <= tiny:
            raise DegenerateGeometryError(
                "path endpoint coincides with a branch point")
        rho = min(DETOUR_FACTOR * clear[k],
                  0.8 * abs(r - x0), 0.8 * abs(r - x1))
        tm = (np.conj(d) * (r - x0)).real / L ** 2
        disc = tm * tm - (abs(r - x0) ** 2 - rho ** 2) / L ** 2
        if disc <= 0:
            continue
        t_in = tm - np.sqrt(disc)
        t_out = tm + np.sqrt(disc)
        if t_out <= 0 or t_in >= 1:
            continue
        # endpoints are outside every disc by the radius cap, so the
        # crossing interval is interior
        events.append((t_in, t_out, r, rho))
    events.sort(key=lambda e: e[0])
    pieces = []
    cur = x0
    for t_in, t_out, r, rho in events:
        x_in = x0 + t_in * d
        x_out = x0 + t_out * d
        phi_in = float(np.angle(x_in - r))
        dphi = float(np.angle((x_out - r) / (x_in - r)))
        if abs(abs(dphi) - np.pi) < 1e-12:
            dphi = np.pi
        arc = Arc(r, rho, phi_in, phi_in + dphi)
        # the lines meet the arc at its own end points: x0 + t_in d lies
        # off the circle by the rounding of t_in (1e-11 was seen), which
        # is large against a small detour radius, where |f| is small
        x_in, x_out = complex(arc.x_of(0.0)), complex(arc.x_of(1.0))
        if abs(x_in - cur) > tiny:
            pieces.append(Line(cur, x_in))
        pieces.append(arc)
        cur = x_out
    if abs(x1 - cur) > tiny:
        pieces.append(Line(cur, x1))
    return pieces


def flip_loop_pieces(roots, x_at):
    """A loop from x_at encircling the nearest root once, which lands the
    continuation on the other sheet."""
    x_at = complex(x_at)
    r_arr = np.asarray(roots)
    k = int(np.argmin(np.abs(r_arr - x_at)))
    r = complex(r_arr[k])
    if abs(x_at - r) == 0:
        raise DegenerateGeometryError("cannot flip sheets at a branch point")
    clear = _clearances(roots)[k]
    rho = min(DETOUR_FACTOR * clear, 0.6 * abs(x_at - r))
    phi = float(np.angle(x_at - r))
    arc = Arc(r, rho, phi, phi + 2 * np.pi)
    return (line_with_detours(roots, x_at, complex(arc.x_of(0.0)))
            + [arc]
            + line_with_detours(roots, complex(arc.x_of(1.0)), x_at))


def path_between(f, roots, P0, P1):
    """SheetPath from affine point P0 to affine point P1, inserting a
    sheet-flip loop when the straight continuation lands on -y1."""
    path = SheetPath.build(f, line_with_detours(roots, P0.x, P1.x), P0.y)
    ref = max(abs(path.y_end), abs(P1.y), 1e-300)
    if abs(path.y_end - P1.y) > abs(path.y_end + P1.y):
        path.extend(flip_loop_pieces(roots, P1.x))
    if abs(path.y_end - P1.y) > TOL_END * ref:
        raise SheetTrackingError(
            f"continued y = {path.y_end:.6g} does not match target "
            f"{P1.y:.6g}")
    return path


# -- factored branch-point segments -----------------------------------------

def segment_period_integrals(f, roots, i, j):
    """Integrals of (dx/y, x dx/y, r1, r2) over the straight segment from
    roots[i] to roots[j], on the sheet fixed by the principal cofactor root.

    With x(u) = b_i + u (b_j - b_i) the polynomial factors through
    y = s(u) sqrt(u (1-u)), where s^2 = G(u) = -lc d^2 prod(x(u) - r_k)
    over the roots other than i and j.  G never vanishes on the segment,
    so s is a plain analytic continuation and the endpoint singularity is
    integrable by the doubly exponential rule.
    """
    bi = complex(roots[i])
    bj = complex(roots[j])
    d = bj - bi
    others = [complex(r) for k, r in enumerate(roots) if k not in (i, j)]
    lead = f.leading

    def G(u):
        x = bi + np.asarray(u) * d
        acc = np.full_like(np.asarray(x, dtype=complex), -lead * d * d)
        for r in others:
            acc = acc * (x - r)
        return acc

    g0 = complex(G(0.0))
    ref = d * f.deriv(bi)
    if abs(g0 - ref) > 1e-8 * max(abs(g0), abs(ref)):
        raise SheetTrackingError("factored cofactor fails the endpoint check")
    us, ss = continue_sqrt(G)
    nums = all_numerators(f)

    def g(u, d0, d1):
        x = bi + u * d
        y = lookup_sqrt(us, ss, u, G(u)) * np.sqrt(d0 * d1)
        return np.stack([nf(x) * d / y for nf in nums], axis=1)

    val, _ = integrate_01(g)
    return val


# -- tails to infinity --------------------------------------------------------

def tail_integrals(f, x_far, y_far):
    """Integrals of (dx/y, x dx/y) from the far point out to infinity.

    Returns (T, landed_plus): T the two integrals along the ray to
    infinity in the compactifying chart, and landed_plus whether the
    continuation arrives at the infinite point labelled 1 (y/x^3 ->
    +sqrt(f6) principal; always True on degree-5 curves).
    """
    x_far = complex(x_far)
    y_far = complex(y_far)
    if f.degree == 6:
        t1 = 1.0 / x_far
        asc = f.coeffs[::-1]          # t^6 f(1/t), ascending in t

        def h(tau):
            return poly_eval(asc, t1 * (1.0 - tau))

        seed = y_far * t1 ** 3
        us, ss = continue_sqrt(h, seed=seed)

        def g(tau, d0, d1):
            s = lookup_sqrt(us, ss, tau, h(tau))
            return np.stack([t1 ** 2 * (1.0 - tau) / s, t1 / s], axis=1)

        val, _ = integrate_01(g)
        s_end = ss[-1]
        pr = np.sqrt(complex(f.coeffs[6]))
        landed_plus = abs(s_end - pr) <= abs(s_end + pr)
        return val, bool(landed_plus)

    t1 = 1.0 / np.sqrt(x_far)
    asc = f.coeffs[5::-1]             # Q(s) = f5 + f4 s + ... + f0 s^5

    def h(tau):
        return poly_eval(asc, (t1 * (1.0 - tau)) ** 2)

    seed = y_far * t1 ** 5
    us, ss = continue_sqrt(h, seed=seed)

    def g(tau, d0, d1):
        s = lookup_sqrt(us, ss, tau, h(tau))
        return np.stack([2 * t1 ** 3 * (1.0 - tau) ** 2 / s,
                         2 * t1 / s], axis=1)

    val, _ = integrate_01(g)
    return val, True


def point_infinity_integrals(f, roots, P, scale):
    """Holomorphic integrals from a point at infinity to the affine point P
    along a concrete path (tail, then a radial run with detours).

    Returns (J, landed_plus): J[k] = integral of omega_k, and which
    infinite point the tail connects to (label 1 when True).
    """
    R = max(FAR_FACTOR * scale, 2.5 * abs(P.x))
    phi = float(np.angle(P.x)) if abs(P.x) > 1e-12 * scale else 0.7310
    x_far = R * np.exp(1j * phi)
    pieces = line_with_detours(roots, P.x, x_far)
    path = SheetPath.build(f, pieces, P.y)
    I_aff = integrate_forms(path, holomorphic_numerators())
    T, landed_plus = tail_integrals(f, x_far, path.y_end)
    return -T - I_aff, landed_plus


def infinity_to_infinity(f, roots, scale):
    """Holomorphic integrals from the infinite point labelled 2 to the one
    labelled 1, routed through a far point and a sheet-flip loop.
    Degree-6 curves only."""
    x_far = FAR_FACTOR * scale * np.exp(0.7310j)
    y_far = complex(np.sqrt(f(x_far)))
    T, landed_plus = tail_integrals(f, x_far, y_far)
    if landed_plus:
        y_far = -y_far
        T = -T
    # now the tail from x_far with seed y_far lands on label 2
    loop = SheetPath.build(f, flip_loop_pieces(roots, x_far), y_far)
    I_loop = integrate_forms(loop, holomorphic_numerators())
    T_out, landed_plus = tail_integrals(f, x_far, loop.y_end)
    if not landed_plus:
        raise SheetTrackingError("flip loop failed to change sheets")
    return -T + I_loop + T_out
