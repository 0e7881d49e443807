"""Periods of the holomorphic and second-kind differentials on y^2 = f(x).

The homology layout is elementary: four loops, each encircling a consecutive
pair of branch points in a canonical ordering.  Adjacent loops intersect
once, the same chain on every curve, so one constant integer change of
basis turns them into a standard (a1, a2, b1, b2) frame.  The loops'
orientations are read off their own integrals: the generalized Legendre
relation makes (eta(g).omega(h) - omega(g).eta(h)) / (2 pi i) the
intersection number of loops g and h (Buchstaber, Enolski, Leykin,
Kleinian functions, hyperelliptic Jacobians and applications, 1997), so
the signs of adjacent-loop pairings fix every orientation relative to
the first loop.  The frame is then certified once by the Riemann-matrix
and Legendre checks.

The base-point constant Delta comes in closed form, not from a search: it
is one of 16 candidates, a half-period plus (1/2) A^{-1} z_star on degree 6
(plus nothing on degree 5, where infinity is a Weierstrass point), and the
theta-vanishing certificate on a fan of Abel images must accept exactly
one of them.
"""

from dataclasses import dataclass
from itertools import product
import warnings

import numpy as np

from .curve import branch_points
from .errors import (DegenerateGeometryError, DeltaAmbiguityError,
                     IllConditionedLatticeError, RiemannMatrixError)
from .integration import (infinity_to_infinity, point_infinity_integrals,
                          segment_period_integrals)
from .theta import ThetaParams, theta_eval

TOL_SYM = 1e-8
TOL_LEG = 1e-8
COND_CAP = 1e12
SCALE_BAND = (0.1, 10.0)
ABEL_SAMPLES = 8        # fan of Abel images certifying Delta

# the standard symplectic form: a_i . b_j = delta_ij, in (a1, a2, b1, b2)
J = np.array([[0, 0, 1, 0],
              [0, 0, 0, 1],
              [-1, 0, 0, 0],
              [0, -1, 0, 0]], dtype=int)
# loop k encircles branch points LOOP_PAIRS[k]; its encoding as segments is
# (i -> j on the tracked sheet, j -> i on the other)
LOOP_PAIRS = ((0, 1), (1, 2), (2, 3), (3, 4))
# The loops around consecutive branch-point pairs form a chain: adjacent
# loops share one branch point and meet once, others not at all.  Oriented
# so that each loop meets the next with pairing +1, the chain's pairing is
# the same for every curve, and these integer rows, (a1, a2, b1, b2) in
# loop coordinates, take it to J.
_FRAME = np.array([[1, 0, 0, 0],
                   [1, 0, 1, 0],
                   [0, 1, 0, 0],
                   [0, 0, 0, 1]], dtype=int)
J.setflags(write=False)
_FRAME.setflags(write=False)


def _segment_distance(p, a, b):
    d = b - a
    t = ((p - a) * np.conj(d)).real / abs(d) ** 2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


def _segments_cross(a, b, c, d):
    def orient(p, q, r):
        return np.sign(((q - p) * np.conj(r - p)).imag)
    return (orient(a, b, c) * orient(a, b, d) < 0
            and orient(c, d, a) * orient(c, d, b) < 0)


def _check_geometry(roots, scale):
    segs = [(roots[i], roots[j]) for i, j in LOOP_PAIRS]
    for k, (i, j) in enumerate(LOOP_PAIRS):
        for m, r in enumerate(roots):
            if m in (i, j):
                continue
            if _segment_distance(r, *segs[k]) < 1e-6 * scale:
                raise DegenerateGeometryError(
                    "a branch point lies on another pair's segment")
    for k in range(len(segs)):
        # loops further apart than neighbours share no branch point
        for m in range(k + 2, len(segs)):
            if _segments_cross(*segs[k], *segs[m]):
                raise DegenerateGeometryError(
                    "branch-pair segments cross; no planar loop layout")


@dataclass(frozen=True)
class PeriodData:
    """Certified period data of a symplectic basis.

    Columns of A, B hold integrals of (dx/y, x dx/y) over the a- and
    b-cycles; etaA, etaB hold minus the integrals of (r1, r2).  Delta is
    the base-point constant making theta vanish on the Abel image of the
    curve, the one of 16 closed-form candidates (a half-period, plus
    (1/2) A^{-1} z_star on degree 6) that passes the vanishing
    certificate; for degree-5 curves delta_char stores its half-integer
    characteristic (n0, m0).  On degree 6 the parity of the half-period
    depends on the lattice representative of z_star, so delta_char is
    None.  z_star is the between-infinities integral
    (degree 6), used by the Abel map.  transform holds the integer rows
    (a1, a2, b1, b2) in the coordinates of the LOOP_PAIRS loops.
    """
    A: np.ndarray
    B: np.ndarray
    etaA: np.ndarray
    etaB: np.ndarray
    Omega: np.ndarray
    Delta: np.ndarray
    delta_char: tuple
    transform: np.ndarray
    f: object
    roots: tuple
    scale: float
    z_star: np.ndarray


def elementary_cycle_integrals(f, roots):
    """Row k holds the integrals of (omega1, omega2, r1, r2) over loop k;
    a loop doubles its segment integral (out on one sheet, back on the
    other, where dx/y picks up the same value)."""
    W = np.zeros((4, 4), dtype=complex)
    for k, (i, j) in enumerate(LOOP_PAIRS):
        W[k] = 2.0 * segment_period_integrals(f, roots, i, j)
    return W


def _residuals(A, B, etaA, etaB):
    eye = 2j * np.pi * np.eye(2)
    r = {}
    try:
        Omega = np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        return None, {"singular": np.inf}
    r["sym"] = float(np.max(np.abs(Omega - Omega.T)))
    r["lam_min"] = float(np.min(np.linalg.eigvalsh(
        0.5 * (Omega + Omega.T).imag)))
    r["leg1"] = float(np.max(np.abs(etaA.T @ B - A.T @ etaB - eye)))
    r["leg2"] = float(np.max(np.abs(B @ etaA.T - A @ etaB.T - eye)))
    r["sym_ab"] = float(np.max(np.abs(etaA @ etaB.T - (etaA @ etaB.T).T)))
    r["sym_a"] = float(np.max(np.abs(etaA.T @ A - (etaA.T @ A).T)))
    r["sym_b"] = float(np.max(np.abs(etaB.T @ B - (etaB.T @ B).T)))
    return Omega, r


def _certified(r):
    return (r is not None and "singular" not in r
            and r["sym"] <= TOL_SYM and r["lam_min"] > 0
            and max(r["leg1"], r["leg2"]) <= TOL_LEG
            and max(r["sym_ab"], r["sym_a"], r["sym_b"]) <= TOL_LEG)


def _loop_signs(W):
    """Orientation of each loop relative to loop 0, from the Legendre
    pairing I = (e w^T - w e^T) / (2 pi i) of the loop integrals W, where
    w, e are the first- and second-kind (eta = -r) parts.  Flipping loop k
    flips the sign of I[k, k+1] and I[k-1, k], so the cumulative product of
    the rounded adjacent pairings orients every loop to meet its successor
    with +1, the chain _FRAME takes to J."""
    w, e = W[:, :2], -W[:, 2:]
    pairing = (e @ w.T - w @ e.T) / (2j * np.pi)
    adjacent = np.rint(np.diagonal(pairing, 1).real).astype(int)
    return np.cumprod(np.concatenate([[1], adjacent]))


def compute_period_data(f, ordering=None):
    """Full period data for the curve, certified before return.

    ordering optionally permutes the canonical branch-point order, which
    produces a different (but equally valid) symplectic basis; the
    functions built on top are invariant under this choice.
    """
    roots = branch_points(f)
    if ordering is not None:
        roots = [roots[k] for k in ordering]
    scale = max(1.0, max(abs(r) for r in roots))
    if not SCALE_BAND[0] <= max(abs(r) for r in roots) <= SCALE_BAND[1]:
        warnings.warn("branch points far outside unit scale; double "
                      "precision certificates may degrade", stacklevel=2)
    _check_geometry(roots, scale)
    W = elementary_cycle_integrals(f, roots)
    T = _FRAME @ np.diag(_loop_signs(W))
    P = T @ W
    A = P[:2, :2].T.copy()
    B = P[2:, :2].T.copy()
    etaA = -P[:2, 2:].T.copy()
    etaB = -P[2:, 2:].T.copy()
    Omega, r = _residuals(A, B, etaA, etaB)
    if not _certified(r):
        raise RiemannMatrixError(
            "the loop orientations read off the Legendre pairing do not "
            "yield a certified Riemann matrix for this curve")

    z_star = None
    if f.degree == 6:
        z_star = infinity_to_infinity(f, roots, scale)
    Delta, char = _riemann_constant(f, A, Omega, roots, scale, z_star)
    for arr in (A, B, etaA, etaB, Omega, Delta, T):
        arr.setflags(write=False)
    return PeriodData(A=A, B=B, etaA=etaA, etaB=etaB, Omega=Omega,
                      Delta=Delta, delta_char=char, transform=T, f=f,
                      roots=tuple(roots), scale=scale, z_star=z_star)


# -- eta homomorphism and lattice coordinates ---------------------------------

def eta_of_lattice(pd, m, n=None):
    """eta of the lattice vector w = A m + B n, from the period columns."""
    if n is None:
        flat = np.asarray(m, dtype=int).reshape(4)
        m, n = flat[:2], flat[2:]
    return pd.etaA @ np.asarray(m) + pd.etaB @ np.asarray(n)


def lattice_vector(pd, m, n=None):
    if n is None:
        flat = np.asarray(m, dtype=int).reshape(4)
        m, n = flat[:2], flat[2:]
    return pd.A @ np.asarray(m) + pd.B @ np.asarray(n)


def _generator_matrix(pd):
    G = np.zeros((4, 4))
    gens = np.hstack([pd.A, pd.B])
    G[:2] = gens.real
    G[2:] = gens.imag
    if np.linalg.cond(G) > COND_CAP:
        raise IllConditionedLatticeError(
            "period generators are numerically dependent")
    return G


def nearest_lattice_residual(pd, z):
    """Distance from z to the nearest lattice point, in z-space."""
    z = np.asarray(z, dtype=complex).reshape(2)
    G = _generator_matrix(pd)
    c = np.linalg.solve(G, np.concatenate([z.real, z.imag]))
    r = G @ (c - np.round(c))
    return float(np.hypot(np.linalg.norm(r[:2]), np.linalg.norm(r[2:])))


# -- Riemann constant ---------------------------------------------------------

def _abel_samples(f, A, roots, scale, z_star):
    """Normalized Abel images u = A^{-1} * integral from J(inf_1) to P for
    a deterministic fan of sample points P."""
    from .curve import CurvePoint
    us = []
    for k in range(ABEL_SAMPLES):
        x = 1.7 * scale * np.exp(2j * np.pi * (0.137 + 0.618034 * k))
        P = CurvePoint.affine(x, np.sqrt(complex(f(x))))
        J, landed_plus = point_infinity_integrals(f, roots, P, scale)
        z = J
        if f.degree == 6 and landed_plus:
            z = z + z_star
        us.append(np.linalg.solve(A, z))
    return us


def _half_period(Omega, n0, m0):
    return 0.5 * (np.asarray(n0, dtype=float)
                  + Omega @ np.asarray(m0, dtype=float))


def riemann_constant(f, pd):
    """Recompute Delta for existing period data (certificate included)."""
    Delta, _ = _riemann_constant(f, pd.A, pd.Omega, list(pd.roots), pd.scale,
                                 pd.z_star)
    return Delta


def _riemann_constant(f, A, Omega, roots, scale, z_star):
    """Delta from the closed-form candidate set, certified by vanishing.

    At a Weierstrass base point the Riemann constant is a half-period
    (Mumford, Tata Lectures on Theta II, ch. IIIa); moving the base point to infinity shifts it by one Abel integral.  On
    degree 5 infinity is a Weierstrass point and the shift is zero.  On
    degree 6, div(x - e) = 2e - inf_1 - inf_2 makes that integral
    (1/2) A^{-1} z_star modulo half-periods.  z_star is only defined modulo
    the lattice, so the parity of the half-period part is not intrinsic
    and all 16 half-periods are tried; they are distinct modulo the
    lattice, so exactly one must make theta vanish on every Abel sample.
    """
    tp = ThetaParams.build(Omega)
    us = _abel_samples(f, A, roots, scale, z_star)
    theta_ref = max(abs(theta_eval(tp, np.zeros(2))),
                    max(abs(theta_eval(tp, u)) for u in us))
    shift = 0.0 if z_star is None else 0.5 * np.linalg.solve(A, z_star)
    hits = []
    for n0 in product((0, 1), (0, 1)):
        for m0 in product((0, 1), (0, 1)):
            D = _half_period(Omega, n0, m0) + shift
            if all(abs(theta_eval(tp, u - D)) < 1e-8 * theta_ref
                   for u in us):
                hits.append((D, (n0, m0)))
    if len(hits) != 1:
        raise DeltaAmbiguityError(
            f"{len(hits)} of 16 candidates pass the vanishing certificate "
            "for the base-point constant (expected exactly one)")
    D, char = hits[0]
    return D, (char if f.degree == 5 else None)
