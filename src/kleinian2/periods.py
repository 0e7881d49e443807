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
the first loop.

The base-point constant Delta comes in closed form: the odd half-period
of the branch point e that z_star's path runs into (_BASE_CHARS[e]),
plus (1/2) A^{-1} z_star; on degree 5 e is infinity and there is no
shift.  One theta call certifies that theta(u - Delta) vanishes on the
Abel images u of ABEL_SAMPLES points.  The points lie on the ray
through the far point, where z_star changes sheets by the run from there
into its nearest branch point, between integration.SERIES_FACTOR times
the root scale and that point, so each point's Abel image is minus its
own tail to infinity, summed as a series with the far point's in one
call, and takes no quadrature.  Every sheet is fixed before any quadrature, so the
loop segments and, on degree 6, that run are one stack of one quadrature
(integration.period_integrals).  Neither the samples nor z_star depends
on the branch ordering, so a re-ordered build reuses them
(compute_period_data's like=) and integrates its loop segments only.

PeriodData derives what its integrals determine and certifies itself
when it is made, whether by a build, a JSON load or a
dataclasses.replace copy.  Omega = A^{-1} B comes from the solve of the
Riemann-matrix, Legendre and conditioning residuals (_residuals,
_certified), and is stored exactly symmetric, (Omega + Omega^T) / 2: the
one Riemann matrix that Delta, the lattice maps and theta read.  A build
leaves Delta out, and the data writes the closed form; a load or a copy
passes Delta in, and its lattice form is checked (2 Delta - A^{-1}
z_star a lattice point, on degree 5 an odd one, whose characteristic is
delta_char).  Given Abel samples, theta must vanish on them
(_certify_delta).  Data that fails is never returned.

Lattice points are named by one integer convention throughout: k = (n1,
n2, m1, m2) stands for u = n + Omega m in the normalized coordinates
u = A^{-1} z, and for z = A n + B m in z-space.  lattice_vector,
eta_of_lattice and _half_period take k, and theta.lattice_reduce
returns (n, m) in the same order.
"""

from dataclasses import dataclass, field, fields
import warnings

import numpy as np

from .errors import (DegenerateGeometryError, NormalizationError,
                     RiemannMatrixError)
from .integration import (SERIES_FACTOR, far_point, nearest_branch_point,
                          period_integrals)
from .theta import TOL_SYM, lam_min, lattice_reduce, theta_jet

TOL_LEG = 1e-8
COND_CAP = 1e12         # of the real generator matrix [Re; Im] [A B]
SCALE_BAND = (0.1, 10.0)
ABEL_SAMPLES = 8        # Abel images certifying Delta
# radii of the sample points on the far point's ray, times the root scale,
# from the radius where a tail is a series out
SAMPLE_RADII = SERIES_FACTOR * 1.25 ** np.arange(ABEL_SAMPLES)

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
    t = ((p - a) * d.conjugate()).real / abs(d) ** 2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


def _segments_cross(a, b, c, d):
    def orient(p, q, r):
        v = ((q - p) * (r - p).conjugate()).imag
        return (v > 0) - (v < 0)
    return (orient(a, b, c) * orient(a, b, d) < 0
            and orient(c, d, a) * orient(c, d, b) < 0)


def _check_geometry(roots, scale):
    """DegenerateGeometryError unless every LOOP_PAIRS segment keeps clear
    of the other branch points and no two non-adjacent segments cross;
    roots are Python complex numbers."""
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
    b-cycles; etaA, etaB hold minus the integrals of (r1, r2).  z_star is
    the between-infinities integral (degree 6), used by the Abel map.
    transform holds the integer rows (a1, a2, b1, b2) in the coordinates
    of the LOOP_PAIRS loops.  Array fields are stored as read-only
    copies, however the data was made.

    Omega = A^{-1} B, stored exactly symmetric, and delta_char are
    derived, never passed.  Delta is the base-point constant making theta
    vanish on the Abel image of the curve: the odd half-period K_e of a
    branch point e plus the Abel integral from e to infinity.  On degree
    5 e is infinity (e = 5) and the integral zero; on degree 6 e is the
    branch point nearest the far point, into which z_star's path runs,
    and by div(x - e) = 2e - inf_1 - inf_2 the integral is (1/2) A^{-1}
    z_star.  Left out (None), as a build leaves it, Delta is that closed
    form; passed in, as by a JSON load or a copy shifted by a period, it
    must have that lattice form, on degree 5 an odd half-period.  On
    degree 5 delta_char is the characteristic (n0, m0) of Delta = (n0 +
    Omega m0) / 2; on degree 6 Delta is no half-period, and delta_char
    is None.  abel_samples holds the Abel images, series tails from
    infinity, of the points on the far point's ray that certify Delta
    (None for data read from JSON, and for a copy whose Delta is shifted
    by a period, which multiplies theta at the samples by its
    quasi-periodicity factor).

    Making the data certifies it (the module docstring lists the
    checks): RiemannMatrixError if the periods or Delta's lattice form
    fail, NormalizationError if theta does not vanish on the samples.
    The residuals are recomputed on demand (residuals), not stored, so
    the data weighs no more for being certified.
    """
    A: np.ndarray
    B: np.ndarray
    etaA: np.ndarray
    etaB: np.ndarray
    transform: np.ndarray
    f: object
    roots: tuple
    z_star: np.ndarray
    Delta: np.ndarray = None
    abel_samples: np.ndarray = None
    Omega: np.ndarray = field(init=False)
    delta_char: tuple = field(init=False)

    def __post_init__(self):
        for spec in fields(self):
            if not spec.init or spec.type is not np.ndarray:
                continue
            value = getattr(self, spec.name)
            if value is not None:
                value = np.array(value)
                value.setflags(write=False)
                object.__setattr__(self, spec.name, value)
        Omega, r = _residuals(self.A, self.B, self.etaA, self.etaB)
        if not _certified(r):
            raise RiemannMatrixError(
                "period data fails the Riemann-matrix, Legendre or "
                "conditioning certificates")
        Omega = 0.5 * (Omega + Omega.T)
        Omega.setflags(write=False)
        object.__setattr__(self, "Omega", Omega)
        shift = (0.0 if self.z_star is None
                 else np.linalg.solve(self.A, self.z_star))
        quintic = self.f.degree == 5
        if self.Delta is None:
            e = (5 if quintic else
                 nearest_branch_point(self.roots, far_point(self.f.scale)))
            k = _BASE_CHARS[e]
            Delta = _half_period(Omega, k) + 0.5 * shift
            Delta.setflags(write=False)
            object.__setattr__(self, "Delta", Delta)
            char = (k[:2], k[2:])
        else:
            n, m, v0 = lattice_reduce(Omega, 2 * self.Delta - shift)
            char = (tuple(int(t) for t in n), tuple(int(t) for t in m))
            if (np.max(np.abs(v0)) > TOL_SYM
                    or quintic and (n @ m) % 2 != 1):
                raise RiemannMatrixError(
                    "Delta is not a half-period shifted by (1/2) A^-1 "
                    "z_star, or on degree 5 not an odd one")
        object.__setattr__(self, "delta_char", char if quintic else None)
        if self.abel_samples is not None:
            _certify_delta(Omega, self.A, self.abel_samples, self.Delta)

    @property
    def residuals(self):
        """The certificate's residuals, by name (_residuals), computed
        afresh: the data keeps no copy."""
        return _residuals(self.A, self.B, self.etaA, self.etaB)[1]


def _residuals(A, B, etaA, etaB):
    eye = 2j * np.pi * np.eye(2)
    r = {}
    try:
        Omega = np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        return None, {"singular": np.inf}
    r["sym"] = float(np.max(np.abs(Omega - Omega.T)))
    (a, b), (_, d) = (0.5 * (Omega + Omega.T)).imag.tolist()
    r["lam_min"] = lam_min(a, b, d)
    r["leg1"] = float(np.max(np.abs(etaA.T @ B - A.T @ etaB - eye)))
    r["leg2"] = float(np.max(np.abs(B @ etaA.T - A @ etaB.T - eye)))
    r["sym_ab"] = float(np.max(np.abs(etaA @ etaB.T - (etaA @ etaB.T).T)))
    r["sym_a"] = float(np.max(np.abs(etaA.T @ A - (etaA.T @ A).T)))
    r["sym_b"] = float(np.max(np.abs(etaB.T @ B - (etaB.T @ B).T)))
    gens = np.hstack([A, B])
    r["cond"] = float(np.linalg.cond(np.vstack([gens.real, gens.imag])))
    return Omega, r


def _certified(r):
    """Whether the residuals r of _residuals pass: the Riemann-matrix and
    Legendre tolerances, and the periods' real generator matrix
    conditioned below COND_CAP, so that lattice coordinates are well
    defined wherever the period data is used."""
    return (r is not None and "singular" not in r
            and r["sym"] <= TOL_SYM and r["lam_min"] > 0
            and max(r["leg1"], r["leg2"]) <= TOL_LEG
            and max(r["sym_ab"], r["sym_a"], r["sym_b"]) <= TOL_LEG
            and r["cond"] <= COND_CAP)


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


def compute_period_data(f, ordering=None, like=None):
    """Full period data for the curve, certified as PeriodData is made.

    ordering optionally permutes the canonical branch-point order, which
    produces a different (but equally valid) symplectic basis; the
    functions built on top are invariant under this choice.  like
    optionally gives period data of the same curve whose Abel samples
    and z_star are reused: neither depends on the ordering (the same
    tails from the same points, the same run from the far point into its
    nearest root), so the build then integrates its loop segments only.
    An ordering that is no permutation of range(f.degree), or like of
    another curve, raises ValueError; data that fails its certificate,
    singular a-periods among them, raises as PeriodData does.
    """
    roots = list(f.roots)
    if ordering is not None:
        if sorted(ordering) != list(range(f.degree)):
            raise ValueError(
                f"ordering must be a permutation of range({f.degree})")
        roots = [roots[k] for k in ordering]
    if like is not None and like.f.coeffs != f.coeffs:
        raise ValueError("period data was computed for a different curve")
    if not SCALE_BAND[0] <= max(abs(r) for r in roots) <= SCALE_BAND[1]:
        warnings.warn("branch points far outside unit scale; double "
                      "precision certificates may degrade", stacklevel=2)
    _check_geometry(roots, f.scale)
    reuse = like is not None and like.abel_samples is not None
    W, samples, z_star = period_integrals(
        f, roots, LOOP_PAIRS, None if reuse else SAMPLE_RADII * f.scale)
    if reuse:
        samples, z_star = like.abel_samples, like.z_star
    # a loop doubles its segment integral (out on one sheet, back on the
    # other, where dx/y picks up the same value)
    W = 2.0 * W
    T = _FRAME @ np.diag(_loop_signs(W))
    P = T @ W
    A = P[:2, :2].T
    B = P[2:, :2].T
    return PeriodData(A=A, B=B, etaA=-P[:2, 2:].T, etaB=-P[2:, 2:].T,
                      transform=T, f=f, roots=tuple(roots),
                      z_star=z_star, abel_samples=samples)


# -- eta homomorphism and lattice coordinates ---------------------------------

def eta_of_lattice(pd, k):
    """eta of the lattice vector A n + B m, k = (n, m) of shape (4,) or
    (N, 4), from the period columns: shape (2,) or (N, 2)."""
    k = np.asarray(k)
    return (pd.etaA @ k[..., :2].T + pd.etaB @ k[..., 2:].T).T


def lattice_vector(pd, k):
    """The lattice vector A n + B m, k = (n, m) of shape (4,) or (N, 4):
    shape (2,) or (N, 2)."""
    k = np.asarray(k)
    return (pd.A @ k[..., :2].T + pd.B @ k[..., 2:].T).T


def nearest_lattice_residual(pd, z):
    """Distance from z to the nearest lattice point, in z-space: a float,
    or shape (N,) for z of shape (N, 2).  The point is the one
    lattice_reduce picks for u = A^{-1} z, and the distance |A u0|."""
    z = np.asarray(z, dtype=complex)
    if z.shape != (2,) and (z.ndim != 2 or z.shape[1] != 2):
        raise ValueError(f"z must have shape (2,) or (N, 2), not {z.shape}")
    _, _, u0 = lattice_reduce(pd.Omega, np.linalg.solve(pd.A, z.T).T)
    d = np.linalg.norm(u0 @ pd.A.T, axis=-1)
    return float(d) if z.ndim == 1 else d


# -- Riemann constant ---------------------------------------------------------

def _half_period(Omega, k):
    """Half the lattice point k = (n, m) in u-coordinates, (n + Omega m) / 2."""
    k = np.asarray(k, dtype=float)
    return 0.5 * (k[..., :2] + k[..., 2:] @ Omega.T)


# K_k, the Riemann constant with base point at branch point k (k = 5:
# infinity on degree 5), as the characteristic (n1, n2, m1, m2) of the
# half-period (n + Omega m) / 2 in _FRAME's frame.  K_5 = (1, 1, 1, 0)
# (Mumford, Tata Lectures on Theta II, ch. IIIa), and K_k = K_{k+1} +
# [l_k] mod 2, the Abel image of e_k - e_{k+1} being half the loop l_k
# about the pair.  In the frame l0..l4 = a1, b1, a2 - a1, b2 and a2
# (l0 + l2 + l4 bound together).  The rows are the six odd
# characteristics, one per branch point.
_BASE_CHARS = ((1, 1, 0, 1), (0, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
               (1, 0, 1, 0), (1, 1, 1, 0))


def _certify_delta(Omega, A, samples, Delta):
    """NormalizationError unless |theta(u - Delta; Omega)| < 1e-8
    theta_ref at the normalized Abel images u = A^{-1} z of the samples
    z, theta_ref the largest of |theta| at 0 and at the samples, in one
    theta call."""
    us = np.linalg.solve(A, samples.T).T
    s, V = theta_jet(Omega, np.concatenate(
        [np.zeros((1, 2)), us, us - Delta]), 0)
    vals = np.exp(s.real) * np.abs(V[:, 0, 0])
    if not np.all(vals[len(us) + 1:] < 1e-8 * np.max(vals[:len(us) + 1])):
        raise NormalizationError(
            "theta does not vanish at the Abel samples shifted by Delta")
