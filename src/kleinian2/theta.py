"""Genus-2 Riemann theta function and its partial derivatives to order 3.

theta(z; Omega) = sum over n in Z^2 of exp(i pi n.Omega.n + 2 pi i n.z).

Evaluation: reduce z = z0 + n + Omega m so that c = Y^-1 Im z0, Y = Im
Omega, lies in the cell |c_i| <= 1/2 (lattice_reduce), sum the series at
z0 over one list of lattice points per Omega, and carry the jet to z by
the binomial transform in mu = -2 pi i m of the Leibniz rule, keeping
exp(s), s = -i pi m.Omega.m - 2 pi i m.z0, apart: theta = e^s V, as in
Deconinck, Heil, Bobenko, van Hoeij and Schmies, Computing Riemann theta
functions, Math. Comp. 73 (2004).

The list is the union over the cell of their ellipsoids pi (n + c).Y.(n
+ c) < X + pi c.Y.c, widened by the factor exp(pi c.Y.c) the shift
carries, X from the tail bound of their Thm 2 with g = 2 and three
derivatives: every row and order is summed to within EPS_TARGET by the
same terms.  A bounded cache keyed by Omega's bytes holds the lists; one
reaching past RADIUS_CAP raises TruncationRadiusError.  The list of 2
Omega, which the weight-2 basis sums, is filtered from Omega's
(ThetaParams.doubled, _doubled_terms), not built: its points are a
subset of Omega's, with exponents doubled and phases squared.  A term
is one real exp, its exponent floored at EXP_FLOOR so nothing is
subnormal, times unit factors from cos/sin tables per row, in blocks of
at most TERM_BUDGET (row, term) pairs so that a call's memory is
bounded.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import RiemannMatrixError, TruncationRadiusError

RADIUS_CAP = 60       # largest |n_i| a term list may reach
EPS_TARGET = 1e-12    # truncation error eps of every theta sum
TOL_SYM = 1e-8        # |Omega - Omega^T| accepted, relative to |Omega|
EXP_FLOOR = -700.0    # least exponent of a term's modulus; exp of it is normal
TERM_BUDGET = 1 << 15  # (row, term) pairs summed per block
PHASE_TABLES = 32     # term lists kept, one per Omega

# _LEIBNIZ[order][p, (a, c)] = C(a, c) (-2 pi i)^p where a - c == p, else
# 0: the Leibniz matrix L[a, c] = C(a, c) mu^(a-c), mu = -2 pi i m, of
# _leibniz is (m^p)_p @ it
_POWERS = [np.arange(k + 1) for k in range(4)]
_LEIBNIZ = [np.array([[math.comb(a, c) * (-2j * np.pi) ** p * (a - c == p)
                       for a in range(k + 1) for c in range(k + 1)]
                      for p in range(k + 1)])
            for k in range(4)]
_INVALID = [np.add.outer(range(k + 1), range(k + 1)) > k for k in range(4)]
# the jet entries (k1, k2) by total order, so that the first (k+1)(k+2)/2
# are those of order k: the rows of a term list's weights
_K1 = np.array([0, 1, 0, 2, 1, 0, 3, 2, 1, 0])
_K2 = np.array([0, 0, 1, 0, 1, 2, 0, 1, 2, 3])
_RANGE = np.arange(-RADIUS_CAP, RADIUS_CAP + 1.0)
# 2 pi n for n = 0..RADIUS_CAP, -RADIUS_CAP..-1, so that n indexes it
_FREQ = 2 * np.pi * np.fft.ifftshift(_RANGE)
# _MONO[j][row, n] = (2 pi i n)^k, k the row's _K1 (j = 0) or _K2 (j = 1)
_MONO = np.stack([_K1, _K2])[:, :, None]
_I = np.array([1, 1j, -1, -1j])    # i^k
_MONO = _FREQ ** _MONO * _I[_MONO]


@dataclass(frozen=True)
class ThetaParams:
    """Riemann matrix, checked symmetric with Im Omega positive definite."""
    Omega: np.ndarray

    @classmethod
    def build(cls, Omega):
        Om = np.array(Omega, dtype=complex)
        if Om.shape != (2, 2):
            raise ValueError("Omega must be 2x2")
        asym = np.max(np.abs(Om - Om.T))
        if asym > TOL_SYM * max(1.0, np.max(np.abs(Om))):
            raise RiemannMatrixError(
                f"Omega not symmetric: |Om - Om^T| = {asym:.2e}")
        Om = 0.5 * (Om + Om.T)
        (a, b), (_, d) = Om.imag.tolist()
        lam = lam_min(a, b, d)
        if lam <= 0:
            raise RiemannMatrixError(
                f"Im Omega not positive definite (lam_min={lam:.2e})")
        Om.setflags(write=False)
        return cls(Omega=Om)

    def terms(self):
        """The term list theta_jet sums, from the cache keyed by Omega."""
        return _terms(self.Omega.tobytes())

    def doubled(self):
        """The params of 2 Omega, whose term list is filtered from this
        one's (_doubled_terms) rather than built."""
        Om = 2.0 * self.Omega
        Om.setflags(write=False)
        return _Doubled(Omega=Om)


class _Doubled(ThetaParams):
    """Params of twice a checked Riemann matrix, made by
    ThetaParams.doubled."""

    def terms(self):
        return _doubled_terms(self.Omega)


def lam_min(a, b, d):
    """The least eigenvalue of the real symmetric matrix [[a, b], [b, d]],
    in closed form."""
    return 0.5 * (a + d) - math.hypot(0.5 * (a - d), b)


class _TermList(NamedTuple):
    """A term list: (-2 pi n1, -2 pi n2, -pi n.Y.n), shape (K, 3); n,
    shape (2, K); the weights, rows as _K1, _K2; 2 pi n for n = 0..H,
    -H..-1; X, such that a term left out has modulus below exp(-X); and
    each point's excess n.Y.n - |Y n|_1, which is below X / pi."""
    lin: np.ndarray
    n: np.ndarray
    weights: np.ndarray
    freq: np.ndarray
    X: float
    excess: np.ndarray


def _reach(a, b, d):
    """(X, top) of the term list of Y = [[a, b], [b, d]]: a term left out
    has modulus below exp(-X) all over the cell, and top = max pi c.Y.c
    over it (see _terms)."""
    lam = lam_min(a, b, d)
    top = math.pi * (0.25 * (a + d) + 0.5 * abs(b))    # max pi c.Y.c
    r0 = min(0.15, 0.5 * math.sqrt(math.pi * lam))
    alpha = 1.0 / math.sqrt(math.pi * lam)
    gamma = alpha * r0 + math.sqrt(0.5)
    shift = top + math.log((2 * math.pi) ** 3 * math.exp(0.5 * r0 * r0)
                           / (r0 * r0 * EPS_TARGET))

    def tail(x):
        q = math.sqrt(x)
        g = q + 0.5 / q     # at least e^x Gamma(3/2, x)
        return shift + math.log(gamma ** 3 + 3 * gamma * gamma * alpha * g
                                + 3 * gamma * alpha * alpha * (1 + x)
                                + alpha ** 3 * (1.5 * g + x * q))

    x = 2.0 * shift
    while (y := tail(x)) > x:
        x *= 2.0
    while x - y > 1e-2:
        x, y = y, tail(y)
    return (r0 + math.sqrt(y)) ** 2 - top, top


@lru_cache(maxsize=PHASE_TABLES)
def _terms(key):
    """The term list of theta( . ; Omega), key Omega's bytes: a _TermList
    of the points n, their exponents, the weights (2 pi i n1)^k1 (2 pi i
    n2)^k2 exp(i pi n.Re(Omega).n), rows as _K1, _K2, and 2 pi n, n =
    0..H, -H..-1, H the largest |n_i|.  Bound: with Y = T^T T,
    v = sqrt(pi) T (n + c), alpha = 1/sqrt(pi lam_min(Y)), a weighted term
    is at most e^(pi c.Y.c) (2 pi)^3 (alpha |v| + 1/sqrt 2)^3 e^-|v|^2.
    Discs of radius r0 <= sqrt(pi lam_min)/2 about the v are disjoint, and
    e^-|v|^2 <= e^(r0^2/2) times its mean over one, so the terms with |v|
    >= R sum to at most (2 pi)^3 e^(r0^2/2) r0^-2 sum_j C(3, j) alpha^j
    gamma^(3-j) Gamma(1 + j/2, x), gamma = alpha r0 + 1/sqrt 2, x = (R -
    r0)^2; times the cell's largest e^(pi c.Y.c) it is EPS_TARGET at the
    fixed point of `tail` in _reach, whose slope is below 1: iterates from
    above keep the bound.  A term left out has |v|^2 >= X + pi c.Y.c, X =
    R^2 - max pi c.Y.c, so its modulus is below exp(-X) all over the
    cell."""
    (A, B), (_, D) = np.frombuffer(key, dtype=complex).reshape(2, 2).tolist()
    a, b, d = A.imag, B.imag, D.imag
    X, top = _reach(a, b, d)
    h1, h2 = (int(math.sqrt((X + top) * t / (math.pi * (a * d - b * b)))
                  + 0.5) for t in (d, a))
    if (H := max(h1, h2)) > RADIUS_CAP:
        raise TruncationRadiusError(
            f"the theta sum reaches |n| = {H}, over the cap {RADIUS_CAP}; "
            "Omega is too close to degenerate")
    grid = np.empty((5, 2 * h2 + 1, 2 * h1 + 1))
    grid[0] = _RANGE[RADIUS_CAP - h1:RADIUS_CAP + h1 + 1]
    grid[1] = _RANGE[RADIUS_CAP - h2:RADIUS_CAP + h2 + 1, None]
    grid = grid.reshape(5, -1)
    # n.Re(Omega).n mod 2 from Re(Omega) mod 2 = hi + lo, hi a multiple of
    # 2^-20, so that its products with n and their sums are exact
    p, r, s = (math.fmod(v.real, 2.0) for v in (A, B, D))
    hp, hr, hs = (round(v * 2.0 ** 20) * 2.0 ** -20 for v in (p, r, s))
    forms = (np.array([a, b, b, d, hp, hr, hr, hs, p - hp, r - hr, r - hr,
                       s - hs]).reshape(6, 2) @ grid[:2]).reshape(3, 2, -1)
    margin = np.abs(forms[0])
    margin[0] += margin[1]      # |Y n|_1, the cell's largest -2 n.Y.c
    np.multiply(forms[:, 0], grid[0], out=grid[2:])
    forms[:, 1] *= grid[1]
    grid[2:] += forms[:, 1]     # n.Y.n, n.hi.n, n.lo.n
    excess = grid[2] - margin[0]
    keep = np.flatnonzero(excess < X / math.pi)
    taken = grid.take(keep, 1)
    # exp(i pi n.Re(Omega).n) = i^k exp(i pi r): k exact, |r| about 1/4 at most
    hi = np.fmod(taken[3], 2.0)
    k = np.round(2.0 * hi)
    r = 1j * math.pi * (hi - 0.5 * k + taken[4])
    n = taken[:2].astype(np.intp)
    weights = _MONO[0].take(n[0], axis=1)
    weights *= _MONO[1].take(n[1], axis=1)
    weights *= np.exp(r) * _I.take(k.astype(np.intp), mode="wrap")
    terms = _TermList(
        (taken[:3] * [[-2 * math.pi], [-2 * math.pi], [-math.pi]]).T, n,
        weights, np.concatenate((_FREQ[:H + 1], _FREQ[len(_FREQ) - H:])), X,
        excess[keep])
    for t in terms:
        if isinstance(t, np.ndarray):
            t.setflags(write=False)
    return terms


def _doubled_terms(Om2):
    """The term list of theta( . ; 2 Omega), Om2 = 2 Omega, filtered from
    Omega's cached list, as _terms would build it: 2 Y doubles each
    point's excess, exactly, and the list of 2 Omega keeps the points
    whose doubled excess is below X' / pi, all of them in Omega's list
    when X' <= 2 X, which is checked.  Their exponents are Omega's with
    the last column doubled, and their weights Omega's times row 0, the
    phase exp(i pi n.Re(Omega).n), which 2 Omega squares."""
    base = _terms((0.5 * Om2).tobytes())
    (a, b), (_, d) = Om2.imag.tolist()
    X, _ = _reach(a, b, d)
    if X > 2.0 * base.X:
        raise TruncationRadiusError(
            f"the list of 2 Omega reaches exp(-{X:.4g}), past the list of "
            f"Omega it is filtered from (exp(-{2.0 * base.X:.4g}))")
    # 2 excess < X / pi, halved exactly
    keep = np.flatnonzero(base.excess < 0.5 * X / math.pi)
    lin = base.lin[keep]
    lin[:, 2] *= 2.0
    return _TermList(lin, base.n[:, keep],
                     base.weights[:, keep] * base.weights[0, keep],
                     base.freq, X, 2.0 * base.excess[keep])


def lattice_reduce(Omega, u):
    """Lattice coordinates of u, shape (2,) or (N, 2): u = u0 + n + Omega m
    with n, m integer-valued float arrays and u0 the remainder, each shaped
    as u.  m rounds c = (Im Omega)^-1 Im u by _lattice_round, then n the
    real part left, so |Re u0| <= 1/2.  The one place where lattice
    coordinates are rounded."""
    u = np.asarray(u, dtype=complex)
    (a, b), (_, d) = Omega.imag.tolist()
    f = 1.0 / (a * d - b * b)
    m = _lattice_round(u.imag @ np.array([[d * f, -b * f], [-b * f, a * f]]))
    um = u - m @ Omega.T
    n = np.round(um.real)
    return n, m, um - n


def _lattice_round(c):
    """c rounded half to even after snapping it to a multiple of 2^-48, so
    that a point on a half-lattice point, as theta( . ; 2 Omega)'s rows w +
    Omega eps are, gets the same m whatever rounding formed c."""
    return np.round(np.round(c * 2.0 ** 48) * 2.0 ** -48)


def theta_jet(tp, z, order):
    """All partial derivatives of theta at z up to total order `order`,
    over the quasi-periodicity factor exp(s).

    z has shape (2,) or (N, 2).  Returns (s, V): s, a complex number or
    shape (N,), is -i pi m.Omega.m - 2 pi i m.z0 for each row's lattice
    translate (0 for a row not shifted), and V[..., k1, k2] = exp(-s)
    d^(k1+k2) theta / dz1^k1 dz2^k2, shape (order+1, order+1) or (N,
    order+1, order+1), valid for k1 + k2 <= order and zero elsewhere.
    """
    if (isinstance(order, bool) or not isinstance(order, (int, np.integer))
            or not 0 <= order <= 3):
        raise ValueError("order must be an integer from 0 to 3")
    z = np.asarray(z, dtype=complex)
    batch = z.ndim == 2
    Z = z.reshape(-1, 2)
    Om = tp.Omega
    n, m, z0 = lattice_reduce(Om, Z)
    terms = tp.terms()
    step = max(1, TERM_BUDGET // len(terms.lin))
    J = (_list_sum(terms, z0, order) if len(Z) <= step else np.concatenate(
        [_list_sum(terms, z0[i:i + step], order)
         for i in range(0, len(Z), step)]))
    # m.Omega.m + 2 m.z0 = m.(Omega m + 2 z0), and Omega m = Z - n - z0
    s = -1j * np.pi * (m * (Z - n + z0)).sum(axis=1)
    shifted = m.any(axis=1)
    if shifted.any():
        J[shifted] = _leibniz(m[shifted], J[shifted], order)
    return (s, J) if batch else (s[0], J[0])


def _list_sum(terms, z0, order):
    """The jets at the rows z0 summed over the term list, shape (len(z0),
    order + 1, order + 1): each term is one real exp times the row's unit
    factors exp(2 pi i n_j Re z0_j), then one product with the weights."""
    lin, n, weights, freq = terms.lin, terms.n, terms.weights, terms.freq
    expo = lin[:, :2] @ z0.imag.T
    expo += lin[:, 2:]
    # no modulus below exp(EXP_FLOOR) is a subnormal number
    np.maximum(expo, EXP_FLOOR, out=expo)
    modulus = np.exp(expo, out=expo)
    arg = freq[:, None] * z0.real.T[:, None]     # (coordinate, n, row)
    unit = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=unit.real)
    np.sin(arg, out=unit.imag)
    summand = unit[0].take(n[0], axis=0)
    summand *= unit[1].take(n[1], axis=0)
    summand *= modulus
    k = (order + 1) * (order + 2) // 2
    J = np.zeros((len(z0), order + 1, order + 1), dtype=complex)
    J[:, _K1[:k], _K2[:k]] = (weights[:k] @ summand).T
    return J


def _leibniz(m, J0, order):
    """The jets of theta(z) / e, e = exp(-i pi m.Omega.m - 2 pi i m.z0), per
    row, from the jets J0 at z0.  d/dz e = mu e with mu = -2 pi i m, so
    J[k1, k2] = sum C(k1, b1) C(k2, b2) mu1^b1 mu2^b2 J0[k1-b1, k2-b2],
    which is L1 @ J0 @ L2^T with L[k, j] = C(k, j) mu^(k-j)."""
    k = order + 1
    L = (np.power.outer(m, _POWERS[order]) @ _LEIBNIZ[order]).reshape(
        len(m), 2, k, k)
    J = L[:, 0] @ J0 @ L[:, 1].transpose(0, 2, 1)
    # the products also fill k1 + k2 > order; keep those entries zero
    J[:, _INVALID[order]] = 0
    return J
