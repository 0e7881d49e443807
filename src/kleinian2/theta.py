"""Genus-2 Riemann theta function and its partial derivatives to order 3.

theta(z; Omega) = sum over n in Z^2 of exp(i pi n.Omega.n + 2 pi i n.z).

Evaluation strategy: reduce z by integer and Omega-integer shifts so the
imaginary part is small (lattice_reduce), sum the series over a box whose
radius comes from a provable tail bound, then push the quasi-periodicity
prefactor through the requested derivatives with the Leibniz rule.
`theta_jet` takes one point, shape (2,), or a batch, shape (N, 2): a
batch is summed over one box whose radius is the largest of the rows'
own tail-bound radii.

Each term is split as in Deconinck, Heil, Bobenko, van Hoeij and
Schmies, Computing Riemann theta functions, Math. Comp. 73 (2004).  Its
modulus exp(-pi n.Im(Omega).n - 2 pi n.Im z0) is one real exp, with the
exponent floored at EXP_FLOOR so that no arithmetic meets a subnormal
number; its phase is a product of unit factors that cannot overflow:
exp(i pi n.Re(Omega).n) per box point, and exp(2 pi i n_j Re z0_j) per
row and coordinate value n_j.  So no term calls cos or sin, and the sum
factors into a matrix product over n2 followed by one over n1.  The rows
are summed in blocks of at most TERM_BUDGET (row, box point) pairs, so a
call's memory is bounded whatever its size.

The tables over the box (its quadratic and linear rows, and the powers
(2 pi i n)^k) do not depend on Omega, so one read-only copy per radius
serves every order and every ThetaParams.  The Omega tables (the
exponent -pi n.Im(Omega).n and the unit factor exp(i pi n.Re(Omega).n))
live in a bounded module-level cache keyed by Omega's bytes and the
radius: a ThetaParams carries no tables of its own, so contexts do not
grow with them, and nothing cached can be paired with the wrong Omega.
The summation radius, a fixed point in lam_min(Im Omega) and the rows'
largest |Im z0|, is read from intervals kept in a bounded cache keyed by
lam_min, which is all of Omega it depends on.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RiemannMatrixError, TruncationRadiusError

TAIL_MARGIN = 100.0   # constant C in the tail bound ln(C/eps)
RADIUS_CAP = 60
EPS_TARGET = 1e-12    # truncation error eps of every theta sum
TOL_SYM = 1e-8        # |Omega - Omega^T| accepted, relative to |Omega|
EXP_FLOOR = -700.0    # least exponent of a term's modulus; exp of it is normal
TERM_BUDGET = 1 << 15  # (row, box point) pairs summed per block
PHASE_TABLES = 32     # Omega tables kept, one per (Omega, radius)

# _LEIBNIZ[order][p, (a, c)] = C(a, c) (-2 pi i)^p where a - c == p, else
# 0: the Leibniz matrix L[a, c] = C(a, c) mu^(a-c), mu = -2 pi i m, of
# _leibniz is (m^p)_p @ it
_POWERS = [np.arange(k + 1) for k in range(4)]
_LEIBNIZ = [np.array([[math.comb(a, c) * (-2j * np.pi) ** p * (a - c == p)
                       for a in range(k + 1) for c in range(k + 1)]
                      for p in range(k + 1)])
            for k in range(4)]
# _VALID[order][k1, k2]: 1 where k1 + k2 <= order, else 0
_VALID = [(np.add.outer(range(k + 1), range(k + 1)) <= k).astype(float)
          for k in range(4)]
_INVALID = [v == 0 for v in _VALID]


@dataclass(frozen=True)
class ThetaParams:
    """Riemann matrix plus the derived quantities the series needs."""
    Omega: np.ndarray
    lam_min: float

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
        lam = float(np.min(np.linalg.eigvalsh(Om.imag)))
        if lam <= 0:
            raise RiemannMatrixError(
                f"Im Omega not positive definite (lam_min={lam:.2e})")
        Om.setflags(write=False)
        return cls(Omega=Om, lam_min=lam)


def _radius(tp, b, order):
    """Smallest R with pi*lam*R^2 - 2 pi b R - order*ln(2 pi R) >= ln(C/eps).

    R grows with b, so a b between two that gave the same R gives that R
    too: the fixed point runs only for a b outside the intervals that
    _radius_spans keeps for lam and the order."""
    spans = _radius_spans(tp.lam_min).setdefault(order, {})
    for R, (lo, hi) in spans.items():
        if lo <= b <= hi:
            return R
    target = math.log(TAIL_MARGIN / EPS_TARGET)
    lam = tp.lam_min
    R = 3.0
    for _ in range(12):
        R = math.sqrt((target + 2 * math.pi * b * R
                       + order * math.log(max(2 * math.pi * R, 3.0)))
                      / (math.pi * lam))
    R = math.ceil(R) + 1
    if R > RADIUS_CAP:
        raise TruncationRadiusError(
            f"summation radius {R} exceeds cap {RADIUS_CAP}; "
            "Omega is too close to degenerate")
    lo, hi = spans.get(R, (b, b))
    spans[R] = (min(lo, b), max(hi, b))
    return R


@lru_cache(maxsize=PHASE_TABLES)
def _radius_spans(lam):
    """{order: {R: (lo, hi)}}, filled by _radius: for lam =
    lam_min(Im Omega), the only part of Omega that _radius reads, the
    interval [lo, hi] of the b seen to give each radius R, at most
    RADIUS_CAP per order."""
    return {}


@lru_cache(maxsize=None)     # at most RADIUS_CAP keys
def _tables(R):
    """Over the box [-R, R]^2, n2 major and n1 minor: the rows (n1^2,
    2 n1 n2, n2^2) and (n1, n2); the frequencies 2 pi n, n = -R..R; and
    the powers (2 pi i n)^k, k = 0..3, shape (4, 2R + 1)."""
    n = np.arange(-R, R + 1, dtype=float)
    n2, n1 = (a.ravel() for a in np.meshgrid(n, n, indexing="ij"))
    freq = 2 * np.pi * n
    quad = np.stack([n1 * n1, 2 * n1 * n2, n2 * n2], axis=1)
    lin = np.stack([n1, n2], axis=1)
    powers = (1j * freq) ** np.arange(4)[:, None]
    for t in (quad, lin, freq, powers):
        t.setflags(write=False)
    return quad, lin, freq, powers


@lru_cache(maxsize=PHASE_TABLES)
def _box_tables(key, R):
    """Over the box of _tables(R): -pi n.Im(Omega).n, the Omega part of
    the exponent of each term's modulus, and exp(i pi n.Re(Omega).n),
    shape (2R + 1, 2R + 1), n2 by n1.  key is Omega's bytes, so a table
    is never paired with another Omega."""
    Om = np.frombuffer(key, dtype=complex).reshape(2, 2)
    quad = _tables(R)[0]
    entries = np.pi * np.array([Om[0, 0], Om[0, 1], Om[1, 1]])
    expo = -quad @ entries.imag
    arg = quad @ entries.real
    phase = (np.cos(arg) + 1j * np.sin(arg)).reshape(2 * R + 1, 2 * R + 1)
    for t in (expo, phase):
        t.setflags(write=False)
    return expo, phase


def lattice_reduce(Omega, u):
    """Lattice coordinates of u, shape (2,) or (N, 2): u = u0 + n + Omega m
    with n, m integer-valued float arrays and u0 the remainder, each
    shaped as u.  m rounds Im u in the coordinates of Im Omega, then n
    rounds the real part left, so |Re u0| <= 1/2.  The one place where
    lattice coordinates are rounded: theta's range reduction, the
    distance to the period lattice and the half-period test of a loaded
    Delta all call it."""
    u = np.asarray(u, dtype=complex)
    m = np.round(np.linalg.solve(Omega.imag, u.imag.T)).T
    um = u - m @ Omega.T
    n = np.round(um.real)
    return n, m, um - n


def theta_jet(tp, z, order):
    """All partial derivatives of theta at z up to total order `order`.

    z has shape (2,) or (N, 2).  Returns a complex array J of shape
    (order+1, order+1), or (N, order+1, order+1) for a batch, where
    J[..., k1, k2] = d^(k1+k2) theta / dz1^k1 dz2^k2, valid for
    k1 + k2 <= order and zero elsewhere.
    """
    if (isinstance(order, bool) or not isinstance(order, (int, np.integer))
            or not 0 <= order <= 3):
        raise ValueError("order must be an integer from 0 to 3")
    z = np.asarray(z, dtype=complex)
    batch = z.ndim == 2
    Z = z.reshape(-1, 2)
    Om = tp.Omega
    _, m, z0 = lattice_reduce(Om, Z)
    # _radius increases with b, so this is the largest of the rows' radii
    y = z0.imag
    R = _radius(tp, math.sqrt((y * y).sum(axis=1).max()), order)
    tables = _tables(R) + _box_tables(Om.tobytes(), R)
    step = max(1, TERM_BUDGET // len(tables[0]))
    J = np.empty((len(Z), order + 1, order + 1), dtype=complex)
    for s in range(0, len(Z), step):
        J[s:s + step] = _box_sum(tables, z0[s:s + step], order)
    shifted = m.any(axis=1)
    if shifted.any():
        J[shifted] = _leibniz(Om, m[shifted], z0[shifted], J[shifted], order)
    return J if batch else J[0]


def _box_sum(tables, z0, order):
    """The sums over the box of (2 pi i n1)^k1 (2 pi i n2)^k2 times the
    series' terms at the rows z0, shape (len(z0), order + 1, order + 1),
    zero where k1 + k2 > order.  A term is its modulus, one real exp,
    times the unit factors phase[n2, n1], exp(2 pi i n1 Re z0_1) and
    exp(2 pi i n2 Re z0_2); the powers of n2 are summed first, then
    those of n1."""
    _, lin, freq, powers, expo_omega, phase = tables
    w, p = len(freq), powers[:order + 1]
    expo = lin @ (-2 * np.pi * z0.imag.T)
    expo += expo_omega[:, None]
    # no modulus below exp(EXP_FLOOR) is a subnormal number
    np.maximum(expo, EXP_FLOOR, out=expo)
    modulus = np.exp(expo, out=expo).reshape(w, w, -1)
    arg = np.multiply.outer(freq, z0.real)     # (n, row, coordinate)
    unit = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=unit.real)
    np.sin(arg, out=unit.imag)
    terms = modulus * phase[:, :, None]
    terms *= unit[:, None, :, 1]
    s2 = (p @ terms.reshape(w, -1)).reshape(order + 1, w, -1)
    s2 *= unit[:, :, 0]
    J = (p @ s2).T      # J[row, k1, k2]
    J *= _VALID[order]
    return J


# far out e overflows; the callers' finiteness checks report that, so
# numpy need not warn of it as well
@np.errstate(over="ignore", invalid="ignore")
def _leibniz(Om, m, z0, J0, order):
    """Jets of theta(z) = e(z0) theta(z0), e = exp(-i pi m.Om.m - 2 pi i
    m.z0), per row.  d/dz e = mu e with mu = -2 pi i m, so
    J[k1, k2] = e sum C(k1, b1) C(k2, b2) mu1^b1 mu2^b2 J0[k1-b1, k2-b2],
    which is e * L1 @ J0 @ L2^T with L[k, j] = C(k, j) mu^(k-j)."""
    e = np.exp(-1j * np.pi * np.einsum("ri,ij,rj->r", m, Om, m)
               - 2j * np.pi * (m * z0).sum(axis=1))
    k = order + 1
    L = (np.power.outer(m, _POWERS[order]) @ _LEIBNIZ[order]).reshape(
        len(m), 2, k, k)
    J = L[:, 0] @ J0 @ L[:, 1].transpose(0, 2, 1)
    J *= e[:, None, None]
    # the products also fill k1 + k2 > order; keep those entries zero
    J[:, _INVALID[order]] = 0
    return J
