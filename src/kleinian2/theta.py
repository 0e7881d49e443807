"""Genus-2 Riemann theta function and its partial derivatives to order 3.

theta(z; Omega) = sum over n in Z^2 of exp(i pi n.Omega.n + 2 pi i n.z).

Evaluation strategy: reduce z by integer and Omega-integer shifts so the
imaginary part is small (lattice_reduce), sum the series over a box whose
radius comes from a provable tail bound, then push the quasi-periodicity
prefactor through the requested derivatives with the Leibniz rule.
`theta_jet` takes one point, shape (2,), or a batch, shape (N, 2): a
batch is summed over one box whose radius is the largest of the rows'
own tail-bound radii, as one matrix product.  The tables the sum needs
(the box, the quadratic monomials n1^2, 2 n1 n2, n2^2 and the derivative
monomials (2 pi i n)^k) do not depend on Omega, so one read-only copy
per radius serves every order and every ThetaParams.  A ThetaParams
carries no tables of its own, and nothing cached can be paired with the
wrong Omega.
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

_BINOM = np.array([[math.comb(a, c) for c in range(4)] for a in range(4)],
                  dtype=float)
# the power a - c of mu in L[a, c] of _leibniz (0 above the diagonal)
_DROP = np.maximum(np.subtract.outer(range(4), range(4)), 0)


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
    """Smallest R with pi*lam*R^2 - 2 pi b R - order*ln(2 pi R) >= ln(C/eps)."""
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
    return R


def _multi_indices(order):
    """(k1, k2) with k1 + k2 <= order, by total order, so that the list for
    a lower order is a prefix of the list for a higher one."""
    return [(t - k2, k2) for t in range(order + 1) for k2 in range(t + 1)]


@lru_cache(maxsize=None)     # at most RADIUS_CAP keys
def _tables(R):
    """Over the box [-R, R]^2: the rows (n1^2, 2 n1 n2, n2^2, n1, n2), so
    that a product with (i pi Omega11, i pi Omega12, i pi Omega22,
    2 pi i z0) gives the exponents of the series, and the monomials whose
    row for the i-th of _multi_indices(3), (k1, k2), is
    (2 pi i n1)^k1 (2 pi i n2)^k2."""
    rng = np.arange(-R, R + 1, dtype=float)
    n1, n2 = (a.ravel() for a in np.meshgrid(rng, rng, indexing="ij"))
    basis = np.stack([n1 * n1, 2 * n1 * n2, n2 * n2, n1, n2], axis=1)
    p1 = (2j * np.pi * n1) ** np.arange(4)[:, None]
    p2 = (2j * np.pi * n2) ** np.arange(4)[:, None]
    mono = np.array([p1[k1] * p2[k2] for k1, k2 in _multi_indices(3)])
    for a in (basis, mono):
        a.setflags(write=False)
    return basis, mono


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
    R = _radius(tp, float(np.max(np.linalg.norm(z0.imag, axis=1))), order)
    basis, mono = _tables(R)
    index = _multi_indices(order)
    coef = np.empty((5, len(Z)), dtype=complex)
    coef[:3] = 1j * np.pi * np.array([Om[0, 0], Om[0, 1], Om[1, 1]])[:, None]
    coef[3:] = 2j * np.pi * z0.T
    # exp of the real and imaginary parts apart: numpy's complex exp is
    # several times slower than its real exp, cos and sin together
    modulus = np.exp(basis @ coef.real)
    phase = basis @ coef.imag
    terms = np.empty(phase.shape, dtype=complex)
    terms.real = modulus * np.cos(phase)
    terms.imag = modulus * np.sin(phase)
    sums = mono[:len(index)] @ terms     # (K, N)

    J = np.zeros((len(Z), order + 1, order + 1), dtype=complex)
    flat = [k1 * (order + 1) + k2 for k1, k2 in index]
    J.reshape(len(Z), -1)[:, flat] = sums.T
    shifted = np.flatnonzero(np.any(m != 0, axis=1))
    if len(shifted):
        J[shifted] = _leibniz(Om, m[shifted], z0[shifted], J[shifted], order)
    return J if batch else J[0]


# far out e overflows; the callers' finiteness checks report that, so
# numpy need not warn of it as well
@np.errstate(over="ignore", invalid="ignore")
def _leibniz(Om, m, z0, J0, order):
    """Jets of theta(z) = e(z0) theta(z0), e = exp(-i pi m.Om.m - 2 pi i
    m.z0), per row.  d/dz e = mu e with mu = -2 pi i m, so
    J[k1, k2] = e sum C(k1, b1) C(k2, b2) mu1^b1 mu2^b2 J0[k1-b1, k2-b2],
    which is e * L1 @ J0 @ L2^T with L[k, j] = C(k, j) mu^(k-j)."""
    e = np.exp(-1j * np.pi * np.einsum("ri,ij,rj->r", m, Om, m)
               - 2j * np.pi * np.einsum("ri,ri->r", m, z0))
    k = order + 1
    powers = np.ones((k, len(m), 2), dtype=complex)
    for p in range(1, k):
        powers[p] = powers[p - 1] * (-2j * np.pi * m)
    # L[a, c, row, i] = C(a, c) mu_i^(a-c), zero above the diagonal
    L = _BINOM[:k, :k, None, None] * powers[_DROP[:k, :k]]
    L1, L2 = L[..., 0].transpose(2, 0, 1), L[..., 1].transpose(2, 0, 1)
    J = e[:, None, None] * (L1 @ J0 @ L2.transpose(0, 2, 1))
    # the products also fill k1 + k2 > order; keep those entries zero
    return np.where(np.add.outer(range(k), range(k)) <= order, J, 0)

