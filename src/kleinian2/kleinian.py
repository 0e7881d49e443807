"""Kleinian functions of weight 2 for a genus-2 curve y^2 = f(x).

S is the fundamental entire function on C^2 whose second logarithmic
derivatives produce the wp functions; S11, S12, S22 are its weight-2
companions with S_jk = wp_jk * S away from the zero set of S.  On
degree-5 curves in Weierstrass form the sigma function is available as
well; sigma^2 = S, so its logarithmic derivatives zeta_j = 1/2 d_j log S
and wp_jkl = d_l (S_jk / S) are read off S.  Everything reduces to theta
jets on the Jacobian plus an exponential quadratic-form factor.

S = c_S exp(z^T C z) p q, p = theta(u - Delta), q = theta(u + Delta),
u = A^-1 z.  S, S11, S12, S22 span the weight-2 theta functions, and by
the addition formula so do pq and E = q p'' + p q'' - p' q'^T - q' p'^T
(u-derivatives).  So each S_jk is exp(z^T C z) times a fixed combination
of (pq, E11, E12, E22), found once per curve by make_context, and
wp_jk = S_jk / S is that combination over c_S pq: jacobi_invert reads wp
and its z-derivatives wp_jkl off the order-3 jets this way, on both
degrees, with no cubic to solve, and evaluate_bundle reads wp_jkl so.
wp_eval still takes wp from the log Hessian of S, selecting a root of a
cubic on degree 6.

theta_jet keeps the lattice scale apart, theta = e^s V: S and S_jk are
exp(z^T C z + s_- + s_+) times the same expressions in V, sigma exp(twist
+ s_-) c_sigma V_-, each formed by one exp in _scaled.  wp, zeta, wp_jkl,
the log derivatives of S and the inversion are ratios of jet entries:
they read V alone and do not overflow however far out z lies.
"""

from dataclasses import dataclass
from functools import lru_cache
import math
from typing import Optional

import numpy as np

from .curve import DIAG_FACTOR, CurvePoint, Divisor, involution, is_special
from .errors import (DiagonalError, InfinitePointError, NonFiniteValueError,
                     NormalizationError, NotWeierstrassFormError,
                     OnThetaDivisorError, RootSelectionAmbiguity,
                     SignResolutionError, SpecialDivisorError)
from .integration import abel_images, all_numerators, integrate_forms, \
    path_between
from .periods import branch_point_images, compute_period_data
from .theta import _leibniz, theta_jet

ZERO_FACTOR = 1e-6     # on-divisor guard, relative to the theta scale
# the logs of the least normal double and of the largest
_LOG_MIN, _LOG_MAX = np.log([np.finfo(float).tiny, np.finfo(float).max])
TOL_JET = 1e-7
TOL_RT = 1e-7
TOL_ID = 1e-7


@dataclass(frozen=True)
class KleinianContext:
    """Everything needed to evaluate the function family at points z.

    c_S normalizes S to the jet S = z1^2 + O(z^4); c_sigma (degree 5 in
    Weierstrass form only, else None) normalizes sigma to d(sigma)/dz1 = 1
    at the origin.  Ainv and C = etaA @ Ainv are cached for the theta
    pullbacks; theta_ref sets the scale for on-divisor guards; jet_scale
    is a safe step size for finite differences in z; (S11, S12, S22) =
    exp(z^T C z) sjk_coeffs @ (pq, E11, E12, E22); branch_abel[j] is the
    Abel image of the branch point f.roots[j] (branch_point_images)."""
    f: object
    pd: object
    c_S: complex
    c_sigma: Optional[complex]
    Ainv: np.ndarray
    C: np.ndarray
    theta_ref: float
    jet_scale: float
    sjk_coeffs: np.ndarray
    branch_abel: np.ndarray


# The paper's jets of S, S11, S12, S22 at z = 0, keyed "k1k2" by the
# derivative orders; they fix S_jk among the weight-2 theta functions.
JET_TARGETS = {
    "S": {"00": 0, "10": 0, "01": 0, "20": 2, "11": 0, "02": 0},
    "S11": {"00": 1, "10": 0, "01": 0, "20": 0, "11": 0, "02": 0},
    "S12": {"00": 0, "10": 0, "01": 0, "20": 0, "11": 0, "02": -2},
    "S22": {"00": 0, "10": 0, "01": 0, "20": 0, "11": 2, "02": 0},
}
# the even jets (value, d11, d12, d22) that determine an even function
_EVEN_JETS = ("00", "20", "11", "02")


def _weight2_basis(pd, Ainv, C):
    """Jets of the basis Theta[eps](w) = exp(i pi eps.Omega.eps / 2 +
    i pi eps.w) theta(w + Omega eps; 2 Omega), eps in {0, 1}^2.

    B[eps] holds the z = 0 jets (value, d11, d12, d22) of exp(z^T C z)
    Theta[eps](2 A^-1 z).  The rows of M are the Theta-coefficients of pq,
    E11, E12, E22 in u: by theta(u + v) theta(u - v) = sum_eps
    Theta[eps](2u) Theta[eps](2v) (Mumford, Tata Lectures on Theta I,
    ch. II 6) at v = Delta, and its second v-derivatives there, in one
    theta call on 2 Omega."""
    Om = pd.Omega
    # rows 0-3 at w = 0 and rows 4-7 at w = 2 Delta, eps in the same order
    eps = np.tile([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], (2, 1))
    w = np.zeros((8, 2), dtype=complex)
    w[4:] = 2.0 * pd.Delta
    s, jet = theta_jet(2.0 * Om, w + eps @ Om, 2)
    fac = np.exp(0.5j * np.pi * np.einsum("ri,ij,rj->r", eps, Om, eps)
                 + 1j * np.pi * np.einsum("ri,ri->r", eps, w) + s)
    # exp(i pi eps.w) by theta's Leibniz step: mu = -2 pi i m = i pi eps
    jet = fac[:, None, None] * _leibniz(-0.5 * eps, jet, 2)
    theta = jet[:, 0, 0]
    # d^2/dz^2 of Theta(2 A^-1 z) pulls back through 2 A^-1
    hz = (2.0 * C * theta[:4, None, None]
          + _pullback_jets(2.0 * Ainv, jet[:4], 2)[1])
    # (value, d11, d12, d22): the z-Hessian's entries, and the u-jet's
    B = np.column_stack([theta[:4], hz[:, [0, 0, 1], [0, 1, 1]]])
    M = np.vstack([theta[4:], 4.0 * jet[4:, [2, 1, 0], [0, 1, 2]].T])
    return B, M


def sigma_min(A):
    """The least singular value of the complex 2x2 matrix A, in closed
    form: sigma_max^2 is the larger eigenvalue of A A^H = [[p, q], [q*,
    r]], (p + r)/2 + hypot((p - r)/2, |q|), free of cancellation, and
    sigma_min = |det A| / sigma_max."""
    (a, b), (c, d) = A.tolist()
    p = abs(a) ** 2 + abs(b) ** 2
    r = abs(c) ** 2 + abs(d) ** 2
    top = math.sqrt(0.5 * (p + r) + math.hypot(
        0.5 * (p - r), abs(a * c.conjugate() + b * d.conjugate())))
    return abs(a * d - b * c) / top if top else 0.0


def make_context(f, pd=None):
    """Build the evaluation context, certifying the normalization.

    The second z-jet of exp(z^T C z) * theta(u - Delta) * theta(u + Delta)
    at 0 must be a rank-one symmetric pair with no z2 component; if not,
    the base-point constant is wrong and evaluation would be meaningless.
    The rows R = T B^-1 M^-1 (T from JET_TARGETS) give S, S11, S12, S22
    from (pq, E); R's S row must be (c_S, 0, 0, 0).  Period data of
    another curve raises ValueError.
    """
    if pd is None:
        pd = compute_period_data(f)
    elif pd.f.coeffs != f.coeffs:
        raise ValueError("period data was computed for a different curve")
    Ainv = np.linalg.inv(pd.A)
    C = pd.etaA @ Ainv
    C = 0.5 * (C + C.T)

    rows = np.stack([np.zeros(2), -pd.Delta, pd.Delta])
    s, (j0, jm, jp) = theta_jet(pd.Omega, rows, 1)
    theta_ref = abs(j0[0, 0])       # the row z = 0 is not shifted: s = 0
    # Gate the vanishing against the local gradient as well as the global
    # reference: a lattice translate of Delta scales theta and its gradient
    # by the same quasi-periodicity factor, which can dwarf theta_ref.
    for sk, jet in zip(s[1:], (jm, jp)):
        local = float(np.hypot(abs(jet[1, 0]), abs(jet[0, 1])))
        if abs(jet[0, 0]) > 1e-6 * max(theta_ref * np.exp(-sk.real), local):
            raise NormalizationError(
                "theta does not vanish at +-Delta; base-point constant is "
                "not on the theta divisor")
    v = _pullback_jets(Ainv, jm, 1)[0]
    w = _pullback_jets(Ainv, jp, 1)[0]
    if abs(v[0] * w[0]) < 1e-300:
        raise NormalizationError("degenerate gradient at Delta")
    c_S = np.exp(-s[1] - s[2]) / (v[0] * w[0])
    if (abs(v[1] / v[0] + w[1] / w[0]) > TOL_JET
            or abs(2.0 * v[1] * w[1] / (v[0] * w[0])) > TOL_JET):
        raise NormalizationError(
            "second jet of the theta product is not proportional to "
            "z1^2; period data and base-point constant are inconsistent")

    c_sigma = None
    if f.weierstrass_form:
        c_sigma = np.exp(-s[1]) / v[0]
        if abs(c_sigma ** 2 + c_S) > TOL_JET * abs(c_S):
            raise NormalizationError(
                "sigma normalization does not square to the S "
                "normalization")

    T = np.array([[want[key] for key in _EVEN_JETS]
                  for want in JET_TARGETS.values()], dtype=complex)
    B, M = _weight2_basis(pd, Ainv, C)
    try:
        R = np.linalg.solve(M.T, np.linalg.solve(B.T, T.T)).T
    except np.linalg.LinAlgError:
        raise NormalizationError(
            "the weight-2 theta jets are singular") from None
    if np.max(np.abs(R[0] / c_S - [1.0, 0.0, 0.0, 0.0])) > TOL_JET:
        raise NormalizationError(
            "the weight-2 coefficients do not reproduce S; the jet table, "
            "the theta basis and the S normalization are inconsistent")
    sjk_coeffs = R[1:]

    jet_scale = 0.5 * sigma_min(pd.A)
    for arr in (Ainv, C, sjk_coeffs):
        arr.setflags(write=False)
    return KleinianContext(f=f, pd=pd, c_S=c_S, c_sigma=c_sigma,
                           Ainv=Ainv, C=C, theta_ref=theta_ref,
                           jet_scale=jet_scale, sjk_coeffs=sjk_coeffs,
                           branch_abel=branch_point_images(pd))


# -- evaluation at one point or a batch --------------------------------------
#
# S_eval, S_jk_eval, wp_eval, log_S_gradient, divisor_clearance and
# sigma_eval take z of shape (2,) or (N, 2), as theta_jet does.  A batch
# makes one theta_jet call on its rows u -+ Delta, and the helpers below
# read jet entries with _at(jet, k1, k2), which is jet[..., k1, k2], so
# one code path serves both shapes.
# Up to the log Hessian, one point is computed in numpy scalars, as
# one-point code would be: numpy's array loops round a complex product
# differently from its scalar arithmetic (fused multiply-adds) and cost
# more per call.  So _at reads jet entries as numpy scalars for one
# point, and arrays built from them (np.array) or from z (M @ z.T) hold
# a batch axis last, which .T moves first; for one point .T leaves a
# vector as it is.  The wp selection is the exception: it runs on
# arrays, one point being a batch of one, because its eigvals and det
# calls cost the same for one row as for many.  The lattice exponents s
# of the jets are read only by _scaled and the on-divisor guards.

def _as_zs(z, batch=True):
    """z as one point, shape (2,), or, if batch, a batch of N >= 1 points,
    (N, 2); ValueError for any other shape, and for inf or nan."""
    z = np.asarray(z, dtype=complex)
    if not (z.shape == (2,) or (batch and z.ndim == 2 and z.shape[1] == 2
                                and len(z))):
        shapes = "(2,) or (N, 2)" if batch else "(2,)"
        raise ValueError(f"z must have shape {shapes}, not {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("z must be finite")
    return z


def _log(x):
    """log x, elementwise, -inf where x is 0, with no numpy warning."""
    x = np.asarray(x)
    if x.all():
        return np.log(x)
    return np.log(x, out=np.full(x.shape, -np.inf, x.dtype), where=x != 0)


def _scaled(mant, t, what):
    """mant exp(t) as one exp, elementwise; NonFiniteValueError, with no
    numpy warning, where mant is nonzero and the value is outside the
    range of normal doubles, over or under."""
    x = t + _log(mant)
    r = x.real
    if r.max() > _LOG_MAX or r.min() < _LOG_MIN and (
            (r < _LOG_MIN) & (r > -np.inf)).any():
        raise NonFiniteValueError(f"{what} is outside the double range")
    return np.exp(x)


def _at(jet, k1, k2):
    """jet[..., k1, k2]: a numpy scalar for one point, shape (N,) for a
    batch.  (jet.T[k2, k1] is that entry, read with one index.)"""
    return jet.T[k2, k1]


def _order2(jet):
    """The entries (00, 10, 01, 20, 11, 02) of jet, as _at reads them."""
    t = jet.T
    return t[0, 0], t[0, 1], t[1, 0], t[0, 2], t[1, 1], t[2, 0]


def _u(ctx, z):
    """u = A^-1 z."""
    return (ctx.Ainv @ z.T).T


def _quad(ctx, z):
    """z^T C z, the exponent of the factor exp(z^T C z) of S and S_jk
    and (halved) of sigma."""
    return (z[..., None, :] @ ctx.C @ z[..., :, None])[..., 0, 0][()]


def _weight2_exponent(ctx, z, s):
    """z^T C z + s_- + s_+, the exponent of S and S_jk over the jets at
    u -+ Delta of lattice exponents s = (s_-, s_+)."""
    return _quad(ctx, z) + s[0] + s[1]


def _theta_pair(ctx, z, order=0):
    """(u, s, jm, jp): u = A^-1 z, and theta_jet's s, shape (2,) or (2, N),
    and jets at u -+ Delta, from one kernel call on all those rows."""
    u = _u(ctx, z)
    rows = np.stack([u - ctx.pd.Delta, u + ctx.pd.Delta])
    s, V = theta_jet(ctx.pd.Omega, rows.reshape(-1, 2), order)
    jm, jp = V.reshape(rows.shape[:-1] + (order + 1, order + 1))
    return u, s.reshape(rows.shape[:-1]), jm, jp


_K3 = np.indices((2, 2, 2)).sum(axis=0)   # u2-order of d^3/du_a du_b du_c


def _pullback_jets(Ai, jet, order):
    """The first, second and third derivative tensors in z of a function
    of u = Ai z, from its u-jets of shape (..., k, k); None beyond
    order."""
    d1 = d2 = d3 = None
    t = jet.T     # t[k2, k1] is _at(jet, k1, k2)
    if order >= 1:
        d1 = (Ai.T @ np.array([t[0, 1], t[1, 0]])).T
    if order >= 2:
        # .T also swaps the Hessian's own axes, which is symmetric
        Hu = np.array([[t[0, 2], t[1, 1]], [t[1, 1], t[2, 0]]]).T
        d2 = Ai.T @ Hu @ Ai
    if order >= 3:
        d3 = np.einsum("abc...,aj,bk,cl->...jkl", t[_K3, 3 - _K3], Ai, Ai, Ai)
    return d1, d2, d3


def _sym3(a, b):
    """a_jk b_l + a_jl b_k + a_kl b_j, shape (..., 2, 2, 2)."""
    s = a[..., :, :, None] * b[..., None, None, :]
    return s + s.swapaxes(-1, -2) + s.swapaxes(-1, -3).swapaxes(-1, -2)


def _log_clearance(s, jm, jp):
    """log min |theta(u -+ Delta)|, min of log|V| + Re s over the jets
    at u -+ Delta: shape () or (N,), -inf on the zero set of S."""
    V = abs(np.array([_at(jm, 0, 0), _at(jp, 0, 0)]))
    return (_log(V) + s.real).min(axis=0)


def divisor_clearance(ctx, z):
    """min(|theta(u - Delta)|, |theta(u + Delta)|) over the theta scale;
    small values mean z sits near the zero set of S.  A float, or shape
    (N,) for a batch z."""
    _, s, jm, jp = _theta_pair(ctx, _as_zs(z), 0)
    return _scaled(1.0 / ctx.theta_ref, _log_clearance(s, jm, jp),
                   "the divisor clearance")


def S_eval(ctx, z):
    """The entire function S; zero exactly on the Abel image of the curve
    shifted by the base-point constant (and its reflection).  A complex
    number, or shape (N,) for a batch z."""
    z = _as_zs(z)
    _, s, jm, jp = _theta_pair(ctx, z, 0)
    return _scaled(ctx.c_S * _at(jm, 0, 0) * _at(jp, 0, 0),
                   _weight2_exponent(ctx, z, s), "S")


def _clear(ctx, s, jm, jp):
    """divisor_clearance >= ZERO_FACTOR at every row of the jets at u -+
    Delta, compared in logs (_log_clearance), so that no exp can
    overflow."""
    return bool((_log_clearance(s, jm, jp)
                 >= math.log(ZERO_FACTOR * ctx.theta_ref)).all())


def _require_off_divisor(ctx, s, jm, jp):
    if not _clear(ctx, s, jm, jp):
        raise OnThetaDivisorError(
            "z lies on (or too near) the zero set of S")


def _log_hessian_from_pair(ctx, jm, jp):
    """L = 2C + the z-space Hessians of log theta at u -+ Delta, from the
    order-2 jets; shape (..., 2, 2)."""
    L = 2.0 * ctx.C
    for jet in (jm, jp):
        p = _at(jet, 0, 0)
        d1, d2, _ = _pullback_jets(ctx.Ainv, jet, 2)
        # the batch axis last, where p broadcasts, and back
        L = L + (d2.T / p - (d1[..., :, None] * d1[..., None, :]).T
                 / p ** 2).T
    return L


def _log_gradient_from_pair(ctx, z, jm, jp):
    """2 C z + the z-space gradients of log theta at u -+ Delta, the
    gradient of log S, from jets of any order >= 1; shape (..., 2)."""
    gp = _pullback_jets(ctx.Ainv, jm, 1)[0] / jm[..., 0, 0, None]
    gq = _pullback_jets(ctx.Ainv, jp, 1)[0] / jp[..., 0, 0, None]
    return 2.0 * (ctx.C @ z.T).T + gp + gq


def log_S_gradient(ctx, z):
    """First logarithmic derivatives of S; shape (2,), or (N, 2) for a
    batch z."""
    z = _as_zs(z)
    _, s, jm, jp = _theta_pair(ctx, z, 1)
    _require_off_divisor(ctx, s, jm, jp)
    return _log_gradient_from_pair(ctx, z, jm, jp)


@lru_cache(maxsize=64)
def _quartic_table(c):
    """K, shape (7, 16), such that the monomials (1, p11, p12, p22,
    p12^2, p12 p22, p22^2) @ K are the 16 entries of _quartic_matrix for
    the curve coefficients c."""
    K = np.zeros((7, 4, 4), dtype=complex)
    for (j, k), terms in {
            (0, 0): [(0, -c[0])], (0, 1): [(0, c[1] / 2)], (0, 2): [(1, 2)],
            (0, 3): [(2, -2)], (1, 3): [(3, 2)], (2, 3): [(0, 2)],
            (1, 1): [(0, -c[2]), (1, -4), (4, -c[6])],
            (1, 2): [(0, c[3] / 2), (2, c[5] / 2), (5, c[6])],
            (2, 2): [(0, -c[4]), (3, -c[5]), (6, -c[6])]}.items():
        for i, v in terms:
            K[i, j, k] = K[i, k, j] = v
    K = K.reshape(7, 16)
    K.setflags(write=False)
    return K


def _quartic_matrix(f, wp):
    """The 4x4 matrix whose vanishing determinant is the defining algebraic
    relation among the three wp values (p11, p12, p22) = wp[..., :] on
    one Jacobian; shape (..., 4, 4) for wp of shape (..., 3)."""
    wp = np.asarray(wp)
    mono = np.empty(wp.shape[:-1] + (7,), dtype=complex)
    mono[..., 0] = 1.0
    mono[..., 1:4] = wp
    mono[..., 4:6] = wp[..., 1:] * wp[..., 1, None]
    mono[..., 6] = wp[..., 2] * wp[..., 2]
    return (mono @ _quartic_table(f.coeffs)).reshape(wp.shape[:-1] + (4, 4))


def _scaled_det(f, wp, by_row):
    """|det| of _quartic_matrix(f, wp) over the fourth power of its
    largest entry, or over the product of its row maxima if by_row, from
    one det call; inf where that scale is 0.  The row scaling is sharper
    when wp11 dwarfs the other entries (near the zero set of S), where a
    wrong cubic branch can otherwise sneak under the tolerance."""
    m = _quartic_matrix(f, wp)
    a = abs(m)
    scale = (np.prod(a.max(axis=-1), axis=-1) if by_row
             else a.max(axis=(-2, -1)) ** 4)
    det = abs(np.linalg.det(m))
    return np.divide(det, scale, out=np.full_like(det, np.inf),
                     where=scale != 0.0)


def quartic_residual(f, p11, p12, p22):
    """|det| of the defining relation, scaled by the fourth power of the
    largest matrix entry: a float, or shape (N,) for wp values of shape
    (N,), from one det call."""
    r = _scaled_det(f, np.stack([p11, p12, p22], axis=-1), by_row=False)
    return float(r) if r.ndim == 0 else r


def wp_eval(ctx, z, _depth=4):
    """(wp11, wp12, wp22) at z, from the logarithmic Hessian of S (the
    matrix L with L_jk = d^2 log S / dz_j dz_k); a tuple, or an (N, 3)
    array for a batch z, which raises OnThetaDivisorError if any row
    lies on the zero set of S.

    The Hessian determines the triple linearly for degree-5 curves.  For
    degree 6 the 22-component satisfies a cubic, and the quartic relation
    selects its physical root; one point and a batch alike solve every
    row's cubic in one eigvals call and test every candidate in one det
    call.  Only a row where more than one root passes takes a short
    continuity walk toward nearby points, one at a time.
    """
    z = _as_zs(z)
    _, s, jm, jp = _theta_pair(ctx, z, 2)
    _require_off_divisor(ctx, s, jm, jp)
    L = _log_hessian_from_pair(ctx, jm, jp)
    wp = _wp_from_hessian(ctx, z.reshape(-1, 2), L.reshape(-1, 2, 2),
                          _depth)
    return tuple(wp[0]) if z.ndim == 1 else wp


def _wp_from_hessian(ctx, z, L, depth=4):
    """The wp triples, shape (N, 3), at the N points z, shape (N, 2), from
    L, the log Hessians of S there, shape (N, 2, 2).

    On degree 6 each row's wp22 is a root of its cubic.  The N companion
    matrices, as np.roots builds them, go through one eigvals call, each
    root polished by one Newton step, and the row-scaled quartic residuals
    of the 3N candidate triples through one det call.  A row keeps its
    candidates in stable order of residual and takes the one under TOL_ID;
    if none passes, the best, which the suite's quartic-determinant check
    flags if it is wrong; if several pass, the one _resolve_root picks."""
    f5, f6 = ctx.f.coeffs[5:7]
    if f6 == 0:
        wp = np.empty((len(L), 3), dtype=complex)
        wp[:, 0] = L[:, 0, 0] / -2.0
        wp[:, 1:] = L[:, :, 1] / (-f5 / 2)     # (L12, L22)
        return wp
    L11, L12, L22 = L[:, 0, 0], L[:, 0, 1], L[:, 1, 1]
    # the cubic f6^2 P^3 + f5 f6 P^2 + (f5^2/4 + f6 L22) P
    # + (f5/2) L22 - f6 L12 in P = wp22, and its companion matrix
    comp = np.zeros((len(L), 3, 3), dtype=complex)
    comp[:, 0, 0] = f5 * f6
    comp[:, 0, 1] = f5 ** 2 / 4.0 + f6 * L22
    comp[:, 0, 2] = (f5 / 2.0) * L22 - f6 * L12
    comp[:, 0] /= -f6 ** 2
    comp[:, 1, 0] = comp[:, 2, 1] = 1.0
    # the monic cubic is ((P - a0) P - a1) P - a2
    P = np.linalg.eigvals(comp)
    a0, a1, a2 = comp[:, 0].T[..., None]
    slope = (3.0 * P - 2.0 * a0) * P - a1
    P -= np.divide(((P - a0) * P - a1) * P - a2, slope,
                   out=np.zeros_like(P), where=slope != 0)
    # cands[i, r] is row i's triple (p11, p12, p22) from its root r
    cands = np.empty((len(L), 3, 3), dtype=complex)
    p22 = cands[..., 2] = P
    p12 = cands[..., 1] = -(L22[:, None] + (f5 / 2.0) * p22
                            + f6 * p22 ** 2) / f6
    cands[..., 0] = -(L11[:, None] + f6 * p12 ** 2) / 2.0
    resid = _scaled_det(ctx.f, cands, by_row=True)
    order = np.argsort(resid, axis=1, kind="stable")
    passing = np.count_nonzero(resid < TOL_ID, axis=1)
    wp = cands[np.arange(len(L)), order[:, 0]]
    for i in np.flatnonzero(passing > 1):
        wp[i] = _resolve_root(ctx, z[i], cands[i, order[i, :passing[i]]],
                              depth)
    return wp


def _resolve_root(ctx, z, cands, depth):
    """Pick among quartic-passing wp candidates, rows of cands, by
    continuity against a nearby unambiguous point."""
    if depth <= 0:
        raise RootSelectionAmbiguity(
            "multiple wp branches satisfy the defining relation and no "
            "nearby reference point resolves them")
    bump = 0.05 * ctx.jet_scale
    for z_ref in (0.95 * z, 1.05 * z, z + np.array([bump, 0]),
                  z + np.array([0, bump])):
        try:
            ref = wp_eval(ctx, z_ref, _depth=depth - 1)
        except (OnThetaDivisorError, RootSelectionAmbiguity):
            continue
        return min(cands, key=lambda t: abs(t[2] - ref[2]))
    raise RootSelectionAmbiguity(
        "multiple wp branches satisfy the defining relation and no "
        "nearby reference point resolves them")


# -- the weight-2 companions S11, S12, S22 ---------------------------------

def _pq_and_E(P, Q):
    """e = (pq, E11, E12, E22), a batch axis last, E = q p'' + p q'' - p'
    q'^T - q' p'^T (u-derivatives), from P and Q, the entries (p, p1, p2,
    p11, p12, p22) of two jets as _order2 reads them."""
    p, p1, p2, p11, p12, p22 = P
    q, q1, q2, q11, q12, q22 = Q
    return np.array([p * q,
                     q * p11 + p * q11 - 2.0 * p1 * q1,
                     q * p12 + p * q12 - p1 * q2 - p2 * q1,
                     q * p22 + p * q22 - 2.0 * p2 * q2])


def _weight2_from_pair(ctx, jm, jp):
    """(S, S11, S12, S22) over exp(z^T C z + s_- + s_+), a batch axis
    last, from the order-2 jets p, q at u -+ Delta: c_S pq and sjk_coeffs
    @ (pq, E11, E12, E22)."""
    e = _pq_and_E(_order2(jm), _order2(jp))
    return np.concatenate([[ctx.c_S * e[0]], ctx.sjk_coeffs @ e])


def _wp_by_ratio(ctx, jm, jp):
    """(wp, wp3), a batch axis last, from the order-3 jets p, q at u -+
    Delta: wp = (wp11, wp12, wp22) = S_jk / S = sjk_coeffs @ e / (c_S pq),
    e = (pq, E11, E12, E22), and wp3 = (wp111, wp112, wp122, wp222), its
    z-derivatives.  e is bilinear in the jets of p and q, and the jet of
    d p / du_a is p's shifted by one order in u_a, so d e / du_a is e of
    (d_a p, q) plus e of (p, d_a q); d/dz_l = sum_a (A^-1)_al d/du_a."""
    P, Q = _order2(jm), _order2(jp)
    e = _pq_and_E(P, Q)
    de = [_pq_and_E(_order2(dm), Q) + _pq_and_E(P, _order2(dp))
          for dm, dp in ((jm[..., 1:, :], jp[..., 1:, :]),
                         (jm[..., :, 1:], jp[..., :, 1:]))]
    S, Ai = ctx.c_S * e[0], ctx.Ainv
    wp = ctx.sjk_coeffs @ e / S
    # d wp_jk / dz_l = (sjk_coeffs @ d e / dz_l - wp_jk c_S d pq / dz_l) / S
    d1, d2 = [(ctx.sjk_coeffs @ dz - wp * (ctx.c_S * dz[0])) / S
              for dz in (Ai[0, l] * de[0] + Ai[1, l] * de[1] for l in (0, 1))]
    return wp, np.array([d1[0], d2[0], d2[1], d2[2]])


def S_jk_eval(ctx, z):
    """(S11, S12, S22) at z; entire, no excluded points.  One exact
    formula on both degrees, on and off the zero set of S.  Shape (3,),
    or (N, 3) for a batch z."""
    z = _as_zs(z)
    _, s, jm, jp = _theta_pair(ctx, z, 2)
    # a batch axis is last in the product, and .T moves it first
    return _scaled(_weight2_from_pair(ctx, jm, jp)[1:],
                   _weight2_exponent(ctx, z, s), "S_jk").T


# -- sigma family (degree 5, Weierstrass form) --------------------------------

def _require_weierstrass(ctx):
    if not ctx.f.weierstrass_form or ctx.c_sigma is None:
        raise NotWeierstrassFormError(
            "sigma functions require a degree-5 curve in Weierstrass "
            "form (f6 = 0, f5 = 4)")


def _sigma_twist(ctx, quad, u, s):
    """t in sigma = c_sigma exp(t) V(u - Delta), V's lattice exponent s
    plus the quadratic and characteristic-linear terms, quad = z^T C z."""
    n0, m0 = ctx.pd.delta_char
    lin = -1j * np.pi * (u @ np.asarray(m0))
    return 0.5 * quad + lin + s


def sigma_eval(ctx, z):
    """The odd entire sigma function with unit jet dsigma/dz1(0) = 1.  A
    complex number, or shape (N,) for a batch z."""
    return sigma_jets(ctx, z, 0)[(0, 0)]


def sigma_jets(ctx, z, order=2):
    """sigma and its partial derivatives up to the given order (an
    integer 0-3), as a dict keyed by (k1, k2): complex numbers for one
    point, shape (N,) arrays for a batch z, from one theta call."""
    _require_weierstrass(ctx)
    z = _as_zs(z)
    u = _u(ctx, z)
    s, jm = theta_jet(ctx.pd.Omega, u - ctx.pd.Delta, order)
    d1, d2, d3 = _pullback_jets(ctx.Ainv, jm, order)
    n0, m0 = ctx.pd.delta_char
    g1 = (ctx.C @ z.T).T - 1j * np.pi * (ctx.Ainv.T @ np.asarray(m0))
    # Leibniz for e V, e the exponential factor, whose log derivatives are
    # g1, C and 0; the order-n tensor v gives key (k1, k2) at index (0,) *
    # k1 + (1,) * k2 of its last n axes, read through v.T as _at reads a jet
    th = _at(jm, 0, 0)
    g2 = ctx.C + g1[..., :, None] * g1[..., None, :]
    jets = [th]
    if order >= 1:
        jets.append(d1 + g1 * th[..., None])
    if order >= 2:
        jets.append(d2 + g1[..., :, None] * d1[..., None, :]
                    + d1[..., :, None] * g1[..., None, :]
                    + g2 * th[..., None, None])
    if order >= 3:
        jets.append(d3 + _sym3(d2, g1) + _sym3(g2, d1) + (
            _sym3(ctx.C, g1) + np.einsum("...j,...k,...l->...jkl",
                                         g1, g1, g1))
            * th[..., None, None, None])
    keys = [(n - k, k) for n in range(order + 1) for k in range(n + 1)]
    mant = np.array([ctx.c_sigma * v.T[(1,) * k + (0,) * (n - k)]
                     for n, v in enumerate(jets) for k in range(n + 1)])
    t = _sigma_twist(ctx, _quad(ctx, z), u, s)
    return dict(zip(keys, _scaled(mant, t, "the sigma jets")))


# -- Abel map and inversion ---------------------------------------------------
#
# abel_forward and rho_lambda_eval take a Divisor or a sequence of them,
# and jacobi_invert z of shape (2,) or (N, 2).  abel_forward maps every
# affine point of a batch through one abel_images call: a half-segment
# from a branch point, all summed in one pass, or a tail series from far
# out, with no path.  rho_lambda_eval integrates the second-kind forms
# too, along one concrete path per divisor: the affine pairs through one
# path_between and one integrate_forms call.  One divisor is a batch of
# one.  jacobi_invert reads its divisors off the theta jets.

def _divisors(D):
    """(divisors, one): D as a list, and whether it was one Divisor."""
    return ([D], True) if isinstance(D, Divisor) else (list(D), False)


def _path_integrals(ctx, P0, P1, numerators):
    """Integrals of the forms n_k(x)/y dx from each P0[i] to P1[i], all
    affine, one row per pair, along the paths of path_between."""
    pieces, y0, path, weight = path_between(ctx.f, P0, P1)
    vals = integrate_forms(ctx.f, pieces, y0, numerators)
    # W[i, k] is piece k's multiplicity on path i
    W = np.zeros((len(P0), len(pieces)))
    W[path, np.arange(len(pieces))] = weight
    return W @ vals


def abel_forward(ctx, D):
    """Abel image of the degree-2 divisor D = (p) + (q), modulo the
    lattice: z = A(q) - A(ip), ip the involution image of p, with A the
    integral of (dx/y, x dx/y) from inf_2, A(inf_1) = z_star and A(inf_2)
    = 0 (A = 0 at the one infinite point of degree 5).  A of an affine
    point is A(e) of a branch point e (ctx.branch_abel) plus the straight
    half-segment from e, or from far out a tail series (abel_images), so
    a branch point maps to its half-period.  Unordered-pair symmetry and
    the involution's sign hold modulo periods.  Shape (2,), an array of
    its own, or (N, 2) for a sequence of N divisors."""
    Ds, one = _divisors(D)
    # A at q, then at ip, of every divisor
    ends = [d.q for d in Ds] + [involution(d.p) for d in Ds]
    affine = [P for P in ends if P.is_affine]
    if affine:
        A = abel_images(ctx.f, [P.x for P in affine], [P.y for P in affine],
                        ctx.branch_abel, ctx.pd.z_star)
    if len(affine) < len(ends):
        full = np.zeros((len(ends), 2), dtype=complex)
        if affine:
            full[[P.is_affine for P in ends]] = A
        if ctx.pd.z_star is not None:
            full[[P.infinity == 1 for P in ends]] = ctx.pd.z_star
        A = full
    n = len(Ds)
    return A[0] - A[1] if one else A[:n] - A[n:]


def jacobi_invert(ctx, z):
    """The unordered divisor (p) + (q) whose Abel image is z mod periods;
    a list of N divisors for z of shape (N, 2).  The x are the roots of
    x^2 - wp22 x - wp12, each y the square root of f(x) nearest wp222 x +
    wp122 (Baker 1907; Buchstaber, Enolski and Leykin 1997), which it must
    match to TOL_RT, else SignResolutionError.  wp = S_jk/S and wp_jkl,
    its z-derivatives, come from one order-3 theta_jet call on the batch
    (_wp_by_ratio), with no root selection; nothing is integrated."""
    z = _as_zs(z)
    _, s, jm, jp = _theta_pair(ctx, z, 3)
    _require_off_divisor(ctx, s, jm, jp)
    wp, wp3 = _wp_by_ratio(ctx, jm, jp)
    # one row per point, its two x along the row
    _, p12, p22 = np.reshape(wp, (3, -1, 1))
    _, _, p122, p222 = np.reshape(wp3, (4, -1, 1))
    root = np.sqrt(p22 ** 2 + 4 * p12)
    x = np.concatenate([p22 + root, p22 - root], axis=1) / 2
    y = np.sqrt(ctx.f(x))
    slope = p222 * x
    line = slope + p122
    # +-y, whichever is nearer the line; its distance to the line is the
    # smaller of near and far, as -y - line is -(y + line) exactly
    near, far = abs(y - line), abs(y + line)
    y = np.where(near <= far, y, -y)
    # y, wp222 x and wp122 all have the weight of y: a grading-invariant
    # scale, kept off zero by the terms where they cancel at a branch point
    scale = np.maximum(abs(y), np.maximum(abs(slope), abs(p122)))
    if not (np.minimum(near, far) <= TOL_RT * scale).all():
        raise SignResolutionError("the inverted divisor's y values are off "
                                  "the line y = wp222 x + wp122")
    out = [Divisor(CurvePoint(x=a, y=b), CurvePoint(x=c, y=d))
           for (a, c), (b, d) in zip(x.tolist(), y.tolist())]
    return out[0] if z.ndim == 1 else out


def rho_lambda_eval(ctx, D):
    """(rho1, rho2, lam, z) for a non-special affine divisor with distinct
    x-coordinates: second-kind integrals along one concrete Abel path,
    the chord slope lam = (y_p - y_q)/(x_p - x_q), and the Abel image z
    of that same path, so the first-derivative identities hold exactly
    as stated.  For a sequence of N divisors rho1, rho2 and lam have
    shape (N,) and z (N, 2); the first divisor that is not admissible
    raises its error."""
    Ds, one = _divisors(D)
    f, scale = ctx.f, ctx.f.scale
    for d in Ds:
        if not (d.p.is_affine and d.q.is_affine):
            raise InfinitePointError(
                "second-kind evaluation requires both points affine")
        if is_special(f, d):
            raise SpecialDivisorError(
                "divisor is special; second-kind integrals diverge")
        if abs(d.p.x - d.q.x) < DIAG_FACTOR * scale:
            raise DiagonalError("divisor points share an x-coordinate")
    vals = _path_integrals(ctx, [involution(d.p) for d in Ds],
                           [d.q for d in Ds], all_numerators(f))
    lam = [(d.p.y - d.q.y) / (d.p.x - d.q.x) for d in Ds]
    if one:
        return vals[0, 2], vals[0, 3], lam[0], vals[0, :2]
    return vals[:, 2], vals[:, 3], np.array(lam), vals[:, :2]


# -- bundled evaluation -------------------------------------------------------

@dataclass(frozen=True, slots=True)
class EvalBundle:
    """One-point evaluation record; wp fields are None on the zero set of
    S, sigma fields are None unless requested on a Weierstrass curve, and
    zeta and wp_jkl are None on the zero set of S as well."""
    z: np.ndarray
    S: complex
    S11: complex
    S12: complex
    S22: complex
    p11: Optional[complex] = None
    p12: Optional[complex] = None
    p22: Optional[complex] = None
    sigma: Optional[complex] = None
    zeta1: Optional[complex] = None
    zeta2: Optional[complex] = None
    p111: Optional[complex] = None
    p112: Optional[complex] = None
    p122: Optional[complex] = None
    p222: Optional[complex] = None


def evaluate_bundle(ctx, z, want_sigma=False):
    """Every field at z from one theta pair at u -+ Delta, of order 3 with
    sigma and 2 without; only the root-selection walk evaluates theta
    elsewhere.  With sigma, zeta_j = 1/2 d_j log S and wp_jkl, the
    z-derivatives of S_jk / S, are read off the same jets; like wp they
    are None on the zero set of S, which holds that of sigma."""
    z = _as_zs(z, batch=False)
    if want_sigma:
        _require_weierstrass(ctx)
    u, s, jm, jp = _theta_pair(ctx, z, 3 if want_sigma else 2)
    w2 = _scaled(_weight2_from_pair(ctx, jm, jp),
                 _weight2_exponent(ctx, z, s), "S or S_jk")
    fields = dict(z=z, S=w2[0], S11=w2[1], S12=w2[2], S22=w2[3])
    if want_sigma:
        fields["sigma"] = _scaled(ctx.c_sigma * jm[0, 0], _sigma_twist(
            ctx, _quad(ctx, z), u, s[0]), "sigma")
    if _clear(ctx, s, jm, jp):
        L = _log_hessian_from_pair(ctx, jm, jp)
        wp = _wp_from_hessian(ctx, z[None], L[None])[0]
        fields.update(p11=wp[0], p12=wp[1], p22=wp[2])
        if want_sigma:
            zeta = 0.5 * _log_gradient_from_pair(ctx, z, jm, jp)
            wp3 = _wp_by_ratio(ctx, jm, jp)[1]
            fields.update(zeta1=zeta[0], zeta2=zeta[1], p111=wp3[0],
                          p112=wp3[1], p122=wp3[2], p222=wp3[3])
    return EvalBundle(**fields)
