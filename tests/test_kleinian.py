"""The weight-2 family S, S_jk, the wp extraction, and the Abel map."""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kleinian2 as k2
from kleinian2.curve import involution
from kleinian2.kleinian import log_S_gradient, rho_lambda_eval
from kleinian2.periods import eta_of_lattice, lattice_vector
from kleinian2.theta import lattice_reduce

from conftest import (G6_COEFFS, mp_half_segment, mp_numerators,
                      sample_divisor, sample_z)
from test_panel import TWO_PAIRS_I, TWO_PAIRS_R


def test_context_certificates(w5_ctx, g6_ctx):
    for ctx in (w5_ctx, g6_ctx):
        assert ctx.theta_ref > 0
        assert ctx.jet_scale > 0
        assert np.max(np.abs(ctx.C - ctx.C.T)) < 1e-14 * np.max(np.abs(ctx.C))
    assert w5_ctx.c_sigma is not None
    assert abs(w5_ctx.c_sigma ** 2 + w5_ctx.c_S) < 1e-7 * abs(w5_ctx.c_S)
    assert g6_ctx.c_sigma is None


def test_S_even(any_ctx):
    rng = np.random.default_rng(41)
    for _ in range(10):
        z = sample_z(any_ctx, rng)
        a, b = k2.S_eval(any_ctx, z), k2.S_eval(any_ctx, -z)
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_S_quasi_periodicity_exact_factor(any_ctx):
    """S(z + w) = S(z) exp(2 eta(w) . (z + w/2)) for every period w."""
    ctx = any_ctx
    rng = np.random.default_rng(42)
    for _ in range(10):
        z = sample_z(ctx, rng)
        mn = rng.integers(-2, 3, 4)
        if not mn.any():
            continue
        w = lattice_vector(ctx.pd, mn)
        factor = np.exp(2.0 * eta_of_lattice(ctx.pd, mn) @ (z + 0.5 * w))
        lhs = k2.S_eval(ctx, z + w)
        rhs = factor * k2.S_eval(ctx, z)
        assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), abs(rhs))


def test_log_hessian_on_divisor_raises(any_ctx):
    """Both users of the log Hessian of S refuse z on the zero set of S."""
    with pytest.raises(k2.OnThetaDivisorError):
        k2.wp_eval(any_ctx, np.zeros(2))
    with pytest.raises(k2.OnThetaDivisorError):
        k2.jacobi_invert(any_ctx, np.zeros(2))


def test_wp_forward_consistency(any_ctx):
    """wp at the Abel image of a divisor reproduces the two-point functions
    xi_jk of that divisor."""
    ctx = any_ctx
    rng = np.random.default_rng(44)
    for _ in range(10):
        D = sample_divisor(ctx, rng)
        z = k2.abel_forward(ctx, D)
        got = np.array(k2.wp_eval(ctx, z))
        want = np.array(k2.xi_eval(ctx.f, D))
        ref = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) / ref < 1e-7



@pytest.mark.xfail(strict=True, reason=(
    "degree-6 wp picks a spurious cubic root near the zero set of S; the "
    "wrong triple still passes quartic_residual"))
def test_wp_near_zero_set_matches_xi(g6_ctx):
    """One point far out (|x| = 100) puts the Abel image near the zero set
    of S; wp there must still reproduce xi_jk of the divisor."""
    ctx = g6_ctx
    f = ctx.f
    xs = (100 * np.exp(0.7j), 0.5 + 0.3j)
    D = k2.Divisor(*(k2.CurvePoint.affine(x, np.sqrt(f(x))) for x in xs))
    z = k2.abel_forward(ctx, D)
    assert k2.divisor_clearance(ctx, z) > 1e-2
    got = np.array(k2.wp_eval(ctx, z))
    want = np.array(k2.xi_eval(f, D))
    ref = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) / ref < 1e-7

def test_abel_unordered_and_involution(any_ctx):
    ctx = any_ctx
    rng = np.random.default_rng(45)
    for _ in range(5):
        D = sample_divisor(ctx, rng)
        z1 = k2.abel_forward(ctx, D)
        z2 = k2.abel_forward(ctx, k2.Divisor(D.q, D.p))
        assert k2.nearest_lattice_residual(ctx.pd, z1 - z2) < 1e-9
        DJ = k2.Divisor(involution(D.p), involution(D.q))
        z3 = k2.abel_forward(ctx, DJ)
        assert k2.nearest_lattice_residual(ctx.pd, z1 + z3) < 1e-9


def test_abel_near_a_branch_point_in_either_order(any_ctx):
    """P = (e + delta, y) next to the branch point e, delta = 1e-6 ...
    1e-10, Q at 0.4 + 0.7i, all four sign choices: both orders of the
    divisor integrate, and agree modulo the lattice.  P integrates from e
    itself, within BRANCH_SNAP of it, along a half-segment that factors
    y = v sqrt(x - e) c(x), so f near e carries no rounding noise."""
    ctx = any_ctx
    f = ctx.f
    e = ctx.pd.roots[1]
    for delta in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        for sp, sq in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            P = k2.CurvePoint.affine(e + delta, sp * np.sqrt(f(e + delta)))
            Q = k2.CurvePoint.affine(0.4 + 0.7j, sq * np.sqrt(f(0.4 + 0.7j)))
            z = [k2.abel_forward(ctx, D)
                 for D in (k2.Divisor(P, Q), k2.Divisor(Q, P))]
            residual = k2.nearest_lattice_residual(ctx.pd, z[0] - z[1])
            assert residual < 1e-10


def test_abel_infinite_points_differ_by_z_star(g6_ctx):
    """Swapping which infinite point completes the divisor shifts the image
    by the infinity-to-infinity integral, modulo periods."""
    ctx = g6_ctx
    f = ctx.f
    x = 1.9 + 0.7j
    P = k2.CurvePoint(x, np.sqrt(f(x)))
    z1 = k2.abel_forward(ctx, k2.Divisor(P, k2.CurvePoint.at_infinity(1)))
    z2 = k2.abel_forward(ctx, k2.Divisor(P, k2.CurvePoint.at_infinity(2)))
    resid = k2.nearest_lattice_residual(ctx.pd, z1 - z2 - ctx.pd.z_star)
    assert resid < 1e-9


def _affine_points(ctx, n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = ctx.f.scale * rng.uniform(0.3, 1.5) * np.exp(
            2j * np.pi * rng.uniform())
        yield k2.CurvePoint(x, np.sqrt(ctx.f(x)) * rng.choice([-1.0, 1.0]))


def test_abel_symmetric_with_one_infinite_point(any_ctx):
    """(P) + (inf_l) and (inf_l) + (P) map the involution image of P and
    P itself, A(inf_l) - A(iP) and A(P) - A(inf_(3-l)), and give the same
    image modulo the lattice, to 1e-13."""
    ctx = any_ctx
    for P in _affine_points(ctx, 4, 47):
        for label in (1, 2):
            inf = k2.CurvePoint.at_infinity(label)
            z1 = k2.abel_forward(ctx, k2.Divisor(P, inf))
            z2 = k2.abel_forward(ctx, k2.Divisor(inf, P))
            assert k2.nearest_lattice_residual(ctx.pd, z1 - z2) <= 1e-13 * max(
                1.0, np.max(np.abs(z1)))


def test_abel_double_point_splits_at_infinity(any_ctx):
    """abel((P) + (P)), a run into a branch point after an empty straight
    run, equals abel((P) + (inf_1)) + abel((P) + (inf_2)) modulo
    periods."""
    ctx = any_ctx
    inf1, inf2 = k2.CurvePoint.at_infinity(1), k2.CurvePoint.at_infinity(2)
    for P in _affine_points(ctx, 4, 48):
        z = k2.abel_forward(ctx, k2.Divisor(P, P))
        want = (k2.abel_forward(ctx, k2.Divisor(P, inf1))
                + k2.abel_forward(ctx, k2.Divisor(P, inf2)))
        assert k2.nearest_lattice_residual(ctx.pd, z - want) < 1e-12


def test_abel_both_infinite(g6_ctx):
    inf1, inf2 = k2.CurvePoint.at_infinity(1), k2.CurvePoint.at_infinity(2)
    ctx = g6_ctx
    z = k2.abel_forward(ctx, k2.Divisor(inf1, inf1))
    assert np.max(np.abs(z - ctx.pd.z_star)) < 1e-12
    z = k2.abel_forward(ctx, k2.Divisor(inf2, inf2))
    assert np.max(np.abs(z + ctx.pd.z_star)) < 1e-12
    z = k2.abel_forward(ctx, k2.Divisor(inf1, inf2))
    assert np.max(np.abs(z)) == 0.0


def test_jacobi_invert_round_trip(any_ctx):
    ctx = any_ctx
    rng = np.random.default_rng(46)
    for _ in range(10):
        z = sample_z(ctx, rng)
        D = k2.jacobi_invert(ctx, z)
        for P in (D.p, D.q):
            fx = ctx.f(P.x)
            assert abs(P.y ** 2 - fx) <= 1e-8 * (1.0 + abs(fx))
        back = k2.abel_forward(ctx, D)
        resid = k2.nearest_lattice_residual(ctx.pd, back - z)
        assert resid < 1e-7 * max(1.0, float(np.linalg.norm(z)))


def test_quartic_certificate(any_ctx):
    ctx = any_ctx
    rng = np.random.default_rng(47)
    for _ in range(10):
        z = sample_z(ctx, rng)
        M = k2.kleinian._quartic_matrix(ctx.f, k2.wp_eval(ctx, z))
        assert M.shape == (4, 4)
        assert M[3, 3] == 0
        assert np.max(np.abs(M - M.T)) == 0.0
        assert k2.quartic_residual(ctx.f, *k2.wp_eval(ctx, z)) < 1e-7


def test_wp_is_abelian(any_ctx):
    """wp_jk take the same value at z and z + any period."""
    ctx = any_ctx
    rng = np.random.default_rng(54)
    for _ in range(5):
        z = sample_z(ctx, rng, clearance=0.05)
        mn = rng.integers(-2, 3, 4)
        w = lattice_vector(ctx.pd, mn)
        a = np.array(k2.wp_eval(ctx, z))
        b = np.array(k2.wp_eval(ctx, z + w))
        assert np.max(np.abs(a - b)) < 1e-8 * max(1.0, np.max(np.abs(a)))


def test_sjk_equals_wp_times_S(any_ctx):
    ctx = any_ctx
    rng = np.random.default_rng(48)
    for _ in range(10):
        z = sample_z(ctx, rng, clearance=0.05)
        s = k2.S_eval(ctx, z)
        sjk = np.array(k2.S_jk_eval(ctx, z))
        wp = np.array(k2.wp_eval(ctx, z))
        assert np.max(np.abs(sjk - wp * s)) < 1e-7 * max(1.0, np.max(np.abs(sjk)))


def test_sjk_continuous_into_divisor(g6_ctx):
    """S_jk is entire: walking into the zero set of S (where wp blows up)
    it must stay smooth."""
    ctx = g6_ctx
    rng = np.random.default_rng(49)
    z0 = sample_z(ctx, rng, clearance=0.2)
    # pull z0 toward a zero of S by bisection on the clearance
    lo, hi = np.zeros(2), z0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if k2.divisor_clearance(ctx, mid) < 1e-12:
            lo = mid
        else:
            hi = mid
    z_div = 0.5 * (lo + hi)
    assert k2.divisor_clearance(ctx, z_div) < 1e-6
    d = (z0 - z_div) / np.linalg.norm(z0 - z_div)
    ts = np.geomspace(1e-6, 0.3, 24) * ctx.jet_scale
    vals = np.array([k2.S_jk_eval(ctx, z_div + t * d) for t in ts])
    # neighbouring samples along the ray differ smoothly (no branch jumps)
    steps = np.abs(np.diff(vals, axis=0))
    scale = max(1.0, float(np.max(np.abs(vals))))
    assert float(np.max(steps)) < 0.2 * scale


WIDE_SEXTIC_ROOTS = np.array([0, 1, 2j, -1 + 1j, 3, -2 - 1j])


@pytest.mark.parametrize("s", [0.01, 30.0])
def test_sjk_at_abel_images_on_wide_sextics(s):
    """S_jk = xi_jk(D) S at the Abel image of a divisor D, on sextics
    whose roots s {0, 1, 2i, -1+i, 3, -2-i} leave the wp root selection
    ambiguous: S_jk needs no wp."""
    f = k2.validate_polynomial(list(np.poly(s * WIDE_SEXTIC_ROOTS)[::-1]))
    with pytest.warns(UserWarning, match="unit scale"):
        ctx = k2.make_context(f)
    rng = np.random.default_rng(59)
    done = 0
    while done < 4:
        xs = s * (0.5 + 3.0 * rng.random(2)) * np.exp(
            2j * np.pi * rng.random(2))
        if (abs(xs[0] - xs[1]) < 0.1 * s
                or min(abs(x - r) for x in xs
                       for r in s * WIDE_SEXTIC_ROOTS) < 0.1 * s):
            continue
        D = k2.Divisor(*(k2.CurvePoint.affine(x, rng.choice([-1, 1])
                                              * np.sqrt(f(x))) for x in xs))
        z = k2.abel_forward(ctx, D)
        got = np.array(k2.S_jk_eval(ctx, z))
        want = np.array(k2.xi_eval(f, D)) * k2.S_eval(ctx, z)
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))
        done += 1


def test_corrupt_weight2_basis_fails_certificate(monkeypatch):
    """A wrong Theta-basis row for pq breaks the S row of the S_jk
    coefficients, and make_context refuses the context."""
    basis = k2.kleinian._weight2_basis

    def corrupted(*args):
        B, M = basis(*args)
        M = M.copy()
        M[0, 1] *= 1.0 + 1e-4
        return B, M

    monkeypatch.setattr(k2.kleinian, "_weight2_basis", corrupted)
    with pytest.raises(k2.NormalizationError, match="weight-2"):
        k2.make_context(k2.validate_polynomial(G6_COEFFS))


@pytest.fixture(scope="module")
def ring_ctx():
    """A seeded unit-ring sextic: roots near |x| = 1, jittered angles."""
    rng = np.random.default_rng(2024)
    angles = (2 * np.pi * (np.arange(6) + rng.uniform(-0.3, 0.3, 6)) / 6
              + rng.uniform(0, 2 * np.pi))
    roots = rng.uniform(0.75, 1.25, 6) * np.exp(1j * angles)
    lead = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
    return k2.make_context(k2.validate_polynomial(lead * np.poly(roots)[::-1]))


def _weight2_basis_by_hand(pd, Ainv, C):
    """Reference: _weight2_basis with the factor exp(i pi eps.w) carried
    into the jets by the Leibniz rule written out, mu = i pi eps: the
    Hessian of exp(mu.w) theta is exp(mu.w) (theta'' + mu theta'^T +
    theta' mu^T + mu mu^T theta)."""
    Om = pd.Omega
    eps = np.tile([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], (2, 1))
    w = np.zeros((8, 2), dtype=complex)
    w[4:] = 2.0 * pd.Delta
    s, jet = k2.theta.theta_jet(2.0 * Om, w + eps @ Om, 2)
    mu = 1j * np.pi * eps
    fac = np.exp(0.5j * np.pi * np.einsum("ri,ij,rj->r", eps, Om, eps)
                 + np.einsum("ri,ri->r", mu, w) + s)
    val = jet[:, 0, 0]
    grad = np.stack([jet[:, 1, 0], jet[:, 0, 1]], axis=1)
    hess = np.stack([jet[:, 2, 0], jet[:, 1, 1],
                     jet[:, 1, 1], jet[:, 0, 2]], axis=1).reshape(8, 2, 2)
    mg = mu[:, :, None] * grad[:, None, :]
    theta = fac * val
    hess = fac[:, None, None] * (hess + mg + mg.transpose(0, 2, 1)
                                 + mu[:, :, None] * mu[:, None, :]
                                 * val[:, None, None])
    hz = 2.0 * C * theta[:4, None, None] + 4.0 * Ainv.T @ hess[:4] @ Ainv
    entries = ((0, 0), (0, 1), (1, 1))
    B = np.column_stack([theta[:4]] + [hz[:, j, k] for j, k in entries])
    M = np.array([theta[4:]] + [4.0 * hess[4:, j, k] for j, k in entries])
    return B, M


@pytest.mark.parametrize("name", ["w5", "g6", "ring"])
def test_weight2_basis_takes_thetas_leibniz_step(name, w5_ctx, g6_ctx,
                                                 ring_ctx):
    """The weight-2 basis, its factor exp(i pi eps.w) carried by theta's
    Leibniz step at m = -eps/2 and its z-Hessian pulled back through
    2 A^-1, equals the Leibniz rule written out, B and M each to 1e-14 of
    their largest entry."""
    ctx = {"w5": w5_ctx, "g6": g6_ctx, "ring": ring_ctx}[name]
    got = k2.kleinian._weight2_basis(ctx.pd, ctx.Ainv, ctx.C)
    want = _weight2_basis_by_hand(ctx.pd, ctx.Ainv, ctx.C)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


def _clear_and_clearance(ctx, z):
    """(_clear, clearance >= ZERO_FACTOR) at the one point z: _clear on
    its theta pair, and divisor_clearance compared with ZERO_FACTOR, a
    clearance past the largest double (NonFiniteValueError) counting as
    one that is at least ZERO_FACTOR."""
    kl = k2.kleinian
    _, s, jm, jp = kl._theta_pair(ctx, z, 0)
    try:
        clear = k2.divisor_clearance(ctx, z) >= kl.ZERO_FACTOR
    except k2.NonFiniteValueError:
        assert kl._log_clearance(s, jm, jp) > kl._LOG_MAX
        clear = True
    return kl._clear(ctx, s, jm, jp), bool(clear)


def test_clear_is_the_divisor_clearance_against_zero_factor(any_ctx):
    """_clear is divisor_clearance >= ZERO_FACTOR: on cell points, on
    points off the Abel image of (P) + (inf) whose clearance is within a
    factor of 10 of ZERO_FACTOR, on either side, and on far lattice
    translates of cell points, where exp(-Re s) underflows."""
    ctx, zf = any_ctx, k2.kleinian.ZERO_FACTOR
    rng = np.random.default_rng(61)
    t = rng.random((200, 4))
    cell = (ctx.pd.A @ t[:, :2].T + ctx.pd.B @ t[:, 2:].T).T
    for z in cell:
        got, want = _clear_and_clearance(ctx, z)
        assert got == want
    near = []
    for x in (0.7 + 0.4j, -0.5 + 0.9j, 1.3 - 0.2j):
        P = k2.CurvePoint.affine(x, np.sqrt(ctx.f(x)))
        inf = k2.CurvePoint.at_infinity(1)
        z0 = k2.abel_forward(ctx, k2.Divisor(P, inf))
        for step in np.logspace(-9, -3, 61):
            z = z0 + step * np.array([1.0, 0.3])
            c = k2.divisor_clearance(ctx, z)
            if zf / 10 <= c <= 10 * zf:
                near.append(c >= zf)
                got, want = _clear_and_clearance(ctx, z)
                assert got == want
    assert sum(near) >= 3 and len(near) - sum(near) >= 3
    k = np.concatenate([np.zeros((20, 2)), rng.integers(40, 60, (20, 2))
                        * rng.choice([-1, 1], (20, 2))], axis=1)
    far = cell[:20] + k2.periods.lattice_vector(ctx.pd, k)
    s = k2.kleinian._theta_pair(ctx, far, 0)[1]
    assert np.all(np.exp(-s.real) == 0)
    for z in far:
        got, want = _clear_and_clearance(ctx, z)
        assert got == want


def test_clear_compares_in_logs_where_exp_overflows(w5_ctx, monkeypatch):
    """Where exp(-Re s) overflows, |V| past exp(700) and Re s = -720,
    _clear still reads the clearance |V| exp(Re s) / theta_ref against
    ZERO_FACTOR as divisor_clearance gives it, with no overflow.  No
    curve reaches there: Re s >= -pi/4 sum |Im Omega|."""
    kl, ctx = k2.kleinian, w5_ctx
    s = np.array([-720.0 + 0.3j, -720.0 - 0.2j])
    for gap in (-2.0, -0.1, 0.1, 2.0):
        V = np.exp(720.0 + np.log(kl.ZERO_FACTOR * ctx.theta_ref) + gap)
        jm, jp = np.array([[V * 1j]]), np.array([[3.0 * V]])
        monkeypatch.setattr(kl, "_theta_pair",
                            lambda ctx, z, order: (None, s, jm, jp))
        clearance = k2.divisor_clearance(ctx, np.zeros(2))
        assert abs(clearance / (kl.ZERO_FACTOR * np.exp(gap)) - 1) < 1e-12
        assert kl._clear(ctx, s, jm, jp) == (gap > 0)
        monkeypatch.undo()


def test_make_context_rejects_period_data_of_another_curve(w5_ctx):
    """Period data of 4x^5 - 4x paired with x^6 - 1 or with 3x^5 - 4x
    would give functions of neither curve, so make_context refuses it."""
    for coeffs in (G6_COEFFS, [0, -4, 0, 0, 0, 3]):
        with pytest.raises(ValueError, match="different curve"):
            k2.make_context(k2.validate_polynomial(coeffs), w5_ctx.pd)


def test_taylor_z2_quartic_coefficient(g6_ctx):
    """The first z2-only structure of S beyond the quadratic term carries
    -f6/4 at order 4; measured with a 1-D circle sum along e2."""
    ctx = g6_ctx
    nodes, r = 64, 0.3 * ctx.jet_scale
    phases = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    vals = np.array([k2.S_eval(ctx, np.array([0.0, r * ph])) for ph in phases])
    c4 = np.mean(vals * phases ** -4) / r ** 4
    want = -ctx.f.coeffs[6] / 4.0
    assert abs(c4 - want) < 1e-8


def test_rho_lambda_first_derivative_identities(any_ctx):
    """d1 log S = -2 rho1 + lambda and d2 log S = -2 rho2 along the very
    path that defines z."""
    ctx = any_ctx
    rng = np.random.default_rng(50)
    done = 0
    while done < 6:
        D = sample_divisor(ctx, rng)
        if abs(D.p.x - D.q.x) < 0.2:
            continue
        rho1, rho2, lam, z = rho_lambda_eval(ctx, D)
        if k2.divisor_clearance(ctx, z) < 1e-3:
            continue
        g = log_S_gradient(ctx, z)
        ref = max(1.0, abs(g[0]), abs(g[1]))
        assert abs(g[0] - (-2 * rho1 + lam)) / ref < 1e-6
        assert abs(g[1] - (-2 * rho2)) / ref < 1e-6
        done += 1


def _route_gap(ctx, got, want):
    """The largest gaps between (rho, z) = got and want, each scaled by
    max(1, want's largest entry), after the lattice vector L(k) that
    takes want's z nearest got's: z moved by L(k) and rho by -eta(k), as
    two routes differ."""
    n, m, _ = lattice_reduce(ctx.pd.Omega,
                             np.linalg.solve(ctx.pd.A, got[1] - want[1]))
    k = np.concatenate([n, m])
    moved = (want[0] - eta_of_lattice(ctx.pd, k),
             want[1] + lattice_vector(ctx.pd, k))
    return [np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b)))
            for a, b in zip(got, moved)]


def test_rho_lambda_at_a_branch_point(any_ctx):
    """P = (e, 0) on a branch point, in (P) + (Q) and (Q) + (P), for two
    roots e: rho_lambda_eval returns, and d log S = -2 rho + (lam, 0)
    holds to 1e-13 of the gradient's scale.  With P' 1e-9 f.scale off e
    in P's place, the result is P's plus the integrals from e to P' (the
    route from iP' reaches e by the half-segment from e to P', reversed
    on the other sheet), by mpmath at 30 digits, to 1e-14 modulo the
    lattice: z by L(k) and rho by -eta(k)."""
    ctx, f = any_ctx, any_ctx.f
    Q = sample_divisor(ctx, np.random.default_rng(51)).q
    for j in (0, 2):
        e = f.roots[j]
        P = k2.CurvePoint.affine(e, 0)
        x = e + 1e-9 * f.scale * np.exp(0.3j)
        y = np.sqrt(f.leading * np.prod(x - np.array(f.roots)))
        near = k2.CurvePoint.affine(x, y)
        leg = mp_half_segment(f, j, x, y, mp_numerators(f))
        for D, D_near in ((k2.Divisor(P, Q), k2.Divisor(near, Q)),
                          (k2.Divisor(Q, P), k2.Divisor(Q, near))):
            rho1, rho2, lam, z = rho_lambda_eval(ctx, D)
            g = log_S_gradient(ctx, z)
            ref = max(1.0, abs(g[0]), abs(g[1]))
            assert abs(g[0] + 2 * rho1 - lam) <= 1e-13 * ref
            assert abs(g[1] + 2 * rho2) <= 1e-13 * ref
            r1, r2, _, z_near = rho_lambda_eval(ctx, D_near)
            gap = _route_gap(ctx, (np.array([r1, r2]) - leg[2:],
                                   z_near - leg[:2]),
                             (np.array([rho1, rho2]), z))
            assert max(gap) <= 1e-14, (j, gap)


def _width(tau):
    """The parameter of the Bernstein ellipse through tau, scalar."""
    w = abs(tau + cmath.sqrt(tau - 1) * cmath.sqrt(tau + 1))
    return max(w, 1 / w)


@pytest.mark.filterwarnings("ignore:branch points far outside unit scale")
@pytest.mark.parametrize("roots", [None, TWO_PAIRS_I, TWO_PAIRS_R],
                         ids=["w5", "two_pairs_i", "two_pairs_r"])
def test_routes_are_no_narrower_than_a_common_root(roots, w5_ctx):
    """On 20 suite divisors of each curve, no route's narrowest ellipse,
    over its half-segments from e0 to ip and from e1 to q and the segment
    from e0 to e1, is narrower than the widest that both half-segments
    from one common root allow, all found root by root in scalar
    arithmetic; some routes take a middle segment; and d log S = -2 rho
    + (lam, 0) holds on every route to 1e-10 of the gradient's scale."""
    ctx = w5_ctx if roots is None else k2.make_context(
        k2.validate_polynomial(np.poly(roots)[::-1]))
    r = list(ctx.f.roots)
    Ds = k2.verify._sample_divisors(ctx, np.random.default_rng(52), 20)
    ip = [involution(D.p) for D in Ds]
    e0, e1, _ = k2.integration.route_integrals(
        ctx.f, [P.x for P in ip], [P.y for P in ip], [D.q.x for D in Ds],
        [D.q.y for D in Ds])

    def widths(x):
        return [min(_width(cmath.sqrt((rk - rj) / (x - rj)))
                    for rk in r if rk != rj) for rj in r]

    def segment(a, b):
        return min((_width(2 * (rk - r[a]) / (r[b] - r[a]) - 1)
                    for k, rk in enumerate(r) if k not in (a, b)),
                   default=math.inf) if a != b else math.inf

    for P, D, a, b in zip(ip, Ds, e0, e1):
        w0, w1 = widths(P.x), widths(D.q.x)
        common = max(min(u, v) for u, v in zip(w0, w1))
        assert min(w0[a], w1[b], segment(a, b)) >= (1 - 1e-12) * common
    assert np.any(e0 != e1)
    rho1, rho2, lam, z = rho_lambda_eval(ctx, Ds)
    clear = k2.divisor_clearance(ctx, z) >= 1e-4
    g = log_S_gradient(ctx, z[clear])
    ref = np.maximum(1.0, np.abs(g).max(axis=1))
    assert np.all(np.abs(g[:, 0] + 2 * rho1[clear] - lam[clear]) <= 1e-10 * ref)
    assert np.all(np.abs(g[:, 1] + 2 * rho2[clear]) <= 1e-10 * ref)


def test_rho_lambda_error_paths(g6_ctx):
    f = g6_ctx.f
    x = 1.4 + 0.3j
    P = k2.CurvePoint(x, np.sqrt(f(x)))
    with pytest.raises(k2.InfinitePointError):
        rho_lambda_eval(g6_ctx, k2.Divisor(P, k2.CurvePoint.at_infinity(1)))
    with pytest.raises(k2.DiagonalError):
        rho_lambda_eval(
            g6_ctx, k2.Divisor(P, k2.CurvePoint(x + 1e-9, np.sqrt(f(x + 1e-9)))))
    with pytest.raises(k2.SpecialDivisorError):
        rho_lambda_eval(g6_ctx, k2.Divisor(P, involution(P)))


def _abel_jacobian_inverse(D):
    """d(x1, x2)/d(z1, z2) from the two holomorphic forms at the divisor."""
    x1, y1, x2, y2 = D.p.x, D.p.y, D.q.x, D.q.y
    J = np.array([[1 / y1, 1 / y2], [x1 / y1, x2 / y2]])
    return np.linalg.inv(J)


def test_wp_derivatives_match_divisor_coordinates(w5_ctx):
    """dz-derivatives of wp_22 and wp_12, read off from the moving divisor,
    match the third logarithmic derivatives of sigma."""
    ctx = w5_ctx
    rng = np.random.default_rng(51)
    done = 0
    while done < 5:
        D = sample_divisor(ctx, rng)
        if abs(D.p.x - D.q.x) < 0.3:
            continue
        z = k2.abel_forward(ctx, D)
        b = k2.evaluate_bundle(ctx, z, want_sigma=True)
        if b.p111 is None:
            continue
        wp112, wp122, wp222 = b.p112, b.p122, b.p222
        Jin = _abel_jacobian_inverse(D)
        x1, x2 = D.p.x, D.q.x
        # wp22 = x1 + x2, wp12 = -x1 x2; chain rule over the moving points
        grad22 = Jin.T @ np.array([1.0, 1.0])
        grad12 = Jin.T @ np.array([-x2, -x1])
        ref = max(1.0, abs(wp222), abs(wp122), abs(wp112))
        assert abs(grad22[1] - wp222) / ref < 1e-8
        assert abs(grad22[0] - wp122) / ref < 1e-8
        assert abs(grad12[0] - wp112) / ref < 1e-8
        assert abs(grad12[1] - wp122) / ref < 1e-8
        done += 1


def test_evaluate_bundle_divisor_omits_wp(g6_ctx):
    b = k2.evaluate_bundle(g6_ctx, np.zeros(2))
    assert b.S == 0 or abs(b.S) < 1e-20
    assert b.p11 is None and b.p12 is None and b.p22 is None
    assert abs(b.S11 - 1.0) < 1e-6
    z = sample_z(g6_ctx, np.random.default_rng(52))
    b = k2.evaluate_bundle(g6_ctx, z)
    assert b.p11 is not None


def test_evaluate_bundle_sigma_gate(w5_ctx, g6_ctx):
    z = sample_z(w5_ctx, np.random.default_rng(53))
    b = k2.evaluate_bundle(w5_ctx, z, want_sigma=True)
    assert b.sigma is not None and b.zeta1 is not None
    assert abs(b.sigma ** 2 - b.S) < 1e-8 * max(1.0, abs(b.S))
    with pytest.raises(k2.NotWeierstrassFormError):
        k2.evaluate_bundle(g6_ctx, np.array([0.3, 0.2]), want_sigma=True)


@pytest.fixture(scope="module")
def g5_ctx():
    """A quintic not in Weierstrass form: random-looking roots and a
    complex leading coefficient."""
    roots = [0.92, -0.41 + 0.83j, -0.63 - 0.52j, 0.21 - 1.07j, 1.12 + 0.61j]
    coeffs = (1.3 - 0.4j) * np.poly(roots)[::-1]
    return k2.make_context(k2.validate_polynomial(list(coeffs) + [0.0]))


def _close(got, want, rel=1e-12):
    return abs(got - want) <= rel * max(abs(got), abs(want))


def _sigma_log_derivs(ctx, z):
    """(zeta1, zeta2, wp111, wp112, wp122, wp222) from the scalar
    sigma_jets: zeta_j = d_j log sigma, wp_jkl = -d_jkl log sigma."""
    jet = k2.sigma_jets(ctx, z, order=3)

    def d(*idx):
        return jet[(idx.count(0), idx.count(1))]

    s = d()

    def h3(a, b, c):
        return (d(a, b, c) / s
                - (d(a, b) * d(c) + d(a, c) * d(b) + d(b, c) * d(a)) / s ** 2
                + 2.0 * d(a) * d(b) * d(c) / s ** 3)

    return (d(0) / s, d(1) / s, -h3(0, 0, 0), -h3(0, 0, 1), -h3(0, 1, 1),
            -h3(1, 1, 1))


@pytest.mark.parametrize("name", ["w5", "g5", "g6"])
def test_bundle_matches_scalar_functions(name, w5_ctx, g5_ctx, g6_ctx):
    """Every bundle field, computed from one theta pair, equals the public
    scalar function that computes it alone."""
    ctx = {"w5": w5_ctx, "g5": g5_ctx, "g6": g6_ctx}[name]
    sigma = name == "w5"
    rng = np.random.default_rng(55)
    for _ in range(6):
        z = sample_z(ctx, rng)
        b = k2.evaluate_bundle(ctx, z, want_sigma=sigma)
        assert _close(b.S, k2.S_eval(ctx, z))
        for got, want in zip((b.S11, b.S12, b.S22), k2.S_jk_eval(ctx, z)):
            assert _close(got, want)
        for got, want in zip((b.p11, b.p12, b.p22), k2.wp_eval(ctx, z)):
            assert _close(got, want)
        if sigma:
            assert _close(b.sigma, k2.sigma_eval(ctx, z))
            fields = (b.zeta1, b.zeta2, b.p111, b.p112, b.p122, b.p222)
            for got, want in zip(fields, _sigma_log_derivs(ctx, z)):
                assert _close(got, want)
        else:
            assert b.sigma is None and b.zeta1 is None


@pytest.fixture
def kernel_calls(monkeypatch):
    """The orders of the theta_jet calls kleinian makes from here on,
    directly or through a wrapper in the theta module."""
    calls = []
    kernel = k2.theta.theta_jet

    def counted(*args, **kwargs):
        calls.append(args[2])
        return kernel(*args, **kwargs)

    for module in (k2.theta, k2.kleinian):
        monkeypatch.setattr(module, "theta_jet", counted)
    return calls


def test_bundle_sjk_at_origin(kernel_calls, w5_ctx, g5_ctx, g6_ctx):
    """At z = 0, on the zero set of S, the bundle gives no wp and S_jk =
    (1, 0, 0), the jets of the paper's table, from one kernel call."""
    for ctx in (w5_ctx, g5_ctx, g6_ctx):
        kernel_calls.clear()
        b = k2.evaluate_bundle(ctx, np.zeros(2))
        assert kernel_calls == [2]
        assert b.p11 is None
        got = np.array([b.S11, b.S12, b.S22])
        assert np.max(np.abs(got - [1.0, 0.0, 0.0])) < 1e-12


def test_bundle_makes_one_kernel_call(kernel_calls, w5_ctx, g5_ctx, g6_ctx):
    rng = np.random.default_rng(56)
    for ctx, sigma in ((w5_ctx, True), (g5_ctx, False), (g6_ctx, False)):
        z = sample_z(ctx, rng)
        kernel_calls.clear()
        k2.evaluate_bundle(ctx, z, want_sigma=sigma)
        assert kernel_calls == [3 if sigma else 2]


def test_make_context_makes_two_kernel_calls(kernel_calls, any_ctx):
    """theta(0) for the scale and the jets at -+Delta for the
    normalization come from one call; the weight-2 basis is the other."""
    k2.make_context(any_ctx.f, any_ctx.pd)
    assert kernel_calls == [1, 2]


def test_jacobi_invert_makes_one_kernel_call(kernel_calls, any_ctx):
    z = sample_z(any_ctx, np.random.default_rng(57))
    kernel_calls.clear()
    k2.jacobi_invert(any_ctx, z)
    assert kernel_calls == [3]


def test_flipped_divisor_has_image_minus_z(any_ctx):
    """Negating both y values negates y along each point's half-segment
    from the same branch point, and both forms are odd, so the image is
    minus the divisor's modulo the lattice: the two differ by twice the
    difference of the branch points' images, a lattice vector."""
    ctx = any_ctx
    D = sample_divisor(ctx, np.random.default_rng(58))
    z = k2.abel_forward(ctx, D)
    flipped = k2.Divisor(involution(D.p), involution(D.q))
    got = k2.abel_forward(ctx, flipped)
    e = k2.integration.abel_half_segments(
        ctx.f, [D.q.x, D.p.x], [D.q.y, D.p.y])[0]
    shift = 2 * (ctx.branch_abel[e[0]] - ctx.branch_abel[e[1]])
    assert np.max(np.abs(got + z - shift)) <= 1e-13 * np.max(np.abs(shift),
                                                               initial=1.0)
    assert k2.nearest_lattice_residual(ctx.pd, got + z) <= 1e-13 * max(
        1.0, np.max(np.abs(z)))


def test_jacobi_invert_integrates_nothing(monkeypatch, any_ctx):
    """With the Abel map, the lattice residual and every sum over nodes
    (half-segments from branch points, segments between them and tails)
    raising, jacobi_invert still inverts one point and a batch, and
    afterwards their divisors map back to z."""
    ctx = any_ctx
    rng = np.random.default_rng(58)
    z = np.array([sample_z(ctx, rng) for _ in range(3)])
    z = np.concatenate([z, -z])

    def refuse(*args, **kwargs):
        raise AssertionError("jacobi_invert must not integrate")

    with monkeypatch.context() as m:
        for module, name in ((k2.kleinian, "abel_forward"),
                             (k2.periods, "nearest_lattice_residual"),
                             (k2.integration, "_abel_sums"),
                             (k2.integration, "_chebyshev_sums"),
                             (k2.integration, "tail_integrals")):
            m.setattr(module, name, refuse)
        one = [k2.jacobi_invert(ctx, w) for w in z]
        batch = k2.jacobi_invert(ctx, z)
    for Ds in (one, batch):
        back = k2.abel_forward(ctx, Ds)
        assert np.all(k2.nearest_lattice_residual(ctx.pd, back - z)
                      < 1e-7 * np.maximum(1.0, np.linalg.norm(z, axis=1)))


def _wp3_by_S(ctx, z):
    """(wp111, wp112, wp122, wp222) at the rows of z, the z-derivatives
    of S_jk/S from the order-3 jets, the route jacobi_invert takes."""
    _, _, jm, jp = k2.kleinian._theta_pair(ctx, z, 3)
    return k2.kleinian._wp_by_ratio(ctx, jm, jp)[1].T


def test_wp3_from_S_matches_sigma(w5_ctx):
    """On Weierstrass quintics S = sigma^2, so the wp_jkl of S (the ratio
    route) and of sigma (minus the third log derivatives of sigma_jets)
    agree; here to 1e-9 of the largest, at cell points of 4x^5 - 4x and
    of a seeded quintic."""
    rng = np.random.default_rng(61)
    angles = 2 * np.pi * (np.arange(5) + rng.uniform(-0.3, 0.3, 5)) / 5
    roots = rng.uniform(0.75, 1.25, 5) * np.exp(1j * angles)
    quintic = k2.make_context(k2.validate_polynomial(4 * np.poly(roots)[::-1]))
    for ctx in (w5_ctx, quintic):
        z = np.array([sample_z(ctx, rng) for _ in range(8)])
        got = _wp3_by_S(ctx, z)
        for zi, row in zip(z, got):
            want = np.array(_sigma_log_derivs(ctx, zi)[2:])
            assert np.max(np.abs(row - want)) <= 1e-9 * np.max(np.abs(want))


def test_perturbed_third_derivatives_raise(monkeypatch, any_ctx):
    """A 1e-3 relative error in wp_jkl moves wp222 x + wp122 off y by far
    more than TOL_RT: the certificate refuses the divisor."""
    ctx = any_ctx
    z = sample_z(ctx, np.random.default_rng(62))
    k2.jacobi_invert(ctx, z)
    exact = k2.kleinian._wp_by_ratio

    def perturbed(c, jm, jp):
        wp, wp3 = exact(c, jm, jp)
        return wp, wp3 * (1.0 + 1e-3)

    monkeypatch.setattr(k2.kleinian, "_wp_by_ratio", perturbed)
    with pytest.raises(k2.SignResolutionError):
        k2.jacobi_invert(ctx, z)


def _wrong_triple_points(g6_ctx):
    """Points where degree-6 wp returns a wrong triple that passes the
    quartic selection: one on x^6 - 1, four at cell points A t[:2] +
    B t[2:] (t from default_rng(1)) of the sextic with roots
    10 {0, 1, 2i, -1+i, 3, -2-i}."""
    yield g6_ctx, [np.array([0.0405 - 0.2313j, -1.9014 + 3.7583j])]
    roots = 10 * np.array([0, 1, 2j, -1 + 1j, 3, -2 - 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        ctx = k2.make_context(k2.validate_polynomial(np.poly(roots)[::-1]))
    t = np.random.default_rng(1).random((200, 4))
    yield ctx, [ctx.pd.A @ t[i, :2] + ctx.pd.B @ t[i, 2:]
                for i in (58, 94, 104, 196)]


def test_wrong_wp_triples_are_refused_or_inverted(g6_ctx):
    """At these points the degree-6 selection returns a wrong wp triple;
    jacobi_invert reads wp = S_jk/S instead and inverts every one, its
    divisor mapping back to z."""
    for ctx, zs in _wrong_triple_points(g6_ctx):
        for z in zs:
            D = k2.jacobi_invert(ctx, z)
            resid = k2.nearest_lattice_residual(ctx.pd,
                                                k2.abel_forward(ctx, D) - z)
            assert resid < 1e-7 * max(1.0, float(np.linalg.norm(z)))


@pytest.mark.parametrize("r", [100.0, 300.0, 1000.0, 3000.0])
def test_far_divisors_invert(g6_ctx, r):
    """On x^6 - 1, with one point at |x| = r and the other in the annulus
    0.5 < |x| < 1.5, jacobi_invert of the Abel image recovers both x to
    1e-6 of their size, for 15 seeded divisors."""
    ctx, f = g6_ctx, g6_ctx.f
    rng = np.random.default_rng(int(r))
    Ds = []
    for _ in range(15):
        xs = (r * np.exp(2j * np.pi * rng.uniform()),
              rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()))
        Ds.append(k2.Divisor(*(k2.CurvePoint.affine(
            x, rng.choice([-1.0, 1.0]) * np.sqrt(f(x))) for x in xs)))
    got = k2.jacobi_invert(ctx, k2.abel_forward(ctx, Ds))
    for D, E in zip(Ds, got):
        want, xs = (D.p.x, D.q.x), (E.p.x, E.q.x)
        if abs(xs[0] - want[0]) > abs(xs[1] - want[0]):
            xs = xs[::-1]
        for a, b in zip(xs, want):
            assert abs(a - b) <= 1e-6 * abs(b)


@pytest.mark.parametrize("s", [0.01, 30.0, 100.0])
def test_round_trip_on_the_scaled_panel(s):
    """inversion_round_trip passes on the sextic with roots s {0, 1, 2i,
    -1+i, 3, -2-i}, where the degree-6 selection found several passing
    roots and no nearby point to choose between them."""
    roots = s * np.array([0, 1, 2j, -1 + 1j, 3, -2 - 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        ctx = k2.make_context(k2.validate_polynomial(np.poly(roots)[::-1]))
    (check,) = k2.run_suite(ctx, seed=1,
                            checks=["inversion_round_trip"]).checks
    assert check["pass"] is True, check


@pytest.mark.parametrize("r", [50.0, 100.0, 300.0])
def test_far_points_give_finite_values_or_raise(any_ctx, r):
    """Far from the origin the theta jets, S, S_jk or the log Hessian
    overflow; every function then raises NonFiniteValueError instead of
    returning inf or nan, or raising another error on non-finite data."""
    ctx = any_ctx
    z = r * np.array([0.6 + 0.3j, 0.2])

    def flat(v):
        if isinstance(v, k2.Divisor):
            return [v.p.x, v.p.y, v.q.x, v.q.y]
        if isinstance(v, k2.EvalBundle):
            return [val for val in (getattr(v, fl.name)
                                    for fl in dataclasses.fields(v)[1:])
                    if val is not None]
        return v

    fns = [k2.S_eval, k2.S_jk_eval, k2.wp_eval, k2.jacobi_invert,
           k2.evaluate_bundle, k2.divisor_clearance]
    if ctx.f.weierstrass_form:
        fns += [k2.sigma_eval,
                lambda c, z: list(k2.sigma_jets(c, z, 3).values()),
                lambda c, z: k2.evaluate_bundle(c, z, want_sigma=True)]
    raised = 0
    for fn in fns:
        try:
            with np.errstate(all="ignore"):
                v = fn(ctx, z)
        except k2.NonFiniteValueError:
            raised += 1
            continue
        assert np.all(np.isfinite(np.asarray(flat(v), dtype=complex)))
    # the overflow is reached, except on the sextic at r = 50, where
    # every value is still finite
    if r > 50 or ctx.f.degree == 5:
        assert raised >= 3


# -- the lattice scale split off the theta jets -------------------------------

TWO_PAIR_ROOTS = [0, 1e-4, 2j, -1 + 1j, 3, 3 + 1e-4]


@pytest.fixture(scope="module")
def two_pair_ctx():
    """The sextic with two 1e-4 root pairs, {0, 1e-4} and {3, 3 + 1e-4}."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return k2.make_context(
            k2.validate_polynomial(np.poly(TWO_PAIR_ROOTS)[::-1]))


def test_S_far_off_the_divisor_is_not_a_silent_zero(two_pair_ctx):
    """Far off the divisor on the two-pair sextic, S and S_jk once came
    out exactly 0, exp(z^T C z) underflowing while theta was huge.  The
    points: rows 0 and 14 of the seed-2 quasi_periodicity sample z + w,
    whose divisor clearance, read at the unreduced u -+ Delta, is 6e35
    and 1.9e32.  Seed 2 is the first seed whose sample has two rows above
    1e30 under Delta's representative of the half-segment z_star; seed
    1's rows 9 and 16, which once failed, read 1.8e27 and 1.3e32 there.
    S and S_jk are nonzero there, and S(z + w) = S(z) exp(2 eta(w) . (z
    + w/2)) to 1e-8, compared as logarithms."""
    ctx = two_pair_ctx
    index = k2.CHECK_NAMES.index("quasi_periodicity")
    rng = np.random.default_rng(2 * 1000 + index)
    z = k2.verify._sample_groups(ctx, rng, 20)[:, 0]
    k = k2.verify._sample_lattice(rng, 20)
    rows = [0, 14]
    z, k = z[rows], k[rows]
    w = lattice_vector(ctx.pd, k)
    assert np.all(k2.divisor_clearance(ctx, z + w) > 1e30)
    S = k2.S_eval(ctx, z + w)
    assert np.all(S != 0) and np.all(k2.S_jk_eval(ctx, z + w) != 0)
    log = (np.log(S) - np.log(k2.S_eval(ctx, z))
           - 2.0 * np.einsum("ri,ri->r", eta_of_lattice(ctx.pd, k), z + w / 2))
    turns = np.round(log.imag / (2 * np.pi))
    assert np.all(np.abs(log - 2j * np.pi * turns) < 1e-8)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=st.tuples(*[st.floats(-12.0, 12.0)] * 4),
       curve=st.sampled_from(["two_pair", "w5", "g6"]))
def test_S_is_never_zero_clear_of_the_divisor(two_pair_ctx, w5_ctx, g6_ctx,
                                              t, curve):
    """Wherever divisor_clearance >= ZERO_FACTOR, S_eval returns a nonzero
    value or raises NonFiniteValueError, S lying outside the double
    range: it never underflows to a silent 0."""
    ctx = {"two_pair": two_pair_ctx, "w5": w5_ctx, "g6": g6_ctx}[curve]
    z = ctx.pd.A @ np.array(t[:2]) + ctx.pd.B @ np.array(t[2:])
    try:
        if k2.divisor_clearance(ctx, z) < k2.kleinian.ZERO_FACTOR:
            return
        S = k2.S_eval(ctx, z)
    except k2.NonFiniteValueError:
        return
    assert S != 0
