"""Sigma family on the Weierstrass-form quintic: square law, parity,
jets against circle quadrature, and quasi-periodicity of zeta."""

import numpy as np
import pytest

import kleinian2 as k2
from kleinian2.periods import eta_of_lattice, lattice_vector

from conftest import sample_z


def _directional_coeffs(fn, z, d, r, nmax, nodes=32):
    """Taylor coefficients of t -> fn(z + t d) for t on a circle of radius r."""
    phases = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    vals = np.array([fn(z + r * ph * d) for ph in phases])
    return [np.mean(vals * phases ** -m) / r ** m for m in range(nmax + 1)]


def test_sigma_squared_is_S(w5_ctx):
    rng = np.random.default_rng(61)
    for _ in range(10):
        z = sample_z(w5_ctx, rng)
        s = k2.S_eval(w5_ctx, z)
        sig = k2.sigma_eval(w5_ctx, z)
        assert abs(sig ** 2 - s) < 1e-8 * max(1.0, abs(s))


def test_sigma_is_odd(w5_ctx):
    rng = np.random.default_rng(62)
    for _ in range(10):
        z = sample_z(w5_ctx, rng)
        a = k2.sigma_eval(w5_ctx, z)
        b = k2.sigma_eval(w5_ctx, -z)
        assert abs(a + b) < 1e-10 * max(1.0, abs(a))


def test_sigma_origin_jet(w5_ctx):
    j = k2.sigma_jets(w5_ctx, np.zeros(2), order=1)
    assert abs(j[(0, 0)]) < 1e-10
    assert abs(abs(j[(1, 0)]) - 1.0) < 1e-10
    assert abs(j[(0, 1)]) < 1e-10


def test_sigma_jets_match_circle_quadrature(w5_ctx):
    """All jets to order 3, reconstructed from four directional scans."""
    ctx = w5_ctx
    rng = np.random.default_rng(63)
    s = 1.0 / np.sqrt(2.0)
    e1, e2 = np.eye(2)
    diag, anti = np.array([s, s]), np.array([s, -s])
    r = 0.2 * ctx.jet_scale
    fn = lambda z: k2.sigma_eval(ctx, z)
    for _ in range(3):
        z = sample_z(ctx, rng)
        j = k2.sigma_jets(ctx, z, order=3)
        b1 = _directional_coeffs(fn, z, e1, r, 3)
        b2 = _directional_coeffs(fn, z, e2, r, 3)
        bd = _directional_coeffs(fn, z, diag, r, 3)
        ba = _directional_coeffs(fn, z, anti, r, 3)
        want = {
            (0, 0): b1[0],
            (1, 0): b1[1], (0, 1): b2[1],
            (2, 0): 2 * b1[2], (0, 2): 2 * b2[2],
            (1, 1): (bd[2] - ba[2]) / (2 * s * s),
            (3, 0): 6 * b1[3], (0, 3): 6 * b2[3],
            # bd3 = s^3 (c30 + c21 + c12 + c03)/ their factorials; solve the pair
            (2, 1): (bd[3] - ba[3]) / s ** 3 - 2 * b2[3],
            (1, 2): (bd[3] + ba[3]) / s ** 3 - 2 * b1[3],
        }
        scale = max(1.0, max(abs(v) for v in want.values()))
        for key, w in want.items():
            assert abs(j[key] - w) / scale < 1e-9, key


def test_zeta_matches_log_derivative(w5_ctx):
    ctx = w5_ctx
    rng = np.random.default_rng(64)
    r = 0.05 * ctx.jet_scale
    for _ in range(5):
        z = sample_z(ctx, rng)
        b = k2.evaluate_bundle(ctx, z, want_sigma=True)
        z1, z2 = b.zeta1, b.zeta2
        sig = k2.sigma_eval(ctx, z)
        for j, (e, zeta) in enumerate(zip(np.eye(2), (z1, z2))):
            d = _directional_coeffs(lambda w: k2.sigma_eval(ctx, w), z, e, r, 1)[1]
            assert abs(zeta - d / sig) < 1e-9 * max(1.0, abs(zeta))


def test_zeta_quasi_periodicity(w5_ctx):
    """zeta(z + w) - zeta(z) = eta(w): the logarithmic derivative of the
    sigma factor exp(eta(w).(z + w/2))."""
    ctx = w5_ctx
    rng = np.random.default_rng(65)
    for _ in range(8):
        z = sample_z(ctx, rng)
        mn = rng.integers(-2, 3, 4)
        if not mn.any():
            continue
        w = lattice_vector(ctx.pd, mn)
        eta = eta_of_lattice(ctx.pd, mn)
        a, b = (k2.evaluate_bundle(ctx, t, want_sigma=True)
                for t in (z, z + w))
        a, b = np.array([a.zeta1, a.zeta2]), np.array([b.zeta1, b.zeta2])
        assert np.max(np.abs(b - a - eta)) < 1e-8 * max(1.0, np.max(np.abs(eta)))


def test_sigma_quasi_periodicity_factor(w5_ctx):
    """|sigma(z + w)| = |sigma(z) exp(eta(w).(z + w/2))|; the square of the
    factor reproduces the S factor, fixing it up to sign."""
    ctx = w5_ctx
    rng = np.random.default_rng(66)
    for _ in range(8):
        z = sample_z(ctx, rng)
        mn = rng.integers(-2, 3, 4)
        if not mn.any():
            continue
        w = lattice_vector(ctx.pd, mn)
        factor = np.exp(eta_of_lattice(ctx.pd, mn) @ (z + 0.5 * w))
        lhs = k2.sigma_eval(ctx, z + w)
        rhs = factor * k2.sigma_eval(ctx, z)
        assert min(abs(lhs - rhs), abs(lhs + rhs)) < 1e-8 * max(abs(lhs), 1.0)


def test_sigma_divisor_raises(w5_ctx):
    """On the zero set of sigma the logarithmic derivatives do not exist:
    the bundle leaves them out, as it leaves out wp there."""
    b = k2.evaluate_bundle(w5_ctx, np.zeros(2), want_sigma=True)
    assert b.sigma == 0 or abs(b.sigma) < 1e-10
    fields = (b.zeta1, b.zeta2, b.p111, b.p112, b.p122, b.p222,
              b.p11, b.p12, b.p22)
    assert all(v is None for v in fields)


def test_sigma_requires_weierstrass_form(g6_ctx):
    z = np.array([0.3 + 0.1j, -0.2 + 0.05j])
    with pytest.raises(k2.NotWeierstrassFormError):
        k2.sigma_eval(g6_ctx, z)
    with pytest.raises(k2.NotWeierstrassFormError):
        k2.sigma_jets(g6_ctx, z, order=2)
    with pytest.raises(k2.NotWeierstrassFormError):
        k2.evaluate_bundle(g6_ctx, z, want_sigma=True)


def _weierstrass_quintic(seed):
    """A Weierstrass quintic 4 prod(x - r) with roots near the unit
    circle."""
    rng = np.random.default_rng(seed)
    angles = 2 * np.pi * (np.arange(5) + 0.3 * rng.random(5)) / 5
    roots = (0.75 + 0.5 * rng.random(5)) * np.exp(1j * angles)
    return list(4.0 * np.poly(roots)[::-1]) + [0.0]


@pytest.mark.parametrize("k", range(7))
def test_sigma_eval_is_the_order_0_sigma_jet(w5_ctx, k):
    """sigma_eval is sigma_jets at order 0, bit for bit, and that is the
    direct form c_sigma exp(twist) V(u - Delta) through the one exp of
    _scaled: on 4x^5 - 4x and six seeded Weierstrass quintics, for a
    batch and for each of its points alone, one point giving a
    scalar."""
    ctx = w5_ctx if k == 0 else k2.make_context(
        k2.validate_polynomial(_weierstrass_quintic(seed=[71, k])))
    kl = k2.kleinian
    rng = np.random.default_rng(72 + k)
    Z = np.array([sample_z(ctx, rng) for _ in range(5)])
    for z in [Z] + list(Z):
        got = k2.sigma_eval(ctx, z)
        assert np.array_equal(got, k2.sigma_jets(ctx, z, 0)[(0, 0)])
        u = kl._u(ctx, z)
        s, V = k2.theta.theta_jet(ctx.pd.Omega, u - ctx.pd.Delta, 0)
        want = kl._scaled(ctx.c_sigma * kl._at(V, 0, 0),
                          kl._sigma_twist(ctx, kl._quad(ctx, z), u, s),
                          "sigma")
        assert np.array_equal(got, want)
        assert np.shape(got) == np.shape(z)[:-1]
