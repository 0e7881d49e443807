"""Tails to infinity, summed as series, against a 30-digit mpmath oracle,
and the closed-form square-root sheets of a period build's segments and
of the tails, against a dense-step continuation."""

import math

import mpmath
import numpy as np
import pytest

import kleinian2 as k2
from kleinian2 import integration
from kleinian2.integration import segment_sheet, tail_integrals

from conftest import G6_COEFFS, W5_COEFFS


def _g6():
    return k2.validate_polynomial(G6_COEFFS)


def _w5():
    return k2.validate_polynomial(W5_COEFFS)


# -- the closed-form sheet against a dense-step continuation -----------------

# the nodes of the 8-, 64- and 512-point Gauss-Chebyshev rules, where the
# segment sums read the sheet
NODES = np.unique(np.concatenate([integration._chebyshev_nodes(n)[0]
                                  for n in (8, 64, 512)]))


def _dense_step(y_at, y_start, nodes=NODES):
    """Reference: the continuation of y_at(u)^2 from y_start along [0, 1]
    through nodes, each step subdivided until consecutive values are
    within 0.25 in argument and a factor 2 in modulus, the nearer of +-root
    taken at every step.  Returns its values at nodes and at the last of
    them."""
    u = np.union1d(np.linspace(0.0, nodes[-1], 257), nodes)
    while True:
        h = y_at(u) ** 2
        r = h[1:] / h[:-1]
        bad = ((np.abs(np.angle(r)) > 0.25) | (np.abs(r) > 2.0)
               | (np.abs(r) < 0.5))
        if not bad.any():
            break
        assert len(u) < 10 ** 6
        u = np.union1d(u, 0.5 * (u[:-1][bad] + u[1:][bad]))
    s = np.sqrt(h)
    flip = np.abs(s[1:] - s[:-1]) > np.abs(s[1:] + s[:-1])
    sign = np.concatenate([[1], np.where(np.logical_xor.accumulate(flip),
                                         -1, 1)])
    if abs(s[0] - y_start) > abs(s[0] + y_start):
        sign = -sign
    y = sign * s
    return y[np.searchsorted(u, nodes)], y[-1]


def _check_segments():
    """The period segments of x^6 - 1, and a segment from -1 to 1 that
    passes 0.02 below a root, where the cofactor root turns by more than a
    right angle: the cofactor root s of segment_sheet, at NODES and at
    the nodes of the 301-point rule."""
    f = _g6()
    near = k2.validate_polynomial(list(np.poly([-1, 1, 0.02j, 0.6j, -3j,
                                                4])[::-1]))
    roots = list(near.roots)
    pair = [(int(np.argmin(np.abs(np.asarray(roots) - x)))) for x in (-1, 1)]
    cheb = integration._chebyshev_nodes(301)[0]
    nodes = np.unique(np.concatenate([NODES, cheb]))
    for g, roots, pairs in ((f, list(f.roots), k2.periods.LOOP_PAIRS),
                            (near, roots, [tuple(pair)])):
        sheet = segment_sheet(g, roots, pairs)
        for p in range(len(pairs)):
            def s_at(u, p=p):
                return sheet(np.full(len(u), p), u, 1.0 - u)[2]
            want, _ = _dense_step(s_at, s_at(np.zeros(1))[0], nodes)
            assert np.all(np.abs(s_at(nodes) - want)
                          <= 1e-13 * np.abs(want))


def _check_tail(f):
    """Two tails from the same far point on opposite sheets, in the chart
    x = t^-q (q = 1 on degree 6, 2 on degree 5): each lands where the
    dense-step continuation of its seed y t^(d q/2), the root of
    t^(d q) f(t^-q), arrives at t = 0 (on degree 6, label 1 if that is
    nearer +sqrt(f6) than -sqrt(f6)), and the two integrals are
    negatives."""
    x_far = 12.0 * np.exp(0.731j)
    y_far = np.sqrt(f(x_far)) * np.array([1, -1])
    T, landed_plus = tail_integrals(f, [x_far, x_far], y_far)
    assert np.array_equal(T[1], -T[0])
    d, q = f.degree, 1 if f.degree == 6 else 2
    t1 = 1.0 / (x_far if q == 1 else np.sqrt(x_far))

    def h_root(tau):
        t = (1.0 - tau) * t1
        return np.sqrt(sum(c * t ** (q * (d - i))
                           for i, c in enumerate(f.coeffs[:d + 1])))

    lead = np.sqrt(complex(f.leading))
    for k in range(2):
        _, end = _dense_step(h_root, y_far[k] * t1 ** (d * q // 2))
        assert abs(abs(end) - abs(lead)) <= 1e-3 * abs(lead)
        plus = d == 5 or abs(end - lead) <= abs(end + lead)
        assert landed_plus[k] == plus


SHEETS = {
    "segments": _check_segments,
    "tail_degree5": lambda: _check_tail(_w5()),
    "tail_degree6": lambda: _check_tail(_g6()),
}


@pytest.mark.parametrize("name", sorted(SHEETS))
def test_closed_form_sheet_matches_dense_continuation(name):
    """The closed-form sheet of every period segment at the Gauss-Chebyshev
    nodes is the dense-step continuation of that segment alone, and a
    tail lands where the continuation of its seed does."""
    SHEETS[name]()


# -- tails to infinity in closed form -----------------------------------------

def _tail_oracle(f, x_far, y_far):
    """The integrals of (dx/y, x dx/y) from (x_far, y_far) out to infinity
    by mpmath.quad at 30 digits, in the chart x = t^-q along t = (1 - tau)
    t1, with y t^(d q/2) the root of h(t) = t^(d q) f(t^-q) on the sheet
    of the seed, and the landing label read off it at t = 0.  The sheet is
    tracked in double precision on a grid of 1024 steps in tau, over each
    of which arg h moves by under 0.02 radian, and a node
    takes the root within a right angle of the grid value nearest it:
    from twice the roots out arg h moves by up to a half turn, so the
    root within a right angle of the seed itself need not be the
    sheet's."""
    d, q = f.degree, 1 if f.degree == 6 else 2
    grid = np.linspace(0.0, 1.0, 1025)
    t = (1.0 - grid) * (1.0 / (x_far if q == 1 else np.sqrt(x_far)))
    h = np.sqrt(sum(c * t ** (q * (d - i))
                    for i, c in enumerate(f.coeffs[:d + 1])))
    h[0] = y_far * t[0] ** (d * q // 2)
    for i in range(1, len(h)):
        if abs(h[i] - h[i - 1]) > abs(h[i] + h[i - 1]):
            h[i] = -h[i]
    with mpmath.workdps(30):
        coeffs = [mpmath.mpc(c) for c in f.coeffs[:d + 1]]
        x1 = mpmath.mpc(x_far)
        t1 = 1 / x1 if q == 1 else 1 / mpmath.sqrt(x1)

        def root(tau):
            t = (1 - tau) * t1
            r = mpmath.sqrt(sum(c * t ** (q * (d - i))
                                for i, c in enumerate(coeffs)))
            near = h[int(round(float(tau) * (len(h) - 1)))]
            return r if mpmath.re(r * mpmath.conj(near)) > 0 else -r

        forms = [lambda tau: q * t1 * ((1 - tau) * t1) ** q / root(tau),
                 lambda tau: q * t1 / root(tau)]
        T = [complex(mpmath.quad(g, [0, 1])) for g in forms]
        end = complex(root(mpmath.mpf(1)))
    lead = np.sqrt(complex(f.leading))
    return np.array(T), d == 5 or abs(end - lead) <= abs(end + lead)


@pytest.mark.parametrize("degree", [5, 6])
@pytest.mark.parametrize("scale", [0.01, 0.3, 1.0, 7.0, 100.0])
def test_tail_integrals_match_mpmath(degree, scale):
    """The closed-form tails on both sheets, against mpmath at 30 digits,
    from a far point 12-36 times the root scale out, each integral to
    1e-14 relative, and from one 2-3 times the largest root modulus out,
    at the ratio rho = max|r| / |x| up to 1/2 where the series starts,
    to the rounding bound K u ((1 + rho) / (1 - rho))^3: a sum of K =
    TAIL_TERMS terms rounds by at most K u times the sum of their moduli,
    which the majorant (1 - rho)^-3 bounds, while each factor (1 -
    r_j s)^(-1/2) of g is at least (1 + rho)^(-1/2) in modulus.  The
    landing labels agree too."""
    rng = np.random.default_rng([degree, int(100 * scale)])
    roots = scale * (rng.normal(size=degree) + 1j * rng.normal(size=degree))
    lead = rng.normal() + 1j * rng.normal()
    f = k2.validate_polynomial(list(lead * np.poly(roots)[::-1]))
    top = max(abs(r) for r in f.roots)
    R = max(1.0, top) * rng.uniform(12, 36)
    x_far = R * np.exp(2j * np.pi * rng.random())
    R = top * rng.uniform(2, 3)
    x_near = R * np.exp(2j * np.pi * rng.random())
    rho = top / R
    near_tol = (integration.TAIL_TERMS * np.finfo(float).eps / 2
                * ((1 + rho) / (1 - rho)) ** 3)
    for x, tol in ((x_far, 1e-14), (x_near, near_tol)):
        y = np.sqrt(f(x)) * np.array([1, -1])
        T, landed_plus = tail_integrals(f, [x, x], y)
        for k in range(2):
            want, plus = _tail_oracle(f, x, y[k])
            assert np.all(np.abs(T[k] - want) <= tol * np.abs(want))
            assert landed_plus[k] == plus


def test_tail_series_length_follows_its_truncation_bound():
    """The TAIL_TERMS coefficients of prod_j (1 - r_j s)^(-1/2) leave out
    terms bounded by C(k+2, 2) rho^k, rho = 1/SERIES_FACTOR: the closed
    form of that bound's sum from K on matches the sum, TAIL_TERMS is the
    least K that puts it below TAIL_TOL, and the coefficients of random
    root sets keep to the bound, so the truncated series equals the
    product at the series radius to rounding."""
    rho = 1.0 / integration.SERIES_FACTOR
    for K in (0, 5, 18, 30):
        direct = math.fsum(math.comb(k + 2, 2) * rho ** k
                           for k in range(K, K + 600))
        assert abs(integration._dropped_bound(K, rho) - direct) <= (
            1e-13 * direct)
    K = integration.TAIL_TERMS
    assert (integration._dropped_bound(K, rho) < integration.TAIL_TOL
            <= integration._dropped_bound(K - 1, rho))
    rng = np.random.default_rng(31)
    k = np.arange(K)
    bound = np.array([math.comb(j + 2, 2) for j in k], dtype=float)
    for n in (5, 6) * 20:
        f = k2.validate_polynomial(np.poly(rng.normal(size=n)
                                           + 1j * rng.normal(size=n))[::-1])
        roots = np.array(f.roots)
        top = np.max(np.abs(roots))
        c = integration._tail_coeffs(f)
        assert np.all(np.abs(c) <= (1 + 1e-12) * bound * top ** k)
        s = rho / top * np.exp(2j * np.pi * rng.random())
        g = np.prod((1 - roots * s) ** -0.5)
        assert abs(np.sum(c * s ** k) - g) <= 1e-15 * abs(g)


def test_tail_integrals_of_no_points():
    for f in (_w5(), _g6()):
        T, landed_plus = tail_integrals(f, [], [])
        assert T.shape == (0, 2) and landed_plus.shape == (0,)


def test_a_tail_from_within_the_far_radius_raises():
    """The series is summed to double precision from SERIES_FACTOR times
    the largest root modulus out; a nearer start is refused."""
    f = _g6()
    x = 0.9 * integration.SERIES_FACTOR
    with pytest.raises(ValueError):
        tail_integrals(f, [x], [np.sqrt(f(x))])


def test_tail_coefficients_are_computed_once_per_curve(monkeypatch):
    """tail_integrals reads its series coefficients from a cache keyed by
    the curve: a second call on the same curve, or on an equal one, forms
    no convolution product, and the coefficients are read-only."""
    products = []
    convolve = np.convolve

    def counted(a, b):
        products.append(1)
        return convolve(a, b)

    f = _g6()
    x = 12.0 * np.exp(0.731j) * np.array([1.0, 1.5])
    y = np.sqrt(f(x))
    integration._tail_coeffs.cache_clear()
    monkeypatch.setattr(np, "convolve", counted)
    first = tail_integrals(f, x, y)
    assert len(products) == f.degree - 1
    products.clear()
    again = tail_integrals(f, x, y)
    assert products == []
    tail_integrals(_g6(), x[:1], y[:1])
    assert products == []
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert integration._tail_coeffs.cache_info().misses == 1
    assert not integration._tail_coeffs(f).flags.writeable
