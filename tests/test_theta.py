"""Genus-2 theta engine: series oracle, quasi-periodicity, derivatives."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import kleinian2 as k2
from hypothesis import given, settings, strategies as st

from kleinian2 import theta
from kleinian2.theta import ThetaParams, lattice_reduce, theta_jet

MULTI_INDICES = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                 (3, 0), (2, 1), (1, 2), (0, 3)]


def _jet(tp, z, order):
    """The jet of theta itself: theta_jet's V times exp(s)."""
    s, V = theta_jet(tp, z, order)
    return np.exp(s)[..., None, None] * V


def _theta(tp, z):
    """theta(z; Omega), the order-0 entry of the jet."""
    return _jet(tp, z, 0)[0, 0]


def _brute_theta(Omega, z, N=12):
    """Direct lattice sum over [-N, N]^2, no reductions: slow but obvious."""
    total = 0j
    for n1 in range(-N, N + 1):
        for n2 in range(-N, N + 1):
            n = np.array([n1, n2])
            total += np.exp(1j * np.pi * n @ Omega @ n + 2j * np.pi * n @ z)
    return total


def test_identity_matrix_vs_1d_series():
    """Omega = i I factorizes, so theta(0) is the square of the 1-D sum
    sum_n exp(-pi n^2)."""
    tp = ThetaParams.build(1j * np.eye(2))
    one_d = sum(np.exp(-np.pi * n ** 2) for n in range(-40, 41))
    assert abs(_theta(tp, np.zeros(2)) - one_d ** 2) < 1e-12


def test_matches_brute_force_sum(g6_ctx):
    Omega = g6_ctx.pd.Omega
    tp = ThetaParams.build(Omega)
    rng = np.random.default_rng(21)
    for _ in range(5):
        z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.3, 0.3, 2)
        ref = _brute_theta(Omega, z)
        assert abs(_theta(tp, z) - ref) < 1e-11 * max(1.0, abs(ref))


def test_quasi_periodicity(w5_ctx, g6_ctx):
    for ctx in (w5_ctx, g6_ctx):
        Omega = ctx.pd.Omega
        tp = ThetaParams.build(Omega)
        rng = np.random.default_rng(22)
        for _ in range(20):
            z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
            n = rng.integers(-2, 3, 2)
            m = rng.integers(-2, 3, 2)
            lhs = _theta(tp, z + n + Omega @ m)
            factor = np.exp(-1j * np.pi * m @ Omega @ m - 2j * np.pi * m @ z)
            rhs = factor * _theta(tp, z)
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_evenness(g6_ctx):
    tp = ThetaParams.build(g6_ctx.pd.Omega)
    rng = np.random.default_rng(23)
    for _ in range(10):
        z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        a, b = _theta(tp, z), _theta(tp, -z)
        assert abs(a - b) < 1e-13 * max(1.0, abs(a))


@pytest.mark.parametrize("multi_index", MULTI_INDICES)
def test_derivatives_match_finite_differences(g6_ctx, multi_index):
    tp = ThetaParams.build(g6_ctx.pd.Omega)
    rng = np.random.default_rng(sum(multi_index))
    h = 1e-2

    def fd(fn, z, k, step):
        if k == 0:
            return fn(z)
        e = np.zeros(2)
        e[0] = step
        return (fd(fn, z + e, k - 1, step) - fd(fn, z - e, k - 1, step)) / (2 * step)

    k1, k2_ = multi_index
    for _ in range(3):
        z = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.2, 0.2, 2)

        def along_z2(w):
            # reduce to repeated z1 differences of z2 derivatives via jets
            return _jet(tp, w, k2_)[0, k2_]

        coarse = fd(along_z2, z, k1, h)
        fine = fd(along_z2, z, k1, h / 2)
        est = (4 * fine - coarse) / 3 if k1 > 0 else fine
        got = _jet(tp, z, k1 + k2_)[k1, k2_]
        assert abs(got - est) < 1e-6 * max(1.0, abs(got))


def test_third_jet_table_is_consistent(g6_ctx):
    """The full order-3 table agrees with the tables of lower order; the
    jets differ only in series truncation radius, so to a few ulps."""
    tp = ThetaParams.build(g6_ctx.pd.Omega)
    z = np.array([0.21 + 0.05j, -0.37 + 0.11j])
    jet = _jet(tp, z, 3)
    assert abs(jet[0, 0] - _theta(tp, z)) < 1e-14
    for (a, b) in MULTI_INDICES:
        one = _jet(tp, z, a + b)[a, b]
        assert abs(jet[a, b] - one) < 1e-12 * max(1.0, abs(one))


def test_rejects_bad_riemann_matrix():
    with pytest.raises(k2.RiemannMatrixError):
        ThetaParams.build(np.array([[1j, 0.3], [0.2, 1j]]))  # not symmetric
    with pytest.raises(k2.RiemannMatrixError):
        ThetaParams.build(np.array([[-1j, 0], [0, 1j]]))  # Im not posdef


def test_order_cap(w5_ctx):
    """Only the integers 0-3 are orders; sigma_jets passes its order on."""
    tp = ThetaParams.build(1j * np.eye(2))
    for order in (-1, 1.5, 4):
        with pytest.raises(ValueError):
            theta_jet(tp, np.zeros(2), order)
        with pytest.raises(ValueError):
            k2.sigma_jets(w5_ctx, np.full(2, 0.1), order)


def test_nearly_singular_imaginary_part_exceeds_radius_cap():
    """With lam_min(Im Omega) = 1e-4 the tail bound asks for a summation
    radius of about 300, over RADIUS_CAP."""
    tp = ThetaParams.build(np.array([[0.3 + 1j, 0.1], [0.1, 1e-4j]]))
    assert tp.lam_min < 2e-4
    with pytest.raises(k2.TruncationRadiusError):
        theta_jet(tp, np.zeros(2), 0)


# -- lattice_reduce ----------------------------------------------------------

def _riemann_matrix(x11, x12, x22, a, c, rho):
    """Real part (x11, x12; x12, x22); imaginary part positive definite
    with diagonal (a, c) and correlation rho."""
    b = rho * np.sqrt(a * c)
    return np.array([[x11, x12], [x12, x22]]) + 1j * np.array([[a, b],
                                                             [b, c]])


_coord = st.floats(-40.0, 40.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(re=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       diag=st.tuples(*[st.floats(0.1, 5.0)] * 2),
       rho=st.floats(-0.9, 0.9),
       rows=st.lists(st.tuples(*[_coord] * 4), min_size=1, max_size=6))
def test_lattice_reduce_reconstructs_u(re, diag, rho, rows):
    """u = u0 + n + Omega m with n, m integer, |Re u0| <= 1/2 and Im u0
    within 1/2 in the coordinates of Im Omega, for one point and for a
    batch, whose rows reduce as they do alone (to rounding)."""
    Omega = _riemann_matrix(*re, *diag, rho)
    u = np.array([[a + 1j * b, c + 1j * d] for a, b, c, d in rows])
    n, m, u0 = lattice_reduce(Omega, u)
    assert n.shape == m.shape == u0.shape == u.shape
    back = u0 + n + m @ Omega.T
    size = 1.0 + np.abs(u) + np.linalg.norm(Omega, 2) * np.abs(m)
    assert np.all(np.abs(back - u) <= 1e-12 * size)
    assert np.array_equal(n, np.round(n)) and np.array_equal(m, np.round(m))
    assert np.all(np.abs(u0.real) <= 0.5)
    c = np.linalg.solve(Omega.imag, u0.imag.T)
    assert np.all(np.abs(c) <= 0.5 + 1e-9)
    for row, nr, mr, r0, sr in zip(u, n, m, u0, size):
        one = lattice_reduce(Omega, row)
        assert one[0].shape == (2,)
        assert np.array_equal(one[0], nr) and np.array_equal(one[1], mr)
        assert np.all(np.abs(one[2] - r0) <= 1e-12 * sr)


def _brute_jet(Omega, z, order, N=25):
    """Every jet entry as a direct lattice sum over [-N, N]^2."""
    rng = np.arange(-N, N + 1)
    n = np.stack(np.meshgrid(rng, rng, indexing="ij"), -1).reshape(-1, 2)
    w = np.exp(1j * np.pi * np.einsum("ki,ij,kj->k", n, Omega, n)
               + 2j * np.pi * n @ z)
    J = np.zeros((order + 1, order + 1), dtype=complex)
    for a in range(order + 1):
        for b in range(order + 1 - a):
            J[a, b] = np.sum(w * (2j * np.pi * n[:, 0]) ** a
                             * (2j * np.pi * n[:, 1]) ** b)
    return J


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_batched_jet_matches_rows(g6_ctx, order):
    """One batched call equals per-row calls, for rows whose range
    reduction shifts both coordinates by Omega and whose |Im z0| differ,
    so each row alone would be summed over a box of its own radius.  s is
    each row's exponent -i pi m.Omega.m - 2 pi i m.z0, and exp(s) V is
    the jet of theta."""
    Omega = g6_ctx.pd.Omega
    tp = ThetaParams.build(Omega)
    z0 = np.array([[0.11 + 0.02j, -0.23 + 0.01j],
                   [-0.31 + 0.25j, 0.07 - 0.20j],
                   [0.27 - 0.12j, 0.36 + 0.31j],
                   [-0.08 + 0.40j, -0.41 - 0.38j],
                   [0.19 - 0.33j, 0.02 + 0.05j]])
    m = np.array([[1, -1], [2, 1], [-1, 2], [1, 1], [-2, -1]])
    n = np.array([[1, 0], [-2, 3], [0, 1], [4, -1], [-1, -2]])
    Z = z0 + n + m @ Omega
    b = np.linalg.norm(z0.imag, axis=1)
    radii = {k2.theta._radius(tp, float(bi), order) for bi in b}
    assert len(radii) > 1
    # the reduction recovers the intended shifts, so all rows are shifted
    n_red, m_red, _ = lattice_reduce(Omega, Z)
    assert np.array_equal(m_red, m) and np.array_equal(n_red, n)

    s, J = theta_jet(tp, Z, order)
    assert s.shape == (len(Z),)
    assert J.shape == (len(Z), order + 1, order + 1)
    want_s = (-1j * np.pi * np.einsum("ri,ij,rj->r", m, Omega, m)
              - 2j * np.pi * np.einsum("ri,ri->r", m, z0))
    assert np.all(np.abs(s - want_s) <= 1e-12 * np.abs(want_s))
    valid = np.add.outer(range(order + 1), range(order + 1)) <= order
    for si, row, z in zip(s, J, Z):
        s_one, one = theta_jet(tp, z, order)
        assert s_one == si
        assert np.all(row[~valid] == 0)
        assert np.all(np.abs(row - one)[valid]
                      <= 1e-14 * np.abs(one)[valid])

    far = int(np.argmax(b))
    ref = _brute_jet(Omega, Z[far], order)
    assert np.all(np.abs(np.exp(s[far]) * J[far] - ref)[valid]
                  <= 1e-11 * np.maximum(1.0, np.abs(ref))[valid])


def test_tables_do_not_leak_between_matrices():
    """Tables built for one Riemann matrix are never used for another, even
    when the first ThetaParams is gone and its memory reused."""
    z = np.array([0.17 - 0.05j, -0.29 + 0.08j])
    for k in range(8):
        Omega = np.array([[0.1 * k + 1.1j, 0.3 - 0.05 * k + 0.2j],
                          [0.3 - 0.05 * k + 0.2j, -0.2 + 0.04 * k + 1.3j]])
        tp = ThetaParams.build(Omega)
        got = _theta(tp, z)
        ref = _brute_theta(Omega, z)
        assert abs(got - ref) < 1e-11 * max(1.0, abs(ref))
        del tp


# -- the box sum against the per-term sum -------------------------------------

CLUSTERED_ROOTS = [0, 1e-5, 2j, -1 + 1j, 3, -2 - 1j]


@pytest.fixture(scope="module")
def clustered_tp():
    """A sextic with a 1e-5 root pair: lam_min(Im Omega) = 0.20 and a
    summation box of up to 29 x 29 points."""
    f = k2.validate_polynomial(np.poly(CLUSTERED_ROOTS)[::-1])
    return ThetaParams.build(k2.compute_period_data(f).Omega)


@pytest.fixture(params=["w5", "g6", "clustered"])
def curve_tp(request, w5_ctx, g6_ctx, clustered_tp):
    return {"w5": w5_ctx.tp, "g6": g6_ctx.tp,
            "clustered": clustered_tp}[request.param]


def _per_term_jet(tp, z, order):
    """theta_jet with the box summed term by term, as the kernel did
    before its phase factors and row blocks: each term is exp of its
    real exponent times cos and sin of its phase, and one matrix product
    with the monomials sums the box.  The reduction, the radius and the
    Leibniz step are the kernel's; rows are summed 100 at a time, over
    the radius of the whole call, to bound the memory."""
    Z = np.asarray(z, dtype=complex).reshape(-1, 2)
    Om = tp.Omega
    _, m, z0 = lattice_reduce(Om, Z)
    R = theta._radius(
        tp, float(np.max(np.linalg.norm(z0.imag, axis=1))), order)
    rng = np.arange(-R, R + 1, dtype=float)
    n1, n2 = (a.ravel() for a in np.meshgrid(rng, rng, indexing="ij"))
    basis = np.stack([n1 * n1, 2 * n1 * n2, n2 * n2, n1, n2], axis=1)
    index = [(t - b, b) for t in range(order + 1) for b in range(t + 1)]
    mono = np.array([(2j * np.pi * n1) ** a * (2j * np.pi * n2) ** b
                     for a, b in index])
    J = np.zeros((len(Z), order + 1, order + 1), dtype=complex)
    for s in range(0, len(Z), 100):
        rows = z0[s:s + 100]
        coef = np.empty((5, len(rows)), dtype=complex)
        coef[:3] = 1j * np.pi * np.array([Om[0, 0], Om[0, 1],
                                          Om[1, 1]])[:, None]
        coef[3:] = 2j * np.pi * rows.T
        modulus = np.exp(basis @ coef.real)
        phase = basis @ coef.imag
        sums = mono @ (modulus * np.cos(phase) + 1j * modulus * np.sin(phase))
        for (a, b), row in zip(index, sums):
            J[s:s + 100, a, b] = row
    shifted = np.flatnonzero(np.any(m != 0, axis=1))
    J[shifted] = theta._leibniz(m[shifted], J[shifted], order)
    return J


def _rows_and_block(tp, order, n=1000, seed=31):
    """n points u = a + Omega b with a, b in [-3/2, 3/2]^2, the one whose
    reduced |Im z0| is largest first, so that every leading run of them
    is summed over the box of all n; and the rows of one block there."""
    rng = np.random.default_rng(seed)
    u = (rng.uniform(-1.5, 1.5, (n, 2))
         + rng.uniform(-1.5, 1.5, (n, 2)) @ tp.Omega.T)
    b = np.linalg.norm(lattice_reduce(tp.Omega, u)[2].imag, axis=1)
    u[[0, np.argmax(b)]] = u[[np.argmax(b), 0]]
    R = theta._radius(tp, float(np.max(b)), order)
    return u, max(1, theta.TERM_BUDGET // (2 * R + 1) ** 2)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_box_sum_matches_the_per_term_sum(curve_tp, order):
    """For 1 and 2 rows, one row either side of a block and 1000 rows
    (so the last block is partly filled), including rows whose reduction
    shifts them, the jets V (theta's over its quasi-periodicity factor
    e) within 1e-14 of each row's scale: the larger of its largest entry
    of V and 1.  That is the bound on the jets of theta itself, the
    larger of their largest entry and |e|, divided by |e|; |e| is at
    most the sum of the moduli of the row's terms, which bounds the
    rounding error of a sum whose terms cancel."""
    u, block = _rows_and_block(curve_tp, order)
    assert 2 < block < 500
    for n in (1, 2, block - 1, block, block + 1, 1000):
        got = theta_jet(curve_tp, u[:n], order)[1]
        want = _per_term_jet(curve_tp, u[:n], order)
        scale = np.maximum(np.max(np.abs(want), axis=(1, 2)), 1.0)
        err = np.max(np.abs(got - want), axis=(1, 2))
        assert np.all(err <= 1e-14 * scale), n


def test_a_large_call_sums_in_bounded_memory(clustered_tp):
    """4096 rows at order 3 on the clustered sextic: 29 x 29 box points
    per row, which summed in one piece would need about 220 MB of
    temporaries; in row blocks the call peaks under 16 MB."""
    u, _ = _rows_and_block(clustered_tp, 3, n=4096, seed=32)
    tracemalloc.start()
    try:
        theta_jet(clustered_tp, u, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_phase_tables_are_bounded_and_not_kept_on_theta_params():
    """The Omega tables live in one bounded module-level cache, keyed by
    Omega's bytes and the radius; a ThetaParams holds Omega and lam_min
    only, so contexts do not grow with them."""
    assert [f.name for f in fields(ThetaParams)] == ["Omega", "lam_min"]
    z = np.array([0.17 - 0.05j, -0.29 + 0.08j])
    for k in range(theta.PHASE_TABLES + 5):
        Omega = np.array([[0.01 * k + 1.1j, 0.3 + 0.2j],
                          [0.3 + 0.2j, 1.3j]])
        theta_jet(ThetaParams.build(Omega), z, 0)
    info = theta._box_tables.cache_info()
    assert info.maxsize == theta.PHASE_TABLES
    assert info.currsize <= theta.PHASE_TABLES


def _fixed_point_radius(lam, b, order):
    """The radius as _radius computed it for every call: ceil of 12 steps
    of the fixed point from R = 3, plus 1."""
    target = math.log(theta.TAIL_MARGIN / theta.EPS_TARGET)
    R = 3.0
    for _ in range(12):
        R = math.sqrt((target + 2 * math.pi * b * R
                       + order * math.log(max(2 * math.pi * R, 3.0)))
                      / (math.pi * lam))
    return math.ceil(R) + 1


def test_radius_from_its_intervals_is_the_fixed_point_radius():
    """_radius runs its fixed point only for a b outside the intervals it
    has seen; on 1500 b per (lam, order), drawn in random order and
    sorted, it gives the fixed point's radius for every b, the
    fixed-point radius never falls as b grows, and the interval cache is
    bounded."""
    rng = np.random.default_rng(40)
    for lam in (0.2, 0.87, 1.74, *rng.uniform(0.05, 5.0, 6)):
        tp = ThetaParams(Omega=None, lam_min=float(lam))
        for order in range(4):
            b = rng.uniform(0.0, 3.0, 1500)
            want = [_fixed_point_radius(lam, bi, order) for bi in b]
            assert np.all(np.diff([want[i] for i in np.argsort(b)]) >= 0)
            for bi, wi in zip(b, want):
                if wi > theta.RADIUS_CAP:
                    with pytest.raises(k2.TruncationRadiusError):
                        theta._radius(tp, float(bi), order)
                else:
                    assert theta._radius(tp, float(bi), order) == wi
            spans = theta._radius_spans(float(lam))[order]
            assert len(spans) == len({w for w in want
                                      if w <= theta.RADIUS_CAP})
    info = theta._radius_spans.cache_info()
    assert info.maxsize == theta.PHASE_TABLES
    assert info.currsize <= theta.PHASE_TABLES
