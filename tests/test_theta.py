"""Genus-2 theta engine: series oracle, quasi-periodicity, derivatives."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import kleinian2 as k2
from hypothesis import given, settings, strategies as st

from kleinian2 import theta
from kleinian2.theta import lattice_reduce, theta_jet

MULTI_INDICES = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                 (3, 0), (2, 1), (1, 2), (0, 3)]


def _jet(Omega, z, order):
    """The jet of theta itself: theta_jet's V times exp(s)."""
    s, V = theta_jet(Omega, z, order)
    return np.exp(s)[..., None, None] * V


def _theta(Omega, z):
    """theta(z; Omega), the order-0 entry of the jet."""
    return _jet(Omega, z, 0)[0, 0]


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
    one_d = sum(np.exp(-np.pi * n ** 2) for n in range(-40, 41))
    assert abs(_theta(1j * np.eye(2), np.zeros(2)) - one_d ** 2) < 1e-12


def test_matches_brute_force_sum(g6_ctx):
    Omega = g6_ctx.pd.Omega
    rng = np.random.default_rng(21)
    for _ in range(5):
        z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.3, 0.3, 2)
        ref = _brute_theta(Omega, z)
        assert abs(_theta(Omega, z) - ref) < 1e-11 * max(1.0, abs(ref))


def test_quasi_periodicity(w5_ctx, g6_ctx):
    for ctx in (w5_ctx, g6_ctx):
        Omega = ctx.pd.Omega
        rng = np.random.default_rng(22)
        for _ in range(20):
            z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
            n = rng.integers(-2, 3, 2)
            m = rng.integers(-2, 3, 2)
            lhs = _theta(Omega, z + n + Omega @ m)
            factor = np.exp(-1j * np.pi * m @ Omega @ m - 2j * np.pi * m @ z)
            rhs = factor * _theta(Omega, z)
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_evenness(g6_ctx):
    Omega = g6_ctx.pd.Omega
    rng = np.random.default_rng(23)
    for _ in range(10):
        z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        a, b = _theta(Omega, z), _theta(Omega, -z)
        assert abs(a - b) < 1e-13 * max(1.0, abs(a))


@pytest.mark.parametrize("multi_index", MULTI_INDICES)
def test_derivatives_match_finite_differences(g6_ctx, multi_index):
    Omega = g6_ctx.pd.Omega
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
            return _jet(Omega, w, k2_)[0, k2_]

        coarse = fd(along_z2, z, k1, h)
        fine = fd(along_z2, z, k1, h / 2)
        est = (4 * fine - coarse) / 3 if k1 > 0 else fine
        got = _jet(Omega, z, k1 + k2_)[k1, k2_]
        assert abs(got - est) < 1e-6 * max(1.0, abs(got))


def test_third_jet_table_is_consistent(g6_ctx):
    """The full order-3 table agrees with the tables of lower order: every
    order sums the same term list, so they differ by rounding alone."""
    Omega = g6_ctx.pd.Omega
    z = np.array([0.21 + 0.05j, -0.37 + 0.11j])
    jet = _jet(Omega, z, 3)
    assert abs(jet[0, 0] - _theta(Omega, z)) < 1e-14
    for (a, b) in MULTI_INDICES:
        one = _jet(Omega, z, a + b)[a, b]
        assert abs(jet[a, b] - one) < 1e-12 * max(1.0, abs(one))


def test_rejects_bad_riemann_matrix():
    """theta_jet refuses an Omega that is not symmetric, or whose
    imaginary part is not positive definite, with RiemannMatrixError
    before any numpy warning (the tests turn warnings into errors), and
    one that is not 2x2 with ValueError."""
    z = np.zeros(2)
    with pytest.raises(k2.RiemannMatrixError):
        theta_jet(np.array([[1j, 0.3], [0.2, 1j]]), z, 0)  # not symmetric
    with pytest.raises(k2.RiemannMatrixError):
        theta_jet(np.array([[-1j, 0], [0, 1j]]), z, 0)  # Im not posdef
    with pytest.raises(ValueError, match="2x2"):
        theta_jet(1j * np.eye(3), z, 0)


def test_order_cap(w5_ctx):
    """Only the integers 0-3 are orders; sigma_jets passes its order on."""
    for order in (-1, 1.5, 4):
        with pytest.raises(ValueError):
            theta_jet(1j * np.eye(2), np.zeros(2), order)
        with pytest.raises(ValueError):
            k2.sigma_jets(w5_ctx, np.full(2, 0.1), order)


def test_nearly_singular_imaginary_part_exceeds_radius_cap():
    """With lam_min(Im Omega) = 1e-4 the ellipsoid of the tail bound
    reaches |n2| = 444, over RADIUS_CAP."""
    Omega = np.array([[0.3 + 1j, 0.1], [0.1, 1e-4j]])
    assert np.linalg.eigvalsh(Omega.imag)[0] < 2e-4
    with pytest.raises(k2.TruncationRadiusError, match="444"):
        theta_jet(Omega, np.zeros(2), 0)


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
    reduction shifts both coordinates by Omega and whose |Im z0| differ.
    s is each row's exponent -i pi m.Omega.m - 2 pi i m.z0, and exp(s) V
    is the jet of theta."""
    Omega = g6_ctx.pd.Omega
    z0 = np.array([[0.11 + 0.02j, -0.23 + 0.01j],
                   [-0.31 + 0.25j, 0.07 - 0.20j],
                   [0.27 - 0.12j, 0.36 + 0.31j],
                   [-0.08 + 0.40j, -0.41 - 0.38j],
                   [0.19 - 0.33j, 0.02 + 0.05j]])
    m = np.array([[1, -1], [2, 1], [-1, 2], [1, 1], [-2, -1]])
    n = np.array([[1, 0], [-2, 3], [0, 1], [4, -1], [-1, -2]])
    Z = z0 + n + m @ Omega
    b = np.linalg.norm(z0.imag, axis=1)
    # the reduction recovers the intended shifts, so all rows are shifted
    n_red, m_red, _ = lattice_reduce(Omega, Z)
    assert np.array_equal(m_red, m) and np.array_equal(n_red, n)

    s, J = theta_jet(Omega, Z, order)
    assert s.shape == (len(Z),)
    assert J.shape == (len(Z), order + 1, order + 1)
    want_s = (-1j * np.pi * np.einsum("ri,ij,rj->r", m, Omega, m)
              - 2j * np.pi * np.einsum("ri,ri->r", m, z0))
    assert np.all(np.abs(s - want_s) <= 1e-12 * np.abs(want_s))
    valid = np.add.outer(range(order + 1), range(order + 1)) <= order
    for si, row, z in zip(s, J, Z):
        s_one, one = theta_jet(Omega, z, order)
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
    when the first Omega is gone and its memory reused."""
    z = np.array([0.17 - 0.05j, -0.29 + 0.08j])
    for k in range(8):
        Omega = np.array([[0.1 * k + 1.1j, 0.3 - 0.05 * k + 0.2j],
                          [0.3 - 0.05 * k + 0.2j, -0.2 + 0.04 * k + 1.3j]])
        got = _theta(Omega, z)
        ref = _brute_theta(Omega, z)
        assert abs(got - ref) < 1e-11 * max(1.0, abs(ref))
        del Omega


# -- the term list against the per-term sum and the brute-force sum ---------

CLUSTERED_ROOTS = [0, 1e-5, 2j, -1 + 1j, 3, -2 - 1j]


@pytest.fixture(scope="module")
def clustered_omega():
    """A sextic with a 1e-5 root pair: lam_min(Im Omega) = 0.20 and a
    term list of 131 points reaching |n2| = 9."""
    f = k2.validate_polynomial(np.poly(CLUSTERED_ROOTS)[::-1])
    return k2.compute_period_data(f).Omega


@pytest.fixture(params=["w5", "g6", "clustered"])
def curve_omega(request, w5_ctx, g6_ctx, clustered_omega):
    return {"w5": w5_ctx.pd.Omega, "g6": g6_ctx.pd.Omega,
            "clustered": clustered_omega}[request.param]


def _term_points(Omega):
    """The lattice points n of Omega's term list, shape (K, 2)."""
    return theta._terms(np.asarray(Omega, dtype=complex).tobytes()).n.T


def _per_term_jet(Om, z, order):
    """theta_jet with the list summed term by term in extended precision:
    each term is exp of its real exponent times cos and sin of its phase,
    both formed in long double, and one matrix product with the monomials
    sums the list.  The reduction, the term points and the Leibniz step
    are the kernel's; rows are summed 100 at a time to bound the memory."""
    Z = np.asarray(z, dtype=complex).reshape(-1, 2)
    _, m, z0 = lattice_reduce(Om, Z)
    n1, n2 = _term_points(Om).T.astype(np.longdouble)
    basis = np.stack([n1 * n1, 2 * n1 * n2, n2 * n2, n1, n2], axis=1)
    index = [(t - b, b) for t in range(order + 1) for b in range(t + 1)]
    two_pi = 2 * np.longdouble("3.141592653589793238462643383279502884")
    mono = np.array([(1j * two_pi * n1) ** a * (1j * two_pi * n2) ** b
                     for a, b in index])
    J = np.zeros((len(Z), order + 1, order + 1), dtype=complex)
    for s in range(0, len(Z), 100):
        rows = z0[s:s + 100]
        coef = np.empty((5, len(rows)), dtype=np.clongdouble)
        coef[:3] = 0.5j * two_pi * np.array([Om[0, 0], Om[0, 1],
                                             Om[1, 1]])[:, None]
        coef[3:] = 1j * two_pi * rows.T
        modulus = np.exp(basis @ coef.real)
        phase = basis @ coef.imag
        sums = mono @ (modulus * np.cos(phase) + 1j * modulus * np.sin(phase))
        for (a, b), row in zip(index, sums):
            J[s:s + 100, a, b] = row
    shifted = np.flatnonzero(np.any(m != 0, axis=1))
    J[shifted] = theta._leibniz(m[shifted], J[shifted], order)
    return J


def _cell_points(Omega, n, seed):
    """n points u = a + Omega b with a, b in [-3/2, 3/2]^2: most are
    shifted by the range reduction."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(-1.5, 1.5, (n, 2))
            + rng.uniform(-1.5, 1.5, (n, 2)) @ Omega.T)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_box_sum_matches_the_per_term_sum(curve_omega, order):
    """The kernel's sum over the term list (the test is named for the box
    it once summed) against the per-term sum over the same list.  For 1
    and 2 rows, one row either side of a block and 1000 rows (so the last
    block is partly filled), including rows whose reduction shifts them,
    the jets V (theta's over its quasi-periodicity factor e) within 1e-14
    of each row's scale: the larger of its largest entry of V and 1.
    That is the bound on the jets of theta itself, the larger of their
    largest entry and |e|, divided by |e|; |e| is at most the sum of the
    moduli of the row's terms, which bounds the rounding error of a sum
    whose terms cancel."""
    u = _cell_points(curve_omega, 1000, seed=31)
    block = theta.TERM_BUDGET // len(_term_points(curve_omega))
    assert 2 < block < 1000
    for n in (1, 2, block - 1, block, block + 1, 1000):
        got = theta_jet(curve_omega, u[:n], order)[1]
        want = _per_term_jet(curve_omega, u[:n], order)
        scale = np.maximum(np.max(np.abs(want), axis=(1, 2)), 1.0)
        err = np.max(np.abs(got - want), axis=(1, 2))
        assert np.all(err <= 1e-14 * scale), n


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_doubled_list_jets_match_the_per_term_sum(curve_omega, order):
    """The list of 2 Omega, which the weight-2 basis sums, against the
    per-term sum over the same points, at the row counts of the test
    above: the jets V within 1e-14 of each row's scale."""
    Omega = 2.0 * curve_omega
    u = _cell_points(Omega, 1000, seed=33)
    block = theta.TERM_BUDGET // len(_term_points(Omega))
    assert 2 < block < 1000
    for n in (1, 2, block - 1, block, block + 1, 1000):
        got = theta_jet(Omega, u[:n], order)[1]
        want = _per_term_jet(Omega, u[:n], order)
        scale = np.maximum(np.max(np.abs(want), axis=(1, 2)), 1.0)
        err = np.max(np.abs(got - want), axis=(1, 2))
        assert np.all(err <= 1e-14 * scale), n


_entry = st.floats(-10.0, 10.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(y=st.tuples(_entry, _entry, _entry),
       a=st.tuples(*[st.complex_numbers(max_magnitude=10.0)] * 4),
       exponent=st.integers(-6, 6))
def test_closed_form_2x2_spectra(y, a, exponent):
    """lam_min of a real symmetric 2x2 matrix against eigvalsh, to 1e-14
    of its largest entry, and sigma_min of a complex 2x2 matrix against
    svd, to 1e-14 of sigma_max, both over scales 10^-6 to 10^6."""
    from kleinian2.kleinian import sigma_min
    scale = 10.0 ** exponent
    a_, b_, d_ = (scale * v for v in y)
    want = np.linalg.eigvalsh(np.array([[a_, b_], [b_, d_]]))[0]
    assert (abs(theta.lam_min(a_, b_, d_) - want)
            <= 1e-14 * max(abs(a_), abs(b_), abs(d_), 1e-300))
    A = scale * np.array(a).reshape(2, 2)
    sv = np.linalg.svd(A, compute_uv=False)
    assert abs(sigma_min(A) - sv[-1]) <= 1e-14 * max(sv[0], 1e-300)


def _left_out(points):
    """The lattice points of the box twice the bounding box of `points`
    that are not among them."""
    H1, H2 = np.max(np.abs(points), axis=0)
    g = np.stack(np.meshgrid(np.arange(-2 * H1, 2 * H1 + 1),
                             np.arange(-2 * H2, 2 * H2 + 1),
                             indexing="ij"), -1).reshape(-1, 2)
    listed = {tuple(p) for p in points.tolist()}
    return g[[tuple(p) not in listed for p in g.tolist()]]


@pytest.mark.parametrize("doubled", [False, True])
def test_terms_left_out_stay_below_eps_target(curve_omega, doubled):
    """The terms that the list leaves out, summed with the absolute values
    of their order-3 weights over twice its bounding box, stay below
    EPS_TARGET times each row's scale (the larger of its largest jet
    entry and 1), on Omega and on 2 Omega, at the corners of the reduced
    cell (where the factor exp(pi c.Y.c) is largest) and at random rows
    in it."""
    Omega = 2 * curve_omega if doubled else curve_omega
    Y = Omega.imag
    rng = np.random.default_rng(41)
    c = np.concatenate([[[0.5, 0.5], [0.5, -0.5], [-0.5, 0.5],
                         [-0.5, -0.5]], rng.uniform(-0.5, 0.5, (12, 2))])
    z0 = rng.uniform(-0.5, 0.5, c.shape) + 1j * c @ Y
    n = _left_out(_term_points(Omega)).astype(float)
    modulus = np.exp(-np.pi * np.einsum("ki,ij,kj->k", n, Y, n)[:, None]
                     - 2 * np.pi * n @ z0.imag.T)
    weight = (2 * np.pi * np.abs(n)) ** 3
    left = np.maximum(weight.max(axis=1), 1.0) @ modulus
    V = theta_jet(Omega, z0, 3)[1]
    assert np.all(lattice_reduce(Omega, z0)[1] == 0)
    scale = np.maximum(np.max(np.abs(V), axis=(1, 2)), 1.0)
    assert np.all(left <= theta.EPS_TARGET * scale)


_eig = st.floats(0.2, 5.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(re=st.tuples(*[st.floats(-3.0, 3.0)] * 3), lam=st.tuples(_eig, _eig),
       angle=st.floats(0.0, np.pi), order=st.integers(0, 3),
       rows=st.lists(st.tuples(*[st.floats(-0.5, 0.5)] * 4),
                     min_size=1, max_size=4))
def test_jets_match_a_brute_force_sum(re, lam, angle, order, rows):
    """Over random Riemann matrices with the eigenvalues of Im Omega in
    [0.2, 5], the jets at rows of the reduced cell match the plain sum
    over a square box holding twice the term list's bounding box to 1e-13
    of each row's scale, the larger of its largest entry and 1."""
    R = np.array([[np.cos(angle), -np.sin(angle)],
                  [np.sin(angle), np.cos(angle)]])
    Y = R @ np.diag(lam) @ R.T
    a, b = np.sqrt(Y[0, 0]), np.sqrt(Y[1, 1])
    Omega = _riemann_matrix(*re, Y[0, 0], Y[1, 1], Y[0, 1] / (a * b))
    r = np.array(rows)
    z0 = r[:, :2] + 1j * r[:, 2:] @ Omega.imag
    s, V = theta_jet(Omega, z0, order)
    N = 2 * int(np.max(np.abs(_term_points(Omega))))
    assert np.all(s == 0)
    for row, z in zip(V, z0):
        want = _brute_jet(Omega, z, order, N)
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(row - want)) <= 1e-13 * scale


def test_a_large_call_sums_in_bounded_memory(clustered_omega):
    """4096 rows at order 3 on the clustered sextic: 131 terms per row,
    which summed in one piece would need about 26 MB of temporaries; in
    row blocks the call peaks under 16 MB."""
    u = _cell_points(clustered_omega, 4096, seed=32)
    tracemalloc.start()
    try:
        theta_jet(clustered_omega, u, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_phase_tables_are_bounded_and_not_kept_on_the_data(w5_ctx, g6_ctx):
    """The term lists live in one bounded module-level cache, keyed by
    Omega's bytes, 2 Omega's among them; neither the period data nor the
    context holds one, so they do not grow with them."""
    for data in (w5_ctx.pd, w5_ctx, g6_ctx.pd, g6_ctx):
        held = [getattr(data, f.name) for f in fields(data)]
        assert not any(isinstance(v, theta._TermList) for v in held)
    z = np.array([0.17 - 0.05j, -0.29 + 0.08j])
    for k in range(theta.PHASE_TABLES + 5):
        Omega = np.array([[0.01 * k + 1.1j, 0.3 + 0.2j],
                          [0.3 + 0.2j, 1.3j]])
        theta_jet(Omega, z, 0)
    info = theta._terms.cache_info()
    assert info.maxsize == theta.PHASE_TABLES
    assert info.currsize <= theta.PHASE_TABLES


def _fixed_point_radius(lam, b, order):
    """The radius of the square box [-R, R]^2 that theta once summed for
    every call: ceil of 12 steps of the fixed point of pi lam R^2 - 2 pi b
    R - order ln(2 pi R) = ln(100 / EPS_TARGET) from R = 3, plus 1."""
    target = math.log(100.0 / theta.EPS_TARGET)
    R = 3.0
    for _ in range(12):
        R = math.sqrt((target + 2 * math.pi * b * R
                       + order * math.log(max(2 * math.pi * R, 3.0)))
                      / (math.pi * lam))
    return math.ceil(R) + 1


def _verify_pool(each=16, seed=3031):
    """The benchmark's verify pool: `each` Weierstrass quintics, general
    quintics and sextics with unit-ring roots, drawn in that order."""
    rng = np.random.default_rng(seed)

    def ring(k):
        radii = 0.75 + 0.5 * rng.random(k)
        jitter = 0.3 * (2 * rng.random(k) - 1)
        angles = (2 * np.pi * (np.arange(k) + jitter) / k
                  + 2 * np.pi * rng.random())
        return radii * np.exp(1j * angles)

    def lead():
        return (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())

    wq = [4.0 * np.poly(ring(5))[::-1] for _ in range(each)]
    g5 = [np.poly(ring(5))[::-1] * lead() for _ in range(each)]
    s6 = [np.poly(ring(6))[::-1] * lead() for _ in range(each)]
    return wq + g5 + s6


def test_term_lists_hold_at_most_half_the_box():
    """On 4x^5 - 4x, x^6 - 1 and the 48 curves of the benchmark's verify
    pool, on Omega and 2 Omega, the term list holds at most half the
    (2R + 1)^2 points of the box that theta once summed at order 3 for
    the cell's farthest row, b = max |Y c| over |c_i| <= 1/2."""
    ratios = []
    curves = [[0, -4, 0, 0, 0, 4], [-1, 0, 0, 0, 0, 0, 1]] + _verify_pool()
    for coeffs in curves:
        Omega = k2.compute_period_data(k2.validate_polynomial(coeffs)).Omega
        for Om in (Omega, 2 * Omega):
            Y = Om.imag
            b = max(np.linalg.norm(Y @ [0.5, 0.5]),
                    np.linalg.norm(Y @ [0.5, -0.5]))
            R = _fixed_point_radius(np.linalg.eigvalsh(Y)[0], b, 3)
            ratios.append(len(_term_points(Om)) / (2 * R + 1) ** 2)
    assert len(ratios) == 100
    assert max(ratios) <= 0.5


def test_half_lattice_rows_reduce_alike_however_c_is_formed(w5_ctx,
                                                             g6_ctx):
    """The rows w + Omega eps of theta( . ; 2 Omega) in the weight-2 basis
    sit on half-lattice points of 2 Omega (w = 0, and w = 2 Delta on the
    quintic): m is the same whichever way their coordinates c = (2 Im
    Omega)^-1 Im u are formed, on Omega and on Omega (1 +- 1e-13), and
    the exact ties w = 0 round to the even m = 0."""
    eps = np.tile([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], (2, 1))
    for ctx in (w5_ctx, g6_ctx):
        for scale in (1.0, 1 + 1e-13, 1 - 1e-13):
            Om = ctx.pd.Omega * scale
            w = np.zeros((8, 2), dtype=complex)
            w[4:] = 2.0 * ctx.pd.Delta
            u = w + eps @ Om
            Y, y = (2.0 * Om).imag, u.imag
            ways = [np.linalg.solve(Y, y.T).T, y @ np.linalg.inv(Y).T,
                    (np.linalg.inv(Y) @ y.T).T, np.linalg.solve(Y.T, y.T).T]
            m = lattice_reduce(2.0 * Om, u)[1]
            for c in ways:
                assert np.array_equal(theta._lattice_round(c), m)
            assert np.all(m[:4] == 0)
