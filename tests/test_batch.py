"""Batch evaluation: S_eval, S_jk_eval, wp_eval, log_S_gradient,
divisor_clearance, sigma_eval and sigma_jets take z of shape (2,) or
(N, 2); a batch is one theta_jet call and equals the stacked one-point
calls.  Degree-6 wp selects the cubic root of every row at once, as the
per-row rule did.  The Abel layer likewise: abel_forward and rho_lambda_eval take a sequence of
divisors, jacobi_invert and nearest_lattice_residual an (N, 2) batch, and
a batch equals its members run one at a time."""

import warnings

import numpy as np
import pytest

import kleinian2 as k2
from kleinian2 import integration
from kleinian2.curve import involution
from kleinian2.kleinian import log_S_gradient, rho_lambda_eval
from kleinian2.theta import lattice_reduce

from conftest import sample_divisor, sample_z

# (function, the shape of one point's value); sigma only on 4x^5 - 4x
FUNCTIONS = [(k2.S_eval, ()), (k2.S_jk_eval, (3,)), (k2.wp_eval, (3,)),
             (log_S_gradient, (2,)), (k2.divisor_clearance, ())]
SIGMA = (k2.sigma_eval, ())


@pytest.fixture(scope="module")
def ring_ctx():
    """A seeded unit-ring sextic: roots near |x| = 1, jittered angles."""
    rng = np.random.default_rng(2024)
    angles = (2 * np.pi * (np.arange(6) + rng.uniform(-0.3, 0.3, 6)) / 6
              + rng.uniform(0, 2 * np.pi))
    roots = rng.uniform(0.75, 1.25, 6) * np.exp(1j * angles)
    lead = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
    return k2.make_context(k2.validate_polynomial(lead * np.poly(roots)[::-1]))


@pytest.fixture(params=["w5", "g6", "ring"])
def ctx(request, w5_ctx, g6_ctx, ring_ctx):
    return {"w5": w5_ctx, "g6": g6_ctx, "ring": ring_ctx}[request.param]


def _functions(ctx):
    return FUNCTIONS + ([SIGMA] if ctx.f.weierstrass_form else [])


def _points(ctx, n, seed):
    rng = np.random.default_rng(seed)
    return np.array([sample_z(ctx, rng) for _ in range(n)])


@pytest.mark.parametrize("n", [1, 7, 40])
def test_batch_equals_stacked_points(ctx, n):
    """Equal to 1e-13 of the batch's largest entry.  A batch rounds in
    numpy's array loops, not its scalar arithmetic, and sums theta over
    the box of its farthest row, so the log Hessian moves by about 1e-15.
    On degree 6 the wp cubic amplifies that: on the ring sextic a change
    of 1e-15 in the log Hessian moves wp by up to 1.4e-12, 1.8e-13 of the
    largest wp there, so degree-6 wp is held to 1e-12."""
    z = _points(ctx, n, seed=n)
    for fn, shape in _functions(ctx):
        got = fn(ctx, z)
        want = np.array([fn(ctx, zi) for zi in z])
        assert got.shape == (n,) + shape, fn.__name__
        rel = 1e-12 if fn is k2.wp_eval and ctx.f.degree == 6 else 1e-13
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want)), (
            fn.__name__)


def test_one_point_keeps_its_types(ctx):
    """A point of shape (2,) gives a numpy scalar, a (3,) or (2,) array,
    and a tuple from wp_eval."""
    z = _points(ctx, 1, seed=3)[0]
    assert isinstance(k2.S_eval(ctx, z), np.complexfloating)
    assert isinstance(k2.divisor_clearance(ctx, z), np.floating)
    assert k2.S_jk_eval(ctx, z).shape == (3,)
    assert log_S_gradient(ctx, z).shape == (2,)
    assert isinstance(k2.wp_eval(ctx, z), tuple)


def test_one_point_is_computed_in_scalars(ctx):
    """For one point, S, S_jk and the log Hessian are exactly the
    one-point formulas in numpy scalars (array loops round complex
    products differently), S_jk scaled by exp(z^T C z + s_- + s_+)
    through the one exp of _scaled."""
    z = _points(ctx, 1, seed=5)[0]
    u = ctx.Ainv @ z
    (sm, sp), (jm, jp) = k2.theta.theta_jet(
        ctx.pd.Omega, np.stack([u - ctx.pd.Delta, u + ctx.pd.Delta]), 2)
    t = k2.kleinian._quad(ctx, z) + sm + sp
    p, q = jm[0, 0], jp[0, 0]
    e = np.array([p * q,
                  q * jm[2, 0] + p * jp[2, 0] - 2.0 * jm[1, 0] * jp[1, 0],
                  q * jm[1, 1] + p * jp[1, 1] - jm[1, 0] * jp[0, 1]
                  - jm[0, 1] * jp[1, 0],
                  q * jm[0, 2] + p * jp[0, 2] - 2.0 * jm[0, 1] * jp[0, 1]])
    L = 2.0 * ctx.C
    for jet in (jm, jp):
        d1 = ctx.Ainv.T @ np.array([jet[1, 0], jet[0, 1]])
        d2 = ctx.Ainv.T @ np.array([[jet[2, 0], jet[1, 1]],
                                    [jet[1, 1], jet[0, 2]]]) @ ctx.Ainv
        L = L + (d2 / jet[0, 0] - np.outer(d1, d1) / jet[0, 0] ** 2)
    assert k2.S_jk_eval(ctx, z).tolist() == (
        np.exp(t + np.log(ctx.sjk_coeffs @ e)).tolist())
    assert k2.kleinian._log_hessian_from_pair(ctx, jm, jp).tolist() == (
        L.tolist())


@pytest.fixture
def theta_calls(monkeypatch):
    calls = []
    kernel = k2.theta.theta_jet

    def counted(tp, z, order):
        calls.append(np.shape(z))
        return kernel(tp, z, order)

    monkeypatch.setattr(k2.kleinian, "theta_jet", counted)
    return calls


@pytest.mark.parametrize("n", [1, 7, 40])
def test_a_batch_is_one_kernel_call(ctx, n, theta_calls):
    z = _points(ctx, n, seed=n + 100)
    for fn, _ in _functions(ctx):
        theta_calls.clear()
        fn(ctx, z)
        rows = n if fn is k2.sigma_eval else 2 * n
        assert theta_calls == [(rows, 2)], fn.__name__


@pytest.mark.parametrize("fn", [k2.wp_eval, log_S_gradient])
def test_a_row_on_the_divisor_raises(ctx, fn):
    """z = 0 lies on the zero set of S; a batch holding it raises."""
    z = _points(ctx, 5, seed=11)
    z[3] = 0.0
    with pytest.raises(k2.OnThetaDivisorError):
        fn(ctx, z)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (0, 2), (2, 2, 2)])
def test_other_shapes_are_refused(w5_ctx, shape):
    with pytest.raises(ValueError):
        k2.S_eval(w5_ctx, np.zeros(shape))


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
@pytest.mark.parametrize("fn", [k2.S_eval, k2.wp_eval, k2.jacobi_invert,
                                k2.evaluate_bundle, k2.divisor_clearance,
                                k2.sigma_eval])
def test_non_finite_z_is_refused_where_it_enters(w5_ctx, fn, bad, batch):
    """A z holding inf or nan raises ValueError before any theta sum, for
    one point and for a batch (which evaluate_bundle refuses by shape)."""
    z = np.array([[0.1 + 0.2j, -0.3j], [bad, 0.0]])
    with pytest.raises(ValueError, match="finite|shape"):
        fn(w5_ctx, z if batch else z[1])


@pytest.mark.parametrize("shape", [(1, 2), (2, 1)])
def test_one_point_functions_refuse_other_shapes(w5_ctx, shape):
    """evaluate_bundle takes one point, shape (2,) only: a (1, 2) batch
    or a (2, 1) column is refused, not read as one point."""
    z = np.full(shape, 0.1 + 0.2j)
    with pytest.raises(ValueError, match=r"shape \(2,\), not"):
        k2.evaluate_bundle(w5_ctx, z, want_sigma=True)


def test_one_point_sigma_jets_are_computed_in_scalars(w5_ctx):
    """For one point, sigma_jets is exactly the one-point Leibniz rule for
    e theta in numpy scalars and 2-D arrays, as it was written before it
    took batches, each entry scaled by exp(twist + s) through the one
    exp of _scaled."""
    ctx = w5_ctx
    kl = k2.kleinian
    for seed in range(4):
        z = _points(ctx, 1, seed=seed + 950)[0]
        u = ctx.Ainv @ z
        for order in range(4):
            s, jm = k2.theta.theta_jet(ctx.pd.Omega, u - ctx.pd.Delta,
                                       order)
            d1, d2, d3 = kl._pullback_jets(ctx.Ainv, jm, order)
            m0 = np.asarray(ctx.pd.delta_char[1])
            g1 = ctx.C @ z - 1j * np.pi * (ctx.Ainv.T @ m0)
            t = kl._sigma_twist(ctx, kl._quad(ctx, z), u, s)
            th, g2 = jm[0, 0], ctx.C + np.outer(g1, g1)
            jets = [th]
            if order >= 1:
                jets.append(d1 + g1 * th)
            if order >= 2:
                jets.append(d2 + np.outer(g1, d1) + np.outer(d1, g1)
                            + g2 * th)
            if order >= 3:
                jets.append(d3 + kl._sym3(d2, g1) + kl._sym3(g2, d1) + (
                    kl._sym3(ctx.C, g1)
                    + np.einsum("j,k,l->jkl", g1, g1, g1)) * th)
            want = {(n - k, k): np.exp(t + np.log(
                ctx.c_sigma * v[(0,) * (n - k) + (1,) * k]))
                    for n, v in enumerate(jets) for k in range(n + 1)}
            got = k2.sigma_jets(ctx, z, order)
            assert list(got) == list(want)
            for key in want:
                assert isinstance(got[key], np.complexfloating)
                assert got[key] == want[key], (order, key)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 7, 40])
def test_sigma_jets_batch_equals_points(w5_ctx, order, n, theta_calls):
    """sigma_jets of an (N, 2) batch is one kernel call on its N rows
    u - Delta, and each key holds an (N,) array equal to the one-point
    values to 1e-13 of the key's largest, as for the other batched
    functions; one point gives complex numbers.  A (2, 1) column is
    refused."""
    z = _points(w5_ctx, n, seed=n + 900)
    theta_calls.clear()
    got = k2.sigma_jets(w5_ctx, z, order)
    assert theta_calls == [(n, 2)]
    want = [k2.sigma_jets(w5_ctx, zi, order) for zi in z]
    assert len(got) == (order + 1) * (order + 2) // 2
    for key, vals in got.items():
        assert vals.shape == (n,)
        one = np.array([w[key] for w in want])
        assert isinstance(want[0][key], np.complexfloating)
        assert np.max(np.abs(vals - one)) <= 1e-13 * np.max(np.abs(one)), key
    with pytest.raises(ValueError, match=r"shape \(2,\) or \(N, 2\)"):
        k2.sigma_jets(w5_ctx, np.full((2, 1), 0.1 + 0.2j))


def test_far_points_raise_only_non_finite_value_error(w5_ctx):
    """Far out S, S_jk and sigma leave the double range: each raises
    NonFiniteValueError, and numpy warns of nothing on the way.  wp, its
    inversion and the log gradient are ratios of the jets, which carry
    their lattice scale apart: they return values, and wp equals its
    value at the lattice-reduced z to 1e-10."""
    ctx = w5_ctx
    z = 100 * np.array([0.6 + 0.3j, 0.2])
    batch = np.stack([z, 0.5 * z, 1.1 * z])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, arg in [(k2.S_eval, z), (k2.S_eval, batch),
                        (k2.S_jk_eval, batch), (k2.sigma_eval, batch)]:
            with pytest.raises(k2.NonFiniteValueError):
                fn(ctx, arg)
        wp = k2.wp_eval(ctx, batch)
        assert len(k2.jacobi_invert(ctx, batch)) == 3
        assert np.all(np.isfinite(log_S_gradient(ctx, batch)))
    # z = A u and u = u0 + n + Omega m give z = A u0 + A n + B m
    u0 = lattice_reduce(ctx.pd.Omega, (ctx.Ainv @ batch.T).T)[2]
    want = k2.wp_eval(ctx, u0 @ ctx.pd.A.T)
    assert np.all(np.abs(wp - want)
                  <= 1e-10 * np.max(np.abs(want), axis=1, keepdims=True))


# -- the degree-6 root selection ---------------------------------------------

def _old_quartic_matrix(f, p11, p12, p22):
    c = f.coeffs
    return np.array([
        [-c[0], c[1] / 2, 2 * p11, -2 * p12],
        [c[1] / 2, -c[2] - 4 * p11 - c[6] * p12 ** 2,
         c[3] / 2 + (c[5] / 2) * p12 + c[6] * p12 * p22, 2 * p22],
        [2 * p11, c[3] / 2 + (c[5] / 2) * p12 + c[6] * p12 * p22,
         -c[4] - c[5] * p22 - c[6] * p22 ** 2, 2],
        [-2 * p12, 2 * p22, 2, 0],
    ], dtype=complex)


def _old_selection_residual(f, p11, p12, p22):
    m = _old_quartic_matrix(f, p11, p12, p22)
    row = np.max(np.abs(m), axis=1)
    if np.any(row == 0.0):
        return np.inf
    return float(abs(np.linalg.det(m)) / np.prod(row))


def _per_row_wp(ctx, z, L, depth=4):
    """The wp triple at one point z from its log Hessian L, as the
    selection was written one row at a time: np.roots on the cubic, the
    row-scaled residual of each root's triple, and _resolve_root when
    more than one passes."""
    c = ctx.f.coeffs
    f5, f6 = c[5], c[6]
    if f6 == 0:
        return (-L[0, 0] / 2.0, -2.0 * L[0, 1] / f5, -2.0 * L[1, 1] / f5)
    cubic = [f6 ** 2, f5 * f6, f5 ** 2 / 4.0 + f6 * L[1, 1],
             (f5 / 2.0) * L[1, 1] - f6 * L[0, 1]]
    cands = []
    for P in np.roots(cubic):
        p22 = complex(P)
        p12 = -(L[1, 1] + (f5 / 2.0) * p22 + f6 * p22 ** 2) / f6
        p11 = -(L[0, 0] + f6 * p12 ** 2) / 2.0
        cands.append(((p11, p12, p22),
                      _old_selection_residual(ctx.f, p11, p12, p22)))
    cands.sort(key=lambda t: t[1])
    passing = [c0 for c0 in cands if c0[1] < k2.kleinian.TOL_ID]
    if len(passing) == 1:
        return passing[0][0]
    if not passing:
        return cands[0][0]
    return k2.kleinian._resolve_root(ctx, z, [c0[0] for c0 in passing],
                                     depth)


def _sextic_from_roots(roots):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return k2.make_context(k2.validate_polynomial(np.poly(roots)[::-1]))


@pytest.fixture(scope="module")
def s10_ctx():
    """The sextic with roots 10 {0, 1, 2i, -1+i, 3, -2-i}."""
    return _sextic_from_roots(10 * np.array([0, 1, 2j, -1 + 1j, 3, -2 - 1j]))


def _s10_points(ctx, n=60):
    """Cell points A t[:2] + B t[2:], t from default_rng(1): the first n
    clear of the zero set of S, then points 58, 94, 104 and 196, where
    the rule picks a triple off xi (max |wp| above 1e7)."""
    t = np.random.default_rng(1).random((200, 4))
    z = t[:, :2] @ ctx.pd.A.T + t[:, 2:] @ ctx.pd.B.T
    clear = np.flatnonzero(k2.divisor_clearance(ctx, z) > 1e-2)[:n]
    return np.concatenate([z[clear], z[[58, 94, 104, 196]]])


def _hessians(ctx, z):
    kl = k2.kleinian
    _, _, jm, jp = kl._theta_pair(ctx, z, 2)
    return kl._log_hessian_from_pair(ctx, jm, jp)


@pytest.mark.parametrize("name", ["w5", "g6", "ring", "s10"])
def test_batched_selection_picks_the_per_row_root(name, w5_ctx, g6_ctx,
                                                  ring_ctx, s10_ctx):
    """Given the same log Hessians, the batched selection picks the root
    the per-row rule picks, on every row, to 1e-12 of the row's largest
    entry; on the s = 10 sextic that includes rows that walk and the four
    rows where the rule picks a wrong triple."""
    ctx = {"w5": w5_ctx, "g6": g6_ctx, "ring": ring_ctx,
           "s10": s10_ctx}[name]
    z = _s10_points(ctx) if name == "s10" else _points(ctx, 40, seed=77)
    L = _hessians(ctx, z)
    got = k2.kleinian._wp_from_hessian(ctx, z, L)
    want = np.array([_per_row_wp(ctx, zi, Li) for zi, Li in zip(z, L)])
    assert got.shape == want.shape == (len(z), 3)
    scale = np.max(np.abs(want), axis=1)
    assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * scale)
    if name == "s10":
        assert np.all(scale[-4:] > 1e7)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of np.linalg.eigvals and np.linalg.det calls; np.roots
    fails the test if called."""
    calls = []
    for name in ("eigvals", "det"):
        fn = getattr(np.linalg, name)

        def counted(*args, fn=fn, name=name):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(np.linalg, name, counted)

    def roots(p):
        raise AssertionError("np.roots called")

    monkeypatch.setattr(np, "roots", roots)
    return calls


@pytest.mark.parametrize("n", [1, 7, 40])
def test_selection_is_one_eigvals_and_one_det_call(ctx, n, linalg_calls):
    """Every entry point that selects wp solves the cubics of a whole
    sextic batch in one eigvals call and tests them in one det call; a
    quintic batch calls neither.  jacobi_invert selects nothing: it reads
    wp = S_jk/S and its z-derivatives off the jets, on both degrees."""
    z = _points(ctx, n, seed=n + 1100)
    want = [] if ctx.f.degree == 5 else ["eigvals", "det"]
    for run in (lambda: k2.wp_eval(ctx, z), lambda: k2.wp_eval(ctx, z[0]),
                lambda: k2.evaluate_bundle(ctx, z[0])):
        linalg_calls.clear()
        run()
        assert linalg_calls == want
    for run in (lambda: k2.jacobi_invert(ctx, z),
                lambda: k2.jacobi_invert(ctx, z[0])):
        linalg_calls.clear()
        run()
        assert linalg_calls == []


def test_quartic_residual_of_a_batch_is_one_det_call(ctx, linalg_calls):
    """quartic_residual takes (N,) arrays, one det call for all rows, and
    gives each row's scalar call, a float, to 1e-14 (the residual is a
    scaled determinant, a cancellation), on the Kummer surface and off
    it.  The suite's quartic_determinant check on a quintic is that one
    call."""
    wp = k2.wp_eval(ctx, _points(ctx, 9, seed=1200))
    for rows in (wp, wp * (1 + 1e-3j)):
        linalg_calls.clear()
        got = k2.quartic_residual(ctx.f, *rows.T)
        assert linalg_calls == ["det"]
        assert got.shape == (9,)
        one = [k2.quartic_residual(ctx.f, *row) for row in rows]
        assert all(type(r) is float for r in one)
        assert np.max(np.abs(got - one)) <= 1e-14
    assert np.min(got) > 1e-6
    if ctx.f.degree == 5:
        linalg_calls.clear()
        k2.run_suite(ctx, seed=1, checks=["quartic_determinant"])
        assert linalg_calls == ["det"]


def test_only_rows_with_several_passing_roots_walk(s10_ctx, monkeypatch):
    """_resolve_root runs for the rows, and with the passing candidates,
    for which the per-row rule runs it (two or more roots pass), and for
    no other row."""
    ctx = s10_ctx
    z = _s10_points(ctx)
    L = _hessians(ctx, z)
    walked = []
    resolve = k2.kleinian._resolve_root

    def spy(c, zi, cands, depth):
        if depth == 4:      # not the walks of the reference points
            walked.append((zi.tolist(), np.array(cands)))
        return resolve(c, zi, cands, depth)

    monkeypatch.setattr(k2.kleinian, "_resolve_root", spy)
    for zi, Li in zip(z, L):
        _per_row_wp(ctx, zi, Li)
    want = walked[:]
    walked.clear()
    k2.kleinian._wp_from_hessian(ctx, z, L)
    assert want and [w[0] for w in walked] == [w[0] for w in want]
    for (_, got), (_, cands) in zip(walked, want):
        assert got.shape == cands.shape and len(cands) >= 2
        assert np.max(np.abs(got - cands)) <= 1e-12 * np.max(np.abs(cands))


def test_a_batch_with_a_wide_sextic_point_raises_as_the_point_does():
    """On the sextic with roots 30 {0, 1, 2i, -1+i, 3, -2-i} no nearby
    point resolves the root: the point alone raises
    RootSelectionAmbiguity, and so does a batch holding it."""
    ctx = _sextic_from_roots(30 * np.array([0, 1, 2j, -1 + 1j, 3, -2 - 1j]))
    t = np.array([0.31, 0.22, 0.13, 0.41])
    z = ctx.pd.A @ t[:2] + ctx.pd.B @ t[2:]
    with pytest.raises(k2.RootSelectionAmbiguity):
        k2.wp_eval(ctx, z)
    with pytest.raises(k2.RootSelectionAmbiguity):
        k2.wp_eval(ctx, np.stack([0.5 * z, z, 0.7 * z]))


# -- the Abel layer -----------------------------------------------------------

def _divisor_kinds(ctx, n, seed):
    """n divisors cycling through affine pairs whose path does and does
    not need a sheet flip, (P) + (P) (an empty straight run and a run
    into a branch point), (P) + (iP) (no path at all), and divisors with
    points at infinity under both labels."""
    rng = np.random.default_rng(seed)
    inf1, inf2 = k2.CurvePoint.at_infinity(1), k2.CurvePoint.at_infinity(2)
    out = []
    while len(out) < n:
        D = sample_divisor(ctx, rng)
        P, Q = D.p, D.q
        kinds = [D, k2.Divisor(P, involution(Q)), k2.Divisor(P, P),
                 k2.Divisor(P, involution(P)), k2.Divisor(P, inf1),
                 k2.Divisor(inf2, Q), k2.Divisor(inf1, inf2)]
        out.append(kinds[len(out) % len(kinds)])
    return out


def _affine_divisors(ctx, n, seed):
    """n admissible affine divisors, half of them (p) + (iq) of the other
    half, so that paths with and without a sheet flip share a batch."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        D = sample_divisor(ctx, rng)
        out += [D, k2.Divisor(D.p, involution(D.q))]
    return out[:n]


def _close_rows(got, want, rel=1e-13):
    """Each row of got equals that of want to rel of the row's largest
    entry (a zero row exactly)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    return bool(np.all(np.abs(got - want) <= rel * scale))


def _flat(D):
    return [D.p.x, D.p.y, D.q.x, D.q.y]


@pytest.mark.parametrize("n", [1, 7, 20])
def test_abel_batch_equals_divisors_one_at_a_time(ctx, n):
    Ds = _divisor_kinds(ctx, n, seed=n)
    got = k2.abel_forward(ctx, Ds)
    assert got.shape == (n, 2)
    assert _close_rows(got, [k2.abel_forward(ctx, D) for D in Ds])
    assert k2.abel_forward(ctx, Ds[0]).shape == (2,)


@pytest.mark.parametrize("n", [1, 7, 20])
def test_inversion_batch_equals_points_one_at_a_time(ctx, n):
    z = _points(ctx, n, seed=n + 200)
    got = k2.jacobi_invert(ctx, z)
    assert isinstance(got, list) and len(got) == n
    want = [k2.jacobi_invert(ctx, zi) for zi in z]
    assert isinstance(want[0], k2.Divisor)
    assert _close_rows([_flat(D) for D in got], [_flat(D) for D in want])


@pytest.mark.parametrize("n", [1, 7, 20])
def test_rho_lambda_batch_equals_divisors_one_at_a_time(ctx, n):
    Ds = _affine_divisors(ctx, n, seed=n + 300)
    r1, r2, lam, z = rho_lambda_eval(ctx, Ds)
    assert r1.shape == r2.shape == lam.shape == (n,) and z.shape == (n, 2)
    want = [rho_lambda_eval(ctx, D) for D in Ds]
    assert _close_rows(np.column_stack([r1, r2, lam, z]),
                       [[a, b, c, *w] for a, b, c, w in want])


@pytest.mark.parametrize("n", [1, 7, 20])
def test_lattice_residual_batch_equals_points_one_at_a_time(ctx, n):
    z = _points(ctx, n, seed=n + 400)
    # near a lattice point too, where the residual is a cancellation
    z[0] = ctx.pd.A[:, 0] - ctx.pd.B[:, 1] + 1e-3
    got = k2.nearest_lattice_residual(ctx.pd, z)
    assert got.shape == (n,)
    want = [k2.nearest_lattice_residual(ctx.pd, zi) for zi in z]
    assert isinstance(want[0], float)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@pytest.fixture
def abel_calls(monkeypatch):
    """Counts of continue_sqrt, _piece_frames, integrate_01 and _abel_sums
    calls, by name."""
    calls = []
    for name in ("continue_sqrt", "_piece_frames", "integrate_01",
                 "_abel_sums"):
        fn = getattr(integration, name)

        def counted(*args, fn=fn, name=name, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(integration, name, counted)
    return calls


@pytest.mark.parametrize("n", [1, 7, 20])
def test_a_batch_is_two_continuations_and_one_quadrature(ctx, n,
                                                         abel_calls):
    """rho_lambda_eval's affine pairs: the straight runs in one
    continuation, the runs into a branch point in at most a second, every
    piece in one quadrature, whatever n is, and the sheet frames of the
    stacked pieces built once, for that quadrature (continue_sqrt forms
    its own piece by piece).  abel_forward of the same divisors sums
    half-segments from branch points in one pass, with no continuation
    and no quadrature, and jacobi_invert reads its divisors off the theta
    jets and integrates nothing."""
    Ds = _affine_divisors(ctx, n, seed=n + 500)
    z = _points(ctx, n, seed=n + 600)
    rho_lambda_eval(ctx, Ds)
    assert abel_calls.count("continue_sqrt") <= 2
    assert abel_calls.count("_piece_frames") == 1
    assert abel_calls.count("integrate_01") == 1
    abel_calls.clear()
    k2.abel_forward(ctx, Ds)
    assert abel_calls == ["_abel_sums"]
    abel_calls.clear()
    k2.jacobi_invert(ctx, z)
    assert abel_calls == []


def test_divisors_that_meet_infinity_share_one_fan(ctx, abel_calls):
    """The affine points of every divisor, paired or meeting infinity, go
    through one sum of half-segments from branch points, and the points
    at infinity take z_star or 0: no continuation and no quadrature."""
    for n in (7, 20):
        abel_calls.clear()
        k2.abel_forward(ctx, _divisor_kinds(ctx, n, seed=n + 700))
        assert abel_calls == ["_abel_sums"]


def test_divisors_that_meet_infinity_are_one_quadrature(ctx, abel_calls):
    """A batch of divisors that all meet infinity, with one or both of
    their points affine, sums its affine points' half-segments in one
    pass; the infinite points take none."""
    inf1, inf2 = k2.CurvePoint.at_infinity(1), k2.CurvePoint.at_infinity(2)
    Ds = []
    for k, D in enumerate(_affine_divisors(ctx, 9, seed=900)):
        Ds.append(k2.Divisor(D.p, (inf1, inf2)[k % 2]) if k % 3
                  else k2.Divisor(inf1, D.q))
    k2.abel_forward(ctx, Ds)
    assert abel_calls == ["_abel_sums"]


def test_points_beyond_the_series_radius_take_no_quadrature(ctx,
                                                           abel_calls):
    """A point SERIES_FACTOR times the largest root modulus out or beyond
    has its Abel image from its tail alone, summed as a series, with no
    sheet chain, no quadrature and no half-segment.  Against the image of
    a point Q nearer in, on the same ray, a branch point's image plus a
    half-segment, and the integral from Q out to the point along the
    path layer's runs: the two images differ by that integral modulo the
    lattice, to 1e-13."""
    f, roots = ctx.f, list(ctx.f.roots)
    radii = integration.detour_radii(f)
    direction = np.exp(0.4j)
    xs = f.scale * direction * np.array([1.2, 2.0, 3.5])
    Q = k2.CurvePoint.affine(xs[0], np.sqrt(f(xs[0])))
    runs = [integration.line_with_detours(roots, radii, xs[0], x)
            for x in xs[1:]]
    pieces, y0, y_end = integration._continue_runs(f, runs, [Q.y, Q.y])
    ends = np.cumsum([len(run) for run in runs])
    I = np.array([v.sum(axis=0) for v in np.split(
        integration.integrate_forms(f, pieces, y0,
                                    integration.holomorphic_numerators()),
        ends[:-1])])
    abel_calls.clear()
    J = integration.abel_images(f, xs[1:], y_end, ctx.branch_abel,
                                ctx.pd.z_star)
    assert abel_calls == []
    J_Q = integration.abel_images(f, [Q.x], [Q.y], ctx.branch_abel,
                                  ctx.pd.z_star)
    assert abel_calls == ["_abel_sums"]
    assert np.all(k2.nearest_lattice_residual(ctx.pd, J - J_Q - I)
                  <= 1e-13 * np.max(np.abs(J)))


def test_detour_radii_are_computed_once_per_root_set(ctx):
    """rho_lambda_eval's paths, straight runs and runs into a branch point
    alike, ask for the detour radii in path_between; the root-distance
    matrix behind them is computed once per curve.  abel_forward takes
    no path and asks for none."""
    Ds = _affine_divisors(ctx, 14, seed=1000)
    integration.detour_radii.cache_clear()
    k2.abel_forward(ctx, _divisor_kinds(ctx, 14, seed=1000))
    assert integration.detour_radii.cache_info().currsize == 0
    rho_lambda_eval(ctx, Ds[:7])
    rho_lambda_eval(ctx, Ds[7:])
    info = integration.detour_radii.cache_info()
    assert info.misses == 1 and info.hits >= 1


def test_each_bad_divisor_raises_its_own_error(g6_ctx):
    rng = np.random.default_rng(800)
    good = _affine_divisors(g6_ctx, 3, seed=801)
    P = sample_divisor(g6_ctx, rng).p
    Q = k2.CurvePoint.affine(P.x + 1e-14, P.y)
    for bad, error in ((k2.Divisor(P, k2.CurvePoint.at_infinity(1)),
                        k2.InfinitePointError),
                       (k2.Divisor(P, involution(P)), k2.SpecialDivisorError),
                       (k2.Divisor(P, Q), k2.DiagonalError)):
        with pytest.raises(error):
            rho_lambda_eval(g6_ctx, good[:2] + [bad] + good[2:])
