"""Period matrices: independent quadrature oracles, Legendre certificates,
lattice arithmetic, invariance under re-orderings of the branch points, and
the closed-form base-point constant."""

from dataclasses import fields, replace
import itertools
import warnings

import mpmath
import numpy as np
import pytest

import kleinian2 as k2
from kleinian2 import integration, periods
from kleinian2 import serialization as ser
from kleinian2.integration import segment_period_integrals
from kleinian2.quadrature import TOL
from kleinian2.theta import theta_jet

from conftest import (G6_COEFFS, NEAR_MISS_ORDERING, NEAR_MISS_ROOTS,
                      W5_COEFFS, flip_loop_pieces)
from test_panel import CURVES as PANEL_CURVES


# -- independent oracle for one branch segment ---------------------------------

def _mp_segment(f, roots, p):
    """Reference: the integrals of (dx/y, x dx/y, r1, r2) over loop segment
    p of the branch order roots, on the sheet of segment_sheet, by mpmath
    at 20 digits: over theta with u = sin^2(theta/2), where they are
    integrals of n_k(x) d/s, split at and around the point of the segment
    nearest the roots off it."""
    i, j = periods.LOOP_PAIRS[p]
    sheet = integration.segment_sheet(f, roots, periods.LOOP_PAIRS)
    with mpmath.workdps(20):
        c = [mpmath.mpc(v) for v in f.coeffs]
        rs = [mpmath.mpc(r) for r in roots]
        bi, d = rs[i], rs[j] - rs[i]
        others = [r for k, r in enumerate(rs) if k not in (i, j)]
        feet = [min(1, max(0, ((r - bi) * mpmath.conj(d)).real / abs(d) ** 2))
                for r in others]
        split = sorted({float(2 * mpmath.asin(mpmath.sqrt(t)) + e)
                        for t in feet for e in (0, -1e-3, 1e-3, -1e-1, 1e-1)})
        split = [0.0] + [t for t in split if 0 < t < np.pi] + [mpmath.pi]

        def h(theta, k):
            u = mpmath.sin(theta / 2) ** 2
            x = bi + u * d
            G = -mpmath.mpc(f.leading) * d * d
            for r in others:
                G *= x - r
            s = mpmath.sqrt(G)
            s0 = sheet(np.array([p]), np.array([float(u)]),
                       np.array([float(1 - u)]))[2][0]
            if abs(complex(s) - s0) > abs(complex(s) + s0):
                s = -s
            n = (1, x, (c[3] * x + 2 * c[4] * x ** 2 + 3 * c[5] * x ** 3
                        + 4 * c[6] * x ** 4) / 4,
                 (c[5] * x ** 2 + 2 * c[6] * x ** 3) / 4)[k]
            return n * d / s

        return np.array([complex(mpmath.quad(lambda t: h(t, k), split))
                         for k in range(4)])


def _segment_curves():
    """(name, f, branch order) of FRAME_CURVES, the near miss in its
    re-ordering and the clustered two-pair curves of the panel."""
    curves = [(name, k2.validate_polynomial(c), None)
              for name, c in FRAME_CURVES]
    curves.append(("near_miss", k2.validate_polynomial(
        np.poly(NEAR_MISS_ROOTS)[::-1]), NEAR_MISS_ORDERING))
    curves += [(name, k2.validate_polynomial(list(PANEL_CURVES[name])), None)
               for name in ("two_pairs_i", "two_pairs_r",
                            "two_pairs_i_polyfromroots")]
    return [(name, f, list(f.roots) if order is None
             else [f.roots[k] for k in order]) for name, f, order in curves]


@pytest.mark.filterwarnings("ignore:branch points far outside unit scale")
def test_segment_integrals_match_mpmath_oracle():
    """For f = 4x^5 - 4x the segment [0, 1] joins two branch points along the
    real axis, where f < 0; each basis form integral is i times a real
    integral that mpmath can do to 30 digits.

    On FRAME_CURVES, the near miss and the clustered two-pair curves,
    every loop segment's Gauss-Chebyshev sum lies within its stated error
    bound of the sum at four times its nodes, and that bound is at most
    TOL of the segment's max-norm.  The near miss's segment, 2.8e-3 from
    a root, takes tens of thousands of nodes and matches mpmath to
    1e-13 of its max-norm."""
    f = k2.validate_polynomial(W5_COEFFS)
    roots = list(f.roots)
    i0 = int(np.argmin([abs(r - 0) for r in roots]))
    i1 = int(np.argmin([abs(r - 1) for r in roots]))
    # numerators of (omega1, omega2, r1, r2), in the order the integrals
    # come back
    numerators = (lambda x: 1, lambda x: x, lambda x: 3 * x ** 3,
                  lambda x: x ** 2)
    integrals = segment_period_integrals(f, roots, [(i0, i1)])[0][0]
    with mpmath.workdps(30):
        for num, got in zip(numerators, integrals):
            got = complex(got)
            ref = mpmath.quad(
                lambda x: num(x) / mpmath.sqrt(4 * x - 4 * x ** 5), [0, 1])
            # the tracked sheet fixes an overall sign; compare moduli and
            # pure-imaginariness separately
            assert abs(abs(got) - abs(complex(ref))) < 1e-10
            assert abs(got.real) < 1e-10 * abs(got)
    for name, f, roots in _segment_curves():
        W, N, err = segment_period_integrals(f, roots, periods.LOOP_PAIRS)
        sheet = integration.segment_sheet(f, roots, periods.LOOP_PAIRS)
        ref = integration._chebyshev_sums(
            sheet, integration.all_numerators(f), np.arange(4), 4 * N)
        scale = np.abs(W).max(axis=1)
        assert np.all(np.abs(W - ref).max(axis=1) <= err), name
        assert np.all(err <= TOL * scale), name
        if name == "near_miss":
            assert N[2] > 10000
            got = np.abs(W[2] - _mp_segment(f, roots, 2)).max()
            assert got <= 1e-13 * scale[2]


def _mp_half_segment(f, e):
    """Reference: z_star's half-segment into f.roots[e] by mpmath at 30
    digits: twice the integral over v in [0, 1] of the even integrand
    -2 (s, 1) / (e c), s = (1 - v^2) / e, c = -sqrt(lead) prod_k
    sqrt(1 - r_k s) in principal roots, split at and around the real
    parts of the singularities +-sqrt(1 - e / r_k)."""
    with mpmath.workdps(30):
        rs = [mpmath.mpc(r) for r in f.roots]
        end = rs[e]
        others = [r for k, r in enumerate(rs) if k != e]
        feet = [abs(mpmath.re(mpmath.sqrt(1 - end / r)))
                for r in others if r != 0]
        split = sorted({float(t + d) for t in feet
                        for d in (0, -1e-3, 1e-3, -1e-1, 1e-1)})
        split = [0.0] + [t for t in split if 0 < t < 1] + [1.0]

        def h(v, k):
            s = (1 - v * v) / end
            c = -mpmath.sqrt(mpmath.mpc(f.leading))
            for r in others:
                c *= mpmath.sqrt(1 - r * s)
            return -2 * (s, 1)[k] / (end * c)

        return np.array([complex(2 * mpmath.quad(lambda v: h(v, k), split))
                         for k in range(2)])


def _half_segment_curves():
    """(name, f): x^6 - 1, the near miss, the two two-pair curves of the
    panel and its sextic s {0, 1, 2i, -1+i, 3, -2-i} at s = 0.01 and 100,
    whose root 0 has no half-segment."""
    curves = [("g6", G6_COEFFS), ("near_miss", np.poly(NEAR_MISS_ROOTS)[::-1]),
              ("two_pairs_i", PANEL_CURVES["two_pairs_i"]),
              ("two_pairs_r", PANEL_CURVES["two_pairs_r"]),
              ("deg6_s0.01", PANEL_CURVES["deg6_s0.01"]),
              ("deg6_s100", PANEL_CURVES["deg6_s100"])]
    return [(name, k2.validate_polynomial(list(c))) for name, c in curves]


@pytest.mark.parametrize("name, f", _half_segment_curves(),
                         ids=[name for name, _ in _half_segment_curves()])
def test_half_segment_matches_mpmath_oracle(name, f):
    """z_star's half-segment into z_star_root(f), never the root at 0,
    matches a 30-digit mpmath quadrature to 1e-13 of its max-norm; the
    sum at twice its nodes lies within its stated a priori bound, which
    is at most TOL of that max-norm, plus the rounding of the two sums,
    1e-15 of it.  Handed the root with the narrowest ellipse wider than
    1.001, the sum takes more nodes (as many on x^6 - 1, whose roots tie)
    and still matches mpmath; both are z_star, so they agree modulo the
    lattice.  (On the two-pair curves that root is one of the pair {3,
    3 + 1e-4}, at 1.004, which takes 6270 nodes; a thinner one raises,
    test_half_segment_refuses_an_end_it_cannot_take.)"""
    widths = _half_segment_widths(f.roots)
    narrow = min((k for k, w in enumerate(widths) if w > 1.001),
                 key=lambda k: widths[k])
    e = integration.z_star_root(f)
    assert f.roots[e] != 0
    got = {}
    for k in (e, narrow):
        z, N, err = integration.half_segment_integrals(f, k)
        ref = _mp_half_segment(f, k)
        size = np.max(np.abs(ref))
        assert np.max(np.abs(z - ref)) <= 1e-13 * size, (name, k)
        twice = integration._half_segment_sum(f, k, 2 * N)
        assert np.max(np.abs(z - twice)) <= err + 1e-15 * size, (name, k)
        assert err <= TOL * size, (name, k)
        got[k] = z, N
    (z, N), (z_narrow, N_narrow) = got[e], got[narrow]
    if widths[narrow] < (1 - 1e-12) * widths[e]:
        assert N_narrow > N
    else:
        assert N_narrow == N
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        pd = k2.compute_period_data(f)
    assert np.array_equal(pd.z_star, z)
    assert (k2.nearest_lattice_residual(pd, z_narrow - z)
            <= 1e-8 * np.max(np.abs(z)))


def test_half_segment_refuses_an_end_it_cannot_take():
    """On the panel sextic {0, 1, 2i, -1+i, 3, -2-i} the root 0 has no
    half-segment (s = 1/0), and the one into 1 passes through s = 1/3,
    where the factor 1 - 3 s vanishes: the first raises ValueError, the
    second QuadratureError naming the half-segment, since no node count
    reaches the singularity on it.  On the two-pair curve {0, 1e-4, 2i,
    -1+i, 3, 3 + 1e-4i} the half-segment into 1e-4 passes within rounding
    of s = 1/3 (its ellipse is 1 + 1e-14 wide) and raises as well."""
    def index(f, x):
        return integration.nearest_branch_point(f.roots, x)

    f = k2.validate_polynomial(list(PANEL_CURVES["deg6_s1"]))
    with pytest.raises(ValueError, match="at 0"):
        integration.half_segment_integrals(f, index(f, 0))
    with pytest.raises(k2.QuadratureError,
                       match="half-segment.*more than 8192"):
        integration.half_segment_integrals(f, index(f, 1))
    f = k2.validate_polynomial(list(PANEL_CURVES["two_pairs_i"]))
    with pytest.raises(k2.QuadratureError,
                       match="half-segment.*more than 8192"):
        integration.half_segment_integrals(f, index(f, 1e-4))


@pytest.mark.parametrize("n", [2, 24, 400])
def test_legendre_nodes_integrate_polynomials_exactly(n):
    """The cached n-point Gauss-Legendre rule, over its positive nodes
    with doubled weights, integrates v^(2k) over [-1, 1] for every 2k <
    2n to 1e-14, and its arrays are read-only."""
    d, w = integration._legendre_nodes(n)
    assert len(d) == n // 2 and not d.flags.writeable
    assert not w.flags.writeable
    k = np.arange(n)[:, None]
    assert np.max(np.abs((1 - d) ** k @ w - 2 / (2 * k[:, 0] + 1))) <= 1e-14


def test_second_kind_numerators_convention():
    """r1, r2 carry the fixed quartic/cubic numerators divided by 4."""
    from kleinian2.integration import second_kind_numerators
    f = k2.validate_polynomial(G6_COEFFS)
    n1, n2 = second_kind_numerators(f)
    rng = np.random.default_rng(31)
    c = f.coeffs
    for _ in range(10):
        x = complex(rng.normal(), rng.normal())
        want1 = (c[3] * x + 2 * c[4] * x ** 2 + 3 * c[5] * x ** 3
                 + 4 * c[6] * x ** 4) / 4
        want2 = (c[5] * x ** 2 + 2 * c[6] * x ** 3) / 4
        assert abs(n1(x) - want1) < 1e-13 * max(1.0, abs(want1))
        assert abs(n2(x) - want2) < 1e-13 * max(1.0, abs(want2))


# -- certificates ---------------------------------------------------------------

def test_riemann_matrix_certified(any_ctx):
    pd = any_ctx.pd
    Omega = pd.Omega
    assert np.max(np.abs(Omega - Omega.T)) < 1e-9
    assert np.min(np.linalg.eigvalsh(Omega.imag)) > 0
    assert np.allclose(pd.A @ Omega, pd.B, rtol=0, atol=1e-12 * np.max(np.abs(pd.B)))


def test_legendre_certificates(any_ctx):
    pd = any_ctx.pd
    eye = 2j * np.pi * np.eye(2)
    assert np.max(np.abs(pd.etaA.T @ pd.B - pd.A.T @ pd.etaB - eye)) < 1e-8
    assert np.max(np.abs(pd.B @ pd.etaA.T - pd.A @ pd.etaB.T - eye)) < 1e-8
    for M in (pd.etaA @ pd.etaB.T, pd.etaA.T @ pd.A, pd.etaB.T @ pd.B):
        assert np.max(np.abs(M - M.T)) < 1e-8


def test_eta_integrality(any_ctx):
    pd = any_ctx.pd
    rng = np.random.default_rng(32)
    for _ in range(20):
        mv = rng.integers(-2, 3, 4)
        mw = rng.integers(-2, 3, 4)
        v, w = periods.lattice_vector(pd, mv), periods.lattice_vector(pd, mw)
        ev, ew = periods.eta_of_lattice(pd, mv), periods.eta_of_lattice(pd, mw)
        q = (ew @ v - ev @ w) / (2j * np.pi)
        assert abs(q - round(q.real)) < 1e-8


def test_period_data_is_frozen(w5_ctx, g6_ctx):
    """Every array field is read-only, on computed and JSON-loaded period
    data alike."""
    loaded = ser.period_data_from_json(ser.period_data_to_json(g6_ctx.pd))
    for pd in (w5_ctx.pd, g6_ctx.pd, loaded):
        for name in ("A", "B", "etaA", "etaB", "Omega", "Delta",
                     "transform", "z_star"):
            arr = getattr(pd, name)
            if arr is None:
                continue
            with pytest.raises(ValueError):
                arr.flat[0] = 0


# -- lattice arithmetic ---------------------------------------------------------

def _lattice_tol(pd):
    """1e-8 relative to the norm of the real generator matrix of A, B."""
    return 1e-8 * max(1.0, float(np.linalg.norm(np.hstack([pd.A, pd.B]))))


def test_nearest_lattice_residual(any_ctx):
    pd = any_ctx.pd
    rng = np.random.default_rng(34)
    for _ in range(10):
        w = periods.lattice_vector(pd, rng.integers(-2, 3, 4))
        assert k2.nearest_lattice_residual(pd, w) < 1e-10
        off = k2.nearest_lattice_residual(pd, w + 0.3 * pd.A[:, 0])
        assert off > _lattice_tol(pd)


def test_residual_of_a_displaced_lattice_point_is_the_displacement(any_ctx):
    """For small delta, the distance from lattice_vector(pd, k) + delta to
    the lattice is |delta|: for one point, and for a batch of rows k of
    shape (N, 4), whose lattice vectors are those of the rows alone (to
    rounding)."""
    pd = any_ctx.pd
    rng = np.random.default_rng(36)
    k = rng.integers(-3, 4, (12, 4))
    delta = 1e-3 * (rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2)))
    w = periods.lattice_vector(pd, k)
    assert w.shape == (12, 2)
    for ki, wi in zip(k, w):
        one = periods.lattice_vector(pd, ki)
        assert np.max(np.abs(one - wi)) <= 1e-14 * np.max(np.abs(wi))
    want = np.linalg.norm(delta, axis=1)
    got = k2.nearest_lattice_residual(pd, w + delta)
    assert np.all(np.abs(got - want) <= 1e-9 * want)
    one = k2.nearest_lattice_residual(pd, w[0] + delta[0])
    assert isinstance(one, float) and abs(one - want[0]) <= 1e-9 * want[0]


def test_ill_conditioned_periods_are_refused(monkeypatch, w5_ctx):
    """The conditioning of the period generators is part of the
    certificate: with COND_CAP below every condition number, neither a
    computed nor a loaded PeriodData is certified."""
    text = ser.period_data_to_json(w5_ctx.pd)
    monkeypatch.setattr(periods, "COND_CAP", 1.0)
    with pytest.raises(k2.RiemannMatrixError):
        k2.compute_period_data(w5_ctx.f)
    with pytest.raises(k2.RiemannMatrixError):
        ser.period_data_from_json(text)


def test_eta_is_additive(w5_ctx):
    pd = w5_ctx.pd
    rng = np.random.default_rng(35)
    for _ in range(10):
        a, b = rng.integers(-2, 3, 4), rng.integers(-2, 3, 4)
        lhs = periods.eta_of_lattice(pd, a + b)
        rhs = periods.eta_of_lattice(pd, a) + periods.eta_of_lattice(pd, b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


# -- symplectic frame ----------------------------------------------------------

def _loop_integrals(f, roots):
    """Row k: the integrals of (omega1, omega2, r1, r2) over loop k, twice
    those over its segment."""
    return 2.0 * segment_period_integrals(f, roots, periods.LOOP_PAIRS)[0]


def _loop_pairing(W):
    """(eta(g).omega(h) - omega(g).eta(h)) / (2 pi i) over the loop rows."""
    w, e = W[:, :2], -W[:, 2:]
    return (e @ w.T - w @ e.T) / (2j * np.pi)


def test_transform_takes_loop_pairing_to_standard_form(w5_ctx, g6_ctx):
    for ctx in (w5_ctx, g6_ctx):
        pd = ctx.pd
        W = _loop_integrals(ctx.f, pd.roots)
        T = pd.transform
        assert np.max(np.abs(T @ _loop_pairing(W) @ T.T - periods.J)) < 1e-8
    want = np.block([[np.zeros((2, 2)), np.eye(2)],
                     [-np.eye(2), np.zeros((2, 2))]])
    assert np.array_equal(periods.J, want.astype(int))


def test_period_data_rejects_root_on_segment(monkeypatch):
    """An ordering that joins i to -i straight through the root at 0 is
    refused by the segment rule's reach test, before any sum: the root's
    Bernstein ellipse is the segment itself (rho = 1), so no node count
    reaches the tolerance, and no log of its zero gap is taken."""
    sums = []
    summed = integration._chebyshev_sums

    def sum_counted(*args):
        sums.append(1)
        return summed(*args)

    monkeypatch.setattr(integration, "_chebyshev_sums", sum_counted)
    f = k2.validate_polynomial(W5_COEFFS)
    with pytest.raises(k2.QuadratureError, match="loop segment 1,"):
        k2.compute_period_data(f, ordering=(0, 3, 1, 4, 2))
    assert sums == []


def _searched_transform(f, ordering):
    """Oracle: the first of 16 variants of the constant frame (8 sign
    patterns with loop 0 fixed, each without and with the a/b swap) whose
    periods pass the certificate."""
    roots = list(f.roots)
    if ordering is not None:
        roots = [roots[k] for k in ordering]
    W = _loop_integrals(f, roots)
    for signs in itertools.product([1], [1, -1], [1, -1], [1, -1]):
        for swap in (False, True):
            T = periods._FRAME @ np.diag(signs)
            if swap:
                T = periods.J @ T
            P = T @ W
            _, r = periods._residuals(P[:2, :2].T, P[2:, :2].T,
                                      -P[:2, 2:].T, -P[2:, 2:].T)
            if periods._certified(r):
                return T
    return None


def _ring_roots(rng, n):
    """n roots near the unit circle, adjacent ones about 0.3 apart."""
    radii = 0.75 + 0.5 * rng.random(n)
    jitter = 0.3 * (2 * rng.random(n) - 1)
    angles = 2 * np.pi * (np.arange(n) + jitter) / n + 2 * np.pi * rng.random()
    return radii * np.exp(1j * angles)


def _ring_curve(rng, n, lead):
    return list(lead * np.poly(_ring_roots(rng, n))[::-1])


def _panel_curve(s, degree):
    """Roots s * {0, 1, 2i, -1+i, 3, -2-i}; degree 5 drops -2-i and has
    leading coefficient 4."""
    roots = s * np.array([0, 1, 2j, -1 + 1j, 3, -2 - 1j])
    if degree == 5:
        return list(4.0 * np.poly(roots[:5])[::-1]) + [0.0]
    return list(np.poly(roots)[::-1])


def _frame_curves():
    rng = np.random.default_rng(77)
    curves = [("w5", W5_COEFFS), ("g6", G6_COEFFS)]
    for k in range(2):
        curves.append((f"ring_wq{k}", _ring_curve(rng, 5, 4.0) + [0.0]))
        lead = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
        curves.append((f"ring_q{k}", _ring_curve(rng, 5, lead) + [0.0]))
        lead = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
        curves.append((f"ring_s{k}", _ring_curve(rng, 6, lead)))
    for s in (0.01, 100):
        for degree in (5, 6):
            curves.append((f"panel{degree}_s{s}", _panel_curve(s, degree)))
    return curves


FRAME_CURVES = _frame_curves()


@pytest.mark.filterwarnings("ignore:branch points far outside unit scale")
@pytest.mark.parametrize("coeffs", [c for _, c in FRAME_CURVES],
                         ids=[name for name, _ in FRAME_CURVES])
def test_transform_matches_orientation_search(coeffs):
    """The orientations read off the pairing are the ones the certificate
    search over all 16 variants accepts, in the canonical ordering and in
    both re-orderings basis_independence uses (where they build)."""
    f = k2.validate_polynomial(coeffs)
    n = f.degree
    built = 0
    for ordering in (None, (1, 0, 2, 4, 3) + ((5,) if n == 6 else ()),
                     tuple(range(n - 1, -1, -1))):
        try:
            pd = k2.compute_period_data(f, ordering=ordering)
        except (k2.QuadratureError, k2.RiemannMatrixError):
            assert ordering is not None
            continue
        assert np.array_equal(pd.transform, _searched_transform(f, ordering))
        built += 1
    assert built >= 2


@pytest.mark.parametrize("coeffs, counts", [
    (W5_COEFFS, {"built": 48, "QuadratureError": 72}),
    (G6_COEFFS, {"built": 240, "RiemannMatrixError": 480})],
    ids=["w5", "g6"])
def test_every_ordering_builds_the_searched_transform_or_is_refused(
        coeffs, counts):
    """Every branch ordering either builds, with the transform the
    certificate search accepts, or is refused by the evidence the build
    computes: a root on a loop segment by the segment rule's reach test
    (QuadratureError), and segments that cross by the certificate
    (RiemannMatrixError), for which no variant of the frame passes."""
    f = k2.validate_polynomial(coeffs)
    seen = {}
    for ordering in itertools.permutations(range(f.degree)):
        try:
            pd = k2.compute_period_data(f, ordering=ordering)
        except (k2.QuadratureError, k2.RiemannMatrixError) as exc:
            outcome = type(exc).__name__
            if outcome == "RiemannMatrixError":
                assert _searched_transform(f, ordering) is None
        else:
            outcome = "built"
            assert np.array_equal(pd.transform,
                                  _searched_transform(f, ordering))
        seen[outcome] = seen.get(outcome, 0) + 1
    assert seen == counts


def test_inconsistent_loop_orientation_raises(monkeypatch):
    """A second-kind part that contradicts the pairing of the first-kind
    part leaves no certified frame, and no period data is returned."""
    exact = periods.period_integrals

    def flipped(*args):
        W, samples, z_star = exact(*args)
        W[1, 2:] *= -1
        return W, samples, z_star

    monkeypatch.setattr(periods, "period_integrals", flipped)
    with pytest.raises(k2.RiemannMatrixError):
        k2.compute_period_data(k2.validate_polynomial(W5_COEFFS))


def test_scale_band_warning():
    f = k2.validate_polynomial([0, -4 * 30 ** 4, 0, 0, 0, 4])
    with pytest.warns(UserWarning):
        k2.compute_period_data(f)


# -- invariance under basis change ----------------------------------------------

@pytest.mark.parametrize("ordering", [(0, 0, 1, 2, 3, 4), (0, 1, 2, 3, 4),
                                      (0, 1, 2, 3, 4, 6)],
                         ids=["repeated", "short", "out_of_range"])
def test_ordering_must_permute_the_branch_points(ordering):
    f = k2.validate_polynomial(G6_COEFFS)
    with pytest.raises(ValueError, match=r"permutation of range\(6\)"):
        k2.compute_period_data(f, ordering=ordering)


def test_permuted_ordering_spans_same_lattice():
    f = k2.validate_polynomial(G6_COEFFS)
    pd = k2.compute_period_data(f)
    pd2 = k2.compute_period_data(f, ordering=(1, 0, 2, 4, 3, 5))
    cols = np.hstack([pd2.A, pd2.B])
    for k in range(4):
        assert k2.nearest_lattice_residual(pd, cols[:, k]) <= _lattice_tol(pd)
    cols = np.hstack([pd.A, pd.B])
    for k in range(4):
        assert (k2.nearest_lattice_residual(pd2, cols[:, k])
                <= _lattice_tol(pd2))


def test_z_star_invariant_mod_lattice():
    """The infinity-to-infinity integral depends on the path only through
    full cycles, so re-ordering the cut structure shifts it by a lattice
    vector."""
    f = k2.validate_polynomial(G6_COEFFS)
    pd = k2.compute_period_data(f)
    pd2 = k2.compute_period_data(f, ordering=(1, 0, 2, 4, 3, 5))
    assert pd.z_star is not None and pd2.z_star is not None
    assert k2.nearest_lattice_residual(pd, pd2.z_star - pd.z_star) < 1e-9


@pytest.mark.parametrize("coeffs", [G6_COEFFS, _ring_curve(
    np.random.default_rng(8), 6, 0.8 - 0.6j)], ids=["g6", "ring6"])
def test_z_star_continues_one_tail(coeffs, monkeypatch):
    """z_star, the half-segment into z_star_root(f) in the chart s = 1/x,
    matches modulo the lattice the route that continues a tail through a
    far point x_far: the tail in from label 2 to x_far, a sheet flip at
    x_far about its nearest root and the tail out to label 1, -T + I +
    T_out, with I twice the run from x_far into that root to 1e-14 of
    z_star's size, and with the flip loop (out, a full turn about the
    root, back) to 1e-13.  The Abel samples' tails are the build's one
    tail_integrals call, seeded at the principal root at the outermost
    sample."""
    f = k2.validate_polynomial(coeffs)
    roots = list(f.roots)
    scale = f.scale
    calls = []
    tail_integrals = integration.tail_integrals

    def recording(f, x_far, y_far):
        calls.append((list(x_far), list(y_far)))
        return tail_integrals(f, x_far, y_far)

    monkeypatch.setattr(integration, "tail_integrals", recording)
    _, z_star = _samples(f, roots)
    monkeypatch.undo()
    (tail_x, tail_y), = calls
    assert tail_x == list(periods.SAMPLE_RADII * scale
                          * np.exp(1j * integration.FAR_ARG))
    assert abs(tail_y[-1] - np.sqrt(f(tail_x[-1]))) <= 1e-15 * abs(tail_y[-1])
    pd = k2.compute_period_data(f)
    assert np.array_equal(pd.z_star, z_star)

    x_far = 12.0 * scale * np.exp(0.7310j)
    y_far = complex(np.sqrt(f(x_far)))
    T, landed_plus = integration.tail_integrals(f, [x_far], [y_far])
    if landed_plus[0]:
        y_far, T = -y_far, -T
    radii = integration.detour_radii(f)
    dive = integration.run_into_branch_point(roots, radii, x_far)
    for pieces, weight, rel in ((dive, 2.0, 1e-14),
                                (flip_loop_pieces(roots, radii, x_far), 1.0,
                                 1e-13)):
        _, y0, _ = integration._continue_runs(f, [pieces], [y_far])
        I = weight * integration.integrate_forms(
            f, pieces, y0, integration.holomorphic_numerators()
        ).sum(axis=0)
        T_out, landed_plus = integration.tail_integrals(f, [x_far], [-y_far])
        assert landed_plus[0]
        route = -T[0] + I + T_out[0]
        assert (k2.nearest_lattice_residual(pd, z_star - route)
                <= rel * np.max(np.abs(z_star)))


def _half_segment_widths(roots):
    """Reference: for each root e, the parameter of the Bernstein ellipse
    in v through the nearest singularity +-sqrt(1 - e/r_k) of z_star's
    half-segment into e, root by root in scalar arithmetic; 0 for a root
    at 0, which has no half-segment."""
    widths = []
    for e in roots:
        rho = [np.inf]
        for r in roots:
            if e == 0 or r in (0, e):
                continue
            tau = np.sqrt(1 - e / r)
            w = abs(tau + np.sqrt(tau - 1) * np.sqrt(tau + 1))
            rho.append(max(w, 1 / w))
        widths.append(0.0 if e == 0 else min(rho))
    return widths


@pytest.mark.filterwarnings("ignore:branch points far outside unit scale")
@pytest.mark.parametrize("coeffs", [c for _, c in FRAME_CURVES],
                         ids=[name for name, _ in FRAME_CURVES])
def test_one_quadrature_build_matches_separate_integrals(coeffs):
    """The loop segments, summed in one sheet call, against each summed
    alone at its own node count on the same sheet: the segment
    integrals, and so A, B, etaA and etaB, bit for bit.  On degree 6
    z_star is the half-segment's Gauss-Legendre sum into a root with the
    widest ellipse in v, never a root at 0, bit for bit.  The Abel
    samples, each its own tail summed as a series, match the ray through
    them integrated piece by piece out to the outermost sample, and that
    sample's tail, to 1e-15 relative."""
    f = k2.validate_polynomial(coeffs)
    roots = list(f.roots)
    scale = f.scale
    radii = periods.SAMPLE_RADII * scale
    W, J, z_star = integration.period_integrals(
        f, roots, periods.LOOP_PAIRS, radii)
    _, N, _ = segment_period_integrals(f, roots, periods.LOOP_PAIRS)
    sheet = integration.segment_sheet(f, roots, periods.LOOP_PAIRS)
    alone = [integration._chebyshev_sums(
        sheet, integration.all_numerators(f), np.array([p]), N[p:p + 1])
        for p in range(len(N))]
    assert np.array_equal(W, np.concatenate(alone))
    xs = radii * np.exp(1j * integration.FAR_ARG)
    y_out = complex(np.sqrt(f(xs[-1])))
    T, landed_plus = integration.tail_integrals(f, xs[-1:], [y_out])
    T = T[0]
    if f.degree == 6 and landed_plus[0]:
        y_out, T = -y_out, -T
    n = len(radii) - 1
    ray = np.stack([xs[:-1], np.diff(xs), np.zeros(n)], axis=1)
    _, y0, y_end = integration._continue_runs(f, [ray], [np.sqrt(f(xs[0]))])
    if abs(y_end[0] - y_out) > abs(y_end[0] + y_out):
        y0 = -y0
    I = integration.integrate_forms(f, ray, y0,
                                    integration.holomorphic_numerators())
    want = -T - np.vstack([np.cumsum(I[::-1], axis=0)[::-1], np.zeros(2)])
    assert np.max(np.abs(J - want)) <= 1e-15 * np.max(np.abs(want))
    if f.degree == 5:
        assert z_star is None
        return
    e = integration.z_star_root(f)
    widths = _half_segment_widths(roots)
    assert roots[e] != 0 and widths[e] >= (1 - 1e-12) * max(widths)
    z, N, _ = integration.half_segment_integrals(f, e)
    assert np.array_equal(z_star, z)
    assert np.array_equal(z, integration._half_segment_sum(f, e, N))


def test_a_build_makes_one_quadrature(monkeypatch):
    """A context build sums its loop segments in one Gauss-Chebyshev sheet
    call, and so does a re-ordered build; on degree 6 each sums z_star's
    half-segment by Gauss-Legendre once.  Neither takes a tanh-sinh
    quadrature or chains a sheet on either degree: no integrate_01 and
    no continue_sqrt call."""
    calls, sums, halves, chains = [], [], [], []
    quad, chain = integration.integrate_01, integration.continue_sqrt
    summed = integration._chebyshev_sums
    half = integration._half_segment_sum

    def counted(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    def chained(f, pieces, seeds):
        chains.append(pieces)
        return chain(f, pieces, seeds)

    def sum_counted(*args):
        sums.append(1)
        return summed(*args)

    def half_counted(*args):
        halves.append(1)
        return half(*args)

    monkeypatch.setattr(integration, "integrate_01", counted)
    monkeypatch.setattr(integration, "continue_sqrt", chained)
    monkeypatch.setattr(integration, "_chebyshev_sums", sum_counted)
    monkeypatch.setattr(integration, "_half_segment_sum", half_counted)
    for coeffs in (W5_COEFFS, G6_COEFFS):
        f = k2.validate_polynomial(coeffs)
        ctx = k2.make_context(f)
        assert len(sums) == 1 and len(halves) == f.degree - 5
        k2.compute_period_data(f, ordering=(1, 0, 2, 4, 3) + (
            (5,) if f.degree == 6 else ()))
        assert len(sums) == 2 and len(halves) == 2 * (f.degree - 5)
        assert calls == [] and chains == []
        sums.clear()
        halves.clear()


def test_a_build_checks_omega_once():
    """theta checks a Riemann matrix as it makes the matrix's term list,
    so a context build checks Omega once: it makes the lists of Omega
    and of 2 Omega, and a second context on the same data makes none.
    Omega is derived, never passed: a copy cannot be given one, and a
    file whose Omega is not A^-1 B is refused when it is loaded."""
    terms = k2.theta._terms
    terms.cache_clear()
    for coeffs in (W5_COEFFS, G6_COEFFS):
        f = k2.validate_polynomial(coeffs)
        misses = terms.cache_info().misses
        ctx = k2.make_context(f)
        assert terms.cache_info().misses == misses + 2
        k2.make_context(f, ctx.pd)
        assert terms.cache_info().misses == misses + 2
    with pytest.raises(ValueError, match="init=False"):
        replace(ctx.pd, Omega=2.0 * ctx.pd.Omega)
    with pytest.raises(k2.RiemannMatrixError):
        ser.period_data_from_json(
            _json_with(ctx.pd, Omega=2.0 * ctx.pd.Omega))


def _json_with(pd, **moved):
    """pd's JSON form with the arrays `moved` written in place of its own."""
    obj = ser.period_data_to_json(pd)
    obj.update({name: (ser.cmat if np.ndim(value) == 2 else ser.cvec)(value)
                for name, value in moved.items()})
    return obj


def _samples(f, roots):
    """(J, z_star): the Abel samples certifying Delta, and z_star."""
    return integration.period_integrals(
        f, roots, periods.LOOP_PAIRS, periods.SAMPLE_RADII * f.scale)[1:]


def _delta_row(pd):
    """The row of periods._BASE_CHARS that Delta takes: the index in the
    build's order of the branch point z_star's half-segment runs into, 5
    (infinity) on degree 5."""
    if pd.z_star is None:
        return 5
    return list(pd.roots).index(pd.f.roots[integration.z_star_root(pd.f)])


def _recompute_delta(f, pd):
    """Delta for existing period data, certificate included: the closed
    form the data derives when it is not given Delta, certified on
    freshly integrated samples."""
    samples, _ = _samples(f, list(pd.roots))
    return replace(pd, Delta=None, abel_samples=samples).Delta


def test_riemann_constant_recompute(any_ctx):
    """Recomputed Delta agrees with the stored one modulo Z^2 + Omega Z^2
    (possibly a different representative of the same divisor point)."""
    pd = any_ctx.pd
    D = _recompute_delta(any_ctx.f, pd)
    diff = D - pd.Delta
    M = np.zeros((4, 4))
    M[:2, :2] = np.eye(2)
    M[:2, 2:] = pd.Omega.real
    M[2:, 2:] = pd.Omega.imag
    c = np.linalg.solve(M, np.concatenate([diff.real, diff.imag]))
    assert np.max(np.abs(c - np.round(c))) < 1e-8


def _delta_shift(pd):
    """The non-half-period part of Delta: (1/2) A^{-1} z_star on degree 6."""
    return 0 if pd.z_star is None else 0.5 * np.linalg.solve(pd.A, pd.z_star)


def _is_half_period(pd, u):
    """Whether 2u lies in Z^2 + Omega Z^2, tested in z-space as A (2u)."""
    return k2.nearest_lattice_residual(pd, 2 * pd.A @ u) < 1e-8


def test_delta_is_shifted_half_period(any_ctx):
    """Degree 5: Delta is the odd half-period of delta_char.  Degree 6:
    Delta - (1/2) A^{-1} z_star is a half-period, and delta_char is None."""
    pd = any_ctx.pd
    if pd.delta_char is None:
        assert any_ctx.f.degree == 6
        assert _is_half_period(pd, pd.Delta - _delta_shift(pd))
        return
    n0, m0 = pd.delta_char
    assert (int(n0[0]) * int(m0[0]) + int(n0[1]) * int(m0[1])) % 2 == 1
    want = 0.5 * (np.asarray(n0) + pd.Omega @ np.asarray(m0))
    assert np.max(np.abs(want - pd.Delta)) < 1e-12


# A sextic with no symmetry on which a numerical search for Delta (Newton
# from half-period seeds) converged nowhere; with leading coefficient 1 the
# same roots were easy, so the coefficient is part of the case.
HARD_SEXTIC_ROOTS = (-1.059 - 0.498j, -0.947 + 0.419j, -0.272 - 0.789j,
                     0.352 + 1.108j, 0.999 - 0.52j, 1.145 + 0.206j)
HARD_SEXTIC_LEAD = -0.593 + 0.184j


def test_hard_sextic_delta_in_closed_form():
    coeffs = HARD_SEXTIC_LEAD * np.poly(HARD_SEXTIC_ROOTS)[::-1]
    pd = k2.compute_period_data(k2.validate_polynomial(list(coeffs)))
    assert pd.delta_char is None
    assert _is_half_period(pd, pd.Delta - _delta_shift(pd))


def test_inconsistent_z_star_has_no_certified_delta(g6_ctx):
    """A z_star off by a non-period: a copy of the data with it is
    refused when it is made, since 2 Delta - A^-1 z_star is then no
    lattice point, and the Delta it derives lies off the theta divisor,
    so the certificate on the Abel samples fails."""
    pd = g6_ctx.pd
    z_star = pd.z_star + 0.1 * (pd.A[:, 0] + pd.B[:, 1])
    with pytest.raises(k2.RiemannMatrixError, match="Delta"):
        replace(pd, z_star=z_star)
    with pytest.raises(k2.NormalizationError, match="does not vanish"):
        replace(pd, z_star=z_star, Delta=None)


def _moved(pd, name):
    """pd's field `name` with its first and last rows (or entries) moved
    by 1e-3."""
    value = np.array(getattr(pd, name))
    value[0] += 1e-3
    value[-1] += 1e-3
    return value


@pytest.mark.parametrize("name", ["B", "Omega", "z_star", "Delta"])
def test_period_data_is_certified_when_made(w5_ctx, g6_ctx, name):
    """PeriodData(...) and a dataclasses.replace copy both run the
    certificate: a moved B fails the Riemann-matrix and Legendre
    residuals, a moved z_star or Delta the lattice form of Delta, and
    each raises RiemannMatrixError.  Omega is derived, so a moved one
    can only come from a file, whose load raises it."""
    for ctx in (w5_ctx, g6_ctx):
        pd = ctx.pd
        if getattr(pd, name) is None:
            continue
        bad = _moved(pd, name)
        if name == "Omega":
            with pytest.raises(k2.RiemannMatrixError):
                ser.period_data_from_json(_json_with(pd, Omega=bad))
            continue
        with pytest.raises(k2.RiemannMatrixError):
            k2.PeriodData(**{**_given(pd), name: bad})
        with pytest.raises(k2.RiemannMatrixError):
            replace(pd, **{name: bad})


def _given(pd):
    """The fields pd was made from, by name."""
    return {spec.name: getattr(pd, spec.name)
            for spec in fields(pd) if spec.init}


def test_period_data_derives_omega_delta_and_its_characteristic(any_ctx):
    """Omega and delta_char are derived, not passed, and the scale is the
    curve's: the data made from the integrals alone holds the build's
    Omega, Delta and delta_char, and a copy given Delta back reads the
    same."""
    pd = any_ctx.pd
    given = _given(pd)
    assert {"Omega", "delta_char", "scale"}.isdisjoint(given)
    for made in (k2.PeriodData(**{**given, "Delta": None}),
                 k2.PeriodData(**given)):
        assert np.array_equal(made.Omega, pd.Omega)
        assert np.array_equal(made.Delta, pd.Delta)
        assert made.delta_char == pd.delta_char
        assert not made.Omega.flags.writeable


def test_omega_is_stored_symmetric(any_ctx):
    """The data holds one Riemann matrix, exactly symmetric, whether made
    by a build, a JSON load or a dataclasses.replace copy: (A^-1 B +
    (A^-1 B)^T) / 2, which every theta call takes as it is."""
    pd = any_ctx.pd
    raw = np.linalg.solve(pd.A, pd.B)
    for made in (pd, ser.period_data_from_json(ser.period_data_to_json(pd)),
                 replace(pd)):
        assert np.array_equal(made.Omega, made.Omega.T)
        assert np.array_equal(made.Omega, 0.5 * (raw + raw.T))


def test_a_file_holding_the_unsymmetrized_omega_loads(w5_ctx, g6_ctx):
    """A periods file whose Omega is the raw solve A^-1 B, as files were
    once written, loads, and the loaded data holds the symmetric Omega;
    on at least one reference curve the solve is asymmetric in its last
    bits."""
    asymmetric = []
    for pd in (w5_ctx.pd, g6_ctx.pd):
        raw = np.linalg.solve(pd.A, pd.B)
        asymmetric.append(not np.array_equal(raw, raw.T))
        loaded = ser.period_data_from_json(_json_with(pd, Omega=raw))
        assert np.array_equal(loaded.Omega, pd.Omega)
        assert np.array_equal(loaded.Delta, pd.Delta)
    assert any(asymmetric)


def test_singular_a_periods_raise_riemann_matrix_error(any_ctx):
    """Data with a rank-1 A is refused as failing the certificate, not
    left to raise LinAlgError from a solve."""
    pd = any_ctx.pd
    with pytest.raises(k2.RiemannMatrixError):
        k2.PeriodData(**{**_given(pd), "A": pd.A * [1.0, 0.0]})
    with pytest.raises(k2.RiemannMatrixError):
        k2.PeriodData(**{**_given(pd), "A": pd.A * [1.0, 0.0],
                         "Delta": None})


def test_delta_of_degree_5_must_be_an_odd_half_period(w5_ctx):
    """On degree 5 a Delta passed in must be an odd half-period: moved by
    (1/2, 0) it is an even one, and refused.  A shift by a period keeps
    the parity: the suite's shifted copy is certified, and its
    characteristic is the old one plus twice the shift."""
    pd = w5_ctx.pd
    with pytest.raises(k2.RiemannMatrixError, match="odd"):
        replace(pd, Delta=pd.Delta + [0.5, 0.0])
    n, m = np.array([1, -2]), np.array([-1, 1])
    shifted = replace(pd, Delta=pd.Delta + (n + pd.Omega @ m),
                      abel_samples=None)
    n0, m0 = pd.delta_char
    assert shifted.delta_char == (tuple(n0 + 2 * n), tuple(m0 + 2 * m))


def test_a_file_whose_delta_char_is_not_its_deltas_is_refused(w5_ctx):
    """A degree-5 file whose Delta was shifted by a period but whose
    delta_char was not: both are odd, but delta_char is not Delta's, and
    the load raises RiemannMatrixError.  With delta_char shifted too the
    file loads."""
    pd = w5_ctx.pd
    n, m = np.array([1, 0]), np.array([0, 1])
    obj = _json_with(pd, Delta=pd.Delta + (n + pd.Omega @ m))
    with pytest.raises(k2.RiemannMatrixError, match="delta_char"):
        ser.period_data_from_json(obj)
    n0, m0 = pd.delta_char
    obj["delta_char"] = [[int(t) for t in n0 + 2 * n],
                         [int(t) for t in m0 + 2 * m]]
    assert ser.period_data_from_json(obj).delta_char == tuple(
        map(tuple, obj["delta_char"]))


def _counted(monkeypatch, module, name, keep=lambda *args: True):
    """Replace module.name by a wrapper that records the arguments of each
    call for which keep(*args) holds; returns the record."""
    calls = []
    call = getattr(module, name)

    def counted(*args, **kwargs):
        if keep(*args):
            calls.append(args)
        return call(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("coeffs", [W5_COEFFS, G6_COEFFS], ids=["w5", "g6"])
def test_a_build_solves_with_a_once_per_need(monkeypatch, coeffs):
    """A build solves with A for Omega, for A^-1 z_star on degree 6 and
    for the Abel samples' images: 2 solves on degree 5, 3 on degree 6,
    and no lattice reduction in periods (theta_jet's own does not
    count), since the closed-form Delta has its lattice form by
    construction.  A copy given Delta reduces it once."""
    f = k2.validate_polynomial(coeffs)
    A = k2.compute_period_data(f).A
    solves = _counted(monkeypatch, np.linalg, "solve",
                      lambda a, b: np.array_equal(a, A))
    reductions = _counted(monkeypatch, periods, "lattice_reduce")
    pd = k2.compute_period_data(f)
    assert (len(solves), len(reductions)) == (f.degree - 3, 0)
    solves.clear()
    replace(pd, Delta=pd.Delta + (pd.Omega @ [1, 0]), abel_samples=None)
    assert (len(solves), len(reductions)) == (f.degree - 4, 1)


def test_abel_samples_off_the_theta_divisor_are_refused(w5_ctx, g6_ctx):
    """Given Abel samples, the data certifies Delta on them: samples moved
    by a non-period leave theta(u - Delta) nonzero, and the copy raises
    NormalizationError; the same copy without samples is certified."""
    for ctx in (w5_ctx, g6_ctx):
        pd = ctx.pd
        moved = pd.abel_samples + 0.1 * pd.A[:, 0]
        with pytest.raises(k2.NormalizationError, match="does not vanish"):
            replace(pd, abel_samples=moved)
        assert replace(pd, abel_samples=None).abel_samples is None


def test_residuals_are_those_the_data_was_certified_on(any_ctx):
    """pd.residuals recomputes the residuals the data passed when made."""
    pd = any_ctx.pd
    assert pd.residuals == periods._residuals(pd.A, pd.B, pd.etaA,
                                              pd.etaB)[1]
    assert periods._certified(pd.residuals)


def test_base_chars_are_the_six_odd_characteristics():
    odd = [k for k in itertools.product((0, 1), repeat=4)
           if (k[0] * k[2] + k[1] * k[3]) % 2]
    assert sorted(periods._BASE_CHARS) == odd


# -- the closed-form Delta against the per-candidate loop ---------------------

def theta(Omega, z):
    s, V = theta_jet(Omega, z, 0)
    return np.exp(s) * V[0, 0]


def _delta_by_candidate_loop(f, pd):
    """Reference: the certificate candidate by candidate, one scalar theta
    call per candidate and sample, each candidate dropped at its first
    failing sample.  Returns every passing (Delta, (n0, m0))."""
    us = np.linalg.solve(pd.A,
                         _samples(f, list(pd.roots))[0].T).T
    theta_ref = max(abs(theta(pd.Omega, np.zeros(2))),
                    max(abs(theta(pd.Omega, u)) for u in us))
    shift = (0.0 if pd.z_star is None
             else 0.5 * np.linalg.solve(pd.A, pd.z_star))
    hits = []
    for n0 in itertools.product((0, 1), (0, 1)):
        for m0 in itertools.product((0, 1), (0, 1)):
            D = periods._half_period(pd.Omega, n0 + m0) + shift
            if all(abs(theta(pd.Omega, u - D)) < 1e-8 * theta_ref
                   for u in us):
                hits.append((D, (n0, m0)))
    return hits


def _delta_curves():
    rng = np.random.default_rng(2024)
    curves = [("w5", W5_COEFFS), ("g6", G6_COEFFS),
              ("hard_sextic",
               list(HARD_SEXTIC_LEAD * np.poly(HARD_SEXTIC_ROOTS)[::-1]))]
    for k in range(10):
        n = 5 + k % 2
        lead = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
        coeffs = _ring_curve(rng, n, lead)
        curves.append((f"ring{n}_{k}", coeffs + [0.0] * (n == 5)))
    return curves


def _far_root_cases():
    """(name, coeffs, ordering): unit-ring sextics with their top root
    moved to x0 + 4i (1 + U), where its ellipse in v is the widest, so
    that z_star's half-segment runs into it, each in the default
    ordering and the two basis_independence tries.  At x0 = 0.05 the
    moved root sorts between ring roots and lands at index 2, 3 or 4;
    at x0 = -1.3 it sorts first and lands at 0, 1 and 5."""
    rng = np.random.default_rng(23)
    orderings = {"default": None, "swap": (1, 0, 2, 4, 3, 5),
                 "reverse": (5, 4, 3, 2, 1, 0)}
    cases = []
    for k in range(4):
        roots = _ring_roots(rng, 6)
        roots[np.argmax(roots.imag)] = ((0.05, -1.3)[k % 2]
                                        + 4j * (1 + rng.random()))
        lead = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
        coeffs = list(lead * np.poly(roots)[::-1])
        cases += [(f"far_root{k}_{name}", coeffs, ordering)
                  for name, ordering in orderings.items()]
    return cases


DELTA_CASES = ([(name, coeffs, None) for name, coeffs in _delta_curves()]
               + _far_root_cases())


@pytest.mark.parametrize("coeffs, ordering",
                         [case[1:] for case in DELTA_CASES],
                         ids=[case[0] for case in DELTA_CASES])
def test_batched_delta_certificate_matches_candidate_loop(coeffs, ordering,
                                                          monkeypatch):
    """One theta call certifies the closed-form Delta, and it, with its
    characteristic, is the one candidate the loop over the 16 passes."""
    f = k2.validate_polynomial(coeffs)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return theta_jet(*args, **kwargs)

    monkeypatch.setattr(periods, "theta_jet", counting)
    pd = k2.compute_period_data(f, ordering=ordering)
    monkeypatch.undo()
    assert len(calls) == 1
    assert len(calls[0][1]) == 2 * periods.ABEL_SAMPLES + 1
    hits = _delta_by_candidate_loop(f, pd)
    assert len(hits) == 1
    D, char = hits[0]
    assert np.array_equal(D, pd.Delta)
    assert pd.delta_char == (char if f.degree == 5 else None)
    assert char == tuple(map(tuple, np.reshape(
        periods._BASE_CHARS[_delta_row(pd)], (2, 2))))


def test_delta_sextics_take_every_row_of_the_base_chars():
    """z_star's half-segments on the sextics of DELTA_CASES alone run into
    a branch point at every index of the ordering, so each row is checked
    against the loop."""
    fs = [(k2.validate_polynomial(coeffs), ordering)
          for _, coeffs, ordering in DELTA_CASES]
    rows = {_delta_row(k2.compute_period_data(f, ordering=ordering))
            for f, ordering in fs if f.degree == 6}
    assert rows == set(range(6))
