"""The Abel map of an affine point as one Gauss-Legendre half-segment from
a branch point: the sums against a 30-digit mpmath oracle, the node
ladder, the branch points' own images against their closed form, and
points on and next to a branch point."""

import importlib
from pathlib import Path
import sys
import warnings

import mpmath
import numpy as np
import pytest

import kleinian2 as k2
from kleinian2 import integration, periods
from kleinian2.curve import involution
from kleinian2.quadrature import TOL

from conftest import G6_COEFFS, W5_COEFFS, sample_divisor
from test_panel import TWO_PAIRS_I, TWO_PAIRS_R

ROOT = Path(__file__).resolve().parents[1]
# the generic sextic G
G_ROOTS = [0.3 + 0.1j, -0.7 + 0.2j, 0.1 - 0.9j, 0.8 + 0.6j, -0.4 - 0.5j,
           1.1 - 0.2j]


def _curve(coeffs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return k2.validate_polynomial(list(coeffs))


ORACLE_CURVES = {"g6": G6_COEFFS, "w5": W5_COEFFS,
                 "G": np.poly(G_ROOTS)[::-1],
                 "two_pairs_i": np.poly(TWO_PAIRS_I)[::-1],
                 "two_pairs_r": np.poly(TWO_PAIRS_R)[::-1]}


def _sheet_y(f, x):
    """y at x formed from the roots, as the half-segments form it."""
    return np.sqrt(f.leading * np.prod(np.subtract.outer(x, f.roots), axis=-1))


def _mp_half_segment(f, e, x, y):
    """Reference: the integrals of (dx/y, x dx/y) from f.roots[e] to (x,
    y) by mpmath at 30 digits: twice the integral over v in [0, 1] of
    h (1, x) / (y prod_k sqrt(1 - q_k (1 - v^2))), h = x - e, q_k = h /
    (x - r_k), in principal roots, split at and around the real parts of
    the singularities +-sqrt((r_k - e) / h)."""
    with mpmath.workdps(30):
        rs = [mpmath.mpc(r) for r in f.roots]
        end, X, Y = rs[e], mpmath.mpc(x), mpmath.mpc(y)
        h = X - end
        others = [r for k, r in enumerate(rs) if k != e]
        q = [h / (X - r) for r in others]
        feet = [abs(mpmath.re(mpmath.sqrt((r - end) / h))) for r in others]
        split = sorted({float(t + d) for t in feet
                        for d in (0, -1e-3, 1e-3, -1e-1, 1e-1)})
        split = [0.0] + [t for t in split if 0 < t < 1] + [1.0]

        def g(v, k):
            d = 1 - v * v
            c = Y
            for qk in q:
                c *= mpmath.sqrt(1 - qk * d)
            return h * (1, X - h * d)[k] / c

        return np.array([complex(2 * mpmath.quad(lambda v: g(v, k), split))
                         for k in range(2)])


def _oracle_points(f, rng):
    """The three points of 200 in the annulus 0.3 to 1.5 times f.scale
    whose half-segments have the narrowest ellipses, and two points 1e-7
    times f.scale off a root, one just inside the snap to it and one just
    beyond."""
    x = f.scale * rng.uniform(0.3, 1.5, 200) * np.exp(
        2j * np.pi * rng.uniform(size=200))
    x = x[np.min(np.abs(np.subtract.outer(x, f.roots)), axis=1)
          > 0.05 * f.scale]
    frames = integration._branch_frames(f)
    rho = integration._abel_ends(f, frames[2], x[:, None] - frames[0])[1]
    rho = rho.min(axis=1)
    r = f.roots[1]
    near = r + f.scale * np.array([0.9e-7, 1.1e-7]) * np.exp(0.7j)
    return np.concatenate([x[np.argsort(rho)[:3]], near])


@pytest.mark.parametrize("name", list(ORACLE_CURVES))
def test_half_segments_match_mpmath_oracle(name):
    """Every point's half-segment from its branch point matches a 30-digit
    mpmath quadrature to 1e-13 of its max-norm; the sum at twice its nodes
    lies within its stated a priori bound, plus the rounding of the two
    sums, and that bound is at most TOL of the max-norm.  The points are
    those with the narrowest ellipses of 200 in the annulus (rho down to
    about 1.1 on the two-pair curves) and two 1e-7 times the scale off a
    root, which take that root."""
    f = _curve(ORACLE_CURVES[name])
    x = _oracle_points(f, np.random.default_rng(7))
    y = _sheet_y(f, x) * np.array([1, -1, 1, -1, 1])
    e, I, N, err = integration.abel_half_segments(f, x, y)
    assert np.all(e[3:] == 1)
    h = x - np.array(f.roots)[e]
    others = integration._branch_frames(f)[1][e]
    twice = integration._abel_sums(x, y, h, others, 2 * N)
    for k in range(len(x)):
        ref = _mp_half_segment(f, e[k], x[k], y[k])
        size = np.max(np.abs(ref))
        assert np.max(np.abs(I[k] - ref)) <= 1e-13 * size, (name, k)
        assert np.max(np.abs(I[k] - twice[k])) <= err[k] + 1e-15 * size
        assert err[k] <= TOL * size, (name, k)
        assert N[k] in integration.LEGENDRE_LADDER


def test_a_second_pass_makes_no_new_rule():
    """On the benchmark's seed-1 abel_invert divisors the node counts
    fall on LEGENDRE_LADDER, so the rules a first pass makes serve the
    second: no _legendre_nodes cache miss."""
    # the benchmark's modules leave sys.modules afterwards: Hypothesis
    # draws examples with the constants of the local modules loaded
    loaded = set(sys.modules)
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "bench"))
        for name in set(sys.modules) - loaded:
            if name in ("workloads", "checks"):
                del sys.modules[name]

    class Timer:
        def time(self, fn):
            return type("Sample", (), {"value": fn()})

    # the benchmark seeds abel_invert, the third workload, by [seed, 2]
    ops = workloads.setup_abel_invert(k2, np.random.default_rng([1, 2]),
                                      Timer())
    pairs = [op.run.__defaults__ for op in ops]
    for ctx, D in pairs:
        k2.abel_forward(ctx, D)
    misses = integration._legendre_nodes.cache_info().misses
    for ctx, D in pairs:
        k2.abel_forward(ctx, D)
    assert integration._legendre_nodes.cache_info().misses == misses


def _closed_form(ctx, j):
    """A(e), e = f.roots[j], modulo the lattice, in the closed form of the
    characteristics: on degree 5 the half-period of char(e) + char(inf),
    on degree 6 (1/2) z_star plus the half-period of char(e) +
    char(z_star_root)."""
    pd = ctx.pd

    def char(r):
        return np.array(periods._BASE_CHARS[
            integration.nearest_branch_point(pd.roots, r)])

    if ctx.f.degree == 5:
        k, shift = (char(ctx.f.roots[j]) + periods._BASE_CHARS[5]) % 2, 0
    else:
        dive = ctx.f.roots[integration.z_star_root(ctx.f)]
        k, shift = (char(ctx.f.roots[j]) + char(dive)) % 2, 0.5 * pd.z_star
    return pd.A @ periods._half_period(pd.Omega, k) + shift


def test_branch_points_map_to_their_closed_form(any_ctx):
    """(e, 0) at each root e maps to A(e) = ctx.branch_abel's row, and
    that is the closed form of the characteristics, modulo the lattice:
    (P) + (Q) to A(Q) - A(e), (Q) + (P) to A(e) - A(iQ), and (P) +
    (inf_1) to A(inf_1) - A(e).  Each agrees, modulo the lattice, with the
    image of the divisor whose P lies 1e-12 off e, to the size of that
    point's half-segment, 4e-6.  A(Q) is read off (inf_2) + (Q)."""
    ctx, f = any_ctx, any_ctx.f
    Q = sample_divisor(ctx, np.random.default_rng(11)).q
    inf1, inf2 = k2.CurvePoint.at_infinity(1), k2.CurvePoint.at_infinity(2)
    z_inf1 = 0 if f.degree == 5 else ctx.pd.z_star
    for j, r in enumerate(f.roots):
        A_e = _closed_form(ctx, j)
        assert k2.nearest_lattice_residual(
            ctx.pd, ctx.branch_abel[j] - A_e) <= 1e-13 * max(
                1.0, np.max(np.abs(A_e)))
        P = k2.CurvePoint.affine(r, 0)
        x = r + 1e-12 * f.scale * np.exp(0.3j)
        near = k2.CurvePoint.affine(x, _sheet_y(f, x))
        A_Q = k2.abel_forward(ctx, k2.Divisor(inf2, Q)) + z_inf1
        for D, want in ((k2.Divisor(P, Q), A_Q - A_e),
                        (k2.Divisor(Q, P), A_e + A_Q - z_inf1),
                        (k2.Divisor(P, inf1), z_inf1 - A_e)):
            z = k2.abel_forward(ctx, D)
            scale = max(1.0, np.max(np.abs(z)))
            assert k2.nearest_lattice_residual(ctx.pd, z - want) <= (
                1e-12 * scale), (j, D)
            moved = k2.Divisor(*(near if R is P else R for R in (D.p, D.q)))
            assert k2.nearest_lattice_residual(
                ctx.pd, k2.abel_forward(ctx, moved) - z) <= 4e-6 * scale


def test_a_wrong_y_at_a_branch_point_raises(any_ctx):
    """y = 0 is the one value at a branch point; any other raises
    SheetTrackingError, as a wrong y does anywhere."""
    ctx = any_ctx
    r = ctx.f.roots[2]
    Q = sample_divisor(ctx, np.random.default_rng(12)).q
    for y in (1e-3, 1.0):
        with pytest.raises(k2.SheetTrackingError):
            k2.abel_forward(ctx, k2.Divisor(Q, k2.CurvePoint.affine(r, y)))
    with pytest.raises(k2.SheetTrackingError):
        k2.abel_forward(ctx, k2.Divisor(Q, k2.CurvePoint.affine(
            Q.x, 2 * Q.y)))


def test_every_branch_point_gives_the_same_image(any_ctx):
    """A(P) = A(e) + the half-segment from e to P is the same, modulo the
    lattice, from every branch point e whose half-segment keeps clear of
    the other roots, to 1e-13: the branch points' images are consistent
    with one another and with the half-segments."""
    ctx, f = any_ctx, any_ctx.f
    r = np.array(f.roots)
    frames = integration._branch_frames(f)
    rng = np.random.default_rng(13)
    for _ in range(4):
        P = sample_divisor(ctx, rng).p
        x, y = np.array([P.x]), np.array([P.y])
        images = []
        for j in range(len(r)):
            e = np.array([j])
            h = x - r[e]
            rho = integration._bernstein_rho(np.sqrt(frames[2][e] / h))
            if rho.min() < 1.05:
                continue
            I = integration._sums_to_tol(
                lambda k, n: integration._abel_sums(
                    x[k], y[k], h[k], frames[1][e[k]], n),
                *integration._abel_bounds(f, frames, e, h, rho),
                integration.HALF_SEGMENT_MAX_NODES, None,
                integration._on_ladder)[0]
            images.append(ctx.branch_abel[j] + I[0])
        assert len(images) >= 3
        for z in images[1:]:
            assert k2.nearest_lattice_residual(ctx.pd, z - images[0]) <= (
                1e-13 * max(1.0, np.max(np.abs(images[0]))))


def test_involution_negates_the_half_segment_exactly(any_ctx):
    """P and its involution image take the same branch point, and their
    half-segments are exact negatives: y enters as its sign alone."""
    ctx, f = any_ctx, any_ctx.f
    D = sample_divisor(ctx, np.random.default_rng(14))
    x = [D.p.x, D.q.x]
    e, I, _, _ = integration.abel_half_segments(f, x, [D.p.y, D.q.y])
    e2, I2, _, _ = integration.abel_half_segments(
        f, x, [involution(D.p).y, involution(D.q).y])
    assert np.array_equal(e, e2) and np.array_equal(I2, -I)
