"""Tanh-sinh quadrature against closed forms and an mpmath oracle, and the
square-root sheet tracker on paths that wind around roots, checked
against a scalar depth-first copy of the continuation."""

import mpmath
import numpy as np
import pytest

import kleinian2 as k2
from kleinian2 import integration
from kleinian2.curve import branch_points
from kleinian2.integration import (ARG_STEP, BASE_GRID, MAX_DEPTH, MAX_NODES,
                                   RATIO_STEP, continue_sqrt, detour_radii,
                                   flip_loop_pieces, line_with_detours,
                                   lookup_sqrt, tail_integrals, x_dx)
from kleinian2.quadrature import integrate_01

from conftest import G6_COEFFS, W5_COEFFS


def _whole_stack(g):
    """integrate_01 on an integrand g that returns its whole stack at
    every level: narrow drops the columns of retired integrals after g."""
    cols = [slice(None)]

    def narrowed(u, d0, d1):
        return g(u, d0, d1)[:, cols[0]]

    def narrow(k):
        cols[0] = k

    return integrate_01(narrowed, narrow)


def _scalar(fn):
    """A scalar integrand as a stack of one integral of one component."""
    def g(u, d0, d1):
        return np.asarray(fn(u, d0, d1), dtype=complex)[:, None, None]
    return g


def test_smooth_integrand():
    val, err = _whole_stack(_scalar(lambda u, d0, d1: np.exp(u)))
    assert abs(val[0, 0] - (np.e - 1)) < 1e-13
    assert err < 1e-12


def test_inverse_sqrt_endpoint_left():
    val, _ = _whole_stack(_scalar(lambda u, d0, d1: 1.0 / np.sqrt(d0)))
    assert abs(val[0, 0] - 2.0) < 1e-12


def test_inverse_sqrt_both_endpoints():
    val, _ = _whole_stack(_scalar(lambda u, d0, d1: 1.0 / np.sqrt(d0 * d1)))
    assert abs(val[0, 0] - np.pi) < 1e-12


def test_log_endpoint():
    val, _ = _whole_stack(_scalar(lambda u, d0, d1: np.log(d0)))
    assert abs(val[0, 0] + 1.0) < 1e-12


def test_vector_integrand_and_mpmath_oracle():
    """Complex oscillatory integrand with a left endpoint singularity."""
    val, _ = _whole_stack(
        lambda u, d0, d1: np.stack(
            [np.exp(2j * np.pi * u) / np.sqrt(d0), u ** 2 + 0j],
            axis=1)[:, None])
    with mpmath.workdps(30):
        ref = mpmath.quad(
            lambda t: mpmath.exp(2j * mpmath.pi * t) / mpmath.sqrt(t), [0, 1])
    assert abs(val[0, 0] - complex(ref)) < 1e-12
    assert abs(val[0, 1] - 1.0 / 3.0) < 1e-13


def test_unreachable_tolerance_raises():
    rng = np.random.default_rng(3)
    noise = rng.normal(size=10 ** 6)

    def g(u, d0, d1):
        # white noise indexed by node position defeats refinement
        idx = (u * (len(noise) - 1)).astype(int)
        return noise[idx][:, None, None] + 0j

    with pytest.raises(k2.QuadratureError):
        _whole_stack(g)


def test_node_tables_are_read_only():
    """An integrand that writes into the nodes it is given raises, and
    leaves the cached nodes, and so later integrals, intact."""
    def scales_u(u, d0, d1):
        u *= 0.5
        return u[:, None, None] + 0j

    with pytest.raises(ValueError, match="read-only"):
        _whole_stack(scales_u)
    val, _ = _whole_stack(_scalar(lambda u, d0, d1: np.exp(u)))
    assert abs(val[0, 0] - (np.e - 1)) < 1e-13


def test_stacked_integrals_meet_tolerance_each():
    """A stack of integrals is refined until each meets the tolerance on
    its own max-norm: a tiny peaked integral is not judged against a
    smooth one of norm 1."""
    eps, c = 1e-4, 0.5

    def g(u, d0, d1):
        smooth = np.exp(u)
        peak = 1e-20 / ((u - c) ** 2 + eps)
        return np.stack([smooth, peak], axis=1)[:, :, None] + 0j

    val, _ = _whole_stack(g)
    assert val.shape == (2, 1)
    peak_exact = 1e-20 / np.sqrt(eps) * (np.arctan((1 - c) / np.sqrt(eps))
                                         + np.arctan(c / np.sqrt(eps)))
    assert abs(val[0, 0] - (np.e - 1)) < 1e-12 * (np.e - 1)
    assert abs(val[1, 0] - peak_exact) < 1e-12 * peak_exact


# -- a stack whose integrals converge at different levels ---------------------

# exp(a u) converges at a lower level the smaller a is; the peaked one
# needs the finest levels
EASY_TO_HARD = [lambda u: np.exp(0.1 * u), lambda u: np.exp(3.0 * u),
                lambda u: 1.0 / np.sqrt(u * (1.0 - u) + 1e-3),
                lambda u: 1.0 / ((u - 0.3) ** 2 + 1e-4)]


def _recording_stack(fns, narrowed):
    """A stack integrand over fns, recording per call which of them it
    evaluated, and its narrow callback.  Narrowed, it evaluates the open
    integrals only; otherwise it evaluates the whole stack and returns
    the open integrals' columns of it."""
    live = [np.arange(len(fns))]
    seen = []

    def g(u, d0, d1):
        evaluated = live[0] if narrowed else np.arange(len(fns))
        seen.append(list(evaluated))
        vals = np.stack([fns[i](u) + 0j for i in evaluated], axis=1)
        return (vals if narrowed else vals[:, live[0]])[:, :, None]

    def narrow(k):
        live[0] = k

    return g, narrow, seen


def _levels_alone(fn):
    g, narrow, seen = _recording_stack([fn], False)
    return integrate_01(g, narrow)[0][0, 0], len(seen)


def _forwarding(g, *args, **kwargs):
    """integrate_01 as a tracer runs it: the integrand is wrapped in a
    function that forwards only (u, d0, d1), other arguments pass on."""
    return integrate_01(lambda u, d0, d1: g(u, d0, d1), *args, **kwargs)


@pytest.mark.parametrize("run", [integrate_01, _forwarding],
                         ids=["direct", "forwarding"])
@pytest.mark.parametrize("narrowed", [True, False])
def test_each_integral_of_a_stack_retires_at_its_own_level(run, narrowed):
    """Each result equals its integral computed alone, and a narrowed
    integrand evaluates each integral at no more levels than alone."""
    alone = [_levels_alone(fn) for fn in EASY_TO_HARD]
    assert len({n for _, n in alone}) > 2
    g, narrow, seen = _recording_stack(EASY_TO_HARD, narrowed)
    val, err = run(g, narrow)
    assert val.shape == (len(EASY_TO_HARD), 1)
    assert err < 1e-12
    for i, (want, levels) in enumerate(alone):
        assert abs(val[i, 0] - want) <= 1e-15 * abs(want)
        if narrowed:
            assert sum(i in cols for cols in seen) <= levels
    assert len(seen) == max(n for _, n in alone)
    if not narrowed:
        assert all(cols == list(range(len(EASY_TO_HARD))) for cols in seen)


def test_continue_sqrt_closed_loop_winding():
    """A loop encircling one root of f an odd number of times must come back
    on the other sheet, even though h(1) == h(0) exactly."""
    f = k2.validate_polynomial(G6_COEFFS)
    center = 1.0  # a root of x^6 - 1

    def h_loop(u):
        return f(center + 0.3 * np.exp(2j * np.pi * u))

    us, ss = continue_sqrt(lambda u, k: h_loop(u), [None])
    assert abs(ss[-1] + ss[0]) < 1e-12 * abs(ss[0])

    def h_null(u):
        # same circle around a point with no enclosed root
        return f(3.0 + 0.3 * np.exp(2j * np.pi * u))

    us, ss = continue_sqrt(lambda u, k: h_null(u), [None])
    assert abs(ss[-1] - ss[0]) < 1e-12 * abs(ss[0])


def test_continue_sqrt_double_winding_returns():
    f = k2.validate_polynomial(G6_COEFFS)

    def h(u, k):
        return f(1.0 + 0.3 * np.exp(4j * np.pi * u))

    us, ss = continue_sqrt(h, [None])
    assert abs(ss[-1] - ss[0]) < 1e-12 * abs(ss[0])


def test_continue_sqrt_seed_selects_branch():
    def h(u, k):
        return 4.0 + 0j + 0.0 * u

    _, ss = continue_sqrt(h, [-2.0])
    assert ss[0] == -2.0 and ss[-1] == -2.0
    with pytest.raises(k2.SheetTrackingError):
        continue_sqrt(h, [1.0])
    # a seed later in the stack is checked too, and so is a junction
    with pytest.raises(k2.SheetTrackingError):
        continue_sqrt(h, [-2.0, 1.0])
    with pytest.raises(k2.SheetTrackingError):
        continue_sqrt(lambda u, k: h(u, k) * (1 + 3 * k), [-2.0, None])


def test_lookup_sqrt_interpolates_branch():
    def h(u):
        return np.exp(4j * np.pi * u)  # sqrt(h) = exp(2 pi i u) winds once

    us, ss = continue_sqrt(lambda u, k: h(u), [None])
    u_test = np.linspace(0.01, 0.99, 37)
    got = lookup_sqrt(us, ss, u_test, h(u_test))
    want = np.exp(2j * np.pi * u_test)
    assert np.max(np.abs(got - want)) < 1e-12


def test_sheet_path_consistency():
    """y stays on the curve and varies continuously along a line path."""
    f = k2.validate_polynomial(G6_COEFFS)
    x0, x1 = 2.0 + 0.5j, -1.5 + 0.8j
    y0 = np.sqrt(f(x0))
    us, ss = continue_sqrt(lambda u, k: f(x0 + u * (x1 - x0)), [y0])
    prev = None
    for u in np.linspace(0.0, 1.0, 50):
        x = x0 + u * (x1 - x0)
        y = lookup_sqrt(us, ss, float(u), f(x))
        assert abs(y ** 2 - f(x)) < 1e-10 * max(1.0, abs(f(x)))
        if prev is not None:
            assert abs(y - prev) < 0.35 * max(1.0, abs(y))
        prev = y


# -- the batched continuation against a depth-first oracle -------------------

def _continue_sqrt_depth_first(h, seed=None):
    """Reference: the continuation refined interval by interval, with one
    scalar h call per node."""
    def step_ok(h0, h1):
        if h0 == 0 or h1 == 0:
            return False
        r = h1 / h0
        m = abs(r)
        return (1.0 / RATIO_STEP <= m <= RATIO_STEP
                and abs(np.angle(r)) <= ARG_STEP)

    u_init = np.linspace(0.0, 1.0, BASE_GRID + 1)
    h_init = [complex(h(u)) for u in u_init]
    us, hs = [0.0], [h_init[0]]

    def refine(u0, v0, u1, v1, depth):
        if step_ok(v0, v1):
            us.append(u1)
            hs.append(v1)
            return
        if depth >= MAX_DEPTH or len(us) > MAX_NODES:
            raise k2.SheetTrackingError("did not stabilize")
        um = 0.5 * (u0 + u1)
        vm = complex(h(um))
        refine(u0, v0, um, vm, depth + 1)
        refine(um, vm, u1, v1, depth + 1)

    for k in range(BASE_GRID):
        refine(u_init[k], h_init[k], u_init[k + 1], h_init[k + 1], 0)
    hs = np.array(hs)
    ss = np.empty_like(hs)
    ss[0] = np.sqrt(hs[0]) if seed is None else complex(seed)
    for k in range(1, len(hs)):
        s = np.sqrt(hs[k])
        ss[k] = s if abs(s - ss[k - 1]) <= abs(s + ss[k - 1]) else -s
    return np.array(us), ss


def _recorded_continuations(monkeypatch, run):
    """(h, seeds) of every continuation `run` makes."""
    calls = []

    def spy(h, seeds):
        calls.append((h, seeds))
        return continue_sqrt(h, seeds)

    with monkeypatch.context() as m:
        m.setattr(integration, "continue_sqrt", spy)
        run()
    return calls


def _g6():
    return k2.validate_polynomial(G6_COEFFS)


def _w5():
    return k2.validate_polynomial(W5_COEFFS)


def _loop(turns):
    f = _g6()
    return [(lambda u, k: f(1.0 + 0.3 * np.exp(2j * np.pi * turns * u)),
             [None])]


def _seeded():
    f = _g6()
    x0, x1 = 2.0 + 0.5j, -1.5 + 0.8j
    return [(lambda u, k: f(x0 + u * (x1 - x0)), [-np.sqrt(f(x0))])]


def _detour(monkeypatch):
    """path_between to a point and to its involution image, in one call:
    two chains of a line, a detour arc and a line, each piece seeded by
    the end of the one before, in one continuation, and for the second a
    flip loop continued from its end in another."""
    f = _g6()
    x0, x1 = 1.0 - 0.5j, 1.0 + 0.5j
    roots = branch_points(f)
    assert np.any(
        line_with_detours(roots, detour_radii(roots), x0, x1)[:, 2] != 0)
    P0 = k2.CurvePoint.affine(x0, np.sqrt(f(x0)))
    P1 = k2.CurvePoint.affine(x1, np.sqrt(f(x1)))
    return _recorded_continuations(monkeypatch, lambda: (
        integration.path_between(f, branch_points(f), [P0, P0],
                                 [P1, k2.CurvePoint.affine(x1, -P1.y)])))


def _segments(monkeypatch):
    """The period segments: one stack, every piece on its own seed."""
    f = _g6()
    return _recorded_continuations(monkeypatch, lambda: (
        integration.segment_period_integrals(
            f, branch_points(f), k2.periods.LOOP_PAIRS)))


def _fan(monkeypatch, f):
    """Radial runs of several points (seeded and chained pieces in one
    stack), then their tails (a stack of seeds)."""
    roots = branch_points(f)
    xs = [1.1 * np.exp(0.4j), 0.45 - 0.2j, -1.4 + 0.05j]
    points = [k2.CurvePoint.affine(x, np.sqrt(f(x))) for x in xs]
    z_star = np.zeros(2) if f.degree == 6 else None
    return _recorded_continuations(monkeypatch, lambda: (
        integration.point_infinity_integrals(f, roots, points, 1.0, z_star)))


def _tail(monkeypatch, f):
    x_far = 12.0 * np.exp(0.731j)
    return _recorded_continuations(monkeypatch, lambda: tail_integrals(
        f, [x_far], [np.sqrt(f(x_far))]))


CONTINUATIONS = {
    "closed_loop": lambda mp: _loop(1),
    "double_winding": lambda mp: _loop(2),
    "seeded_branch": lambda mp: _seeded(),
    "detour": _detour,
    "segments": _segments,
    "fan_degree5": lambda mp: _fan(mp, _w5()),
    "fan_degree6": lambda mp: _fan(mp, _g6()),
    "tail_degree5": lambda mp: _tail(mp, _w5()),
    "tail_degree6": lambda mp: _tail(mp, _g6()),
}


@pytest.mark.parametrize("name", sorted(CONTINUATIONS))
def test_batched_continuation_matches_depth_first(name, monkeypatch):
    """Every piece's slice of the joined table is the depth-first
    continuation of that piece alone, from its seed or, for a chained
    piece, from the oracle's end of the piece before."""
    calls = CONTINUATIONS[name](monkeypatch)
    assert calls
    for h, seeds in calls:
        us, ss = continue_sqrt(h, seeds)
        y_end, n_nodes = None, 0
        for k, seed in enumerate(seeds):
            piece = (us >= 2 * k) & (us <= 2 * k + 1)
            us_ref, ss_ref = _continue_sqrt_depth_first(
                lambda u, k=k: h(np.array([u]), np.array([k]))[0],
                y_end if seed is None else seed)
            assert np.array_equal(us[piece], us_ref + 2.0 * k)
            assert np.all(np.abs(ss[piece] - ss_ref) <= 1e-15 * np.abs(ss_ref))
            y_end = ss_ref[-1]
            n_nodes += len(us_ref)
        assert n_nodes == len(us)


def test_continuation_through_a_zero_raises_after_max_depth():
    """A piece through a zero of h exhausts its depth budget, alone and in
    a stack whose other piece converges at once; h is called once per
    level on the whole stack."""
    for bad_piece in (0, 1):
        calls = []

        def h(u, k):
            calls.append(np.size(u))
            return np.where(k == bad_piece, np.asarray(u) - 0.3 + 0j, 2.0 + 0j)

        with pytest.raises(k2.SheetTrackingError, match="did not stabilize"):
            continue_sqrt(h, [None] * (bad_piece + 1))
        assert len(calls) <= MAX_DEPTH + 1
        assert calls[0] == (bad_piece + 1) * (BASE_GRID + 1)


def _junction_gap(pieces):
    """Largest real or imaginary gap between consecutive pieces."""
    gaps = x_dx(pieces[:-1], 1.0)[0] - x_dx(pieces[1:], 0.0)[0]
    return max(np.max(np.abs(gaps.real), initial=0.0),
               np.max(np.abs(gaps.imag), initial=0.0))


def test_detour_pieces_meet_exactly():
    """Lines end where the detour arcs begin, to an ulp of the scale, on
    paths aimed at a root; a gap of 1e-11 once failed the seed check on a
    4.5e-4 detour of the clustered quintic."""
    clustered = np.array([0, 1e-3, 2j, -1 + 1j, 3])
    rng = np.random.default_rng(7)
    for roots in (clustered, np.exp(2j * np.pi * np.arange(6) / 6)):
        scale = float(np.max(np.abs(roots)))
        radii = detour_radii(roots)
        for _ in range(200):
            c = roots[rng.integers(len(roots))]
            x0 = 3 * scale * (rng.random() - 0.5 + 1j * (rng.random() - 0.5))
            x1 = 2 * c - x0 + 1e-3 * (rng.random() - 0.5)
            x_at = c + 1e-2 * (rng.random() - 0.5 + 1j * (rng.random() - 0.5))
            for pieces in (line_with_detours(roots, radii, x0, x1),
                           flip_loop_pieces(roots, radii, x_at)):
                assert _junction_gap(pieces) <= np.spacing(scale)


# -- whole-path quadrature against a per-piece loop --------------------------

def _integrate_forms_piece_by_piece(f, pieces, table, numerators):
    """Reference: one adaptive quadrature per piece of the path, piece i
    read from the joined table at u + 2i, with x and dx/du from each
    piece's own formula: z0 + u (z1 - z0) on a line, and on an arc
    c + rho exp(i (phi0 + u dphi)), dx/du = i dphi (x - c)."""
    total = np.zeros(len(numerators), dtype=complex)
    for i, (c, R, b) in enumerate(pieces):
        def g(u, d0, d1, i=i, c=c, R=R, b=b):
            if b == 0:
                z0, z1 = c, c + R
                x = z0 + u * (z1 - z0)
                dx = np.full_like(x, z1 - z0)
            else:
                rho, phi0, dphi = abs(R), np.angle(R), b.imag
                x = c + rho * np.exp(1j * (phi0 + u * dphi))
                dx = 1j * dphi * (x - c)
            y = lookup_sqrt(*table, u + 2.0 * i, f(x))
            return np.stack([nf(x) * dx / y for nf in numerators],
                            axis=1)[:, None]
        total += _whole_stack(g)[0][0]
    return total


@pytest.mark.parametrize("coeffs", [W5_COEFFS, G6_COEFFS], ids=["w5", "g6"])
def test_integrate_forms_matches_piece_by_piece(coeffs):
    """Paths aimed through branch points (so with detour arcs), some with
    a sheet-flip loop appended: the one quadrature over all pieces gives
    the per-piece sum."""
    f = k2.validate_polynomial(coeffs)
    roots = branch_points(f)
    radii = detour_radii(roots)
    nums = integration.all_numerators(f)
    rng = np.random.default_rng(11)
    for k, r in enumerate(roots):
        v = (0.6 + 0.4 * rng.random()) * np.exp(2j * np.pi * rng.random())
        x0, x1 = r - v, r + v
        pieces = line_with_detours(roots, radii, x0, x1)
        assert np.any(pieces[:, 2] != 0)
        if k % 2:
            pieces = np.concatenate(
                [pieces, flip_loop_pieces(roots, radii, x1)])
        _, table, _ = integration._continue_runs(f, [pieces], [np.sqrt(f(x0))])
        got = integration.integrate_forms(f, pieces, table, nums).sum(axis=0)
        want = _integrate_forms_piece_by_piece(f, pieces, table, nums)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_x_dx_rows_integrate_to_their_chords():
    """On random lines and arcs, a full turn included, tanh-sinh over
    dx/du from x_dx gives x(1) - x(0), and arc points lie on their
    circle."""
    rng = np.random.default_rng(5)

    def cplx(n, s):
        return s * (rng.normal(size=n) + 1j * rng.normal(size=n))

    for s in (1e-3, 1.0, 1e3):
        n = 6
        lines = np.stack([cplx(n, s), cplx(n, s), np.zeros(n)], axis=1)
        dphi = np.append(rng.uniform(-np.pi, np.pi, n - 1), 2 * np.pi)
        arcs = np.stack([cplx(n, s), cplx(n, s), 1j * dphi], axis=1)
        pieces = np.concatenate([lines, arcs])
        scale = np.abs(pieces[:, 0]) + np.abs(pieces[:, 1])
        # a constant second component of each piece's scale keeps the
        # full turn, whose integral vanishes, to a tolerance of its size
        val, _ = _whole_stack(lambda u, d0, d1: np.stack(
            [x_dx(pieces, u[:, None])[1], 0 * u[:, None] + scale], axis=2))
        x0, _ = x_dx(pieces, 0.0)
        x1, _ = x_dx(pieces, 1.0)
        assert np.all(np.abs(val[:, 0] - (x1 - x0)) <= 1e-13 * scale)
        u = np.linspace(0.0, 1.0, 101)[:, None]
        x, _ = x_dx(arcs, u)
        c, R = arcs[:, 0], arcs[:, 1]
        assert np.all(np.abs(np.abs(x - c) - np.abs(R))
                      <= 1e-15 * scale[n:])


def test_empty_straight_run_is_a_stack_of_no_rows():
    """From a point to itself the straight run has no pieces, a (0, 3)
    stack, so the path to the involution image is the flip loop alone."""
    f = _g6()
    roots = branch_points(f)
    x = 0.4 + 0.7j
    assert line_with_detours(roots, detour_radii(roots), x, x).shape == (0, 3)
    P = k2.CurvePoint.affine(x, np.sqrt(f(x)))
    pieces, _, _ = integration.path_between(f, roots, [P], [P])
    assert pieces.shape == (0, 3)
    pieces, (us, ss), _ = integration.path_between(
        f, roots, [P], [k2.CurvePoint.affine(x, -P.y)])
    loop = flip_loop_pieces(roots, detour_radii(roots), x)
    assert np.array_equal(pieces, loop)
    assert abs(ss[-1] + P.y) <= 1e-12 * abs(P.y)
