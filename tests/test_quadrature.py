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
                                   RATIO_STEP, Line, SheetPath, continue_sqrt,
                                   flip_loop_pieces, line_with_detours,
                                   lookup_sqrt, tail_integrals)
from kleinian2.quadrature import integrate_01

from conftest import G6_COEFFS, W5_COEFFS


def _scalar(fn):
    def g(u, d0, d1):
        return np.asarray(fn(u, d0, d1), dtype=complex)[:, None]
    return g


def test_smooth_integrand():
    val, err = integrate_01(_scalar(lambda u, d0, d1: np.exp(u)))
    assert abs(val[0] - (np.e - 1)) < 1e-13
    assert err < 1e-12


def test_inverse_sqrt_endpoint_left():
    val, _ = integrate_01(_scalar(lambda u, d0, d1: 1.0 / np.sqrt(d0)))
    assert abs(val[0] - 2.0) < 1e-12


def test_inverse_sqrt_both_endpoints():
    val, _ = integrate_01(_scalar(lambda u, d0, d1: 1.0 / np.sqrt(d0 * d1)))
    assert abs(val[0] - np.pi) < 1e-12


def test_log_endpoint():
    val, _ = integrate_01(_scalar(lambda u, d0, d1: np.log(d0)))
    assert abs(val[0] + 1.0) < 1e-12


def test_vector_integrand_and_mpmath_oracle():
    """Complex oscillatory integrand with a left endpoint singularity."""
    val, _ = integrate_01(
        lambda u, d0, d1: np.stack(
            [np.exp(2j * np.pi * u) / np.sqrt(d0), u ** 2 + 0j], axis=1))
    with mpmath.workdps(30):
        ref = mpmath.quad(
            lambda t: mpmath.exp(2j * mpmath.pi * t) / mpmath.sqrt(t), [0, 1])
    assert abs(val[0] - complex(ref)) < 1e-12
    assert abs(val[1] - 1.0 / 3.0) < 1e-13


def test_unreachable_tolerance_raises():
    rng = np.random.default_rng(3)
    noise = rng.normal(size=10 ** 6)

    def g(u, d0, d1):
        # white noise indexed by node position defeats refinement
        idx = (u * (len(noise) - 1)).astype(int)
        return noise[idx][:, None] + 0j

    with pytest.raises(k2.QuadratureError):
        integrate_01(g)


def test_node_tables_are_read_only():
    """An integrand that writes into the nodes it is given raises, and
    leaves the cached nodes, and so later integrals, intact."""
    def scales_u(u, d0, d1):
        u *= 0.5
        return u[:, None] + 0j

    with pytest.raises(ValueError, match="read-only"):
        integrate_01(scales_u)
    val, _ = integrate_01(_scalar(lambda u, d0, d1: np.exp(u)))
    assert abs(val[0] - (np.e - 1)) < 1e-13


def test_stacked_integrals_meet_tolerance_each():
    """A stack of integrals is refined until each meets the tolerance on
    its own max-norm: a tiny peaked integral is not judged against a
    smooth one of norm 1."""
    eps, c = 1e-4, 0.5

    def g(u, d0, d1):
        smooth = np.exp(u)
        peak = 1e-20 / ((u - c) ** 2 + eps)
        return np.stack([smooth, peak], axis=1)[:, :, None] + 0j

    val, _ = integrate_01(g)
    assert val.shape == (2, 1)
    peak_exact = 1e-20 / np.sqrt(eps) * (np.arctan((1 - c) / np.sqrt(eps))
                                         + np.arctan(c / np.sqrt(eps)))
    assert abs(val[0, 0] - (np.e - 1)) < 1e-12 * (np.e - 1)
    assert abs(val[1, 0] - peak_exact) < 1e-12 * peak_exact


def test_continue_sqrt_closed_loop_winding():
    """A loop encircling one root of f an odd number of times must come back
    on the other sheet, even though h(1) == h(0) exactly."""
    f = k2.validate_polynomial(G6_COEFFS)
    center = 1.0  # a root of x^6 - 1

    def h_loop(u):
        return f(center + 0.3 * np.exp(2j * np.pi * u))

    us, ss = continue_sqrt(h_loop)
    assert abs(ss[-1] + ss[0]) < 1e-12 * abs(ss[0])

    def h_null(u):
        # same circle around a point with no enclosed root
        return f(3.0 + 0.3 * np.exp(2j * np.pi * u))

    us, ss = continue_sqrt(h_null)
    assert abs(ss[-1] - ss[0]) < 1e-12 * abs(ss[0])


def test_continue_sqrt_double_winding_returns():
    f = k2.validate_polynomial(G6_COEFFS)

    def h(u):
        return f(1.0 + 0.3 * np.exp(4j * np.pi * u))

    us, ss = continue_sqrt(h)
    assert abs(ss[-1] - ss[0]) < 1e-12 * abs(ss[0])


def test_continue_sqrt_seed_selects_branch():
    def h(u):
        return 4.0 + 0j + 0.0 * u

    _, ss = continue_sqrt(h, seed=-2.0)
    assert ss[0] == -2.0 and ss[-1] == -2.0
    with pytest.raises(k2.SheetTrackingError):
        continue_sqrt(h, seed=1.0)


def test_lookup_sqrt_interpolates_branch():
    def h(u):
        return np.exp(4j * np.pi * u)  # sqrt(h) = exp(2 pi i u) winds once

    us, ss = continue_sqrt(h)
    u_test = np.linspace(0.01, 0.99, 37)
    got = lookup_sqrt(us, ss, u_test, h(u_test))
    want = np.exp(2j * np.pi * u_test)
    assert np.max(np.abs(got - want)) < 1e-12


def test_sheet_path_consistency():
    """y stays on the curve and varies continuously along a line path."""
    f = k2.validate_polynomial(G6_COEFFS)
    x0, x1 = 2.0 + 0.5j, -1.5 + 0.8j
    y0 = np.sqrt(f(x0))
    path = SheetPath.build(f, [Line(x0, x1)], y0)
    us, ss = path.tables[0]
    prev = None
    for u in np.linspace(0.0, 1.0, 50):
        x = path.pieces[0].x_of(u)
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
    """(h, seed) of every continuation `run` makes."""
    calls = []

    def spy(h, seed=None):
        calls.append((h, seed))
        return continue_sqrt(h, seed)

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
    return [(lambda u: f(1.0 + 0.3 * np.exp(2j * np.pi * turns * u)), None)]


def _seeded():
    f = _g6()
    line = Line(2.0 + 0.5j, -1.5 + 0.8j)
    return [(lambda u: f(line.x_of(u)), -np.sqrt(f(line.z0)))]


def _detour(monkeypatch):
    f = _g6()
    pieces = line_with_detours(branch_points(f), 1.0 - 0.5j, 1.0 + 0.5j)
    assert any(isinstance(pc, integration.Arc) for pc in pieces)
    return _recorded_continuations(monkeypatch, lambda: SheetPath.build(
        f, pieces, np.sqrt(f(1.0 - 0.5j))))


def _tail(monkeypatch, f):
    x_far = 12.0 * np.exp(0.731j)
    return _recorded_continuations(monkeypatch, lambda: tail_integrals(
        f, [x_far], [np.sqrt(f(x_far))]))


CONTINUATIONS = {
    "closed_loop": lambda mp: _loop(1),
    "double_winding": lambda mp: _loop(2),
    "seeded_branch": lambda mp: _seeded(),
    "detour": _detour,
    "tail_degree5": lambda mp: _tail(mp, _w5()),
    "tail_degree6": lambda mp: _tail(mp, _g6()),
}


@pytest.mark.parametrize("name", sorted(CONTINUATIONS))
def test_batched_continuation_matches_depth_first(name, monkeypatch):
    calls = CONTINUATIONS[name](monkeypatch)
    assert calls
    for h, seed in calls:
        us, ss = continue_sqrt(h, seed)
        us_ref, ss_ref = _continue_sqrt_depth_first(h, seed)
        assert np.array_equal(us, us_ref)
        assert np.all(np.abs(ss - ss_ref) <= 1e-15 * np.abs(ss_ref))


def test_continuation_through_a_zero_raises_after_max_depth():
    calls = []

    def h(u):
        calls.append(np.size(u))
        return np.asarray(u) - 0.3 + 0j

    with pytest.raises(k2.SheetTrackingError, match="did not stabilize"):
        continue_sqrt(h)
    assert len(calls) <= MAX_DEPTH + 1
    assert calls[0] == BASE_GRID + 1


def _junction_gap(pieces):
    """Largest real or imaginary gap between consecutive pieces."""
    gaps = [a.x_of(1.0) - b.x_of(0.0) for a, b in zip(pieces, pieces[1:])]
    return max((max(abs(g.real), abs(g.imag)) for g in gaps), default=0.0)


def test_detour_pieces_meet_exactly():
    """Lines end where the detour arcs begin, to an ulp of the scale, on
    paths aimed at a root; a gap of 1e-11 once failed the seed check on a
    4.5e-4 detour of the clustered quintic."""
    clustered = np.array([0, 1e-3, 2j, -1 + 1j, 3])
    rng = np.random.default_rng(7)
    for roots in (clustered, np.exp(2j * np.pi * np.arange(6) / 6)):
        scale = float(np.max(np.abs(roots)))
        for _ in range(200):
            c = roots[rng.integers(len(roots))]
            x0 = 3 * scale * (rng.random() - 0.5 + 1j * (rng.random() - 0.5))
            x1 = 2 * c - x0 + 1e-3 * (rng.random() - 0.5)
            x_at = c + 1e-2 * (rng.random() - 0.5 + 1j * (rng.random() - 0.5))
            for pieces in (line_with_detours(roots, x0, x1),
                           flip_loop_pieces(roots, x_at)):
                assert _junction_gap(pieces) <= np.spacing(scale)


# -- whole-path quadrature against a per-piece loop --------------------------

def _integrate_forms_piece_by_piece(path, numerators):
    """Reference: one adaptive quadrature per piece of the path."""
    total = np.zeros(len(numerators), dtype=complex)
    for i, pc in enumerate(path.pieces):
        def g(u, d0, d1, i=i, pc=pc):
            x = pc.x_of(u)
            y = lookup_sqrt(*path.tables[i], u, path.f(x))
            return np.stack([nf(x) * pc.dx_of(u) / y for nf in numerators],
                            axis=1)
        total += integrate_01(g)[0]
    return total


@pytest.mark.parametrize("coeffs", [W5_COEFFS, G6_COEFFS], ids=["w5", "g6"])
def test_integrate_forms_matches_piece_by_piece(coeffs):
    """Paths aimed through branch points (so with detour arcs), some with
    a sheet-flip loop appended: the one quadrature over all pieces gives
    the per-piece sum."""
    f = k2.validate_polynomial(coeffs)
    roots = branch_points(f)
    nums = integration.all_numerators(f)
    rng = np.random.default_rng(11)
    for k, r in enumerate(roots):
        v = (0.6 + 0.4 * rng.random()) * np.exp(2j * np.pi * rng.random())
        x0, x1 = r - v, r + v
        pieces = line_with_detours(roots, x0, x1)
        assert any(isinstance(pc, integration.Arc) for pc in pieces)
        path = SheetPath.build(f, pieces, np.sqrt(f(x0)))
        if k % 2:
            path.extend(flip_loop_pieces(roots, x1))
        got = integration.integrate_forms(path, nums)
        want = _integrate_forms_piece_by_piece(path, nums)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
