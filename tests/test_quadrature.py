"""Tanh-sinh quadrature against closed forms and an mpmath oracle, the
closed-form square-root sheet on paths that wind around roots, checked
against a dense-step continuation at the quadrature's nodes, and the
tails to infinity, summed as series, against mpmath."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import kleinian2 as k2
from kleinian2 import integration, quadrature
from kleinian2.integration import (continue_sqrt, line_with_detours,
                                   piece_sheet, run_into_branch_point,
                                   segment_sheet, tail_integrals, x_dx)
from kleinian2.quadrature import (BASE_LEVEL, MAX_LEVEL, TOL, _nodes,
                                  integrate_01)

from conftest import G6_COEFFS, W5_COEFFS, flip_loop_pieces


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


def test_quadrature_error_names_the_open_integrals():
    """An integral of a stack that does not converge raises one
    QuadratureError for the whole stack, saying how many integrals were
    still open and the stack index of the worst."""
    noise = np.random.default_rng(5).normal(size=10 ** 6)

    def g(u, d0, d1):
        smooth = np.exp(u)[:, None] + 0j
        idx = (u * (len(noise) - 1)).astype(int)
        return np.stack([smooth, noise[idx][:, None] + 0j, smooth],
                        axis=1)

    with pytest.raises(k2.QuadratureError,
                       match="1 of the 3 integrals of the stack still "
                             "open, the worst at stack index 1"):
        _whole_stack(g)


def test_quadrature_error_after_a_retirement_at_the_last_level(
        monkeypatch):
    """An integral that retires at MAX_LEVEL, while another stays open,
    leaves the error naming the open one, by its stack index."""
    noise = np.random.default_rng(5).normal(size=10 ** 6)
    levels = []

    def late(u, d0, d1):
        levels.append(1)
        return np.cos(300.0 * u)[:, None] + 0j

    _whole_stack(lambda u, d0, d1: late(u, d0, d1)[:, None])
    # the first call takes levels BASE_LEVEL and BASE_LEVEL + 1
    last = BASE_LEVEL + len(levels)
    assert last > BASE_LEVEL + 2    # exp(u) below has retired before it
    monkeypatch.setattr(quadrature, "MAX_LEVEL", last)

    def g(u, d0, d1):
        idx = (u * (len(noise) - 1)).astype(int)
        return np.stack([np.exp(u)[:, None] + 0j, late(u, d0, d1),
                         noise[idx][:, None] + 0j], axis=1)

    with pytest.raises(k2.QuadratureError,
                       match=f"by level {last}: 1 of the 3 integrals of "
                             "the stack still open, the worst at stack "
                             "index 2"):
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


# the number of levels whose new nodes an integrand call gets, by node
# count: integrate_01's first call gets BASE_LEVEL and the next together
# (the level-by-level reference below gets BASE_LEVEL alone)
LEVELS_BY_COUNT = {
    len(_nodes(BASE_LEVEL)[0]) + len(_nodes(BASE_LEVEL + 1)[0]): 2,
    **{len(_nodes(level)[0]): 1
       for level in range(BASE_LEVEL, MAX_LEVEL + 1)}}


def _recording_stack(fns, narrowed):
    """A stack integrand over fns, recording per call which of them it
    evaluated and at how many levels, and its narrow callback.
    Narrowed, it evaluates the open integrals only; otherwise it
    evaluates the whole stack and returns the open integrals' columns of
    it."""
    live = [np.arange(len(fns))]
    seen = []

    def g(u, d0, d1):
        evaluated = live[0] if narrowed else np.arange(len(fns))
        seen.append((list(evaluated), LEVELS_BY_COUNT[len(u)]))
        vals = np.stack([fns[i](u) + 0j for i in evaluated], axis=1)
        return (vals if narrowed else vals[:, live[0]])[:, :, None]

    def narrow(k):
        live[0] = k

    return g, narrow, seen


def _levels_alone(fn):
    g, narrow, seen = _recording_stack([fn], False)
    return integrate_01(g, narrow)[0][0, 0], sum(n for _, n in seen)


def _forwarding(g, *args, **kwargs):
    """integrate_01 as a tracer runs it: the integrand is wrapped in a
    function that forwards only (u, d0, d1), other arguments pass on."""
    return integrate_01(lambda u, d0, d1: g(u, d0, d1), *args, **kwargs)


@pytest.mark.parametrize("run", [integrate_01, _forwarding],
                         ids=["direct", "forwarding"])
@pytest.mark.parametrize("narrowed", [True, False])
def test_each_integral_of_a_stack_retires_at_its_own_level(run, narrowed):
    """Each result equals its integral computed alone, and a narrowed
    integrand evaluates each integral at no more levels than alone;
    levels are counted from the nodes of each call."""
    alone = [_levels_alone(fn) for fn in EASY_TO_HARD]
    assert len({n for _, n in alone}) > 2
    g, narrow, seen = _recording_stack(EASY_TO_HARD, narrowed)
    val, err = run(g, narrow)
    assert val.shape == (len(EASY_TO_HARD), 1)
    assert err < 1e-12
    for i, (want, levels) in enumerate(alone):
        assert abs(val[i, 0] - want) <= 1e-15 * abs(want)
        if narrowed:
            assert sum(n for cols, n in seen if i in cols) <= levels
    assert sum(n for _, n in seen) == max(n for _, n in alone)
    assert seen[0][1] == 2
    if not narrowed:
        assert all(cols == list(range(len(EASY_TO_HARD))) for cols, _ in seen)


def _integrate_level_by_level(g, narrow):
    """Reference: integrate_01 with one integrand call per level, the
    first at BASE_LEVEL alone."""
    u, d0, d1, w = _nodes(BASE_LEVEL)
    vals = g(u, d0, d1)
    acc = (w @ vals.reshape(len(u), -1)).reshape(vals.shape[1:])
    value = np.empty_like(acc)
    err = np.zeros(len(acc))
    est = 2.0 ** (-BASE_LEVEL) * acc
    live = np.arange(len(acc))
    for level in range(BASE_LEVEL + 1, MAX_LEVEL + 1):
        u, d0, d1, w = _nodes(level)
        vals = g(u, d0, d1)
        acc = acc + (w @ vals.reshape(len(u), -1)).reshape(acc.shape)
        new = 2.0 ** (-level) * acc
        scale = np.maximum(np.max(np.abs(new), axis=-1), 1e-300)
        change = np.max(np.abs(new - est), axis=-1) / scale
        done = change < TOL
        if done.all():
            value[live], err[live] = new, change
            return value, float(err.max())
        if done.any():
            value[live[done]], err[live[done]] = new[done], change[done]
            keep = ~done
            live, acc, new = live[keep], acc[keep], new[keep]
            narrow(live)
        est = new
    raise AssertionError("no convergence")


@pytest.mark.parametrize("coeffs", [W5_COEFFS, G6_COEFFS], ids=["w5", "g6"])
def test_two_level_first_call_is_bit_identical(coeffs, monkeypatch):
    """The first integrand call covers levels BASE_LEVEL and BASE_LEVEL +
    1 together; every result is bit for bit the level-by-level one: the
    stack of EASY_TO_HARD, the period segments, and a path's pieces."""
    g, narrow, _ = _recording_stack(EASY_TO_HARD, True)
    got = integrate_01(g, narrow)
    g, narrow, _ = _recording_stack(EASY_TO_HARD, True)
    want = _integrate_level_by_level(g, narrow)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    f = k2.validate_polynomial(coeffs)
    P0 = k2.CurvePoint.affine(0.4 + 0.7j, np.sqrt(f(0.4 + 0.7j)))
    P1 = k2.CurvePoint.affine(-1.1 - 0.3j, np.sqrt(f(-1.1 - 0.3j)))
    # one of the two ends in a run into a branch point
    pieces, y0, _, weight = integration.path_between(
        f, [P0, P0], [P1, k2.CurvePoint.affine(P1.x, -P1.y)])
    assert np.any(weight == 2)
    results = []
    for quad in (integrate_01, _integrate_level_by_level):
        monkeypatch.setattr(integration, "integrate_01", quad)
        results.append((
            integration.segment_period_integrals(
                f, f.roots, k2.periods.LOOP_PAIRS),
            integration.integrate_forms(f, pieces, y0,
                                        integration.all_numerators(f))))
    monkeypatch.undo()
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def _g6():
    return k2.validate_polynomial(G6_COEFFS)


def _w5():
    return k2.validate_polynomial(W5_COEFFS)


def _root_near(roots, x):
    roots = np.asarray(roots)
    return complex(roots[np.argmin(np.abs(roots - x))])


def _ends(f, pieces, seeds):
    y0, y1 = continue_sqrt(f, pieces, seeds)
    return y0[0], y1[-1]


def test_continue_sqrt_closed_loop_winding():
    """A loop encircling one root of f an odd number of times must come back
    on the other sheet, even though f(x(1)) == f(x(0)) exactly."""
    f = _g6()
    roots = list(f.roots)
    loop = np.array([[_root_near(roots, 1.0), 0.3, 2j * np.pi]])
    y0, y1 = _ends(f, loop, [None])
    assert abs(y1 + y0) < 1e-12 * abs(y0)
    # the same circle around a point with no enclosed root
    null = np.array([[3.0, 0.3, 2j * np.pi]])
    y0, y1 = _ends(f, null, [None])
    assert abs(y1 - y0) < 1e-12 * abs(y0)


def test_continue_sqrt_double_winding_returns():
    f = _g6()
    roots = list(f.roots)
    loop = np.array([[_root_near(roots, 1.0), 0.3, 4j * np.pi]])
    y0, y1 = _ends(f, loop, [None])
    assert abs(y1 - y0) < 1e-12 * abs(y0)


def test_continue_sqrt_seed_selects_branch():
    f = _g6()
    x0, x1 = 2.0 + 0.5j, -1.5 + 0.8j
    line = np.array([[x0, x1 - x0, 0]])
    y = np.sqrt(f(x0))
    y0, y1 = continue_sqrt(f, line, [-y])
    assert y0[0] == -y
    assert np.array_equal(continue_sqrt(f, line, [y])[1], -y1)
    with pytest.raises(k2.SheetTrackingError):
        continue_sqrt(f, line, [1.5 * y])
    # a seed later in the stack is checked too, and so is a junction
    both = np.concatenate([line, line])
    with pytest.raises(k2.SheetTrackingError):
        continue_sqrt(f, both, [y, 1.5 * y])
    with pytest.raises(k2.SheetTrackingError):
        continue_sqrt(f, both, [y, None])


def test_sheet_path_consistency():
    """y stays on the curve and varies continuously along a line path."""
    f = _g6()
    x0, x1 = 2.0 + 0.5j, -1.5 + 0.8j
    line = np.array([[x0, x1 - x0, 0]])
    sheet = piece_sheet(f, line, [np.sqrt(f(x0))])(np.arange(1))
    u = np.linspace(0.0, 1.0, 50)[:, None]
    x, _, y = sheet(u, 1.0 - u)
    x, y = x[:, 0], y[:, 0]
    assert np.all(np.abs(y ** 2 - f(x)) < 1e-10 * np.maximum(1.0,
                                                             np.abs(f(x))))
    assert np.all(np.abs(np.diff(y)) < 0.35 * np.maximum(1.0,
                                                          np.abs(y[1:])))


# -- the closed-form sheet against a dense-step continuation -----------------

# every tanh-sinh node of levels 3 to 8, where the integrands read the sheet
NODES = np.unique(np.concatenate([_nodes(level)[0] for level in range(3, 9)]))


def _dense_step(y_at, y_start, nodes=NODES):
    """Reference: the continuation of y_at(u)^2 from y_start along [0, 1]
    through nodes, each step subdivided until consecutive values are
    within 0.25 in argument and a factor 2 in modulus, the nearer of +-root
    taken at every step.  Returns its values at nodes and at the last of
    them, u = 1 for NODES (a run into a branch point stops short of it,
    where y vanishes)."""
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


def _ends_on_a_root(roots, pieces):
    """Whether each piece is the last of a run into a branch point."""
    return integration._piece_frames(np.asarray(roots, dtype=complex),
                                     pieces)[3].any(axis=0)


def _check_pieces_against_dense_step(f, roots, pieces, seeds):
    """Each piece's closed-form sheet at NODES is the dense-step
    continuation of that piece alone, from its seed or, for a chained
    piece, from the reference's end of the piece before; and so are the
    start and end values continue_sqrt chains.  A run into a branch point
    is compared at the nodes up to 1 - 1e-6, with d1 = 1 - u."""
    y0, y1 = continue_sqrt(f, pieces, seeds)
    rows = piece_sheet(f, pieces, y0)
    dives = _ends_on_a_root(roots, pieces)
    y_end = None
    for k, seed in enumerate(seeds):
        start = y0[k] if seed is None else seed
        if seed is None and y_end is not None:
            assert abs(y0[k] - y_end) <= 1e-12 * abs(y_end)
        sheet = rows(np.array([k]))
        nodes = NODES[NODES < 1 - 1e-6] if dives[k] else NODES

        def y_at(u, sheet=sheet):
            return sheet(u[:, None], 1.0 - u[:, None])[2][:, 0]

        want, y_end = _dense_step(y_at, start, nodes)
        got = y_at(nodes)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        if not dives[k]:
            assert abs(y1[k] - y_end) <= 1e-13 * abs(y_end)


def _loop(turns):
    f = _g6()
    roots = list(f.roots)
    return f, roots, np.array([[_root_near(roots, 1.0), 0.3,
                                2j * np.pi * turns]]), [None]


def _seeded():
    f = _g6()
    x0, x1 = 2.0 + 0.5j, -1.5 + 0.8j
    return (f, list(f.roots), np.array([[x0, x1 - x0, 0]]),
            [-np.sqrt(f(x0))])


def _detour():
    """path_between to a point and to its involution image, in one call:
    two chains of a line, a detour arc and a line, and for the second a
    run into a branch point after it."""
    f = _g6()
    x0, x1 = 1.0 - 0.5j, 1.0 + 0.5j
    roots, radii = list(f.roots), integration.detour_radii(f)
    assert np.any(line_with_detours(roots, radii, x0, x1)[:, 2] != 0)
    P0 = k2.CurvePoint.affine(x0, np.sqrt(f(x0)))
    P1 = k2.CurvePoint.affine(x1, np.sqrt(f(x1)))
    pieces, y0, path, weight = integration.path_between(
        f, [P0, P0], [P1, k2.CurvePoint.affine(x1, -P1.y)])
    assert np.any(path == 1) and len(pieces) > 6
    assert np.any(weight == 2) and _ends_on_a_root(roots, pieces)[-1]
    first = np.concatenate([[True], path[1:] != path[:-1]])
    return f, roots, pieces, [y if new else None
                              for y, new in zip(y0, first)]


def _fan(f):
    """Radial runs of several points, seeded and chained pieces in one
    stack, as point_infinity_integrals builds them."""
    roots = list(f.roots)
    radii = integration.detour_radii(f)
    xs = [1.1 * np.exp(0.4j), 0.45 - 0.2j, -1.4 + 0.05j]
    seeds, runs = [], []
    for x in xs:
        runs.append(line_with_detours(roots, radii, x,
                                      12.0 * np.exp(1j * np.angle(x))))
        seeds += [np.sqrt(f(x))] + [None] * (len(runs[-1]) - 1)
    return f, roots, np.concatenate(runs), seeds


def _check_segments():
    """The period segments of x^6 - 1, and a segment from -1 to 1 that
    passes 0.02 below a root, where the cofactor root turns by more than a
    right angle: the cofactor root s = y / sqrt(u d1), the sheet given
    d1 = 1 and read at u = 1e-300 for u = 0."""
    f = _g6()
    near = k2.validate_polynomial(list(np.poly([-1, 1, 0.02j, 0.6j, -3j,
                                                4])[::-1]))
    roots = list(near.roots)
    pair = [(int(np.argmin(np.abs(np.asarray(roots) - x)))) for x in (-1, 1)]
    for g, roots, pairs in ((f, list(f.roots), k2.periods.LOOP_PAIRS),
                            (near, roots, [tuple(pair)])):
        rows = segment_sheet(g, roots, pairs)
        for p in range(len(pairs)):
            def s_at(u, sheet=rows(np.array([p]))):
                u = np.maximum(u, 1e-300)[:, None]
                return (sheet(u, np.ones_like(u))[2] / np.sqrt(u))[:, 0]
            want, _ = _dense_step(s_at, s_at(np.zeros(1))[0])
            assert np.all(np.abs(s_at(NODES) - want)
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


CONTINUATIONS = {
    "closed_loop": lambda: _check_pieces_against_dense_step(*_loop(1)),
    "double_winding": lambda: _check_pieces_against_dense_step(*_loop(2)),
    "seeded_branch": lambda: _check_pieces_against_dense_step(*_seeded()),
    "detour": lambda: _check_pieces_against_dense_step(*_detour()),
    "segments": _check_segments,
    "fan_degree5": lambda: _check_pieces_against_dense_step(*_fan(_w5())),
    "fan_degree6": lambda: _check_pieces_against_dense_step(*_fan(_g6())),
    "tail_degree5": lambda: _check_tail(_w5()),
    "tail_degree6": lambda: _check_tail(_g6()),
}


@pytest.mark.parametrize("name", sorted(CONTINUATIONS))
def test_batched_continuation_matches_depth_first(name):
    """The closed-form sheet of every piece of a stack and period segment
    at the quadrature's nodes is the dense-step continuation of that
    piece alone, and a tail lands where the continuation of its seed
    does."""
    CONTINUATIONS[name]()


@pytest.mark.parametrize("coeffs", [W5_COEFFS, G6_COEFFS], ids=["w5", "g6"])
def test_closed_form_sheet_near_roots(coeffs):
    """Paths aimed exactly through roots (detour arcs of exactly pi), from
    points 1e-3 to 1e-6 off a root, each chained on into its end point's
    nearest root, and with flip loops (full turns) about roots from
    points near them: every piece's sheet is the dense-step
    continuation."""
    f = k2.validate_polynomial(coeffs)
    roots = list(f.roots)
    radii = integration.detour_radii(f)
    rng = np.random.default_rng(19)
    arcs_of_pi = 0
    for k, r in enumerate(roots):
        v = (0.6 + 0.4 * rng.random()) * np.exp(2j * np.pi * rng.random())
        delta = 10.0 ** -(3 + k % 4) * np.exp(2j * np.pi * rng.random())
        other = roots[(k + 1) % len(roots)]
        for x0, x1 in ((r - v, r + v), (r + delta, other + 0.5 * v),
                       (other - 0.4 * v, r + delta)):
            run = line_with_detours(roots, radii, x0, x1)
            arcs_of_pi += np.sum(np.abs(run[:, 2].imag) == np.pi)
            for end in (run_into_branch_point(roots, radii, x1),
                        flip_loop_pieces(roots, radii, x1)):
                pieces = np.concatenate([run, end])
                _check_pieces_against_dense_step(
                    f, roots, pieces,
                    [np.sqrt(f(x0))] + [None] * (len(pieces) - 1))
    assert arcs_of_pi >= len(roots)


def _ring_sextic():
    """A seeded unit-ring sextic: roots near |x| = 1, jittered angles."""
    rng = np.random.default_rng(2024)
    angles = (2 * np.pi * (np.arange(6) + rng.uniform(-0.3, 0.3, 6)) / 6
              + rng.uniform(0, 2 * np.pi))
    roots = rng.uniform(0.75, 1.25, 6) * np.exp(1j * angles)
    lead = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
    return k2.validate_polynomial(lead * np.poly(roots)[::-1])


@pytest.mark.parametrize("make", [_w5, _g6, _ring_sextic],
                         ids=["w5", "g6", "ring"])
def test_flip_loop_is_twice_the_run_into_its_root(make):
    """The sheet-flip loop from x about its nearest root e (out to the
    detour circle, a full turn, back on the other sheet) integrates every
    numerator to twice the run from x into e on the sheet it starts on,
    to 1e-13 of the largest, from points on both sheets near every root,
    out at 1.5 its distance to the next, and beyond the roots."""
    f = make()
    roots = list(f.roots)
    radii = integration.detour_radii(f)
    nums = integration.all_numerators(f)
    rng = np.random.default_rng(23)
    # near every root, out to 1.5 times its distance to the next
    gap = radii / integration.DETOUR_FACTOR
    xs = [r + gap[k] * rng.uniform(0.05, 1.5)
          * np.exp(2j * np.pi * rng.random()) for k, r in enumerate(roots)]
    xs += [3.0 * np.exp(2j * np.pi * rng.random()) for _ in range(3)]
    for x in xs:
        for y in np.sqrt(f(x)) * np.array([1, -1]):
            totals = []
            for pieces in (flip_loop_pieces(roots, radii, x),
                           run_into_branch_point(roots, radii, x)):
                _, y0, _ = integration._continue_runs(f, [pieces], [y])
                totals.append(integration.integrate_forms(
                    f, pieces, y0, nums).sum(axis=0))
            loop, run = totals
            assert np.max(np.abs(loop - 2 * run)) <= 1e-13 * np.max(
                np.abs(loop))


def detour_radii(roots):
    """The detour radii of a root set that is no curve's, for the
    pure-geometry tests of line_with_detours: each root's distance to the
    nearest other, times DETOUR_FACTOR, as integration.detour_radii(f)
    gives them for f.roots."""
    r = np.asarray(roots, dtype=complex)
    d = np.abs(r[:, None] - r)
    np.fill_diagonal(d, np.inf)
    return integration.DETOUR_FACTOR * d.min(axis=1)


def _junction_gap(pieces):
    """Largest real or imaginary gap between consecutive pieces."""
    gaps = x_dx(pieces[:-1], 1.0)[0] - x_dx(pieces[1:], 0.0)[0]
    return max(np.max(np.abs(gaps.real), initial=0.0),
               np.max(np.abs(gaps.imag), initial=0.0))


def test_detour_pieces_meet_exactly():
    """Lines end where the detour arcs begin, to an ulp of the scale, on
    paths aimed at a root and on runs into one; a gap of 1e-11 once
    failed the seed check on a 4.5e-4 detour of the clustered quintic."""
    clustered = np.array([0, 1e-3, 2j, -1 + 1j, 3])
    rng = np.random.default_rng(7)
    for roots in (clustered, np.exp(2j * np.pi * np.arange(6) / 6)):
        scale = float(np.max(np.abs(roots)))
        radii = detour_radii(roots)
        for _ in range(200):
            c = roots[rng.integers(len(roots))]
            x0 = 3 * scale * (rng.random() - 0.5 + 1j * (rng.random() - 0.5))
            x1 = 2 * c - x0 + 1e-3 * (rng.random() - 0.5)
            k = int(np.argmin(np.abs(roots - c)))
            for pieces in (line_with_detours(roots, radii, x0, x1),
                           line_with_detours(roots, radii, x0, c, k)):
                assert _junction_gap(pieces) <= np.spacing(scale)


_coord = st.floats(-2.0, 2.0)
_point = st.builds(complex, _coord, _coord)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(roots=st.lists(_point, min_size=5, max_size=6),
       exponent=st.integers(-2, 2), x0=_point, x1=_point,
       mode=st.sampled_from(["free", "aimed", "into"]),
       pick=st.integers(0, 5))
def test_line_with_detours_geometry(roots, exponent, x0, x1, mode, pick):
    """On random root sets at scales 1e-2 to 1e2, and on random segments,
    segments aimed through a root and runs into one: the pieces meet to an
    ulp of the scale, from x0 on to x1; every arc is centred on a root,
    with a radius within that root's detour radius and a turn of at most
    pi; no line piece enters a root's detour disc, as shrunk to keep the
    end points out; and only a run into a branch point ends on one, with
    its last piece, to an ulp."""
    unit = 10.0 ** exponent
    r = unit * np.array(roots)
    gaps = np.abs(r[:, None] - r)
    np.fill_diagonal(gaps, np.inf)
    assume(gaps.min() > 1e-3 * unit)
    k = pick % len(r)
    x0 = unit * x0
    x1 = {"free": unit * x1, "aimed": 2 * r[k] - x0 + 1e-3 * unit * x1,
          "into": r[k]}[mode]
    into = k if mode == "into" else None
    near = np.minimum(np.abs(r - x0), np.abs(r - x1))
    if into is not None:
        near[into] = np.inf
    assume(near.min() > 1e-9 * unit and abs(x1 - x0) > 1e-9 * unit)
    radii = detour_radii(r)
    pieces = line_with_detours(r, radii, x0, x1, into)
    scale = max(np.abs(r).max(), abs(x0), abs(x1))
    assert pieces[0, 0] == x0
    assert _junction_gap(pieces) <= np.spacing(scale)
    assert abs(x_dx(pieces[-1], 1.0)[0] - x1) <= np.spacing(scale)
    rho = np.minimum(radii, 0.8 * near)
    if into is not None:
        rho[into] = 0.0
    for c, R, b in pieces:
        if b != 0:
            j = np.flatnonzero(r == c)
            assert len(j) == 1 and j[0] != into
            assert abs(R) <= radii[j[0]] * (1 + 4 * np.finfo(float).eps)
            assert b.real == 0 and abs(b.imag) <= np.pi
            continue
        # the distance from each root to the segment c -> c + R
        t = np.clip(((np.conj(R) * (r - c)).real / abs(R) ** 2), 0.0, 1.0)
        dist = np.abs(c + t * R - r)
        assert np.all(dist >= rho * (1 - 1e-9))
    ends_on = _ends_on_a_root(r, pieces)
    assert list(np.flatnonzero(ends_on)) == (
        [] if into is None else [len(pieces) - 1])


def test_continue_sqrt_stack_equals_each_run_alone():
    """Every piece's start and end value from one continue_sqrt call on a
    batch's stacked runs (straight runs with detours, seeded on either
    sheet, and runs into a branch point) is, bit for bit, the value the
    run gives alone."""
    rng = np.random.default_rng(29)
    for f in (_w5(), _g6(), _ring_sextic()):
        roots = list(f.roots)
        radii = integration.detour_radii(f)
        runs, seeds = [], []
        for k in range(12):
            # aimed through a root, so the runs have detours
            x0 = 3.0 * (rng.random() - 0.5 + 1j * (rng.random() - 0.5))
            x1 = 2 * roots[k % len(roots)] - x0 + 0.1 * rng.random()
            for run in (line_with_detours(roots, radii, x0, x1),
                        run_into_branch_point(roots, radii, x1)):
                x_start = x_dx(run[0], 0.0)[0]
                y = np.sqrt(f(x_start)) * rng.choice([-1.0, 1.0])
                runs.append(run)
                seeds.append([y] + [None] * (len(run) - 1))
        y0, y1 = continue_sqrt(f, np.concatenate(runs), sum(seeds, []))
        at = 0
        for run, seed in zip(runs, seeds):
            alone = continue_sqrt(f, run, seed)
            assert np.array_equal(y0[at:at + len(run)], alone[0])
            assert np.array_equal(y1[at:at + len(run)], alone[1])
            at += len(run)
        assert at == len(y0) > len(runs)


# -- whole-path quadrature against a per-piece loop --------------------------

def _integrate_forms_piece_by_piece(f, pieces, y0, numerators):
    """Reference: one adaptive quadrature per piece of the path, piece i
    on the sheet of that piece alone from y0[i], with x and dx/du from
    each piece's own formula: z0 + u (z1 - z0) on a line, and on an arc
    c + rho exp(i (phi0 + u dphi)), dx/du = i dphi (x - c)."""
    total = np.zeros(len(numerators), dtype=complex)
    for i, (c, R, b) in enumerate(pieces):
        sheet = piece_sheet(f, pieces[i:i + 1], y0[i:i + 1])(
            np.arange(1))

        def g(u, d0, d1, sheet=sheet, c=c, R=R, b=b):
            if b == 0:
                z0, z1 = c, c + R
                x = z0 + u * (z1 - z0)
                dx = np.full_like(x, z1 - z0)
            else:
                rho, phi0, dphi = abs(R), np.angle(R), b.imag
                x = c + rho * np.exp(1j * (phi0 + u * dphi))
                dx = 1j * dphi * (x - c)
            y = sheet(u[:, None], d1[:, None])[2][:, 0]
            return np.stack([nf(x) * dx / y for nf in numerators],
                            axis=1)[:, None]
        total += _whole_stack(g)[0][0]
    return total


@pytest.mark.parametrize("coeffs", [W5_COEFFS, G6_COEFFS], ids=["w5", "g6"])
def test_integrate_forms_matches_piece_by_piece(coeffs):
    """Paths aimed through branch points (so with detour arcs), some
    chained on into a branch point: the one quadrature over all pieces
    gives the per-piece sum."""
    f = k2.validate_polynomial(coeffs)
    roots = list(f.roots)
    radii = integration.detour_radii(f)
    nums = integration.all_numerators(f)
    rng = np.random.default_rng(11)
    for k, r in enumerate(roots):
        v = (0.6 + 0.4 * rng.random()) * np.exp(2j * np.pi * rng.random())
        x0, x1 = r - v, r + v
        pieces = line_with_detours(roots, radii, x0, x1)
        assert np.any(pieces[:, 2] != 0)
        if k % 2:
            pieces = np.concatenate(
                [pieces, run_into_branch_point(roots, radii, x1)])
        _, y0, _ = integration._continue_runs(f, [pieces], [np.sqrt(f(x0))])
        got = integration.integrate_forms(f, pieces, y0, nums).sum(axis=0)
        want = _integrate_forms_piece_by_piece(f, pieces, y0, nums)
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
    stack, so the path to the involution image is the run into the
    nearest branch point alone, of weight 2."""
    f = _g6()
    roots, radii = list(f.roots), integration.detour_radii(f)
    x = 0.4 + 0.7j
    assert line_with_detours(roots, radii, x, x).shape == (0, 3)
    P = k2.CurvePoint.affine(x, np.sqrt(f(x)))
    pieces, _, _, _ = integration.path_between(f, [P], [P])
    assert pieces.shape == (0, 3)
    pieces, y0, path, weight = integration.path_between(
        f, [P], [k2.CurvePoint.affine(x, -P.y)])
    dive = run_into_branch_point(roots, radii, x)
    assert np.array_equal(pieces, dive)
    assert y0[0] == P.y and np.all(path == 0) and np.all(weight == 2)


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
