"""Shared fixtures: the two reference curves with certified period data,
samplers, and the sheet-flip loop that Abel paths once ended in, kept as
the reference for the runs into a branch point that replaced it.

Period computation dominates the runtime, so the contexts are built once
per session and shared read-only (all arrays are frozen).
"""

import numpy as np
import pytest

import kleinian2 as k2
from kleinian2.curve import is_special
from kleinian2.integration import line_with_detours, x_dx

W5_COEFFS = [0.0, -4.0, 0.0, 0.0, 0.0, 4.0, 0.0]
G6_COEFFS = [-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]


@pytest.fixture(scope="session")
def w5_ctx():
    return k2.make_context(k2.validate_polynomial(W5_COEFFS))


@pytest.fixture(scope="session")
def g6_ctx():
    return k2.make_context(k2.validate_polynomial(G6_COEFFS))


@pytest.fixture(scope="session", params=["w5", "g6"])
def any_ctx(request, w5_ctx, g6_ctx):
    return w5_ctx if request.param == "w5" else g6_ctx


def sample_z(ctx, rng, clearance=1e-2):
    """Random z in the fundamental cell, away from the zero set of S."""
    while True:
        t = rng.uniform(-0.5, 0.5, 4)
        z = ctx.pd.A @ t[:2] + ctx.pd.B @ t[2:]
        if k2.divisor_clearance(ctx, z) > clearance:
            return z


def sample_divisor(ctx, rng):
    """Random non-special affine divisor with well-separated x values."""
    f, scale = ctx.f, ctx.f.scale
    while True:
        xs = []
        for _ in range(2):
            r = scale * rng.uniform(0.3, 1.5)
            xs.append(r * np.exp(2j * np.pi * rng.uniform()))
        if abs(xs[0] - xs[1]) < 0.05 * scale:
            continue
        if min(abs(x - b) for x in xs for b in ctx.pd.roots) < 0.05 * scale:
            continue
        ys = [np.sqrt(f(x)) * rng.choice([-1.0, 1.0]) for x in xs]
        D = k2.Divisor(k2.CurvePoint(xs[0], ys[0]), k2.CurvePoint(xs[1], ys[1]))
        if not is_special(f, D):
            return D


def flip_loop_pieces(roots, radii, x_at):
    """Reference: the sheet-flip loop from x_at about its nearest root,
    as Abel paths once ended in it: the run out to the root's detour
    circle (radius at most 0.6 of the distance), one full turn, and the
    run back.  It integrates to twice the run from x_at into the root."""
    x_at = complex(x_at)
    r_arr = np.asarray(roots)
    k = int(np.argmin(np.abs(r_arr - x_at)))
    r = complex(r_arr[k])
    rho = min(radii[k], 0.6 * abs(x_at - r))
    arc = np.array([[r, rho * np.exp(1j * np.angle(x_at - r)), 2j * np.pi]])
    ends, _ = x_dx(arc, np.array([[0.0], [1.0]]))
    return np.concatenate([line_with_detours(roots, radii, x_at, ends[0, 0]),
                           arc,
                           line_with_detours(roots, radii, ends[1, 0], x_at)])
