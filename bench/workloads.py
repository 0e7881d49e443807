"""The four workloads: seeded inputs, set-up, and the operations of one round.

A workload's set-up builds everything its operations need (validated
curves, contexts, points, divisors) from one seeded generator, timing
each step through the RefTimer it is given.  It returns the fixed list of
operations that makes one round; every run repeats whole rounds, so the
share of failed operations is the same in every run.
"""

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import checks

# the two reference curves of the paper's examples
W5 = (0, -4, 0, 0, 0, 4)             # 4x^5 - 4x
S6 = (-1, 0, 0, 0, 0, 0, 1)          # x^6 - 1
# A sextic on which wp_eval raises RootSelectionAmbiguity at every point:
# at this root scale all three cubic roots pass the quartic selection
# test.  Its points are fixed, independent of the seed, and counted as
# failed operations.
WIDE_SEXTIC_ROOTS = 30 * np.array([0, 1, 2j, -1 + 1j, 3, -2 - 1j])
WIDE_SEXTIC_CELL_POINTS = ((0.31, 0.22, 0.13, 0.41), (0.6, 0.15, 0.37, 0.72))
SUITE_SEED = 1
# A sextic on which the Newton search for the base-point constant finds
# nothing, so compute_period_data falls back to its 10^4-point grid
# search (about 25 times a usual build).  3 of 420 random unit-ring
# sextics tried did this; a random panel would hold a random number, so
# context_build draws its sextics from a fixed pool in which none does
# (all SEXTIC_POOL_SIZE were built once to confirm it) and builds this
# one in every round.  Its time counts toward ops_per_s with the weight
# of the share of such sextics among the round's CONTEXT_SEXTICS, as
# measured, so the grid search weighs what it would in a random panel.
FALLBACK_SEXTIC_ROOTS = (-1.059 - 0.498j, -0.947 + 0.419j, -0.272 - 0.789j,
                         0.352 + 1.108j, 0.999 - 0.52j, 1.145 + 0.206j)
FALLBACK_SEXTIC_LEAD = -0.593 + 0.184j
FALLBACK_SHARE = 3 / 420
SEXTIC_POOL_SEED = 2026
SEXTIC_POOL_SIZE = 200
CONTEXT_SEXTICS = 40

# Unit-scale random roots: n points near the unit circle, radii in
# [0.75, 1.25], angles 2 pi k / n jittered by up to 0.3 of the spacing
# either way, the whole ring randomly rotated.  Adjacent roots stay about
# 0.3 apart, and the cost of a context build varies less from curve to
# curve than with unconstrained random roots, so a panel of a few dozen
# curves gives a median that repeats across seeds.
RING_RADII = (0.75, 1.25)
RING_JITTER = 0.3
POINT_CLEARANCE = 1e-2


@dataclass(frozen=True)
class Op:
    """One operation: `run` calls the program, `check` verifies what it
    returned (raising checks.CheckFailed).  An error raised by `run` is a
    fault of the run unless `expect_failure` is set; `weight` is the op's
    share in ops_per_s."""
    degree: int
    run: Callable
    check: Callable
    expect_failure: bool = False
    weight: float = 1.0


class SuiteError(Exception):
    """A suite check raised inside run_suite (reported, not raised, by it)."""


def unit_roots(rng, n):
    lo, hi = RING_RADII
    radii = lo + (hi - lo) * rng.random(n)
    jitter = RING_JITTER * (2 * rng.random(n) - 1)
    angles = 2 * np.pi * (np.arange(n) + jitter) / n + 2 * np.pi * rng.random()
    return radii * np.exp(1j * angles)


def unit_lead(rng):
    return (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())


def from_roots(roots, lead):
    return tuple(lead * np.poly(roots)[::-1])


def weierstrass_quintic(rng):
    return from_roots(unit_roots(rng, 5), 4.0)


def general_quintic(rng):
    return from_roots(unit_roots(rng, 5), unit_lead(rng))


def sextic(rng):
    return from_roots(unit_roots(rng, 6), unit_lead(rng))


def panel(rng, n_wq, n_g5, n_s6):
    """Coefficients of the two reference curves plus Weierstrass
    quintics (f = 4 prod(x - r)), general quintics and sextics, each with
    unit-scale random roots and, for the last two, a random unit-scale
    leading coefficient."""
    return ([W5, S6] + [weierstrass_quintic(rng) for _ in range(n_wq)]
            + [general_quintic(rng) for _ in range(n_g5)]
            + [sextic(rng) for _ in range(n_s6)])


def draw(rng, pool, k):
    return [pool[i] for i in rng.choice(len(pool), k, replace=False)]


def _step(timer, fn):
    """A set-up step; it must not fail."""
    return timer.time(fn).value


def _contexts(k2, timer, coeff_list):
    fs = [_step(timer, lambda c=c: k2.validate_polynomial(c))
          for c in coeff_list]
    return [_step(timer, lambda f=f: k2.make_context(f)) for f in fs]


def _cell_point(ctx, t):
    return ctx.pd.A @ np.asarray(t[:2]) + ctx.pd.B @ np.asarray(t[2:])


# -- context_build ------------------------------------------------------------

def setup_context_build(k2, rng, timer):
    pool_rng = np.random.default_rng(SEXTIC_POOL_SEED)
    pool = [sextic(pool_rng) for _ in range(SEXTIC_POOL_SIZE)]
    coeff_list = (panel(rng, n_wq=8, n_g5=8, n_s6=0)
                  + draw(rng, pool, CONTEXT_SEXTICS)
                  + [from_roots(FALLBACK_SEXTIC_ROOTS, FALLBACK_SEXTIC_LEAD)])
    fs = [_step(timer, lambda c=c: k2.validate_polynomial(c))
          for c in coeff_list]
    # warm-up: fills the quadrature node tables and numpy's first-call
    # state, which every later build would otherwise find ready
    _step(timer, lambda: k2.make_context(fs[0]))
    ops = [Op(f.degree, lambda f=f: k2.make_context(f), checks.check_context)
           for f in fs]
    ops[-1] = replace(ops[-1], weight=FALLBACK_SHARE * CONTEXT_SEXTICS)
    return ops


# -- point_eval ---------------------------------------------------------------

POINTS_PER_CURVE = 24


def setup_point_eval(k2, rng, timer):
    ctxs = _contexts(k2, timer, panel(rng, n_wq=3, n_g5=2, n_s6=3))
    ops = []
    for ctx in ctxs:
        sigma = ctx.f.weierstrass_form
        points = []
        while len(points) < POINTS_PER_CURVE:
            z = _cell_point(ctx, rng.random(4))
            if _step(timer, lambda z=z, ctx=ctx: k2.divisor_clearance(
                    ctx, z)) < POINT_CLEARANCE:
                continue
            circle = None
            if ctx.f.degree == 6:
                # On sextics wp_eval returns a triple off the Kummer
                # surface at about 1.5e-4 of cell points (a spurious
                # cubic root wins the selection).  Where it does so at z
                # or on the check's circle the run would fail on some
                # seeds only, so such a point is left out.  Untimed: it
                # is the benchmark's work, not the user's.
                circle = checks.sjk_circle_mean(k2, ctx, z)
                if circle is None:
                    continue
            points.append((z, circle))
        ops += [Op(ctx.f.degree,
                   lambda ctx=ctx, z=z, s=sigma: k2.evaluate_bundle(
                       ctx, z, want_sigma=s),
                   lambda b, ctx=ctx, s=sigma, c=circle: checks.check_bundle(
                       ctx, b, s, c))
                for z, circle in points]
    wide = _contexts(k2, timer, [from_roots(WIDE_SEXTIC_ROOTS, 1.0)])[0]
    ops += [Op(6, lambda z=_cell_point(wide, t): k2.evaluate_bundle(wide, z),
               lambda b: checks.check_bundle(wide, b, False),
               expect_failure=True)
            for t in WIDE_SEXTIC_CELL_POINTS]
    return ops


# -- abel_invert --------------------------------------------------------------

DIVISORS_PER_CURVE = 24


def sample_divisor(rng, coeffs, roots):
    """Two affine points with x in an annulus of unit scale, clear of the
    branch points and of each other; y = +-sqrt(f(x)) with random signs."""
    scale = max(1.0, float(np.max(np.abs(roots))))
    while True:
        xs = scale * (0.3 + 1.2 * rng.random(2)) * np.exp(
            2j * np.pi * rng.random(2))
        if (np.min(np.abs(xs[:, None] - roots[None, :])) < 0.1 * scale
                or abs(xs[0] - xs[1]) < 0.1 * scale):
            continue
        signs = rng.choice([-1.0, 1.0], size=2)
        ys = signs * np.sqrt(np.polyval(coeffs[::-1], xs))
        return tuple(zip(xs.tolist(), ys.tolist()))


def setup_abel_invert(k2, rng, timer):
    ctxs = _contexts(k2, timer, panel(rng, n_wq=4, n_g5=4, n_s6=8))
    ops = []
    for ctx in ctxs:
        coeffs = checks.poly_coeffs(ctx.f)
        roots = checks.poly_roots(coeffs)
        for _ in range(DIVISORS_PER_CURVE):
            pts = sample_divisor(rng, coeffs, roots)
            D = k2.Divisor(k2.CurvePoint.affine(*pts[0]),
                           k2.CurvePoint.affine(*pts[1]))

            def run(ctx=ctx, D=D):
                z = k2.abel_forward(ctx, D)
                return z, k2.jacobi_invert(ctx, z)

            def check(out, ctx=ctx, pts=pts):
                z, inv = out
                checks.check_inversion(ctx, pts, inv, k2.wp_eval(ctx, z))

            ops.append(Op(ctx.f.degree, run, check))
    return ops


# -- verify_suite -------------------------------------------------------------

# The suite's inversion round trip fails now and then on ordinary
# unit-ring curves (a SheetTrackingError from a detour arc whose radius
# collapses when an inverted point lands near a branch point), so a
# random panel would fail on some seeds and not others.  The panel part
# is therefore drawn from a fixed pool of VERIFY_POOL_EACH curves of each
# kind (generator seed VERIFY_POOL_SEED), every one of which passed all
# 21 checks at SUITE_SEED when the pool was made.
VERIFY_POOL_SEED = 3031
VERIFY_POOL_EACH = 16


def setup_verify_suite(k2, rng, timer):
    pool_rng = np.random.default_rng(VERIFY_POOL_SEED)
    wq, g5, s6 = ([make(pool_rng) for _ in range(VERIFY_POOL_EACH)]
                  for make in (weierstrass_quintic, general_quintic, sextic))
    ctxs = _contexts(k2, timer, [W5, S6] + draw(rng, wq, 1) + draw(rng, g5, 1)
                     + draw(rng, s6, 2))
    ops = []
    for ctx in ctxs:
        for name in k2.CHECK_NAMES:
            def run(ctx=ctx, name=name):
                report = k2.run_suite(ctx, seed=SUITE_SEED, checks=[name])
                errors = [e["error"] for e in report.checks if "error" in e]
                if errors:
                    raise SuiteError(errors[0])
                return report
            ops.append(Op(ctx.f.degree, run, checks.check_report))
    return ops


def not_applicable(value):
    """A suite check that reports n/a did no work; it is attempted and
    checked but left out of the timing statistics."""
    return (hasattr(value, "checks")
            and all(e["pass"] == "n/a" for e in value.checks))


WORKLOADS = {
    "context_build": setup_context_build,
    "point_eval": setup_point_eval,
    "abel_invert": setup_abel_invert,
    "verify_suite": setup_verify_suite,
}
