"""The hard-curve panel as a regression gate: run_suite(seed=1) on every
curve once, and one case per (curve, check) with its expected outcome.

The curves: the sextics with roots s {0, 1, 2i, -1+i, 3, -2-i} for s from
0.01 to 100, the quintics on the first five of those roots with leading
coefficient 4, sextics with one root pair 1e-3, 1e-5 and 1e-7 apart, an
ordinary sextic that once failed basis_independence, and the sextics with
two 1e-4 root pairs.  The sextics at s = 300 and 1000, and the 1e-7 pair,
are build cases only.  Each is built as np.poly(roots)[::-1], as the rest
of the tests build curves; the curve on 3 + 1e-4i is also built by
polyfromroots, since the two builds' coefficient rounding brackets its
quasi_periodicity tolerance.

A known failure is a strict xfail whose reason names the ROADMAP item
expected to fix it, so a fix shows as an XPASS that the fixing change
records here.  A passing case also holds its residual to min(tolerance,
10 x the residual measured when the table was written), so a drift shows
before it crosses the tolerance; for the two witnesses that must stay
above a floor (non_integrability, linear_independence) the bound is
max(tolerance, measured / 10) from below.
"""

from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyfromroots
import pytest

import kleinian2 as k2

pytestmark = pytest.mark.filterwarnings(
    "ignore:branch points far outside unit scale")

BASE = [0, 1, 2j, -1 + 1j, 3, -2 - 1j]
TWO_PAIRS_I = [0, 1e-4, 2j, -1 + 1j, 3, 3 + 1e-4j]
TWO_PAIRS_R = [0, 1e-4, 2j, -1 + 1j, 3, 3 + 1e-4]
ORDINARY = [-0.751 - 0.681j, -0.701 + 0.294j, -0.667 + 1.025j,
            0.449 + 0.695j, 0.544 - 1.065j, 0.831 - 0.307j]

CURVES = {
    **{f"deg6_s{s:g}": np.poly([s * r for r in BASE])[::-1]
       for s in (0.01, 0.1, 1, 10, 30, 100)},
    **{f"deg5_s{s:g}": 4.0 * np.poly([s * r for r in BASE[:5]])[::-1]
       for s in (0.01, 1, 100)},
    **{f"pair_{eps:g}": np.poly([0, eps] + BASE[2:])[::-1]
       for eps in (1e-3, 1e-5)},
    "ordinary": np.poly(ORDINARY)[::-1],
    "two_pairs_i": np.poly(TWO_PAIRS_I)[::-1],
    "two_pairs_r": np.poly(TWO_PAIRS_R)[::-1],
    "two_pairs_i_polyfromroots": polyfromroots(TWO_PAIRS_I),
}

REASONS = {
    "R": "RootSelectionAmbiguity: the cubic's roots are scored off the "
         "unit-scale model (ROADMAP item 3, one wp route and a graded "
         "residual)",
    "I": "SignResolutionError: wp = S_jk/S carries the period error of "
         "the two-pair curve (ROADMAP item 3, the ratio seeds the "
         "log-Hessian cubic)",
    "S": "a statistic that is not scale-invariant (ROADMAP item 5)",
    "P": "period error on clustered roots puts quasi_periodicity over its "
         "tolerance (ROADMAP item 4)",
    "T": "SheetTrackingError: the permuted build's cofactor endpoint "
         "check (ROADMAP item 4, spanning-tree segments)",
}

# Each check's outcome, in CHECK_NAMES order: the residual of a passing
# check (the witness of non_integrability and linear_independence), "-"
# where the check is n/a on the curve, and a REASONS key for a known
# failure.
MEASURED = {
    "deg6_s0.01": """8.99e-14 2.01e-14 1.24e-16 5.36e-14 R 1.67e-13 5.00e-14
        R 7.25e-11 2.55e-14 2.79e-10 1.18e-10 R - - - - - R R R""",
    "deg6_s0.1": """1.79e-15 1.59e-14 2.00e-16 4.42e-14 1.12e-13 1.27e-14
        7.30e-15 1.71e-20 6.05e-14 3.37e-15 2.50e-13 1.42e-13 1.74e-15
        - - - - - 2.69e-02 4.80e-15 7.35e-04""",
    "deg6_s1": """5.40e-15 4.69e-14 4.97e-16 9.78e-14 8.40e-14 1.02e-15
        7.64e-15 1.08e-15 9.84e-15 3.59e-15 1.78e-14 4.29e-15 7.23e-14
        - - - - - 8.73e+02 1.11e-14 5.60e-02""",
    "deg6_s10": """1.02e-12 2.56e-14 2.29e-16 5.46e-14 1.27e-13 3.43e-16
        6.81e-15 3.45e-22 1.98e-14 2.93e-16 2.70e-10 2.48e-15 4.94e-14
        - - - - - 7.28e+07 1.66e-14 6.03e-06""",
    "deg6_s30": """1.63e-11 2.23e-14 1.67e-16 4.54e-14 R 1.03e-15 9.73e-15
        R R 9.17e-17 1.80e-08 3.90e-15 R - - - - - R R R""",
    "deg6_s100": """9.31e-10 1.42e-14 3.25e-16 6.76e-14 R 5.91e-16 7.73e-15
        R R 4.21e-17 S 3.94e-15 R - - - - - R R R""",
    "deg5_s0.01": """9.10e-14 4.72e-14 3.51e-16 7.58e-14 8.00e-14 2.56e-28
        6.30e-15 7.64e-24 4.15e-13 8.07e-15 1.94e-12 4.22e-13 1.29e-15
        5.32e-16 2.43e-18 3.44e-14 3.90e-15 2.65e-15 - 8.01e-17
        8.31e-06""",
    "deg5_s1": """4.46e-15 3.70e-14 5.59e-16 7.68e-14 1.11e-14 4.50e-30
        7.65e-15 3.01e-16 1.52e-14 2.98e-15 3.95e-14 3.12e-15 2.97e-14
        2.47e-14 1.04e-14 8.27e-14 2.82e-15 1.90e-15 - 9.41e-15
        4.56e-02""",
    "deg5_s100": """1.46e-10 3.71e-14 3.33e-16 1.01e-13 1.68e-13 1.14e-30
        7.35e-15 9.51e-25 5.93e-15 5.95e-16 1.72e-08 1.22e-15 2.73e-14
        2.08e-14 7.33e-15 3.39e-14 3.52e-15 2.26e-15 - 2.10e-14 S""",
    "pair_0.001": """8.67e-14 7.31e-13 3.87e-15 1.59e-12 4.42e-13 1.47e-14
        4.00e-14 9.03e-15 3.32e-13 8.53e-13 1.44e-13 9.60e-14 6.02e-14
        - - - - - 5.48e+02 4.05e-14 6.06e-02""",
    "pair_1e-05": """6.23e-12 5.56e-11 1.56e-13 7.44e-11 1.57e-11 1.05e-12
        1.89e-12 7.13e-13 1.76e-11 1.79e-09 8.80e-11 7.35e-12 6.33e-14
        - - - - - 3.48e+01 2.71e-12 4.68e-02""",
    "ordinary": """4.50e-15 5.73e-14 4.58e-16 1.24e-13 6.07e-14 1.26e-15
        1.04e-14 4.71e-15 6.64e-15 3.27e-15 6.44e-15 3.01e-15 3.44e-14
        - - - - - 2.34e+01 4.62e-15 2.40e-01""",
    "two_pairs_i": """4.67e-10 3.46e-09 3.55e-14 6.74e-09 R 1.89e-12 1.07e-12
        R 7.75e-11 8.14e-09 3.66e-12 8.82e-12 7.13e-14 - - - - - 3.83e+00
        T 5.11e-04""",
    "two_pairs_r": """2.25e-10 1.67e-09 3.47e-14 3.32e-09 R 9.54e-13 6.25e-13
        R 5.41e-11 3.77e-09 3.61e-12 3.94e-12 7.26e-14 - - - - - 4.64e+00
        T 5.16e-04""",
    "two_pairs_i_polyfromroots": """8.38e-10 6.20e-09 3.39e-14 P R 1.01e-11
        4.39e-12 R 5.17e-10 I 1.73e-11 3.81e-11 8.18e-14 - - - - -
        3.83e+00 T 5.11e-04""",
}
WITNESSES = {"non_integrability", "linear_independence"}


@lru_cache(maxsize=None)
def _report(curve):
    """The suite's entries on the curve by check name, once per curve."""
    ctx = k2.make_context(k2.validate_polynomial(list(CURVES[curve])))
    return {e["name"]: e for e in k2.run_suite(ctx, seed=1).checks}


def _cases():
    for curve, row in MEASURED.items():
        cells = row.split()
        assert len(cells) == len(k2.CHECK_NAMES), curve
        for check, cell in zip(k2.CHECK_NAMES, cells):
            marks = ([pytest.mark.xfail(strict=True, reason=REASONS[cell])]
                     if cell in REASONS else [])
            yield pytest.param(curve, check, cell, marks=marks,
                               id=f"{curve}-{check}")


def test_the_table_covers_every_curve():
    assert set(MEASURED) == set(CURVES)


@pytest.mark.parametrize("curve, check, cell", list(_cases()))
def test_panel_case(curve, check, cell):
    entry = _report(curve)[check]
    if cell == "-":
        assert entry["pass"] == "n/a"
        return
    assert entry["pass"] is True, entry.get("error", entry["max_residual"])
    if cell in REASONS:
        return
    got, tol, measured = entry["max_residual"], entry["tolerance"], float(cell)
    if check in WITNESSES:
        assert got >= max(tol, measured / 10)
    else:
        assert got <= min(tol, 10 * measured)


@pytest.mark.xfail(strict=True, raises=k2.DegenerateGeometryError,
                   reason="the 1e-7 root pair defeats the loop layout "
                          "(ROADMAP item 4, spanning-tree segments)")
def test_panel_pair_1e_7_builds():
    k2.make_context(k2.validate_polynomial(
        list(np.poly([0, 1e-7] + BASE[2:])[::-1])))


@pytest.mark.xfail(strict=True, raises=k2.RiemannMatrixError,
                   reason="sym_ab, sym_a and sym_b are absolute residuals "
                          "of matrices of mixed weights (ROADMAP item 5)")
@pytest.mark.parametrize("s", [300, 1000])
def test_panel_wide_sextic_builds(s):
    k2.make_context(k2.validate_polynomial(
        list(np.poly([s * r for r in BASE])[::-1])))
