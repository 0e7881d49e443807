"""Curve admission, branch points, and the two-point building blocks."""

import dataclasses

import numpy as np
import pytest

import kleinian2 as k2
from kleinian2.curve import F_eval, branch_points, involution, is_special

from conftest import G6_COEFFS, W5_COEFFS


def test_validate_degree5_weierstrass():
    f = k2.validate_polynomial(W5_COEFFS)
    assert f.degree == 5
    assert f.weierstrass_form
    assert f.coeffs[5] == 4.0
    assert f.coeffs[6] == 0.0


def test_validate_degree6():
    f = k2.validate_polynomial(G6_COEFFS)
    assert f.degree == 6
    assert not f.weierstrass_form


def test_validate_pads_short_list():
    f = k2.validate_polynomial([0, -4, 0, 0, 0, 4])
    assert f.degree == 5
    assert len(f.coeffs) == 7


def test_validate_rejects_low_degree():
    with pytest.raises(k2.DegreeError):
        k2.validate_polynomial([1, 2, 3, 4, 1, 0, 0])
    with pytest.raises(k2.DegreeError):
        k2.validate_polynomial([1, 2, 3, 4, 1, 0, 0, 0, 9])


def test_validate_rejects_repeated_roots():
    # x^3 (x - 1)^2: triple root at 0, double at 1
    with pytest.raises(k2.RepeatedRootError):
        k2.validate_polynomial([0, 0, 0, 1, -2, 1, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_validate_rejects_non_finite_coefficients(bad):
    """NaN or an infinity never reaches the root finder, which would warn
    (a RuntimeWarning fails the suite) and fail on it."""
    with pytest.raises(ValueError, match="finite"):
        k2.validate_polynomial([0, -4, 0, bad, 0, 4, 0])


def test_roots_past_the_double_range_raise_convergence_error():
    """f6 = 1e-300 puts a root near -4e300, whose residual bound
    overflows: a ConvergenceError, not an OverflowError, and no numpy
    warning on the way."""
    with pytest.raises(k2.ConvergenceError, match="not finite"):
        k2.validate_polynomial([0, -4, 0, 0, 0, 4, 1e-300])


def test_polynomial_is_callable():
    f = k2.validate_polynomial(G6_COEFFS)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = complex(rng.normal(), rng.normal())
        assert abs(f(x) - (x ** 6 - 1)) <= 1e-12 * max(1.0, abs(x) ** 6)


def test_branch_points_deterministic_and_accurate():
    f = k2.validate_polynomial(W5_COEFFS)
    roots = branch_points(f)
    want = sorted([-1, -1j, 0, 1j, 1], key=lambda r: (r.real, r.imag))
    assert len(roots) == 5
    for got, ref in zip(roots, want):
        assert abs(got - ref) < 1e-12
    again = branch_points(f)
    assert np.array_equal(np.asarray(roots), np.asarray(again))


def test_involution_flips_y_and_infinity_label():
    P = k2.CurvePoint(0.5 + 0.1j, 0.3 - 0.2j)
    J = involution(P)
    assert J.x == P.x and J.y == -P.y
    assert involution(k2.CurvePoint.at_infinity(1)).infinity == 2
    assert involution(k2.CurvePoint.at_infinity(2)).infinity == 1


def test_is_special():
    f = k2.validate_polynomial(G6_COEFFS)
    x = 1.3 + 0.2j
    y = np.sqrt(f(x))
    P = k2.CurvePoint(x, y)
    assert is_special(f, k2.Divisor(P, involution(P)))
    assert not is_special(f, k2.Divisor(P, P))
    assert not is_special(f, k2.Divisor(P, k2.CurvePoint(2.0, np.sqrt(f(2.0)))))
    # the two distinct infinite points of a sextic pair up under J
    inf1, inf2 = k2.CurvePoint.at_infinity(1), k2.CurvePoint.at_infinity(2)
    assert is_special(f, k2.Divisor(inf1, inf2))
    assert not is_special(f, k2.Divisor(inf1, inf1))
    f5 = k2.validate_polynomial(W5_COEFFS)
    assert is_special(f5, k2.Divisor(inf1, inf1))


def test_F_diagonal_is_twice_f():
    rng = np.random.default_rng(11)
    for coeffs in (W5_COEFFS, G6_COEFFS):
        f = k2.validate_polynomial(coeffs)
        for _ in range(20):
            x = complex(rng.normal(), rng.normal())
            assert abs(F_eval(f, x, x) - 2 * f(x)) <= 1e-12 * (1 + abs(f(x)))


def test_F_symmetric():
    f = k2.validate_polynomial(G6_COEFFS)
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        assert F_eval(f, a, b) == F_eval(f, b, a)


def test_xi_matches_direct_formula():
    f = k2.validate_polynomial(G6_COEFFS)
    rng = np.random.default_rng(13)
    for _ in range(20):
        x1 = complex(rng.normal(), rng.normal())
        x2 = complex(rng.normal(), rng.normal())
        if abs(x1 - x2) < 0.3:
            continue
        y1, y2 = np.sqrt(f(x1)), -np.sqrt(f(x2))
        D = k2.Divisor(k2.CurvePoint(x1, y1), k2.CurvePoint(x2, y2))
        xi11, xi12, xi22 = k2.xi_eval(f, D)
        assert abs(xi22 - (x1 + x2)) < 1e-12 * (1 + abs(x1 + x2))
        assert abs(xi12 - (-x1 * x2)) < 1e-12 * (1 + abs(x1 * x2))
        direct = (F_eval(f, x1, x2) - 2 * y1 * y2) / (4 * (x1 - x2) ** 2)
        assert abs(xi11 - direct) < 1e-10 * (1 + abs(direct))


def test_xi11_stable_near_diagonal():
    """Same-sheet xi_11 has a removable singularity at x1 = x2, so values
    must stay finite and converge as the points coalesce."""
    f = k2.validate_polynomial(G6_COEFFS)
    x0 = 1.4 + 0.3j
    ref = None
    for eps in (1e-2, 1e-4, 1e-6, 1e-9, 1e-12):
        x1, x2 = x0 + eps / 2, x0 - eps / 2
        D = k2.Divisor(k2.CurvePoint(x1, np.sqrt(f(x1))),
                       k2.CurvePoint(x2, np.sqrt(f(x2))))
        xi11 = k2.xi_eval(f, D)[0]
        assert np.isfinite(xi11)
        if ref is None:
            ref = xi11
        assert abs(xi11 - ref) < 1e-3 * (1 + abs(ref))


def test_xi_rejects_special_divisor():
    f = k2.validate_polynomial(G6_COEFFS)
    x = 0.9 + 0.4j
    y = np.sqrt(f(x))
    D = k2.Divisor(k2.CurvePoint(x, y), k2.CurvePoint(x, -y))
    with pytest.raises(k2.SpecialDivisorError):
        k2.xi_eval(f, D)


def test_roots_are_solved_once_per_curve(monkeypatch):
    """validate_polynomial keeps its polished roots on the polynomial, so
    a validated curve and its context take one np.roots call between
    them, and branch_points returns those roots."""
    calls = []
    roots = np.roots

    def counted(p):
        calls.append(1)
        return roots(p)

    monkeypatch.setattr(np, "roots", counted)
    for coeffs in ([0, -4, 0, 0, 0, 4], [-1, 0, 0, 0, 0, 0, 1]):
        f = k2.validate_polynomial(coeffs)
        k2.make_context(f)
        assert len(calls) == 1
        assert branch_points(f) == list(f.roots)
        calls.clear()


def test_roots_follow_the_coefficients():
    """The roots are no constructor argument, and a copy with other
    coefficients solves for its own."""
    f = k2.validate_polynomial(W5_COEFFS)
    with pytest.raises(TypeError):
        k2.AdmissiblePolynomial(f.coeffs, f.degree, f.weierstrass_form,
                                roots=f.roots)
    g = k2.validate_polynomial(G6_COEFFS)
    h = dataclasses.replace(f, coeffs=g.coeffs, degree=6,
                            weierstrass_form=False)
    assert h == g
    assert h.roots == g.roots
