"""Acceptance gate: every stated requirement, one test per criterion.

Each test runs the full requirement on both fixed curves (W5: 4x^5 - 4x,
G6: x^6 - 1) at the stated tolerance, so the verbose pytest output is one
pass/fail line per criterion.
"""

from dataclasses import replace

import numpy as np
import pytest

import kleinian2 as k2
from kleinian2.kleinian import log_S_gradient, rho_lambda_eval
from kleinian2.periods import eta_of_lattice, lattice_vector
from kleinian2.theta import theta_jet

from conftest import sample_divisor, sample_z

JET_TARGETS = {
    "S": {"00": 0, "10": 0, "01": 0, "20": 2, "11": 0, "02": 0},
    "S11": {"00": 1, "10": 0, "01": 0, "20": 0, "11": 0, "02": 0},
    "S12": {"00": 0, "10": 0, "01": 0, "20": 0, "11": 0, "02": -2},
    "S22": {"00": 0, "10": 0, "01": 0, "20": 0, "11": 2, "02": 0},
}


def both(w5_ctx, g6_ctx):
    return (("W5", w5_ctx), ("G6", g6_ctx))


def test_01_period_certification(w5_ctx, g6_ctx):
    for label, ctx in both(w5_ctx, g6_ctx):
        pd = ctx.pd
        sym = np.max(np.abs(pd.Omega - pd.Omega.T))
        assert sym < 1e-9, f"{label}: |Omega - Omega^T| = {sym:.3e}"
        lam = np.min(np.linalg.eigvalsh(pd.Omega.imag))
        assert lam > 0, f"{label}: lam_min(Im Omega) = {lam:.3e}"
        eye = 2j * np.pi * np.eye(2)
        leg = np.max(np.abs(pd.etaA.T @ pd.B - pd.A.T @ pd.etaB - eye))
        assert leg < 1e-8, f"{label}: Legendre residual {leg:.3e}"
        symms = [pd.B @ pd.etaA.T - pd.A @ pd.etaB.T - eye,
                 pd.etaA.T @ pd.A - (pd.etaA.T @ pd.A).T,
                 pd.etaB.T @ pd.B - (pd.etaB.T @ pd.B).T]
        worst = max(float(np.max(np.abs(M))) for M in symms)
        assert worst < 1e-8, f"{label}: symmetry identities {worst:.3e}"


def test_02_eta_integrality(w5_ctx, g6_ctx):
    rng = np.random.default_rng(102)
    for label, ctx in both(w5_ctx, g6_ctx):
        pd = ctx.pd
        worst = 0.0
        for _ in range(20):
            a = rng.integers(-2, 3, 4)
            b = rng.integers(-2, 3, 4)
            v, w = lattice_vector(pd, a), lattice_vector(pd, b)
            ev, ew = eta_of_lattice(pd, a), eta_of_lattice(pd, b)
            q = (ew @ v - ev @ w) / (2j * np.pi)
            worst = max(worst, abs(q - round(q.real)))
        assert worst < 1e-8, f"{label}: eta pairing off 2 pi i Z by {worst:.3e}"


def test_03_weight2_quasi_periodicity(w5_ctx, g6_ctx):
    rng = np.random.default_rng(103)
    for label, ctx in both(w5_ctx, g6_ctx):
        worst = 0.0
        for _ in range(20):
            z = sample_z(ctx, rng)
            mn = rng.integers(-2, 3, 4)
            if not mn.any():
                mn[0] = 1
            w = lattice_vector(ctx.pd, mn)
            factor = np.exp(2.0 * eta_of_lattice(ctx.pd, mn) @ (z + 0.5 * w))
            vals = np.array([k2.S_eval(ctx, z)] + list(k2.S_jk_eval(ctx, z)))
            shifted = np.array([k2.S_eval(ctx, z + w)]
                               + list(k2.S_jk_eval(ctx, z + w)))
            resid = np.abs(shifted - factor * vals)
            scale = np.maximum(np.abs(shifted), np.abs(factor * vals))
            worst = max(worst, float(np.max(resid / np.maximum(scale, 1e-300))))
        assert worst < 1e-8, f"{label}: quasi-periodicity residual {worst:.3e}"


def test_04_taylor_expansions(w5_ctx, g6_ctx):
    for label, ctx in both(w5_ctx, g6_ctx):
        jets = k2.measure_taylor_jets(ctx)
        worst = max(abs(jets[name][key] - target)
                    for name, want in JET_TARGETS.items()
                    for key, target in want.items())
        assert worst < 1e-6, f"{label}: worst jet deviation {worst:.3e}"


def test_05_quartic_certificate(w5_ctx, g6_ctx):
    rng = np.random.default_rng(105)
    for label, ctx in both(w5_ctx, g6_ctx):
        worst = 0.0
        for _ in range(20):
            z = sample_z(ctx, rng)
            worst = max(worst, k2.quartic_residual(ctx.f, *k2.wp_eval(ctx, z)))
        assert worst < 1e-7, f"{label}: scaled quartic determinant {worst:.3e}"


def test_06_forward_and_inversion(w5_ctx, g6_ctx):
    rng = np.random.default_rng(106)
    for label, ctx in both(w5_ctx, g6_ctx):
        worst = 0.0
        for _ in range(10):
            D = sample_divisor(ctx, rng)
            z = k2.abel_forward(ctx, D)
            got = np.array(k2.wp_eval(ctx, z))
            want = np.array(k2.xi_eval(ctx.f, D))
            ref = max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))) / ref)
        assert worst < 1e-7, f"{label}: forward consistency {worst:.3e}"
        worst = 0.0
        for _ in range(10):
            z = sample_z(ctx, rng)
            back = k2.abel_forward(ctx, k2.jacobi_invert(ctx, z))
            resid = k2.nearest_lattice_residual(ctx.pd, back - z)
            worst = max(worst, resid / max(1.0, float(np.linalg.norm(z))))
        assert worst < 1e-7, f"{label}: inversion round trip {worst:.3e}"


def test_07_sigma_family(w5_ctx):
    ctx = w5_ctx
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(10):
        z = sample_z(ctx, rng)
        s, sig = k2.S_eval(ctx, z), k2.sigma_eval(ctx, z)
        worst = max(worst, abs(sig ** 2 - s) / abs(s))
    assert worst < 1e-8, f"sigma^2 vs S: {worst:.3e}"

    worst = 0.0
    for _ in range(10):
        z = sample_z(ctx, rng)
        j = k2.sigma_jets(ctx, z, order=2)
        s = j[(0, 0)]
        grad = np.array([j[(1, 0)], j[(0, 1)]])
        hess = np.array([[j[(2, 0)], j[(1, 1)]], [j[(1, 1)], j[(0, 2)]]])
        h2 = hess / s - np.outer(grad, grad) / s ** 2
        got = np.array([-h2[0, 0], -h2[0, 1], -h2[1, 1]])
        want = np.array(k2.wp_eval(ctx, z))
        ref = max(1.0, float(np.max(np.abs(want))))
        worst = max(worst, float(np.max(np.abs(got - want))) / ref)
    assert worst < 1e-6, f"wp vs -dd log sigma: {worst:.3e}"

    worst = 0.0
    done = 0
    while done < 10:
        u, v = sample_z(ctx, rng), sample_z(ctx, rng)
        if (k2.divisor_clearance(ctx, u + v) < 1e-3
                or k2.divisor_clearance(ctx, u - v) < 1e-3):
            continue
        lhs = (k2.sigma_eval(ctx, u + v) * k2.sigma_eval(ctx, u - v)
               / (k2.sigma_eval(ctx, u) ** 2 * k2.sigma_eval(ctx, v) ** 2))
        pu, pv = k2.wp_eval(ctx, u), k2.wp_eval(ctx, v)
        rhs = pu[2] * pv[1] - pv[2] * pu[1] + pv[0] - pu[0]
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        done += 1
    assert worst < 1e-6, f"addition formula: {worst:.3e}"

    worst = 0.0
    done = 0
    while done < 10:
        z = sample_z(ctx, rng)
        if k2.divisor_clearance(ctx, 2 * z) < 1e-3:
            continue
        j = k2.sigma_jets(ctx, z, order=3)
        s, s1, s2 = j[(0, 0)], j[(1, 0)], j[(0, 1)]
        s11, s12, s22 = j[(2, 0)], j[(1, 1)], j[(0, 2)]
        s111, s112, s122 = j[(3, 0)], j[(2, 1)], j[(1, 2)]
        S = s ** 2
        d1S = 2 * s * s1
        S11, S12, S22 = s1 * s1 - s * s11, s1 * s2 - s * s12, s2 * s2 - s * s22
        d1S11 = s1 * s11 - s * s111
        d1S12 = s11 * s2 - s * s112
        d1S22 = 2 * s12 * s2 - s1 * s22 - s * s122
        rhs = S12 * d1S22 - S22 * d1S12 + S11 * d1S - S * d1S11
        lhs = k2.sigma_eval(ctx, 2 * z)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        done += 1
    assert worst < 1e-6, f"duplication: {worst:.3e}"


def test_08_derivative_identities(w5_ctx, g6_ctx):
    rng = np.random.default_rng(108)
    for label, ctx in both(w5_ctx, g6_ctx):
        worst = 0.0
        done = 0
        while done < 10:
            D = sample_divisor(ctx, rng)
            try:
                r1, r2, lam, z = rho_lambda_eval(ctx, D)
            except k2.DiagonalError:
                continue
            if k2.divisor_clearance(ctx, z) < 1e-4:
                continue
            g = log_S_gradient(ctx, z)
            ref = max(1.0, float(np.max(np.abs(g))), abs(lam))
            worst = max(worst, abs(g[0] + 2 * r1 - lam) / ref,
                        abs(g[1] + 2 * r2) / ref)
            done += 1
        assert worst < 1e-6, f"{label}: first-derivative identity {worst:.3e}"

    # the wp_jk of the sextic do not glue to a single potential
    ctx = g6_ctx
    h = 1e-5
    e1, e2 = np.eye(2)
    witness = 0.0
    for _ in range(10):
        z = sample_z(ctx, rng, clearance=1e-2)
        d11_2 = (k2.wp_eval(ctx, z + h * e2)[0]
                 - k2.wp_eval(ctx, z - h * e2)[0]) / (2 * h)
        d12_1 = (k2.wp_eval(ctx, z + h * e1)[1]
                 - k2.wp_eval(ctx, z - h * e1)[1]) / (2 * h)
        witness = max(witness, abs(d11_2 - d12_1))
    assert witness > 1e-3, f"G6: non-integrability witness {witness:.3e}"


def test_09_robustness_rebuilds(w5_ctx, g6_ctx):
    rng = np.random.default_rng(109)
    for label, ctx in both(w5_ctx, g6_ctx):
        n = len(ctx.pd.roots)
        perm = (1, 0, 2, 4, 3) + ((5,) if n == 6 else ())
        pd2 = k2.compute_period_data(ctx.f, ordering=perm)
        ctx2 = k2.make_context(ctx.f, pd=pd2)
        worst = 0.0
        for _ in range(5):
            z = sample_z(ctx, rng, clearance=0.05)
            a = np.array(k2.wp_eval(ctx, z))
            b = np.array(k2.wp_eval(ctx2, z))
            ref = max(1.0, float(np.max(np.abs(a))))
            worst = max(worst, float(np.max(np.abs(a - b))) / ref)
        assert worst < 1e-7, f"{label}: permuted rebuild wp drift {worst:.3e}"

        m, n_ = rng.integers(-1, 2, 2), rng.integers(-1, 2, 2)
        if not (m.any() or n_.any()):
            m = np.array([1, 0])
        # the shift moves theta at the Abel samples by its quasi-periodicity
        # factor, so the copy drops them, as the suite's copy does
        pd3 = replace(ctx.pd, Delta=ctx.pd.Delta + (n_ + ctx.pd.Omega @ m),
                      abel_samples=None)
        ctx3 = k2.make_context(ctx.f, pd=pd3)
        worst = 0.0
        for _ in range(5):
            z = sample_z(ctx, rng)
            a, b = k2.S_eval(ctx, z), k2.S_eval(ctx3, z)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
        assert worst < 1e-9, f"{label}: Delta-shift rebuild S drift {worst:.3e}"


def test_10_theta_engine(g6_ctx):
    # quasi-periodicity at 1e-10
    rng = np.random.default_rng(110)
    Omega = g6_ctx.pd.Omega

    def jet(Omega, z, order):
        """The jet of theta: theta_jet's V times exp(s)."""
        s, V = theta_jet(Omega, z, order)
        return np.exp(s) * V

    worst = 0.0
    for _ in range(20):
        z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        n = rng.integers(-2, 3, 2)
        m = rng.integers(-2, 3, 2)
        lhs = jet(Omega, z + n + Omega @ m, 0)[0, 0]
        rhs = (np.exp(-1j * np.pi * m @ Omega @ m - 2j * np.pi * m @ z)
               * jet(Omega, z, 0)[0, 0])
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    assert worst < 1e-10, f"theta quasi-periodicity {worst:.3e}"

    # every derivative of order <= 3 against central differences
    def fd(fn, z, k, step):
        if k == 0:
            return fn(z)
        e = np.array([step, 0.0])
        return (fd(fn, z + e, k - 1, step)
                - fd(fn, z - e, k - 1, step)) / (2 * step)

    worst = 0.0
    h = 1e-2
    for k1 in range(4):
        for k2_ in range(4 - k1):
            if k1 + k2_ == 0:
                continue
            for _ in range(3):
                z = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.2, 0.2, 2)
                fn = lambda w: jet(Omega, w, k2_)[0, k2_]
                coarse, fine = fd(fn, z, k1, h), fd(fn, z, k1, h / 2)
                est = (4 * fine - coarse) / 3 if k1 else fine
                got = jet(Omega, z, k1 + k2_)[k1, k2_]
                worst = max(worst, abs(got - est) / max(1.0, abs(got)))
    assert worst < 1e-6, f"theta derivative vs finite differences {worst:.3e}"

    # factorized point against the classical 1-D series
    one_d = sum(np.exp(-np.pi * k ** 2) for k in range(-40, 41))
    resid = abs(jet(1j * np.eye(2), np.zeros(2), 0)[0, 0] - one_d ** 2)
    assert resid < 1e-12, f"theta(0; iI) vs 1-D series {resid:.3e}"
