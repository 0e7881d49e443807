"""Self-verification suite for the function family on one curve.

Each check draws its own deterministically seeded samples, measures the
worst residual of one identity, and reports pass/fail against a fixed
tolerance.  Checks that only make sense for one curve shape (the sigma
family needs degree 5 in Weierstrass form, non-integrability needs a
nonzero leading coefficient) report "n/a" on the other shape.  Failures
are report entries, never exceptions, so one bad identity cannot hide
the state of the others.
"""

from dataclasses import dataclass, replace

import numpy as np

from .curve import CurvePoint, Divisor, xi_eval
from .errors import DegenerateGeometryError, KleinianError
from .kleinian import (DIAG_FACTOR, S_eval, S_jk_eval, TOL_ID,
                       divisor_clearance, log_S_gradient, make_context,
                       quartic_residual, rho_lambda_eval, sigma_eval,
                       sigma_jets, jacobi_invert, abel_forward, wp_eval)
from .periods import (compute_period_data, eta_of_lattice, lattice_vector,
                      nearest_lattice_residual)

TINY = 1e-300
SAMPLE_TRIES = 300      # draws before a sampler gives up
JET_RADIUS = 0.25       # Taylor-jet circle radius, times jet_scale
JET_NODES = 32          # trapezoid nodes on the Taylor-jet circle
FD_NODES = 16           # nodes on each circle of _fd_log_hessian


# -- samplers -----------------------------------------------------------------

def _rng(seed, index):
    return np.random.default_rng(seed * 1000 + index)


def _sample_z(ctx, rng, clearance=1e-3):
    pd = ctx.pd
    for _ in range(SAMPLE_TRIES):
        t = rng.random(4)
        z = pd.A @ t[:2] + pd.B @ t[2:]
        if divisor_clearance(ctx, z) >= clearance:
            return z
    raise KleinianError("could not sample a point clear of the divisor")


def _sample_lattice(rng):
    while True:
        k = rng.integers(-2, 3, size=4)
        if np.any(k != 0):
            return k[:2], k[2:]


def _sample_divisor(ctx, rng):
    f, scale = ctx.f, ctx.pd.scale
    roots = ctx.pd.roots
    for _ in range(SAMPLE_TRIES):
        xs = []
        for _ in range(2):
            r = scale * (0.3 + 1.2 * rng.random())
            xs.append(r * np.exp(2j * np.pi * rng.random()))
        if min(abs(x - r0) for x in xs for r0 in roots) < 0.05 * scale:
            continue
        if abs(xs[0] - xs[1]) < 10 * DIAG_FACTOR * scale:
            continue
        ys = [float(rng.choice([-1.0, 1.0])) * np.sqrt(complex(f(x)))
              for x in xs]
        return Divisor(CurvePoint.affine(xs[0], ys[0]),
                       CurvePoint.affine(xs[1], ys[1]))
    raise KleinianError("could not sample a generic divisor")


def _rel(diff, *refs):
    return float(abs(diff) / max(1.0, *[abs(r) for r in refs]))


# -- finite-difference jets ---------------------------------------------------

def measure_taylor_jets(ctx):
    """Order-2 jets of S, S11, S12, S22 at the origin, measured by Cauchy
    circle quadrature along three directions.

    The functions are entire, so a uniform trapezoid sum around |t| = r
    recovers directional Taylor coefficients with spectral accuracy, and
    every sample sits safely off the zero set of S (no tiny-step
    amplification of evaluation noise).  Returns a dict mapping function
    name to {"00", "10", "01", "20", "11", "02"} derivative values.
    """
    radius = JET_RADIUS * ctx.jet_scale
    names = ("S", "S11", "S12", "S22")
    s = 1.0 / np.sqrt(2.0)
    dirs = {"e1": np.array([1.0, 0]), "e2": np.array([0, 1.0]),
            "diag": np.array([s, s])}
    phases = np.exp(2j * np.pi * np.arange(JET_NODES) / JET_NODES)

    # b[d][name][m] = sum over j+k = m of c_jk d1^j d2^k, m = 0, 1, 2
    b = {}
    for dname, d in dirs.items():
        samples = {name: np.zeros(JET_NODES, dtype=complex) for name in names}
        for i, ph in enumerate(phases):
            z = radius * ph * d
            samples["S"][i] = S_eval(ctx, z)
            s11, s12, s22 = S_jk_eval(ctx, z)
            samples["S11"][i] = s11
            samples["S12"][i] = s12
            samples["S22"][i] = s22
        b[dname] = {
            name: [np.mean(vals * phases ** -m) / radius ** m
                   for m in range(3)]
            for name, vals in samples.items()}

    out = {}
    for name in names:
        c20 = b["e1"][name][2]
        c02 = b["e2"][name][2]
        c11 = 2.0 * b["diag"][name][2] - c20 - c02
        out[name] = {"00": b["e1"][name][0],
                     "10": b["e1"][name][1],
                     "01": b["e2"][name][1],
                     "20": 2.0 * c20,
                     "11": c11,
                     "02": 2.0 * c02}
    return out


def _fd_log_hessian(ctx, z, h):
    """Hessian of log S, measured by differentiating the analytic gradient
    around a circle of radius h (spectrally accurate for the meromorphic
    gradient, unlike a central difference whose truncation error grows with
    the local curvature)."""
    phases = np.exp(2j * np.pi * np.arange(FD_NODES) / FD_NODES)
    L = np.zeros((2, 2), dtype=complex)
    for k, e in enumerate((np.array([1.0, 0]), np.array([0, 1.0]))):
        vals = np.array([log_S_gradient(ctx, z + h * ph * e)
                         for ph in phases])
        L[:, k] = (vals / phases[:, None]).mean(axis=0) / h
    return 0.5 * (L + L.T)


# -- individual checks --------------------------------------------------------

def _check_legendre(ctx, rng, tol):
    pd = ctx.pd
    eye = 2j * np.pi * np.eye(2)
    res = [np.max(np.abs(pd.etaA.T @ pd.B - pd.A.T @ pd.etaB - eye)),
           np.max(np.abs(pd.B @ pd.etaA.T - pd.A @ pd.etaB.T - eye)),
           np.max(np.abs(pd.etaA @ pd.etaB.T - (pd.etaA @ pd.etaB.T).T)),
           np.max(np.abs(pd.etaA.T @ pd.A - (pd.etaA.T @ pd.A).T)),
           np.max(np.abs(pd.etaB.T @ pd.B - (pd.etaB.T @ pd.B).T))]
    worst = float(max(res))
    return 1, worst, worst <= tol


def _check_eta_integrality(ctx, rng, tol):
    pd = ctx.pd
    worst = 0.0
    for _ in range(20):
        mv, nv = _sample_lattice(rng)
        mw, nw = _sample_lattice(rng)
        v = lattice_vector(pd, mv, nv)
        w = lattice_vector(pd, mw, nw)
        r = (eta_of_lattice(pd, mw, nw) @ v
             - eta_of_lattice(pd, mv, nv) @ w)
        k = np.round((r / (2j * np.pi)).real)
        worst = max(worst, abs(r - 2j * np.pi * k))
    return 20, float(worst), worst <= tol


def _check_riemann_matrix(ctx, rng, tol):
    Om = ctx.pd.Omega
    sym = float(np.max(np.abs(Om - Om.T)))
    lam = float(np.min(np.linalg.eigvalsh(0.5 * (Om + Om.T).imag)))
    return 1, sym, sym <= tol and lam > 0


def _check_quasi_periodicity(ctx, rng, tol):
    pd = ctx.pd
    worst = 0.0
    for _ in range(20):
        z = _sample_z(ctx, rng)
        m, n = _sample_lattice(rng)
        w = lattice_vector(pd, m, n)
        fac = np.exp(2.0 * (eta_of_lattice(pd, m, n) @ (z + w / 2)))
        a = [S_eval(ctx, z + w), *S_jk_eval(ctx, z + w)]
        b = [S_eval(ctx, z), *S_jk_eval(ctx, z)]
        for x, y in zip(a, b):
            worst = max(worst, abs(x - fac * y) / max(abs(x), abs(fac * y),
                                                      TINY))
    return 20, float(worst), worst <= tol


def _check_evenness(ctx, rng, tol):
    worst = 0.0
    for _ in range(20):
        z = _sample_z(ctx, rng)
        a = [S_eval(ctx, z), *S_jk_eval(ctx, z), *wp_eval(ctx, z)]
        b = [S_eval(ctx, -z), *S_jk_eval(ctx, -z), *wp_eval(ctx, -z)]
        for x, y in zip(a, b):
            worst = max(worst, _rel(x - y, x, y))
    return 20, float(worst), worst <= tol


def _check_s_divisor_vanishing(ctx, rng, tol):
    worst = 0.0
    d = 0.25 * ctx.jet_scale
    for _ in range(5):
        x = ctx.pd.scale * (1.2 + 0.4 * rng.random()) * np.exp(
            2j * np.pi * rng.random())
        y = float(rng.choice([-1.0, 1.0])) * np.sqrt(complex(ctx.f(x)))
        D = Divisor(CurvePoint.affine(x, y), CurvePoint.at_infinity(1))
        z = abel_forward(ctx, D)
        ref = max(abs(S_eval(ctx, z + np.array([d, 0]))),
                  abs(S_eval(ctx, z + np.array([0, d]))), TINY)
        worst = max(worst, abs(S_eval(ctx, z)) / ref)
    return 5, float(worst), worst <= tol


def _check_delta_shift(ctx, rng, tol):
    pd = ctx.pd
    m, n = _sample_lattice(rng)
    shift = np.asarray(n, dtype=complex) + pd.Omega @ np.asarray(
        m, dtype=complex)
    char = pd.delta_char
    if char is not None:
        char = (tuple(np.asarray(char[0]) + 2 * np.asarray(n)),
                tuple(np.asarray(char[1]) + 2 * np.asarray(m)))
    pd2 = replace(pd, Delta=pd.Delta + shift, delta_char=char)
    ctx2 = make_context(ctx.f, pd2)
    worst = 0.0
    for _ in range(10):
        z = _sample_z(ctx, rng)
        a, b = S_eval(ctx, z), S_eval(ctx2, z)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), TINY))
    return 10, float(worst), worst <= tol


def _check_quartic_determinant(ctx, rng, tol):
    worst = 0.0
    for _ in range(20):
        z = _sample_z(ctx, rng)
        worst = max(worst, quartic_residual(ctx.f, *wp_eval(ctx, z)))
    return 20, float(worst), worst <= tol


def _check_forward_consistency(ctx, rng, tol):
    worst = 0.0
    for _ in range(10):
        D = _sample_divisor(ctx, rng)
        z = abel_forward(ctx, D)
        if divisor_clearance(ctx, z) < 1e-4:
            continue
        got = wp_eval(ctx, z)
        want = xi_eval(ctx.f, D)
        for g, w0 in zip(got, want):
            worst = max(worst, _rel(g - w0, w0))
    return 10, float(worst), worst <= tol


def _check_round_trip(ctx, rng, tol):
    worst = 0.0
    for _ in range(20):
        z = _sample_z(ctx, rng)
        D = jacobi_invert(ctx, z)
        za = abel_forward(ctx, D)
        resid = nearest_lattice_residual(ctx.pd, za - z)
        worst = max(worst, resid / max(1.0, float(np.linalg.norm(z))))
    return 20, float(worst), worst <= tol


_JET_TARGETS = {
    "S": {"00": 0, "10": 0, "01": 0, "20": 2, "11": 0, "02": 0},
    "S11": {"00": 1, "10": 0, "01": 0, "20": 0, "11": 0, "02": 0},
    "S12": {"00": 0, "10": 0, "01": 0, "20": 0, "11": 0, "02": -2},
    "S22": {"00": 0, "10": 0, "01": 0, "20": 0, "11": 2, "02": 0},
}


def _check_taylor_jets(ctx, rng, tol):
    jets = measure_taylor_jets(ctx)
    worst = 0.0
    for name, want in _JET_TARGETS.items():
        for key, target in want.items():
            worst = max(worst, abs(jets[name][key] - target))
    return 24, float(worst), worst <= tol


def _check_diff1(ctx, rng, tol):
    worst = 0.0
    done = 0
    while done < 10:
        D = _sample_divisor(ctx, rng)
        r1, r2, lam, z = rho_lambda_eval(ctx, D)
        if divisor_clearance(ctx, z) < 1e-4:
            continue
        g = log_S_gradient(ctx, z)
        ref = max(1.0, float(np.max(np.abs(g))), abs(lam))
        worst = max(worst, abs(g[0] + 2 * r1 - lam) / ref,
                    abs(g[1] + 2 * r2) / ref)
        done += 1
    return 10, float(worst), worst <= tol


def _check_diff2(ctx, rng, tol):
    c = ctx.f.coeffs
    f5, f6 = c[5], c[6]
    worst = 0.0
    for _ in range(10):
        z = _sample_z(ctx, rng, clearance=3e-2)
        L = _fd_log_hessian(ctx, z, 0.01 * ctx.jet_scale)
        p11, p12, p22 = wp_eval(ctx, z)
        rhs = np.array([
            [-2 * p11 - f6 * p12 ** 2,
             -(f5 / 2) * p12 - f6 * p12 * p22],
            [-(f5 / 2) * p12 - f6 * p12 * p22,
             -(f5 / 2) * p22 - f6 * (p22 ** 2 + p12)],
        ])
        ref = max(1.0, float(np.max(np.abs(L))))
        worst = max(worst, float(np.max(np.abs(L - rhs))) / ref)
    return 10, float(worst), worst <= tol


def _check_log_der_p(ctx, rng, tol):
    worst = 0.0
    for _ in range(10):
        z = _sample_z(ctx, rng)
        j = sigma_jets(ctx, z, order=2)
        s = j[(0, 0)]
        grad = np.array([j[(1, 0)], j[(0, 1)]])
        hess = np.array([[j[(2, 0)], j[(1, 1)]], [j[(1, 1)], j[(0, 2)]]])
        h2 = hess / s - np.outer(grad, grad) / s ** 2
        got = (-h2[0, 0], -h2[0, 1], -h2[1, 1])
        want = wp_eval(ctx, z)
        for g, w0 in zip(got, want):
            worst = max(worst, _rel(g - w0, w0))
    return 10, float(worst), worst <= tol


def _check_addition(ctx, rng, tol):
    worst = 0.0
    done = 0
    while done < 10:
        u = _sample_z(ctx, rng)
        v = _sample_z(ctx, rng)
        if (divisor_clearance(ctx, u + v) < 1e-3
                or divisor_clearance(ctx, u - v) < 1e-3):
            continue
        lhs = (sigma_eval(ctx, u + v) * sigma_eval(ctx, u - v)
               / (sigma_eval(ctx, u) ** 2 * sigma_eval(ctx, v) ** 2))
        pu = wp_eval(ctx, u)
        pv = wp_eval(ctx, v)
        rhs = (pu[2] * pv[1] - pv[2] * pu[1] + pv[0] - pu[0])
        worst = max(worst, _rel(lhs - rhs, lhs, rhs))
        done += 1
    return 10, float(worst), worst <= tol


def _check_duplication(ctx, rng, tol):
    worst = 0.0
    done = 0
    while done < 10:
        z = _sample_z(ctx, rng)
        if divisor_clearance(ctx, 2 * z) < 1e-3:
            continue
        j = sigma_jets(ctx, z, order=3)
        s = j[(0, 0)]
        s1, s2 = j[(1, 0)], j[(0, 1)]
        s11, s12, s22 = j[(2, 0)], j[(1, 1)], j[(0, 2)]
        s111, s112, s122 = j[(3, 0)], j[(2, 1)], j[(1, 2)]
        S = s ** 2
        d1S = 2 * s * s1
        S11 = s1 * s1 - s * s11
        S12 = s1 * s2 - s * s12
        S22 = s2 * s2 - s * s22
        d1S11 = s1 * s11 - s * s111
        d1S12 = s11 * s2 - s * s112
        d1S22 = 2 * s12 * s2 - s1 * s22 - s * s122
        rhs = S12 * d1S22 - S22 * d1S12 + S11 * d1S - S * d1S11
        lhs = sigma_eval(ctx, 2 * z)
        worst = max(worst, _rel(lhs - rhs, lhs, rhs))
        done += 1
    return 10, float(worst), worst <= tol


def _check_sigma_squared(ctx, rng, tol):
    worst = 0.0
    for _ in range(20):
        z = _sample_z(ctx, rng)
        a = sigma_eval(ctx, z) ** 2
        b = S_eval(ctx, z)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), TINY))
    return 20, float(worst), worst <= tol


def _check_sigma_oddness(ctx, rng, tol):
    worst = 0.0
    for _ in range(20):
        z = _sample_z(ctx, rng)
        a = sigma_eval(ctx, z)
        b = sigma_eval(ctx, -z)
        worst = max(worst, abs(a + b) / max(abs(a), abs(b), TINY))
    return 20, float(worst), worst <= tol


def _check_non_integrability(ctx, rng, tol):
    h = 1e-5
    e1 = np.array([1.0, 0])
    e2 = np.array([0, 1.0])
    witness = 0.0
    for _ in range(10):
        z = _sample_z(ctx, rng, clearance=1e-2)
        d11_2 = (wp_eval(ctx, z + h * e2)[0]
                 - wp_eval(ctx, z - h * e2)[0]) / (2 * h)
        d12_1 = (wp_eval(ctx, z + h * e1)[1]
                 - wp_eval(ctx, z - h * e1)[1]) / (2 * h)
        witness = max(witness, abs(d11_2 - d12_1))
    return 10, float(witness), witness > tol


def _check_basis_independence(ctx, rng, tol):
    n = len(ctx.pd.roots)
    perms = [(1, 0, 2, 4, 3) + ((5,) if n == 6 else ()),
             tuple(range(n - 1, -1, -1))]
    pd2 = None
    for perm in perms:
        try:
            pd2 = compute_period_data(ctx.f, ordering=perm)
            break
        except DegenerateGeometryError:
            continue
    if pd2 is None:
        raise KleinianError("no alternative branch ordering is usable")
    ctx2 = make_context(ctx.f, pd2)
    worst = 0.0
    done = 0
    while done < 5:
        z = _sample_z(ctx, rng)
        if divisor_clearance(ctx2, z) < 1e-3:
            continue
        for a, b in zip(wp_eval(ctx, z), wp_eval(ctx2, z)):
            worst = max(worst, _rel(a - b, a, b))
        done += 1
    return 5, float(worst), worst <= tol


def _check_linear_independence(ctx, rng, tol):
    rows = []
    for _ in range(8):
        z = _sample_z(ctx, rng)
        rows.append([1.0, *wp_eval(ctx, z)])
    sv = np.linalg.svd(np.array(rows, dtype=complex), compute_uv=False)
    ratio = float(sv[-1] / sv[0])
    return 8, ratio, ratio > tol


# -- suite --------------------------------------------------------------------

_W5_ONLY = {"log_der_p", "addition_formula", "duplication",
            "sigma_squared", "sigma_oddness"}
_DEG6_ONLY = {"non_integrability"}

CHECKS = (
    ("legendre", _check_legendre, 1e-8),
    ("eta_integrality", _check_eta_integrality, 1e-8),
    ("riemann_matrix", _check_riemann_matrix, 1e-9),
    ("quasi_periodicity", _check_quasi_periodicity, 1e-8),
    ("evenness", _check_evenness, 1e-8),
    ("s_divisor_vanishing", _check_s_divisor_vanishing, 1e-6),
    ("delta_shift_invariance", _check_delta_shift, 1e-9),
    ("quartic_determinant", _check_quartic_determinant, TOL_ID),
    ("forward_consistency", _check_forward_consistency, TOL_ID),
    ("inversion_round_trip", _check_round_trip, TOL_ID),
    ("taylor_jets", _check_taylor_jets, 1e-6),
    ("diff1", _check_diff1, 1e-6),
    ("diff2_self_consistency", _check_diff2, 1e-6),
    ("log_der_p", _check_log_der_p, 1e-6),
    ("addition_formula", _check_addition, 1e-6),
    ("duplication", _check_duplication, 1e-6),
    ("sigma_squared", _check_sigma_squared, 1e-8),
    ("sigma_oddness", _check_sigma_oddness, 1e-10),
    ("non_integrability", _check_non_integrability, 1e-3),
    ("basis_independence", _check_basis_independence, TOL_ID),
    ("linear_independence", _check_linear_independence, 1e-6),
)

CHECK_NAMES = tuple(name for name, _, _ in CHECKS)

_TOL_ID_CHECKS = {"quartic_determinant", "forward_consistency",
                  "inversion_round_trip", "basis_independence"}


@dataclass(frozen=True)
class VerificationReport:
    curve: tuple
    seed: int
    checks: tuple

    @property
    def passed(self):
        return all(c["pass"] is True or c["pass"] == "n/a"
                   for c in self.checks)


def run_suite(ctx, seed=1, checks=None, tol_id=None):
    """Run the named checks (all by default) and return the report.

    Identity-class checks (quartic determinant, forward consistency,
    round trip, basis independence) use tol_id when given.  Unknown
    check names raise ValueError.
    """
    if checks is not None:
        unknown = set(checks) - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown check names: {sorted(unknown)}")
    entries = []
    for index, (name, func, tol) in enumerate(CHECKS):
        if checks is not None and name not in checks:
            continue
        if tol_id is not None and name in _TOL_ID_CHECKS:
            tol = tol_id
        skip = ((name in _W5_ONLY and not ctx.f.weierstrass_form)
                or (name in _DEG6_ONLY and ctx.f.coeffs[6] == 0))
        if skip:
            entries.append({"name": name, "samples": 0,
                            "max_residual": 0.0, "tolerance": tol,
                            "pass": "n/a"})
            continue
        rng = _rng(seed, index)
        try:
            samples, worst, ok = func(ctx, rng, tol)
            entry = {"name": name, "samples": samples,
                     "max_residual": worst, "tolerance": tol,
                     "pass": bool(ok)}
        except KleinianError as exc:
            entry = {"name": name, "samples": 0,
                     "max_residual": float("inf"), "tolerance": tol,
                     "pass": False, "error": f"{exc.code}: {exc}"}
        entries.append(entry)
    return VerificationReport(curve=ctx.f.coeffs, seed=seed,
                              checks=tuple(entries))
