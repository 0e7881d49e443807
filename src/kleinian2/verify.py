"""Self-verification suite for the function family on one curve.

Each check draws its own deterministically seeded samples, measures the
worst residual of one identity, and reports pass/fail against a fixed
tolerance.  Checks that only make sense for one curve shape (the sigma
family needs degree 5 in Weierstrass form, non-integrability needs a
nonzero leading coefficient) report "n/a" on the other shape.  Failures
are report entries, never exceptions, so one bad identity cannot hide
the state of the others.

A check passes its points to the evaluation functions as one (N, 2)
batch per stencil: the sampled points (with their reflections, lattice
shifts, sums and differences or doubles), the 32 nodes of one Taylor-jet
direction, the 16-node circles of the finite-difference Hessians of all
samples, or the four-point difference stencils of all samples.  theta
sums a large batch in row blocks of bounded size, so the suite's peak
memory does not grow with the batch.  The checks of the Abel map
(s_divisor_vanishing, forward_consistency, inversion_round_trip and
diff1) pass all their divisors, or points to invert, to one batched Abel
call; one that rejects samples on clearance draws a block of as many as
are missing, rejects afterwards and redraws the rest, so its samples are
those of a one-by-one loop.  The checks that sample cell points draw them
through _sample_groups the same way: addition_formula keeps pairs (u, v)
clear of the divisor at u + v and u - v, duplication points z clear at
2z, and basis_independence points clear on the second context.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .curve import DIAG_FACTOR, CurvePoint, Divisor, xi_eval
from .errors import DegenerateGeometryError, KleinianError
from .kleinian import (JET_TARGETS, S_eval, TOL_ID, _quad, _scaled,
                       _theta_pair, _weight2_from_pair, abel_forward,
                       divisor_clearance, jacobi_invert, log_S_gradient,
                       make_context, quartic_residual, rho_lambda_eval,
                       sigma_eval, sigma_jets, wp_eval)
from .periods import (_residuals, compute_period_data, eta_of_lattice,
                      lattice_vector, nearest_lattice_residual)

TINY = 1e-300
SAMPLE_TRIES = 300      # draws before a sampler gives up
JET_RADIUS = 0.25       # Taylor-jet circle radius, times jet_scale
JET_NODES = 32          # trapezoid nodes on the Taylor-jet circle
FD_NODES = 16           # nodes on each circle of _fd_log_hessian


# -- samplers -----------------------------------------------------------------

def _rng(seed, index):
    return np.random.default_rng(seed * 1000 + index)


def _sample_z(ctx, rng, n, clearance=1e-3):
    """n points of the period cell, shape (n, 2), each with a divisor
    clearance of at least `clearance`.  A block draws as many candidates
    as points are still missing and tests them in one clearance call, so
    the stream is read as a point-by-point loop reads it: the same
    points, and no draw after the last one kept.  SAMPLE_TRIES misses in
    a row raise."""
    A, B = ctx.pd.A, ctx.pd.B
    points, misses = [], 0
    while len(points) < n:
        t = rng.random((n - len(points), 4))
        z = (A @ t[:, :2, None] + B @ t[:, 2:, None])[..., 0]
        for zi, clear in zip(z, divisor_clearance(ctx, z) >= clearance):
            if clear:
                points.append(zi)
                misses = 0
            else:
                misses += 1
                if misses == SAMPLE_TRIES:
                    raise KleinianError(
                        "could not sample a point clear of the divisor")
    return np.array(points)


def _sample_groups(ctx, rng, n, size=1, keep=None, clearance=1e-3):
    """n groups of `size` consecutive points of the _sample_z stream,
    shape (n, size, 2), each group passing `keep` when it is given: a
    function of a (g, size, 2) array of groups that returns a (g,) bool
    mask, the check's own test of a group.  A block draws as many groups
    as are still missing and tests them in one call, so the stream is
    read as a loop that draws and tests one group at a time reads it:
    the same groups, and no draw after the last one kept."""
    kept = np.empty((0, size, 2), dtype=complex)
    while len(kept) < n:
        groups = _sample_z(ctx, rng, (n - len(kept)) * size,
                           clearance).reshape(-1, size, 2)
        if keep is not None:
            groups = groups[keep(groups)]
        kept = np.concatenate([kept, groups])
    return kept


def _sample_lattice(rng):
    """A nonzero lattice point k = (n, m) with entries in [-2, 2]."""
    while True:
        k = rng.integers(-2, 3, size=4)
        if np.any(k != 0):
            return k


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
    """|diff| over max(1, |refs|), elementwise."""
    scale = 1.0
    for r in refs:
        scale = np.maximum(scale, abs(r))
    return abs(diff) / scale


def _gap(a, b):
    """|a - b| over max(|a|, |b|, TINY), elementwise."""
    return abs(a - b) / np.maximum(np.maximum(abs(a), abs(b)), TINY)


def _weight2_split(ctx, z):
    """(S, S11, S12, S22) at the points z as exp(t) times mantissas, shape
    (N, 4), with t of shape (N, 1), from one theta call."""
    _, s, jm, jp = _theta_pair(ctx, z, 2)
    return (_weight2_from_pair(ctx, jm, jp).T,
            (_quad(ctx, z) + s[0] + s[1])[:, None])


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
        samples = _scaled(*_weight2_split(
            ctx, radius * phases[:, None] * d), "S or S_jk")
        b[dname] = {
            name: [np.mean(vals * phases ** -m) / radius ** m
                   for m in range(3)]
            for name, vals in zip(names, samples.T)}

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
    """Hessians of log S at the points z, shape (N, 2, 2), measured by
    differentiating the analytic gradient around a circle of radius h
    (spectrally accurate for the meromorphic gradient, unlike a central
    difference whose truncation error grows with the local curvature)."""
    phases = np.exp(2j * np.pi * np.arange(FD_NODES) / FD_NODES)
    # every circle in one gradient call: the stencil of a point steps
    # along e_k on its k-th circle, and column k of its L is that
    # circle's mean
    steps = h * phases[None, :, None] * np.eye(2)[:, None, :]
    vals = log_S_gradient(ctx, (z[:, None, None, :] + steps).reshape(-1, 2))
    L = (vals.reshape(len(z), 2, FD_NODES, 2)
         / phases[:, None]).mean(axis=2).transpose(0, 2, 1) / h
    return 0.5 * (L + L.transpose(0, 2, 1))


# -- individual checks --------------------------------------------------------

def _check_legendre(ctx, rng, tol):
    pd = ctx.pd
    r = _residuals(pd.A, pd.B, pd.etaA, pd.etaB)[1]
    worst = max(r["leg1"], r["leg2"], r["sym_ab"], r["sym_a"], r["sym_b"])
    return 1, worst, worst <= tol


def _check_eta_integrality(ctx, rng, tol):
    pd = ctx.pd
    # 20 pairs (kv, kw), drawn pair by pair
    draws = np.array([_sample_lattice(rng) for _ in range(40)])
    kv, kw = draws[0::2], draws[1::2]
    v, w = lattice_vector(pd, kv), lattice_vector(pd, kw)
    r = (np.einsum("ri,ri->r", eta_of_lattice(pd, kw), v)
         - np.einsum("ri,ri->r", eta_of_lattice(pd, kv), w))
    k = np.round((r / (2j * np.pi)).real)
    worst = np.max(np.abs(r - 2j * np.pi * k))
    return 20, float(worst), worst <= tol


def _check_riemann_matrix(ctx, rng, tol):
    pd = ctx.pd
    r = _residuals(pd.A, pd.B, pd.etaA, pd.etaB)[1]
    return 1, r["sym"], r["sym"] <= tol and r["lam_min"] > 0


def _check_quasi_periodicity(ctx, rng, tol):
    pd = ctx.pd
    z = _sample_z(ctx, rng, 20)
    k = np.array([_sample_lattice(rng) for _ in range(20)])
    w = lattice_vector(pd, k)
    mant, t = _weight2_split(ctx, np.concatenate([z + w, z]))
    # over exp(t) at z + w, exponents differenced before any exp
    eta = 2.0 * np.einsum("ri,ri->r", eta_of_lattice(pd, k), z + w / 2)
    shifted = _scaled(mant[20:], t[20:] - t[:20] + eta[:, None], "S or S_jk")
    worst = np.max(_gap(mant[:20], shifted))
    return 20, float(worst), worst <= tol


def _check_evenness(ctx, rng, tol):
    z = _sample_z(ctx, rng, 20)
    both = np.concatenate([z, -z])
    vals = np.column_stack([_scaled(*_weight2_split(ctx, both), "S or S_jk"),
                            wp_eval(ctx, both)])
    a, b = vals[:20], vals[20:]
    worst = np.max(_rel(a - b, a, b))
    return 20, float(worst), worst <= tol


def _check_s_divisor_vanishing(ctx, rng, tol):
    d = 0.25 * ctx.jet_scale
    divisors = []
    for _ in range(5):
        x = ctx.pd.scale * (1.2 + 0.4 * rng.random()) * np.exp(
            2j * np.pi * rng.random())
        y = float(rng.choice([-1.0, 1.0])) * np.sqrt(complex(ctx.f(x)))
        divisors.append(Divisor(CurvePoint.affine(x, y),
                                CurvePoint.at_infinity(1)))
    z = abel_forward(ctx, divisors)
    S = np.abs(S_eval(ctx, np.concatenate([z, z + [d, 0], z + [0, d]])))
    ref = np.maximum(np.maximum(S[5:10], S[10:]), TINY)
    worst = np.max(S[:5] / ref)
    return 5, float(worst), worst <= tol


def _check_delta_shift(ctx, rng, tol):
    pd = ctx.pd
    # any nonzero draw serves; read as (m, n), the order in which this
    # check's seeded reports were made
    k = _sample_lattice(rng)
    n, m = k[2:], k[:2]
    shift = n + pd.Omega @ m
    char = pd.delta_char
    if char is not None:
        char = (tuple(np.asarray(char[0]) + 2 * n),
                tuple(np.asarray(char[1]) + 2 * m))
    pd2 = replace(pd, Delta=pd.Delta + shift, delta_char=char)
    ctx2 = make_context(ctx.f, pd2)
    z = _sample_z(ctx, rng, 10)
    worst = np.max(_gap(S_eval(ctx, z), S_eval(ctx2, z)))
    return 10, float(worst), worst <= tol


def _check_quartic_determinant(ctx, rng, tol):
    wp = wp_eval(ctx, _sample_z(ctx, rng, 20))
    worst = float(np.max(quartic_residual(ctx.f, *wp.T)))
    return 20, worst, worst <= tol


def _check_forward_consistency(ctx, rng, tol):
    divisors = [_sample_divisor(ctx, rng) for _ in range(10)]
    z = abel_forward(ctx, divisors)
    clear = divisor_clearance(ctx, z) >= 1e-4
    worst = 0.0
    if clear.any():
        got = wp_eval(ctx, z[clear])
        want = np.array([xi_eval(ctx.f, D)
                         for D, c in zip(divisors, clear) if c])
        worst = np.max(_rel(got - want, want))
    return 10, float(worst), worst <= tol


def _check_round_trip(ctx, rng, tol):
    z = _sample_z(ctx, rng, 20)
    za = abel_forward(ctx, jacobi_invert(ctx, z))
    resid = nearest_lattice_residual(ctx.pd, za - z)
    worst = np.max(resid / np.maximum(1.0, np.linalg.norm(z, axis=1)))
    return 20, float(worst), worst <= tol


def _check_taylor_jets(ctx, rng, tol):
    jets = measure_taylor_jets(ctx)
    worst = 0.0
    for name, want in JET_TARGETS.items():
        for key, target in want.items():
            worst = max(worst, abs(jets[name][key] - target))
    return 24, float(worst), worst <= tol


def _check_diff1(ctx, rng, tol):
    # divisors are drawn in blocks of as many as are still missing and
    # rejected on clearance afterwards, so the samples are those of a
    # one-by-one loop
    kept = []
    while len(kept) < 10:
        divisors = [_sample_divisor(ctx, rng) for _ in range(10 - len(kept))]
        r1, r2, lam, z = rho_lambda_eval(ctx, divisors)
        clear = divisor_clearance(ctx, z) >= 1e-4
        kept += [row for row, c in zip(zip(r1, r2, lam, z), clear) if c]
    r1, r2, lam, z = (np.array(a) for a in zip(*kept))
    g = log_S_gradient(ctx, z)
    ref = np.maximum(np.maximum(1.0, np.max(np.abs(g), axis=1)), abs(lam))
    worst = np.max(np.maximum(abs(g[:, 0] + 2 * r1 - lam),
                              abs(g[:, 1] + 2 * r2)) / ref)
    return 10, float(worst), worst <= tol


def _check_diff2(ctx, rng, tol):
    c = ctx.f.coeffs
    f5, f6 = c[5], c[6]
    z = _sample_groups(ctx, rng, 10, clearance=3e-2)[:, 0]
    p11, p12, p22 = wp_eval(ctx, z).T
    L = _fd_log_hessian(ctx, z, 0.01 * ctx.jet_scale)
    off = -(f5 / 2) * p12 - f6 * p12 * p22
    rhs = np.array([[-2 * p11 - f6 * p12 ** 2, off],
                    [off, -(f5 / 2) * p22 - f6 * (p22 ** 2 + p12)]])
    ref = np.maximum(1.0, np.max(np.abs(L), axis=(1, 2)))
    worst = np.max(np.max(np.abs(L - rhs.transpose(2, 0, 1)), axis=(1, 2))
                   / ref)
    return 10, float(worst), worst <= tol


def _check_log_der_p(ctx, rng, tol):
    z = _sample_groups(ctx, rng, 10)[:, 0]
    j = sigma_jets(ctx, z, order=2)
    s, s1, s2 = j[(0, 0)], j[(1, 0)], j[(0, 1)]
    # wp_jk = -d_j d_k log sigma = (s_j s_k - s s_jk) / s^2
    got = np.column_stack([-(j[(2, 0)] / s - s1 * s1 / s ** 2),
                           -(j[(1, 1)] / s - s1 * s2 / s ** 2),
                           -(j[(0, 2)] / s - s2 * s2 / s ** 2)])
    want = wp_eval(ctx, z)
    worst = np.max(_rel(got - want, want))
    return 10, float(worst), worst <= tol


def _check_addition(ctx, rng, tol):
    def clear(groups):
        u, v = groups[:, 0], groups[:, 1]
        c = divisor_clearance(ctx, np.concatenate([u + v, u - v]))
        return np.all(c.reshape(2, -1) >= 1e-3, axis=0)

    groups = _sample_groups(ctx, rng, 10, 2, clear)
    u, v = groups[:, 0], groups[:, 1]
    s = sigma_eval(ctx, np.concatenate([u + v, u - v, u, v])).reshape(4, -1)
    lhs = s[0] * s[1] / (s[2] ** 2 * s[3] ** 2)
    pu, pv = wp_eval(ctx, np.concatenate([u, v])).reshape(2, -1, 3)
    rhs = pu[:, 2] * pv[:, 1] - pv[:, 2] * pu[:, 1] + pv[:, 0] - pu[:, 0]
    worst = np.max(_rel(lhs - rhs, lhs, rhs))
    return 10, float(worst), worst <= tol


def _check_duplication(ctx, rng, tol):
    z = _sample_groups(
        ctx, rng, 10,
        keep=lambda g: divisor_clearance(ctx, 2 * g[:, 0]) >= 1e-3)[:, 0]
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
    worst = np.max(_rel(lhs - rhs, lhs, rhs))
    return 10, float(worst), worst <= tol


def _check_sigma_squared(ctx, rng, tol):
    z = _sample_z(ctx, rng, 20)
    worst = np.max(_gap(sigma_eval(ctx, z) ** 2, S_eval(ctx, z)))
    return 20, float(worst), worst <= tol


def _check_sigma_oddness(ctx, rng, tol):
    z = _sample_z(ctx, rng, 20)
    s = sigma_eval(ctx, np.concatenate([z, -z]))
    worst = np.max(_gap(s[:20], -s[20:]))
    return 20, float(worst), worst <= tol


def _check_non_integrability(ctx, rng, tol):
    h = 1e-5
    z = _sample_z(ctx, rng, 10, clearance=1e-2)
    # z + h e2, z - h e2, z + h e1, z - h e1 for every sample
    steps = h * np.array([[0, 1.0], [0, -1.0], [1.0, 0], [-1.0, 0]])
    wp = wp_eval(ctx, (z[:, None, :] + steps).reshape(-1, 2)).reshape(10, 4, 3)
    d11_2 = (wp[:, 0, 0] - wp[:, 1, 0]) / (2 * h)
    d12_1 = (wp[:, 2, 1] - wp[:, 3, 1]) / (2 * h)
    witness = np.max(np.abs(d11_2 - d12_1))
    return 10, float(witness), witness > tol


def _check_basis_independence(ctx, rng, tol):
    n = len(ctx.pd.roots)
    perms = [(1, 0, 2, 4, 3) + ((5,) if n == 6 else ()),
             tuple(range(n - 1, -1, -1))]
    pd2 = None
    for perm in perms:
        try:
            pd2 = compute_period_data(ctx.f, ordering=perm, like=ctx.pd)
            break
        except DegenerateGeometryError:
            continue
    if pd2 is None:
        raise KleinianError("no alternative branch ordering is usable")
    ctx2 = make_context(ctx.f, pd2)
    z = _sample_groups(
        ctx, rng, 5,
        keep=lambda g: divisor_clearance(ctx2, g[:, 0]) >= 1e-3)[:, 0]
    a, b = wp_eval(ctx, z), wp_eval(ctx2, z)
    worst = np.max(_rel(a - b, a, b))
    return 5, float(worst), worst <= tol


def _check_linear_independence(ctx, rng, tol):
    rows = np.column_stack([np.ones(8), wp_eval(ctx, _sample_z(ctx, rng, 8))])
    sv = np.linalg.svd(rows, compute_uv=False)
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
    round trip, basis independence) use tol_id when given, which must be
    a finite number > 0.  Unknown check names and any other tol_id raise
    ValueError before a check runs.  A check that raised, or measured a
    residual that is not finite, reports max_residual None.
    """
    if tol_id is not None and not (math.isfinite(tol_id) and tol_id > 0):
        raise ValueError(f"tol_id must be a finite number > 0, not {tol_id}")
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
            # JSON has no inf or nan
            entry = {"name": name, "samples": samples,
                     "max_residual": worst if math.isfinite(worst) else None,
                     "tolerance": tol, "pass": bool(ok)}
        except KleinianError as exc:
            entry = {"name": name, "samples": 0,
                     "max_residual": None, "tolerance": tol,
                     "pass": False, "error": f"{exc.code}: {exc}"}
        entries.append(entry)
    return VerificationReport(curve=ctx.f.coeffs, seed=seed,
                              checks=tuple(entries))
