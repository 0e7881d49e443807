"""The verification suite as a product: determinism, applicability
bookkeeping, subset selection, and tolerance overrides."""

import numpy as np
import pytest

import kleinian2 as k2
from kleinian2 import verify
from kleinian2.kleinian import log_S_gradient
from kleinian2.serialization import dumps, report_to_json

from conftest import NEAR_MISS_ORDERING, NEAR_MISS_ROOTS

W5_ONLY = {"log_der_p", "addition_formula", "duplication",
           "sigma_squared", "sigma_oddness"}
TOL_ID_CHECKS = {"quartic_determinant", "forward_consistency",
                 "inversion_round_trip", "basis_independence"}


def test_check_names_fixed_order():
    assert len(k2.CHECK_NAMES) == 21
    assert k2.CHECK_NAMES[0] == "legendre"
    assert k2.CHECK_NAMES[-1] == "linear_independence"
    assert len(set(k2.CHECK_NAMES)) == 21


def test_report_covers_all_checks_in_order(w5_ctx):
    rep = k2.run_suite(w5_ctx, seed=2)
    assert tuple(c["name"] for c in rep.checks) == k2.CHECK_NAMES


def test_all_checks_pass_on_both_curves(w5_ctx, g6_ctx):
    for ctx in (w5_ctx, g6_ctx):
        rep = k2.run_suite(ctx, seed=2)
        assert rep.passed
        for c in rep.checks:
            assert c["pass"] in (True, "n/a")


def test_determinism_byte_identical(g6_ctx):
    a = dumps(report_to_json(k2.run_suite(g6_ctx, seed=9)))
    b = dumps(report_to_json(k2.run_suite(g6_ctx, seed=9)))
    assert a == b


def test_seeds_change_samples(g6_ctx):
    a = k2.run_suite(g6_ctx, seed=1, checks=["quasi_periodicity"])
    b = k2.run_suite(g6_ctx, seed=2, checks=["quasi_periodicity"])
    assert a.checks[0]["max_residual"] != b.checks[0]["max_residual"]


def test_not_applicable_semantics(w5_ctx, g6_ctx):
    rep5 = {c["name"]: c for c in k2.run_suite(w5_ctx, seed=1).checks}
    rep6 = {c["name"]: c for c in k2.run_suite(g6_ctx, seed=1).checks}
    for name in W5_ONLY:
        assert rep5[name]["pass"] is True
        assert rep6[name]["pass"] == "n/a"
        assert rep6[name]["samples"] == 0
    assert rep5["non_integrability"]["pass"] == "n/a"
    assert rep6["non_integrability"]["pass"] is True


def test_subset_selection_keeps_per_check_streams(g6_ctx):
    """A check's random stream depends only on its fixed index, so running
    a subset reproduces the residuals of the full run."""
    full = {c["name"]: c for c in k2.run_suite(g6_ctx, seed=5).checks}
    sub = k2.run_suite(g6_ctx, seed=5,
                       checks=["inversion_round_trip", "evenness"])
    assert [c["name"] for c in sub.checks] == ["evenness", "inversion_round_trip"]
    for c in sub.checks:
        assert c["max_residual"] == full[c["name"]]["max_residual"]


def test_unknown_check_name_raises(w5_ctx):
    with pytest.raises(ValueError):
        k2.run_suite(w5_ctx, checks=["legendre", "nope"])


def test_tol_id_override_scope(g6_ctx):
    rep = k2.run_suite(g6_ctx, seed=1, tol_id=1e-30)
    for c in rep.checks:
        if c["name"] in TOL_ID_CHECKS:
            assert c["tolerance"] == 1e-30
            assert c["pass"] is False
        else:
            assert c["tolerance"] != 1e-30
            assert c["pass"] in (True, "n/a")
    assert not rep.passed


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0],
                         ids=["nan", "inf", "0", "-1"])
def test_tol_id_must_be_finite_and_positive(w5_ctx, tol, monkeypatch):
    """A tolerance that is not a finite number > 0 raises ValueError
    before any check draws its stream."""
    def refuse(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_rng", refuse)
    with pytest.raises(ValueError, match="tol_id"):
        k2.run_suite(w5_ctx, seed=1, tol_id=tol)


def test_failures_are_entries_not_exceptions(g6_ctx):
    rep = k2.run_suite(g6_ctx, seed=1, tol_id=1e-30)
    bad = [c for c in rep.checks if c["pass"] is False]
    assert bad and all("name" in c for c in bad)


def test_report_json_shape(w5_ctx):
    obj = report_to_json(k2.run_suite(w5_ctx, seed=1))
    assert list(obj.keys()) == ["curve", "seed", "pass", "checks"]
    assert obj["seed"] == 1 and obj["pass"] is True
    assert len(obj["curve"]) == 7
    for c in obj["checks"]:
        assert list(c.keys())[:5] == ["name", "samples", "max_residual",
                                      "tolerance", "pass"]


def test_measured_jets_shape(any_ctx):
    jets = k2.measure_taylor_jets(any_ctx)
    assert set(jets.keys()) == {"S", "S11", "S12", "S22"}
    for tbl in jets.values():
        assert set(tbl.keys()) == {"00", "10", "01", "20", "11", "02"}
    assert abs(jets["S"]["20"] - 2.0) < 1e-6
    assert abs(jets["S11"]["00"] - 1.0) < 1e-6
    assert abs(jets["S22"]["11"] - 2.0) < 1e-6
    assert abs(jets["S12"]["02"] + 2.0) < 1e-6


@pytest.mark.parametrize("roots", [
    [0, 1e-3, 2j, -1 + 1j, 3],
    [-0.682 - 0.545j, -0.603 + 0.849j, 0.317 + 0.734j, 0.436 - 0.654j,
     0.759 + 0.158j],
], ids=["clustered_quintic", "ring_quintic"])
def test_round_trip_through_small_detours(roots):
    """Inverted points land near a branch point, so the Abel paths take
    detours where |f| is small (about 1.5e-5 and 1.1e-3 at the junction);
    a line that stopped short of its arc failed the seed check there."""
    coeffs = 4.0 * np.poly(roots)[::-1]
    ctx = k2.make_context(k2.validate_polynomial(coeffs))
    rep = k2.run_suite(ctx, seed=1, checks=["inversion_round_trip"])
    assert rep.checks[0]["pass"] is True, rep.checks[0]


def test_sampler_that_finds_no_clear_point_reports_an_error(monkeypatch,
                                                            w5_ctx):
    """A sampler that never gets clear of the divisor raises instead of
    handing back an uncertified point; the suite reports it as an error."""
    monkeypatch.setattr(verify, "divisor_clearance",
                        lambda ctx, z: np.zeros(len(z)))
    rep = k2.run_suite(w5_ctx, checks=["evenness"])
    (entry,) = rep.checks
    assert entry["pass"] is False
    assert entry["error"].startswith("KleinianError:")
    assert entry["max_residual"] is None


def _sample_point_by_point(ctx, rng, n, clearance):
    """The sampler as a loop over single draws: rng.random(4) until the
    point is clear, n times."""
    points = []
    for _ in range(n):
        while True:
            t = rng.random(4)
            z = ctx.pd.A @ t[:2] + ctx.pd.B @ t[2:]
            if k2.divisor_clearance(ctx, z) >= clearance:
                points.append(z)
                break
    return np.array(points)


@pytest.mark.parametrize("clearance", [1e-3, 0.5])
def test_block_sampler_draws_the_points_of_a_point_by_point_loop(
        any_ctx, clearance):
    """Blocks of candidates read the random stream as single draws do:
    the same points, and the stream left where the loop leaves it.  At
    clearance 0.5 many candidates are refused, so blocks repeat."""
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    got = verify._sample_groups(any_ctx, a, 20, clearance=clearance)[:, 0]
    want = _sample_point_by_point(any_ctx, b, 20, clearance)
    assert np.array_equal(got, want)
    assert a.random() == b.random()


@pytest.mark.parametrize("size, interleaved",
                         [(1, False), (1, True), (2, True)])
def test_a_keep_that_rejects_every_group_raises(
        w5_ctx, monkeypatch, size, interleaved):
    """SAMPLE_TRIES rejections in a row raise KleinianError instead of
    drawing forever.  Interleaved, every other point also misses the
    clearance: misses and rejected groups are one count, so the sampler
    draws no more than size * SAMPLE_TRIES points, where a count of
    misses nested in one of groups draws more."""
    tested, clearance = [], verify.divisor_clearance

    def recorded(ctx, z):
        tested.extend(z)
        if not interleaved:
            return clearance(ctx, z)
        return (np.arange(len(tested) - len(z), len(tested)) % 2) * 1.0

    monkeypatch.setattr(verify, "divisor_clearance", recorded)
    with pytest.raises(k2.KleinianError, match="could not sample"):
        verify._sample_groups(w5_ctx, np.random.default_rng(3), 1, size,
                              keep=lambda g: np.zeros(len(g), bool))
    assert len(tested) <= size * verify.SAMPLE_TRIES


def test_lattice_draws_read_the_stream_of_a_one_at_a_time_loop():
    """_sample_lattice draws its points through _draw_kept in blocks and
    keeps the points a loop over single draws of four integers keeps,
    skipping zero, with the stream left where the loop leaves it."""
    for seed in range(5):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = verify._sample_lattice(a, 700)
        want = []
        while len(want) < 700:
            k = b.integers(-2, 3, size=4)
            if k.any():
                want.append(k)
        assert np.array_equal(got, want)
        assert a.random() == b.random()


def test_a_lattice_draw_that_keeps_nothing_gives_up():
    """A lattice draw that never yields a nonzero point raises
    KleinianError after SAMPLE_TRIES rejections instead of drawing
    forever."""
    class Zeros:
        drawn = 0

        def integers(self, low, high, size):
            self.drawn += size[0]
            return np.zeros(size, dtype=np.int64)

    rng = Zeros()
    with pytest.raises(k2.KleinianError, match="could not sample"):
        verify._sample_lattice(rng, 1)
    assert rng.drawn == verify.SAMPLE_TRIES


def test_diff1_gives_up_on_divisors_never_clear(w5_ctx, monkeypatch):
    """diff1 redraws divisors whose images lie near the zero set of S
    SAMPLE_TRIES times in a row at most, then reports the error."""
    monkeypatch.setattr(verify, "divisor_clearance",
                        lambda ctx, z: np.zeros(len(z)))
    (entry,) = k2.run_suite(w5_ctx, checks=["diff1"]).checks
    assert entry["pass"] is False and "could not sample" in entry["error"]


# -- the batched checks against their one-point loops -------------------------
#
# Each reference below is the check as it was written point by point,
# returning the samples it kept and its worst residual.  The batched check
# must keep the same samples, bit for bit, and measure the same residual
# to 1e-12 (its theta sums run over the box of a whole batch, and numpy's
# array loops round differently from scalar arithmetic).

def _one(ctx, rng, clearance=1e-3):
    return _sample_point_by_point(ctx, rng, 1, clearance)[0]


def _fd_log_hessian_one(ctx, z, h):
    """verify._fd_log_hessian at one point z, shape (2,)."""
    phases = np.exp(2j * np.pi * np.arange(verify.FD_NODES)
                    / verify.FD_NODES)
    steps = h * phases[None, :, None] * np.eye(2)[:, None, :]
    vals = log_S_gradient(ctx, (z + steps).reshape(-1, 2))
    L = (vals.reshape(2, verify.FD_NODES, 2)
         / phases[:, None]).mean(axis=1).T / h
    return 0.5 * (L + L.T)


def _loop_diff2(ctx, rng):
    f5, f6 = ctx.f.coeffs[5], ctx.f.coeffs[6]
    worst = 0.0
    z = _sample_point_by_point(ctx, rng, 10, 3e-2)
    for zi, (p11, p12, p22) in zip(z, k2.wp_eval(ctx, z)):
        L = _fd_log_hessian_one(ctx, zi, 0.01 * ctx.jet_scale)
        rhs = np.array([
            [-2 * p11 - f6 * p12 ** 2,
             -(f5 / 2) * p12 - f6 * p12 * p22],
            [-(f5 / 2) * p12 - f6 * p12 * p22,
             -(f5 / 2) * p22 - f6 * (p22 ** 2 + p12)],
        ])
        ref = max(1.0, float(np.max(np.abs(L))))
        worst = max(worst, float(np.max(np.abs(L - rhs))) / ref)
    return z[:, None], worst


def _loop_log_der_p(ctx, rng):
    worst = 0.0
    z = _sample_point_by_point(ctx, rng, 10, 1e-3)
    if not ctx.f.weierstrass_form:
        return z[:, None], None
    for zi in z:
        j = k2.sigma_jets(ctx, zi, order=2)
        s = j[(0, 0)]
        grad = np.array([j[(1, 0)], j[(0, 1)]])
        hess = np.array([[j[(2, 0)], j[(1, 1)]], [j[(1, 1)], j[(0, 2)]]])
        h2 = hess / s - np.outer(grad, grad) / s ** 2
        got = (-h2[0, 0], -h2[0, 1], -h2[1, 1])
        for g, w0 in zip(got, k2.wp_eval(ctx, zi)):
            worst = max(worst, verify._rel(g - w0, w0))
    return z[:, None], worst


def _loop_addition(ctx, rng):
    worst, kept = 0.0, []
    while len(kept) < 10:
        u, v = _one(ctx, rng), _one(ctx, rng)
        if (k2.divisor_clearance(ctx, u + v) < 1e-3
                or k2.divisor_clearance(ctx, u - v) < 1e-3):
            continue
        kept.append([u, v])
        if not ctx.f.weierstrass_form:
            continue
        sigma = lambda x: k2.sigma_eval(ctx, x)
        lhs = sigma(u + v) * sigma(u - v) / (sigma(u) ** 2 * sigma(v) ** 2)
        pu, pv = k2.wp_eval(ctx, u), k2.wp_eval(ctx, v)
        rhs = pu[2] * pv[1] - pv[2] * pu[1] + pv[0] - pu[0]
        worst = max(worst, verify._rel(lhs - rhs, lhs, rhs))
    return np.array(kept), worst if ctx.f.weierstrass_form else None


def _loop_duplication(ctx, rng):
    worst, kept = 0.0, []
    while len(kept) < 10:
        z = _one(ctx, rng)
        if k2.divisor_clearance(ctx, 2 * z) < 1e-3:
            continue
        kept.append([z])
        if not ctx.f.weierstrass_form:
            continue
        j = k2.sigma_jets(ctx, z, order=3)
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
        lhs = k2.sigma_eval(ctx, 2 * z)
        worst = max(worst, verify._rel(lhs - rhs, lhs, rhs))
    return np.array(kept), worst if ctx.f.weierstrass_form else None


def _loop_basis_independence(ctx, rng):
    n = len(ctx.pd.roots)
    perms = [(1, 0, 2, 4, 3) + ((5,) if n == 6 else ()),
             tuple(range(n - 1, -1, -1))]
    for perm in perms:
        try:
            pd2 = k2.compute_period_data(ctx.f, ordering=perm)
            break
        except (k2.QuadratureError, k2.RiemannMatrixError):
            continue
    ctx2 = k2.make_context(ctx.f, pd2)
    worst, kept = 0.0, []
    while len(kept) < 5:
        z = _one(ctx, rng)
        if k2.divisor_clearance(ctx2, z) < 1e-3:
            continue
        kept.append([z])
        for a, b in zip(k2.wp_eval(ctx, z), k2.wp_eval(ctx2, z)):
            worst = max(worst, verify._rel(a - b, a, b))
    return np.array(kept), worst


def test_basis_independence_builds_with_one_quadrature(any_ctx,
                                                       monkeypatch):
    """The re-ordered build makes its own Abel samples and z_star, which
    are read off the curve's roots alone and so come out bit for bit
    those of the curve's own period data: one Gauss-Chebyshev sheet call
    for its loop segments, one tail_integrals call for its samples, on
    degree 6 one Gauss-Legendre half-segment, and no tanh-sinh
    quadrature for the whole check."""
    calls, sums, tails, halves = [], [], [], []
    integration = k2.integration
    quad, summed = integration.integrate_01, integration._chebyshev_sums
    tail, half = integration.tail_integrals, integration._half_segment_sum

    def counted(log, fn):
        def wrapped(*args, **kwargs):
            log.append(1)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(integration, "integrate_01", counted(calls, quad))
    monkeypatch.setattr(integration, "_chebyshev_sums", counted(sums, summed))
    monkeypatch.setattr(integration, "tail_integrals", counted(tails, tail))
    monkeypatch.setattr(integration, "_half_segment_sum",
                        counted(halves, half))
    index = k2.CHECK_NAMES.index("basis_independence")
    _, _, ok = verify._check_basis_independence(
        any_ctx, verify._rng(1, index), 1e-7)
    assert ok and calls == []
    assert len(sums) == len(tails) == 1
    assert len(halves) == any_ctx.f.degree - 5
    pd2 = k2.compute_period_data(any_ctx.f, ordering=(1, 0, 2, 4, 3) + (
        (5,) if any_ctx.f.degree == 6 else ()))
    assert np.array_equal(pd2.abel_samples, any_ctx.pd.abel_samples)
    assert (pd2.z_star is any_ctx.pd.z_star is None
            or np.array_equal(pd2.z_star, any_ctx.pd.z_star))


def test_basis_independence_moves_on_after_a_quadrature_error():
    """The near miss's first re-ordering has a loop segment 2.8e-3 from a
    root, which Gauss-Chebyshev sums in tens of thousands of nodes, and
    the check passes on that build.  With the root moved to 1e-4 from
    the segment, the segment asks for more than SEGMENT_MAX_NODES, and
    its build raises QuadratureError naming loop 2; the check then
    builds the reversed ordering, as it does after RiemannMatrixError,
    and passes."""
    f = k2.validate_polynomial(np.poly(NEAR_MISS_ROOTS)[::-1])
    ctx = k2.make_context(f)
    pd2 = k2.compute_period_data(f, ordering=NEAR_MISS_ORDERING)
    assert pd2.roots == tuple(f.roots[k] for k in NEAR_MISS_ORDERING)
    (check,) = k2.run_suite(ctx, seed=1, checks=["basis_independence"]).checks
    assert check["pass"] is True, check
    a, b, r = NEAR_MISS_ROOTS[2], NEAR_MISS_ROOTS[4], NEAR_MISS_ROOTS[3]
    foot = a + ((r - a) * np.conj(b - a)).real / abs(b - a) ** 2 * (b - a)
    roots = list(NEAR_MISS_ROOTS)
    roots[3] = foot + 1e-4 * (r - foot) / abs(r - foot)
    ctx = k2.make_context(k2.validate_polynomial(np.poly(roots)[::-1]))
    with pytest.raises(k2.QuadratureError, match="loop segment 2,"):
        k2.compute_period_data(ctx.f, ordering=NEAR_MISS_ORDERING)
    (check,) = k2.run_suite(ctx, seed=1, checks=["basis_independence"]).checks
    assert check["pass"] is True, check


BATCHED_CHECKS = {
    "diff2_self_consistency": (verify._check_diff2, _loop_diff2),
    "log_der_p": (verify._check_log_der_p, _loop_log_der_p),
    "addition_formula": (verify._check_addition, _loop_addition),
    "duplication": (verify._check_duplication, _loop_duplication),
    "basis_independence": (verify._check_basis_independence,
                           _loop_basis_independence),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(BATCHED_CHECKS))
def test_batched_check_keeps_the_samples_and_residual_of_its_loop(
        any_ctx, name, seed, monkeypatch):
    """Samples are recorded where the check draws them, through
    _sample_groups.  A sigma check on x^6 - 1 draws its samples and then
    raises NotWeierstrassFormError, so there only its samples are
    compared."""
    check, loop = BATCHED_CHECKS[name]
    drawn = []
    sampler = verify._sample_groups

    def recorded(*args, **kwargs):
        drawn.append(sampler(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(verify, "_sample_groups", recorded)
    index = k2.CHECK_NAMES.index(name)
    want_samples, want = loop(any_ctx, verify._rng(seed, index))
    try:
        _, got, ok = check(any_ctx, verify._rng(seed, index), 1e-6)
    except k2.NotWeierstrassFormError:
        assert want is None
    else:
        assert ok and abs(got - want) <= 1e-12
    (samples,) = drawn
    assert np.array_equal(samples, want_samples)
