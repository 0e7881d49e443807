"""The verification suite as a product: determinism, applicability
bookkeeping, subset selection, and tolerance overrides."""

import numpy as np
import pytest

import kleinian2 as k2
from kleinian2 import verify
from kleinian2.serialization import dumps, report_to_json

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
    got = verify._sample_z(any_ctx, a, 20, clearance)
    want = _sample_point_by_point(any_ctx, b, 20, clearance)
    assert np.array_equal(got, want)
    assert a.random() == b.random()
