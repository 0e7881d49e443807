"""JSON round trips: complex pairs, curves, divisors, period data, bundles."""

import json

import numpy as np
import pytest

import kleinian2 as k2
from kleinian2 import serialization as ser

from conftest import G6_COEFFS, W5_COEFFS


def test_cnum_round_trip_bit_exact():
    rng = np.random.default_rng(71)
    for _ in range(50):
        z = complex(rng.normal() * 10.0 ** rng.integers(-8, 9), rng.normal())
        again = ser.parse_cnum(json.loads(json.dumps(ser.cnum(z))))
        assert again == z and type(again) is complex


def test_parse_cnum_accepts_real_scalar():
    assert ser.parse_cnum(2.5) == 2.5 + 0j
    assert ser.parse_cnum([1.0, -3.0]) == 1.0 - 3.0j


def test_curve_round_trip():
    f = k2.validate_polynomial([0.5 + 0.25j, -4, 0, 1e-3, 0, 4.0, 2.0])
    f2 = ser.curve_from_json(json.loads(json.dumps(ser.curve_to_json(f))))
    assert f2.coeffs == f.coeffs
    assert f2.degree == f.degree


def test_curve_from_json_pads_degree5():
    f = ser.curve_from_json({"coeffs": [[0, 0], [-4, 0], [0, 0], [0, 0],
                                        [0, 0], [4, 0]]})
    assert f.degree == 5 and f.coeffs[6] == 0


def test_curve_from_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ser.curve_from_json({"f": [1, 2, 3, 4, 5, 6]})
    with pytest.raises(ValueError):
        ser.curve_from_json({"coeffs": [1, 2, 3]})


def test_point_round_trip():
    P = k2.CurvePoint(1.25 - 0.5j, 3.0 + 0.125j)
    back = ser.point_from_json(ser.point_to_json(P))
    assert back.x == P.x and back.y == P.y and back.is_affine
    inf = ser.point_from_json(ser.point_to_json(k2.CurvePoint.at_infinity(2)))
    assert not inf.is_affine and inf.infinity == 2


def test_divisor_round_trip():
    D = k2.Divisor(k2.CurvePoint(0.5, 1.5j), k2.CurvePoint.at_infinity(1))
    back = ser.divisor_from_json(ser.divisor_to_json(D))
    assert back.p.x == D.p.x and back.p.y == D.p.y
    assert back.q.infinity == 1


def test_period_data_round_trip_exact(g6_ctx):
    pd = g6_ctx.pd
    blob = json.loads(json.dumps(ser.period_data_to_json(pd)))
    pd2 = ser.period_data_from_json(blob)
    for name in ("A", "B", "etaA", "etaB", "Omega", "Delta"):
        assert np.array_equal(getattr(pd2, name), getattr(pd, name)), name
    assert np.array_equal(pd2.z_star, pd.z_star)
    assert np.array_equal(pd2.transform, pd.transform)
    assert [complex(c) for c in pd2.f.coeffs] == [complex(c) for c in pd.f.coeffs]



def test_tolerances_block_reads_the_module_constants(g6_ctx):
    block = ser.period_data_to_json(g6_ctx.pd)["tolerances"]
    assert block == {"tol_sym": k2.periods.TOL_SYM,
                     "tol_leg": k2.periods.TOL_LEG,
                     "eps_target": k2.theta.EPS_TARGET}

def test_period_data_round_trip_weierstrass(w5_ctx):
    pd = w5_ctx.pd
    pd2 = ser.period_data_from_json(ser.period_data_to_json(pd))
    assert pd2.delta_char is not None
    assert tuple(pd2.delta_char[0]) == tuple(pd.delta_char[0])
    assert tuple(pd2.delta_char[1]) == tuple(pd.delta_char[1])
    assert pd2.z_star is None
    # the rebuilt data is directly usable
    ctx2 = k2.make_context(pd.f, pd=pd2)
    z = np.array([0.21 + 0.04j, -0.12 + 0.3j])
    assert k2.S_eval(ctx2, z) == k2.S_eval(k2.make_context(pd.f, pd=pd), z)


def test_period_json_keys_unchanged(g6_ctx, w5_ctx):
    """Saved period files keep their schema: the loop pairs and the
    intersection form are still written, with their constant values."""
    head = ["curve", "roots", "scale", "pairs", "transform", "intersection",
            "A", "B", "etaA", "etaB", "Omega", "Delta"]
    obj = ser.period_data_to_json(g6_ctx.pd)
    assert list(obj.keys()) == head + ["z_star", "tolerances"]
    obj = ser.period_data_to_json(w5_ctx.pd)
    assert list(obj.keys()) == head + ["delta_char", "tolerances"]
    assert obj["pairs"] == [[0, 1], [1, 2], [2, 3], [3, 4]]
    assert obj["intersection"] == [[0, 0, 1, 0], [0, 0, 0, 1],
                                   [-1, 0, 0, 0], [0, -1, 0, 0]]


def test_period_json_field_order(w5_ctx):
    obj = ser.period_data_to_json(w5_ctx.pd)
    keys = list(obj.keys())
    assert keys.index("curve") == 0
    assert keys.index("A") < keys.index("B") < keys.index("Omega")
    assert "delta_char" in keys
    a = ser.dumps(ser.period_data_to_json(w5_ctx.pd))
    b = ser.dumps(ser.period_data_to_json(w5_ctx.pd))
    assert a == b and a.endswith("\n")


def test_bundle_omits_absent_fields(g6_ctx, w5_ctx):
    b = ser.bundle_to_json(k2.evaluate_bundle(g6_ctx, np.zeros(2)))
    assert "p11" not in b and "sigma" not in b
    assert list(b.keys())[0] == "z"
    z = np.array([0.31 + 0.05j, -0.22 + 0.4j])
    b = ser.bundle_to_json(k2.evaluate_bundle(w5_ctx, z, want_sigma=True))
    for key in ("S", "S11", "S12", "S22", "p11", "sigma", "zeta1", "p222"):
        assert key in b
