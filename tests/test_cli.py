"""End-to-end runs of the command-line interface in a subprocess."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import kleinian2
from conftest import G6_COEFFS, W5_COEFFS

# the subprocess imports the same package as this process, installed or not
PACKAGE_ROOT = os.path.dirname(os.path.dirname(kleinian2.__file__))


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "kleinian2.cli", *args],
        capture_output=True, text=True, env=env, timeout=300)


def write_curve(path, coeffs):
    obj = {"coeffs": [[c.real, c.imag] for c in map(complex, coeffs)]}
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    w5 = write_curve(d / "w5.json", W5_COEFFS)
    g6 = write_curve(d / "g6.json", G6_COEFFS)
    r = run_cli("periods", w5, "--out", str(d / "w5_periods.json"))
    assert r.returncode == 0, r.stderr
    return {"dir": d, "w5": w5, "g6": g6,
            "w5_periods": str(d / "w5_periods.json")}


def test_periods_emits_schema(files):
    r = run_cli("periods", files["g6"])
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    for key in ("curve", "A", "B", "etaA", "etaB", "Omega", "Delta", "z_star"):
        assert key in obj
    Om = np.array([[complex(*c) for c in row] for row in obj["Omega"]])
    assert np.max(np.abs(Om - Om.T)) < 1e-9


def test_periods_repeated_root_exit_2(files, tmp_path):
    bad = write_curve(tmp_path / "bad.json", [0, 0, 0, 0, 0, 4, 0])
    r = run_cli("periods", bad)
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["code"] == "RepeatedRootError"
    assert r.stdout == ""


@pytest.mark.parametrize("coeffs, code", [
    ([0, -4, 0, 0, 0, 4, 1e-300], "ConvergenceError"),
    ([0, -4, 0, float("inf"), 0, 4, 0], "InputError"),
    ([0, -4, 0, 0, float("nan"), 4, 0], "InputError")])
def test_periods_unrepresentable_curve_exit_2(tmp_path, coeffs, code):
    """A root past the double range, or an Infinity or NaN coefficient
    (JSON as Python writes it allows both), is an error with a JSON
    message and no warning, exit 2, not a traceback with exit 1."""
    bad = write_curve(tmp_path / "bad.json", coeffs)
    r = run_cli("periods", bad)
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stderr)["code"] == code
    assert r.stdout == ""


def test_eval_at_origin_matches_expansions(files):
    r = run_cli("eval", "--curve", files["g6"], "--z", "0,0,0,0")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert abs(complex(*obj["S"])) < 1e-7
    assert abs(complex(*obj["S11"]) - 1) < 1e-7
    assert abs(complex(*obj["S12"])) < 1e-7
    assert abs(complex(*obj["S22"])) < 1e-7
    assert "p11" not in obj


def test_eval_periods_cache_identity(files):
    args = ("eval", "--curve", files["w5"], "--z", "0.31,0.05,-0.22,0.4",
            "--sigma")
    a = json.loads(run_cli(*args).stdout)
    b = json.loads(run_cli(*args, "--periods", files["w5_periods"]).stdout)
    assert set(a) == set(b)
    for key in a:
        va = np.atleast_2d(np.asarray(a[key], dtype=float))
        vb = np.atleast_2d(np.asarray(b[key], dtype=float))
        assert np.max(np.abs(va - vb)) <= 1e-10


def test_eval_periods_curve_mismatch(files):
    r = run_cli("eval", "--curve", files["g6"], "--z", "0.1,0,0.2,0",
                "--periods", files["w5_periods"])
    assert r.returncode == 2
    assert json.loads(r.stderr)["code"] == "InputError"


def test_eval_corrupted_periods_exit_2(files, tmp_path):
    """A periods file whose data fails the Legendre certificate is refused
    on load, not served."""
    obj = json.loads(open(files["w5_periods"]).read())
    obj["etaB"][0][0][0] += 1e-3
    bad = tmp_path / "bad_periods.json"
    bad.write_text(json.dumps(obj))
    r = run_cli("eval", "--curve", files["w5"], "--z", "0.1,0,0.2,0",
                "--periods", str(bad))
    assert r.returncode == 2
    assert json.loads(r.stderr)["code"] == "RiemannMatrixError"


def test_eval_sigma_on_sextic_exit_2(files):
    r = run_cli("eval", "--curve", files["g6"], "--z", "0.3,0,0.2,0.1",
                "--sigma")
    assert r.returncode == 2
    assert json.loads(r.stderr)["code"] == "NotWeierstrassFormError"


def test_abel_invert_round_trip(files, tmp_path):
    f = [complex(c) for c in G6_COEFFS]
    x1, x2 = 1.3 + 0.2j, -0.4 + 1.1j
    pts = []
    for x in (x1, x2):
        y = complex(np.sqrt(np.polyval(f[::-1], x)))
        pts.append({"x": [x.real, x.imag], "y": [y.real, y.imag]})
    div = tmp_path / "div.json"
    div.write_text(json.dumps({"points": pts}))
    r = run_cli("abel", "--curve", files["g6"], "--divisor", str(div))
    assert r.returncode == 0
    z = json.loads(r.stdout)["z"]
    zflat = ",".join(repr(v) for c in z for v in c)
    r2 = run_cli("invert", "--curve", files["g6"], "--z=" + zflat)
    assert r2.returncode == 0
    back = json.loads(r2.stdout)["points"]
    key = lambda v: (v.real, v.imag)
    got = sorted((complex(*p["x"]) for p in back), key=key)
    want = sorted([x1, x2], key=key)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-7


def test_abel_accepts_infinity(files, tmp_path):
    div = tmp_path / "div_inf.json"
    y = complex(np.sqrt((1.5 + 0j) ** 6 - 1))
    div.write_text(json.dumps(
        {"points": [{"x": [1.5, 0], "y": [y.real, y.imag]},
                    {"infinity": 2}]}))
    r = run_cli("abel", "--curve", files["g6"], "--divisor", str(div))
    assert r.returncode == 0
    assert "z" in json.loads(r.stdout)


def test_verify_exit_codes(files):
    assert run_cli("verify", "--curve", files["w5"], "--seed", "1",
                   "--checks", "legendre,sigma_squared").returncode == 0
    r = run_cli("verify", "--curve", files["w5"], "--seed", "1",
                "--checks", "quartic_determinant", "--tol", "1e-30")
    assert r.returncode == 1
    assert json.loads(r.stdout)["pass"] is False
    r = run_cli("verify", "--curve", files["w5"], "--checks", "bogus")
    assert r.returncode == 2


def test_verify_tol_flag_only(files):
    """--tol alone sets the identity tolerance; the environment variable
    that once did the same is no longer read."""
    args = ("verify", "--curve", files["w5"], "--seed", "1",
            "--checks", "quartic_determinant")
    env = {"KLEINIAN2_TOL": "1e-30"}
    assert run_cli(*args, env_extra=env).returncode == 0
    assert run_cli(*args, "--tol", "1e-30").returncode == 1
    assert run_cli(*args, "--tol", "1e-6").returncode == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_verify_tol_must_be_finite_and_positive(files, tol):
    """--tol that is not a finite number > 0 is an input error, exit 2,
    not a suite whose identity checks all fail or a report that is not
    JSON."""
    r = run_cli("verify", "--curve", files["w5"], "--seed", "1",
                "--checks", "quartic_determinant", "--tol", tol)
    assert r.returncode == 2
    assert json.loads(r.stderr)["code"] == "InputError"
    assert r.stdout == ""


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_verify_report_of_a_check_that_raised_is_json(tmp_path):
    """On the sextic with roots 30 {0, 1, 2i, -1+i, 3, -2-i} the wp
    root selection raises, so the report entry has no residual: it is
    null, not the bare word Infinity that JSON parsers refuse."""
    roots = 30 * np.array([0, 1, 2j, -1 + 1j, 3, -2 - 1j])
    curve = write_curve(tmp_path / "wide.json", np.poly(roots)[::-1])
    r = run_cli("verify", "--curve", curve, "--seed", "1",
                "--checks", "quartic_determinant")
    assert r.returncode == 1
    (entry,) = json.loads(r.stdout, parse_constant=_refuse_constant)["checks"]
    assert entry["error"].startswith("RootSelectionAmbiguity")
    assert entry["max_residual"] is None


def test_verify_deterministic_output(files):
    args = ("verify", "--curve", files["w5"], "--seed", "4",
            "--checks", "evenness,legendre")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_taylor_jets(files):
    r = run_cli("taylor", "--curve", files["w5"])
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert abs(complex(*obj["S"]["20"]) - 2) < 1e-6
    assert abs(complex(*obj["S22"]["11"]) - 2) < 1e-6


def test_out_flag_writes_file(files, tmp_path):
    out = tmp_path / "bundle.json"
    r = run_cli("eval", "--curve", files["w5"], "--z", "0.2,0,0.1,0",
                "--out", str(out))
    assert r.returncode == 0 and r.stdout == ""
    assert "S11" in json.loads(out.read_text())


def test_malformed_input_exit_2(files, tmp_path):
    bad = tmp_path / "nope.json"
    bad.write_text("{not json")
    r = run_cli("periods", str(bad))
    assert r.returncode == 2
    assert json.loads(r.stderr)["code"] == "InputError"
    r = run_cli("eval", "--curve", files["w5"], "--z", "1,2,3")
    assert r.returncode == 2


# wrongly typed JSON, each made from the degree-5 periods file, in a file
# of the kind named
MALFORMED = {
    "periods_A_number": ("periods", lambda p: dict(p, A=5)),
    "periods_list": ("periods", lambda p: [p]),
    "divisor_points_number": ("divisor", lambda p: {"points": 5}),
    "divisor_infinity_list": ("divisor", lambda p: {
        "points": [{"infinity": [1]}, {"infinity": 1}]}),
    "divisor_infinity_float": ("divisor", lambda p: {
        "points": [{"infinity": 1.7}, {"infinity": 1}]}),
    "curve_coeffs_number": ("curve", lambda p: {"coeffs": 5}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_exit_2(files, tmp_path, case):
    """Wrongly typed JSON is an input error, exit 2 with a JSON message,
    not a traceback (exit 1 means a failed verify check)."""
    kind, make = MALFORMED[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make(json.loads(
        open(files["w5_periods"]).read()))))
    args = {"periods": ("eval", "--curve", files["w5"], "--z", "0.1,0,0.2,0",
                        "--periods", str(bad)),
            "divisor": ("abel", "--curve", files["w5"], "--periods",
                        files["w5_periods"], "--divisor", str(bad)),
            "curve": ("periods", str(bad))}[kind]
    r = run_cli(*args)
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stderr)["code"] == "InputError"
    assert r.stdout == ""


@pytest.mark.parametrize("z", ["nan,0,0.2,0", "0.1,inf,0.2,0"])
def test_non_finite_z_exit_2(files, z):
    r = run_cli("eval", "--curve", files["w5"], "--periods",
                files["w5_periods"], "--z", z)
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["code"] == "InputError" and "finite" in err["message"]


def test_eval_far_point_exit_2(files):
    """An overflow at a far z is an error with a JSON message, never NaN
    literals on stdout, which would not be JSON."""
    r = run_cli("eval", "--curve", files["w5"], "--periods",
                files["w5_periods"], "--z=1e3,0,0.2,0")
    assert r.returncode == 2 and r.stdout == ""
    assert json.loads(r.stderr)["code"] == "NonFiniteValueError"


def test_missing_file_exit_2():
    r = run_cli("periods", "/nonexistent/curve.json")
    assert r.returncode == 2
    assert json.loads(r.stderr)["code"] == "InputError"
