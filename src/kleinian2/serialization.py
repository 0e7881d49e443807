"""JSON forms for curves, period data, divisors, bundles, and reports.

Complex numbers are [re, im] pairs; complex matrices are row-major nested
lists of pairs.  Field order is fixed so equal inputs produce
byte-identical output.  Optional fields are omitted when absent, never
null.
"""

import json

import numpy as np

from .curve import CurvePoint, Divisor, validate_polynomial
from .periods import J, LOOP_PAIRS, TOL_LEG, TOL_SYM, PeriodData
from .theta import EPS_TARGET


def cnum(z):
    z = complex(z)
    return [z.real, z.imag]


def parse_cnum(obj):
    if isinstance(obj, (int, float)):
        return complex(obj)
    if (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(isinstance(t, (int, float)) for t in obj)):
        return complex(obj[0], obj[1])
    raise ValueError(f"expected a number or [re, im] pair, got {obj!r}")


def cvec(v):
    return [cnum(t) for t in np.asarray(v).reshape(-1)]


def parse_cvec(obj, n):
    if not isinstance(obj, list) or len(obj) != n:
        raise ValueError(f"expected a list of {n} complex entries")
    return np.array([parse_cnum(t) for t in obj], dtype=complex)


def cmat(M):
    return [[cnum(t) for t in row] for row in np.asarray(M)]


def parse_cmat(obj, shape):
    M = np.array([[parse_cnum(t) for t in row] for row in obj],
                 dtype=complex)
    if M.shape != shape:
        raise ValueError(f"expected a {shape} matrix")
    return M


def dumps(obj):
    return json.dumps(obj, indent=2) + "\n"


# -- curve --------------------------------------------------------------------

def curve_to_json(f):
    return {"coeffs": [cnum(c) for c in f.coeffs]}


def curve_from_json(obj):
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ValueError('curve JSON must be {"coeffs": [...]}')
    coeffs = [parse_cnum(c) for c in obj["coeffs"]]
    if len(coeffs) not in (6, 7):
        raise ValueError("coeffs must list 6 or 7 entries (f0..f5 or f0..f6)")
    if len(coeffs) == 6:
        coeffs.append(0.0)
    return validate_polynomial(coeffs)


# -- divisor ------------------------------------------------------------------

def point_to_json(P):
    if P.is_affine:
        return {"x": cnum(P.x), "y": cnum(P.y)}
    return {"infinity": P.infinity}


def point_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError("divisor points must be JSON objects")
    if "infinity" in obj:
        return CurvePoint.at_infinity(int(obj["infinity"]))
    if "x" in obj and "y" in obj:
        return CurvePoint.affine(parse_cnum(obj["x"]), parse_cnum(obj["y"]))
    raise ValueError('each point needs "x" and "y", or "infinity"')


def divisor_to_json(D):
    return {"points": [point_to_json(D.p), point_to_json(D.q)]}


def divisor_from_json(obj):
    if (not isinstance(obj, dict) or "points" not in obj
            or len(obj["points"]) != 2):
        raise ValueError('divisor JSON must be {"points": [p, q]}')
    p, q = (point_from_json(t) for t in obj["points"])
    return Divisor(p, q)


# -- period data --------------------------------------------------------------

def period_data_to_json(pd):
    out = {
        "curve": [cnum(c) for c in pd.f.coeffs],
        "roots": cvec(pd.roots),
        "scale": pd.scale,
        "pairs": [list(p) for p in LOOP_PAIRS],
        "transform": [[int(t) for t in row] for row in pd.transform],
        "intersection": [[int(t) for t in row] for row in J],
        "A": cmat(pd.A),
        "B": cmat(pd.B),
        "etaA": cmat(pd.etaA),
        "etaB": cmat(pd.etaB),
        "Omega": cmat(pd.Omega),
        "Delta": cvec(pd.Delta),
    }
    if pd.delta_char is not None:
        out["delta_char"] = [[int(t) for t in pd.delta_char[0]],
                             [int(t) for t in pd.delta_char[1]]]
    if pd.z_star is not None:
        out["z_star"] = cvec(pd.z_star)
    out["tolerances"] = {"tol_sym": TOL_SYM, "tol_leg": TOL_LEG,
                         "eps_target": EPS_TARGET}
    return out


def period_data_from_json(obj):
    f = curve_from_json({"coeffs": obj["curve"]})
    char = None
    if "delta_char" in obj:
        char = (tuple(int(t) for t in obj["delta_char"][0]),
                tuple(int(t) for t in obj["delta_char"][1]))
    z_star = parse_cvec(obj["z_star"], 2) if "z_star" in obj else None
    pd = PeriodData(
        A=parse_cmat(obj["A"], (2, 2)),
        B=parse_cmat(obj["B"], (2, 2)),
        etaA=parse_cmat(obj["etaA"], (2, 2)),
        etaB=parse_cmat(obj["etaB"], (2, 2)),
        Omega=parse_cmat(obj["Omega"], (2, 2)),
        Delta=parse_cvec(obj["Delta"], 2),
        delta_char=char,
        transform=np.array(obj["transform"], dtype=int),
        f=f,
        roots=tuple(parse_cvec(obj["roots"], len(obj["roots"]))),
        scale=float(obj["scale"]),
        z_star=z_star)
    return pd


# -- evaluation bundle --------------------------------------------------------

_BUNDLE_ORDER = ("S", "S11", "S12", "S22", "p11", "p12", "p22", "sigma",
                 "zeta1", "zeta2", "p111", "p112", "p122", "p222")


def bundle_to_json(b):
    out = {"z": cvec(b.z)}
    for name in _BUNDLE_ORDER:
        val = getattr(b, name)
        if val is not None:
            out[name] = cnum(val)
    return out


# -- verification report ------------------------------------------------------

def report_to_json(r):
    checks = []
    for c in r.checks:
        entry = {"name": c["name"], "samples": c["samples"],
                 "max_residual": c["max_residual"],
                 "tolerance": c["tolerance"], "pass": c["pass"]}
        if "error" in c:
            entry["error"] = c["error"]
        checks.append(entry)
    return {"curve": [cnum(c) for c in r.curve], "seed": r.seed,
            "pass": r.passed, "checks": checks}
