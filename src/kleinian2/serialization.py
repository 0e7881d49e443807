"""JSON forms for curves, period data, divisors, bundles, and reports.

Complex numbers are [re, im] pairs; complex matrices are row-major nested
lists of pairs.  Field order is fixed so equal inputs produce
byte-identical output.  Optional fields are omitted when absent, never
null.  Parsing only parses: period data read back is certified by
PeriodData itself, as it is made.
"""

import dataclasses
import json

import numpy as np

from .curve import CurvePoint, Divisor, validate_polynomial
from .errors import RiemannMatrixError
from .kleinian import EvalBundle
from .periods import J, LOOP_PAIRS, TOL_LEG, PeriodData
from .theta import EPS_TARGET, TOL_SYM


def cnum(z):
    z = complex(z)
    return [z.real, z.imag]


def _is_int(t):
    return isinstance(t, int) and not isinstance(t, bool)


def _is_real(t):
    """Whether t is a JSON number: true and false are bools, not 0 and 1."""
    return isinstance(t, (int, float)) and not isinstance(t, bool)


def parse_cnum(obj):
    if _is_real(obj):
        return complex(obj)
    if (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(map(_is_real, obj))):
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


def _rows(obj, shape, message, entry_ok=lambda t: True):
    """obj, checked to be shape[0] lists of shape[1] entries each."""
    if (not isinstance(obj, list) or len(obj) != shape[0]
            or any(not isinstance(row, list) or len(row) != shape[1]
                   or not all(map(entry_ok, row)) for row in obj)):
        raise ValueError(message)
    return obj


def parse_cmat(obj, shape):
    rows = _rows(obj, shape, f"expected a {shape[0]}x{shape[1]} matrix")
    return np.array([[parse_cnum(t) for t in row] for row in rows],
                    dtype=complex)


def parse_imat(obj, shape, name):
    return np.array(_rows(
        obj, shape, f"{name} must be a {shape[0]}x{shape[1]} integer matrix",
        _is_int))


def dumps(obj):
    """obj as JSON text; a float that is inf or nan, which JSON cannot
    hold, raises ValueError instead of being written as a bare word."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


# -- curve --------------------------------------------------------------------

def curve_to_json(f):
    return {"coeffs": [cnum(c) for c in f.coeffs]}


def curve_from_json(obj):
    if (not isinstance(obj, dict) or "coeffs" not in obj
            or not isinstance(obj["coeffs"], list)):
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
        if not _is_int(obj["infinity"]):
            raise ValueError("infinity must be the integer 1 or 2")
        return CurvePoint.at_infinity(obj["infinity"])
    if "x" in obj and "y" in obj:
        return CurvePoint.affine(parse_cnum(obj["x"]), parse_cnum(obj["y"]))
    raise ValueError('each point needs "x" and "y", or "infinity"')


def divisor_to_json(D):
    return {"points": [point_to_json(D.p), point_to_json(D.q)]}


def divisor_from_json(obj):
    if (not isinstance(obj, dict) or not isinstance(obj.get("points"), list)
            or len(obj["points"]) != 2):
        raise ValueError('divisor JSON must be {"points": [p, q]}')
    p, q = (point_from_json(t) for t in obj["points"])
    return Divisor(p, q)


# -- period data --------------------------------------------------------------

def period_data_to_json(pd):
    out = {
        "curve": [cnum(c) for c in pd.f.coeffs],
        "roots": cvec(pd.roots),
        "scale": pd.f.scale,
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
    """PeriodData from its JSON form, certified as every PeriodData is
    when it is made (PeriodData.__post_init__), so data that fails the
    certificate raises RiemannMatrixError, as does a file whose Omega or
    delta_char is not the one its periods and Delta derive (Omega to
    TOL_SYM, so the raw solve A^{-1} B loads too).  Raises ValueError
    unless the roots are the curve's branch points (in any order) and
    scale is the curve's."""
    keys = ("curve", "roots", "scale", "transform", "A", "B", "etaA", "etaB",
            "Omega", "Delta")
    if not isinstance(obj, dict) or any(k not in obj for k in keys):
        raise ValueError("period data JSON must be an object with keys "
                         f"{', '.join(keys)}")
    f = curve_from_json({"coeffs": obj["curve"]})
    transform = parse_imat(obj["transform"], (4, 4), "transform")
    char = None
    if "delta_char" in obj:
        char = tuple(map(tuple, parse_imat(obj["delta_char"], (2, 2),
                                           "delta_char").tolist()))
    roots = parse_cvec(obj["roots"], f.degree)
    dist = np.abs(roots[:, None] - np.array(f.roots))    # any order
    if (not np.max(np.min(dist, axis=1)) <= 1e-8 * f.scale
            or len(set(np.argmin(dist, axis=1).tolist())) < f.degree):
        raise ValueError("roots must be the branch points of the curve")
    if (not _is_real(obj["scale"])
            or not abs(obj["scale"] - f.scale) <= 1e-8 * f.scale):
        raise ValueError("scale must be the number max(1, max |root|)")
    z_star = parse_cvec(obj["z_star"], 2) if "z_star" in obj else None
    Omega = parse_cmat(obj["Omega"], (2, 2))
    pd = PeriodData(
        A=parse_cmat(obj["A"], (2, 2)),
        B=parse_cmat(obj["B"], (2, 2)),
        etaA=parse_cmat(obj["etaA"], (2, 2)),
        etaB=parse_cmat(obj["etaB"], (2, 2)),
        transform=transform,
        f=f,
        roots=tuple(roots),
        z_star=z_star,
        Delta=parse_cvec(obj["Delta"], 2))
    moved = np.max(np.abs(Omega - pd.Omega))
    if (char != pd.delta_char
            or moved > TOL_SYM * max(1.0, np.max(np.abs(pd.Omega)))):
        raise RiemannMatrixError(
            "the file's Omega or delta_char is not the one its periods and "
            "Delta derive")
    return pd


# -- evaluation bundle --------------------------------------------------------

def bundle_to_json(b):
    out = {"z": cvec(b.z)}
    for field in dataclasses.fields(EvalBundle)[1:]:
        val = getattr(b, field.name)
        if val is not None:
            out[field.name] = cnum(val)
    return out


# -- verification report ------------------------------------------------------

def report_to_json(r):
    return {"curve": [cnum(c) for c in r.curve], "seed": r.seed,
            "pass": r.passed, "checks": [dict(c) for c in r.checks]}
