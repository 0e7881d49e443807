"""Command-line interface: kleinian2 <subcommand>.

Subcommands: periods, eval, abel, invert, verify, taylor.  Output is JSON
on stdout (or --out FILE).  Exit codes: 0 success, 1 a verification check
failed, 2 invalid input or evaluation error (a JSON {code, message}
object goes to stderr).  verify --tol overrides the identity tolerance
of the suite's identity-class checks.
"""

import argparse
import json
import sys

import numpy as np

from . import serialization as ser
from .errors import KleinianError
from .kleinian import abel_forward, evaluate_bundle, jacobi_invert, \
    make_context
from .periods import compute_period_data
from .verify import measure_taylor_jets, run_suite


def _error_exit(code, message):
    sys.stderr.write(json.dumps({"code": code, "message": message}) + "\n")
    sys.exit(2)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj, out):
    text = ser.dumps(obj)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_z(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("--z expects re,im,re,im (4 numbers)")
    vals = [float(p) for p in parts]
    return np.array([complex(vals[0], vals[1]), complex(vals[2], vals[3])])


def _context(args):
    f = ser.curve_from_json(_load_json(args.curve))
    pd = None
    if args.periods:
        pd = ser.period_data_from_json(_load_json(args.periods))
    return make_context(f, pd)


def _add_common(sp, periods=True):
    sp.add_argument("--out", help="write JSON here instead of stdout")
    if periods:
        sp.add_argument("--periods",
                        help="reuse period data from a periods JSON file")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="kleinian2",
        description="Kleinian functions of weight 2 on genus-2 curves "
                    "y^2 = f(x)")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("periods", help="compute certified period data")
    sp.add_argument("curve", help="curve JSON file with f coefficients")
    _add_common(sp, periods=False)

    sp = sub.add_parser("eval", help="evaluate the function family at z")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--z", required=True, help="re,im,re,im")
    sp.add_argument("--sigma", action="store_true",
                    help="include the sigma family (degree-5 Weierstrass)")
    _add_common(sp)

    sp = sub.add_parser("abel", help="Abel image of a degree-2 divisor")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--divisor", required=True, help="divisor JSON file")
    _add_common(sp)

    sp = sub.add_parser("invert", help="divisor with Abel image z")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--z", required=True, help="re,im,re,im")
    _add_common(sp)

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--checks", help="comma-separated subset of checks")
    sp.add_argument("--tol", type=float,
                    help="identity tolerance override")
    _add_common(sp)

    sp = sub.add_parser("taylor",
                        help="numerically measured order-2 jets at 0")
    sp.add_argument("--curve", required=True)
    _add_common(sp)
    return ap


def _run(args):
    if args.command == "periods":
        f = ser.curve_from_json(_load_json(args.curve))
        pd = compute_period_data(f)
        _emit(ser.period_data_to_json(pd), args.out)
        return 0

    if args.command == "eval":
        ctx = _context(args)
        z = _parse_z(args.z)
        bundle = evaluate_bundle(ctx, z, want_sigma=args.sigma)
        _emit(ser.bundle_to_json(bundle), args.out)
        return 0

    if args.command == "abel":
        ctx = _context(args)
        D = ser.divisor_from_json(_load_json(args.divisor))
        z = abel_forward(ctx, D)
        _emit({"z": ser.cvec(z)}, args.out)
        return 0

    if args.command == "invert":
        ctx = _context(args)
        D = jacobi_invert(ctx, _parse_z(args.z))
        _emit(ser.divisor_to_json(D), args.out)
        return 0

    if args.command == "verify":
        ctx = _context(args)
        names = args.checks.split(",") if args.checks else None
        report = run_suite(ctx, seed=args.seed, checks=names,
                           tol_id=args.tol)
        _emit(ser.report_to_json(report), args.out)
        return 0 if report.passed else 1

    if args.command == "taylor":
        ctx = _context(args)
        jets = measure_taylor_jets(ctx)
        out = {name: {key: ser.cnum(val) for key, val in d.items()}
               for name, d in jets.items()}
        _emit(out, args.out)
        return 0

    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except KleinianError as exc:
        _error_exit(exc.code, str(exc))
    except (ValueError, KeyError) as exc:
        _error_exit("InputError", str(exc))
    except (OSError, json.JSONDecodeError) as exc:
        _error_exit("InputError", str(exc))


if __name__ == "__main__":
    sys.exit(main())
