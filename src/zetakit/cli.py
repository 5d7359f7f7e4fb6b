"""Command-line surface.

Subcommands: eval, verify, sweep, extract, volumes, poly.  Output formats
are plain, json, and csv; exact rationals are always printed as num/den,
decimals carry at least ceil(0.3 * precision_bits) digits, and csv decimals
are scientific.  Data rows go to stdout only and contain nothing volatile,
so identical invocations are byte-identical; timing goes to stderr.

Exit codes: 0 ok, 1 verification failure, 2 usage, 3 domain/pole error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from math import ceil, isfinite
from typing import List, Optional

from .core import (
    DomainError,
    EvalResult,
    IllConditioned,
    NeedsLimitInterpretation,
    NoConvergence,
    PoleError,
    PrecisionContext,
    ReconstructionError,
)
from . import asymptotics, numerics, spheres, verify, zeta_z, zeta_zn

_DOMAIN_ERRORS = (DomainError, PoleError, NeedsLimitInterpretation)
_NUMERIC_ERRORS = (NoConvergence, IllConditioned, ReconstructionError)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4


def _parse_number(text: str):
    """Accept integers, decimals, and exact fractions like 1/4; anything else,
    nan and inf included, is a usage error."""
    text = text.strip()
    for parse in (int, Fraction if "/" in text else float):
        try:
            x = parse(text)
        except (ValueError, ZeroDivisionError):
            continue
        if not isinstance(x, float) or isfinite(x):
            return x
    raise _Usage(f"not a finite number: {text!r}")


def _tolerance(text: str) -> float:
    """--tol follows the rule of :func:`_parse_number`: an infinite tolerance
    would let every error bound meet it."""
    try:
        return float(_parse_number(text))
    except _Usage as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _digits(ctx: PrecisionContext) -> int:
    return max(1, ceil(ctx.precision_bits * 0.3))


def _format_decimal(ctx, x, scientific: bool = False) -> str:
    mp = ctx.mp
    digits = _digits(ctx)
    if x == 0:
        return "0e+0" if scientific else "0"
    if not scientific:
        return mp.nstr(x, digits)
    neg = x < 0
    ax = abs(x)
    e = int(mp.floor(mp.log10(ax)))
    mant = ax / mp.mpf(10) ** e
    if mant >= 10:  # boundary rounding
        mant /= 10
        e += 1
    body = mp.nstr(mant, digits)
    return f"{'-' if neg else ''}{body}e{e:+d}"


def _format_rational(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _format_number(ctx, v, scientific: bool) -> str:
    """A real or complex value as decimal text."""
    if getattr(v, "imag", 0) != 0:
        return (f"{_format_decimal(ctx, v.real, scientific)}"
                f"{'+' if v.imag >= 0 else '-'}"
                f"{_format_decimal(ctx, abs(v.imag), scientific)}i")
    return _format_decimal(ctx, getattr(v, "real", v), scientific)


def _format_value(ctx, result, scientific: bool = False) -> tuple:
    """(value string, err string, method, exact flag) for any op result."""
    if isinstance(result, (int, Fraction)):
        return _format_rational(result), "0", "exact", True
    if isinstance(result, EvalResult):
        if result.exact is not None:
            return _format_rational(result.exact), "0", result.method, True
        value, method, exact = result.value.value, result.method, False
    else:  # HPReal / HPComplex
        value, method, exact = result.value, "direct", bool(getattr(result, "exact", False))
    return (_format_number(ctx, value, scientific),
            _format_decimal(ctx, result.err, True), method, exact)


def _emit_records(args, records: List[dict], columns: List[str]) -> None:
    """Write records in the chosen format.  Columns order is fixed."""
    out = sys.stdout
    if args.format == "json":
        out.write(json.dumps(records, indent=2) + "\n")
    elif args.format == "csv":
        out.write(",".join(columns) + "\n")
        for rec in records:
            out.write(",".join(str(rec.get(c, "")) for c in columns) + "\n")
    else:
        for rec in records:
            out.write("  ".join(f"{c}={rec.get(c, '')}" for c in columns) + "\n")


def _context_from_args(args) -> PrecisionContext:
    return PrecisionContext(args.precision_bits, args.tol, args.max_terms)


# --------------------------------------------------------------------------
# eval

_EVAL_TARGETS = ("zeta-z", "z", "zeta-zn", "zeta-z-deriv", "catalan",
                 "bernoulli", "riemann-zeta")


def _cmd_eval(args) -> int:
    ctx = _context_from_args(args)
    target = args.target
    if target == "zeta-z":
        if args.s is None:
            raise _Usage("eval zeta-z requires --s")
        result = zeta_z.zeta_z_closed(_parse_number(args.s), ctx)
        inputs = {"s": args.s}
    elif target == "z":
        if args.s is None:
            raise _Usage("eval z requires --s")
        result = zeta_z.big_z(_parse_number(args.s), ctx)
        inputs = {"s": args.s}
    elif target == "zeta-zn":
        if args.s is None or args.n is None:
            raise _Usage("eval zeta-zn requires --n and --s")
        n = zeta_zn.DiscreteCircle(args.n).n  # n >= 2 on every route below
        s = _parse_number(args.s)
        if isinstance(s, (int, Fraction)) and s == int(s) and int(s) < 0:
            result = zeta_zn.zeta_zn_negative_int(n, -int(s))
        elif (isinstance(s, (int, Fraction)) and s == int(s)
              and 1 <= int(s) <= zeta_zn.POLY_CAP):
            result = zeta_zn.zeta_zn_closed_poly(int(s), ctx).evaluate(n)
        else:
            result = zeta_zn.zeta_zn_direct(n, s, ctx)
        inputs = {"n": args.n, "s": args.s}
    elif target == "zeta-z-deriv":
        if args.s is None:
            raise _Usage("eval zeta-z-deriv requires --s")
        result = zeta_z.zeta_z_deriv(_parse_number(args.s), ctx)
        inputs = {"s": args.s}
    elif target == "catalan":
        if args.m is None:
            raise _Usage("eval catalan requires --m")
        result = spheres.catalan(int(args.m))
        inputs = {"m": args.m}
    elif target == "bernoulli":
        if args.k is None:
            raise _Usage("eval bernoulli requires --k")
        result = numerics.bernoulli(int(args.k))
        inputs = {"k": args.k}
    else:  # riemann-zeta
        if args.s is None:
            raise _Usage("eval riemann-zeta requires --s")
        hp = numerics.riemann_zeta_numeric(_parse_number(args.s), ctx)
        result = hp
        inputs = {"s": args.s}
    value, err, method, exact = _format_value(ctx, result,
                                              scientific=args.format == "csv")
    rec = dict(inputs)
    rec.update({"value": value, "err": err, "method": method, "exact": exact})
    _emit_records(args, [rec], list(inputs) + ["value", "err", "method", "exact"])
    return EXIT_OK


# --------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    ctx = _context_from_args(args)
    results = verify.run_suite(args.suite, ctx, corrupt=args.corrupt)
    records = []
    for r in results:
        records.append({
            "check": r.name,
            "status": "PASS" if r.passed else "FAIL",
            "max_err": f"{r.max_err:.3e}",
            "detail": r.detail,
        })
    if args.format == "plain":
        for rec in records:
            sys.stdout.write(
                f"[{rec['status']}] {rec['check']} (max err {rec['max_err']}) {rec['detail']}\n")
        passed = sum(r.passed for r in results)
        sys.stdout.write(f"{passed}/{len(results)} checks passed\n")
    else:
        _emit_records(args, records, ["check", "status", "max_err", "detail"])
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAIL


# --------------------------------------------------------------------------
# sweep

def _parse_range(text: str, integer: bool) -> List:
    parts = text.split(":")
    if len(parts) == 2:
        start, stop, step = parts[0], parts[1], "1"
    elif len(parts) == 3:
        start, stop, step = parts
    else:
        raise _Usage(f"malformed range {text!r} (use start:stop[:step|:geometric])")
    out = []
    a, b = float(_parse_number(start)), float(_parse_number(stop))
    if step == "geometric":
        if a <= 0 or b < a:
            raise _Usage("geometric range needs 0 < start <= stop")
        x = a
        while x <= b * (1 + 1e-12):
            out.append(x)
            x *= 2
    else:
        h = float(_parse_number(step))
        if h <= 0 or b < a:
            raise _Usage("range needs start <= stop and positive step")
        k = 0
        while True:
            x = a + k * h
            if x > b + 1e-12:
                break
            out.append(x)
            k += 1
    if not out:
        raise _Usage("empty range")
    if integer:
        vals = []
        for x in out:
            n = int(round(x))
            if abs(x - n) > 1e-9:
                raise _Usage(f"range value {x} is not an integer")
            vals.append(n)
        return vals
    return out


_SWEEP_TARGETS = ("zeta-zn-direct", "zeta-z", "volumes")


def _cmd_sweep(args) -> int:
    ctx = _context_from_args(args)
    sci = args.format == "csv"
    records = []
    if args.target == "zeta-zn-direct":
        if args.s is None or args.n is None:
            raise _Usage("sweep zeta-zn-direct requires --s and an --n range")
        s = _parse_number(args.s)
        for n in _parse_range(args.n, integer=True):
            value, err, method, _ = _format_value(
                ctx, zeta_zn.zeta_zn_direct(n, s, ctx), sci)
            records.append({"n": n, "s": args.s, "value": value,
                            "err": err, "method": method})
        columns = ["n", "s", "value", "err", "method"]
    elif args.target == "zeta-z":
        if args.s is None:
            raise _Usage("sweep zeta-z requires an --s range")
        for s in _parse_range(args.s, integer=False):
            try:
                value, err, method, _ = _format_value(
                    ctx, zeta_z.zeta_z_closed(s, ctx), sci)
            except PoleError:
                value, err, method = "", "", "pole"
            records.append({"s": repr(s), "value": value,
                            "err": err, "method": method})
        columns = ["s", "value", "err", "method"]
    else:  # volumes
        if args.n is None:
            raise _Usage("sweep volumes requires an --n range")
        for n in _parse_range(args.n, integer=True):
            value, err, method, _ = _format_value(
                ctx, spheres.sphere_volume_gamma(n, ctx), sci)
            records.append({"n": n, "value": value, "err": err, "method": method})
        columns = ["n", "value", "err", "method"]
    _emit_records(args, records, columns)
    return EXIT_OK


# --------------------------------------------------------------------------
# extract

def _cmd_extract(args) -> int:
    ctx = _context_from_args(args)
    sci = args.format == "csv"
    res = asymptotics.extract_zeta(_parse_number(args.s), args.n_min,
                                   args.n_max, ctx, points=args.points)
    rec = {
        "s": args.s,
        "n_min": args.n_min,
        "n_max": args.n_max,
        "estimate": _format_decimal(ctx, res.estimate.value, sci),
        "reference": _format_decimal(ctx, res.reference.value, sci),
        "abs_error": _format_decimal(ctx, res.abs_error, True),
        "grid_points": len(res.n_grid),
    }
    _emit_records(args, [rec], list(rec))
    return EXIT_OK


# --------------------------------------------------------------------------
# volumes and poly

def _cmd_volumes(args) -> int:
    ctx = _context_from_args(args)
    sci = args.format == "csv"
    records = []
    for n in range(0, args.n_max + 1):
        a = spheres.sphere_volume_gamma(n, ctx)
        b = spheres.sphere_volume_zproduct(n, ctx)
        diff = abs(a.value.value.real - b.value.value.real)
        records.append({
            "n": n,
            "gamma_route": _format_value(ctx, a, sci)[0],
            "z_product": _format_value(ctx, b, sci)[0],
            "abs_diff": _format_decimal(ctx, diff, True),
        })
    _emit_records(args, records, ["n", "gamma_route", "z_product", "abs_diff"])
    return EXIT_OK


def _cmd_poly(args) -> int:
    ctx = _context_from_args(args)
    poly = zeta_zn.zeta_zn_closed_poly(args.m, ctx)
    coeffs = [_format_rational(c) for c in poly.coeffs]
    rec = {"m": args.m, "degree": poly.degree, "polynomial": str(poly),
           "coeffs": coeffs if args.format == "json" else " ".join(coeffs)}
    _emit_records(args, [rec], ["m", "degree", "polynomial", "coeffs"])
    return EXIT_OK


# --------------------------------------------------------------------------

class _Usage(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetakit",
        description="Spectral zeta functions of the integer lattice and "
                    "discrete circles: special values, products, and checks.",
    )
    # a string default goes through type=int, so a malformed environment
    # value is a usage error unless the flag overrides it
    parser.add_argument("--precision-bits", type=int,
                        default=os.environ.get("ZETAKIT_PRECISION_BITS", "256"),
                        help="working precision in bits (default 256, env "
                             "ZETAKIT_PRECISION_BITS)")
    parser.add_argument("--tol", type=_tolerance, default=1e-30,
                        help="target absolute tolerance (default 1e-30)")
    parser.add_argument("--max-terms", type=int, default=1_000_000,
                        help="series/product/quadrature budget")
    parser.add_argument("--format", choices=("plain", "json", "csv"),
                        default="plain")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function")
    p_eval.add_argument("target", choices=_EVAL_TARGETS)
    p_eval.add_argument("--s")
    p_eval.add_argument("--n", type=int)
    p_eval.add_argument("--m", type=int)
    p_eval.add_argument("--k", type=int)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    p_verify.add_argument("suite", choices=("all",) + verify.SUITE_NAMES)
    p_verify.add_argument("--corrupt", action="store_true",
                          help=argparse.SUPPRESS)  # test mode
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="evaluate over a grid")
    p_sweep.add_argument("target", choices=_SWEEP_TARGETS)
    p_sweep.add_argument("--s", help="value or range start:stop[:step]")
    p_sweep.add_argument("--n", help="integer range start:stop[:step|:geometric]")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_extract = sub.add_parser(
        "extract", help="recover a zeta value from sine-sum asymptotics")
    p_extract.add_argument("--s", required=True)
    p_extract.add_argument("--n-max", type=int, default=10_000)
    p_extract.add_argument("--n-min", type=int, default=16)
    p_extract.add_argument("--points", type=int, default=16)
    p_extract.set_defaults(func=_cmd_extract)

    p_volumes = sub.add_parser("volumes", help="sphere volumes by both routes")
    p_volumes.add_argument("--n-max", type=int, default=20)
    p_volumes.set_defaults(func=_cmd_volumes)

    p_poly = sub.add_parser("poly", help="closed polynomial of zeta_n at an integer")
    p_poly.add_argument("--m", type=int, required=True)
    p_poly.set_defaults(func=_cmd_poly)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except _Usage as exc:
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except _DOMAIN_ERRORS as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_DOMAIN
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_NUMERIC
    finally:
        sys.stderr.write(f"elapsed: {time.perf_counter() - started:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
