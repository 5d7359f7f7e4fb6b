"""Command-line surface.

Subcommands eval, verify, sweep, extract, volumes and poly return their
rows; :func:`main` alone builds the context and prints them, once the
command completes, as plain, json or csv with the same columns.  Exact
rationals print as num/den, decimals carry at least ceil(0.3 *
precision_bits) digits, and csv decimals are scientific.  Data rows go to
stdout only and contain nothing volatile, so identical invocations are
byte-identical; timing goes to stderr.

Exit codes: 0 ok, 1 verification failure, 2 usage, 3 domain/pole error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from math import ceil, isfinite
from typing import List, Optional, Union

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


def _tolerance(text: str) -> Union[float, Fraction]:
    """--tol follows the rule of :func:`_parse_number`: an infinite tolerance
    would let every error bound meet it.  The value is a float, unless the
    float is zero: then it is the exact Fraction of the text, so that a
    tolerance below the float range, such as 1e-400, stays positive."""
    try:
        x = float(_parse_number(text))
        return x if x else Fraction(text.strip())
    except (_Usage, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _digits(ctx: PrecisionContext) -> int:
    return max(1, ceil(ctx.precision_bits * 0.3))


def _format_decimal(ctx, x, scientific: bool = False) -> str:
    """x to :func:`_digits` digits; scientific with a mantissa in [1, 10)."""
    if x == 0:
        return "0e+0" if scientific else "0"
    sci = dict(min_fixed=1, max_fixed=0, show_zero_exponent=True) if scientific else {}
    return ctx.mp.nstr(x, _digits(ctx), **sci)


def _format_rational(q) -> str:
    """num/den, or the integer, in full: a Decimal prints an int of any
    length, where ``str`` stops at the interpreter's digit limit."""
    q = Fraction(q)
    num, den = str(Decimal(q.numerator)), str(Decimal(q.denominator))
    return f"{num}/{den}" if q.denominator != 1 else num


def _format_number(ctx, v, scientific: bool) -> str:
    """A real or complex value as decimal text."""
    if getattr(v, "imag", 0) != 0:
        return (f"{_format_decimal(ctx, v.real, scientific)}"
                f"{'+' if v.imag >= 0 else '-'}"
                f"{_format_decimal(ctx, abs(v.imag), scientific)}i")
    return _format_decimal(ctx, getattr(v, "real", v), scientific)


#: The columns of an op result, after the target's inputs.
_VALUE_COLUMNS = ["value", "err", "method", "exact"]


def _format_value(ctx, result, scientific: bool = False) -> dict:
    """The :data:`_VALUE_COLUMNS` cells of any op result."""
    if isinstance(result, (int, Fraction)):
        cells = _format_rational(result), "0", "exact", True
    elif isinstance(result, EvalResult) and result.exact is not None:
        cells = _format_rational(result.exact), "0", result.method, True
    else:  # an EvalResult, or a kernel's HPComplex
        value, method = ((result.value.value, result.method) if isinstance(result, EvalResult)
                         else (result.value, "direct"))
        cells = (_format_number(ctx, value, scientific),
                 _format_decimal(ctx, result.err, True), method, False)
    return dict(zip(_VALUE_COLUMNS, cells))


#: What a subcommand returns: its records, their columns in order, its exit
#: code, and the lines of a plain report with a layout of its own.
_Rows = namedtuple("_Rows", "records columns code plain", defaults=(EXIT_OK, None))


def _emit_records(fmt: str, rows: _Rows) -> None:
    """Write the rows' columns, in order, in the chosen format."""
    cells = [[rec[c] for c in rows.columns] for rec in rows.records]
    if fmt == "json":
        lines = [json.dumps([dict(zip(rows.columns, r)) for r in cells], indent=2)]
    elif fmt == "csv":
        lines = [",".join(rows.columns)] + [",".join(map(str, r)) for r in cells]
    else:
        lines = rows.plain or ["  ".join(f"{c}={v}" for c, v in zip(rows.columns, r))
                               for r in cells]
    sys.stdout.writelines(line + "\n" for line in lines)


def _context_from_args(args) -> PrecisionContext:
    try:
        return PrecisionContext(args.precision_bits, args.tol, args.max_terms)
    except DomainError as exc:
        raise _Usage(str(exc)) from None


def _inputs(args, flags) -> dict:
    """The values of the flags a target requires, in order; a missing one
    is a usage error naming them all."""
    inputs = {f: getattr(args, f) for f in flags}
    if None in inputs.values():
        raise _Usage(f"{args.command} {args.target} requires "
                     + " and ".join(f"--{f}" for f in flags))
    return inputs


# --------------------------------------------------------------------------
# eval

def _eval_zeta_zn(ctx, n, s):
    n = zeta_zn._vertex_count(n)  # n >= 2 on every route below
    s = _parse_number(s)
    if isinstance(s, (int, Fraction)) and s == int(s) and int(s) < 0:
        return zeta_zn.zeta_zn_negative_int(n, -int(s))
    if isinstance(s, (int, Fraction)) and s == int(s) and 1 <= int(s) <= zeta_zn.POLY_CAP:
        return zeta_zn.zeta_zn_closed_poly(int(s), ctx).evaluate(n)
    return zeta_zn.zeta_zn_direct(n, s, ctx)


#: target: (the flags it requires, which are also its input columns, and
#: its call on the context and their values); each call looks the library
#: up when it runs.
_EVAL_TARGETS = {
    "zeta-z": (("s",), lambda ctx, s: zeta_z.zeta_z_closed(_parse_number(s), ctx)),
    "z": (("s",), lambda ctx, s: zeta_z.big_z(_parse_number(s), ctx)),
    "zeta-zn": (("n", "s"), _eval_zeta_zn),
    "zeta-z-deriv": (("s",), lambda ctx, s: zeta_z.zeta_z_deriv(_parse_number(s), ctx)),
    "catalan": (("m",), lambda ctx, m: spheres.catalan(m)),
    "bernoulli": (("k",), lambda ctx, k: numerics.bernoulli(k)),
    "riemann-zeta": (("s",), lambda ctx, s: numerics.riemann_zeta_numeric(_parse_number(s), ctx)),
}

#: target: (its range flag, whether the range holds integers, the flags it
#: requires, as for eval, the range flag's value a point of the range, and
#: its call); a pole, which only zeta-z meets, prints as a row.
_SWEEP_TARGETS = {
    "zeta-zn-direct": ("n", True, ("n", "s"),
                       lambda ctx, n, s: zeta_zn.zeta_zn_direct(n, _parse_number(s), ctx)),
    "zeta-z": ("s", False, ("s",), lambda ctx, s: zeta_z.zeta_z_closed(s, ctx)),
    "volumes": ("n", True, ("n",), lambda ctx, n: spheres.sphere_volume_gamma(n, ctx)),
}


def _cmd_eval(args, ctx) -> _Rows:
    flags, call = _EVAL_TARGETS[args.target]
    inputs = _inputs(args, flags)
    cells = _format_value(ctx, call(ctx, *inputs.values()), args.format == "csv")
    return _Rows([{**inputs, **cells}], [*inputs, *_VALUE_COLUMNS])


# --------------------------------------------------------------------------
# verify

def _cmd_verify(args, ctx) -> _Rows:
    results = verify.run_suite(args.suite, ctx)
    records = []
    for r in results:
        sys.stderr.write(f"check {r.name}: {r.seconds:.3f}s\n")
        records.append({"check": r.name, "status": "PASS" if r.passed else "FAIL",
                        "max_err": f"{r.max_err:.3e}", "detail": r.detail})
    passed = sum(r.passed for r in results)
    plain = ["[{status}] {check} (max err {max_err}) {detail}".format_map(r) for r in records]
    return _Rows(records, ["check", "status", "max_err", "detail"],
                 EXIT_OK if passed == len(results) else EXIT_VERIFY_FAIL,
                 plain + [f"{passed}/{len(results)} checks passed"])


# --------------------------------------------------------------------------
# sweep

#: Most points a linear sweep range may hold; the points are counted
#: before any is built, and a longer range is a usage error.
_SWEEP_MAX_POINTS = 10 ** 6


def _parse_range(text: str, integer: bool) -> List:
    parts = text.split(":")
    if len(parts) == 2:
        start, stop, step = parts[0], parts[1], "1"
    elif len(parts) == 3:
        start, stop, step = parts
    else:
        raise _Usage(f"malformed range {text!r} (use start:stop[:step|:geometric])")
    try:
        a, b = float(_parse_number(start)), float(_parse_number(stop))
        h = None if step == "geometric" else float(_parse_number(step))
    except OverflowError:
        raise _Usage(f"range {text!r} is outside the float range") from None
    if step == "geometric":
        if a <= 0 or b < a:
            raise _Usage("geometric range needs 0 < start <= stop")
        out = []
        x, top = a, min(b * (1 + 1e-12), sys.float_info.max)  # doubling ends
        while x <= top:
            out.append(x)
            x *= 2
    else:
        if h <= 0 or b < a:
            raise _Usage("range needs start <= stop and positive step")
        span = (b + 1e-12 - a) / h  # the points a + k h, k <= span
        if not span < _SWEEP_MAX_POINTS:
            raise _Usage(f"range {text!r} has more than {_SWEEP_MAX_POINTS} points")
        out = [x for x in (a + k * h for k in range(int(span) + 2)) if x <= b + 1e-12]
    if not out:
        raise _Usage("empty range")
    if integer:
        for x in out:
            if abs(x - round(x)) > 1e-9:
                raise _Usage(f"range value {x} is not an integer")
        out = [round(x) for x in out]
    # a step below the spacing of floats at a rounds a + h back to a
    return [x for i, x in enumerate(out) if i == 0 or x != out[i - 1]]


def _cmd_sweep(args, ctx) -> _Rows:
    ranged, integer, flags, call = _SWEEP_TARGETS[args.target]
    inputs = _inputs(args, flags)
    records = []
    for x in _parse_range(inputs[ranged], integer):
        inputs[ranged] = x
        try:
            cells = _format_value(ctx, call(ctx, *inputs.values()), args.format == "csv")
        except PoleError:
            cells = {"value": "", "err": "", "method": "pole"}
        records.append({**inputs, ranged: x if integer else repr(x), **cells})
    return _Rows(records, [*flags, *_VALUE_COLUMNS[:3]])


# --------------------------------------------------------------------------
# extract

def _cmd_extract(args, ctx) -> _Rows:
    sci = args.format == "csv"
    res = asymptotics.extract_zeta(_parse_number(args.s), args.n_min,
                                   args.n_max, ctx, points=args.points)
    rec = {"s": args.s, "n_min": args.n_min, "n_max": args.n_max,
           "estimate": _format_decimal(ctx, res.estimate.value, sci),
           "reference": _format_decimal(ctx, res.reference, sci),
           "abs_error": _format_decimal(ctx, res.abs_error, True),
           "grid_points": len(res.n_grid)}
    return _Rows([rec], list(rec))


# --------------------------------------------------------------------------
# volumes and poly

def _cmd_volumes(args, ctx) -> _Rows:
    sci = args.format == "csv"
    records = []
    for n in range(0, args.n_max + 1):
        a = spheres.sphere_volume_gamma(n, ctx)
        b = spheres.sphere_volume_zproduct(n, ctx)
        diff = abs(a.value.value.real - b.value.value.real)
        records.append({"n": n, "gamma_route": _format_value(ctx, a, sci)["value"],
                        "z_product": _format_value(ctx, b, sci)["value"],
                        "abs_diff": _format_decimal(ctx, diff, True)})
    return _Rows(records, ["n", "gamma_route", "z_product", "abs_diff"])


def _cmd_poly(args, ctx) -> _Rows:
    poly = zeta_zn.zeta_zn_closed_poly(args.m, ctx)
    coeffs = [_format_rational(c) for c in poly.coeffs]
    rec = {"m": args.m, "degree": poly.degree, "polynomial": str(poly),
           "coeffs": coeffs if args.format == "json" else " ".join(coeffs)}
    return _Rows([rec], list(rec))


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
    p_eval.add_argument("target", choices=tuple(_EVAL_TARGETS))
    p_eval.add_argument("--s")
    p_eval.add_argument("--n", type=int)
    p_eval.add_argument("--m", type=int)
    p_eval.add_argument("--k", type=int)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    p_verify.add_argument("suite", choices=("all",) + verify.SUITE_NAMES)
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="evaluate over a grid")
    p_sweep.add_argument("target", choices=tuple(_SWEEP_TARGETS))
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
        rows = args.func(args, _context_from_args(args))
        _emit_records(args.format, rows)
        return rows.code
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


if __name__ == "__main__":
    sys.exit(main())
