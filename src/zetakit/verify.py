"""Named invariant checks for every module, runnable as suites.

Each check returns its largest observed error so regressions show up as
drifting margins, not just flips to failure.  Randomized checks draw from a
fixed seed: a verification run is deterministic for a given context.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import List, Optional

from .core import (
    DomainError,
    PrecisionContext,
    ReconstructionError,
    get_context,
    mpf_to_fraction,
)
from . import asymptotics, numerics, spheres, zeta_zn
from . import zeta_z

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]

_SEED = 20220906

SUITE_NAMES = ("numerics", "zeta-z", "zeta-zn", "spheres", "asymptotics")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_err: float
    detail: str = ""


def _result(name: str, errs, threshold, detail: str = "") -> CheckResult:
    worst = max(errs) if errs else 0.0
    return CheckResult(name, bool(worst <= threshold), float(worst), detail)


# --------------------------------------------------------------------------
# numerics

def _check_gamma_recurrence(ctx: PrecisionContext) -> CheckResult:
    mp = ctx.mp
    rng = random.Random(_SEED)
    errs = []
    count = 0
    while count < 1000:
        re = rng.uniform(-10, 10)
        im = rng.uniform(-5, 5)
        if abs(im) < 0.05 and round(re) <= 0 and abs(re - round(re)) < 0.05:
            continue  # pole disk of s or s+1
        s = mp.mpc(re, im)
        errs.append(abs(numerics.gamma(s + 1, ctx).value - s * numerics.gamma(s, ctx).value))
        count += 1
    return _result("gamma-recurrence", errs, 4 * ctx.tol, "1000 random points")


def _check_gamma_reflection(ctx: PrecisionContext) -> CheckResult:
    mp = ctx.mp
    rng = random.Random(_SEED + 1)
    errs = []
    count = 0
    while count < 300:
        re = rng.uniform(-5, 5)
        im = rng.uniform(-5, 5)
        if abs(im) < 0.05 and abs(re - round(re)) < 0.05:
            continue
        z = mp.mpc(re, im)
        lhs = numerics.gamma(z, ctx).value * numerics.gamma(1 - z, ctx).value
        rhs = mp.pi / mp.sinpi(z)
        errs.append(abs(lhs - rhs) / (1 + abs(rhs)))
        count += 1
    return _result("gamma-reflection", errs, 8 * ctx.tol, "300 random points")


def _check_bernoulli_odd(ctx: PrecisionContext) -> CheckResult:
    bad = [k for k in range(1, 21) if numerics.bernoulli(2 * k + 1) != 0]
    return CheckResult("bernoulli-odd-vanish", not bad, 0.0,
                       f"odd indices 3..41{'; failures: ' + str(bad) if bad else ''}")


def _check_digamma_reflection(ctx: PrecisionContext) -> CheckResult:
    mp = ctx.mp
    errs = []
    for i in range(1, 101):
        z = mp.mpf(i) / 101
        lhs = numerics.digamma(1 - z, ctx).value
        rhs = numerics.digamma(z, ctx).value + mp.pi * mp.cospi(z) / mp.sinpi(z)
        errs.append(abs(lhs - rhs) / (1 + abs(rhs)))
    return _result("digamma-reflection", errs, 8 * ctx.tol, "100-point grid")


def _check_zeta_trivial_zeros(ctx: PrecisionContext) -> CheckResult:
    errs = [abs(numerics.riemann_zeta_numeric(-2 * m, ctx).value)
            for m in range(1, 6)]
    return _result("zeta-trivial-zeros", errs, ctx.tol, "s = -2..-10")


# --------------------------------------------------------------------------
# zeta-z

def _check_routes_strip(ctx: PrecisionContext) -> CheckResult:
    mp = ctx.mp
    rng = random.Random(_SEED + 2)
    errs = []
    for i in range(50):
        re = rng.uniform(0.02, 0.48)
        im = rng.uniform(-0.3, 0.3) if i % 5 == 0 else 0.0
        s = mp.mpc(re, im) if im else mp.mpf(re)
        closed = zeta_z.zeta_z_closed(s, ctx)
        prod = zeta_z.zeta_z_product(s, ctx)
        mell = zeta_z.zeta_z_mellin(s, ctx)
        dp = abs(closed.value.value - prod.value.value)
        dm = abs(closed.value.value - mell.value.value)
        margin_p = dp - (closed.err + prod.err)
        margin_m = dm - (closed.err + mell.err)
        errs.append(max(float(margin_p), float(margin_m), 0.0))
    return _result("route-agreement-strip", errs, 0.0,
                   "50 points, closed vs product vs quadrature")


def _check_catalan_identity(ctx: PrecisionContext) -> CheckResult:
    bad = []
    for m in range(31):
        q = zeta_z.zeta_z_closed(-m, ctx).exact
        if q is None or q / (m + 1) != spheres.catalan(m):
            bad.append(m)
    return CheckResult("exact-catalan-identity", not bad, 0.0,
                       "m = 0..30" + (f"; failures {bad}" if bad else ""))


def _check_telescoping(ctx: PrecisionContext) -> CheckResult:
    bad = []
    for m in range(1, 9):
        target = Fraction(comb(2 * m, m))
        p = Fraction(1)
        prev_gap = None
        for k in range(1, 41):
            p *= Fraction((k + m) ** 2, k * (k + 2 * m))
            closed = Fraction(
                factorial(m + k) ** 2 * factorial(2 * m),
                factorial(m) ** 2 * factorial(k) * factorial(2 * m + k),
            )
            if p != closed or p >= target:
                bad.append((m, k))
                break
            gap = target - p
            if prev_gap is not None and gap >= prev_gap:
                bad.append((m, k))
                break
            prev_gap = gap
    return CheckResult("product-telescoping", not bad, 0.0,
                       "partial products increase to C(2m, m)"
                       + (f"; failures {bad}" if bad else ""))


def _check_simple_zeros(ctx: PrecisionContext) -> CheckResult:
    bad = []
    for n in range(1, 11):
        r = zeta_z.zeta_z_closed(n, ctx)
        if r.exact != 0 or r.note != "simple-zero":
            bad.append(n)
    return CheckResult("simple-zeros", not bad, 0.0, "s = 1..10")


def _check_deriv_fd(ctx: PrecisionContext) -> CheckResult:
    mp = ctx.mp
    rng = random.Random(_SEED + 3)
    h = mp.mpf(2) ** (-ctx.working_bits // 5)
    errs = []
    for _ in range(20):
        s = mp.mpf(rng.uniform(-10, 0.4))
        der = zeta_z.zeta_z_deriv(s, ctx)
        f = [zeta_z.zeta_z_closed(s + k * h, ctx).value.value.real for k in (-2, -1, 1, 2)]
        fd = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
        errs.append(abs(der.value.value.real - fd))
    # the five-point stencil is off by O(h^4) plus O(eps/h) rounding, far
    # below the threshold; the threshold is the one the former central
    # difference with step 2^(-bits//3) met, kept so that no check loosens
    h3 = mp.mpf(2) ** (-ctx.precision_bits // 3)
    return _result("deriv-vs-finite-difference", errs, min(2 ** 20 * h3 * h3, 1e-15),
                   "20 random points")


# --------------------------------------------------------------------------
# zeta-zn

def _check_negint_consistency(ctx: PrecisionContext) -> CheckResult:
    mp = ctx.mp
    errs = []
    for n in range(2, 21):
        for m in range(1, 13):
            exact = zeta_zn.zeta_zn_negative_int(n, m)
            direct = zeta_zn.zeta_zn_direct(n, -m, ctx).value.re
            ev = mp.mpf(exact.numerator) / exact.denominator
            errs.append(abs(direct - ev) / (1 + abs(ev)))
    return _result("negative-int-consistency", errs, ctx.tol, "n<=20, m<=12")


def _check_prop_sine(ctx: PrecisionContext) -> CheckResult:
    mp = ctx.mp
    errs = []
    for n in range(2, 51):
        for m in range(9):
            cot = zeta_zn.sine_odd_power_sum(n, m, ctx).value.re
            direct = mp.mpf(2) ** (2 * m + 1) * zeta_zn.sine_power_sum(n, 2 * m + 1, ctx).value
            errs.append(abs(cot - direct) / (1 + abs(direct)))
    return _result("odd-power-cot-equivalence", errs, ctx.tol, "n<=50, m<=8")


def _interpolate(points) -> list:
    """Exact Newton interpolation through (x_i, y_i), monomial coefficients."""
    xs = [Fraction(x) for x, _ in points]
    coefs = [Fraction(y) for _, y in points]  # divided differences, in place
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            coefs[i] = (coefs[i] - coefs[i - 1]) / (xs[i] - xs[i - level])
    # expand Newton form into monomials
    poly = [Fraction(0)] * len(points)
    for i in range(len(points) - 1, -1, -1):
        # poly <- poly * (x - xs[i]) + coefs[i]
        carry = [Fraction(0)] * len(points)
        for p in range(len(points) - 1):
            carry[p + 1] += poly[p]
            carry[p] -= poly[p] * xs[i]
        carry[0] += coefs[i]
        poly = carry
    return poly


def _reconstructed_poly(m: int, ctx: PrecisionContext) -> zeta_zn.RationalPolynomial:
    """Oracle for ``zeta_zn_closed_poly``, independent of its Bernoulli
    assembly: the polynomial rebuilt from direct sums alone.

    Evaluates the direct sum at 2m+1 integer points at four times the
    context precision, reconstructs each value as a rational under a
    denominator bound, interpolates exactly, and verifies the polynomial at
    five extra points; any failure raises ReconstructionError.  Not cached.
    """
    boost = ctx.with_bits(4 * ctx.precision_bits)
    mpb = boost.mp
    # Coefficient denominators outgrow (2m+2)! (already at m = 3 the constant
    # term carries 4^m extra from the 4^-s normalization), hence the bound:
    bound = 4 ** m * factorial(2 * m + 2)
    points = []
    for nn in range(2, 2 * m + 3):
        v = zeta_zn.zeta_zn_direct(nn, m, boost).value.re
        q = mpf_to_fraction(v).limit_denominator(bound)
        if abs(v - mpb.mpf(q.numerator) / q.denominator) > mpb.mpf(2) ** (-2 * ctx.precision_bits):
            raise ReconstructionError(f"value at n={nn} is not rational under the bound")
        points.append((nn, q))
    coeffs = _interpolate(points)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    poly = zeta_zn.RationalPolynomial(tuple(coeffs))
    check_tol = mpb.mpf(2) ** (-boost.precision_bits // 2)
    for nn in range(2 * m + 3, 2 * m + 8):
        direct = zeta_zn.zeta_zn_direct(nn, m, boost).value.re
        expect = poly.evaluate(nn)
        delta = abs(direct - mpb.mpf(expect.numerator) / expect.denominator)
        if delta > check_tol * max(1, abs(direct)):
            raise ReconstructionError(f"verification failed at n={nn}")
    return poly


def _check_poly_exactness(ctx: PrecisionContext) -> CheckResult:
    """Closed polynomials equal the reconstruction oracle coefficient for
    coefficient and match the direct sums at n = 2..12."""
    mp = ctx.mp
    thresh = mp.mpf(2) ** (-ctx.precision_bits // 2)
    errs = []
    mismatched = []
    for m in range(1, 5):
        poly = zeta_zn.zeta_zn_closed_poly(m, ctx)
        if poly.coeffs != _reconstructed_poly(m, ctx).coeffs:
            mismatched.append(m)
        for n in range(2, 13):
            q = poly.evaluate(n)
            direct = zeta_zn.zeta_zn_direct(n, m, ctx).value.re
            ev = mp.mpf(q.numerator) / q.denominator
            errs.append(abs(direct - ev) / (1 + abs(ev)))
    worst = max(errs)
    return CheckResult("closed-poly-exactness", bool(worst <= thresh) and not mismatched,
                       float(worst), "m<=4, n=2..12"
                       + (f"; oracle mismatch at m = {mismatched}" if mismatched else ""))


def _check_fold_symmetry(ctx: PrecisionContext) -> CheckResult:
    mp = ctx.mp
    errs = []
    thresh = 0.0
    for n in (2, 3, 7, 16, 31, 50, 97):
        for s in (mp.mpf(-3), mp.mpf(-1) / 2, mp.mpf(1) / 3, mp.mpf(2), mp.mpf(5) / 2):
            a = zeta_zn.zeta_zn_direct(n, s, ctx).value.re
            b = zeta_zn.zeta_zn_direct(n, s, ctx, fold=False).value.re
            errs.append(abs(a - b) / (1 + abs(a)))
            thresh = max(thresh, float((2 * n + 32) * mp.mpf(2) ** (-ctx.working_bits)))
    return _result("fold-symmetry", errs, thresh, "matched-precision agreement")


def _check_positivity(ctx: PrecisionContext) -> CheckResult:
    mp = ctx.mp
    bad = []
    for n in (2, 3, 5, 10, 25):
        for i in range(13):
            s = mp.mpf(-6) + i
            r = zeta_zn.zeta_zn_direct(n, s, ctx)
            if not r.value.re > 0:
                bad.append((n, float(s)))
    return CheckResult("positivity", not bad, 0.0,
                       "real s in [-6, 6]" + (f"; failures {bad}" if bad else ""))


# --------------------------------------------------------------------------
# spheres

def _check_volume_routes(ctx: PrecisionContext) -> CheckResult:
    errs = []
    for n in range(1, 51):
        a = spheres.sphere_volume_gamma(n, ctx)
        b = spheres.sphere_volume_zproduct(n, ctx)
        errs.append(abs(a.value.value - b.value.value) / (1 + abs(a.value.value)))
    return _result("volume-route-agreement", errs, ctx.tol, "n = 1..50")


def _check_ratio_telescoping(ctx: PrecisionContext) -> CheckResult:
    mp = ctx.mp
    errs = []
    prod = mp.mpf(2)  # vol(S^0)
    for n in range(1, 13):
        prod *= spheres.sphere_ratio(n, ctx).gamma_route.value.value.real
        direct = spheres.sphere_volume_gamma(n, ctx).value.value.real
        errs.append(abs(prod - direct) / (1 + abs(direct)))
    return _result("ratio-telescoping", errs, ctx.tol, "n = 1..12")


def _check_catalan_triple(ctx: PrecisionContext) -> CheckResult:
    bad = []
    for m in range(31):
        c = spheres.catalan(m)
        binom = Fraction(comb(2 * m, m), m + 1)
        prodform = Fraction(1)
        for k in range(2, m + 1):
            prodform *= Fraction(m + k, k)
        via_zeta = zeta_z.zeta_z_closed(-m, ctx).exact / (m + 1)
        if not (c == binom == prodform == via_zeta):
            bad.append(m)
    return CheckResult("catalan-triple-identity", not bad, 0.0,
                       "binomial = product = zeta route, m <= 30")


def _check_unimodality(ctx: PrecisionContext) -> CheckResult:
    vols = [float(spheres.sphere_volume_gamma(n, ctx).value.re) for n in range(21)]
    peak = vols.index(max(vols))
    tail_ok = all(vols[i] > vols[i + 1] for i in range(6, 20))
    rise_ok = all(vols[i] < vols[i + 1] for i in range(6))
    far = float(spheres.sphere_volume_gamma(60, ctx).value.re)
    ok = peak == 6 and tail_ok and rise_ok and far < vols[20] and far < 1e-5
    return CheckResult("volume-unimodality", ok, 0.0,
                       f"peak at n={peak}, vol(S^60)={far:.3e}")


# --------------------------------------------------------------------------
# asymptotics

def _check_s0_exactness(ctx: PrecisionContext) -> CheckResult:
    mp = ctx.mp
    errs = []
    terms = asymptotics.expansion_terms(0, ctx)
    for n in (2, 5, 17, 100, 1001):
        direct = zeta_zn.sine_power_sum(n, 0, ctx).value
        errs.append(abs(direct - (n - 1)))
        model = asymptotics.evaluate_expansion(terms, n, ctx)
        errs.append(abs(model.value - (n - 1)))
    return _result("s0-exact-expansion", errs, 64 * ctx.eps * 1001, "n up to 1001")


def _check_convergence_order(ctx: PrecisionContext) -> CheckResult:
    mp = ctx.mp
    grid = [16 * 2 ** i for i in range(8)]
    terms = asymptotics.expansion_terms(-1, ctx)
    lead = terms[0].coefficient.value.real
    # two-term fit, then examine how the unmodeled remainder decays
    ds = [zeta_zn.sine_power_sum(n, 1, ctx).value - lead * n for n in grid]
    c1, _ = asymptotics._fit_line(mp, [mp.mpf(n) ** -2 for n in grid],
                                  [d * n for d, n in zip(ds, grid)])
    # least-squares slope of log|residual| vs log n
    _, slope = asymptotics._fit_line(mp, [mp.log(n) for n in grid],
                                     [mp.log(abs(d - c1 / n)) for d, n in zip(ds, grid)])
    err = abs(slope + 3)
    return CheckResult("remainder-decay-order", bool(err <= 0.2), float(err),
                       f"log-log slope {float(slope):.4f} (target -3)")


def _check_euler_even_zeros(ctx: PrecisionContext) -> CheckResult:
    bad = [k for k in range(1, 11) if asymptotics.euler_zeta_negative(2 * k) != 0]
    return CheckResult("euler-even-zeros", not bad, 0.0, "zeta(-2k) = 0, k <= 10")


def _check_functional_eq_bridge(ctx: PrecisionContext) -> CheckResult:
    # each gap is measured against both error bounds (capped at the former
    # fixed 1e-20), so the check reports the worst gap/bound ratio
    errs = []
    for m in range(1, 7):
        a = asymptotics.zeta_even_from_functional_eq(m, ctx)
        b = numerics.riemann_zeta_numeric(2 * m, ctx)
        errs.append(abs(a.value.value - b.value) / min(a.err + b.err, 1e-20))
    return _result("functional-equation-bridge", errs, 1,
                   "zeta(2)..zeta(12), gap / (a.err + b.err)")


def _check_assembly_vs_direct(ctx: PrecisionContext) -> CheckResult:
    mp = ctx.mp
    errs = []
    thresh = 0.0
    for n in range(2, 31):
        for m in (1, 2):
            q = zeta_zn.zeta_zn_closed_poly(m, ctx).evaluate(n)
            direct = zeta_zn.zeta_zn_direct(n, m, ctx).value.re
            ev = mp.mpf(q.numerator) / q.denominator
            errs.append(abs(direct - ev) / (1 + abs(ev)))
            thresh = max(thresh, float((n + 32) * mp.mpf(2) ** (4 - ctx.working_bits)))
    return _result("assembly-vs-direct", errs, thresh, "n = 2..30, m in {1, 2}")


# --------------------------------------------------------------------------

_SUITES = {
    "numerics": [
        _check_gamma_recurrence,
        _check_gamma_reflection,
        _check_bernoulli_odd,
        _check_digamma_reflection,
        _check_zeta_trivial_zeros,
    ],
    "zeta-z": [
        _check_routes_strip,
        _check_catalan_identity,
        _check_telescoping,
        _check_simple_zeros,
        _check_deriv_fd,
    ],
    "zeta-zn": [
        _check_negint_consistency,
        _check_prop_sine,
        _check_poly_exactness,
        _check_fold_symmetry,
        _check_positivity,
    ],
    "spheres": [
        _check_volume_routes,
        _check_ratio_telescoping,
        _check_catalan_triple,
        _check_unimodality,
    ],
    "asymptotics": [
        _check_s0_exactness,
        _check_convergence_order,
        _check_euler_even_zeros,
        _check_functional_eq_bridge,
        _check_assembly_vs_direct,
    ],
}


def run_suite(suite: str, ctx: Optional[PrecisionContext] = None, *,
              corrupt: bool = False) -> List[CheckResult]:
    """Run one named suite (or 'all').  ``corrupt`` poisons the closed-poly
    cache entry for m = 2 first (test mode: the polynomial-exactness check
    must then fail); the entry is restored afterwards either way."""
    ctx = get_context(ctx)
    if suite == "all":
        names = list(SUITE_NAMES)
    elif suite in SUITE_NAMES:
        names = [suite]
    else:
        raise DomainError(f"unknown suite {suite!r}")
    results: List[CheckResult] = []
    previous = None
    try:
        if corrupt:
            bad = zeta_zn.RationalPolynomial(
                (Fraction(11, 720), Fraction(0), Fraction(1, 72),
                 Fraction(0), Fraction(1, 720)))
            previous = asymptotics._seed_poly_cache(2, bad)
        for name in names:
            for check in _SUITES[name]:
                results.append(check(ctx))
    finally:
        if corrupt:
            asymptotics._seed_poly_cache(2, previous)
    return results
