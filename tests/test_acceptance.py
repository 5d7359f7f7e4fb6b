"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
pass lines and timings.
"""

import time
from fractions import Fraction
from math import comb

from mpmath.ctx_mp import MPContext

from zetakit import (
    PrecisionContext,
    extract_zeta,
    riemann_zeta_numeric,
    run_suite,
    sine_odd_power_sum,
    sine_power_sum,
    sphere_volume_gamma,
    sphere_volume_zproduct,
    zeta_even_from_functional_eq,
    zeta_z_closed,
    zeta_z_deriv,
    zeta_z_deriv_at_positive_integer,
    zeta_z_mellin,
    zeta_z_product,
    zeta_zn_closed_poly,
    zeta_zn_direct,
    zeta_zn_negative_int,
)

CTX = PrecisionContext(precision_bits=256, target_tol=1e-30, max_terms=1_000_000)
MP = CTX.mp


def _report(num, label, elapsed, budget):
    print(f"[PASS] criterion {num}: {label} ({elapsed:.2f}s < {budget}s)")


def test_criterion_01_special_value_table():
    t0 = time.perf_counter()
    tol = MP.mpf(10) ** -25
    assert zeta_z_closed(0, CTX).exact == 1
    truth = MPContext()
    truth.prec = 2 * CTX.precision_bits + 64
    for n in range(1, 31):
        expected = comb(2 * n, n)
        assert zeta_z_closed(-n, CTX).exact == expected  # exact path
        # the Gamma quotient 4^n Gamma(n + 1/2) / (sqrt(pi) n!), by mpmath
        quotient = truth.power(4, n) * truth.gamma(n + truth.mpf(1) / 2) \
            / (truth.sqrt(truth.pi) * truth.factorial(n))
        assert abs(quotient - expected) < tol
    for n in range(1, 11):
        expected = MP.mpf(4) ** (2 * n) / (2 * MP.pi * n) / comb(2 * n, n)
        r = zeta_z_closed(Fraction(1 - 2 * n, 2), CTX)
        assert abs(r.value.value - expected) < tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    _report(1, "special values of zeta_Z at 0, -n, -n+1/2", elapsed, 5)


def test_criterion_02_three_route_agreement():
    t0 = time.perf_counter()
    cap = MP.mpf(10) ** -10
    for i in range(1, 26):
        s = MP.mpf(i) / 52  # 25 points spread over (0, 1/2)
        c = zeta_z_closed(s, CTX)
        p = zeta_z_product(s, CTX)
        m = zeta_z_mellin(s, CTX)
        assert p.certified
        for a, b in ((c, p), (c, m), (p, m)):
            diff = abs(a.value.value - b.value.value)
            assert diff <= a.err + b.err
            assert diff <= cap
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(2, "closed form vs product vs Mellin quadrature on 25 points",
            elapsed, 60)


def test_criterion_03_volume_factorization():
    t0 = time.perf_counter()
    tol = MP.mpf(10) ** -20
    for n in range(1, 51):
        a = sphere_volume_gamma(n, CTX)
        b = sphere_volume_zproduct(n, CTX)
        assert abs(a.value.value - b.value.value) < tol
    digits = 77
    expected = [MP.mpf(2), 2 * MP.pi, 4 * MP.pi, 2 * MP.pi ** 2]
    for n, e in enumerate(expected):
        assert MP.nstr(sphere_volume_gamma(n, CTX).value.re, digits) == MP.nstr(e, digits)
        assert MP.nstr(sphere_volume_zproduct(n, CTX).value.re, digits) == MP.nstr(e, digits)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    _report(3, "vol(S^n) = 2 Z(0)...Z(-n+1) for n <= 50; first four exact",
            elapsed, 5)


def test_criterion_04_derivative_values():
    t0 = time.perf_counter()
    tol = MP.mpf(10) ** -25
    fd_tol = MP.mpf(10) ** -15
    h = MP.mpf(10) ** -20
    assert abs(zeta_z_deriv(0, CTX).value.value) < tol
    expected_half = 8 / MP.pi * (1 - 2 * MP.log(2))
    assert abs(zeta_z_deriv(Fraction(-1, 2), CTX).value.value - expected_half) < tol
    for n in range(1, 11):
        exact = zeta_z_deriv_at_positive_integer(n)
        assert exact == Fraction(1, n * comb(2 * n, n))
        r = zeta_z_deriv(n, CTX)
        assert abs(r.value.value - MP.convert(exact)) < tol

    def central(s):
        fp = zeta_z_closed(s + h, CTX).value.value.real
        fm = zeta_z_closed(s - h, CTX).value.value.real
        return (fp - fm) / (2 * h)

    points = ([MP.mpf(0), MP.mpf(-1) / 2]
              + [MP.mpf(-n) for n in range(1, 11)]
              + [MP.mpf(1 - 2 * n) / 2 for n in range(2, 7)]
              + [MP.mpf(n) for n in range(1, 11)])
    for s in points:
        formula = zeta_z_deriv(s, CTX).value.value.real
        assert abs(formula - central(s)) < fd_tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    _report(4, "derivative formulas, incl. finite-difference cross-check",
            elapsed, 10)


def test_criterion_05_discrete_circle_negative_integers():
    t0 = time.perf_counter()
    tol = MP.mpf(10) ** -25
    for n in range(2, 21):
        for m in range(1, 13):
            exact = zeta_zn_negative_int(n, m)
            if m < n:
                assert exact == n * comb(2 * m, m)
            direct = zeta_zn_direct(n, -m, CTX).value.re
            assert abs(direct - MP.convert(exact)) < tol * (1 + abs(direct))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _report(5, "binomial sums equal direct sums, n <= 20, m <= 12", elapsed, 30)


def test_criterion_06_odd_sine_powers():
    t0 = time.perf_counter()
    tol = MP.mpf(10) ** -20
    for n in range(2, 51):
        for m in range(0, 9):
            cot = sine_odd_power_sum(n, m, CTX).value.re
            direct = MP.mpf(2) ** (2 * m + 1) * sine_power_sum(n, 2 * m + 1, CTX).value
            assert abs(cot - direct) < tol * (1 + abs(direct))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _report(6, "cotangent formula equals scaled odd sine-power sums", elapsed, 30)


def test_criterion_07_closed_polynomials():
    t0 = time.perf_counter()
    p1 = zeta_zn_closed_poly(1, CTX)
    assert p1.coeffs == (Fraction(-1, 12), Fraction(0), Fraction(1, 12))
    p2 = zeta_zn_closed_poly(2, CTX)
    assert p2.coeffs == (Fraction(-11, 720), Fraction(0), Fraction(1, 72),
                         Fraction(0), Fraction(1, 720))
    for n in range(2, 13):
        q = p2.evaluate(n)
        direct = zeta_zn_direct(n, 2, CTX).value.re
        assert abs(direct - MP.convert(q)) < MP.mpf(2) ** -128 * (1 + abs(direct))
    elapsed = time.perf_counter() - t0
    assert elapsed < 20
    _report(7, "P1 = (n^2-1)/12 and P2 = (n^4+10n^2-11)/720 reconstructed",
            elapsed, 20)


def test_criterion_08_euler_extraction():
    t0 = time.perf_counter()
    r0 = extract_zeta(0, 16, 10_000, CTX)
    assert r0.abs_error < MP.mpf(10) ** -6
    r1 = extract_zeta(-1, 16, 10_000, CTX)
    assert r1.abs_error < MP.mpf(10) ** -5
    r3 = extract_zeta(-3, 16, 10_000, CTX)
    assert r3.abs_error < MP.mpf(10) ** -4
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report(8, "zeta(0), zeta(-1), zeta(-3) recovered from sine sums",
            elapsed, 120)


def test_criterion_09_functional_equation_bridge():
    t0 = time.perf_counter()
    tol = MP.mpf(10) ** -20
    z2 = zeta_even_from_functional_eq(1, CTX)
    z4 = zeta_even_from_functional_eq(2, CTX)
    assert abs(z2.value.value - MP.pi ** 2 / 6) < tol
    assert abs(z4.value.value - MP.pi ** 4 / 90) < tol
    assert abs(z2.value.value - riemann_zeta_numeric(2, CTX).value) < tol
    assert abs(z4.value.value - riemann_zeta_numeric(4, CTX).value) < tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    _report(9, "zeta(2) = pi^2/6 and zeta(4) = pi^4/90 via the bridge",
            elapsed, 5)


def test_criterion_10_property_suites_both_precisions():
    t0 = time.perf_counter()
    for bits in (128, 256):
        ctx = PrecisionContext(precision_bits=bits)
        results = run_suite("all", ctx)
        failures = [r.name for r in results if not r.passed]
        assert not failures, f"{bits}-bit failures: {failures}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _report(10, "all module invariant suites at 128 and 256 bits", elapsed, 300)
