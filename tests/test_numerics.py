"""Kernel tests: Gamma, digamma, Bernoulli, the scaled Bessel series, zeta."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from mpmath.ctx_mp import MPContext

from zetakit import (
    DomainError,
    PoleError,
    PrecisionContext,
    bernoulli,
    digamma,
    gamma,
    riemann_zeta_numeric,
    sine_power_sum,
)
from zetakit.numerics import _i0e_raw


# ---------------------------------------------------------------- gamma

def test_gamma_half_is_sqrt_pi(ctx, mp):
    g = gamma(Fraction(1, 2), ctx)
    assert abs(g.value - mp.sqrt(mp.pi)) <= g.err + mp.eps


def test_gamma_factorial(ctx, mp):
    g = gamma(6, ctx)
    assert abs(g.value - 120) <= g.err + mp.eps


def test_gamma_half_integer_duplication_oracle(ctx, mp):
    # oracle: Gamma(1/2 + n) = (2n)!/(4^n n!) sqrt(pi), here at n = 3
    n = 3
    expected = mp.mpf(factorial(2 * n)) / (4 ** n * factorial(n)) * mp.sqrt(mp.pi)
    g = gamma(Fraction(1, 2) + n, ctx)
    assert abs(g.value - expected) < mp.mpf(10) ** -70
    # and the exact coefficient is 15/8
    assert Fraction(factorial(2 * n), 4 ** n * factorial(n)) == Fraction(15, 8)


def test_gamma_pole(ctx):
    for s in (0, -1, -4):
        with pytest.raises(PoleError):
            gamma(s, ctx)


def test_gamma_recurrence_sample(ctx, mp):
    rng = random.Random(7)
    for _ in range(25):
        s = mp.mpc(rng.uniform(0.3, 8), rng.uniform(-4, 4))
        lhs = gamma(s + 1, ctx).value
        rhs = s * gamma(s, ctx).value
        assert abs(lhs - rhs) <= 4 * ctx.tol


def test_gamma_reflection_sample(ctx, mp):
    for x in (0.25, 1.75, -2.5, 3.3):
        z = mp.mpf(x)
        lhs = gamma(z, ctx).value * gamma(1 - z, ctx).value
        rhs = mp.pi / mp.sinpi(z)
        assert abs(lhs - rhs) <= 8 * ctx.tol * (1 + abs(rhs))


# ---------------------------------------------------------------- digamma

def test_digamma_values(ctx, mp):
    euler = mp.euler
    assert abs(digamma(1, ctx).value + euler) < ctx.tol
    assert abs(digamma(Fraction(1, 2), ctx).value - (-euler - 2 * mp.log(2))) < ctx.tol
    # psi0(n + 1/2) = -euler - 2 log 2 + 2 (1 + 1/3 + ... + 1/(2n-1)), n = 3
    expected = -euler - 2 * mp.log(2) + 2 * (1 + mp.mpf(1) / 3 + mp.mpf(1) / 5)
    assert abs(digamma(Fraction(7, 2), ctx).value - expected) < ctx.tol


def test_digamma_pole(ctx):
    with pytest.raises(PoleError):
        digamma(-3, ctx)


def test_digamma_reflection(ctx, mp):
    for i in (1, 7, 33, 50, 99):
        z = mp.mpf(i) / 101
        lhs = digamma(1 - z, ctx).value
        rhs = digamma(z, ctx).value + mp.pi * mp.cospi(z) / mp.sinpi(z)
        assert abs(lhs - rhs) <= 8 * ctx.tol * (1 + abs(rhs))


# ---------------------------------------------------------------- bernoulli

def test_bernoulli_first_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)


def test_bernoulli_defining_recurrence_oracle():
    # sum_{j=0}^{k} C(k+1, j) B_j = 0 for k >= 1
    for k in range(1, 41):
        acc = sum(comb(k + 1, j) * bernoulli(j) for j in range(k + 1))
        assert acc == 0


def test_bernoulli_odd_vanish():
    assert all(bernoulli(2 * k + 1) == 0 for k in range(1, 25))


def test_bernoulli_rejects_negative():
    with pytest.raises(DomainError):
        bernoulli(-1)


# ---------------------------------------------------------------- bessel

def _i0_series_oracle(mp, t, terms=400):
    # independent truncated power series sum t^(2k)/(k!)^2 with tail bound
    acc = mp.mpf(0)
    term = mp.mpf(1)
    for k in range(terms):
        acc += term
        term = term * t * t / ((k + 1) * (k + 1))
    ratio = (t * t) / (terms * terms)
    assert ratio < 0.5, "oracle truncation insufficient"
    return acc, term / (1 - ratio)


def test_bessel_at_zero(mp):
    assert _i0e_raw(mp, mp.zero, switch=128) == (1, 0)


def test_bessel_series_oracle(mp):
    for t in (1, Fraction(7, 2), 20):
        tt = mp.convert(Fraction(t))
        series, tail = _i0_series_oracle(mp, tt)
        expected = mp.exp(-2 * tt) * series
        value, err = _i0e_raw(mp, tt, switch=128)
        assert abs(value - expected) <= err + tail + mp.mpf(10) ** -70


def test_bessel_asymptotic_regime(mp):
    # leading behavior 1/sqrt(4 pi t) to 1% at t = 10^4
    t = mp.mpf(10) ** 4
    value, _ = _i0e_raw(mp, t, switch=128)
    lead = 1 / mp.sqrt(4 * mp.pi * t)
    assert abs(value - lead) / lead < 0.01


def test_bessel_branch_consistency(mp):
    # power series and asymptotic branch agree where both apply
    for tv in (40, 75, 120):
        t = mp.mpf(tv)
        v_series, e_series = _i0e_raw(mp, t, switch=1000)
        v_asym, e_asym = _i0e_raw(mp, t, switch=1)
        assert abs(v_series - v_asym) <= e_series + e_asym


# ---------------------------------------------------------------- zeta

def test_zeta_special_values(ctx, mp):
    assert abs(riemann_zeta_numeric(0, ctx).value + Fraction(1, 2)) < ctx.tol
    assert abs(riemann_zeta_numeric(2, ctx).value - mp.pi ** 2 / 6) < ctx.tol
    assert abs(riemann_zeta_numeric(-1, ctx).value + Fraction(1, 12)) < ctx.tol


def test_zeta_pole(ctx):
    with pytest.raises(PoleError):
        riemann_zeta_numeric(1, ctx)


def test_zeta_trivial_zeros(ctx):
    for m in range(1, 6):
        assert abs(riemann_zeta_numeric(-2 * m, ctx).value) < ctx.tol


def test_zeta_against_known_constants(ctx, mp):
    # spot checks across the advertised range [-10, 10]
    assert abs(riemann_zeta_numeric(4, ctx).value - mp.pi ** 4 / 90) < ctx.tol
    assert abs(riemann_zeta_numeric(-9, ctx).value + Fraction(1, 132)) < ctx.tol
    v = riemann_zeta_numeric(mp.mpc(0.5, 3), ctx)
    w = riemann_zeta_numeric(mp.mpc(0.5, -3), ctx)
    assert abs(v.value.conjugate() - w.value) < 4 * ctx.tol


def test_zeta_range_edges(ctx, mp):
    # the advertised validity range reaches s = +-10
    assert abs(riemann_zeta_numeric(10, ctx).value - mp.pi ** 10 / 93555) < ctx.tol
    assert abs(riemann_zeta_numeric(-10, ctx).value) < ctx.tol
    v = riemann_zeta_numeric(mp.mpc(-7.3, 4.8), ctx)
    # independent check through the functional equation at the same point
    s = mp.mpc(-7.3, 4.8)
    w = riemann_zeta_numeric(1 - s, ctx).value
    pref = mp.power(2, s) * mp.power(mp.pi, s - 1) * mp.sinpi(s / 2) * mp.gamma(1 - s)
    assert abs(v.value - pref * w) < 1e-25


def test_zeta_euler_bernoulli_consistency(ctx, mp):
    # zeta(-m) = (-1)^m B_{m+1}/(m+1) straight from the Bernoulli table
    for m in range(1, 10):
        expected = (-1) ** m * bernoulli(m + 1) / (m + 1)
        ev = mp.mpf(expected.numerator) / expected.denominator
        assert abs(riemann_zeta_numeric(-m, ctx).value - ev) < ctx.tol


# ---------------------------------------------------------------- escalation

def _sine_power_oracle(mp, n, power):
    return mp.fsum(mp.sinpi(mp.mpf(k) / n) ** power for k in range(1, n))


# (context, kernel call, the same value from mpmath at high precision); the
# kernels miss the tolerance at the context's own precision and must retry
# with more bits rather than return an err above tol, except at the two
# near-pole points, whose argument rounds
_LOW = PrecisionContext(64, 1e-27)
_MID = PrecisionContext(256, 1e-30)
_ESCALATIONS = {
    "gamma-half": (_LOW, lambda c: gamma(Fraction(1, 2), c),
                   lambda mp: mp.gamma(mp.mpf(1) / 2)),
    "digamma-0.3": (_LOW, lambda c: digamma(Fraction(3, 10), c),
                    lambda mp: mp.digamma(mp.mpf(3) / 10)),
    "zeta-2.5": (_LOW, lambda c: riemann_zeta_numeric(Fraction(5, 2), c),
                 lambda mp: mp.zeta(mp.mpf(5) / 2)),
    "zeta-neg3.5": (_LOW, lambda c: riemann_zeta_numeric(Fraction(-7, 2), c),
                    lambda mp: mp.zeta(mp.mpf(-7) / 2)),
    "gamma-80.5": (_MID, lambda c: gamma(Fraction(161, 2), c),
                   lambda mp: mp.gamma(mp.mpf(161) / 2)),
    "zeta-neg60.5": (_MID, lambda c: riemann_zeta_numeric(Fraction(-121, 2), c),
                     lambda mp: mp.zeta(mp.mpf(-121) / 2)),
    "sine-power-2000": (_MID, lambda c: sine_power_sum(2000, -20, c),
                        lambda mp: _sine_power_oracle(mp, 2000, -20)),
    # 1e-4 from a pole the rounding of s, amplified by |s psi(s)| for Gamma
    # and |s psi'(s)| for digamma, is 100 times the kernel's own error
    "gamma-near-pole": (_MID, lambda c: gamma(Fraction(-29999, 10000), c),
                        lambda mp: mp.gamma(mp.mpf(-29999) / 10000)),
    "digamma-near-pole": (_MID, lambda c: digamma(Fraction(-29999, 10000), c),
                          lambda mp: mp.digamma(mp.mpf(-29999) / 10000)),
}


@pytest.mark.parametrize("case", list(_ESCALATIONS))
def test_escalation_is_honest(case):
    # err meets the tolerance and covers the true error against mpmath at
    # 1536 bits, above the last boost (1024 extra bits)
    ctx, call, oracle = _ESCALATIONS[case]
    mp = MPContext()
    mp.prec = 1536
    r = call(ctx)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value) - oracle(mp)) <= r.err
