"""Kernel tests: Gamma, digamma, Bernoulli, zeta, and the fixed-point
kernels of the hot loops."""

import random
import sys
import threading
from fractions import Fraction
from math import comb, factorial

import mpmath
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
from zetakit import numerics


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


def test_bernoulli_matches_mpmath():
    # mpmath.bernfrac is an independent algorithm
    ks = list(range(101)) + [500, 720, 800, 1002]
    assert [k for k in ks if bernoulli(k) != Fraction(*mpmath.bernfrac(k))] == []


def test_bernoulli_memo_is_order_independent(monkeypatch):
    # a fresh memo filled in one request is the reference; rising, falling
    # and concurrent requests must leave exactly the same table
    monkeypatch.setattr(numerics, "_BERN_EVEN", [Fraction(1)])
    reference = [bernoulli(2 * j) for j in range(301)]
    monkeypatch.setattr(numerics, "_BERN_EVEN", [Fraction(1)])
    for k in (10, 600, 4, 2, 64, 66, 68):
        assert bernoulli(k) == reference[k // 2]
    assert [bernoulli(2 * j) for j in range(301)] == reference

    monkeypatch.setattr(numerics, "_BERN_EVEN", [Fraction(1)])
    targets = (600, 12, 300, 2, 450, 70)
    got = {}
    threads = [threading.Thread(target=lambda k=k: got.setdefault(k, bernoulli(k)))
               for k in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {k: reference[k // 2] for k in targets}
    assert numerics._BERN_EVEN[:301] == reference


def test_cold_zeta_builds_the_tangent_numbers_once(monkeypatch):
    # the first 1024-bit zeta of a process fills the Bernoulli memo and the
    # coefficient table in one pass, not in rising steps
    monkeypatch.setattr(numerics, "_BERN_EVEN", [Fraction(1)])
    monkeypatch.setattr(numerics, "_EM_TABLE", {})
    calls = []
    tangent = numerics._tangent_numbers
    monkeypatch.setattr(numerics, "_tangent_numbers", lambda n: calls.append(n) or tangent(n))
    riemann_zeta_numeric(2.5, PrecisionContext(1024, 1e-120))
    assert len(calls) == 1


def test_zeta_coefficient_table_is_exact_to_its_bits(monkeypatch):
    # each B_2j/(2j)! within 2^-(F+1) of the exact value, relatively, and
    # the table is the same whether it grows in one request or in several
    monkeypatch.setattr(numerics, "_EM_TABLE", {})
    wb = 286
    F = wb + numerics.FIXED_GUARD
    grown = [numerics._em_coefficients(wb, count) for count in (1, 70, 71, 200)][-1]
    monkeypatch.setattr(numerics, "_EM_TABLE", {})
    once = numerics._em_coefficients(wb, 200)
    assert grown[:200] == once[:200]
    for j, (m, e) in enumerate(once[:200], start=1):
        c = bernoulli(2 * j) / factorial(2 * j)
        assert abs(m) >= 2 ** F
        assert abs(m * Fraction(2) ** e - c) <= abs(c) / 2 ** (F + 1)

    # concurrent requests each get at least their count, and the table they
    # leave is the one-request table
    monkeypatch.setattr(numerics, "_EM_TABLE", {})
    counts = (1, 150, 60, 200, 90, 10)
    got = {}
    threads = [threading.Thread(target=lambda n=n: got.setdefault(n, numerics._em_coefficients(wb, n)))
               for n in counts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(got[n]) >= n and got[n][:n] == once[:n] for n in counts)
    assert numerics._EM_TABLE[wb][:200] == once[:200]


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


# 1024 bits/1e-120, the lattice-deep precision: Euler-Maclaurin points
# (four real, two complex, and 1/2 + 400i, where N = |Im s| + 8 exceeds
# the precision's default of b/7 = 151 terms) and one reflected point
_DEEP_ZETA = [2.5, 0.3, 7.7, -0.4, -5.3, complex(0.7, 3.1), complex(0.5, 40),
              complex(0.5, 400)]


@pytest.mark.parametrize("s", _DEEP_ZETA, ids=str)
def test_zeta_honest_at_1024_bits(s):
    ctx = PrecisionContext(1024, 1e-120)
    mp = MPContext()
    mp.prec = 2 * 1024 + 64
    r = riemann_zeta_numeric(s, ctx)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value) - mp.zeta(mp.mpc(s))) <= r.err


@pytest.mark.parametrize("F", [84, 306, 420, 640, 1100, 3122])
def test_fixed_point_kernels(F):
    # each kernel within FIXED_ULPS units of 2^-F of mpmath at 2F + 64 bits,
    # below and above mpmath's series cutoffs (cos/sin 400, exp 600, log
    # 2500 bits); exp relative to max(1, e^x), pow as _pow_fixed promises
    mp = MPContext()
    mp.prec = 2 * F + 64
    rng = random.Random(F)
    unit = mp.ldexp(1, -F)
    ulps = numerics.FIXED_ULPS
    for _ in range(30):
        x = rng.randrange(-(300 << F), 300 << F) >> rng.randrange(0, F)
        t = mp.ldexp(x, -F)
        e = mp.exp(t)
        assert abs(mp.ldexp(numerics._exp_fixed(x, F), -F) - e) <= ulps * unit * max(1, e)
        c, s = numerics._cos_sin_fixed(x, F)
        assert abs(mp.ldexp(c, -F) - mp.cos(t)) <= ulps * unit
        assert abs(mp.ldexp(s, -F) - mp.sin(t)) <= ulps * unit
        y = (rng.randrange(1, 1 << (F + 40)) >> rng.randrange(0, F + 30)) or 1
        assert abs(mp.ldexp(numerics._log_fixed(y, F), -F) - mp.log(mp.ldexp(y, -F))) <= ulps * unit
        q = rng.randrange(0, 5000)
        r = rng.randrange(1 << (F - 1), 1 << F)
        got = mp.ldexp(numerics._pow_fixed(r, q, F), -F)
        assert abs(got - mp.ldexp(r, -F) ** q) <= 3 * q * unit


def test_fixed_point_format():
    # triples (re, im, e) stand for (re + i im) 2^e: _dyadic reads exactly,
    # or floored onto a grid; _trim floors to F + 1 bits and never widens;
    # _divide is within 2^(1-F); _to_mp rounds back once
    mp = MPContext()
    mp.prec = 300
    F = 120
    z = mp.mpc(mp.mpf(1) / 3, -mp.ldexp(5, -90))
    re, im, e = numerics._dyadic(z)
    assert e <= 0 and numerics._to_mp(mp, re, im, e, True) == z
    assert numerics._dyadic(mp.mpf(6)) == (6, 0, 0)
    assert numerics._dyadic(z, -F) == (mp.floor(z.real * 2 ** F), -mp.ldexp(5, 30), -F)
    x = (7 << 200) + 12345
    assert numerics._trim(x, -x // 3, 5, F) == (x >> 82, (-x // 3) >> 82, 87)  # 203 bits
    assert numerics._trim(12345, -7, 5, F) == (12345, -7, 5)
    qr, qi, qe = numerics._divide(3 << 150, 1 << 150, 7, -2, F)
    assert max(abs(qr), abs(qi)) >= 2 ** F
    q = mp.mpc(3 << 150, 1 << 150) / mp.mpc(7, -2)
    assert abs(mp.mpc(qr, qi) * mp.ldexp(1, qe) - q) <= abs(q) * mp.ldexp(1, 1 - F)
    assert numerics._to_mp(mp, 3, 99, -1, False) == mp.mpf(1.5)


def _em_orders(monkeypatch):
    """Lists that record each Euler-Maclaurin sum's length N (from the power
    sum) and its order M, as the kernel's order walk returns it."""
    lengths, orders = [], []
    power_sum, em_tail = numerics._power_sum, numerics._em_tail

    def counted_power_sum(mp, s, N):
        lengths.append(N)
        return power_sum(mp, s, N)

    def counted_em_tail(mp, s, N, target):
        found = em_tail(mp, s, N, target)
        if found is not None:
            orders.append(found[2])
        return found

    monkeypatch.setattr(numerics, "_power_sum", counted_power_sum)
    monkeypatch.setattr(numerics, "_em_tail", counted_em_tail)
    return lengths, orders


def _em_bound(mp, s, N, M):
    """The remainder bound of _em_zeta_raw's docstring, from the exact
    Bernoulli number: |B_2M+2/(2M+2)! (s)_2M+1| N^(-sigma-2M-1)
    |s+2M+1|/(sigma+2M+1)."""
    b = bernoulli(2 * M + 2)
    poch = mp.one
    for i in range(2 * M + 1):
        poch *= s + i
    return (mp.mpf(abs(b.numerator)) / (b.denominator * factorial(2 * M + 2))
            * abs(poch) * mp.power(N, -s.real - 2 * M - 1)
            * abs(s + 2 * M + 1) / (s.real + 2 * M + 1))


@pytest.mark.parametrize("bits,tol,s", [
    (256, 1e-30, 2.5), (256, 1e-30, -0.4), (256, 1e-100, complex(0.7, 3.1)),
    (1024, 1e-120, 7.7), (1024, 1e-120, complex(0.5, 40)),
], ids=str)
def test_zeta_order_is_least_for_its_length(bits, tol, s, monkeypatch):
    # the proved bound at (N, M) meets the target min(tol, 2^-prec) and the
    # one at (N, M - 1) misses it; 1e-100 lies below 2^-286, the others above
    ctx = PrecisionContext(bits, tol)
    mp = ctx.mp
    z = ctx.mpc(s)
    z = z.real if z.imag == 0 else z
    lengths, orders = _em_orders(monkeypatch)
    numerics._em_zeta_raw(mp, z, ctx.tol, ctx.max_terms)
    N, M = lengths[0], orders[0]
    target = min(ctx.tol, mp.mpf(2) ** -mp.prec)
    assert M >= 1
    assert _em_bound(mp, z, N, M) <= target < _em_bound(mp, z, N, M - 1)


@pytest.mark.parametrize("s", [2.5, -5.3, complex(0.7, 3.1)], ids=str)
def test_zeta_length_and_order_fit_the_target(s, monkeypatch):
    # at 1024 bits/1e-120 the remainder target is 2^-1054, which N + M <= 400
    # terms meet (one sum: the reflected point sums at 1 - s)
    ctx = PrecisionContext(1024, 1e-120)
    lengths, orders = _em_orders(monkeypatch)
    riemann_zeta_numeric(s, ctx)
    assert len(lengths) == 1
    assert lengths[0] + orders[0] <= 400


# (bits, tol, s): near the pole at 1, |zeta'(s)| ~ 1/(s-1)^2 amplifies the
# rounding of a non-dyadic s past the kernel's own error; the last s rounds
# onto the trivial zero at -2, where zeta is not exactly zero
_ZETA_ROUNDED = [
    (64, 1e-12, Fraction(100000001, 100000000)),
    (64, 1e-12, Fraction(1000001, 1000000)),
    (256, 1e-30, Fraction(10000001, 10000000)),
    (256, 1e-30, Fraction(1000001, 1000000)),
    (128, 1e-20, Fraction(100001, 100000)),
    (64, 1e-12, Fraction(-2 * 10 ** 40 - 1, 10 ** 40)),
]


@pytest.mark.parametrize("bits,tol,s", _ZETA_ROUNDED, ids=str)
def test_zeta_rounded_argument_is_honest(bits, tol, s):
    # truth: mpmath at 2 bits + 400, taken at the exact rational s
    ctx = PrecisionContext(bits, tol)
    mp = MPContext()
    mp.prec = 2 * bits + 400
    r = riemann_zeta_numeric(s, ctx)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value) - mp.zeta(mp.mpf(s.numerator) / s.denominator)) <= r.err


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
# with more bits (the sine-power sum starts at them) rather than return an
# err above tol, except at the two near-pole points, whose argument rounds
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
