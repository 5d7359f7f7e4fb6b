"""Discrete-circle zeta: direct sums, exact values, cot sums, polynomials."""

import random
from fractions import Fraction
from math import comb

import pytest
from mpmath.ctx_mp import MPContext

from zetakit import (
    DomainError,
    NoConvergence,
    PrecisionContext,
    RationalPolynomial,
    ReconstructionError,
    zeta_zn_closed_poly,
    zeta_zn_direct,
    zeta_zn_negative_int,
    sine_odd_power_sum,
    sine_power_sum,
)
from zetakit import zeta_zn
from zetakit.zeta_zn import POLY_CAP


# ---------------------------------------------------------------- direct sum

def test_direct_single_term(ctx, mp):
    # n = 2: only k = 1, sin(pi/2) = 1, so 4^(-s)
    r = zeta_zn_direct(2, 1, ctx)
    assert abs(r.value.re - Fraction(1, 4)) < ctx.tol


@pytest.mark.parametrize("fold", [True, False])
def test_direct_sum_escalates_to_meet_the_tolerance(fold):
    # at 64 bits/1e-12 the sum for n = 1000, s = 3 (about 2.5e13) misses the
    # tolerance at the context's precision and is served with more bits;
    # err, which covers the rounding back to 64 bits, holds against mpmath
    ctx = PrecisionContext(64, 1e-12)
    mp = MPContext()
    mp.prec = 400
    truth = mp.fsum((2 * mp.sinpi(mp.mpf(k) / 1000)) ** -6 for k in range(1, 1000))
    r = zeta_zn_direct(1000, 3, ctx, fold=fold)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value.value) - truth) <= r.err


def test_direct_sum_runs_once_when_the_first_precision_serves(monkeypatch):
    ctx = PrecisionContext(256, 1e-30)
    calls = []
    power_sum = zeta_zn._power_sum

    def counted(mp, *args):
        calls.append(mp.prec)
        return power_sum(mp, *args)

    monkeypatch.setattr(zeta_zn, "_power_sum", counted)
    zeta_zn_direct(300, Fraction(3, 7), ctx)
    assert calls == [ctx.working_bits]


@pytest.mark.parametrize("n, s", [(1000, 3.7), (1000, 4), (10_000, complex(3, -2)),
                                  (1000, -40.3)])
def test_direct_sum_refuses_at_once_when_no_boost_can_serve(monkeypatch, n, s):
    # at 64 bits/1e-12 these sums are so large that their rounding back to
    # 64 bits, which every boosted sum adds to err, alone misses the
    # tolerance: one sum, then NoConvergence naming the precision; at
    # s = -40.3 the closed form cannot certify zeta_Z(s), so the plain sum
    # is that one sum
    ctx = PrecisionContext(64, 1e-12)
    calls = []
    power_sum = zeta_zn._power_sum

    def counted(mp, *args):
        calls.append(mp.prec)
        return power_sum(mp, *args)

    monkeypatch.setattr(zeta_zn, "_power_sum", counted)
    with pytest.raises(NoConvergence, match="precision too low.*64 bits"):
        zeta_zn_direct(n, s, ctx)
    assert calls == [ctx.working_bits]


def test_direct_exact_algebra_oracle(ctx, mp):
    # n = 3, s = 2: sin^2(pi/3) = 3/4 exactly, so 4^(-2) * 2 * (4/3)^2 = 2/9
    oracle = Fraction(1, 16) * 2 * Fraction(4, 3) ** 2
    assert oracle == Fraction(2, 9)
    r = zeta_zn_direct(3, 2, ctx)
    assert abs(r.value.re - mp.convert(oracle)) < ctx.tol


def test_direct_negative_one(ctx, mp):
    r = zeta_zn_direct(3, -1, ctx)
    assert abs(r.value.re - 6) < ctx.tol  # n C(2,1) with m=1 < n=3


def test_direct_rejects_small_circle(ctx):
    with pytest.raises(DomainError):
        zeta_zn_direct(1, 2, ctx)
    with pytest.raises(DomainError):
        sine_power_sum(0, 2, ctx)
    with pytest.raises(DomainError):
        zeta_zn_direct(5.0, 1, ctx)  # the vertex count is an int


def test_direct_fold_symmetry(ctx, mp):
    for n in (4, 9, 20):
        for s in (-2, Fraction(3, 2), 0.7):
            a = zeta_zn_direct(n, s, ctx).value.re
            b = zeta_zn_direct(n, s, ctx, fold=False).value.re
            assert abs(a - b) <= (2 * n + 32) * mp.eps * (1 + abs(a))


def test_direct_positivity(ctx):
    for n in (2, 5, 12):
        for s in (-4, -0.5, 0.25, 3):
            assert zeta_zn_direct(n, s, ctx).value.re > 0


def _powers(bits: int, n: int) -> dict:
    """One seeded exponent p of each kind for the terms (2 sin(pi k/n))^p."""
    rng = random.Random(f"sine-rotation:{bits}:{n}")
    return {
        "neg-int": -rng.randint(1, 3),
        "pos-int": rng.randint(1, 12),
        "half": rng.choice([-3, -1, 1, 3, 5, 7]) / 2,
        "real": rng.uniform(-3.0, 6.0),
        "complex": complex(rng.uniform(-3.0, 6.0), rng.uniform(-4.0, 4.0)),
    }


@pytest.mark.parametrize("bits", [64, 256, 1024])
@pytest.mark.parametrize("n", [2, 3, 7, 16, 97, 1000, 4097])
def test_direct_and_sine_sums_are_honest(bits, n):
    # both folds of the direct sum and the folded sine-power sum meet the
    # tolerance and cover the true error; the truth is summed term by term
    # from mpmath sines at 2 bits + 64
    ctx = PrecisionContext(bits, 10.0 ** -(bits // 5))
    mp = MPContext()
    mp.prec = 2 * bits + 64
    sines = [mp.sin(mp.pi * k / n) for k in range(1, n)]
    for kind, p in _powers(bits, n).items():
        q = mp.convert(p)
        truth = mp.fsum((2 * x) ** q for x in sines)
        for fold in (True, False):
            r = zeta_zn_direct(n, -p / 2, ctx, fold=fold)
            assert r.err <= ctx.tol, (kind, fold)
            assert abs(mp.mpc(r.value.value) - truth) <= r.err, (kind, fold)
        if kind != "complex":
            r = sine_power_sum(n, p, ctx)
            assert r.err <= ctx.tol, kind
            assert abs(r.value - truth / mp.mpf(2) ** q) <= r.err, kind


def test_direct_rotation_drift_is_covered():
    # the unfolded sum rotates the sine through k = n - 1, where the drift
    # relative to sin(pi k/n) is largest (about 1.5 n^2 units of 2^-wp);
    # zeta_n(1) = (n^2 - 1)/12 exactly
    n = 2 ** 17 + 1
    ctx = PrecisionContext(64, 1e-12)
    r = zeta_zn_direct(n, 1, ctx, fold=False)
    exact = Fraction(n * n - 1, 12)
    assert r.err <= ctx.tol
    assert abs(r.value.re - ctx.mp.mpf(exact.numerator) / exact.denominator) <= r.err


def _truth(n, p, double, prec=1200):
    """sum_k x_k^p, x_k = (2 if double else 1) sin(pi k/n), at prec bits."""
    mp = MPContext()
    mp.prec = prec
    q = mp.mpf(p.numerator) / p.denominator if isinstance(p, Fraction) else mp.convert(p)
    return mp.fsum(((2 if double else 1) * mp.sin(mp.pi * k / n)) ** q
                   for k in range(1, n)), mp


@pytest.mark.parametrize("bits, tol, n, s", [
    # |p| = 2|s| amplifies the sine's relative error by as much
    pytest.param(64, 1e-12, 5, 333.3, id="n5-333.3-64bits"),
    pytest.param(256, 1e-60, 5, 333.3, id="n5-333.3-256bits"),
    pytest.param(128, 1e-25, 3, 333.3, id="n3-333.3-128bits"),
    # a non-dyadic s rounds, and |log(4 sin^2)| amplifies the rounding
    pytest.param(64, 1e-12, 7, Fraction(1, 3), id="n7-third-64bits"),
    pytest.param(64, 1e-12, 3, Fraction(10000001, 1000), id="n3-10000.001-64bits"),
])
def test_direct_error_bound_is_honest(bits, tol, n, s):
    ctx = PrecisionContext(bits, tol)
    r = zeta_zn_direct(n, s, ctx)
    truth, mp = _truth(n, -2 * s, True)
    assert r.err <= tol
    assert abs(mp.mpc(r.value.value) - truth) <= r.err


@pytest.mark.parametrize("n, p", [
    pytest.param(5, -666.6, id="n5-neg666.6"),
    pytest.param(3, Fraction(10000001, 500), id="n3-20000.002"),
])
def test_sine_power_sum_error_bound_is_honest(n, p):
    ctx = PrecisionContext(64, 1e-12)
    r = sine_power_sum(n, p, ctx)
    truth, mp = _truth(n, p, False)
    assert r.err <= ctx.tol
    assert abs(r.value - truth) <= r.err


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("kind, s", [
    pytest.param(kind, s, id=kind) for kind, s in
    (("generic", Fraction(-7, 3)), ("complex", complex(0.75, -1.5)),
     ("half-integer", Fraction(-5, 4)))
])
def test_sums_above_log_taylor_prec(kind, s, n):
    # at 3072 bits the fixed-point kernels run at F > 2500 bits, where the
    # logarithm leaves mpmath's cached Taylor series for mpf_log and exp,
    # cos and sin take their long series; the truth is mpmath at 6200 bits
    ctx = PrecisionContext(3072, 1e-300)
    p = -2 * s
    truth, mp = _truth(n, p, True, 6200)
    r = zeta_zn_direct(n, s, ctx)
    assert abs(mp.mpc(r.value.value) - truth) <= r.err
    if kind != "complex":
        truth, mp = _truth(n, p, False, 6200)
        r = sine_power_sum(n, p, ctx)
        assert abs(r.value - truth) <= r.err


def test_sine_power_sum_runs_once_at_the_precision_it_needs(monkeypatch):
    # at 256 bits the folded sum of sin(pi k/2000)^-20 misses 1e-30 (err
    # 3.9e-27); the block scale shows it before the loop, so the one sum
    # runs at the bits it needs instead of being discarded by certify
    calls = []
    power_sum = zeta_zn._power_sum

    def counted(mp, *args):
        calls.append(mp.prec)
        return power_sum(mp, *args)

    monkeypatch.setattr(zeta_zn, "_power_sum", counted)
    ctx = PrecisionContext(256, 1e-30)
    r = sine_power_sum(2000, -20, ctx)
    assert len(calls) == 1 and calls[0] > ctx.working_bits
    assert r.err <= ctx.tol


# ---------------------------------------------------------------- large-n route

def _count_rotations(monkeypatch):
    """Count the sines that :func:`zeta_zn._rotated_sines` yields."""
    steps = []
    rotated = zeta_zn._rotated_sines

    def counted(n, count, wp):
        for s in rotated(n, count, wp):
            steps.append(s)
            yield s

    monkeypatch.setattr(zeta_zn, "_rotated_sines", counted)
    return steps


def test_direct_sum_refuses_max_terms_before_rotating(monkeypatch):
    # s = 3/4 is a half-integer exponent, which always takes the plain sum:
    # 2500 terms against max_terms = 100, refused before the first sine
    steps = _count_rotations(monkeypatch)
    with pytest.raises(NoConvergence, match="max_terms"):
        zeta_zn_direct(5000, 0.75, PrecisionContext(64, 1e-12, max_terms=100))
    assert steps == []


def test_route_serves_when_only_it_fits_max_terms(monkeypatch):
    # at n = 120 and 64 bits the plain sum of 60 terms is the cheaper path,
    # but max_terms = 50 admits only the route (k0 + 2M + J = 16 + 12 + 19)
    steps = _count_rotations(monkeypatch)
    ctx = PrecisionContext(64, 1e-12, max_terms=50)
    r = zeta_zn_direct(120, 0.37, ctx)
    assert 0 < len(steps) <= 16
    truth, mp = _truth(120, -0.74, True, 300)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value.value) - truth) <= r.err


@pytest.mark.parametrize("s", [0.37, complex(0.3, 2.5), -1.7])
def test_route_serves_a_billion_vertices_within_max_terms(monkeypatch, s):
    # the route's work does not grow with n.  No plain sum reaches n = 10^9;
    # the truth is the large-n expansion, from (2 sin x)^(-2s) = (2x)^(-2s)
    # (1 + (s/3) x^2 + (s/90 + s^2/18) x^4 + ...) summed at both ends,
    #   n zeta_Z(s) + 2 m sum_i c_i (pi/n)^(2i) zeta(2s - 2i), m = (n/2 pi)^(2s),
    # in mpmath at 576 bits; the first term left out is below 1e-40
    steps = _count_rotations(monkeypatch)
    ctx = PrecisionContext(256, 1e-30, max_terms=1000)
    n = 10 ** 9
    r = zeta_zn_direct(n, s, ctx)
    assert r.err <= ctx.tol
    assert 0 < len(steps) <= 1000
    truth, mp = _large_n_expansion(n, s)
    assert abs(mp.mpc(r.value.value) - truth) <= r.err


def _large_n_expansion(n, s):
    """(zeta_n(s), mp) from its large-n expansion in mpmath at 576 bits (see
    test_route_serves_a_billion_vertices_within_max_terms)."""
    mp = MPContext()
    mp.prec = 576
    x = mp.mpc(s)
    m = (mp.mpf(n) / (2 * mp.pi)) ** (2 * x)
    lattice = (mp.power(4, -x) * mp.gamma(mp.mpf(1) / 2 - x)
               / (mp.sqrt(mp.pi) * mp.gamma(1 - x)))
    ends = sum(c * (mp.pi / n) ** (2 * i) * mp.zeta(2 * x - 2 * i)
               for i, c in enumerate((1, x / 3, x / 90 + x * x / 18)))
    return n * lattice + 2 * m * ends, mp


def test_sine_sum_takes_the_route_within_max_terms(monkeypatch):
    # sum_k sin(pi k/n)^0.74 = 2^-0.74 zeta_n(-0.37): the sine sum shares the
    # direct sum's route, so n = 10^9 is served within max_terms = 1000
    steps = _count_rotations(monkeypatch)
    ctx = PrecisionContext(256, 1e-30, max_terms=1000)
    n = 10 ** 9
    r = sine_power_sum(n, 0.74, ctx)
    assert r.err <= ctx.tol
    assert 0 < len(steps) <= 1000
    truth, mp = _large_n_expansion(n, -0.37)
    assert abs(r.value - mp.power(2, -0.74) * truth.real) <= r.err


def test_sine_sum_refuses_max_terms_before_rotating(monkeypatch):
    # an integer power always takes the plain sum: 5 10^8 terms against
    # max_terms = 1000, refused before the first sine
    steps = _count_rotations(monkeypatch)
    with pytest.raises(NoConvergence, match="max_terms"):
        sine_power_sum(10 ** 9, 3, PrecisionContext(256, 1e-30, max_terms=1000))
    assert steps == []


def test_extraction_at_a_generic_exponent_takes_the_route(monkeypatch):
    # extract_zeta reads its sine sums through the same path choice, so the
    # grid points above the switch take the route
    from zetakit.asymptotics import extract_zeta
    routed = []
    route = zeta_zn._route

    def spy(*args):
        routed.append(args[1])
        return route(*args)

    monkeypatch.setattr(zeta_zn, "_route", spy)
    extract_zeta(-1.3, 16, 4096, PrecisionContext(256, 1e-30))
    assert routed


@pytest.mark.parametrize("s", [0.37, complex(-0.6, 0.9)])
def test_route_switch_counts_rotated_sines(monkeypatch, s):
    # above the switch the folded sum rotates at most k0 sines, below it
    # n//2, and the unfolded sum always n - 1
    from zetakit.verify import _route_switch
    ctx = PrecisionContext(256, 1e-30)
    switch = _route_switch(ctx, s)
    steps = _count_rotations(monkeypatch)
    z = ctx.mpc(s)
    p = -2 * (z if z.imag else z.real)
    for n in (switch, 4 * switch):
        k0 = zeta_zn._route_plan(n, p, ctx.tol, n // 2, ctx.max_terms)[0]
        steps.clear()
        zeta_zn_direct(n, s, ctx)
        assert 0 < len(steps) <= k0
        steps.clear()
        zeta_zn_direct(n, s, ctx, fold=False)
        assert len(steps) == n - 1
    steps.clear()
    zeta_zn_direct(switch - 1, s, ctx)
    assert len(steps) == (switch - 1) // 2


def test_route_switch_search_refuses_when_the_budget_admits_no_route():
    # at 1024 bits the route needs about 130 + 2M + J > 100 terms at any n,
    # so the large-n-route check's search for its switch must stop
    from zetakit.verify import _route_switch
    with pytest.raises(NoConvergence, match="max_terms"):
        _route_switch(PrecisionContext(1024, 1e-120, max_terms=100), 0.37)


@pytest.mark.parametrize("bits, tol", [(64, 1e-12), (256, 1e-30), (1024, 1e-120)])
@pytest.mark.parametrize("s", [
    pytest.param(Fraction(1, 2) + Fraction(1, 2 ** 30), id="half-plus-2^-30"),
    pytest.param(Fraction(3, 2) - Fraction(1, 2 ** 20), id="three-halves-minus-2^-20"),
    pytest.param(complex(0.3, 8), id="0.3+8i"),
    pytest.param(-2.7, id="-2.7"),
])
def test_route_is_honest_at_fixed_points(monkeypatch, bits, tol, s):
    # near the poles of zeta_Z at s = 1/2 and 3/2 the series of the cut-off
    # ends cancels n zeta_Z(s); Im s = 8 needs a larger cut-off; the truth
    # is the folded plain sum of mpmath powers at 2 bits + 64
    routed = []
    route = zeta_zn._route

    def spy(*args):
        routed.append(args[4])
        return route(*args)

    monkeypatch.setattr(zeta_zn, "_route", spy)
    n = 3000
    ctx = PrecisionContext(bits, tol)
    r = zeta_zn_direct(n, s, ctx)
    mp = MPContext()
    mp.prec = 2 * bits + 64
    x = mp.mpf(s.numerator) / s.denominator if isinstance(s, Fraction) else mp.mpc(s)
    half = mp.fsum((2 * mp.sinpi(mp.mpf(k) / n)) ** (-2 * x) for k in range(1, n // 2))
    truth = 2 * half + mp.mpf(2) ** (-2 * x)
    assert routed
    assert r.err <= tol
    assert abs(mp.mpc(r.value.value) - truth) <= r.err


# ---------------------------------------------------------------- exact negatives

def test_negative_int_small_cases(ctx, mp):
    assert zeta_zn_negative_int(3, 1) == 6      # m < n: n C(2m, m)
    assert zeta_zn_negative_int(5, 2) == 30
    # n = 2, m = 3: oracle is the direct sum 2^(2m) sum sin^(2m)(pi k/2) = 64
    oracle = mp.mpf(2) ** 6 * sine_power_sum(2, 6, ctx).value
    assert abs(oracle - 64) < ctx.tol
    assert zeta_zn_negative_int(2, 3) == 64


def test_negative_int_matches_direct(ctx, mp):
    for n in range(2, 13):
        for m in range(1, 9):
            exact = zeta_zn_negative_int(n, m)
            direct = zeta_zn_direct(n, -m, ctx).value.re
            assert abs(direct - mp.convert(exact)) <= ctx.tol * (1 + abs(direct))


def test_negative_int_m_below_n(ctx):
    for n in range(2, 10):
        for m in range(1, n):
            assert zeta_zn_negative_int(n, m) == n * comb(2 * m, m)


def test_negative_int_rejects_bad_m():
    with pytest.raises(DomainError):
        zeta_zn_negative_int(3, 0)


# ---------------------------------------------------------------- odd powers

def test_odd_power_base_cases(ctx, mp):
    # n = 2, m = 0: 2 cot(pi/4) = 2 = 2 sin(pi/2)
    r = sine_odd_power_sum(2, 0, ctx)
    assert abs(r.value.re - 2) < ctx.tol
    # n = 3, m = 0: 2 cot(pi/6) = 2 sqrt(3)
    r = sine_odd_power_sum(3, 0, ctx)
    assert abs(r.value.re - 2 * mp.sqrt(3)) < ctx.tol


def test_odd_power_direct_oracle(ctx, mp):
    # (n, m) = (4, 1): must equal 8 * sum sin^3(pi k/4), summed directly
    direct = mp.mpf(8) * sine_power_sum(4, 3, ctx).value
    r = sine_odd_power_sum(4, 1, ctx)
    assert abs(r.value.re - direct) < mp.mpf(10) ** -70


def test_odd_power_sweep(ctx, mp):
    for n in (2, 5, 13, 50):
        for m in (0, 1, 4, 8):
            cot = sine_odd_power_sum(n, m, ctx).value.re
            direct = mp.mpf(2) ** (2 * m + 1) * sine_power_sum(n, 2 * m + 1, ctx).value
            assert abs(cot - direct) <= mp.mpf(10) ** -20 * (1 + abs(direct))


def test_odd_power_rejects_negative_m(ctx):
    with pytest.raises(DomainError):
        sine_odd_power_sum(4, -1, ctx)


# ---------------------------------------------------------------- polynomials

def test_poly_m1_exact(ctx):
    poly = zeta_zn_closed_poly(1, ctx)
    assert poly.coeffs == (Fraction(-1, 12), Fraction(0), Fraction(1, 12))
    assert poly.evaluate(2) == Fraction(1, 4)


def test_poly_m2_constant_is_minus_eleven(ctx):
    # the degree-4 polynomial carries -11/720, fixed by the n = 2 value:
    # zeta_2(2) = 1/16 = (16 + 40 - 11)/720
    poly = zeta_zn_closed_poly(2, ctx)
    assert poly.coeffs == (
        Fraction(-11, 720), Fraction(0), Fraction(1, 72), Fraction(0), Fraction(1, 720))
    assert poly.evaluate(2) == Fraction(1, 16)
    assert Fraction(16 + 40 - 11, 720) == Fraction(1, 16)


def test_poly_matches_direct(ctx, mp):
    for m in (1, 2, 3):
        poly = zeta_zn_closed_poly(m, ctx)
        assert poly.degree == 2 * m
        for n in range(2, 13):
            q = poly.evaluate(n)
            direct = zeta_zn_direct(n, m, ctx).value.re
            assert abs(direct - mp.convert(q)) \
                <= mp.mpf(2) ** (-ctx.precision_bits // 2) * (1 + abs(direct))


def test_poly_cap(ctx):
    with pytest.raises(DomainError):
        zeta_zn_closed_poly(0, ctx)
    with pytest.raises(DomainError):
        zeta_zn_closed_poly(POLY_CAP + 1, ctx)


def test_poly_verification_failure_raises(ctx, monkeypatch):
    # the verify oracle reconstructs from a corrupted value at one node and
    # must refuse; the production polynomial never reads the direct sums
    import zetakit.zeta_zn as zzn
    from zetakit.verify import _reconstructed_poly
    real_direct = zzn.zeta_zn_direct

    def corrupted(n, s, ctx_in=None, **kw):
        r = real_direct(n, s, ctx_in, **kw)
        if n == 4 and s == 1:
            from zetakit.core import complex_result, get_context
            c = get_context(ctx_in)
            return complex_result(c, r.value.value + Fraction(1, 7), r.err,
                                  r.certified, r.method)
        return r

    monkeypatch.setattr(zzn, "zeta_zn_direct", corrupted)
    with pytest.raises(ReconstructionError):
        _reconstructed_poly(1, ctx)
    assert zzn.zeta_zn_closed_poly(1, ctx).coeffs == (
        Fraction(-1, 12), Fraction(0), Fraction(1, 12))


def test_poly_check_requires_oracle_equality(ctx, monkeypatch):
    # 1e-60 off in one coefficient: inside the direct-sum threshold, but no
    # longer equal to the reconstruction oracle
    import zetakit.zeta_zn as zzn
    from zetakit.verify import _check_poly_exactness
    near = RationalPolynomial(
        (Fraction(-1, 12) + Fraction(1, 10 ** 60), Fraction(0), Fraction(1, 12)))
    monkeypatch.setattr(zzn, "zeta_zn_closed_poly",
                        lambda m, c=None: near if m == 1 else zeta_zn_closed_poly(m, c))
    res = _check_poly_exactness(ctx)
    assert not res.passed
    assert res.max_err <= 2.0 ** (-ctx.precision_bits // 2)
    assert res.detail.endswith("oracle mismatch at m = [1]")


# ---------------------------------------------------------------- polynomial str

def test_polynomial_rendering():
    poly = RationalPolynomial((Fraction(-11, 720), Fraction(0),
                               Fraction(1, 72), Fraction(0), Fraction(1, 720)))
    assert str(poly) == "(n^4 + 10*n^2 - 11)/720"
    assert str(RationalPolynomial((Fraction(3),))) == "3"
