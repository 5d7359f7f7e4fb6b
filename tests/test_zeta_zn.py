"""Discrete-circle zeta: direct sums, exact values, cot sums, polynomials."""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

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
from zetakit.core import mpf_to_fraction
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
                                  (1000, -40.3), (1000, complex(-40.3, 0.5))])
def test_direct_sum_refuses_at_once_when_no_boost_can_serve(monkeypatch, n, s):
    # at 64 bits/1e-12 these sums are so large that their rounding back to
    # 64 bits, which every boosted sum adds to err, alone misses the
    # tolerance: one sum, then NoConvergence naming the precision; at real
    # s = 4 and -40.3 the largest term alone shows that, and no sum runs
    # (at s = 3.7 it falls just short)
    ctx = PrecisionContext(64, 1e-12)
    calls = []
    power_sum = zeta_zn._power_sum

    def counted(mp, *args):
        calls.append(mp.prec)
        return power_sum(mp, *args)

    monkeypatch.setattr(zeta_zn, "_power_sum", counted)
    with pytest.raises(NoConvergence, match="precision too low.*64 bits"):
        zeta_zn_direct(n, s, ctx)
    assert calls == ([] if s in (4, -40.3) else [ctx.working_bits])


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


def test_power_sum_lemma_holds_at_a_huge_power():
    # at 64 bits the power 2^200 is past the lemma's |p| < 2^(prec/2):
    # the sum reports an infinite err before any sine is rotated, and
    # certify serves it with more bits; the truth is mpmath at twice the
    # bits it ran at
    ctx = PrecisionContext(64, 1e-12)
    assert zeta_zn._power_sum(ctx.mp, 7, ctx.mp.mpf(2) ** 200, True)[1] == ctx.mp.inf
    r = sine_power_sum(7, 2 ** 200, ctx)
    truth, mp = _truth(7, 2 ** 200, False, 2 * (64 + 1024 + 30))
    assert 0 < r.err <= ctx.tol
    assert abs(r.value - truth) <= r.err


def _run_within(call, seconds=10):
    """What ``call`` (an expression on ``zetakit``) returns, or the name and
    message of what it raises, from a fresh interpreter killed after
    ``seconds``."""
    code = (f"import zetakit\ntry:\n    print({call})\n"
            f"except zetakit.ZetaKitError as exc:\n    print(type(exc).__name__, exc)")
    env = dict(os.environ, PYTHONPATH=str(Path(zeta_zn.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=seconds, check=True).stdout


def test_sine_power_sum_refuses_a_huge_negative_power_at_once():
    # sin(pi/5)^-1e8 is about 2^76,700,000: its err misses 1e-30 at every
    # precision certify tries, each a two-term sum, so it refuses by name
    # within 10 s
    out = _run_within("zetakit.sine_power_sum(5, -1e8, zetakit.PrecisionContext(256))")
    assert out.startswith("NoConvergence") and "sine_power_sum" in out


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


def _record_plans(monkeypatch):
    """Record the plan (k0, M, J, log2 R_M, log2 of the tail of S) of each
    :func:`zeta_zn._route`."""
    plans = []
    route = zeta_zn._route
    monkeypatch.setattr(zeta_zn, "_route", lambda *a: plans.append(a[4]) or route(*a))
    return plans


def test_direct_sum_refuses_max_terms_before_rotating(monkeypatch):
    # s = 3/2 is a pole of zeta_Z, so it always takes the plain sum: 2500
    # terms against max_terms = 100, refused before the first sine
    steps = _count_rotations(monkeypatch)
    with pytest.raises(NoConvergence, match="max_terms"):
        zeta_zn_direct(5000, 1.5, PrecisionContext(64, 1e-12, max_terms=100))
    assert steps == []


@pytest.mark.parametrize("s", [-9999.7, 500.3, -2000.3])
def test_huge_real_sum_refuses_before_rotating(monkeypatch, s):
    # every term is positive, and the largest alone, 2^19999, 2^17291 or
    # 2^4001, renders with an err above 1e-30 at 256 bits: refused from
    # floats, with no sine rotated
    calls = []
    rotated = zeta_zn._rotated_sines
    monkeypatch.setattr(zeta_zn, "_rotated_sines", lambda *a: calls.append(a) or rotated(*a))
    t0 = time.perf_counter()
    with pytest.raises(NoConvergence, match="precision too low"):
        zeta_zn_direct(10 ** 6, s, PrecisionContext(256, 1e-30))
    assert time.perf_counter() - t0 < 0.5
    assert calls == []


def test_magnitude_refusal_only_where_the_sum_refuses(monkeypatch):
    # a seeded sweep of real s at 64 bits: each point is served bit for bit
    # as with the float pre-check off, and each point it refuses is refused
    # by the sum too; n = 6 at s = 10^12, whose largest term is 1 (its
    # float logarithm a hair off 0), is served
    ctx = PrecisionContext(64, 1e-12)
    rng = random.Random(28)
    points = [(rng.choice([2, 3, 5, 6, 7]) if i % 4 == 0 else
               int(math.exp(rng.uniform(math.log(8), math.log(3000)))), rng.uniform(-45, 45))
              for i in range(48)]
    points += [(6, 1e12), (7, 20.3), (1000, -28.1)]

    def outcome(n, s):
        try:
            r = zeta_zn_direct(n, s, ctx)
        except NoConvergence as exc:
            return str(exc)
        return r.value.value, r.err

    rule = zeta_zn.refuse_rounding
    refused = 0
    for n, s in points:
        with_check = outcome(n, s)
        with monkeypatch.context() as m:
            # off before work, where the bound is a float; the after-work
            # check passes an mpf
            m.setattr(zeta_zn, "refuse_rounding", lambda ctx, lb, *a: (
                None if isinstance(lb, float) else rule(ctx, lb, *a)))
            without = outcome(n, s)
        if isinstance(with_check, str) and "precision too low" in with_check:
            refused += 1
        assert with_check == without or isinstance(with_check, str) and isinstance(without, str)
    assert refused >= 10 and not isinstance(outcome(6, 1e12), str)


@pytest.mark.parametrize("bits, tol", [(64, 1e-12), (256, 1e-30)])
def test_sine_sum_refusal_only_where_the_sum_refuses(monkeypatch, bits, tol):
    # seeded real powers x < 0 whose largest term sin(pi/n)^x lies within
    # a factor 2^(1/2) in log2 of the edge where, with 1024 extra bits, its
    # rendering misses the tolerance: each point the rule refuses is refused
    # by every boosted sum too, and each point served is served bit for bit
    # as with the rule off
    ctx = PrecisionContext(bits, tol)
    rng = random.Random(29)
    edge = bits + 1024 + 30 + math.log2(tol)
    points = []
    for _ in range(24):
        n = int(math.exp(rng.uniform(math.log(3), math.log(10 ** 5))))
        points.append((n, rng.uniform(0.5, 1.5) * edge / math.log2(math.sin(math.pi / n))))

    def outcome(n, x):
        try:
            r = sine_power_sum(n, x, ctx)
        except NoConvergence as exc:
            return str(exc)
        return r.value, r.err

    refused = served = 0
    for n, x in points:
        with_rule = outcome(n, x)
        with monkeypatch.context() as m:
            m.setattr(zeta_zn, "refuse_rounding", lambda *a: None)
            without = outcome(n, x)
        if isinstance(with_rule, str):
            refused += "precision too low" in with_rule
            assert isinstance(without, str)
        else:
            served += 1
            assert with_rule == without
    assert refused >= 6 and served >= 6


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


@pytest.mark.parametrize("s", [0.37, complex(0.3, 2.5), -1.7, 0.75])
def test_route_serves_a_billion_vertices_within_max_terms(monkeypatch, s):
    # the route's work does not grow with n, at a half-integer exponent
    # (s = 3/4) too: it rotates only its k0 head sines.  No plain sum
    # reaches n = 10^9; the truth is the large-n expansion, from
    # (2 sin x)^(-2s) = (2x)^(-2s) (1 + (s/3) x^2 + (s/90 + s^2/18) x^4 +
    # ...) summed at both ends,
    #   n zeta_Z(s) + 2 m sum_i c_i (pi/n)^(2i) zeta(2s - 2i), m = (n/2 pi)^(2s),
    # in mpmath at 576 bits; the first term left out is below 1e-40
    steps = _count_rotations(monkeypatch)
    plans = _record_plans(monkeypatch)
    ctx = PrecisionContext(256, 1e-30, max_terms=1000)
    n = 10 ** 9
    r = zeta_zn_direct(n, s, ctx)
    assert r.err <= ctx.tol
    assert 0 < len(steps) <= plans[-1][0]
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


def test_sine_sum_takes_the_route_at_an_odd_power(monkeypatch):
    # power 3 is s = -3/2, where zeta_Z is exact: n = 10^9 is served within
    # max_terms = 1000 by rotating only the k0 head sines.  The truth is the
    # cotangent sum, 2^-3 zeta_n(-3/2), on mpmath's own sines at 576 bits
    steps = _count_rotations(monkeypatch)
    plans = _record_plans(monkeypatch)
    ctx = PrecisionContext(256, 1e-30, max_terms=1000)
    n = 10 ** 9
    r = sine_power_sum(n, 3, ctx)
    assert r.err <= ctx.tol
    assert 0 < len(steps) <= plans[-1][0]
    truth = sine_odd_power_sum(n, 1, PrecisionContext(576, 1e-150)).value.value / 8
    assert abs(r.value - truth) <= r.err


def test_sine_sum_refuses_max_terms_before_rotating(monkeypatch):
    # power -3 is s = 3/2, a pole of zeta_Z, so it always takes the plain
    # sum: 5 10^8 terms against max_terms = 1000, refused before the first
    # sine
    steps = _count_rotations(monkeypatch)
    with pytest.raises(NoConvergence, match="max_terms"):
        sine_power_sum(10 ** 9, -3, PrecisionContext(256, 1e-30, max_terms=1000))
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


def _least_cost_plan(n, p, tol, count, max_terms, bits):
    """The plan of :func:`zeta_zn._route_plan` by exhaustive search: every
    k0 of ``_K0_CHOICES`` with n >= 4 k0, each at the least order M, found
    by scanning every M up to the bound's turning point, whose remainder
    bound meets tol/4; the least-cost plan that fits max_terms and costs
    less than the plain sum of ``count`` terms, the first k0 among equals."""
    quarter = not p.imag and zeta_zn._quarter(p.real)
    unit = zeta_zn._quarter_price(bits) if quarter else 1
    per_mul, per_term, fixed = (x / unit for x in zeta_zn._ROUTE_COST)
    best, plan = (count if count <= max_terms else math.inf), None
    pabs, rep = float(abs(p)), float(p.real)
    tlog = math.log2(tol.man) + tol.exp
    for k0 in zeta_zn._K0_CHOICES:
        if 4 * k0 > n:
            break
        bound = zeta_zn._remainder_bound(n, k0, pabs, rep)
        turn = min(int(0.8 * math.pi * k0), zeta_zn._ROUTE_MAX_ORDER)
        M = next((m for m in range(1, turn + 1) if bound(m) <= tlog - 2), None)
        if M is None:
            continue
        th0 = math.pi * k0 / n
        lu = math.log2(math.sin(th0))
        scale = (math.log2(2 * n / math.pi) + rep * (1 + lu) + lu
                 - math.log2(1 - math.sin(th0) ** 2))
        J = max(1, math.ceil((tlog - 4 - scale) / (2 * lu)), math.ceil(-rep / 2) + 1)
        cost = k0 + per_mul * (2 * M - 1) ** 2 + per_term * J + fixed
        if cost < best and k0 + 2 * M + J <= max_terms:
            slog = scale + 2 * J * lu - math.log2(rep + 2 * J + 1)  # the tail of S
            best, plan = cost, (k0, M, J, bound(M), slog)
    return plan, best


def test_route_plan_is_the_least_cost_plan():
    # the pruned search (a cap on the order from J, the best cost and
    # max_terms, one bound at the cap) picks the plan of the exhaustive one;
    # each case runs again with the plain sum priced just above that plan's
    # cost and with max_terms just fitting it, so that each part of the cap
    # is met with equality at the winning cut-off
    rng = random.Random(2209)
    ctxs = [PrecisionContext(64, 1e-12), PrecisionContext(256, 1e-30),
            PrecisionContext(1024, 1e-120)]
    routed = 0
    for i in range(240):
        ctx = ctxs[i % 3]
        mp = ctx.mp
        kind = i // 3 % 4
        if kind == 0:
            p = mp.mpf(rng.uniform(-12, 8))
        elif kind == 1:
            p = mp.mpc(rng.uniform(-6, 6), rng.uniform(-4, 4))
        else:
            p = mp.mpf(rng.randint(-12, 8)) + (mp.mpf(0.5) if kind == 3 else 0)
        n = int(math.exp(rng.uniform(math.log(4), math.log(1e9))))
        tol = ctx.tol * mp.mpf(2) ** rng.randint(-8, 8)
        cases = [(n // 2, rng.choice([200, 1000, 10 ** 6]))]
        plan, cost = _least_cost_plan(n, p, tol, *cases[0], ctx.precision_bits)
        if plan is not None:
            routed += 1
            k0, M, J, _, _ = plan
            cases += [(math.floor(cost) + 1, cases[0][1]), (cases[0][0], k0 + 2 * M + J)]
        for count, max_terms in cases:
            args = (n, p, tol, count, max_terms, ctx.precision_bits)
            assert zeta_zn._route_plan(*args) == _least_cost_plan(*args)[0], args
    assert routed > 100


@pytest.mark.parametrize("s", [0.37, complex(-0.6, 0.9), -2, 2, Fraction(-3, 2)])
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
        k0 = zeta_zn._route_plan(n, p, ctx.tol, n // 2, ctx.max_terms, ctx.precision_bits)[0]
        steps.clear()
        zeta_zn_direct(n, s, ctx)
        assert 0 < len(steps) <= k0
        steps.clear()
        zeta_zn_direct(n, s, ctx, fold=False)
        assert len(steps) == n - 1
    steps.clear()
    zeta_zn_direct(switch - 1, s, ctx)
    assert len(steps) == (switch - 1) // 2


@pytest.mark.parametrize("s", [Fraction(3, 2), -2 + Fraction(1, 2 ** 140)],
                         ids=["pole", "near-lattice"])
def test_plain_sum_where_the_route_does_not_apply(monkeypatch, s):
    # at a pole of zeta_Z (s = 3/2, where a denominator p + 2j + 1 of the
    # route's series vanishes) and within snapping distance of Z/2 but off
    # it, the folded sum adds every term, even far above the switch of s = -2
    from zetakit.verify import _route_switch
    ctx = PrecisionContext(256, 1e-30)
    n = 4 * _route_switch(ctx, -2)
    plans = _record_plans(monkeypatch)
    steps = _count_rotations(monkeypatch)
    r = zeta_zn_direct(n, s, ctx)
    assert plans == [] and len(steps) == n // 2
    assert r.err <= ctx.tol


@pytest.mark.parametrize("bits", [128, 256])
def test_sine_sum_at_power_zero_stays_plain(monkeypatch, bits):
    # sum_k sin(pi k/n)^0 is n - 1, returned as that integer with no sine
    # rotated and no route taken, so n = 10^9 fits max_terms = 1000; the
    # route would miss it, although its cost formula alone would take it
    # at n = 1001.  Past 2^(working bits) the rounding of n - 1 is its err.
    ctx = PrecisionContext(bits, 1e-30, max_terms=1000)
    assert zeta_zn._route_plan(1001, ctx.mp.zero, ctx.tol, 500, 1000, bits) is not None
    plans = _record_plans(monkeypatch)
    steps = _count_rotations(monkeypatch)
    for n in (1001, 10 ** 9):
        r = sine_power_sum(n, 0, ctx)
        assert r.value == n - 1 and r.err == 0
    loose = PrecisionContext(bits, 2 ** 100)
    n = 2 ** 300 + 2
    r = sine_power_sum(n, 0, loose)
    assert 0 < r.err <= loose.tol
    assert abs(int(r.value) - (n - 1)) <= mpf_to_fraction(r.err)
    assert plans == [] and steps == []


@pytest.mark.parametrize("s", [0, Fraction(1, 2), Fraction(3, 2)], ids=str)
def test_route_switch_refuses_where_the_sum_never_routes(monkeypatch, s):
    # at s = 0 and the poles of zeta_Z the folded sum adds every term at any
    # n, so there is no switch to find: the search refuses, naming s, before
    # it prices a single plan
    from zetakit.verify import _route_switch
    priced = []
    plan = zeta_zn._route_plan
    monkeypatch.setattr(zeta_zn, "_route_plan", lambda *a: priced.append(a) or plan(*a))
    with pytest.raises(NoConvergence, match=f"s = {s} "):
        _route_switch(PrecisionContext(256, 1e-30), s)
    assert priced == []


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


def _negative_int_per_term(n, m):
    """The former per-term sum n sum_k (-1)^(kn) C(2m, m + kn), |k| <= m/n."""
    return n * sum((-1 if k * n % 2 else 1) * comb(2 * m, m + k * n)
                   for k in range(-(m // n), m // n + 1))


def test_negative_int_walk_matches_the_per_term_sum():
    for n in range(2, 21):
        for m in range(1, 301):
            assert zeta_zn_negative_int(n, m) == _negative_int_per_term(n, m), (n, m)


def test_negative_int_refuses_past_the_exact_width_at_once():
    # 2m = 40000 > 2^15: refused before C(40000, 20000) is built, in a
    # fresh interpreter given 10 s; 2m = 2^15 is served
    out = _run_within("zetakit.zeta_zn_negative_int(5, 20000)")
    assert out.startswith("NoConvergence") and "32768" in out
    assert zeta_zn_negative_int(2, 2 ** 14) > 0


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
