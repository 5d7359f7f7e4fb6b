"""The one rule for Euler-Maclaurin remainder bounds (the numerics module
docstring): each order search accepts the first order whose float log2 bound
meets its target, and :func:`numerics._bound_from_log2` certifies it.

The seeded sweeps hold the orders to those of the former walks, copied here,
which screened each order in floats and confirmed its bound in mpmath
numbers; and every certified bound to at least the bound formed in mpmath at
twice the precision."""

import math
import random
from math import factorial

import pytest
from mpmath.ctx_mp import MPContext

from zetakit import numerics, zeta_z, zeta_zn
from zetakit.core import NoConvergence, PrecisionContext, argument
from zetakit.numerics import bernoulli

#: the float screen's slack of the former walks, in bits
_SCREEN_SLACK = 2.0 ** -20

#: precisions of the sweeps: each has its own Euler-Maclaurin coefficient
#: table, so the set is small
_BITS = (64, 96, 128, 256, 333, 512, 777, 1024, 1500, 2048)

_CONTEXTS = {bits: PrecisionContext(bits) for bits in _BITS}


def _former_em_order(mp, s, N, target):
    """M of the former Euler-Maclaurin order walk, None at the bound's
    upturn: at each order whose float log2 bound reads at most log2 target
    + the slack, the bound formed in mpmath numbers is compared with target."""
    prec = mp.prec
    F = prec + numerics.FIXED_GUARD
    sigma = s.real
    cplx = isinstance(s, mp.mpc)
    sr, si, _ = numerics._dyadic(s, -F)
    s2r, s2i = (sr * sr - si * si) >> F, (sr * si) >> (F - 1)
    u, v, e = numerics._dyadic(s / N)
    u, v, e = numerics._trim(u << F, v << F, e - F, F)
    n2 = N * N
    nb = n2.bit_length()
    npow = mp.power(N, -sigma)
    nlog = -float(sigma) * math.log2(N)
    tlog = math.log2(target.man) + target.exp + _SCREEN_SLACK
    coef = ()
    last = None
    for m in range(4 * prec + 1):
        if m >= len(coef):
            coef = numerics._em_coefficients(prec, m + 1)
        cm, ce = coef[m]
        k = 2 * m + 1
        est = math.log2(abs(cm)) + ce + numerics._log2_abs(u, v) + e + nlog
        if cplx:
            est += numerics._log2_abs(sr + (k << F), si) - math.log2(sr + (k << F))
        if est <= tlog:
            bound = (mp.ldexp(abs(cm), ce) * mp.ldexp(mp.hypot(u, v), e)
                     * npow * abs(s + k) / (sigma + k))
            if bound <= target:
                return m
        if last is not None and est >= last:
            return None
        last = est
        qr = s2r + (2 * k + 1) * sr + (k * (k + 1) << F)
        qi = s2i + (2 * k + 1) * si
        xr, xi, e = numerics._trim(u * qr - v * qi, u * qi + v * qr, e - F, F + nb)
        u, v = xr // n2, xi // n2
    raise NoConvergence("budget")


def _former_tail_order(mp, d, rmax):
    """J of the former product-tail walk, None once 2J >= 2 pi d: at each J
    whose float log2 R_J reads at most log2 rmax + the slack, R_J formed in
    mpmath numbers with ``mp.factorial`` is compared with rmax."""
    if d <= 0:
        return None
    two_pi_d = 2 * math.pi * float(d)
    step = -2 * math.log2(two_pi_d)
    lr = math.log2(zeta_z._EIGHT_ZETA3 / (2 * math.pi)) + step
    tlog = math.log2(rmax.man) + rmax.exp + _SCREEN_SLACK
    J = 1
    while True:
        if lr <= tlog:
            R = (zeta_z._EIGHT_ZETA3 * mp.factorial(2 * J - 1)
                 / (2 * mp.pi * (2 * mp.pi * d) ** (2 * J)))
            if R <= rmax:
                return J
        if 2 * J >= two_pi_d:
            return None
        lr += math.log2(2 * J * (2 * J + 1)) + step
        J += 1


def _em_cases(count, seed):
    """(mp, s, N, target): real s in [-1/2, 40] or complex s with Re s in
    [-1/2, 12] and |Im s| <= 30, a target of 20 bits to 10 past the working
    precision, and N the kernel's length for it (at least 12 and |Im s| + 8)
    or up to thrice that, or a quarter of it, where the bound may turn
    upward first.  A precision is drawn with weight 1/bits, so that the
    walks, whose work grows faster than the bits, share the time evenly."""
    rng = random.Random(seed)
    for i in range(count):
        mp = _CONTEXTS[rng.choices(_BITS, [1 / b for b in _BITS])[0]].mp
        if i % 2:
            s = mp.mpc(rng.uniform(-0.5, 12), rng.uniform(-30, 30))
        else:
            s = mp.mpf(rng.uniform(-0.5, 40))
        b = rng.uniform(20, mp.prec + 10)
        target = mp.ldexp(rng.uniform(1, 2), -int(b))
        N = max(12, int(b / 7) + 1, int(abs(s.imag)) + 8)
        N = max(2, int(N * rng.choice((0.25, 1, 1, 1, 2, 3))))
        yield mp, s, N, target


def _em_order(mp, s, N, target):
    found = numerics._em_tail(mp, s, N, target)
    return None if found is None else found[2]


def test_em_tail_takes_the_former_order():
    # 10,000 seeded cases at 64 to 2048 bits, real and complex s: the
    # zeta kernel's order equals that of the former walk, upturns included
    bits = set()
    for mp, s, N, target in _em_cases(10_000, 23):
        assert _em_order(mp, s, N, target) == _former_em_order(mp, s, N, target), (mp.prec, s, N)
        bits.add(mp.prec - 30)
    assert bits == set(_BITS)


def _tail_cases(count, seed):
    """(mp, d, rmax): d = K - 2|s| as the product sizes it, 0.3 b + 3 for
    b from 1 to the working precision, or up to 64 times that after K has
    grown, or cut below it; rmax from 2^-1 to 2^-(prec + 40)."""
    rng = random.Random(seed)
    for _ in range(count):
        mp = _CONTEXTS[rng.choice(_BITS)].mp
        b = rng.uniform(1, mp.prec)
        d = mp.mpf(rng.uniform(0.05, 1.0) * (0.3 * b + 3) * rng.choice((0.1, 1, 1, 4, 16, 64)))
        rmax = mp.ldexp(rng.uniform(1, 2), -int(rng.uniform(1, mp.prec + 40)))
        yield mp, d, rmax


def test_tail_order_takes_the_former_order():
    # 10,000 seeded cases at 64 to 2048 bits: the least-order search on
    # the closed-form log2 R_J takes the J of the former walk, or None with it
    met = 0
    for mp, d, rmax in _tail_cases(10_000, 29):
        found = zeta_z._tail_order(mp, d, rmax)
        J = None if found is None else found[0]
        assert J == _former_tail_order(mp, d, rmax), (mp.prec, d, rmax)
        met += J is not None
    assert met > 5000


def _em_bound(mp, s, N, M):
    """The kernel's remainder bound at order M from the exact Bernoulli
    number: |B_2M+2/(2M+2)! (s)_2M+1| N^(-sigma-2M-1) |s+2M+1|/(sigma+2M+1)."""
    b = bernoulli(2 * M + 2)
    poch = mp.one
    for i in range(2 * M + 1):
        poch *= s + i
    return (mp.mpf(abs(b.numerator)) / (b.denominator * factorial(2 * M + 2))
            * abs(poch) * mp.power(N, -s.real - 2 * M - 1)
            * abs(s + 2 * M + 1) / (s.real + 2 * M + 1))


_WIDE = {}


def _wide(mp):
    """An mpmath context at twice mp's precision."""
    prec = 2 * mp.prec
    if prec not in _WIDE:
        _WIDE[prec] = MPContext()
        _WIDE[prec].prec = prec
    return _WIDE[prec]


def test_em_bound_covers_the_bound_at_twice_the_precision():
    # every order the zeta kernel accepts in 1000 seeded cases: its certified
    # bound is at least the bound from the exact Bernoulli number and the
    # exact Pochhammer symbol at twice the precision, and meets the target
    for mp, s, N, target in _em_cases(1000, 31):
        found = numerics._em_tail(mp, s, N, target)
        if found is None:
            continue
        w = _wide(mp)
        bound, M = found[1], found[2]
        assert w.mpf(bound) >= _em_bound(w, w.convert(s), N, M), (mp.prec, s, N, M)
        assert bound <= target


def test_tail_bound_covers_the_bound_at_twice_the_precision():
    # every order the product tail accepts in 2000 seeded cases: R_J is at
    # least 8 zeta(3) (2J-1)! / ((2 pi)^(2J+1) d^(2J)), with the constant
    # rounded up as the product takes it, at twice the precision, and at
    # most rmax
    for mp, d, rmax in _tail_cases(2000, 37):
        found = zeta_z._tail_order(mp, d, rmax)
        if found is None:
            continue
        w = _wide(mp)
        J, R = found
        exact = (w.mpf(zeta_z._EIGHT_ZETA3) * w.factorial(2 * J - 1)
                 / (2 * w.pi * (2 * w.pi * w.mpf(d)) ** (2 * J)))
        assert w.mpf(R) >= exact, (mp.prec, d, J)
        assert R <= rmax


def _route_bounds(w, n, k0, p, M, J):
    """The large-n route's remainder bound R_M (:func:`zeta_zn._remainder_bound`)
    and the bound on the tail of its series S past J, both in w's numbers."""
    pabs, rep = abs(p), p.real
    a = max(rep, 0)
    th0 = w.pi * k0 / n
    lam = w.mpf(2 * M) / (2 * M + pabs + 1)

    def sinc_log(t):
        return -w.log(w.sin(t) / t)

    def grow(t):  # e^(|p| H(t)) at the angle t, at most pi/2
        t = min(t, w.pi / 2)
        return w.exp(pabs * (-w.log(1 - lam) + sinc_log((1 + lam) * t) - sinc_log(t)))

    two_d = w.mpf(2) ** (a + 1 - 2 * M)
    pieces = grow(2 * th0) + two_d * grow(4 * th0) + two_d ** 2 * grow(w.pi / 2) / (1 - two_d)
    u0 = w.sin(th0)
    g0 = (2 * u0) ** rep
    zeta_2m = 4 * (1 + w.mpf(2) ** (2 - 2 * M))  # 4 zeta(2M), rounded up
    remainder = (zeta_2m * w.factorial(2 * M) / (2 * w.pi * lam) ** (2 * M)
                 * g0 * w.mpf(k0) ** (1 - 2 * M) / (2 * M - a - 1) * pieces)
    tail = 2 * n / w.pi * g0 * u0 / (1 - u0 ** 2) * u0 ** (2 * J) / (rep + 2 * J + 1)
    return remainder, tail


def _route_plans():
    """(ctx, n, p, plan) at every plan of 300 seeded cases, real, complex,
    integer and half-integer p at 64, 256 and 1024 bits."""
    rng = random.Random(41)
    ctxs = [PrecisionContext(64, 1e-12), PrecisionContext(256, 1e-30),
            PrecisionContext(1024, 1e-120)]
    for i in range(300):
        ctx = ctxs[i % 3]
        mp = ctx.mp
        kind = i // 3 % 4
        if kind == 0:
            p = mp.mpf(rng.uniform(-12, 8))
        elif kind == 1:
            p = mp.mpc(rng.uniform(-6, 6), rng.uniform(-4, 4))
        else:
            p = mp.mpf(rng.randint(-12, 8)) + (mp.mpf(0.5) if kind == 3 else 0)
        n = int(math.exp(rng.uniform(math.log(64), math.log(1e9))))
        tol = ctx.tol * mp.mpf(2) ** rng.randint(-8, 8)
        plan = zeta_zn._route_plan(n, p, tol, n // 2, 10 ** 6, ctx.precision_bits)
        if plan is not None:
            yield ctx, n, p, plan


def test_route_bounds_cover_the_bounds_at_twice_the_precision():
    # every plan of the seeded cases: the remainder and the tail of S that
    # the route certifies from the plan's floats are at least those bounds
    # at twice the precision
    plans = 0
    for ctx, n, p, plan in _route_plans():
        mp = ctx.mp
        k0, M, J, rlog, slog = plan
        w = _wide(mp)
        remainder, tail = _route_bounds(w, n, k0, w.convert(p), M, J)
        assert w.mpf(numerics._bound_from_log2(mp, rlog)) >= remainder, (n, p, plan)
        assert w.mpf(numerics._bound_from_log2(mp, slog)) >= tail, (n, p, plan)
        plans += 1
    assert plans > 100


def _former_budget(w, prec, n, p, dp, plan, S, T, head, zz, zz_err):
    """The route's error budget as its former mpf formulas formed it, here
    in w's numbers: the part that scales with |g(k0)|, with T's fixed-point
    error summed without the factor 2 it was raised by; R_M and the tail of
    S (:func:`_route_bounds`); and the terms kept in mpf, the head's err,
    n zz_err, the rounding (|head| + n |zz|) 2^(4-prec) and that of p."""
    k0, M, J = plan[:3]
    F = prec + numerics.FIXED_GUARD
    ulp = w.mpf(2) ** -F
    u0 = w.sin(w.pi * k0 / n)
    g0 = (2 * u0) ** p
    c2 = 2 * n * u0 / w.pi
    V = 1 + c2 * S + T
    pabs = abs(p)
    lbits = n.bit_length() + 1
    jmin = min(max(int(-(p.real + 1) / 2), 0), J - 1)
    delta = min(abs(p + 2 * j + 1) for j in {max(jmin - 1, 0), jmin, min(jmin + 1, J - 1)})
    err_s = ulp * (5 * J * J / delta + 3 * J / delta ** 2 + 2 * J)
    # sum_j 2^1.73 Gamma(a' + 2j + 2) / Gamma(a' + 3) (2 pi)^(-2j)
    # k0^(1-2j) (L_D + 1), a' = max(3|p|/2, 1)
    fa = max(w.mpf(1.5) * pabs, 1)
    ratio, em = w.one, w.mpf(M)
    for j in range(1, M + 1):
        ratio *= (fa + 2 * j) * (fa + 2 * j + 1) if j > 1 else fa + 3
        em += (w.mpf(2) ** w.mpf(1.73) * ratio / (2 * w.pi) ** (2 * j)
               * w.mpf(k0) ** (1 - 2 * j) * ((64 * pabs + 9) / 3 + 1))
    err_t = 2 * ulp * em
    rel_g = (pabs * (2 * lbits + 1) + 2) * w.mpf(2) ** (1 - prec)
    ag = abs(g0)
    err_v = c2 * (err_s + abs(S) * w.mpf(2) ** (3 - prec)) + err_t
    share = 2 * ag * (c2 * abs(S) + abs(T) + 1) * w.mpf(2) ** (4 - prec)
    head_value, head_err = head
    kept = (head_err + n * zz_err + (abs(head_value) + n * abs(zz)) * w.mpf(2) ** (4 - prec)
            + 2 * dp * lbits * n * max(ag, w.mpf(2) ** p.real))
    return (ag * (err_v + abs(V) * rel_g) + share + sum(_route_bounds(w, n, k0, p, M, J))
            + kept)


def test_route_err_covers_its_former_budget_at_twice_the_precision(monkeypatch):
    # every plan of the seeded cases: the err of the route is at least its
    # former budget formed at twice the precision from the same S, T, head
    # and zeta_Z, the terms kept in mpf included, with zz_err = tol/8 and
    # p taken as rounded by |p| eps.  Among them is n = 69,813,411, p =
    # 3.37 + 1.29i at 64 bits, where the mpf terms summed without a margin
    # came out one unit of 2^-64 short.  A negative odd p, s at a pole of
    # zeta_Z that the sums never route, is left out
    seen, heads = [], []
    to_mp, power_sum = zeta_zn._to_mp, zeta_zn._power_sum
    monkeypatch.setattr(zeta_zn, "_power_sum", lambda *a: heads.append(power_sum(*a)) or heads[-1])
    monkeypatch.setattr(zeta_zn, "_to_mp", lambda *a: seen.append(to_mp(*a)) or seen[-1])
    plans = found = 0
    for ctx, n, p, plan in _route_plans():
        mp = ctx.mp
        if p.imag == 0 and p < 0 and p % 2 == 1:
            continue
        w = _wide(mp)
        zz = zeta_z._closed(ctx, argument(ctx, -p / 2))[0]
        zz = zz if p.imag else zz.real
        zz_err, dp = ctx.tol / 8, abs(p) * ctx.eps
        seen.clear()
        heads.clear()
        err = zeta_zn._route(mp, n, p, dp, plan, zz, zz_err)[1]
        S, T = (w.convert(x) for x in seen)
        head = tuple(w.convert(x) for x in heads[0])
        budget = _former_budget(w, mp.prec, n, w.convert(p), w.convert(dp), plan, S, T,
                                head, w.convert(zz), w.convert(zz_err))
        assert w.mpf(err) >= budget, (n, p, plan)
        plans += 1
        found += n == 69_813_411 and ctx.precision_bits == 64
    assert plans > 100 and found == 1


def test_log2_sum_is_the_former_pieces_expression():
    # the float log-sum of the remainder's pieces, bit for bit as the former
    # expression formed it, on seeded lists of two to twelve log2s
    rng = random.Random(43)
    for _ in range(10_000):
        logs = [rng.uniform(-2000, 2000) * rng.choice((1e-3, 1, 1))
                for _ in range(rng.randint(2, 12))]
        top = max(logs)
        assert numerics._log2_sum(logs) == top + math.log2(sum(2.0 ** (x - top) for x in logs))


@pytest.mark.parametrize("lb", [-3000.25, -70.5, 0.0, 12.75, 900.0])
def test_bound_from_log2_raises_by_2_to_the_minus_20(lb):
    # 2^lb (1 + 2^-20), within the float rounding of 2^(lb - floor lb)
    mp = _CONTEXTS[256].mp
    w = _wide(mp)
    r = numerics._bound_from_log2(mp, lb)
    assert abs(w.mpf(r) / (w.mpf(2) ** lb * (1 + w.mpf(2) ** -20)) - 1) < w.mpf(2) ** -51
    assert numerics._bound_from_log2(mp, -math.inf) == 0
