"""Three evaluation routes for the lattice zeta function, plus derivatives."""

import random
import sys
import threading
import time
from fractions import Fraction
from math import comb, factorial

import pytest
from mpmath.ctx_mp import MPContext

from zetakit import (
    DomainError,
    NeedsLimitInterpretation,
    NoConvergence,
    PoleError,
    PrecisionContext,
    big_z,
    zeta_z_closed,
    zeta_z_deriv,
    zeta_z_deriv_at_positive_integer,
    zeta_z_mellin,
    zeta_z_product,
)
from zetakit import numerics, quadrature, zeta_z
from zetakit.core import argument, mpf_to_fraction


# ---------------------------------------------------------------- closed form

def test_closed_special_values(ctx):
    assert zeta_z_closed(0, ctx).exact == 1
    assert zeta_z_closed(-2, ctx).exact == 6
    for n in range(1, 31):
        assert zeta_z_closed(-n, ctx).exact == comb(2 * n, n)


def test_closed_negative_half_integers(ctx, mp):
    # 4^(2n) / (2 pi n) * C(2n,n)^(-1); at n = 1 this is 4/pi (not 8/pi:
    # the inverse binomial contributes the extra 1/2)
    for n in range(1, 11):
        expected = mp.mpf(4) ** (2 * n) / (2 * mp.pi * n) / comb(2 * n, n)
        r = zeta_z_closed(Fraction(1 - 2 * n, 2), ctx)
        assert abs(r.value.value - expected) < mp.mpf(10) ** -70
    r = zeta_z_closed(Fraction(-1, 2), ctx)
    assert abs(r.value.value - 4 / mp.pi) < mp.mpf(10) ** -70


@pytest.mark.parametrize("bits,tol", [(64, 1e-12), (256, 1e-30), (1024, 1e-120)], ids=str)
def test_closed_half_integer_path_matches_gamma_route(bits, tol):
    # s = -m - 1/2 takes the rational over pi, rounded once, and the Gamma
    # route serves just outside the snapping radius 2^-(bits/2) of it; each
    # err covers mpmath's Gamma quotient at 2 bits + 64 at its own point
    ctx = PrecisionContext(bits, tol)
    mp = MPContext()
    mp.prec = 2 * bits + 64
    for m in (0, 1, 2, 5, 12, 20):
        s = Fraction(-2 * m - 1, 2)
        r = zeta_z_closed(s, ctx)
        assert r.method == "closed-form" and r.exact is None and r.err <= ctx.tol
        assert abs(mp.mpc(r.value.value) - _closed_truth(mp, s)) <= r.err
        near = s + Fraction(1, 2 ** (bits // 2 - 1))
        g = zeta_z_closed(near, ctx)
        assert abs(mp.mpc(g.value.value) - _closed_truth(mp, near)) <= g.err
    assert abs(mp.mpc(zeta_z_closed(-0.5, ctx).value.value) - 4 / mp.pi) <= ctx.tol


def _closed_truth(mp, s):
    """mpmath's Gamma quotient 4^-s Gamma(1/2 - s) / (sqrt(pi) Gamma(1 - s))."""
    x = mp.convert(s)
    return mp.power(4, -x) * mp.gamma(mp.mpf(1) / 2 - x) / (mp.sqrt(mp.pi) * mp.gamma(1 - x))


def test_closed_half_integer_path_needs_the_exact_argument():
    # an s that merely snaps to -1/2, or rounds onto it, keeps the Gamma route
    ctx = PrecisionContext(256, 1e-30)
    calls = []
    gamma = zeta_z.numerics._gamma_raw
    near = Fraction(-1, 2) + Fraction(1, 10 ** 50)  # within the snapping radius 2^-128
    for s in (Fraction(-1, 2), -0.5, near):
        calls.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(zeta_z.numerics, "_gamma_raw", lambda z, c: calls.append(z) or gamma(z, c))
            zeta_z_closed(s, ctx)
        assert bool(calls) == (s is near)


def test_closed_simple_zeros(ctx):
    for n in range(1, 11):
        r = zeta_z_closed(n, ctx)
        assert r.exact == 0 and r.note == "simple-zero"


def test_closed_poles_at_positive_half_integers(ctx):
    for k in (Fraction(1, 2), Fraction(3, 2), Fraction(9, 2)):
        with pytest.raises(PoleError):
            zeta_z_closed(k, ctx)


def test_closed_gamma_route_matches_exact_path(ctx):
    # the exact path at -n, and the Gamma route just outside the snapping
    # radius 2^-128 of it, agree with mpmath's Gamma quotient at 2 bits + 64
    w = MPContext()
    w.prec = 2 * ctx.precision_bits + 64
    for n in (1, 4, 9, 17, 30):
        assert zeta_z_closed(-n, ctx).exact == comb(2 * n, n)
        assert abs(_closed_truth(w, -n) - comb(2 * n, n)) < w.mpf(10) ** -100
        near = Fraction(-n) + Fraction(1, 2 ** 127)
        generic = zeta_z_closed(near, ctx)
        assert generic.exact is None
        assert abs(w.mpc(generic.value.value) - _closed_truth(w, near)) <= generic.err


# ---------------------------------------------------------------- product

def test_product_at_zero_and_negative_one(ctx, mp):
    r0 = zeta_z_product(0, ctx)
    assert abs(r0.value.value - 1) <= r0.err
    r1 = zeta_z_product(-1, ctx)
    assert abs(r1.value.value - 2) <= r1.err


def test_product_matches_closed_on_strip(ctx):
    # oracle for the product route is the closed form
    for s in (Fraction(1, 4), Fraction(1, 10), Fraction(-7, 3), -2.5):
        p = zeta_z_product(s, ctx)
        c = zeta_z_closed(s, ctx)
        assert p.certified
        assert abs(p.value.value - c.value.value) <= p.err + c.err


_HONEST_POINTS = {
    "quarter": Fraction(1, 4), "neg7thirds": Fraction(-7, 3),
    "neg7p3": -7.3, "neg11p3": -11.3,
    "cplx0p2": complex(0.2, 0.3), "cplxneg2p5": complex(-2.5, 1.5),
}


@pytest.mark.parametrize("bits, tol, s, terms", [
    # truncate coarsely on purpose: the certified bound must still cover
    # the true gap to the closed form
    pytest.param(256, 1e-30, Fraction(1, 4), 400, id="terms400"),
    pytest.param(64, 1e-12, complex(-2.5, 1.5), 300, id="64bits-terms300"),
    pytest.param(1024, 1e-120, complex(0.2, 0.3), 400, id="1024bits-terms400"),
    # far up the imaginary axis: |s| = 60, so K = 2|s| + d is far above d
    pytest.param(64, 1e-12, complex(0.25, 60), None, id="64bits-cplx-im60"),
    pytest.param(1024, 1e-120, complex(0.25, 60), None, id="1024bits-cplx-im60"),
] + [
    pytest.param(bits, tol, s, None, id=f"{bits}bits-{tol:g}-{name}")
    for bits, tol in ((64, 1e-12), (128, 1e-20), (512, 1e-60), (1024, 1e-120),
                      (1024, 1e-200))
    for name, s in _HONEST_POINTS.items()
])
def test_product_error_bound_is_honest(bits, tol, s, terms):
    # the bound meets the tolerance and covers the true error, taken against
    # the closed form at twice the bits
    p = zeta_z_product(s, PrecisionContext(bits, tol), terms=terms)
    c = zeta_z_closed(s, PrecisionContext(2 * bits, tol))
    assert p.err <= tol
    assert abs(p.value.value - c.value.value) <= p.err


def _record_builds(monkeypatch):
    """The (first factor, K) of each partial-product build, in order."""
    builds = []
    build = zeta_z._partial_product
    monkeypatch.setattr(zeta_z, "_partial_product", lambda mp, z, K: (
        builds.append((1, K)) or build(mp, z, K)))
    return builds


@pytest.mark.parametrize("bits, tol, s", [
    (1024, 1e-120, -70.7), (1024, 1e-120, complex(-60.3, 2)), (256, 1e-30, complex(-60.3, 2)),
], ids=str)
def test_product_aims_the_tail_order_at_the_value(monkeypatch, bits, tol, s):
    # |zeta_Z(s)| is far above the partial product's size at these points: an
    # order aimed at |P_K| misses the tolerance and K grows; aimed at the
    # value, the first K serves
    builds = _record_builds(monkeypatch)
    p = zeta_z_product(s, PrecisionContext(bits, tol))
    assert len(builds) == 1
    assert p.err <= tol


@pytest.mark.parametrize("bits, tol, factors", [(256, 1e-30, 64), (1024, 1e-120, 192)])
def test_product_sizes_k_from_the_target(monkeypatch, bits, tol, factors):
    builds = _record_builds(monkeypatch)
    zeta_z_product(Fraction(1, 4), PrecisionContext(bits, tol))
    assert sum(K - k + 1 for k, K in builds) <= factors


def test_product_grows_k_fourfold(monkeypatch):
    # with d = K - 2|s| undersized, the remainder bound at s = -60.3+2i,
    # 1024 bits, stops falling above the tolerance, so K grows fourfold once;
    # the result is still honest against the closed form
    monkeypatch.setattr(zeta_z, "_PRODUCT_D_PER_BIT", 0)
    builds = _record_builds(monkeypatch)
    s = complex(-60.3, 2)
    p = zeta_z_product(s, PrecisionContext(1024, 1e-120))
    c = zeta_z_closed(s, PrecisionContext(2048, 1e-120))
    assert [K for _, K in builds] == [builds[0][1], 4 * builds[0][1]]
    assert p.err <= 1e-120
    assert abs(p.value.value - c.value.value) <= p.err


# points whose first K is undersized when d = K - 2|s| is cut to its minimum
_PRODUCT_GROWTH = [complex(-60.3, 2), -70.7, complex(-100.2, -5)]


@pytest.mark.parametrize("s", _PRODUCT_GROWTH, ids=str)
def test_product_growth_is_bit_identical(monkeypatch, s):
    # the product grown fourfold equals one evaluated at the final K from
    # the start: value and err carry nothing from the first build
    monkeypatch.setattr(zeta_z, "_PRODUCT_D_PER_BIT", 0)
    builds = _record_builds(monkeypatch)
    ctx = PrecisionContext(1024, 1e-120)
    grown = zeta_z_product(s, ctx)
    assert len(builds) == 2
    direct = zeta_z_product(s, ctx, terms=builds[-1][1])
    assert grown.value.value._mpc_ == direct.value.value._mpc_
    assert grown.err == direct.err


def test_product_refuses_uncertifiable_truncation(ctx):
    # at K = 8 (d = K - 2|s| = 7.5) the Euler-Maclaurin remainder bound
    # bottoms out near 1e-21, above the 1e-30 budget: refuse, never return
    # an uncertified value
    with pytest.raises(NoConvergence):
        zeta_z_product(Fraction(1, 4), ctx, terms=8)


def test_product_refuses_at_once_when_rounding_exceeds_tol():
    # |zeta_Z(-130.9)| is about 1e77, so at 64 bits the rounding alone is far
    # above 1e-12 and no truncation can certify: refuse, naming precision
    with pytest.raises(NoConvergence, match="precision"):
        zeta_z_product(-130.9, PrecisionContext(64, 1e-12))


@pytest.mark.parametrize("bits, tol", [(64, 1e-12), (256, 1e-30), (1024, 1e-120)])
def test_product_refuses_a_huge_value_before_forming_a_factor(monkeypatch, bits, tol):
    # |zeta_Z(-9999.7)| >= 4^9999.7 / sqrt(pi 10^4): the float lower bound
    # refuses before the 20,000 factors are formed
    calls = []
    monkeypatch.setattr(zeta_z, "_partial_product", lambda *a: calls.append(a))
    start = time.perf_counter()
    with pytest.raises(NoConvergence, match="precision too low"):
        zeta_z_product(-10 ** 4 + 0.3, PrecisionContext(bits, tol))
    assert time.perf_counter() - start < 0.05
    assert not calls


def _before_work(rule, fired):
    """``rule`` noting in ``fired`` whether each refusal came before work:
    there the product passes a float bound, after work an mpf."""
    def noted(ctx, lb, *args):
        try:
            rule(ctx, lb, *args)
        except NoConvergence:
            fired.append(isinstance(lb, float))
            raise
    return noted


def _refuses_only_what_work_refuses(monkeypatch, call, ctx, edge):
    """Off-lattice real s in [-400, 0], every 3.7 and every 1/4 within 6 of
    -edge, where ``call`` stops serving: wherever the float pre-check fires,
    ``call`` without it refuses too."""
    rule = zeta_z.refuse_rounding
    fired = []
    monkeypatch.setattr(zeta_z, "refuse_rounding", _before_work(rule, fired))
    grid = [Fraction(37 * i + 3, 10) for i in range(109)]
    grid += [edge - 6 + Fraction(4 * i + 1, 16) for i in range(48)]
    for x in grid:
        s = -x
        fired.clear()
        try:
            call(s, ctx)
        except NoConvergence:
            if any(fired):
                with monkeypatch.context() as m:
                    m.setattr(zeta_z, "refuse_rounding", lambda ctx, lb, *a: (
                        None if isinstance(lb, float) else rule(ctx, lb, *a)))
                    with pytest.raises(NoConvergence):
                        call(s, ctx)
        else:
            assert not any(fired)


@pytest.mark.parametrize("bits, tol, edge", [(64, 1e-12, 22), (256, 1e-30, 88),
                                             (1024, 1e-120, 322)])
def test_product_precheck_refuses_only_what_the_product_refuses(monkeypatch, bits, tol, edge):
    _refuses_only_what_work_refuses(monkeypatch, zeta_z_product, PrecisionContext(bits, tol), edge)


def test_product_needs_limit_interpretation(ctx):
    for s in (1, 3, Fraction(1, 2), Fraction(5, 2)):
        with pytest.raises(NeedsLimitInterpretation):
            zeta_z_product(s, ctx)


def test_product_partial_telescoping_exact():
    # P_K(-m) = ((m+K)!)^2 (2m)! / ((m!)^2 K! (2m+K)!) exactly, increasing
    # toward C(2m, m)
    for m in (1, 2, 5):
        target = Fraction(comb(2 * m, m))
        p = Fraction(1)
        prev = Fraction(0)
        for k in range(1, 30):
            p *= Fraction((k + m) ** 2, k * (k + 2 * m))
            closed = Fraction(
                factorial(m + k) ** 2 * factorial(2 * m),
                factorial(m) ** 2 * factorial(k) * factorial(2 * m + k))
            assert p == closed
            assert prev < p < target
            prev = p
        # the Catalan product itself: C_m = prod_{k=2}^m (m+k)/k
        catalan_prod = Fraction(1)
        for k in range(2, m + 1):
            catalan_prod *= Fraction(m + k, k)
        assert catalan_prod * (m + 1) == target


# ---------------------------------------------------------------- mellin

def test_mellin_matches_closed(ctx, mp):
    for s in (Fraction(1, 4), Fraction(1, 10)):
        m = zeta_z_mellin(s, ctx)
        c = zeta_z_closed(s, ctx)
        assert abs(m.value.value - c.value.value) <= m.err + c.err
        assert abs(m.value.value - c.value.value) < mp.mpf(10) ** -10


def test_mellin_outside_strip(ctx):
    for s in (0.6, 0, Fraction(1, 2), -0.2):
        with pytest.raises(DomainError):
            zeta_z_mellin(s, ctx)


def test_mellin_complex_argument(ctx, mp):
    s = mp.mpc(0.3, 0.2)
    m = zeta_z_mellin(s, ctx)
    c = zeta_z_closed(s, ctx)
    assert abs(m.value.value - c.value.value) <= m.err + c.err


_MELLIN_POINTS = {
    "0p02": 0.02, "quarter": Fraction(1, 4), "0p48": 0.48,
    "cplx0p1": complex(0.1, 0.3), "0p2078": 0.2078176655714259,
    "cplx0p3": complex(0.30235923777777335, -1.5571907574513801),
}


@pytest.mark.parametrize("bits, tol, s", [
    pytest.param(bits, tol, s, id=f"{bits}bits-{tol:g}-{name}")
    for bits, tol in ((128, 1e-20), (512, 1e-100), (768, 1e-120), (1024, 1e-200))
    for name, s in _MELLIN_POINTS.items()
    # three points at 1024 bits keep the row near 3 s
    if bits < 1024 or name in ("0p02", "0p2078", "cplx0p3")
])
def test_mellin_error_bound_is_honest(bits, tol, s):
    # the bound meets the tolerance and covers the true error, taken against
    # the closed form at twice the bits
    m = zeta_z_mellin(s, PrecisionContext(bits, tol))
    c = zeta_z_closed(s, PrecisionContext(2 * bits, tol))
    assert m.err <= tol
    assert abs(m.value.value - c.value.value) <= m.err


def _mellin_reference(ctx, z, tol):
    """(nodes, node sum) of each level the route runs, to its convergence
    test, with the node sums taken in mpmath numbers at 2 bits + 64 from
    the cached fixed-point nodes, which are exact there."""
    mp = MPContext()
    mp.prec = 2 * ctx.working_bits + 64
    F, FW = quadrature._frac_bits(ctx.working_bits)
    m2s = mp.convert(-2 * z)  # as the route rounds it
    total, prev, levels = mp.zero, None, []
    for level in range(quadrature._MAX_LEVEL + 1):
        nodes = quadrature._nodes(ctx.mp, ctx.working_bits, level)
        part = mp.fsum(mp.ldexp(w, -FW) * (mp.exp(m2s * mp.ldexp(log_chord, -F))
                                           - mp.exp(m2s * mp.ldexp(log_line, -F)))
                       for w, log_line, log_chord in nodes)
        levels.append((nodes, part))
        total = total / 2 + part / 2 ** level
        if level >= 4 and abs(total - prev) <= tol:
            return levels
        prev = total


@pytest.mark.parametrize("bits, tol", [(64, 1e-12), (256, 1e-30), (1024, 1e-60)])
@pytest.mark.parametrize("s", [0.02, 0.25, 0.3125, 0.48, complex(0.1, 0.3),
                               complex(0.375, -0.25)])
def test_mellin_node_sum_is_within_rounding(bits, tol, s):
    # fixed point gives up bit-identity with mpmath's operators: each
    # level's node sum is within the rounding term alone, mass (nodes + 16)
    # 2^(1-prec), of the same nodes summed in mpmath numbers
    ctx = PrecisionContext(bits, tol)
    mp = ctx.mp
    z = ctx.mpc(s)
    z = z.real if z.imag == 0 else z
    for nodes, ref in _mellin_reference(ctx, z, ctx.tol / 2):
        part, mass = quadrature._node_sum(mp, -2 * z, nodes)
        assert abs(ref - part) <= mass * (len(nodes) + 16) * mp.mpf(2) ** (1 - mp.prec)


def _mellin_level_loop(ctx, z, tol):
    """The route's level loop with each level's nodes summed in reverse
    order: the fixed-point node sum is an exact integer sum rounded once,
    so the order can change no bit of it."""
    mp = ctx.mp
    m2s = -2 * z
    total, prev = mp.zero, None
    for level in range(quadrature._MAX_LEVEL + 1):
        nodes = quadrature._nodes(mp, ctx.working_bits, level)
        part, _ = quadrature._node_sum(mp, m2s, nodes[::-1])
        total = total / 2 + mp.mpf(2) ** (-level) * part
        if level >= 4 and abs(total - prev) <= tol:
            return mp.power(mp.pi, m2s) / (1 - 2 * z) + total
        prev = total


@pytest.mark.parametrize("bits, tol", [(64, 1e-12), (256, 1e-30), (1024, 1e-60)])
@pytest.mark.parametrize("s", [0.02, 0.25, 0.3125, 0.48, complex(0.1, 0.3),
                               complex(0.375, -0.25)])
def test_mellin_node_sum_is_bit_identical(bits, tol, s):
    # the route's value is bit-identical to its level loop run over node
    # sums taken in reverse node order
    ctx = PrecisionContext(bits, tol)
    z = ctx.mpc(s)
    z = z.real if z.imag == 0 else z
    ref = ctx.mp.mpc(_mellin_level_loop(ctx, z, ctx.tol / 2))
    assert zeta_z_mellin(s, ctx).value.value._mpc_ == ref._mpc_


def test_concurrent_cold_node_builds_publish_one_tuple(monkeypatch):
    # four Mellin calls in four threads, each with its own context at the
    # same bits, all build each cold level before any publishes it (a
    # barrier in the build holds them): each level is published once, as
    # the level built in a single thread, and every thread gets the value
    # of a single-thread call
    ctx = PrecisionContext(256, 1e-30)
    wb = ctx.working_bits
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    single = {(wb, level): quadrature._nodes(ctx.mp, wb, level) for level in range(6)}
    value = zeta_z_mellin(0.3, ctx).value.value
    publishes = []

    class Cache(dict):
        def __setitem__(self, key, nodes):
            publishes.append(key)
            super().__setitem__(key, nodes)

    monkeypatch.setattr(quadrature, "_NODE_CACHE", Cache())
    barrier = threading.Barrier(4)
    ymax = quadrature._ymax

    def held(mp, wb):
        barrier.wait(timeout=30)
        return ymax(mp, wb)

    monkeypatch.setattr(quadrature, "_ymax", held)
    got = []
    threads = [threading.Thread(target=lambda: got.append(
        zeta_z_mellin(0.3, PrecisionContext(256, 1e-30)).value.value)) for _ in range(4)]
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
    assert sorted(publishes) == sorted(single) and quadrature._NODE_CACHE == single
    assert got == [value] * 4


@pytest.mark.parametrize("max_terms, levels", [(10, 0), (200, 5)])
def test_mellin_refuses_max_terms_before_summing(monkeypatch, max_terms, levels):
    # at 256 bits levels 0..5 hold 9, 10, 20, 40, 78 and 156 nodes, and
    # level 4 is the first that may stop: 157 nodes are the least work, so
    # max_terms = 10 refuses before any node sum; max_terms = 200 sums
    # levels 0..4 and refuses before level 5 (313 nodes), which 1e-30 needs
    sums = []
    node_sum = quadrature._node_sum

    def counted(mp, m2s, nodes):
        sums.append(len(nodes))
        return node_sum(mp, m2s, nodes)

    monkeypatch.setattr(quadrature, "_node_sum", counted)
    with pytest.raises(NoConvergence, match="max_terms"):
        zeta_z_mellin(0.25, PrecisionContext(256, 1e-30, max_terms=max_terms))
    assert len(sums) == levels and sum(sums) <= max_terms


# ---------------------------------------------------------------- Z(s)

def test_big_z_values(ctx, mp):
    assert abs(big_z(0, ctx).value.value - mp.pi) < ctx.tol
    assert abs(big_z(-1, ctx).value.value - 2) < ctx.tol
    assert abs(big_z(-2, ctx).value.value - mp.pi / 2) < ctx.tol


def test_big_z_pole_propagates(ctx):
    # s/2 = positive half-integer  <=>  s positive odd
    with pytest.raises(PoleError):
        big_z(1, ctx)


# ---------------------------------------------------------------- derivative

def test_deriv_at_zero(ctx):
    assert zeta_z_deriv(0, ctx).exact == 0


def test_deriv_at_minus_half(ctx, mp):
    r = zeta_z_deriv(Fraction(-1, 2), ctx)
    expected = 8 / mp.pi * (1 - 2 * mp.log(2))
    assert abs(r.value.value - expected) < mp.mpf(10) ** -25


def test_deriv_negative_integers(ctx, mp):
    # C(2n,n) sum_{k<=n} (1/k - 2/(2k-1)); n = 2 gives -7
    assert zeta_z_deriv(-2, ctx).exact == -7
    for n in (1, 3, 5):
        bracket = sum(Fraction(1, k) - Fraction(2, 2 * k - 1) for k in range(1, n + 1))
        assert zeta_z_deriv(-n, ctx).exact == comb(2 * n, n) * bracket


def test_deriv_negative_half_integer_formula(ctx, mp):
    # general-formula output vs the explicit half-integer expression
    # (4^(2n) / (2 pi n)) C(2n,n)^(-1) (-4 log 2 - H_{n-1} + 2 sum 1/(2k-1))
    for n in (2, 3, 5):
        s = Fraction(1 - 2 * n, 2)
        front = mp.mpf(4) ** (2 * n) / (2 * mp.pi * n) / comb(2 * n, n)
        bracket = (-4 * mp.log(2)
                   - sum(mp.mpf(1) / k for k in range(1, n))
                   + 2 * sum(mp.mpf(1) / (2 * k - 1) for k in range(1, n + 1)))
        r = zeta_z_deriv(s, ctx)
        assert abs(r.value.value - front * bracket) < mp.mpf(10) ** -60


@pytest.mark.parametrize("call, s", [(zeta_z_closed, -100), (zeta_z_deriv, -40)],
                         ids=["closed", "deriv"])
def test_exact_value_refuses_a_rendering_beyond_the_tolerance(call, s):
    # C(200, 100) needs 196 bits and zeta_Z'(-40) is not dyadic: rendered
    # at 94 working bits they are 9.6e29 and 2.8e-6 from their rationals
    with pytest.raises(NoConvergence):
        call(s, PrecisionContext(64, 1e-12))


#: the least n at which zeta_z_closed(-n) and zeta_z_deriv(-n) refuse, by
#: precision, at the tolerances of the CI suites
_REFUSAL_POINTS = {(64, 1e-12): (51, 28), (256, 1e-30): (148, 95), (1024, 1e-120): (532, 330)}


@pytest.mark.parametrize("bits, tol", sorted(_REFUSAL_POINTS), ids=str)
def test_exact_values_refuse_from_the_same_points(bits, tol):
    # the early refusal only answers where the rendering would refuse: the
    # least refused n is the same as when every value was built first
    ctx = PrecisionContext(bits, tol)
    for call, n in zip((zeta_z_closed, zeta_z_deriv), _REFUSAL_POINTS[bits, tol]):
        assert call(1 - n, ctx).exact is not None
        with pytest.raises(NoConvergence):
            call(-n, ctx)


@pytest.mark.parametrize("bits, tol", [(64, 1e-12), (256, 1e-30), (1024, 1e-120)])
@pytest.mark.parametrize("call, s", [
    (zeta_z_closed, -10 ** 5), (zeta_z_closed, -10 ** 6), (zeta_z_closed, -1e300),
    (zeta_z_closed, Fraction(-10 ** 300 - 1, 1) - Fraction(1, 2)),
    (zeta_z_deriv, -10 ** 5), (zeta_z_deriv, -1e300),
], ids=["closed-1e5", "closed-1e6", "closed-1e300", "closed-half-1e300",
        "deriv-1e5", "deriv-1e300"])
def test_wide_exact_values_refuse_at_once(bits, tol, call, s):
    # a lower bound on the exact value, in integers, shows its rendering
    # missing the tolerance before any binomial is built: C(2 10^5, 10^5)
    # alone took 0.7 s, and math.comb overflowed at 10^300
    t0 = time.perf_counter()
    with pytest.raises(NoConvergence):
        call(s, PrecisionContext(bits, tol))
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("s", [-10 ** 300, -10 ** 400], ids=["-10^300", "-10^400"])
def test_closed_refuses_a_huge_rounded_integer_before_gamma(monkeypatch, s):
    # at 256 bits these ints round, so no exact path takes them: Wendel's
    # bound refuses before the Gamma route, which took 17 to 53 ms to
    # reach an err with a 6020599-digit exponent
    def no_gamma(*args):
        raise AssertionError("Gamma evaluated")
    monkeypatch.setattr(numerics, "_gamma_raw", no_gamma)
    ctx = PrecisionContext(256, 1e-30)
    assert argument(ctx, s).exact is None
    t0 = time.perf_counter()
    with pytest.raises(NoConvergence, match="closed-form: precision too low"):
        zeta_z_closed(s, ctx)
    assert time.perf_counter() - t0 < 0.05


@pytest.mark.parametrize("bits, tol, edge", [(64, 1e-12, 26), (256, 1e-30, 92),
                                             (1024, 1e-120, 327)])
def test_closed_precheck_refuses_only_what_the_gamma_route_refuses(monkeypatch, bits, tol, edge):
    _refuses_only_what_work_refuses(monkeypatch, zeta_z_closed, PrecisionContext(bits, tol), edge)


@pytest.mark.parametrize("n", [2 ** 14, 2 ** 14 + 1, 10 ** 5, 10 ** 6])
def test_composites_take_the_gamma_route_past_the_exact_width(n):
    # past C(2^15, 2^14) the closed form reads Gamma(n + 1/2) / Gamma(n + 1)
    # for the composites (no pole at the negative integers), so Z(-2n) =
    # pi 4^-n C(2n, n) is served at once and within its err
    ctx = PrecisionContext(256, 1e-30)
    exact = zeta_z._closed(ctx, argument(ctx, -n))[3]
    assert (exact is None) == (2 * n > zeta_z._EXACT_BITS)
    t0 = time.perf_counter()
    r = big_z(-2 * n, ctx)
    assert time.perf_counter() - t0 < 0.5
    w = MPContext()
    w.prec = 600
    truth = w.sqrt(w.pi) * w.gamma(n + w.mpf(1) / 2) / w.gamma(n + 1)
    assert abs(w.mpf(r.value.re) - truth) <= r.err <= ctx.tol


def test_composites_refuse_where_the_gamma_arguments_round():
    # at s = -1e300 the Gamma route's arguments 1/2 - s/2 and 1 - s/2 need
    # 1000 bits: their rounding enters err, so Z refuses instead of
    # returning sqrt(pi), the quotient of two equal rounded Gammas
    with pytest.raises(NoConvergence):
        big_z(-1e300, PrecisionContext(256, 1e-30))


def test_exact_value_err_covers_its_rendering(ctx):
    # at 286 working bits C(200, 100) renders exactly, err 0; zeta_Z'(-40)
    # does not, and err bounds the distance to its rational
    closed = zeta_z_closed(-100, ctx)
    assert closed.err == 0 and mpf_to_fraction(closed.value.re) == comb(200, 100)
    deriv = zeta_z_deriv(-40, ctx)
    assert 0 < deriv.err <= ctx.tol
    assert abs(mpf_to_fraction(deriv.value.re) - deriv.exact) <= mpf_to_fraction(deriv.err)


@pytest.mark.parametrize("bits, tol", [(64, 1e-12), (1024, 1e-120)])
def test_deriv_evaluates_no_digamma(monkeypatch, bits, tol):
    # the bracket is the alternating series: neither mpmath's digamma nor
    # numerics._digamma_raw may serve the derivative
    ctx = PrecisionContext(bits, tol)

    def fail(*args, **kwargs):
        raise AssertionError("digamma evaluated")

    for target, name in ((ctx.mp, "digamma"), (ctx.mp, "psi"), (numerics, "_digamma_raw")):
        monkeypatch.setattr(target, name, fail)
    for s in (-1.3, Fraction(-13, 10), 0.3, Fraction(1, 7), -7.77, Fraction(1, 2) - Fraction(1, 2 ** 20)):
        r = zeta_z_deriv(s, ctx)
        assert r.method == "digamma-formula" and not r.certified


def test_deriv_positive_integers_exact():
    assert zeta_z_deriv_at_positive_integer(1) == Fraction(1, 2)
    assert zeta_z_deriv_at_positive_integer(2) == Fraction(1, 12)
    assert zeta_z_deriv_at_positive_integer(3) == Fraction(1, 60)
    with pytest.raises(DomainError):
        zeta_z_deriv_at_positive_integer(0)


def test_deriv_routes_positive_integers(ctx):
    assert zeta_z_deriv(3, ctx).exact == Fraction(1, 60)


def test_deriv_domain_errors(ctx):
    with pytest.raises(DomainError):
        zeta_z_deriv(Fraction(3, 2), ctx)
    with pytest.raises(DomainError):
        zeta_z_deriv(0.7, ctx)


def _central_difference(ctx, s, h):
    fp = zeta_z_closed(s + h, ctx).value.value.real
    fm = zeta_z_closed(s - h, ctx).value.value.real
    return (fp - fm) / (2 * h)


def test_deriv_finite_difference_oracle(ctx, mp):
    h = mp.mpf(10) ** -20
    # the hand-checked value -7 at s = -2 and a spread of sample points
    for s in (0, Fraction(-1, 2), -2, -1, Fraction(-5, 2), 3):
        sv = mp.convert(Fraction(s))
        formula = zeta_z_deriv(sv, ctx).value.value.real
        fd = _central_difference(ctx, sv, h)
        assert abs(formula - fd) < mp.mpf(10) ** -15


def test_deriv_positive_integer_fd_oracle(ctx, mp):
    h = mp.mpf(10) ** -20
    for n in (1, 2, 3):
        fd = _central_difference(ctx, mp.mpf(n), h)
        exact = zeta_z_deriv_at_positive_integer(n)
        assert abs(fd - mp.mpf(exact.numerator) / exact.denominator) < mp.mpf(10) ** -15


def test_deriv_random_fd(ctx, mp):
    rng = random.Random(11)
    h = mp.mpf(10) ** -20
    for _ in range(10):
        s = mp.mpf(rng.uniform(-10, 0.4))
        formula = zeta_z_deriv(s, ctx).value.value.real
        assert abs(formula - _central_difference(ctx, s, h)) < mp.mpf(10) ** -15


# ---------------------------------------------------------------- rounded arguments

def _closed_oracle(mp, z):
    return mp.power(4, -z) * mp.gamma(mp.mpf(1) / 2 - z) / (mp.sqrt(mp.pi) * mp.gamma(1 - z))


# (call, mpmath oracle of the same value at the exact s): a non-dyadic s
# rounds when converted, and the route's logarithmic derivative amplifies
# the rounding near a pole or zero
_ROUNDED = {
    "closed-near-pole": (lambda c: zeta_z_closed(Fraction(14999, 10000), c),
                         lambda mp, z: _closed_oracle(mp, z), Fraction(14999, 10000)),
    "closed-near-zero": (lambda c: zeta_z_closed(Fraction(9999, 10000), c),
                         lambda mp, z: _closed_oracle(mp, z), Fraction(9999, 10000)),
    "deriv-near-pole": (lambda c: zeta_z_deriv(Fraction(4999, 10000), c),
                        lambda mp, z: _closed_oracle(mp, z) * (
                            -mp.digamma(mp.mpf(1) / 2 - z) - 2 * mp.log(2)
                            + mp.digamma(1 - z)), Fraction(4999, 10000)),
    "big-z-near-pole": (lambda c: big_z(Fraction(29999, 10000), c),
                        lambda mp, z: mp.pi * mp.power(2, z) * _closed_oracle(mp, z / 2),
                        Fraction(29999, 10000)),
    "product-near-zero": (lambda c: zeta_z_product(Fraction(9999, 10000), c),
                          lambda mp, z: _closed_oracle(mp, z), Fraction(9999, 10000)),
    "mellin-near-pole": (lambda c: zeta_z_mellin(Fraction(4999, 10000), c),
                         lambda mp, z: _closed_oracle(mp, z), Fraction(4999, 10000)),
}


@pytest.mark.parametrize("case, bits, tol", [
    pytest.param(case, 256, 1e-30, id=case) for case in _ROUNDED
] + [
    pytest.param(case, 64, 1e-12, id=f"{case}-64bits")
    for case in ("product-near-zero", "mellin-near-pole")
])
def test_rounded_argument_is_honest(case, bits, tol):
    # err meets the tolerance and covers the true error against mpmath at
    # 1600 bits, taken at the exact rational s
    call, oracle, s = _ROUNDED[case]
    ctx = PrecisionContext(bits, tol)
    mp = MPContext()
    mp.prec = 1600
    r = call(ctx)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value.value) - oracle(mp, mp.mpf(s.numerator) / s.denominator)) <= r.err


# (call, s, mpmath oracle of the same value at s): points within the
# snapping radius of an integer at 64 bits, or at 256 bits too, but off it,
# which the exact paths once answered with the lattice value
_NEAR_LATTICE = {
    "closed-near-neg20": (zeta_z_closed, -20.0000000001, _closed_oracle),
    "closed-near-3": (zeta_z_closed, 3 + 1e-10, _closed_oracle),
    "deriv-near-neg5": (zeta_z_deriv, -5 + 1e-10, _ROUNDED["deriv-near-pole"][1]),
    "big-z-near-neg2": (big_z, -2.0000000001, _ROUNDED["big-z-near-pole"][1]),
    "closed-2^-130-off-neg20": (zeta_z_closed, Fraction(-20) + Fraction(1, 2 ** 130),
                                _closed_oracle),
    # rounds onto -4 at 64 bits, and onto the zero at 4, where Z'(4) dz
    # has no log-derivative bound
    "big-z-2^-130-off-neg4": (big_z, Fraction(-4) + Fraction(1, 2 ** 130),
                              _ROUNDED["big-z-near-pole"][1]),
    "big-z-2^-130-off-4": (big_z, Fraction(4) + Fraction(1, 2 ** 130), None),
}
#: (case, bits) that refuse by name: Gamma(1 - s) snaps to a pole
_NEAR_LATTICE_POLES = {("closed-near-3", 64), ("big-z-2^-130-off-4", 64),
                       ("big-z-2^-130-off-4", 256)}


@pytest.mark.parametrize("bits, tol", [(64, 1e-12), (256, 1e-30)], ids=str)
@pytest.mark.parametrize("case", sorted(_NEAR_LATTICE))
def test_near_lattice_points_are_not_snapped(case, bits, tol):
    # within the snapping radius 2^-(bits/2) of an integer, an s off it gets
    # the generic route's value, within err of mpmath at 2 bits + 64 taken
    # at the exact s, or a named refusal; never the exact lattice value
    call, s, oracle = _NEAR_LATTICE[case]
    ctx = PrecisionContext(bits, tol)
    if (case, bits) in _NEAR_LATTICE_POLES:
        with pytest.raises(PoleError):
            call(s, ctx)
        return
    mp = MPContext()
    mp.prec = 2 * bits + 64
    x = mp.mpf(s.numerator) / s.denominator if isinstance(s, Fraction) else mp.mpf(s)
    r = call(s, ctx)
    assert r.exact is None and r.err <= ctx.tol
    assert abs(mp.mpc(r.value.value) - oracle(mp, x)) <= r.err


# ---------------------------------------------------------------- route agreement

def test_route_agreement_random(ctx, mp):
    rng = random.Random(3)
    for _ in range(5):
        s = mp.mpf(rng.uniform(0.05, 0.45))
        c = zeta_z_closed(s, ctx)
        p = zeta_z_product(s, ctx)
        m = zeta_z_mellin(s, ctx)
        assert abs(c.value.value - p.value.value) <= c.err + p.err
        assert abs(c.value.value - m.value.value) <= c.err + m.err


# ---------------------------------------------------------------- one tolerance check per value

#: zeta_Z(-300.25) is about 1.9e179 and its Gamma factors about 1e614 and
#: 1e612: a tolerance of 1e170 is met by the value's rounding, never by a
#: factor's, so only a check on the value itself can serve these calls
_LARGE = PrecisionContext(256, Fraction(10) ** 170)


#: zeta_Z is about 1e14 at these points, where the closed form's err misses
#: 1e-12 at 64 bits without guard bits on its Gamma factors
_GUARDED = (-24.113, -24.513, -25.613)


def _deriv_oracle(mp, z):
    return _closed_oracle(mp, z) * (-mp.digamma(mp.mpf(1) / 2 - z) - 2 * mp.log(2)
                                    + mp.digamma(1 - z))


@pytest.mark.parametrize("call, oracle, s, ctx", [
    pytest.param(zeta_z_closed, _closed_oracle, -300.25, _LARGE, id="closed"),
    pytest.param(zeta_z_deriv, _deriv_oracle, -300.25, _LARGE, id="deriv"),
    pytest.param(big_z, lambda mp, z: mp.pi * mp.power(2, z) * _closed_oracle(mp, z / 2),
                 -600.5, _LARGE, id="big-z"),
] + [pytest.param(zeta_z_closed, _closed_oracle, s, PrecisionContext(64, 1e-12),
                  id=f"closed-64bits-{s}") for s in _GUARDED])
def test_values_meet_the_tolerance_on_their_own(call, oracle, s, ctx):
    # truth: mpmath at 2 bits + 64
    mp = MPContext()
    mp.prec = 2 * ctx.precision_bits + 64
    r = call(s, ctx)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value.value) - oracle(mp, mp.mpf(s))) <= r.err


def test_composites_take_their_factors_unchecked(monkeypatch):
    # the closed form, its derivative, Z, the leading expansion coefficient,
    # the Gamma volume and the large-n circle route never call the certified
    # Gamma, digamma or closed form, so no factor is held to the tolerance
    from zetakit import asymptotics, spheres, zeta_zn

    closed = zeta_z.zeta_z_closed

    def refuse(*args, **kwargs):
        raise AssertionError("a factor went through a tolerance check")

    for module, name in ((zeta_z.numerics, "gamma"), (zeta_z.numerics, "digamma"),
                         (zeta_z, "zeta_z_closed")):
        monkeypatch.setattr(module, name, refuse)
    ctx = PrecisionContext(256, 1e-30)
    routes = []
    route = zeta_zn._route
    monkeypatch.setattr(zeta_zn, "_route", lambda *a: routes.append(a) or route(*a))
    closed(-1.3, ctx)
    zeta_z.zeta_z_deriv(-1.3, ctx)
    zeta_z.big_z(-2.6, ctx)
    asymptotics._lead(ctx.mpf(-2.6), ctx)
    spheres.sphere_volume_gamma(7, ctx)
    zeta_zn.zeta_zn_direct(10 ** 6, 0.37, ctx)
    assert len(routes) == 1
