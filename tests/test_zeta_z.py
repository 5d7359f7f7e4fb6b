"""Three evaluation routes for the lattice zeta function, plus derivatives."""

import random
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
from zetakit import quadrature, zeta_z


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
    # s = -m - 1/2 takes the rational over pi, rounded once; it agrees with
    # the Gamma route within both errs and its err covers mpmath's Gamma
    # quotient at 2 bits + 64
    ctx = PrecisionContext(bits, tol)
    mp = MPContext()
    mp.prec = 2 * bits + 64
    for m in (0, 1, 2, 5, 12, 20):
        s = Fraction(-2 * m - 1, 2)
        r = zeta_z_closed(s, ctx)
        g = zeta_z_closed(s, ctx, use_exact_paths=False)
        assert r.method == "closed-form" and r.exact is None and r.err <= ctx.tol
        assert abs(r.value.value - g.value.value) <= r.err + g.err
        x = mp.mpf(-2 * m - 1) / 2
        truth = mp.power(4, -x) * mp.gamma(mp.mpf(1) / 2 - x) / (mp.sqrt(mp.pi) * mp.gamma(1 - x))
        assert abs(mp.mpc(r.value.value) - truth) <= r.err
    assert abs(mp.mpc(zeta_z_closed(-0.5, ctx).value.value) - 4 / mp.pi) <= ctx.tol


def test_closed_half_integer_path_needs_the_exact_argument():
    # an s that merely snaps to -1/2, or rounds onto it, keeps the Gamma route
    ctx = PrecisionContext(256, 1e-30)
    calls = []
    gamma = zeta_z.numerics.gamma
    near = Fraction(-1, 2) + Fraction(1, 10 ** 50)  # within the snapping radius 2^-128
    for s in (Fraction(-1, 2), -0.5, near):
        calls.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(zeta_z.numerics, "gamma", lambda z, c: calls.append(z) or gamma(z, c))
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


def test_closed_gamma_route_matches_exact_path(ctx, mp):
    for n in (1, 4, 9, 17, 30):
        generic = zeta_z_closed(-n, ctx, use_exact_paths=False)
        assert abs(generic.value.value - comb(2 * n, n)) < mp.mpf(10) ** -25


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
    """The (first new factor, K) of each partial-product build, in order."""
    builds = []
    build = zeta_z._partial_product
    monkeypatch.setattr(zeta_z, "_partial_product", lambda mp, z, K, partial=None: (
        builds.append((partial[0] + 1 if partial else 1, K)) or build(mp, z, K, partial)))
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
    # extending the partial product over the new factors keeps the
    # truncations of a build from k = 1: value and err equal those at the
    # final K
    monkeypatch.setattr(zeta_z, "_PRODUCT_D_PER_BIT", 0)
    builds = _record_builds(monkeypatch)
    ctx = PrecisionContext(1024, 1e-120)
    grown = zeta_z_product(s, ctx)
    assert len(builds) == 2
    direct = zeta_z_product(s, ctx, terms=builds[-1][1])
    assert grown.value.value._mpc_ == direct.value.value._mpc_
    assert grown.err == direct.err


def test_product_growth_forms_each_factor_once(monkeypatch):
    # K grows fourfold at s = -60.3+2i: the second build forms only the
    # factors past the first K, so each factor is formed once
    monkeypatch.setattr(zeta_z, "_PRODUCT_D_PER_BIT", 0)
    builds = _record_builds(monkeypatch)
    zeta_z_product(complex(-60.3, 2), PrecisionContext(1024, 1e-120))
    (k1, K1), (k2, K2) = builds
    assert (k1, k2, K2) == (1, K1 + 1, 4 * K1)


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
