"""Three evaluation routes for the lattice zeta function, plus derivatives."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

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
] + [
    pytest.param(bits, tol, s, None, id=f"{bits}bits-{tol:g}-{name}")
    for bits, tol in ((128, 1e-20), (512, 1e-60), (1024, 1e-120), (1024, 1e-200))
    for name, s in _HONEST_POINTS.items()
])
def test_product_error_bound_is_honest(bits, tol, s, terms):
    # the bound meets the tolerance and covers the true error, taken against
    # the closed form at twice the bits
    p = zeta_z_product(s, PrecisionContext(bits, tol), terms=terms)
    c = zeta_z_closed(s, PrecisionContext(2 * bits, tol))
    assert p.err <= tol
    assert abs(p.value.value - c.value.value) <= p.err


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
