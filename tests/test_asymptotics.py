"""Large-n expansion, zeta extraction, cot route, functional-equation bridge."""

from fractions import Fraction

import pytest

from zetakit import (
    DomainError,
    PoleError,
    cot_expansion_route,
    csc_power_polynomial,
    euler_zeta_negative,
    evaluate_expansion,
    expansion_terms,
    extract_zeta,
    riemann_zeta_numeric,
    zeta_even_from_functional_eq,
    zeta_zn_closed_poly,
    zeta_zn_direct,
    sine_power_sum,
)
from zetakit.verify import _reconstructed_poly
from zetakit.zeta_zn import POLY_CAP


# ---------------------------------------------------------------- terms

def test_terms_at_zero_predict_n_minus_one(ctx, mp):
    terms = expansion_terms(0, ctx)
    assert abs(terms[0].coefficient.value - 1) < ctx.tol          # leading n
    assert abs(terms[1].coefficient.value + 1) < ctx.tol          # 2 zeta(0)
    assert terms[2].coefficient.value == 0                        # s/3 factor
    for n in (5, 40, 1000):
        model = evaluate_expansion(terms, n, ctx)
        assert abs(model.value - (n - 1)) < mp.mpf(10) ** -70


def test_terms_leading_coefficient_at_minus_one(ctx, mp):
    # Gamma(1)/Gamma(3/2)/sqrt(pi) = 2/pi
    terms = expansion_terms(-1, ctx)
    assert abs(terms[0].coefficient.value - 2 / mp.pi) < ctx.tol
    assert terms[1].description == "zeta(s)"
    assert abs(terms[1].power_of_n.value + 1) == 0


def test_terms_trivial_zero_kills_second_term(ctx):
    terms = expansion_terms(-2, ctx)
    assert terms[1].coefficient.value == 0


def test_terms_poles(ctx):
    for s in (1, 3, 5):
        with pytest.raises(PoleError):
            expansion_terms(s, ctx)


def test_terms_vanishing_lead_at_even_positive(ctx):
    terms = expansion_terms(2, ctx)
    assert terms[0].coefficient.value == 0


# ---------------------------------------------------------------- extraction

def test_extract_zeta_zero(ctx, mp):
    res = extract_zeta(0, 16, 10_000, ctx)
    assert abs(res.estimate.value + Fraction(1, 2)) < mp.mpf(10) ** -6
    assert res.abs_error < mp.mpf(10) ** -6


def test_extract_zeta_minus_one(ctx, mp):
    res = extract_zeta(-1, 16, 10_000, ctx)
    assert abs(res.estimate.value + Fraction(1, 12)) < mp.mpf(10) ** -5
    assert abs(res.reference.value + mp.one / 12) <= 2 * mp.eps


def test_extract_zeta_minus_three(ctx, mp):
    res = extract_zeta(-3, 16, 10_000, ctx)
    assert abs(res.estimate.value - Fraction(1, 120)) < mp.mpf(10) ** -4


def test_extract_trivial_zero_regime(ctx, mp):
    # at s = -2 the data is exactly the leading term: estimate 0
    res = extract_zeta(-2, 16, 2048, ctx)
    assert abs(res.estimate.value) < mp.mpf(10) ** -10


def test_extract_domain(ctx):
    with pytest.raises(DomainError):
        extract_zeta(0.5, 16, 1000, ctx)
    with pytest.raises(DomainError):
        extract_zeta(0, 3, 1000, ctx)
    with pytest.raises(DomainError):
        extract_zeta(0, 100, 100, ctx)
    # 16 log-spaced points between 4 and 5 are only two distinct n, which a
    # two-term fit would match exactly, hiding its error
    with pytest.raises(DomainError):
        extract_zeta(-1, 4, 5, ctx)


# ---------------------------------------------------------------- cot route

def test_cot_route_base_series():
    assert cot_expansion_route(0, 2) == [
        Fraction(1), Fraction(-1, 3), Fraction(-1, 45)]


def test_cot_route_numeric_check_order_five(ctx, mp):
    # truncating after z^3 leaves an O(n^-5) defect against cot(pi/2n)
    coeffs = cot_expansion_route(0, 2)
    n = 100
    z = mp.pi / (2 * n)
    series = mp.convert(coeffs[0]) / z + mp.convert(coeffs[1]) * z \
        + mp.convert(coeffs[2]) * z ** 3
    actual = mp.cospi(Fraction(1, 2 * n)) / mp.sinpi(Fraction(1, 2 * n))
    defect = abs(actual - series)
    scale = Fraction(2, 945)  # next cot coefficient magnitude
    assert mp.convert(scale) * z ** 5 * mp.mpf("0.3") < defect \
        < mp.convert(scale) * z ** 5 * 3


def test_cot_route_matches_direct_sine_sums(ctx, mp):
    # m = 1, order 4: the series reproduces sum sin^3 with O(z^9) defects
    coeffs = cot_expansion_route(1, 4)
    defects = []
    for n in (200, 400):
        z = mp.pi / (2 * n)
        series = sum(mp.convert(c) * z ** (2 * j - 1) for j, c in enumerate(coeffs))
        exact = sine_power_sum(n, 3, ctx).value
        defects.append(abs(series - exact))
    assert defects[0] < mp.mpf(10) ** -12
    # halving z must shrink the defect by about 2^9
    ratio = defects[0] / defects[1]
    assert 2 ** 8 < ratio < 2 ** 10


def test_cot_route_order_cap():
    with pytest.raises(DomainError):
        cot_expansion_route(1, 13)
    with pytest.raises(DomainError):
        cot_expansion_route(-1, 2)


# ---------------------------------------------------------------- Euler values

def test_euler_values():
    assert euler_zeta_negative(1) == Fraction(-1, 12)
    assert euler_zeta_negative(2) == 0
    assert euler_zeta_negative(3) == Fraction(1, 120)
    assert all(euler_zeta_negative(2 * k) == 0 for k in range(1, 11))
    with pytest.raises(DomainError):
        euler_zeta_negative(0)


def test_functional_equation_bridge(ctx, mp):
    assert abs(zeta_even_from_functional_eq(1, ctx).value.value
               - mp.pi ** 2 / 6) < mp.mpf(10) ** -70
    assert abs(zeta_even_from_functional_eq(2, ctx).value.value
               - mp.pi ** 4 / 90) < mp.mpf(10) ** -70
    # oracle for m = 3: Euler-Maclaurin summation of zeta(6)
    em = riemann_zeta_numeric(6, ctx)
    fe = zeta_even_from_functional_eq(3, ctx)
    assert abs(fe.value.value - em.value) <= fe.err + em.err
    assert abs(fe.value.value - mp.pi ** 6 / 945) < mp.mpf(10) ** -70


def test_bridge_matches_em_through_m6(ctx):
    for m in range(1, 7):
        fe = zeta_even_from_functional_eq(m, ctx)
        em = riemann_zeta_numeric(2 * m, ctx)
        assert abs(fe.value.value - em.value) < 1e-20


# ---------------------------------------------------------------- assembly

def test_assembly_examples(ctx):
    assert zeta_zn_closed_poly(1, ctx).evaluate(5) == 2
    assert zeta_zn_closed_poly(1, ctx).evaluate(2) == Fraction(1, 4)
    assert zeta_zn_closed_poly(2, ctx).evaluate(3) == Fraction(2, 9)


def test_assembly_matches_direct(ctx, mp):
    for n in range(2, 31):
        for m in (1, 2):
            q = zeta_zn_closed_poly(m, ctx).evaluate(n)
            direct = zeta_zn_direct(n, m, ctx).value.re
            assert abs(direct - mp.convert(q)) <= (n + 32) * mp.eps * (1 + abs(direct))


def test_csc_polynomial_cross_route(ctx):
    # two independent routes to the same polynomials: Bernoulli assembly
    # vs verify's oracle, interpolation with rational reconstruction
    for m in range(1, POLY_CAP + 1):
        oracle = _reconstructed_poly(m, ctx).coeffs
        assert csc_power_polynomial(m).coeffs == oracle
        assert zeta_zn_closed_poly(m, ctx).coeffs == oracle
