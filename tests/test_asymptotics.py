"""Large-n expansion, zeta extraction, functional-equation bridge."""

from fractions import Fraction
from math import comb

import pytest
from mpmath.ctx_mp import MPContext

from zetakit import (
    DomainError,
    PoleError,
    PrecisionContext,
    csc_power_polynomial,
    euler_zeta_negative,
    evaluate_expansion,
    expansion_terms,
    extract_zeta,
    riemann_zeta_numeric,
    zeta_even_from_functional_eq,
    zeta_zn_closed_poly,
    zeta_zn_direct,
)
from zetakit.core import mpf_to_fraction
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
    assert abs(terms[1].power_of_n + 1) == 0


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


@pytest.mark.parametrize("s", [-0.5, -1, -3, -2.5, complex(0.3, 0.2), -201, 300.5])
def test_leading_coefficient_matches_gamma_quotient(s):
    # 2^s zeta_Z(s/2) = pi^(-1/2) Gamma(1/2-s/2)/Gamma(1-s/2), the truth at
    # 2 bits + 64; at s = -201 the closed form must run at a scaled tolerance
    ctx = PrecisionContext(256)
    lead = expansion_terms(s, ctx)[0].coefficient
    hi = MPContext()
    hi.prec = 2 * 256 + 64
    z = hi.mpc(s)
    truth = hi.gamma(hi.mpf(1) / 2 - z / 2) / hi.gamma(1 - z / 2) / hi.sqrt(hi.pi)
    assert abs(hi.mpc(lead.value) - truth) <= lead.err


@pytest.mark.parametrize("m", range(4))
def test_leading_coefficient_exact_at_negative_even(ctx, m):
    # 2^(-2m) zeta_Z(-m) = C(2m, m) / 4^m, a dyadic rational, exactly
    lead = expansion_terms(-2 * m, ctx)[0].coefficient.value
    assert lead.imag == 0
    assert mpf_to_fraction(lead.real) == Fraction(comb(2 * m, m), 4 ** m)


@pytest.mark.parametrize("s, calls", [(0, 0), (-1, 0), (-3, 0), (-0.5, 1)])
def test_extract_evaluates_riemann_zeta_only_for_reference(ctx, monkeypatch, s, calls):
    # the leading term comes from the closed form; only a non-integer s needs
    # the Riemann zeta, once, for the reference value
    import zetakit.numerics as numerics
    real = numerics.riemann_zeta_numeric
    seen = []

    def counted(*args, **kwargs):
        seen.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(numerics, "riemann_zeta_numeric", counted)
    extract_zeta(s, 16, 1000, ctx)
    assert len(seen) == calls


# ---------------------------------------------------------------- extraction

def test_extract_zeta_zero(ctx, mp):
    res = extract_zeta(0, 16, 10_000, ctx)
    assert abs(res.estimate.value + Fraction(1, 2)) < mp.mpf(10) ** -6
    assert res.abs_error < mp.mpf(10) ** -6


def test_extract_zeta_minus_one(ctx, mp):
    res = extract_zeta(-1, 16, 10_000, ctx)
    assert abs(res.estimate.value + Fraction(1, 12)) < mp.mpf(10) ** -5
    assert abs(res.reference + mp.one / 12) <= 2 * mp.eps


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
