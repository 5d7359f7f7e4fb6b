"""Sphere volumes, the Z-product factorization, Catalan numbers, demos."""

from fractions import Fraction
from math import comb

import pytest

from zetakit import (
    DomainError,
    arithmetic_volume_demo,
    big_z,
    catalan,
    riemann_zeta_numeric,
    sphere_ratio,
    sphere_volume_gamma,
    sphere_volume_zproduct,
    zeta_z_closed,
)


def test_gamma_route_first_values(ctx, mp):
    expect = [mp.mpf(2), 2 * mp.pi, 4 * mp.pi, 2 * mp.pi ** 2]
    for n, e in enumerate(expect):
        v = sphere_volume_gamma(n, ctx)
        assert abs(v.value.value - e) <= v.err + abs(e) * mp.eps


def test_zproduct_first_values(ctx, mp):
    assert sphere_volume_zproduct(0, ctx).exact == 2  # empty product
    expect = {1: 2 * mp.pi, 2: 4 * mp.pi, 3: 2 * mp.pi ** 2}
    for n, e in expect.items():
        v = sphere_volume_zproduct(n, ctx)
        assert abs(v.value.value - e) < mp.mpf(10) ** -70


def test_routes_agree_to_fifty(ctx, mp):
    for n in range(1, 51):
        a = sphere_volume_gamma(n, ctx)
        b = sphere_volume_zproduct(n, ctx)
        assert abs(a.value.value - b.value.value) < mp.mpf(10) ** -20


def test_negative_dimension_rejected(ctx):
    with pytest.raises(DomainError):
        sphere_volume_gamma(-1, ctx)


def test_ratio_values(ctx, mp):
    r1 = sphere_ratio(1, ctx)
    assert abs(r1.gamma_route.value.value - mp.pi) < ctx.tol
    assert abs(r1.z_value.value.value - mp.pi) < ctx.tol
    r2 = sphere_ratio(2, ctx)
    assert abs(r2.gamma_route.value.value - 2) < ctx.tol


def test_ratio_n5_gamma_oracle(ctx, mp):
    # oracle: sqrt(pi) Gamma(5/2) / Gamma(3) = 3 pi / 8
    oracle = mp.sqrt(mp.pi) * mp.gamma(mp.mpf(5) / 2) / mp.gamma(3)
    assert abs(oracle - 3 * mp.pi / 8) < mp.eps * 8
    r = sphere_ratio(5, ctx)
    assert abs(r.gamma_route.value.value - oracle) <= r.gamma_route.err + mp.eps * 8
    assert abs(r.z_value.value.value - oracle) <= r.z_value.err + mp.eps * 8


def test_ratio_agreement_sweep(ctx):
    for n in range(1, 21):
        r = sphere_ratio(n, ctx)
        diff = abs(r.gamma_route.value.value - r.z_value.value.value)
        assert diff <= r.gamma_route.err + r.z_value.err + ctx.tol


def test_telescoped_ratios_rebuild_volume(ctx, mp):
    prod = mp.mpf(2)
    for n in range(1, 13):
        prod *= sphere_ratio(n, ctx).gamma_route.value.value.real
        direct = sphere_volume_gamma(n, ctx).value.value.real
        assert abs(prod - direct) <= ctx.tol * (1 + abs(direct))


# ---------------------------------------------------------------- catalan

def _dyck_paths(m: int) -> int:
    # brute-force oracle: count lattice paths that never dip below zero
    def walk(up_left: int, down_left: int, height: int) -> int:
        if up_left == 0:
            return 1 if height == down_left else 0
        total = walk(up_left - 1, down_left, height + 1)
        if height > 0:
            total += walk(up_left, down_left - 1, height - 1)
        return total

    return walk(m, m, 0)


def test_catalan_dyck_oracle():
    for m in range(11):
        assert catalan(m) == _dyck_paths(m)


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(2) == 2
    assert catalan(3) == 5
    with pytest.raises(DomainError):
        catalan(-1)


def test_catalan_triple_identity(ctx):
    for m in range(31):
        binom = Fraction(comb(2 * m, m), m + 1)
        prodform = Fraction(1)
        for k in range(2, m + 1):
            prodform *= Fraction(m + k, k)
        via_zeta = zeta_z_closed(-m, ctx).exact / (m + 1)
        assert catalan(m) == binom == prodform == via_zeta


def test_catalan_from_zeta_example(ctx):
    assert zeta_z_closed(-2, ctx).exact / 3 == 2


# ---------------------------------------------------------------- shape of the sequence

def test_volume_unimodal_peak_at_six(ctx):
    vols = [float(sphere_volume_gamma(n, ctx).value.re) for n in range(21)]
    assert vols.index(max(vols)) == 6
    assert all(vols[i] < vols[i + 1] for i in range(6))
    assert all(vols[i] > vols[i + 1] for i in range(6, 20))
    assert float(sphere_volume_gamma(80, ctx).value.re) < 1e-12


# ---------------------------------------------------------------- demos

def test_demo_single_factors(ctx, mp):
    sl2 = arithmetic_volume_demo("SL", 2, ctx)
    assert abs(sl2.value.value - mp.pi ** 2 / 6) < ctx.tol
    sp1 = arithmetic_volume_demo("Sp", 1, ctx)
    assert abs(sp1.value.value - mp.pi ** 2 / 6) < ctx.tol


def test_demo_sl3_oracle(ctx, mp):
    # oracle: Euler-Maclaurin values of zeta(2) and zeta(3)
    oracle = riemann_zeta_numeric(2, ctx).value * riemann_zeta_numeric(3, ctx).value
    r = arithmetic_volume_demo("SL", 3, ctx)
    assert abs(r.value.value - oracle) <= r.err + 4 * ctx.tol
    assert abs(r.value.value - mp.mpf("1.97730")) < 1e-5


def test_demo_sp_products(ctx, mp):
    sp2 = arithmetic_volume_demo("Sp", 2, ctx)
    expected = (mp.pi ** 2 / 6) * (mp.pi ** 4 / 90)
    assert abs(sp2.value.value - expected) <= sp2.err + 8 * ctx.tol * float(expected)


def test_demo_domain(ctx):
    with pytest.raises(DomainError):
        arithmetic_volume_demo("SL", 1, ctx)
    with pytest.raises(DomainError):
        arithmetic_volume_demo("Sp", 0, ctx)
    with pytest.raises(DomainError):
        arithmetic_volume_demo("SO", 3, ctx)


def test_big_z_feeds_products(ctx, mp):
    # vol(S^4) = 2 Z(0) Z(-1) Z(-2) Z(-3)
    prod = mp.mpf(2)
    for j in range(4):
        prod *= big_z(-j, ctx).value.value.real
    direct = sphere_volume_gamma(4, ctx).value.value.real
    assert abs(prod - direct) < ctx.tol
