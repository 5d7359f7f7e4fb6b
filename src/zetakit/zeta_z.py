"""The spectral zeta function of the integer lattice and its companion Z(s).

Three independent evaluation routes are provided and cross-checked:

* ``zeta_z_closed``  -- the Gamma closed form 4^(-s) Gamma(1/2-s) /
  (sqrt(pi) Gamma(1-s)), with exact integer paths at the nonpositive
  integers (central binomial coefficients) and exact zeros at the positive
  integers;
* ``zeta_z_product`` -- the infinite product prod_k (k-s)^2 / (k (k-2s)),
  truncated with a certified tail: one Euler-Maclaurin sum of its
  logarithm with a proved remainder bound;
* ``zeta_z_mellin``  -- tanh-sinh quadrature of the heat-trace Mellin
  integral in its spectral form integral_0^1 (2 sin(pi x/2))^(-2s) dx on the
  convergence strip 0 < Re(s) < 1/2; it evaluates no Gamma function, so it
  shares no kernel with the closed form.

Derivative values follow the digamma formula
zeta'(s) = zeta(s) (-psi0(1/2-s) - 2 log 2 + psi0(1-s)), with exact rational
paths at the integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional

from .core import (
    DomainError,
    EvalResult,
    NeedsLimitInterpretation,
    NoConvergence,
    PoleError,
    PrecisionContext,
    complex_result,
    exact_result,
    get_context,
    snap,
)
from . import numerics
from .quadrature import heat_mellin_integral

__all__ = [
    "zeta_z_closed",
    "zeta_z_product",
    "zeta_z_mellin",
    "big_z",
    "zeta_z_deriv",
    "zeta_z_deriv_at_positive_integer",
]


def zeta_z_closed(s, ctx: Optional[PrecisionContext] = None, *,
                  use_exact_paths: bool = True) -> EvalResult:
    """Closed-form evaluation 4^(-s) pi^(-1/2) Gamma(1/2-s) / Gamma(1-s).

    Nonpositive integers return the exact central binomial coefficient
    C(-2s, -s); positive integers return an exact zero flagged as a simple
    zero; positive half-integers raise PoleError.  ``use_exact_paths=False``
    forces the generic Gamma route (useful for cross-checking the exact
    values against the analytic continuation).
    """
    ctx = get_context(ctx)
    mp = ctx.mp
    z = ctx.mpc(s)
    q = snap(ctx, z)
    if q is not None:
        if q.denominator == 2 and q > 0:
            raise PoleError(f"zeta_Z has a pole at s = {q}")
        if q.denominator == 1 and use_exact_paths:
            if q <= 0:
                n = -int(q)
                return exact_result(ctx, Fraction(comb(2 * n, n)), "closed-form")
            return exact_result(ctx, Fraction(0), "closed-form", note="simple-zero")
    g1 = numerics.gamma(mp.mpf(1) / 2 - z, ctx)
    g2 = numerics.gamma(1 - z, ctx)
    v = mp.power(4, -z) / mp.sqrt(mp.pi) * g1.value / g2.value
    rel = g1.err / abs(g1.value) + g2.err / abs(g2.value) + mp.mpf(2) ** (6 - mp.prec)
    return complex_result(ctx, v, abs(v) * rel, False, "closed-form")


def zeta_z_product(s, ctx: Optional[PrecisionContext] = None, *,
                   terms: Optional[int] = None) -> EvalResult:
    """Truncated product prod_{k<=K} (k-s)^2 / (k (k-2s)) with certified tail.

    The tail log sum_{k>K} g(k), g(x) = 2 log(x-s) - log x - log(x-2s), is
    one Euler-Maclaurin sum at K:

        -G(K) - g(K)/2 - sum_{j<=J} B_2j / (2j)! g^(2j-1)(K) + R_J,

    with G(x) = 2(x-s) log(x-s) - x log x - (x-2s) log(x-2s) the antiderivative
    vanishing at infinity and g^(n)(x) = (-1)^(n-1) (n-1)! (2(x-s)^-n - x^-n
    - (x-2s)^-n).  The remainder is proved: |R_J| <= 2 zeta(2J+1)
    (2 pi)^(-2J-1) int_K^inf |g^(2J+1)| <= 8 zeta(3) (2J-1)! / ((2 pi)^(2J+1)
    d^(2J)) with d = K - 2|s|.  J is the first order that meets the
    tolerance; when the bound stops falling first (2J >= 2 pi d), K grows
    fourfold, or an explicit ``terms`` raises NoConvergence.  ``err`` covers
    that remainder and the rounding, including the O(K log K) cancellation
    inside G(K); the rounding term only grows with K, so when it alone
    exceeds the tolerance NoConvergence is raised at once, naming precision
    as the cause.  Positive integers and half-integers (zeros and poles of
    the product) raise NeedsLimitInterpretation.
    """
    ctx = get_context(ctx)
    mp = ctx.mp
    z = ctx.mpc(s)
    q = snap(ctx, z)
    if q is not None and q > 0:
        raise NeedsLimitInterpretation(
            "product degenerates at positive integers and half-integers")
    if z.imag == 0:
        z = z.real  # keep the product in real arithmetic when possible
    absz = abs(z)
    K = terms if terms is not None else max(256, int(4 * absz) + 16)
    tol = ctx.tol
    while True:
        if K > ctx.max_terms:
            raise NoConvergence("product truncation exceeds max_terms")
        P = mp.one
        for k in range(1, K + 1):
            P *= (k - z) ** 2 / (k * (k - 2 * z))
        # the stopping rule |P| expm1(R_J) <= tol/4, solved for R_J once
        order = _em_tail_order(mp, K - 2 * absz, mp.log1p(tol / 4 / abs(P)))
        if order is not None:
            J, R = order
            a, c = K - z, K - 2 * z
            la, lb, lc = mp.log(a), mp.log(K), mp.log(c)
            G = 2 * a * la - K * lb - c * lc
            L = -G - (2 * la - lb - lc) / 2
            ia, ib, ic = 1 / a, mp.one / K, 1 / c
            ia2, ib2, ic2 = ia * ia, ib * ib, ic * ic
            for j in range(1, J + 1):
                L -= (numerics._bern_mpf(mp, 2 * j) / (2 * j * (2 * j - 1))
                      * (2 * ia - ib - ic))
                ia, ib, ic = ia * ia2, ib * ib2, ic * ic2
            v = P * mp.exp(L)
            # rounding: 3 operations per factor of P, the J correction terms,
            # and the cancellation among the three K log K terms of G(K)
            mass = 2 * abs(a * la) + abs(K * lb) + abs(c * lc)
            rounding = abs(v) * (3 * K + 4 * J + 16 + 4 * mass) * mp.mpf(2) ** (2 - mp.prec)
            err = abs(v) * mp.expm1(R) * (1 + mp.mpf(2) ** -10) + rounding
            if err <= tol:
                return complex_result(ctx, v, err, True, "product")
            # the rounding term only grows with K: no larger K can certify
            if rounding > tol:
                raise NoConvergence(
                    "precision too low: the product's rounding alone exceeds the tolerance")
        K *= 4
        if terms is not None:
            raise NoConvergence("requested truncation cannot certify the tolerance")


#: 8 zeta(3) rounded up: the constant of the Euler-Maclaurin tail remainder.
_EIGHT_ZETA3 = 9.6168


def _em_tail_order(mp, d, rmax):
    """(J, R_J) for the first order J whose remainder bound R_J =
    8 zeta(3) (2J-1)! / ((2 pi)^(2J+1) d^(2J)) is at most rmax, or None when
    the bound stops falling first (2J >= 2 pi d)."""
    if d <= 0:
        return None
    two_pi_d = 2 * mp.pi * d
    R = _EIGHT_ZETA3 / (two_pi_d ** 2 * 2 * mp.pi)
    J = 1
    while R > rmax:
        if 2 * J >= two_pi_d:
            return None
        R *= (2 * J) * (2 * J + 1) / two_pi_d ** 2
        J += 1
    return J, R


def zeta_z_mellin(s, ctx: Optional[PrecisionContext] = None) -> EvalResult:
    """Tanh-sinh quadrature of zeta_Z(s) = integral_0^1 (2 sin(pi x/2))^(-2s) dx.

    This is the Mellin integral (1/Gamma(s)) integral_0^inf e^(-2t) I0(2t)
    t^(s-1) dt with the heat trace written as integral_0^1
    e^(-4t sin^2(pi x/2)) dx and the t-integral done first, so no Gamma
    function is evaluated and the route shares no kernel with the closed
    form.  Only valid on the convergence strip 0 < Re(s) < 1/2; outside it
    raises DomainError.  The reported error is the tanh-sinh level
    difference plus a rounding bound.
    """
    ctx = get_context(ctx)
    mp = ctx.mp
    z = ctx.mpc(s)
    if not (0 < z.real < mp.mpf(1) / 2):
        raise DomainError("Mellin route requires 0 < Re(s) < 1/2")
    if z.imag == 0:
        z = z.real
    v, err = heat_mellin_integral(ctx, z, ctx.tol / 2)
    return complex_result(ctx, v, err, False, "quadrature")


def big_z(s, ctx: Optional[PrecisionContext] = None) -> EvalResult:
    """Z(s) = pi 2^s zeta_Z(s/2); pole errors propagate from zeta_Z."""
    ctx = get_context(ctx)
    mp = ctx.mp
    z = ctx.mpc(s)
    inner = zeta_z_closed(z / 2, ctx)
    pref = mp.pi * mp.power(2, z)
    v = pref * inner.value.value
    err = abs(pref) * inner.err + abs(v) * mp.mpf(2) ** (6 - mp.prec)
    return complex_result(ctx, v, err, inner.certified, "closed-form",
                          note=inner.note)


def _deriv_bracket_exact_negative(n: int) -> Fraction:
    """sum_{k=1}^{n} (1/k - 2/(2k-1)) as an exact rational."""
    acc = Fraction(0)
    for k in range(1, n + 1):
        acc += Fraction(1, k) - Fraction(2, 2 * k - 1)
    return acc


def zeta_z_deriv(s, ctx: Optional[PrecisionContext] = None) -> EvalResult:
    """zeta_Z'(s) for real s < 1/2, plus the exact values at positive integers.

    Uses zeta_Z(s) (-psi0(1/2-s) - 2 log 2 + psi0(1-s)) off the integers;
    at s = -n the bracket telescopes into the exact rational
    C(2n,n) sum_{k<=n} (1/k - 2/(2k-1)), at s = 0 the derivative vanishes
    exactly, and positive integers route to the exact reciprocal formula.
    Positive half-integers (and other s >= 1/2) raise DomainError.
    """
    ctx = get_context(ctx)
    mp = ctx.mp
    x = ctx.mpf(s)
    q = snap(ctx, x)
    if q is not None:
        if q.denominator == 2 and q > 0:
            raise DomainError("derivative undefined at the poles s = n - 1/2 > 0")
        if q.denominator == 1 and q >= 1:
            return exact_result(ctx, zeta_z_deriv_at_positive_integer(int(q)),
                                "exact-at-positive-integer")
        if q == 0:
            return exact_result(ctx, Fraction(0), "digamma-formula")
        if q.denominator == 1:
            n = -int(q)
            return exact_result(ctx, comb(2 * n, n) * _deriv_bracket_exact_negative(n),
                                "digamma-formula")
    if x >= mp.mpf(1) / 2:
        raise DomainError("derivative formula applies left of s = 1/2")
    zc = zeta_z_closed(x, ctx)
    d1 = numerics.digamma(mp.mpf(1) / 2 - x, ctx)
    d2 = numerics.digamma(1 - x, ctx)
    bracket = -d1.value - 2 * mp.log(2) + d2.value
    v = zc.value.value * bracket
    err = (
        abs(bracket) * zc.err
        + abs(zc.value.value) * (d1.err + d2.err)
        + abs(v) * mp.mpf(2) ** (6 - mp.prec)
    )
    return complex_result(ctx, v, err, False, "digamma-formula")


def zeta_z_deriv_at_positive_integer(n: int) -> Fraction:
    """Exact zeta_Z'(n) = 1 / (n C(2n, n)) for integer n >= 1."""
    if n < 1:
        raise DomainError("positive integer required")
    return Fraction(1, n * comb(2 * n, n))
