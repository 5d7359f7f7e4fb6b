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

from mpmath.libmp import (
    fone,
    from_int,
    from_rational,
    mpc_div,
    mpc_mul,
    mpc_one,
    mpc_square,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_shift,
    mpf_sub,
    round_nearest,
)

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
    zero; positive half-integers raise PoleError.  A negative half-integer
    s = -m - 1/2, given exactly, returns the rational 8 16^m / ((m+1)
    C(2m+2, m+1)) over pi, rounded once (:func:`_at_negative_half_integer`).
    ``use_exact_paths=False`` forces the generic Gamma route (useful for
    cross-checking the exact values against the analytic continuation).
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
        if use_exact_paths and z == q and not numerics._rounded(s, z):
            return _at_negative_half_integer(ctx, -int(q + Fraction(1, 2)))
    g1 = numerics.gamma(mp.mpf(1) / 2 - z, ctx)
    g2 = numerics.gamma(1 - z, ctx)
    v = mp.power(4, -z) / mp.sqrt(mp.pi) * g1.value / g2.value
    rel = g1.err / abs(g1.value) + g2.err / abs(g2.value) + mp.mpf(2) ** (6 - mp.prec)
    if numerics._rounded(s, z):
        rel += abs(z) * _log_deriv_bound(mp, z) * ctx.eps
    return complex_result(ctx, v, abs(v) * rel, False, "closed-form")


def _at_negative_half_integer(ctx: PrecisionContext, m: int) -> EvalResult:
    """zeta_Z(-m-1/2) = 8 16^m m! (m+1)! / ((2m+2)! pi) = 8 16^m / ((m+1)
    C(2m+2, m+1) pi), the Gamma closed form at 1/2 - s = m + 1 and 1 - s =
    m + 3/2.  The rational and pi are taken at prec + 10 bits and their
    quotient is rounded once to prec: half a unit in the last place, at most
    2^-prec relatively, and the 2^(1-prec) of err covers that and the two
    roundings at prec + 10."""
    mp = ctx.mp
    q = Fraction(8 * 16 ** m, (m + 1) * comb(2 * m + 2, m + 1))
    wp = mp.prec + 10
    v = mp.make_mpf(mpf_div(from_rational(q.numerator, q.denominator, wp, round_nearest),
                            mpf_pi(wp, round_nearest), mp.prec, round_nearest))
    return complex_result(ctx, v, v * mp.ldexp(1, 1 - mp.prec), True, "closed-form")


def _log_deriv_bound(mp, z):
    """Bound on |(log zeta_Z)'(z)| = |psi(1/2-z) - psi(1-z) + log 4|, by which
    the rounding |z - s| <= |z| eps of a converted s grows (to second order
    near the poles, see :func:`numerics._psi_bound`)."""
    return numerics._psi_bound(mp, mp.mpf(1) / 2 - z) + numerics._psi_bound(mp, 1 - z) + 2


def zeta_z_product(s, ctx: Optional[PrecisionContext] = None, *,
                   terms: Optional[int] = None) -> EvalResult:
    """Truncated product prod_{k<=K} (k-s)^2 / (k (k-2s)) with certified tail.

    The partial product is one quotient, prod (k-s)^2 / prod k (k-2s), both
    products accumulated in raw libmp tuples with at most 5K + 2 roundings
    in all (:func:`_partial_product`).  The tail log sum_{k>K} g(k),
    g(x) = 2 log(x-s) - log x - log(x-2s), is one Euler-Maclaurin sum at K:

        -G(K) - g(K)/2 - sum_{j<=J} B_2j / (2j)! g^(2j-1)(K) + R_J,

    with G(x) = 2(x-s) log(x-s) - x log x - (x-2s) log(x-2s) the antiderivative
    vanishing at infinity and g^(n)(x) = (-1)^(n-1) (n-1)! (2(x-s)^-n - x^-n
    - (x-2s)^-n).  The remainder is proved: |R_J| <= 2 zeta(2J+1)
    (2 pi)^(-2J-1) int_K^inf |g^(2J+1)| <= 8 zeta(3) (2J-1)! / ((2 pi)^(2J+1)
    d^(2J)) with d = K - 2|s|.  Each B_2j/(2j (2j-1)) is B_2j/(2j)! from
    the table of :func:`numerics._em_coefficients`, times (2j-2)!, rounded
    once.  J is the first order that meets the
    tolerance; when the bound stops falling first (2J >= 2 pi d), K grows
    fourfold and the partial product is extended over the new factors, or
    an explicit ``terms`` raises NoConvergence.  ``err`` covers
    that remainder and the rounding, including the O(K log K) cancellation
    inside G(K), and the rounding of an s that is not exact at working
    precision, amplified by :func:`_log_deriv_bound`; the rounding term only
    grows with K, so when it alone exceeds the tolerance NoConvergence is
    raised at once, naming precision as the cause.  Positive integers and
    half-integers (zeros and poles of the product) raise
    NeedsLimitInterpretation.
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
    partial = None
    while True:
        if K > ctx.max_terms:
            raise NoConvergence("product truncation exceeds max_terms")
        P, partial = _partial_product(mp, z, K, partial)
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
            fact = 1  # (2j-2)!, so that B_2j/(2j)! (2j-2)! = B_2j/(2j (2j-1))
            for j, (m, e) in enumerate(numerics._em_coefficients(mp.prec, J)[:J], start=1):
                L -= mp.ldexp(m * fact, -e) * (2 * ia - ib - ic)
                ia, ib, ic = ia * ia2, ib * ib2, ic * ic2
                fact *= (2 * j - 1) * 2 * j
            v = P * mp.exp(L)
            # rounding: P (at most 5K + 2 roundings, see _partial_product),
            # the J correction terms, and the cancellation among the three
            # K log K terms of G(K)
            mass = 2 * abs(a * la) + abs(K * lb) + abs(c * lc)
            rounding = abs(v) * (3 * K + 4 * J + 16 + 4 * mass) * mp.mpf(2) ** (2 - mp.prec)
            if numerics._rounded(s, z):
                rounding += abs(v * z) * _log_deriv_bound(mp, z) * ctx.eps
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


def _partial_product(mp, z, K: int, partial=None):
    """(P_K, partial) for P_K = prod_{k<=K} (k-z)^2 / (k (k-2z)), real (mpf)
    or complex z, as the quotient of two products: one division in place of
    K.  ``partial`` is the raw state (k, numerator, denominator) after the
    factors up to k; passing the one returned for a smaller K forms only the
    factors k+1..K, with the roundings of a build from k = 1.

    The numerator prod (k-z)^2 and the denominator prod (k^2 - 2kz), with
    2kz exact, are accumulated in raw ``mpmath.libmp`` tuples at prec with
    rounding to nearest.  Each factor costs two subtractions (k - z and
    k^2 - 2kz), one squaring and two multiplies, each within u = 2^(-prec)
    of its result, relatively: 5 real roundings, or for complex z 3 complex
    multiplies (each component rounded once from exact products, so within
    u |result|) plus the two subtractions.  The final division, whose
    complex form works at prec + 10 before its last rounding, is within
    1.01 u, so P_K is within (5K + 3) u of the exact product (K u is
    tiny), inside the 3K 2^(2-prec) = 12K u that the caller budgets.
    """
    prec, rnd = mp.prec, round_nearest
    if isinstance(z, mp.mpc):
        k0, num, den = partial or (0, mpc_one, mpc_one)
        a, b = z._mpc_
        a2, b2 = mpf_shift(a, 1), mpf_shift(b, 1)
        for k in range(k0 + 1, K + 1):
            f = (mpf_sub(from_int(k), a, prec, rnd), mpf_neg(b))
            num = mpc_mul(num, mpc_square(f, prec, rnd), prec, rnd)
            g = (mpf_sub(from_int(k * k), mpf_mul(a2, from_int(k)), prec, rnd),
                 mpf_mul(b2, from_int(-k)))
            den = mpc_mul(den, g, prec, rnd)
        return mp.make_mpc(mpc_div(num, den, prec, rnd)), (K, num, den)
    k0, num, den = partial or (0, fone, fone)
    a = z._mpf_
    a2 = mpf_shift(a, 1)
    for k in range(k0 + 1, K + 1):
        f = mpf_sub(from_int(k), a, prec, rnd)
        num = mpf_mul(num, mpf_mul(f, f, prec, rnd), prec, rnd)
        g = mpf_sub(from_int(k * k), mpf_mul(a2, from_int(k)), prec, rnd)
        den = mpf_mul(den, g, prec, rnd)
    return mp.make_mpf(mpf_div(num, den, prec, rnd)), (K, num, den)


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
    difference plus a rounding bound, which also covers the rounding of an
    s that is not exact at working precision (:func:`_log_deriv_bound`, a
    formula in psi bounds that evaluates no Gamma function).
    """
    ctx = get_context(ctx)
    mp = ctx.mp
    z = ctx.mpc(s)
    if not (0 < z.real < mp.mpf(1) / 2):
        raise DomainError("Mellin route requires 0 < Re(s) < 1/2")
    if z.imag == 0:
        z = z.real
    v, err = heat_mellin_integral(ctx, z, ctx.tol / 2)
    if numerics._rounded(s, z):
        err += abs(v * z) * _log_deriv_bound(mp, z) * ctx.eps
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
    if numerics._rounded(s, z):
        # (log Z)'(s) = log 2 + (log zeta_Z)'(s/2) / 2
        err += abs(v * z) * (_log_deriv_bound(mp, z / 2) / 2 + 1) * ctx.eps
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
    if numerics._rounded(s, x):
        # the rounding |x - s| <= |x| eps grows by |zeta_Z''| = |zeta_Z|
        # |bracket^2 + psi'(1/2-x) - psi'(1-x)|; 2 bracket^2 for the second order
        curv = (2 * bracket ** 2 + numerics._trigamma_bound(mp, mp.mpf(1) / 2 - x)
                + numerics._trigamma_bound(mp, 1 - x))
        err += abs(zc.value.value * x) * curv * ctx.eps
    return complex_result(ctx, v, err, False, "digamma-formula")


def zeta_z_deriv_at_positive_integer(n: int) -> Fraction:
    """Exact zeta_Z'(n) = 1 / (n C(2n, n)) for integer n >= 1."""
    if n < 1:
        raise DomainError("positive integer required")
    return Fraction(1, n * comb(2 * n, n))
