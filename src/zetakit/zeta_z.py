"""The spectral zeta function of the integer lattice and its companion Z(s).

Three independent evaluation routes are provided and cross-checked:

* ``zeta_z_closed``  -- the Gamma closed form 4^(-s) Gamma(1/2-s) /
  (sqrt(pi) Gamma(1-s)), with exact integer paths at the nonpositive
  integers (central binomial coefficients) and exact zeros at the positive
  integers;
* ``zeta_z_product`` -- the infinite product prod_k (k-s)^2 / (k (k-2s)),
  truncated with a certified tail: one Euler-Maclaurin sum of its
  logarithm with a proved remainder bound, its length sized from the bits
  the value must carry, the partial product and the tail's correction sum
  in Python-integer fixed point;
* ``zeta_z_mellin``  -- tanh-sinh quadrature of the heat-trace Mellin
  integral in its spectral form integral_0^1 (2 sin(pi x/2))^(-2s) dx on the
  convergence strip 0 < Re(s) < 1/2; it evaluates no Gamma function, so it
  shares no kernel with the closed form.

Derivative values follow the digamma formula
zeta'(s) = zeta(s) (-psi0(1/2-s) - 2 log 2 + psi0(1-s)), with exact rational
paths at the integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb
from typing import Optional

from mpmath.libmp import from_rational, mpf_div, mpf_pi, round_nearest

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
from .numerics import FIXED_GUARD, _divide, _dyadic, _em_coefficients, _to_mp, _trim
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


#: d / b for the product route, d = K - 2|s| and 2^-b its target relative to
#: the value.  Timed against 0.15 to 0.4: flat at 64 and 256 bits, 0.3 and
#: 0.4 fastest at 1024 bits.
_PRODUCT_D_PER_BIT = 0.3


def zeta_z_product(s, ctx: Optional[PrecisionContext] = None, *,
                   terms: Optional[int] = None) -> EvalResult:
    """Truncated product prod_{k<=K} (k-s)^2 / (k (k-2s)) with certified tail.

    The tail log sum_{k>K} g(k), g(x) = 2 log(x-s) - log x - log(x-2s), is
    one Euler-Maclaurin sum at K, with a = K - s, c = K - 2s and l_x =
    log(x/K) (the x log x terms of the antiderivative G cancel):

        (c + 1/2) l_c - (2a + 1) l_a - sum_{j<=J} B_2j/(2j (2j-1))
        (2a^(1-2j) - K^(1-2j) - c^(1-2j)) + R_J,

    |R_J| <= 8 zeta(3) (2J-1)! / ((2 pi)^(2J+1) d^(2J)), d = K - 2|s|.
    K = 2|s| + d with d = 0.3 b + 3 (:data:`_PRODUCT_D_PER_BIT`), 2^b =
    |value| / tol from ``mp.mag`` (0 <= b <= prec) and |value| taken as
    4^-Re s (the closed form's Gamma quotient is at most 1 for Re s <= 0,
    about |tan(pi s)| / sqrt(pi s) for s > 0).  At J = floor(pi d) the bound
    is below 31 e^(-2 pi d) < 2^(5-9d) (Stirling), under 2^(-b-2) for any
    d/b of at least 1/9: the first K serves unless |value| exceeds its
    estimate.  J is the first order with R_J <= x/(1+x), x = tol / (4 |v0|)
    with v0 = P_K e^(-G(K) - g(K)/2), so |v0| (e^R_J - 1) <= tol/4
    (:func:`_tail_order`).  When the bound stops falling first, K grows
    fourfold and the partial product is extended, or an explicit ``terms``
    raises NoConvergence.

    Rounding, in units u = 2^-prec of |v|, with the fixed-point parts at F =
    prec + ``FIXED_GUARD``: P_K within (3K + 1) 2^(1-F) + u
    (:func:`_partial_product`) fits 3K 4u; the correction sum within J
    2^(6-F) (:func:`_tail_sum`) fits 4J 4u; l_x within (3 + |l_x|) u (two
    roundings in x/K) puts the leading part within 4 mass u, fitting 4 mass
    4u; the conversions, the exp and the product take the 16 4u.  ``err``
    adds the remainder and the rounding of an s not exact at working
    precision (:func:`_log_deriv_bound`).  The rounding term only grows with
    K, so when it alone exceeds the tolerance NoConvergence is raised at
    once, naming precision.  Positive integers and half-integers (zeros and
    poles of the product) raise NeedsLimitInterpretation.
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
    tol = ctx.tol
    b = min(mp.prec, max(0, int(-2 * z.real) + 1 - mp.mag(tol)))
    K = terms if terms is not None else int(2 * absz) + int(_PRODUCT_D_PER_BIT * b) + 3
    partial = None
    while True:
        if K > ctx.max_terms:
            raise NoConvergence("product truncation exceeds max_terms")
        P, partial = _partial_product(mp, z, K, partial)
        a, c = K - z, K - 2 * z
        la, lc = mp.log(a / K), mp.log(c / K)
        wa, wc = 2 * a + 1, c + mp.mpf(0.5)
        L = wc * lc - wa * la  # -G(K) - g(K)/2
        x = tol / (4 * abs(P) * mp.exp(L.real))  # tol / (4 |v0|)
        order = _tail_order(mp, K - 2 * absz, x / (1 + x))
        if order is not None:
            J, R = order
            v = P * mp.exp(L - _tail_sum(mp, z, K, J))
            mass = abs(wa) * (1 + abs(la)) + abs(wc) * (1 + abs(lc))
            rounding = abs(v) * (3 * K + 4 * J + 16 + 4 * mass) * mp.mpf(2) ** (2 - mp.prec)
            if numerics._rounded(s, z):
                rounding += abs(v * z) * _log_deriv_bound(mp, z) * ctx.eps
            # e^R - 1 <= R/(1-R) for 0 <= R < 1
            err = abs(v) * R / (1 - R) * (1 + mp.mpf(2) ** -10) + rounding
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
    or complex z; passing the ``partial`` state returned for a smaller K
    forms only the new factors, with the truncations of a build from k = 1.

    With z = m 2^ez (:func:`numerics._dyadic`, ez <= 0), k - z and
    k (k-2z) are exact Gaussian integers times 2^ez.  prod (k-z) and
    prod k (k-2z) are carried as (re + i im) 2^e, both parts floored after
    each factor to the grid that leaves the larger F + 1 bits
    (:func:`numerics._trim`, F = prec + ``FIXED_GUARD``), a relative change
    below 2^(1-F); P_K, the square of the one over the other, is one
    quotient (:func:`numerics._divide`) rounded once: within (3K + 1)
    2^(1-F) + 2^-prec of the exact product.
    """
    F = mp.prec + FIXED_GUARD
    mr, mi, ez = _dyadic(z)
    k0, (nr, ni, ne), (dr, di, de) = partial or (0, (1, 0, 0), (1, 0, 0))
    for k in range(k0 + 1, K + 1):
        x = k << -ez
        ar, br, bi = x - mr, k * (x - 2 * mr), 2 * k * mi  # times ar - i mi, br - i bi
        nr, ni, ne = _trim(nr * ar + ni * mi, ni * ar - nr * mi, ne, F)
        dr, di, de = _trim(dr * br + di * bi, di * br - dr * bi, de, F)
    qr, qi, e = _divide(nr * nr - ni * ni, 2 * nr * ni, dr, di, F)
    P = _to_mp(mp, qr, qi, 2 * ne - de + ez * K + e, bool(mi))
    return P, (K, (nr, ni, ne), (dr, di, de))


#: 8 zeta(3) rounded up: the constant of the Euler-Maclaurin tail remainder.
_EIGHT_ZETA3 = 9.6168


def _tail_order(mp, d, rmax):
    """(J, R_J) for the first order J whose remainder bound R_J =
    8 zeta(3) (2J-1)! / ((2 pi)^(2J+1) d^(2J)) is at most rmax, or None when
    the bound stops falling first (2J >= 2 pi d).  log2 R_J is screened in
    floats; at the first J that reads at most log2 rmax +
    ``numerics._EM_SCREEN_SLACK``, far above the floats' error, R_J is
    formed in mpmath numbers and compared with rmax.
    """
    if d <= 0:
        return None
    two_pi_d = 2 * math.pi * float(d)
    step = -2 * math.log2(two_pi_d)
    lr = math.log2(_EIGHT_ZETA3 / (2 * math.pi)) + step
    tlog = math.log2(rmax.man) + rmax.exp + numerics._EM_SCREEN_SLACK
    J = 1
    while True:
        if lr <= tlog:
            R = _EIGHT_ZETA3 * mp.factorial(2 * J - 1) / (2 * mp.pi * (2 * mp.pi * d) ** (2 * J))
            if R <= rmax:
                return J, R
        if 2 * J >= two_pi_d:
            return None
        lr += math.log2(2 * J * (2 * J + 1)) + step
        J += 1


def _tail_sum(mp, z, K: int, J: int):
    """sum_{j<=J} B_2j/(2j (2j-1)) (2a^(1-2j) - K^(1-2j) - c^(1-2j)), a =
    K - z, c = K - 2z, for an order J from :func:`_tail_order` at d = K - 2|z|.

    Q_j = (2j-2)! x^(1-2j) is carried as (u + iv) 2^e, the larger part of
    F + 1 bits (F = prec + ``FIXED_GUARD``): Q_1 = 1/x, one quotient
    (:func:`numerics._divide`) of the exact x 2^-ez, and Q_(j+1) = Q_j
    (2j-1) 2j Q_1^2, cut to F + 1 bits (:func:`numerics._trim`), so within
    4j 2^(1-F).
    Each c_j Q_j, c_j = B_2j/(2j)! within 2^-(F+1)
    (:func:`numerics._em_coefficients`), is floored onto the 2^-F grid of an
    exact sum, rounded once.  J has 2(J-1) < 2 pi d <= 2 pi |x| and d > 0.19
    (R_1 < 1 at J = 1), so the terms fall, each below 1/(12 d) < 1, and the
    sum is within J (3 + 8J/(3d)) 2^(1-F) < J 2^(6-F).
    """
    F = mp.prec + FIXED_GUARD
    mr, mi, ez = _dyadic(z)
    coef = _em_coefficients(mp.prec, J)
    x = K << -ez
    acc_r = acc_i = 0
    for w, xr, xi in ((2, x - mr, -mi), (-1, x, 0), (-1, x - 2 * mr, -2 * mi)):
        u, v, e = _divide(1, 0, xr, xi, F)
        e -= ez
        yr, yi, ye = _trim(u * u - v * v, 2 * u * v, 2 * e, F)
        for j in range(1, J + 1):
            cm, ce = coef[j - 1]
            acc_r += w * ((cm * u) >> (-F - ce - e))
            acc_i += w * ((cm * v) >> (-F - ce - e))
            f = (2 * j - 1) * 2 * j
            u, v, e = _trim((u * yr - v * yi) * f, (u * yi + v * yr) * f, e + ye, F)
    return _to_mp(mp, acc_r, acc_i, -F, bool(mi))


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
    formula in psi bounds that evaluates no Gamma function).  NoConvergence
    names ``max_terms`` before a level whose nodes would exceed it is summed.
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
