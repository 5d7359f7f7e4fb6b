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
zeta'(s) = zeta(s) (psi0(1-s) - psi0(1/2-s) - 2 log 2), with exact rational
paths at the integers.  The digamma bracket is one alternating series,
summed by the acceleration of Cohen, Rodriguez Villegas and Zagier in fixed
point with a proved bound (``numerics._digamma_bracket``), so zeta_Z(s)'s
Gamma factors are the only trusted ones.
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
    rendering,
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
    zero; both only when s is exactly one (:func:`_exact_at`), and an s
    merely near a positive integer raises PoleError, as Gamma(1-s) snaps to
    a pole.  Positive half-integers, and s near one, raise PoleError.  A
    negative half-integer s = -m - 1/2, given exactly, returns the rational
    8 16^m / ((m+1) C(2m+2, m+1)) over pi, rounded once.  An exact value's
    err is that of its rendering, so C(-2s, -s) refuses from s =
    -51/-148/-532 at 64/256/1024 bits, before it is built where a lower
    bound shows that (:func:`_refuse_wide`).
    ``use_exact_paths=False`` forces the generic Gamma route (useful for
    cross-checking the exact values against the analytic continuation).
    """
    ctx = get_context(ctx)
    z = ctx.mpc(s)
    q = snap(ctx, z)
    if use_exact_paths and _exact_at(s, z, q) and q <= 0:
        _refuse_wide(ctx, q, "closed-form")
    v, err, certified, exact, note = _closed(ctx, s, use_exact_paths)
    if exact is not None:
        return exact_result(ctx, exact, "closed-form", note)
    return complex_result(ctx, v, err, certified, "closed-form", note=note)


#: Bits of the widest exact value :func:`_closed` builds: the values at s =
#: -n and -n - 1/2 have about 2n bits (C(2^15, 2^14) takes 0.03 s); past it
#: the Gamma route serves.  Tests, workloads and CI reach 2n of about 2000.
_EXACT_BITS = 2 ** 15


def _exact_at(s, z, q: Optional[Fraction]) -> bool:
    """Whether s is exactly q, the integer or half-integer that z, s
    converted at working precision, snaps to (:func:`core.snap`): z equals q
    and s was not rounded (``numerics._rounded``).  Only such an s takes an
    exact path; one merely within snapping distance takes the generic route,
    or refuses by name near a pole, so no lattice value stands in for it."""
    return q is not None and z == q and not numerics._rounded(s, z)


def _refuse_wide(ctx: PrecisionContext, q: Fraction, method: str) -> None:
    """NoConvergence, decided in integers before the exact value at s = q <= 0
    is built, when its rendering alone misses the tolerance: a value of at
    least 2^lb that renders inexactly has an err of at least 2^lb (1 -
    2^-wb) eps >= 2^(lb - wb).  At q = -n - 1/2 the rational over pi, at
    least 2 4^n / sqrt(pi (n+1)), never renders exactly (the Gamma route
    near it has an err above 2^(6-wb) |value|).  At q = -n, lb
    bounds C(2n, n) >= 4^n / (2 sqrt n), and zeta_Z'(-n) = -2 C(2n, n)
    sum_{n<k<=2n} 1/k is larger; over a power of two, 2^popcount(n) for
    C(2n, n) and at most that for zeta_Z'(-n) (its sum has 2^-a, from the one
    k = 2^a), the odd part of either is at least 2^(lb - popcount(n)), so
    either renders inexactly once lb - popcount(n) >= wb."""
    n, wb = -int(q), ctx.working_bits
    lb = 2 * n - 1 - (n.bit_length() + 1) // 2
    if q.denominator == 2:
        lb = 2 * n - ((n + 1).bit_length() + 1) // 2
    elif lb - n.bit_count() < wb:
        return
    if lb - wb > ctx.mp.mag(ctx.tol):
        raise NoConvergence(f"{method}: rendering the exact value at {ctx.precision_bits} "
                            "bits alone exceeds the tolerance")


def _closed(ctx: PrecisionContext, s, use_exact_paths: bool = True):
    """(value, err, certified, exact, note) of :func:`zeta_z_closed` before
    its tolerance check, its Gamma factors unchecked too, for the
    composites that take zeta_Z(s) as a factor; an exact value's err is that
    of its rendering (:func:`core.rendering`); only an s on the lattice
    takes an exact path (:func:`_exact_at`).  Past :data:`_EXACT_BITS`
    the Gamma route, with no pole at the negative integers, serves."""
    mp = ctx.mp
    z = ctx.mpc(s)
    q = snap(ctx, z)
    if q is not None and q.denominator == 2 and q > 0:
        raise PoleError(f"zeta_Z has a pole at s = {q}")
    if use_exact_paths and _exact_at(s, z, q) and -2 * q <= _EXACT_BITS:
        if q.denominator == 1:
            exact = Fraction(comb(-2 * int(q), -int(q)) if q <= 0 else 0)
            return (*rendering(ctx, exact, exact), True, exact, None if q <= 0 else "simple-zero")
        # zeta_Z(-m-1/2) = 8 16^m m! (m+1)! / ((2m+2)! pi), the rational
        # and pi at prec + 10 bits, their quotient rounded once to prec:
        # 2^(1-prec) covers that and the two roundings at prec + 10
        m = -int(q + Fraction(1, 2))
        r = Fraction(8 * 16 ** m, (m + 1) * comb(2 * m + 2, m + 1))
        wp = mp.prec + 10
        v = mp.make_mpf(mpf_div(from_rational(r.numerator, r.denominator, wp, round_nearest),
                                mpf_pi(wp, round_nearest), mp.prec, round_nearest))
        return v, v * mp.ldexp(1, 1 - mp.prec), True, None, None
    # the Gamma arguments exactly: past 2^wb a rounding of them enters err
    g1 = numerics._gamma_raw(mp.fsub(0.5, z, exact=True), ctx)
    g2 = numerics._gamma_raw(mp.fsub(1, z, exact=True), ctx)
    v = mp.power(4, -z) / mp.sqrt(mp.pi) * g1.value / g2.value
    rel = g1.err / abs(g1.value) + g2.err / abs(g2.value) + mp.mpf(2) ** (6 - mp.prec)
    if numerics._rounded(s, z):
        rel += abs(z) * _log_deriv_bound(mp, z) * ctx.eps
    return v, abs(v) * rel, False, None, None


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
    with v0 = P_K e^(-G(K) - g(K)/2), so |v0| (e^R_J - 1) <= tol/4, by the
    one rule for remainder bounds of :mod:`zetakit.numerics`
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
    once, naming precision; for real s < 1/2 a lower bound on |zeta_Z(s)|
    decides that in floats before the partial product is formed
    (:func:`_rounding_refuses`).  Positive integers and half-integers (zeros and
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
        if _rounding_refuses(mp, z, K, tol):
            raise NoConvergence(_PRECISION_TOO_LOW)
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
                raise NoConvergence(_PRECISION_TOO_LOW)
        K *= 4
        if terms is not None:
            raise NoConvergence("requested truncation cannot certify the tolerance")


_PRECISION_TOO_LOW = "precision too low: the product's rounding alone exceeds the tolerance"


def _rounding_refuses(mp, z, K: int, tol) -> bool:
    """Whether the product's rounding term at K must exceed tol, decided in
    floats before any factor is formed; always False unless z is real and
    below 1/2.  There Wendel's inequality Gamma(y + 1/2) <= y^(1/2) Gamma(y)
    at y = 1/2 - z gives zeta_Z(z) >= 4^-z / sqrt(pi (1/2 - z)), and the
    rounding term is at least |v| (3K + 16) 2^(2-prec).  Where that decides,
    |v| is far above tol, so R is far below 1 and |v| >= zeta_Z(z)/2, a
    factor 2 that also covers the float log2s."""
    x = 0.5 if isinstance(z, mp.mpc) else float(z)
    if x >= 0.5:
        return False
    lb = -2 * x - math.log2(math.pi * (0.5 - x)) / 2
    return lb + math.log2(3 * K + 16) + 1 - mp.prec > math.log2(tol.man) + tol.exp


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
    8 zeta(3) (2J-1)! / ((2 pi)^(2J+1) d^(2J)) meets rmax, by the one rule
    for remainder bounds of :mod:`zetakit.numerics`, or None when the bound
    reaches its least value above rmax.  log2 R_J = log2(8 zeta(3) / 2 pi)
    + log2 (2J-1)! - 2J log2(2 pi d) in floats, and R_(J+1)/R_J = 2J (2J+1)
    / (2 pi d)^2, so the bound falls up to the least J with 2J (2J+1) >=
    (2 pi d)^2, the range of :func:`numerics._least_order`.
    """
    if d <= 0:
        return None
    x = 2 * math.pi * float(d)
    base, step = math.log2(_EIGHT_ZETA3 / (2 * math.pi)), 2 * math.log2(x)
    hi = max(1, math.ceil((math.sqrt(1 + 4 * x * x) - 1) / 4))
    found = numerics._least_order(lambda J: base + math.lgamma(2 * J) / math.log(2) - J * step,
                                  1, hi, math.log2(rmax.man) + rmax.exp - 2 * numerics._RAISE_BITS)
    if found is None:
        return None
    return found[0], numerics._bound_from_log2(mp, found[1])


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
    """Z(s) = pi 2^s zeta_Z(s/2), checked against the tolerance on Z(s)
    alone; pole errors propagate from zeta_Z."""
    ctx = get_context(ctx)
    mp = ctx.mp
    z = ctx.mpc(s)
    inner, inner_err, certified, _, note = _closed(ctx, z / 2)
    pref = mp.pi * mp.power(2, z)
    v = pref * inner
    err = abs(pref) * inner_err + abs(v) * mp.mpf(2) ** (6 - mp.prec)
    if numerics._rounded(s, z):
        # (log Z)'(s) = log 2 + (log zeta_Z)'(s/2) / 2
        err += abs(v * z) * (_log_deriv_bound(mp, z / 2) / 2 + 1) * ctx.eps
    return complex_result(ctx, v, err, certified, "closed-form", note=note)


def zeta_z_deriv(s, ctx: Optional[PrecisionContext] = None) -> EvalResult:
    """zeta_Z'(s) for real s < 1/2, plus the exact values at positive integers.

    Uses zeta_Z(s) B(s), B(s) = psi0(1-s) - psi0(1/2-s) - 2 log 2, except at
    an s that is exactly an integer (:func:`_exact_at`).  zeta_Z(s) comes
    from the closed form (:func:`_closed`); its Gamma factors are the only
    trusted factor, so the result is not ``certified``.  B evaluates no
    digamma (:func:`numerics._digamma_bracket`, which proves what follows):
    with t = 1 - 2s, B = 2/t - 2 beta(t + 1) - 2 log 2, beta(y) = sum_k
    (-1)^k/(y + k), and the terms 1/(t + 1 + k) are moments of a positive
    measure on [0, 1].  So the acceleration of Cohen, Rodriguez Villegas and
    Zagier sums beta(t + 1) as S/d, S = sum_{k<n} c_k/(t + 1 + k) with
    integer weights c_k and d = T_n(3), within beta(t + 1)/d <= 1/d: 2.54
    bits per term, n the least with d > 2^(prec+3).  Fixed-point lemma: as
    |c_k| <= d, terms floored at G = prec + ``FIXED_GUARD`` + bitlen(n) + 2
    bits, each within 2 units of 2^-G, put floor(S/d) within 2n + 1 units.
    err adds |zeta_Z| times the bracket's err: the truncation, below 2/d, and
    4 (2/t + 4) units of 2^-prec for its roundings, relative to its terms
    since B cancels to O(s) near s = 0.  At s = -n the bracket
    telescopes into the exact rational C(2n,n) sum_{k<=n} (1/k - 2/(2k-1))
    = -2 C(2n, n) sum_{n<k<=2n} 1/k, 0 at s = 0,
    whose err is that of its rendering, so it refuses from n = 28/95/330 at
    64/256/1024 bits, before it is built where a lower bound shows that
    (:func:`_refuse_wide`); positive integers route to the exact reciprocal
    formula.  Positive half-integers (and other s >= 1/2, such as an s
    merely near a positive integer) raise DomainError.
    Only zeta_Z'(s), not its factors, is checked against the tolerance.
    """
    ctx = get_context(ctx)
    mp = ctx.mp
    x = ctx.mpf(s)
    q = snap(ctx, x)
    if q is not None and q.denominator == 2 and q > 0:
        raise DomainError("derivative undefined at the poles s = n - 1/2 > 0")
    if _exact_at(s, x, q) and q.denominator == 1:
        if q >= 1:
            return exact_result(ctx, zeta_z_deriv_at_positive_integer(int(q)),
                                "exact-at-positive-integer")
        n = -int(q)  # s = -n <= 0, the sum empty at n = 0
        _refuse_wide(ctx, q, "digamma-formula")
        return exact_result(ctx, -2 * comb(2 * n, n) * sum(
            Fraction(1, k) for k in range(n + 1, 2 * n + 1)), "digamma-formula")
    if x >= mp.mpf(1) / 2:
        raise DomainError("derivative formula applies left of s = 1/2")
    zc, zc_err = _closed(ctx, x)[:2]
    bracket, bracket_err = numerics._digamma_bracket(mp, x)
    v = zc * bracket
    err = abs(bracket) * zc_err + abs(zc) * bracket_err + 16 * abs(v) * mp.mpf(2) ** (2 - mp.prec)
    if numerics._rounded(s, x):
        # the rounding |x - s| <= |x| eps grows by |zeta_Z''| = |zeta_Z|
        # |bracket^2 + psi'(1/2-x) - psi'(1-x)|; 2 bracket^2 for the second order
        curv = (2 * bracket ** 2 + numerics._trigamma_bound(mp, mp.mpf(1) / 2 - x)
                + numerics._trigamma_bound(mp, 1 - x))
        err += abs(zc * x) * curv * ctx.eps
    return complex_result(ctx, v, err, False, "digamma-formula")


def zeta_z_deriv_at_positive_integer(n: int) -> Fraction:
    """Exact zeta_Z'(n) = 1 / (n C(2n, n)) for integer n >= 1."""
    if n < 1:
        raise DomainError("positive integer required")
    return Fraction(1, n * comb(2 * n, n))
