"""Arbitrary-precision kernels: Gamma, digamma, Bernoulli numbers, and a
numeric Riemann zeta via Euler-Maclaurin summation with a certified tail.

Gamma and digamma are delegated to mpmath (whose gamma uses precisely the
recurrence-shift plus Stirling-series scheme appropriate at high precision),
except the digamma difference of zeta_Z', an accelerated alternating series
in fixed point with a proved bound (:func:`_digamma_bracket`).
Everything else is implemented here because downstream identities consume
exact rationals or certified bounds: the Bernoulli numbers are exact
Fractions from the integer tangent numbers (Brent & Harvey 2011), and the
Euler-Maclaurin zeta sums k^-s multiplicatively in fixed point, its length
and order sized from the bits the value must carry (:func:`_em_zeta_raw`).
The error bounds of gamma, digamma and zeta also cover the rounding of an
argument that is not exact at working precision.

The hot loops run in Python-integer fixed point at F = prec + FIXED_GUARD
fractional bits, so that no mpf is normalised per term.  The Mellin
quadrature, the discrete-circle sums and the zeta power sum use the kernels
here: exp, cos/sin and log of Python ints, each an argument reduction around
the basecase series that mpmath's own ``mpf_exp``, ``mpf_cos_sin`` and
``mpf_log`` call, and integer powers by binary powering.  Logarithms come
from one table of log p for the primes per precision step
(:func:`_prime_logs`): the zeta power sum reads it for its prime terms, and
``_log_fixed`` for the 9-bit prefix of its Taylor step, in place of
mpmath's logarithm cache, which is filled at twice the working bits.

Every kernel that returns a bounded value runs through :func:`core.certify`:
when its ``err`` misses ``target_tol`` it is recomputed with up to 1024 extra
bits, then refuses with NoConvergence; a composite takes Gamma as a factor
unchecked (:func:`_gamma_raw`).  Every entry point reads its argument once
(:func:`core.argument`), which finds the poles and the rounding of s.

One rule serves every proved Euler-Maclaurin remainder: the zeta kernel's
(:func:`_em_tail`), the product tail's (``zeta_z._tail_order``) and the
large-n route's (``zeta_zn._route_plan``).  A search reads log2 of the bound
in floats and takes the first order that meets its target, by a walk or by
:func:`_least_order`; :func:`_bound_from_log2` alone turns that float into
the certified mpf bound, raised by 2^-20 relatively.  The zeta kernel and
the product aim twice that raise below their target, so the certified
bound meets it.  No search evaluates a bound in mpmath numbers.  The rule
also certifies the large-n route's fixed-point and rounding factor, and the
same raise (:func:`_raised`) covers the roundings of the error terms that
the discrete-circle sums add in mpf.

All functions are pure.  The only shared mutable state is five tables that
:func:`_grown` grows under one lock: the Bernoulli memo, the Euler-Maclaurin
coefficients, the prime logs, their prefix memo and the Mellin nodes.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from math import factorial, isqrt
from typing import Optional, Tuple

from mpmath import libmp

from .core import (
    DomainError,
    HPComplex,
    NoConvergence,
    PoleError,
    PrecisionContext,
    argument,
    certify,
    get_context,
)

__all__ = [
    "gamma",
    "digamma",
    "bernoulli",
    "riemann_zeta_numeric",
]


# --------------------------------------------------------------------------
# Gamma and digamma

def _pole_distance(mp, z):
    """Distance from z to the nearest nonpositive integer, a pole of Gamma."""
    return abs(z - min(0, int(mp.nint(z.real))))


def _psi_bound(mp, z):
    """Bound on |psi(z)| <= 1/d + 3 log(|z| + 2) + 8, d the distance to the
    nearest pole, with 2/d for 1/d so that a rounding of z that is small
    against d is covered to second order."""
    return 2 / _pole_distance(mp, z) + 3 * mp.log(abs(z) + 2) + 8


def _trigamma_bound(mp, x):
    """Bound on |psi'(x)| <= 1/d^2 + pi^2 for real x, with 2/d^2 for 1/d^2
    as in :func:`_psi_bound`."""
    return 2 / _pole_distance(mp, x) ** 2 + 10


#: Guard bits on a Gamma or digamma value, far below a composite's rounding.
FACTOR_GUARD = 16


def _gamma_raw(s, c: PrecisionContext) -> HPComplex:
    """Gamma(s) at :data:`FACTOR_GUARD` bits above c's working precision,
    its err not checked against the tolerance; PoleError at (or within
    snapping distance of) the nonpositive integers.  When s is not exact at
    working precision, err also covers its rounding, which |s psi(s)|
    amplifies."""
    a = argument(c, s)
    z = a.z
    if a.q is not None and a.q <= 0 and a.q.denominator == 1:
        raise PoleError(f"gamma pole at {z}")
    wp = c.mp.prec + FACTOR_GUARD
    g = c.mp.gamma(z, prec=wp)
    err = abs(g) * c.mp.mpf(2) ** (8 - wp)
    if a.dz:
        # the rounding |z - s| <= dz grows by |psi(z)|
        err += abs(g) * _psi_bound(c.mp, z) * a.dz
    return HPComplex(g, err)


def _digamma_raw(s, c: PrecisionContext) -> HPComplex:
    """psi_0(s) for real s, as :func:`_gamma_raw` gives Gamma(s); the
    rounding of s grows by |psi'(s)|."""
    a = argument(c, s)
    x = c.mpf(a.z)
    if a.q is not None and a.q <= 0 and a.q.denominator == 1:
        raise PoleError(f"digamma pole at {x}")
    wp = c.mp.prec + FACTOR_GUARD
    d = c.mp.digamma(x, prec=wp)
    err = (abs(d) + 1) * c.mp.mpf(2) ** (8 - wp)
    if a.dz:
        # the rounding |x - s| <= dz grows by psi'(x)
        err += _trigamma_bound(c.mp, x) * a.dz
    return HPComplex(d, err)


def gamma(s, ctx: Optional[PrecisionContext] = None) -> HPComplex:
    """Gamma(s) for complex s within target_tol: :func:`_gamma_raw` under
    :func:`core.certify`, which raises NoConvergence past its last boost."""
    return certify(get_context(ctx), lambda c: _gamma_raw(s, c), "gamma")


def digamma(s, ctx: Optional[PrecisionContext] = None) -> HPComplex:
    """psi_0(s) for real s within target_tol, as :func:`gamma`."""
    return certify(get_context(ctx), lambda c: _digamma_raw(s, c), "digamma")


# --------------------------------------------------------------------------
# shared tables

_TABLE_LOCK = threading.Lock()


def _grown(tables: dict, key, need: int, build) -> tuple:
    """tables[key], a tuple of at least ``need`` entries shared across calls
    and threads.  A shorter one is built outside the lock by ``build(old,
    count)``, count = max(need, 3 len(old) // 2) at least, and published
    under the one lock only if longer than the table there by then.  Builds
    are deterministic, so no order of requests changes an entry."""
    table = tables.get(key, ())
    if len(table) >= need:
        return table
    new = build(table, max(need, 3 * len(table) // 2))
    with _TABLE_LOCK:
        table = tables.get(key, ())
        if len(new) > len(table):
            tables[key] = table = new
    return table


# --------------------------------------------------------------------------
# Bernoulli numbers (exact, memoized)

# 0 -> (B_0, B_2, B_4, ...)
_BERN_EVEN: dict = {}


def _tangent_numbers(n: int) -> list[int]:
    """[0, T_1, ..., T_n], T_k = tan^(2k-1)(0), in O(n^2) integer operations
    (Brent & Harvey, "Fast computation of Bernoulli, Tangent and Secant
    numbers", 2011, algorithm TangentNumbers)."""
    T = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, n + 1):
        t = T[k - 1]
        for j in range(k, n + 1):
            t = T[j] = (j - k) * t + (j - k + 2) * T[j]
    return T


def bernoulli(k: int) -> Fraction:
    """Exact Bernoulli number B_k (convention B_1 = -1/2).

    Even-index values come from the tangent numbers, B_2k = (-1)^(k-1) 2k
    T_k / (4^k (4^k - 1)) (Brent & Harvey 2011), memoised (:func:`_grown`);
    odd indices above 1 vanish.
    """
    if k < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if k == 1:
        return Fraction(-1, 2)
    if k % 2 == 1:
        return Fraction(0)

    def build(old, count):  # B_0 .. B_2(count-1) from one pass of T
        T = _tangent_numbers(count - 1)
        return (old or (Fraction(1),)) + tuple(
            Fraction((-1) ** (j - 1) * 2 * j * T[j], 4 ** j * (4 ** j - 1))
            for j in range(max(len(old), 1), count))

    return _grown(_BERN_EVEN, 0, k // 2 + 1, build)[k // 2]


# --------------------------------------------------------------------------
# fixed point: Gaussian integers with an exponent
#
# The hot loops run on triples (re, im, e) of Python ints standing for
# (re + i im) 2^e, so that no mpf is normalised per term, at F = prec +
# FIXED_GUARD: on the grid e = -F, or with F + 1 bits in the larger part.
# ``_dyadic`` reads an mpf or mpc in, ``_trim`` and ``_divide`` cut a product
# or a quotient to F + 1 bits, and ``_to_mp`` rounds the result back once.
# The Mellin node sum, the discrete-circle sums and the zeta power sum also
# call exp, cos/sin, log and integer powers of reals x 2^-F, below; the
# Euler-Maclaurin order walk (:func:`_em_tail`) and the product route
# (zeta_z) call none of them.
# Each of exp, cos/sin and log is within FIXED_ULPS units of 2^-F of the
# truth (relatively for exp, absolutely for the others), so FIXED_GUARD
# leaves the callers 2^(FIXED_GUARD - 10) such calls per term before their
# error reaches one unit of 2^-prec; ``_pow_fixed`` states its own bound.
# ``test_fixed_point_kernels`` measures them against mpmath at twice the
# bits, on both sides of mpmath's series cutoffs.

#: Fractional bits of the fixed-point loops beyond the working precision.
FIXED_GUARD = 20
#: Units of 2^-F that one kernel call may be off by.
FIXED_ULPS = 2 ** 10


def _dyadic(z, e: Optional[int] = None) -> Tuple[int, int, int]:
    """(re, im, e) with z = (re + i im) 2^e for an mpf or mpc z: each part
    floored onto the grid 2^e, or, when e is None, exactly, at the least
    exponent of the parts and at most 0."""
    parts = z._mpc_ if hasattr(z, "_mpc_") else (z._mpf_, libmp.fzero)
    if e is None:
        e = min([p[2] for p in parts if p[1]] + [0])
    return libmp.to_fixed(parts[0], -e), libmp.to_fixed(parts[1], -e), e


def _trim(re: int, im: int, e: int, F: int) -> Tuple[int, int, int]:
    """(re + i im) 2^e with both parts floored onto the grid that leaves the
    larger at most F + 1 bits: a relative change below 2^(1-F)."""
    t = max(re.bit_length(), im.bit_length()) - F - 1
    if t > 0:
        return re >> t, im >> t, e + t
    return re, im, e


def _divide(xr: int, xi: int, yr: int, yi: int, F: int) -> Tuple[int, int, int]:
    """(qr, qi, e) with (qr + i qi) 2^e = (xr + i xi) / (yr + i yi), each
    part floored and the larger at least 2^F: within 2^(1-F) relatively."""
    dd = yr * yr + yi * yi
    nr, ni = xr * yr + xi * yi, xi * yr - xr * yi
    t = max(0, F + 1 + dd.bit_length() - max(nr.bit_length(), ni.bit_length()))
    return (nr << t) // dd, (ni << t) // dd, -t


def _to_mp(mp, re: int, im: int, e: int, cplx: bool):
    """(re + i im) 2^e rounded to prec, as an mpc when cplx, else an mpf."""
    re, im = (libmp.from_man_exp(x, e, mp.prec, libmp.round_nearest) for x in (re, im))
    return mp.make_mpc((re, im)) if cplx else mp.make_mpf(re)


def _exp_fixed(x: int, F: int) -> int:
    """e^(x 2^-F) at F fractional bits.

    x = n ln 2 + t with 0 <= t < ln 2 and ln 2 taken at F + g bits, g four
    bits above those of |n|, so the reduction moves t by less than 2^-(F+3);
    then e^t is ``exp_basecase``, the series ``mpf_exp`` itself calls, and
    the shift by n is exact up to the last unit when n < 0.
    """
    g = (abs(x) >> F).bit_length() + 4
    n, t = divmod(x << g, libmp.ln2_fixed(F + g))
    v = libmp.libelefun.exp_basecase(t >> g, F)
    return v << n if n >= 0 else v >> -n


def _cos_sin_fixed(x: int, F: int) -> Tuple[int, int]:
    """(cos, sin)(x 2^-F) at F fractional bits.

    x = n pi/2 + t with 0 <= t < pi/2, pi/2 taken at F + g bits as in
    :func:`_exp_fixed`; then ``cos_sin_basecase``, which ``mpf_cos_sin``
    calls, and the quarter-turn symmetries of n mod 4.
    """
    g = (abs(x) >> F).bit_length() + 4
    n, t = divmod(x << g, libmp.pi_fixed(F + g - 1))
    c, s = libmp.libelefun.cos_sin_basecase(t >> g, F)
    m = n & 3
    if m == 1:
        return -s, c
    if m == 2:
        return -c, -s
    if m == 3:
        return s, -c
    return c, s


def _log_fixed(x: int, F: int) -> int:
    """log(x 2^-F) at F fractional bits, for x > 0.

    x = y 2^e with y 2^-F in [1/2, 1) (truncated when e > 0, a relative
    change below 2^(1-F)); e ln 2 takes ln 2 at four bits above those of
    |e|.  Above mpmath's ``LOG_TAYLOR_PREC`` log y is ``mpf_log`` at F + 10
    bits, as in ``mpf_log``.  Up to it log y takes the Taylor step of
    ``log_taylor_cached``: with a = n 2^(F-9) for the 9-bit prefix n = 256..511
    of y, log y = log(a 2^-F) + 2 atanh(v), v = (y - a)/(y + a) < 2^-9, and
    log(a 2^-F) = log n - 9 ln 2 comes from the prime factors of n in the
    prime-log table (:func:`_prefix_logs`), within 2 units of 2^-F.

    Error, in units of 2^-F: the truncation of x moves the logarithm by
    below 2.01, v, floored once, by below 2.01 through 2 atanh, and e ln 2
    by below 1.07.  The series 2 atanh v is summed as mpmath sums it: the
    powers v^(4i+1), each one floored product by v^4 < 2^-36 away from the
    last, so within 1.01, over 4i+1 and over 4i+3 into two sums, the second
    times v^2 at the end; I <= F/36 + 1 powers stay above 2^-F, and each
    adds below 1.21 to each sum, so twice the series is within 2.42 I + 6 <
    F/14.8 + 8.5, the tail included.  The total stays below F/14 + 16, so
    below FIXED_ULPS for every F up to ``LOG_TAYLOR_PREC`` = 2500.
    """
    e = x.bit_length() - F
    y = x >> e if e >= 0 else x << -e
    if F <= libmp.libelefun.LOG_TAYLOR_PREC:
        n = y >> (F - 9)  # the prefix, 256..511
        a = n << (F - 9)
        v = ((y - a) << F) // (y + a)
        v2 = (v * v) >> F
        v4 = (v2 * v2) >> F
        # v^(4i+1)/(4i+1) into s0 and, times v^2 below, v^(4i+3)/(4i+3) into s1
        s0, s1, t, k = v, v // 3, (v * v4) >> F, 5
        while t:
            s0 += t // k
            s1 += t // (k + 2)
            t = (t * v4) >> F
            k += 4
        G = _log_bits(F)
        m = 2 * (s0 + ((s1 * v2) >> F)) + (_prefix_logs(G)[n - 256] >> (G - F))
    else:
        m = libmp.to_fixed(libmp.mpf_log(libmp.from_man_exp(y, -F), F + 10), F)
    g = abs(e).bit_length() + 4
    return m + ((e * libmp.ln2_fixed(F + g)) >> g)


def _pow_fixed(x: int, q: int, F: int) -> int:
    """(x 2^-F)^q at F fractional bits for an integer q >= 0, by binary
    powering with each product truncated.

    While every power x^j, j <= q, stays below 2, the truncations and an
    error of d units in x add up to at most 3 q (d + 1) units."""
    r = 1 << F
    while q:
        if q & 1:
            r = (r * x) >> F
        q >>= 1
        if q:
            x = (x * x) >> F
    return r


def _digamma_bracket(mp, x) -> Tuple:
    """(B, err) for B = psi(1 - x) - psi(1/2 - x) - 2 log 2 at real x < 1/2,
    with no digamma evaluated.

    With t = 1 - 2x > 0, psi(w + 1/2) - psi(w) = 2 beta(2w) at w = 1/2 - x,
    beta(y) = sum_{k>=0} (-1)^k/(y + k), and beta(t) = 1/t - beta(t + 1), so
    B = 2/t - 2 beta(t + 1) - 2 log 2.  The terms a_k = 1/(t + 1 + k) are the
    moments integral_0^1 u^k u^t du of a positive measure, so the alternating
    series takes Algorithm 1 of Cohen, Rodriguez Villegas and Zagier
    ("Convergence acceleration of alternating series", Experimental Math. 9,
    2000): with P(u) = T_n(1 - 2u) = sum_j p_j u^j and d = P(-1) = T_n(3)
    (d_0 = 1, d_1 = 3, d_(m+1) = 6 d_m - d_(m-1)),

        S = sum_{k<n} (-1)^k c_k a_k,  c_k = sum_{j>k} |p_j|,

    and beta(t + 1) - S/d = (1/d) integral_0^1 P(u) u^t/(1 + u) du, so
    |beta(t + 1) - S/d| <= beta(t + 1)/d <= 1/d, as |P| <= 1 on [0, 1]:
    log2(3 + sqrt 8) = 2.54 bits per term, with no tail to bound.  The loop
    runs b through (-1)^(k+1) |p_k|, the integer coefficients of P, so each
    division in it is exact; the p_j alternate in sign, so d = sum_j |p_j|
    and 0 <= c_k <= d - 1.  n is the least with d > 2^(prec+3).

    Fixed point.  Each a_k is one floored quotient at G = prec +
    ``FIXED_GUARD`` + bitlen(n) + 2 fractional bits, with t 2^G read from
    the floor of x 2^G, within one unit: its denominator is at least (k +
    1) 2^G, so a_k is within 2 units of 2^-G.  As |c_k| <= d, the integer S
    is within 2 n d units, and floor(S/d) within 2n + 1 < 2^(bitlen(n) + 1)
    units of S/d: 2^(-prec-21).

    err.  In units u = 2^-prec: t, rounded at prec + 10 bits, and 2/t,
    rounded once, put 2/t within 1.01 u (2/t); 2 beta(t + 1) < 2, rounded
    once and with the fixed point, within 2.01 u; 2 log 2 within 2 u; the
    two subtractions within (2/t + 2) u and (2/t + 4) u.  That is below 4
    (2/t + 4) u, the rounding term of err, which the truncation, at most
    2/d < 2^(-prec-2), joins.
    """
    prec = mp.prec
    n, d_prev, d = 0, 3, 1  # d = T_n(3), T_(-1)(3) = 3
    while d.bit_length() <= prec + 3:
        d_prev, d = d, 6 * d - d_prev
        n += 1
    G = prec + FIXED_GUARD + n.bit_length() + 2
    one = 1 << G
    top = one << G
    den = 2 * (one - _dyadic(x, -G)[0]) - 1  # (t + 1) 2^G, within one
    b, c, acc = -1, -d, 0
    for k in range(n):
        c = b - c
        acc += c * (top // den)
        b = 2 * (k + n) * (k - n) * b // ((2 * k + 1) * (k + 1))
        den += one
    beta = _to_mp(mp, acc // d, 0, -G, False)
    t = mp.fsub(1, 2 * x, prec=prec + 10)
    err = mp.ldexp(1, 2 - d.bit_length()) + (2 / t + 4) * mp.ldexp(1, 2 - prec)
    return 2 / t - 2 * beta - 2 * mp.ln2, err


# --------------------------------------------------------------------------
# logarithms of primes, in fixed point
#
# One table per precision step G = _log_bits(F) holds log p for the primes
# p, shared by the zeta power sum (:func:`_power_sum`) and the Taylor step of
# :func:`_log_fixed` (:func:`_grown`).

# G -> logs, logs[p] = log p at G fractional bits for each prime p < len(logs)
_PRIME_LOGS: dict = {}
# G -> log(n/512) at G fractional bits, n = 256..511
_PREFIX_LOGS: dict = {}


def _log_bits(F: int) -> int:
    """G, the fractional bits of the prime-log table that serves F: F + 16
    rounded up to a multiple of 64, so that reading an entry at F bits
    floors away at least 16 of them."""
    return -(-(F + 16) // 64) * 64


def _smallest_factors(limit: int) -> list:
    """spf with spf[k] the smallest prime factor of k for 2 <= k < limit."""
    spf = list(range(limit))
    for p in range(2, isqrt(limit - 1) + 1):
        if spf[p] == p:
            for m in range(p * p, limit, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def _factor_log(logs, spf, k: int) -> int:
    """The sum of ``logs`` over the prime factors of k, with multiplicity."""
    acc = 0
    while k > 1:
        p = spf[k]
        acc += logs[p]
        k //= p
    return acc


def _prime_logs(G: int, limit: int) -> tuple:
    """logs with logs[p] = log p at G fractional bits for every prime p <
    limit at least (0 at the other indices), each within 2.25 log2 p units
    of 2^-G; read at F <= G - 16 bits and floored (:func:`_log_bits`), within
    2 units of 2^-F, far inside FIXED_ULPS.

    log 2 is ``ln2_fixed``, within 1.125 units.  An odd prime p takes

        log p = log(p-1) + 2 atanh(1/q),  q = 2p - 1,

    log(p-1) the exact sum of the entries of the prime factors of p - 1,
    all below p, and atanh(1/q) = sum_j 1/((2j+1) q^(2j+1)) an integer
    series at W = G + bitlen(G) + 4 bits: each q-power floor(2^W/q^(2j+1))
    is exact, each term floors once more, J <= W/4.6 + 1 terms stay above
    2^-W, and the rest sum below one unit, so twice the series is within
    0.6 W + 6 units of 2^-W, and below 1.125 units of 2^-G once floored to
    G bits.  So an entry's error e(p) is at most the sum of a e(r) over r^a
    || p - 1, plus 1.125: e(p) <= 1.125 T(p), T(2) = 1 and T(p) = 1 + sum a
    T(r), the node count of p's Pratt tree.  By induction T(p) <= 2 log2 p
    - 1 for odd p: p - 1 = 2^a m has Omega(p - 1) >= 2 prime factors for p
    >= 5, so T(p) <= 1 + a + sum b (2 log2 r - 1) <= 2 log2(p - 1) + 1 -
    Omega(p - 1), and T(3) = 2.  One table per step G (:func:`_grown`).
    """

    def build(old, limit):
        spf = _smallest_factors(limit)
        W = G + G.bit_length() + 4
        new = list(old) + [0] * (limit - len(old))
        for p in range(max(len(old), 2), limit):
            if spf[p] != p:
                continue
            if p == 2:
                new[2] = libmp.ln2_fixed(G)
                continue
            q = 2 * p - 1
            q2 = q * q
            t, a, j = (1 << W) // q, 0, 1
            while t:
                a += t // j
                t //= q2
                j += 2
            new[p] = _factor_log(new, spf, p - 1) + ((2 * a) >> (W - G))
        return tuple(new)

    return _grown(_PRIME_LOGS, G, limit, build)


def _prefix_logs(G: int) -> tuple:
    """log(n/512) = log n - 9 log 2 at G fractional bits for the 9-bit
    prefixes n = 256..511 of :func:`_log_fixed`, from the entries of n's
    prime factors (:func:`_prime_logs`), each within 1.125 (2 log2 n + 9) <
    31 units of 2^-G; so within 2 units of 2^-F once read at F <= G - 16
    bits.  Memoised per step G (:func:`_grown`)."""

    def build(old, count):
        logs = _prime_logs(G, 512)
        spf = _smallest_factors(512)
        return tuple(_factor_log(logs, spf, n) - 9 * logs[2] for n in range(256, 512))

    return _grown(_PREFIX_LOGS, G, 256, build)


# --------------------------------------------------------------------------
# Riemann zeta by Euler-Maclaurin

def _power_sum(mp, s, N: int):
    """sum_{k<N} k^-s in Python-integer fixed point at F = prec +
    FIXED_GUARD + b fractional bits, |s| < 2^b with b = bitlen(floor |s|):
    one exact integer sum, rounded once.

    k -> k^-s is completely multiplicative.  A prime term is
    ``_exp_fixed(-Re s log p)``, times ``_cos_sin_fixed(-Im s log p)`` for
    complex s, with log p from the prime-log table (:func:`_prime_logs`)
    and s floored onto the grid 2^-F; a composite k = p m, p its smallest
    prime factor, is one fixed-point product of the values at p and m, and
    only the values up to N/2 are kept, since m <= N/2.  No mpmath
    logarithm or power is taken.

    Error.  Let u = 2^-F and A_k = max(1, k^-Re s).  The entry of log p is
    within 2u and the parts of s within u each, so a prime term's arguments
    are within d = (2^(b+1) + log p + 2) u of the truth; ``_exp_fixed`` is
    within 1.01 FIXED_ULPS u A_p and the error d moves it by 1.01 d A_p at
    most; cos and sin are each within FIXED_ULPS u + d, and the products
    floor once per part.  So a prime term is within D u A_p, D = 2.43
    (FIXED_ULPS + d/u) + 1.5 <= 2^12 + 2^(b+3) for any N a list can hold,
    and D u <= 2^(-prec-7).  A composite term's relative error x_k, against
    A_k, obeys 1 + x_k <= (1 + x_p)(1 + x_m) + 2u, for A_k = A_p A_m when
    Re s < 0 and A_k = 1 otherwise, so x_k <= 1.02 Omega(k) D u: every term
    is within log2(N) 2^(-prec-6) A_k of k^-s, and the sum is exact.  With
    the final rounding, below 2^-prec |sum|, that fits inside the share of
    the N power terms in :func:`_em_zeta_raw`'s rounding budget, 2^(10-prec)
    per term times a bound on every term and partial sum, which A_k and the
    sum are below, with a factor of 2^16 / log2 N to spare.
    """
    b = int(abs(s)).bit_length()
    F = mp.prec + FIXED_GUARD + b
    G = _log_bits(F)
    logs = _prime_logs(G, N)
    spf = _smallest_factors(N)
    sr, si, _ = _dyadic(s, -F)
    cplx = isinstance(s, mp.mpc)
    keep = N // 2
    re, im = [0, 1 << F], [0, 0]
    acc_r, acc_i = 1 << F, 0  # the term k = 1
    for k in range(2, N):
        p = spf[k]
        if p == k:
            x = logs[k] >> (G - F)
            vr, vi = _exp_fixed((-sr * x) >> F, F), 0
            if cplx:
                c, t = _cos_sin_fixed((-si * x) >> F, F)
                vr, vi = (vr * c) >> F, (vr * t) >> F
        else:
            ar, ai, br, bi = re[p], im[p], re[k // p], im[k // p]
            vr, vi = (ar * br - ai * bi) >> F, (ar * bi + ai * br) >> F
        if k <= keep:
            re.append(vr)
            im.append(vi)
        acc_r += vr
        acc_i += vi
    return _to_mp(mp, acc_r, acc_i, -F, cplx)


#: N / b for the Euler-Maclaurin zeta, 2^-b its remainder target.  The
#: least order M is then about 1.3 N.  With the order walk in fixed point
#: the power sum dominates: timed at 64, 256 and 1024 bits, real and
#: complex s (pure-Python mpmath, best of 9-15), the kernel at 256 and 1024
#: bits is 5-20 % faster at N/b = 1/7 than at 1/5, and 1/8 is within noise
#: of 1/7; at 64 bits 1/5 to 1/8 are all within noise.
_EM_N_PER_BIT = 1 / 7


# working bits -> (B_2/2!, B_4/4!, ...), each as (m, e) for m 2^e
_EM_TABLE: dict = {}


def _em_coefficients(wb: int, count: int) -> tuple:
    """B_2j/(2j)! for j = 1..count at least, each as (m, e) with value
    m 2^e, |m| >= 2^F and F = wb + FIXED_GUARD: rounded to nearest once from
    the exact Bernoulli number, so within 2^-(F+1) of it, relatively.

    One table per working precision (:func:`_grown`), shared by the zeta
    kernel and the product route's tail.  A build asks the Bernoulli memo
    for its last entry first, so that the memo grows in one pass.
    """

    def build(old, count):
        F = wb + FIXED_GUARD
        bernoulli(2 * count)
        fact = factorial(2 * len(old))
        new = list(old)
        for j in range(len(old) + 1, count + 1):
            fact *= (2 * j - 1) * 2 * j
            b = bernoulli(2 * j)
            num, den = b.numerator, b.denominator * fact
            e = abs(num).bit_length() - den.bit_length() - F - 1
            new.append((((num << (1 - e)) // den + 1) >> 1, e))
        return tuple(new)

    return _grown(_EM_TABLE, wb, count, build)


def _log2_abs(re: int, im: int) -> float:
    """log2 |re + i im| from the top 64 bits of the larger part; -inf at 0."""
    k = max(max(abs(re), abs(im)).bit_length() - 64, 0)
    h = math.hypot(re >> k, im >> k)
    return math.log2(h) + k if h else -math.inf


#: log2(1 + 2^-20): the raise of :func:`_bound_from_log2`, in bits.
_RAISE_BITS = math.log2(1 + 2.0 ** -20)


def _log2_sum(logs) -> float:
    """log2 of the sum of 2^x over a sequence of float log2s, one finite."""
    top = max(logs)
    return top + math.log2(sum(2.0 ** (x - top) for x in logs))


def _bound_from_log2(mp, lb: float):
    """2^lb raised by 2^-20 relatively, as an mpf (0 at lb = -inf): the
    certified bound whose log2 lb a search read in floats.  lb sums at most a
    dozen float terms, each within two ulps and below 2^24, as at every order
    accepted under 2^14 bits with 2|s| log2 n < 2^24 (:func:`_em_tail` gives
    its N^-sigma term, which grows with sigma alone, a margin of its own), or
    is the :func:`_log2_sum` of at most 408 such sums, which adds below
    2^-40 bits (``zeta_zn._route`` gives its lgamma terms a margin).  So lb
    is within 2^-23 bits of the bound formed exactly from the same inputs,
    and the raise, over 2^-20 bits, covers that and fixed-point inputs within
    2^-40 relatively.  The seeded sweeps of tests/test_remainders.py read the
    floats within 2^-39 bits."""
    if lb == -math.inf:
        return mp.zero
    e = math.floor(lb)
    return _raised(mp, mp.ldexp(mp.mpf(2.0 ** (lb - e)), e))


def _raised(mp, x):
    """x raised by 2^-20 relatively, the raise of :func:`_bound_from_log2`:
    an error bound summed from positive mpf terms, rounded to nearest at
    prec >= 64 bits, is at least (1 - 2^-prec)^r times the same sum formed
    exactly after r roundings, and the raise, itself rounded once, covers
    any r up to 2^40."""
    return x * (1 + mp.ldexp(1, -20))


def _least_order(bound, lo: int, hi: int, tlog: float):
    """(M, bound(M)) for the least M in [lo, hi] whose float log2 bound is
    at most tlog, by bisection, for a bound that falls with M on [lo, hi];
    None when it misses tlog at hi, which rules out every M in range."""
    if lo > hi:
        return None
    top = bound(hi)
    if top > tlog:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        r = bound(mid)
        if r <= tlog:
            hi, top = mid, r
        else:
            lo = mid + 1
    return hi, top


def _em_tail(mp, s, N: int, target):
    """(tail, bound, M) for the first order M whose remainder bound at N
    meets target (see :func:`_em_zeta_raw`) by the rule of the module
    docstring, bound its certified value, with

        tail = sum_{j=1}^{M} B_2j/(2j)! (s)_{2j-1} N^(1-2j),

    so that N^-s tail is the Euler-Maclaurin correction; None when the bound
    turns upward above target first, and NoConvergence past M = 4 prec.

    Python-integer fixed point at F = prec + FIXED_GUARD fractional bits.
    P_j = (s)_{2j-1} N^(1-2j) is carried as (u + iv) 2^e, the larger part
    at least 2^F: P_1 = s/N is rounded once, and
    P_{j+1} = P_j Q_j / N^2 with Q_j = (s+2j-1)(s+2j) = s^2 + (4j-1) s +
    (2j-1) 2j formed from s and s^2 truncated to F bits.  Each term
    c_j P_j, c_j = B_2j/(2j)! from :func:`_em_coefficients`, is one integer
    product shifted onto the 2^-F grid of an exact integer sum.

    The bound at order m is |c_{m+1} P_{m+1}| N^-sigma |s+2m+1|/(sigma+2m+1);
    its log2 is read in floats from the top bits of the integers, with log2
    N^-sigma taken up by 2^-50 of itself for the rounding of sigma.

    Error budget.  Re(s + k) >= 1/2 for k >= 1 (sigma >= -1/2), so the
    truncations of s and s^2 (one unit of 2^-F per part, none for a part of
    s of size 2^-20 or more) leave Q_j within 6 units of 2^-F of the truth,
    relatively; the cut (:func:`_trim`) and floor division by N^2 that bring
    u + iv back to F + 1 bits add at most 2 more, and so does the conversion
    of P_1.  So P_j is within 2^(2-prec) + 8j 2^-F relatively, the first
    term the rounding of s/N.  A term adds the 2^-(F+1) of c_j and one unit
    of 2^-F per part from its shift, so the j-th term of N^-s tail is within
    |T_j| (2^(2-prec) + (8j + 1) 2^-F) + 2 N^-sigma 2^-F of T_j.  Both |T_j|
    and N^-sigma lie below the bound on every term and partial sum that
    :func:`_em_zeta_raw` budgets: the bounds fall up to M, so |T_j| <= |T_1|
    |s+1|/(sigma+1) <= |s| |s+1| N^(-sigma-1)/6, below N^(1-min(sigma, 0))
    for |Im s| < N.  With F = prec + 20 the error is then below 2^(3-prec)
    times that bound while 8j + 3 <= 2^22, that is for any M below 2^19, and
    the budget allows 2^(10-prec): F needs no widening.
    """
    prec = mp.prec
    F = prec + FIXED_GUARD
    sigma = s.real
    cplx = isinstance(s, mp.mpc)
    sr, si, _ = _dyadic(s, -F)
    s2r, s2i = (sr * sr - si * si) >> F, (sr * si) >> (F - 1)
    # P_1 = s/N, read exactly, shifted up by F and floored to F + 1 bits
    u, v, e = _dyadic(s / N)
    u, v, e = _trim(u << F, v << F, e - F, F)
    n2 = N * N
    nb = n2.bit_length()
    nlog = -float(sigma) * math.log2(N)
    nlog += abs(nlog) * 2.0 ** -50
    tlog = math.log2(target.man) + target.exp - 2 * _RAISE_BITS
    # 4/3 of the default length N covers the least order of a real s there
    coef = _em_coefficients(prec, int(-tlog * _EM_N_PER_BIT * 4 / 3) + 4)
    acc_r = acc_i = 0
    last = None
    for m in range(4 * prec + 1):
        if m >= len(coef):
            coef = _em_coefficients(prec, m + 1)
        cm, ce = coef[m]  # B_(2m+2)/(2m+2)! = cm 2^ce
        k = 2 * m + 1
        est = math.log2(abs(cm)) + ce + _log2_abs(u, v) + e + nlog
        if cplx:
            est += _log2_abs(sr + (k << F), si) - math.log2(sr + (k << F))
        if est <= tlog:
            return _to_mp(mp, acc_r, acc_i, -F, cplx), _bound_from_log2(mp, est), m
        if last is not None and est >= last:
            return None
        last = est
        sh = -F - ce - e
        if sh >= 0:
            acc_r += (cm * u) >> sh
            acc_i += (cm * v) >> sh
        else:
            acc_r += (cm * u) << -sh
            acc_i += (cm * v) << -sh
        qr = s2r + (2 * k + 1) * sr + (k * (k + 1) << F)
        qi = s2i + (2 * k + 1) * si
        xr, xi, e = _trim(u * qr - v * qi, u * qi + v * qr, e - F, F + nb)
        u, v = xr // n2, xi // n2
    raise NoConvergence("Euler-Maclaurin zeta: term budget exhausted")


def _em_zeta_raw(mp, s, tol, max_terms: int) -> Tuple:
    """zeta(s) for Re(s) >= -1/2, s != 1, with a certified remainder bound.

    zeta(s) = sum_{k<N} k^-s + N^{1-s}/(s-1) + N^-s/2
              + sum_{j=1}^{M} B_{2j}/(2j)! (s)_{2j-1} N^{-s-2j+1} + R,
    |R| <= |B_{2M+2}/(2M+2)! (s)_{2M+1} N^{-s-2M-1}| (s+2M+1)/(sigma+2M+1).

    N and M are sized from the bits the value must carry.  The remainder
    target is 2^-b = min(tol, 2^-prec): past tol, since callers such as the
    functional-equation check compare values at working precision, but no
    further, since the rounding term below is larger than 2^-prec anyway.
    N = b/7 (:data:`_EM_N_PER_BIT`), at least 12 and |Im s| + 8, and M is
    the first order whose bound at that N meets the target, by the one rule
    for remainder bounds of the module docstring (:func:`_em_tail`); should
    the bound turn upward first, N grows by half.
    At 1024 bits and real s that is N = 151 and M of about 190.

    The correction sum runs with the order walk (:func:`_em_tail`) and is
    scaled by the one power N^-s that the two middle terms share.  The power
    sum is one fixed-point sum over the prime-log table (:func:`_power_sum`),
    each term within log2(N) 2^(-prec-6) max(1, k^-sigma) of k^-s.  Both
    fit inside the rounding budget below, 2^10 units in the last place per
    term, times a bound on every term and partial sum, over the N + M terms.
    """
    sigma = s.real
    target = min(tol, mp.ldexp(mp.one, -mp.prec))
    N = max(12, int(-mp.mag(target) * _EM_N_PER_BIT) + 1, int(abs(s.imag)) + 8)
    while True:
        if N > max_terms:
            raise NoConvergence("Euler-Maclaurin zeta: term budget exhausted")
        found = _em_tail(mp, s, N, target)
        if found is not None:
            break
        N = int(N * 1.5) + 1
    tail, bound, M = found
    acc = _power_sum(mp, s, N) + mp.power(N, -s) * (N / (s - 1) + mp.mpf(0.5) + tail)
    # the k^-s partial sums can exceed |acc| when phases cancel, so the
    # rounding mass is bounded by the term count times the largest magnitude
    round_err = (abs(acc) + mp.mpf(N) ** (1 - min(sigma, 0)) + 1) \
        * mp.mpf(2) ** (10 - mp.prec) * (N + M)
    return acc, bound + round_err


def riemann_zeta_numeric(s, ctx: Optional[PrecisionContext] = None) -> HPComplex:
    """zeta(s) near the real axis, s != 1, within the context tolerance.

    Euler-Maclaurin for Re(s) >= -1/2 with an adaptively chosen order;
    arguments left of that are reflected through the functional equation
    zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s), which makes the
    trivial zeros at the negative even integers exact.  When s is not exact
    at working precision, err also covers its rounding, which |s zeta'(s)|
    amplifies.
    """
    ctx = get_context(ctx)
    mp = ctx.mp
    arg = argument(ctx, s)
    if arg.q == 1:
        raise PoleError("zeta pole at s = 1")
    if arg.exact is not None and arg.exact < 0 and arg.exact % 2 == 0:
        return HPComplex(mp.mpc(0), mp.zero)  # trivial zero, exactly

    def compute(c: PrecisionContext) -> HPComplex:
        cm = c.mp
        b = arg if c is ctx else argument(c, s)
        z, dz = b.z, b.dz
        if z.imag == 0:
            z = z.real  # a real argument runs the kernel in real arithmetic
        if z.real >= cm.mpf(-1) / 2:
            v, err = _em_zeta_raw(cm, z, c.tol / 2, c.max_terms)
            if dz:
                # zeta(s) = 1/(s-1) + E(s) with |E'(s)| <= (|s|+1)^2 for
                # Re s > -1/2 - 1/10 (Euler-Maclaurin at N = 1 to order 2);
                # 2 and |z|+2 cover the segment from s to z
                err += (2 / abs(z - 1) ** 2 + (abs(z) + 2) ** 2) * dz
            return HPComplex(cm.mpc(v), err)
        w, werr = _em_zeta_raw(cm, 1 - z, c.tol / 4, c.max_terms)
        g = _gamma_raw(1 - z, c)
        a = cm.power(2, z) * cm.power(cm.pi, z - 1) * g.value
        pref = a * cm.sinpi(z / 2)
        v = pref * w
        err = abs(pref) * werr + abs(v) * (g.err / abs(g.value) + cm.mpf(2) ** (12 - cm.prec))
        if dz:
            # zeta'(s) = a zeta(1-s) ((log 2 pi - psi(1-s) - zeta'/zeta(1-s))
            # sin(pi s/2) + pi/2 cos(pi s/2)), |zeta'/zeta(1-s)| <= 1.51 at
            # Re(1-s) >= 3/2 and |sin|, |cos| <= cosh(pi Im s/2); 2 covers
            # the segment from s to z
            err += 2 * abs(a * w) * cm.cosh(cm.pi * z.imag / 2) \
                * (_psi_bound(cm, 1 - z) + 5) * dz
        return HPComplex(cm.mpc(v), err)

    return certify(ctx, compute, "riemann_zeta_numeric")
