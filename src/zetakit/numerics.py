"""Arbitrary-precision kernels: Gamma, digamma, Bernoulli numbers, and a
numeric Riemann zeta via Euler-Maclaurin summation with a certified tail.

Gamma and digamma are delegated to mpmath (whose gamma uses precisely the
recurrence-shift plus Stirling-series scheme appropriate at high precision).
Everything else is implemented here because downstream identities consume
exact rationals or certified bounds: the Bernoulli numbers are exact
Fractions from the integer tangent numbers (Brent & Harvey 2011), and the
Euler-Maclaurin zeta sums k^-s multiplicatively, one power per prime.  Its
length N and order M are sized from the remainder target 2^-b = min(tol,
2^-prec): N = b/7, the ratio at which measured cost is near its least, and
M the least order whose proved remainder bound meets the target.  The error
bounds of gamma, digamma and zeta also cover the rounding of an argument
that is not exact at working precision.

The hot loops run in Python-integer fixed point at F = prec + FIXED_GUARD
fractional bits, so that no mpf is normalised per term.  The Mellin
quadrature and the discrete-circle sums use the kernels here: exp, cos/sin
and log of Python ints, each an argument reduction around the basecase
series that mpmath's own ``mpf_exp``, ``mpf_cos_sin`` and ``mpf_log`` call,
and integer powers by binary powering.  The Euler-Maclaurin zeta runs its
order walk and correction sum as one integer recurrence, on coefficients
B_2j/(2j)! rounded once per working precision; its power sum stays on
``mp.power``, one per prime.

Every kernel that returns a bounded value runs through :func:`core.certify`:
when its ``err`` misses ``target_tol`` it is recomputed with up to 1024 extra
bits, then refuses with NoConvergence.  Poles are found by :func:`core.snap`.

All functions are pure.  The only shared mutable state is the Bernoulli memo
and the Euler-Maclaurin coefficient table, each guarded by a lock.
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
    certify,
    get_context,
    mpf_to_fraction,
    snap,
)

__all__ = [
    "gamma",
    "digamma",
    "bernoulli",
    "riemann_zeta_numeric",
]


# --------------------------------------------------------------------------
# Gamma and digamma

def _gamma_pole(ctx: PrecisionContext, z) -> bool:
    """Whether z snaps to a nonpositive integer, a pole of Gamma."""
    q = snap(ctx, z)
    return q is not None and q.denominator == 1 and q.numerator <= 0


def _rounded(s, z) -> bool:
    """Whether z, s converted at working precision, differs from s.  Ints,
    floats and mpf/mpc values convert exactly; a Fraction does when it is
    dyadic and short enough."""
    if isinstance(s, Fraction):
        return z.imag != 0 or mpf_to_fraction(z.real) != s
    return z != s


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


def gamma(s, ctx: Optional[PrecisionContext] = None) -> HPComplex:
    """Gamma(s) for complex s with an absolute error bound <= target_tol.

    Raises PoleError at (or within snapping distance of) the nonpositive
    integers, and NoConvergence if the tolerance cannot be met even after
    boosting the working precision.  When s is not exact at working
    precision, err also covers its rounding, which |s psi(s)| amplifies.
    """
    def compute(c: PrecisionContext) -> HPComplex:
        z = c.mpc(s)
        if _gamma_pole(c, z):
            raise PoleError(f"gamma pole at {z}")
        g = c.mp.gamma(z)
        err = abs(g) * c.mp.mpf(2) ** (8 - c.mp.prec)
        if _rounded(s, z):
            # the rounding |z - s| <= |z| eps grows by |psi(z)|
            err += abs(g * z) * _psi_bound(c.mp, z) * c.eps
        return HPComplex(g, err)

    return certify(get_context(ctx), compute, "gamma")


def digamma(s, ctx: Optional[PrecisionContext] = None) -> HPComplex:
    """psi_0(s) for real s, accurate to the context tolerance.

    When s is not exact at working precision, err also covers its rounding,
    which |s psi'(s)| amplifies."""
    def compute(c: PrecisionContext) -> HPComplex:
        x = c.mpf(s)
        if _gamma_pole(c, x):
            raise PoleError(f"digamma pole at {x}")
        d = c.mp.digamma(x)
        err = (abs(d) + 1) * c.mp.mpf(2) ** (8 - c.mp.prec)
        if _rounded(s, x):
            # the rounding |x - s| <= |x| eps grows by psi'(x)
            err += abs(x) * _trigamma_bound(c.mp, x) * c.eps
        return HPComplex(d, err)

    return certify(get_context(ctx), compute, "digamma")


# --------------------------------------------------------------------------
# Bernoulli numbers (exact, memoized)

_BERN_LOCK = threading.Lock()
_BERN_EVEN: list[Fraction] = [Fraction(1)]  # B_0, B_2, B_4, ...


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
    T_k / (4^k (4^k - 1)) (Brent & Harvey 2011); odd indices above 1 vanish.
    The memo grows in one pass to at least B_k, and at least by half its
    length, so a run of rising requests costs O(n^2) for the largest n.
    """
    if k < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if k == 1:
        return Fraction(-1, 2)
    if k % 2 == 1:
        return Fraction(0)
    half = k // 2
    with _BERN_LOCK:
        have = len(_BERN_EVEN)
        if have <= half:
            n = max(half, 3 * have // 2)
            T = _tangent_numbers(n)
            _BERN_EVEN.extend(Fraction((-1) ** (j - 1) * 2 * j * T[j], 4 ** j * (4 ** j - 1))
                              for j in range(have, n + 1))
        return _BERN_EVEN[half]


# --------------------------------------------------------------------------
# fixed point: Gaussian integers with an exponent
#
# The hot loops run on triples (re, im, e) of Python ints standing for
# (re + i im) 2^e, so that no mpf is normalised per term, at F = prec +
# FIXED_GUARD: on the grid e = -F, or with F + 1 bits in the larger part.
# ``_dyadic`` reads an mpf or mpc in, ``_trim`` and ``_divide`` cut a product
# or a quotient to F + 1 bits, and ``_to_mp`` rounds the result back once.
# The Mellin node sum and the discrete-circle sums also call exp, cos/sin,
# log and integer powers of reals x 2^-F, below; the Euler-Maclaurin order
# walk (:func:`_em_tail`) and the product route (zeta_z) call none of them.
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
    change below 2^(1-F)); log y is ``log_taylor_cached`` up to mpmath's
    ``LOG_TAYLOR_PREC`` and ``mpf_log`` at F + 10 bits above it, as in
    ``mpf_log``; e ln 2 takes ln 2 at four bits above those of |e|.
    """
    e = x.bit_length() - F
    y = x >> e if e >= 0 else x << -e
    if F <= libmp.libelefun.LOG_TAYLOR_PREC:
        m = libmp.libelefun.log_taylor_cached(y, F)
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


# --------------------------------------------------------------------------
# Riemann zeta by Euler-Maclaurin

def _power_sum(mp, s, N: int):
    """sum_{k<N} k^-s with one mp.power per prime.

    k -> k^-s is completely multiplicative, so a composite k = p m, p its
    smallest prime factor, is the product of the values at p and at m; only
    the values up to N/2 are kept, since m <= N/2.
    """
    spf = list(range(N))  # smallest prime factor
    for p in range(2, isqrt(N - 1) + 1):
        if spf[p] == p:
            for m in range(p * p, N, p):
                if spf[m] == m:
                    spf[m] = p
    keep = N // 2
    pw = [mp.zero, mp.one]
    acc = mp.one
    for k in range(2, N):
        p = spf[k]
        v = mp.power(k, -s) if p == k else pw[p] * pw[k // p]
        if k <= keep:
            pw.append(v)
        acc += v
    return acc


#: N / b for the Euler-Maclaurin zeta, 2^-b its remainder target.  The
#: least order M is then about 1.3 N.  With the order walk in fixed point
#: the power sum dominates: timed at 64, 256 and 1024 bits, real and
#: complex s (pure-Python mpmath, best of 9-15), the kernel at 256 and 1024
#: bits is 5-20 % faster at N/b = 1/7 than at 1/5, and 1/8 is within noise
#: of 1/7; at 64 bits 1/5 to 1/8 are all within noise.
_EM_N_PER_BIT = 1 / 7


_EM_LOCK = threading.Lock()
# working bits -> (B_2/2!, B_4/4!, ...), each as (m, e) for m 2^e
_EM_TABLE: dict = {}


def _em_coefficients(wb: int, count: int) -> tuple:
    """B_2j/(2j)! for j = 1..count at least, each as (m, e) with value
    m 2^e, |m| >= 2^F and F = wb + FIXED_GUARD: rounded to nearest once from
    the exact Bernoulli number, so within 2^-(F+1) of it, relatively.

    One table per working precision, shared by the zeta kernel and the
    product route's tail, across calls and threads, and guarded by a lock.
    It grows on demand, by at least half its length, and asks the Bernoulli
    memo for its last entry first, so that the memo grows in one pass.
    """
    with _EM_LOCK:
        table = _EM_TABLE.get(wb, ())
    have = len(table)
    if have >= count:
        return table
    count = max(count, 3 * have // 2)
    F = wb + FIXED_GUARD
    bernoulli(2 * count)
    fact = factorial(2 * have)
    new = []
    for j in range(have + 1, count + 1):
        fact *= (2 * j - 1) * 2 * j
        b = bernoulli(2 * j)
        num, den = b.numerator, b.denominator * fact
        e = abs(num).bit_length() - den.bit_length() - F - 1
        new.append((((num << (1 - e)) // den + 1) >> 1, e))
    with _EM_LOCK:
        if len(_EM_TABLE.get(wb, ())) < count:
            _EM_TABLE[wb] = table + tuple(new)
        return _EM_TABLE[wb]


def _log2_abs(re: int, im: int) -> float:
    """log2 |re + i im| from the top 64 bits of the larger part; -inf at 0."""
    k = max(max(abs(re), abs(im)).bit_length() - 64, 0)
    h = math.hypot(re >> k, im >> k)
    return math.log2(h) + k if h else -math.inf


#: Bits by which the screen of :func:`_em_tail` may pass an order whose
#: float estimate lies above the target: far above the estimate's own
#: error (at most 2^-40 bits, measured against the bound in mpmath numbers
#: over 18,582 orders at 64 to 3000 bits, real and complex s), and far
#: below the fall of the bound per order.
_EM_SCREEN_SLACK = 2.0 ** -20


def _em_tail(mp, s, N: int, target):
    """(tail, bound, M) for the least order M whose remainder bound at N is
    at most target (see :func:`_em_zeta_raw`), with

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

    The order is screened, then proved.  The bound at order m is |c_{m+1}
    P_{m+1}| N^-sigma |s+2m+1|/(sigma+2m+1); its log2 is read in floats from
    the top bits of the integers, within about 2^-40 bits, and where that
    reads at most log2 target + :data:`_EM_SCREEN_SLACK` the bound itself
    is formed in mpmath numbers and compared with target.  The first m that
    passes is M; every m below it read above log2 target + 2^-20, so its
    bound misses the target, and M is the least order, exactly.

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
    npow = mp.power(N, -sigma)
    nlog = -float(sigma) * math.log2(N)
    tlog = math.log2(target.man) + target.exp + _EM_SCREEN_SLACK
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
            bound = (mp.ldexp(abs(cm), ce) * mp.ldexp(mp.hypot(u, v), e)
                     * npow * abs(s + k) / (sigma + k))
            if bound <= target:
                return _to_mp(mp, acc_r, acc_i, -F, cplx), bound, m
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
    the least order whose bound at that N meets the target
    (:func:`_em_tail`); should the bound turn upward first, N grows by half.
    At 1024 bits and real s that is N = 151 and M of about 190.

    The order walk and the correction sum are one integer recurrence in
    fixed point (:func:`_em_tail`), on coefficients B_2j/(2j)! rounded once
    per working precision (:func:`_em_coefficients`); the correction is then
    scaled by the one power N^-s that the two middle terms share.  The power
    sum is multiplicative (:func:`_power_sum`): a term k^-s is a product of
    at most log2 N prime powers, so it carries the roundings of at most
    log2 N powers and log2 N products, not of one mp.power.  Each fits inside
    the rounding budget below, 2^10 units in the last place per term (4
    log2 N of them at most, for any N a list can hold), times a bound on
    every term and partial sum, over the N + M terms.
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
    z = ctx.mpc(s)
    if abs(z - 1) <= ctx.pole_radius:
        raise PoleError("zeta pole at s = 1")
    if z.real < mp.mpf(-1) / 2 and z.imag == 0 and mp.isint(z.real / 2) \
            and not _rounded(s, z):
        return HPComplex(mp.mpc(0), mp.zero)  # trivial zero, exactly

    def compute(c: PrecisionContext) -> HPComplex:
        cm = c.mp
        z = c.mpc(s)
        rounded = _rounded(s, z)
        if z.imag == 0:
            z = z.real  # a real argument runs the kernel in real arithmetic
        if z.real >= cm.mpf(-1) / 2:
            v, err = _em_zeta_raw(cm, z, c.tol / 2, c.max_terms)
            if rounded:
                # zeta(s) = 1/(s-1) + E(s) with |E'(s)| <= (|s|+1)^2 for
                # Re s > -1/2 - 1/10 (Euler-Maclaurin at N = 1 to order 2);
                # 2 and |z|+2 cover the segment from s to z
                err += abs(z) * c.eps * (2 / abs(z - 1) ** 2 + (abs(z) + 2) ** 2)
            return HPComplex(cm.mpc(v), err)
        w, werr = _em_zeta_raw(cm, 1 - z, c.tol / 4, c.max_terms)
        a = cm.power(2, z) * cm.power(cm.pi, z - 1) * cm.gamma(1 - z)
        pref = a * cm.sinpi(z / 2)
        v = pref * w
        err = abs(pref) * werr + abs(v) * cm.mpf(2) ** (12 - cm.prec)
        if rounded:
            # zeta'(s) = a zeta(1-s) ((log 2 pi - psi(1-s) - zeta'/zeta(1-s))
            # sin(pi s/2) + pi/2 cos(pi s/2)), |zeta'/zeta(1-s)| <= 1.51 at
            # Re(1-s) >= 3/2 and |sin|, |cos| <= cosh(pi Im s/2); 2 covers
            # the segment from s to z
            err += 2 * abs(z) * c.eps * abs(a * w) * cm.cosh(cm.pi * z.imag / 2) \
                * (_psi_bound(cm, 1 - z) + 5)
        return HPComplex(cm.mpc(v), err)

    return certify(ctx, compute, "riemann_zeta_numeric")
