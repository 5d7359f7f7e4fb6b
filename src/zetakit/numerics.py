"""Arbitrary-precision kernels: Gamma, digamma, Bernoulli numbers, and a
numeric Riemann zeta via Euler-Maclaurin summation with a certified tail.

Gamma and digamma are delegated to mpmath (whose gamma uses precisely the
recurrence-shift plus Stirling-series scheme appropriate at high precision).
Everything else is implemented here because downstream identities consume
exact rationals or certified bounds: the Bernoulli numbers are exact
Fractions from the integer tangent numbers (Brent & Harvey 2011), and the
Euler-Maclaurin zeta sums k^-s multiplicatively, one power per prime, with
coefficients B_2j/(2j)! rounded once from their exact values.  Its length N
and order M are sized from the remainder target 2^-b = min(tol, 2^-prec):
N = b/5, the ratio at which measured cost is near its least, and M the least
order whose proved remainder bound meets the target.  The error
bounds of gamma, digamma and zeta also cover the rounding of an argument
that is not exact at working precision.

The hot loops of the Mellin quadrature and the discrete-circle sums use the
fixed-point kernels here: exp, cos/sin and log of Python ints at F
fractional bits, each an argument reduction around the basecase series that
mpmath's own ``mpf_exp``, ``mpf_cos_sin`` and ``mpf_log`` call, and integer
powers by binary powering.

Every kernel that returns a bounded value runs through :func:`core.certify`:
when its ``err`` misses ``target_tol`` it is recomputed with up to 1024 extra
bits, then refuses with NoConvergence.  Poles are found by :func:`core.snap`.

All functions are pure.  The only shared mutable state is the Bernoulli memo
table, which is guarded by a lock.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import isqrt
from typing import Optional, Tuple

from mpmath import libmp

from .core import (
    DomainError,
    HPComplex,
    HPReal,
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


def digamma(s, ctx: Optional[PrecisionContext] = None) -> HPReal:
    """psi_0(s) for real s, accurate to the context tolerance.

    When s is not exact at working precision, err also covers its rounding,
    which |s psi'(s)| amplifies."""
    def compute(c: PrecisionContext) -> HPReal:
        x = c.mpf(s)
        if _gamma_pole(c, x):
            raise PoleError(f"digamma pole at {x}")
        d = c.mp.digamma(x)
        err = (abs(d) + 1) * c.mp.mpf(2) ** (8 - c.mp.prec)
        if _rounded(s, x):
            # the rounding |x - s| <= |x| eps grows by psi'(x)
            err += abs(x) * _trigamma_bound(c.mp, x) * c.eps
        return HPReal(d, err)

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


def _bern_mpf(mp, k: int, div: int):
    """B_k / div rounded once to the precision of mp."""
    b = bernoulli(k)
    return mp.make_mpf(libmp.from_rational(b.numerator, b.denominator * div,
                                           mp.prec, libmp.round_nearest))


# --------------------------------------------------------------------------
# fixed-point kernels: Python ints x standing for x 2^-F
#
# The hot loops of the Mellin quadrature and the discrete-circle sums run on
# these, with F = prec + FIXED_GUARD, so that no mpf is normalised per term.
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
# scaled Bessel e^{-2t} I0(2t): no route calls it; the benchmark's tracer
# still wraps it by name (see quadrature)

def _i0e_raw(mp, t, switch: int) -> Tuple:
    """(value, error bound) of e^{-2t} I0(2t) at mpf t >= 0.

    Power series for t <= switch (all terms positive, certified geometric
    tail); descending asymptotic series above, with the remainder estimated
    as twice the first omitted term.
    """
    if t == 0:
        return mp.one, mp.zero
    eps = mp.mpf(2) ** (4 - mp.prec)
    if t <= switch:
        # I0(2t) = sum t^{2k} / (k!)^2
        t2 = t * t
        term = mp.one
        acc = mp.one
        k = 0
        while True:
            k += 1
            term = term * t2 / (k * k)
            acc += term
            ratio = t2 / ((k + 1) * (k + 1))
            if term < acc * eps and ratio < mp.mpf(1) / 2:
                tail = term * ratio / (1 - ratio)
                break
            if k > 100000:
                raise NoConvergence("e^(-2t) I0(2t) power series stalled")
        damp = mp.exp(-2 * t)
        v = damp * acc
        return v, damp * tail + abs(v) * eps * (k + 4)
    # asymptotic: e^{-2t} I0(2t) ~ (4 pi t)^{-1/2} sum_k b_k t^{-k},
    # b_0 = 1, b_k = b_{k-1} (2k-1)^2 / (16 k)
    acc = mp.one
    term = mp.one
    k = 0
    prev = None
    while True:
        k += 1
        term = term * (2 * k - 1) ** 2 / (mp.mpf(16) * k) / t
        if prev is not None and abs(term) > prev:
            break  # divergent zone reached; stop at the smallest term
        acc += term
        prev = abs(term)
        if abs(term) < acc * eps or k > 200:
            k += 1
            term = term * (2 * k - 1) ** 2 / (mp.mpf(16) * k) / t
            break
    front = 1 / mp.sqrt(4 * mp.pi * t)
    v = front * acc
    return v, front * 2 * abs(term) + abs(v) * eps * 8


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
#: least order M is then about 2N/3.  Timed at 256 and 1024 bits, real and
#: complex s (pure-Python mpmath), the kernel is within a few per cent of
#: its fastest for N/b from 0.2 to 0.3, and 10-30 % slower at 0.14.
_EM_N_PER_BIT = 1 / 5


def _em_coefficients(mp, s, N: int, target):
    """(coefficients, bound) for the least order M whose remainder bound at
    N is at most target (see :func:`_em_zeta_raw`), the coefficients being
    B_2j/(2j)! (s)_{2j-1} for j = 1..M; None when the bound turns upward
    above target first, and NoConvergence past M = 4 prec.

    The bound at M is the magnitude of the coefficient j = M + 1 times
    N^(-sigma-2M-1) |s+2M+1|/(sigma+2M+1), so the walk forms each
    coefficient the sum needs, plus one.
    """
    sigma = s.real
    coef = []
    poch, fact, last = s, 1, None
    npow = mp.power(N, -sigma - 1)  # N^(-sigma-2M-1)
    n2 = mp.mpf(N) ** 2
    for M in range(4 * mp.prec + 1):
        fact *= (2 * M + 1) * (2 * M + 2)
        a = _bern_mpf(mp, 2 * M + 2, fact) * poch
        bound = abs(a) * npow * abs(s + 2 * M + 1) / (sigma + 2 * M + 1)
        if bound <= target:
            return coef, bound
        if last is not None and bound >= last:
            return None
        coef.append(a)
        poch *= (s + 2 * M + 1) * (s + 2 * M + 2)
        npow /= n2
        last = bound
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
    N = b/5 (:data:`_EM_N_PER_BIT`), at least 12 and |Im s| + 8, and M is
    the least order whose bound at that N meets the target
    (:func:`_em_coefficients`); should the bound turn upward first, N grows
    by half.  At 1024 bits and real s that is N = 211 and M of about 145.

    The power sum is multiplicative (:func:`_power_sum`): a term k^-s is a
    product of at most log2 N prime powers, so it carries the roundings of
    at most log2 N powers and log2 N products, not of one mp.power.  Each
    coefficient B_2j/(2j)! is rounded once from its exact value.  Both fit
    inside the rounding budget below, 2^10 units in the last place per term
    (4 log2 N of them at most, for any N a list can hold), times a bound on
    every term and partial sum, over the N + M terms.
    """
    sigma = s.real
    target = min(tol, mp.ldexp(mp.one, -mp.prec))
    N = max(12, int(-mp.mag(target) * _EM_N_PER_BIT) + 1, int(abs(s.imag)) + 8)
    while True:
        if N > max_terms:
            raise NoConvergence("Euler-Maclaurin zeta: term budget exhausted")
        found = _em_coefficients(mp, s, N, target)
        if found is not None:
            break
        N = int(N * 1.5) + 1
    coef, bound = found
    acc = _power_sum(mp, s, N)
    acc += mp.power(N, 1 - s) / (s - 1) + mp.power(N, -s) / 2
    npow = mp.power(N, -s - 1)
    n2 = mp.mpf(N) ** 2
    for a in coef:
        acc += a * npow
        npow /= n2
    # the k^-s partial sums can exceed |acc| when phases cancel, so the
    # rounding mass is bounded by the term count times the largest magnitude
    round_err = (abs(acc) + mp.mpf(N) ** (1 - min(sigma, 0)) + 1) \
        * mp.mpf(2) ** (10 - mp.prec) * (N + len(coef))
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
