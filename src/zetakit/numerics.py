"""Arbitrary-precision kernels: Gamma, digamma, Bernoulli numbers, and a
numeric Riemann zeta via Euler-Maclaurin summation with a certified tail.

Gamma and digamma are delegated to mpmath (whose gamma uses precisely the
recurrence-shift plus Stirling-series scheme appropriate at high precision);
their error bounds also cover the rounding of an argument that is not exact
at working precision.  Everything else is implemented here because
downstream identities consume exact rationals or certified bounds.

Every kernel that returns a bounded value runs through :func:`core.certify`:
when its ``err`` misses ``target_tol`` it is recomputed with up to 1024 extra
bits, then refuses with NoConvergence.  Poles are found by :func:`core.snap`.

All functions are pure.  The only shared mutable state is the Bernoulli memo
table, which is guarded by a lock.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb
from typing import Optional, Tuple

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
            # the rounding |z - s| <= |z| eps grows by |psi(z)| <= 1/d
            # + 3 log(|z| + 2) + 8, d the distance to the nearest pole;
            # 2/d leaves room for the second-order term
            d = _pole_distance(c.mp, z)
            err += abs(g * z) * (2 / d + 3 * c.mp.log(abs(z) + 2) + 8) * c.eps
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
            # the rounding |x - s| <= |x| eps grows by psi'(x) <= 1/r^2 + pi^2,
            # r the distance to the nearest pole; doubled for the second order
            r = _pole_distance(c.mp, x)
            err += abs(x) * (2 / r ** 2 + 10) * c.eps
        return HPReal(d, err)

    return certify(get_context(ctx), compute, "digamma")


# --------------------------------------------------------------------------
# Bernoulli numbers (exact, memoized)

_BERN_LOCK = threading.Lock()
_BERN_EVEN: list[Fraction] = [Fraction(1)]  # B_0, B_2, B_4, ...


def bernoulli(k: int) -> Fraction:
    """Exact Bernoulli number B_k (convention B_1 = -1/2).

    Even-index values come from the defining recurrence
    sum_{j=0}^{k} C(k+1, j) B_j = 0; odd indices above 1 vanish.
    """
    if k < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if k == 1:
        return Fraction(-1, 2)
    if k % 2 == 1:
        return Fraction(0)
    half = k // 2
    with _BERN_LOCK:
        while len(_BERN_EVEN) <= half:
            m = len(_BERN_EVEN)
            n = 2 * m
            acc = Fraction(n + 1, -2)  # the B_1 term C(n+1,1) * (-1/2)
            for j in range(m):
                acc += comb(n + 1, 2 * j) * _BERN_EVEN[j]
            _BERN_EVEN.append(-acc / (n + 1))
        return _BERN_EVEN[half]


def _bern_mpf(mp, k: int):
    b = bernoulli(k)
    return mp.mpf(b.numerator) / b.denominator


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

def _em_zeta_raw(mp, s, tol, max_terms: int) -> Tuple:
    """zeta(s) for Re(s) >= -1/2, s != 1, with a certified remainder bound.

    zeta(s) = sum_{k<N} k^-s + N^{1-s}/(s-1) + N^-s/2
              + sum_{j=1}^{M} B_{2j}/(2j)! (s)_{2j-1} N^{-s-2j+1} + R,
    |R| <= |B_{2M+2}/(2M+2)! (s)_{2M+1} N^{-s-2M-1}| (s+2M+1)/(sigma+2M+1).
    """
    sigma = s.real
    N = max(12, int(0.34 * mp.prec), int(abs(s.imag)) + 8)
    M = max(8, int(0.34 * mp.prec))
    while True:
        poch = mp.mpc(1)
        for i in range(2 * M + 1):
            poch *= s + i
        bound = (
            abs(_bern_mpf(mp, 2 * M + 2)) / mp.factorial(2 * M + 2)
            * abs(poch) * mp.power(N, -sigma - 2 * M - 1)
            * abs(s + 2 * M + 1) / (sigma + 2 * M + 1)
        )
        if bound <= tol:
            break
        if N > max_terms or M > 4 * mp.prec:
            raise NoConvergence("Euler-Maclaurin zeta: term budget exhausted")
        N = int(N * 1.5) + 1
        M += 8
    acc = mp.mpc(0)
    for k in range(1, N):
        acc += mp.power(k, -s)
    acc += mp.power(N, 1 - s) / (s - 1) + mp.power(N, -s) / 2
    poch = s
    npow = mp.power(N, -s - 1)
    n2 = mp.mpf(N) ** 2
    for j in range(1, M + 1):
        acc += _bern_mpf(mp, 2 * j) / mp.factorial(2 * j) * poch * npow
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        npow /= n2
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
    trivial zeros at the negative even integers exact.
    """
    ctx = get_context(ctx)
    mp = ctx.mp
    z = ctx.mpc(s)
    if abs(z - 1) <= ctx.pole_radius:
        raise PoleError("zeta pole at s = 1")
    if z.real < mp.mpf(-1) / 2 and z.imag == 0 and mp.isint(z.real / 2):
        return HPComplex(mp.mpc(0), mp.zero)  # trivial zero, exactly

    def compute(c: PrecisionContext) -> HPComplex:
        cm = c.mp
        z = c.mpc(s)
        if z.real >= cm.mpf(-1) / 2:
            return HPComplex(*_em_zeta_raw(cm, z, c.tol / 2, c.max_terms))
        w, werr = _em_zeta_raw(cm, 1 - z, c.tol / 4, c.max_terms)
        pref = cm.power(2, z) * cm.power(cm.pi, z - 1) * cm.sinpi(z / 2) * cm.gamma(1 - z)
        v = pref * w
        return HPComplex(v, abs(pref) * werr + abs(v) * cm.mpf(2) ** (12 - cm.prec))

    return certify(ctx, compute, "riemann_zeta_numeric")
