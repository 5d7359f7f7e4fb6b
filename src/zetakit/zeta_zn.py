"""The spectral zeta function of discrete circles (cycle graphs on n vertices):

    zeta_n(s) = 4^(-s) sum_{k=1}^{n-1} sin(pi k / n)^(-2s).

The direct sum, as sum_k (2 sin(pi k/n))^(-2s), takes one of two paths,
chosen in one place, :func:`_circle_sum`.  Both public sums go through it:
:func:`zeta_zn_direct`, and :func:`sine_power_sum`, the sum of sin(pi
k/n)^x that extraction reads, which is 2^-x times the folded sum at -2s = x.

* The plain sum, :func:`_power_sum`, adds every term (folded at k <= n/2 by
  default): work n/2, the only path at the poles s in 1/2 + N of zeta_Z,
  for ``fold=False`` and for s within snapping distance of Z/2 but off it.
  At s = 0 neither path runs: both public sums return n - 1.
* The large-n route, :func:`_route`, for every other s above a switch:
  it adds the first k0 terms and takes the rest from the paper's link
  between the two zetas, integral_0^n (2 sin(pi x/n))^(-2s) dx = n
  zeta_Z(s).  Euler-Maclaurin from k0 to n - k0 gives

      zeta_n(s) = 2 sum_{k<k0} g(k) + g(k0) + n zeta_Z(s)
                  - (2n/pi) integral_0^(pi k0/n) (2 sin t)^(-2s) dt
                  - 2 sum_{j<=M} B_2j/(2j)! g^(2j-1)(k0) + R_M,

  g(x) = (2 sin(pi x/n))^(-2s): zeta_Z(s) from the closed form (exact at
  the integers and half-integers, where it needs no Gamma), held to the
  tolerance only as part of the sum, the cut-off integral as a series in
  sin(pi k0/n), the derivatives by Miller's recurrence on the Taylor series
  of a cotangent, and a proved bound on R_M.  The singular end x = 0 is cut
  off rather than treated (Navot 1961 gives the Euler-Maclaurin expansion
  with it), so the work is independent of n.

The switch is a cost formula (:func:`_route_plan`): the route is taken
when its cheapest plan (k0, M, J), its remainder held to tol/4 by the one
rule for remainder bounds of :mod:`zetakit.numerics`, costs less than the
plain sum's n/2 terms; at 256 bits/1e-30 that is n of about 210-250 for |s|
<= 6, 550-630 where -2s is an integer or a half-integer.  Only a path whose
work fits ``max_terms`` is taken; when none does, NoConvergence names it
before any sine is rotated.

The plain sum and the route's head are one streaming kernel in
Python-integer fixed point, :func:`_power_sum`: sines by a rotation with a
proved drift (:func:`_rotated_sines`), each term relative to one block
scale known before the loop, summed exactly as integers and scaled once.

Negative integer values are exact alternating binomial sums, odd half-integer
values collapse to short cotangent sums (evaluated with mpmath's own sines,
independent of the rotation), and positive integer values are polynomials in
n, assembled exactly from Bernoulli numbers by
:func:`zetakit.asymptotics.csc_power_polynomial`.  The ``verify`` suite
checks them against an independent oracle that reconstructs them from direct
sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, lcm
from operator import mul
from typing import Optional

from mpmath.libmp import (
    from_man_exp,
    from_rational,
    ln2_fixed,
    mpf_cos_sin_pi,
    mpf_div,
    mpf_exp,
    mpf_mul,
    mpf_pi,
    mpf_shift,
    mpf_sin_pi,
    round_nearest,
    to_fixed,
    to_int,
)

from .core import (
    DomainError,
    EvalResult,
    HPComplex,
    NoConvergence,
    PrecisionContext,
    certify,
    complex_result,
    exact_result,
    get_context,
    rendering,
    snap,
)
from .numerics import (
    FIXED_GUARD,
    _bound_from_log2,
    _cos_sin_fixed,
    _dyadic,
    _em_coefficients,
    _exp_fixed,
    _least_order,
    _log2_abs,
    _log2_sum,
    _log_fixed,
    _pow_fixed,
    _raised,
    _rounded,
    _to_mp,
)
from .zeta_z import _EXACT_BITS, _closed

__all__ = [
    "RationalPolynomial",
    "POLY_CAP",
    "zeta_zn_direct",
    "zeta_zn_negative_int",
    "sine_odd_power_sum",
    "sine_power_sum",
    "zeta_zn_closed_poly",
]

#: Largest exponent served by closed polynomials; ``zetakit eval zeta-zn``
#: takes the direct sum beyond it.
POLY_CAP = 8


def _vertex_count(n: int) -> int:
    """n, the vertex count of a discrete circle, checked: an int n >= 2."""
    if not isinstance(n, int) or n < 2:
        raise DomainError("a discrete circle needs at least 2 vertices")
    return n


@dataclass(frozen=True)
class RationalPolynomial:
    """Polynomial in n with exact rational coefficients (ascending powers)."""

    coeffs: tuple

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise DomainError("empty polynomial")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise DomainError("trailing coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, n) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def __str__(self) -> str:
        den = lcm(*(c.denominator for c in self.coeffs))
        nums = [int(c * den) for c in self.coeffs]
        parts = []
        for p in range(len(nums) - 1, -1, -1):
            a = nums[p]
            if a == 0:
                continue
            mag = abs(a)
            if p == 0:
                body = f"{mag}"
            else:
                var = "n" if p == 1 else f"n^{p}"
                body = var if mag == 1 else f"{mag}*{var}"
            sign = "-" if a < 0 else "+"
            parts.append((sign, body))
        if not parts:
            return "0"
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return f"({text})/{den}" if den != 1 else text


#: Guard bits of the sine rotation on top of prec + 2 bitlen(n); with them
#: every rotated sine is within 2^(-prec-3) of the truth, relatively (see
#: :func:`_rotated_sines`).
_ROTATION_GUARD = 4


def _rotated_sines(n: int, count: int, wp: int):
    """sin(pi k/n) for k = 1..count as wp-bit fixed-point integers, streamed.

    Let u = 2^(-wp) and r = 1/n rounded at wp + 8 bits, so that
    pi k |r - 1/n| < 0.03 u for every k <= n.  One ``mpf_cos_sin_pi`` of r
    gives (c0, s0) = (cos, sin)(pi r) to within 1 + 2^(-6) units each,
    truncated to wp-bit fixed point.  Then z_k = c_k + i s_k steps by
    z_(k+1) = z_k (c0 + i s0), each part truncated to wp bits again.  With
    e_k = z_k - exp(i pi k r),

        |e_(k+1)| <= |e_k| |c0 + i s0| + |c0 + i s0 - exp(i pi r)| + sqrt(2) u
                  <= |e_k| (1 + 2u) + 2.86 u,

    so |e_k| <= 2.9 k u while k u is tiny, and s_k is within 3 k u of
    sin(pi k/n).  By Jordan's inequality sin(pi k/n) >= 2 min(k, n-k)/n, so
    the relative error of s_k is at most 1.5 n k / min(k, n-k) u: 1.5 n u on
    the folded range and 1.5 n^2 u on the unfolded one.  Both are below
    1.5 * 2^(-prec-4) < 2^(-prec-3) when wp = prec + 2 bitlen(n) + 4, since
    n^2 < 4^bitlen(n).
    """
    cos0, sin0 = mpf_cos_sin_pi(from_rational(1, n, wp + 8), wp + 8)
    c0, s0 = to_fixed(cos0, wp), to_fixed(sin0, wp)
    c, s = c0, s0
    for _ in range(count):
        yield s
        c, s = (c * c0 - s * s0) >> wp, (s * c0 + c * s0) >> wp


def _quarter(p) -> bool:
    """Whether a real mpf p is an integer or a half-integer, the exponents
    that :func:`_power_sum` raises without a logarithm: a raw mpf (sign,
    odd mantissa, exponent, bits) is an integer when the mantissa is 0 or
    the exponent >= 0, a half-integer at -1."""
    a = p._mpf_
    return not a[1] or a[2] >= -1


def _power_sum(mp, n: int, p, fold: bool, dp=0, count=None):
    """(sum, err) of w_k x_k^p, x_k = 2 sin(pi k/n), over k = 1..n-1 (w_k =
    1), or folded over k = 1..n//2 with w_k = 2 for k != n/2, since sin(pi
    k/n) = sin(pi (n-k)/n); a ``count`` stops either range at k = count.
    ``p`` is an mpf or mpc; ``dp`` bounds the rounding it carries from the
    caller's input.

    The sines come from :func:`_rotated_sines` at wp = prec + 2 bitlen(n) +
    4 bits, each within e_s = 2^(-prec-3) of the truth, relatively, on the
    folded and the unfolded range alike.  The terms are summed in
    Python-integer fixed point under one block scale S = x_m^Re(p), the
    largest term modulus, known before the loop: m = 1 for Re p < 0 and m =
    min(count, n//2) otherwise.  Each term is t_k = (x_k /
    x_m)^p <= 1 + 2^-prec at F = prec + 20 fractional bits or more, so no
    term underflows against the largest, whatever the size of S; the sum is
    one exact integer sum, times S once at the end.  Powers go by the
    exponent's kind, all at H = max(F, wp) + bitlen(|p|) + 1 bits:

    * integer q: the ratio r_k = s_k/s_m, or s_m/s_k for q < 0 (one integer
      division of the two sines), raised to |q| by ``numerics._pow_fixed``;
    * half-integer: the same ratio at 2H bits, whose ``math.isqrt`` is
      r_k^(1/2) at H bits, times r_k^|q| for the integer part q;
    * otherwise ``numerics._log_fixed`` of the sine at H bits, l_k, and
      ``numerics._exp_fixed`` of p (l_k - l_m) at F bits; for complex p the
      phase Im(p) log x_k goes to ``numerics._cos_sin_fixed``.

    H - F >= bitlen(|p|) + 1 makes each error of d units of 2^-H in a
    logarithm or ratio move a term by at most d units of 2^-F, and
    ``_pow_fixed`` keeps within 3 |q| units of 2^-H; with at most four
    kernel calls of at most 2^10 units each, every t_k is within 2^13 units
    of 2^-F = 2^(-prec-20), relative to S, of (s_k / s_m)^p.  S itself is
    ``mpf_exp`` of Re(p) log x_m, with log x_m the same fixed-point value,
    so s_m cancels and S t_k is s_k^p apart from those 2^13 units and a few
    ulps of S.

    With M the sum of the term moduli, err is M ((|p| + 1) e_s + (count +
    16) 2^(1-prec) + 2 dp L), L = bitlen(n) + 1 >= |log x_k|: the sine's
    relative error raised to the power p, the fixed-point error of each
    term (2^13 units of 2^-F, far below its 2^(1-prec) M since S <= M) and
    of S and the final product (within the 16 units), and the caller's
    rounding of p, which moves a term by |dp log x_k| (doubled for the
    second order); formed in mpf, it takes one relative raise
    (``numerics._raised``) for its own roundings.

    The first holds while |p| < 2^(prec/2).  A sine's relative error |d| <=
    e_s moves its term by |(1 + d)^p - 1| <= e^x - 1 <= x + x^2, x = |p| e_s
    (1 + 2 e_s) >= |p log(1 + d)|, which is at most (|p| + 1) e_s when 2 |p|
    e_s + |p|^2 e_s (1 + 2 e_s)^2 <= 1, as it is for |p|^2 e_s < 1/8.  Past
    that the err is infinite, returned before any sine is rotated, so that
    :func:`core.certify` adds bits or refuses.
    """
    prec = mp.prec
    pbits = int(abs(p)).bit_length()
    if 2 * pbits > prec:
        return mp.zero, mp.inf
    wp = prec + 2 * n.bit_length() + _ROTATION_GUARD
    F = prec + FIXED_GUARD
    H = max(F, wp) + pbits + 1
    if count is None:
        count = n // 2 if fold else n - 1
    rel = (((abs(p) + 1) / 16 + (count + 16)) * mp.mpf(2) ** (1 - prec)
           + 2 * dp * (n.bit_length() + 1))  # err / M, as above
    a, b = p._mpc_ if isinstance(p, mp.mpc) else (p._mpf_, None)
    neg = a[0]  # the sign bit of Re p

    def log_sine(s):  # log(s 2^-wp) at H bits
        return _log_fixed(s << (H - wp), H)

    # the block: the sine s_m of the largest term, m = 1 or min(count, n//2)
    m = 1 if neg else min(count, n // 2)
    top = to_fixed(mpf_sin_pi(from_rational(m, n, wp + 8), wp + 8), wp)
    log_top = log_sine(top)
    ln2 = ln2_fixed(H)
    scale = mpf_exp(mpf_mul(a, from_man_exp(log_top + ln2, -H)), prec, round_nearest)
    pa = to_fixed(a, H)

    def scaled(acc, bits):
        return mpf_mul(from_man_exp(acc, -bits), scale, prec, round_nearest)

    def modulus(log_s):  # e^(Re(p) (log s_k - log s_m)) at F bits
        return _exp_fixed((pa * (log_s - log_top)) >> (2 * H - F), F)

    weights = (2 if fold and 2 * k != n else 1 for k in range(1, count + 1))
    terms = zip(weights, _rotated_sines(n, count, wp))
    if b is not None:
        pb = to_fixed(b, H)
        re = im = mass = 0
        for w, s in terms:
            log_s = log_sine(s)
            r = modulus(log_s)
            c, si = _cos_sin_fixed((pb * (log_s + ln2)) >> (2 * H - F), F)
            re += w * ((r * c) >> F)
            im += w * ((r * si) >> F)
            mass += w * r
        total = mp.make_mpc((scaled(re, F), scaled(im, F)))
        return total, _raised(mp, mp.make_mpf(scaled(mass, F)) * rel)
    if _quarter(p):
        q, half = divmod(abs(to_int(mpf_shift(a, 1))), 2)

        def power(s):
            num, den = (top, s) if neg else (s, top)
            if not half:
                return _pow_fixed((num << H) // den, q, H)
            r2 = (num << 2 * H) // den
            return (_pow_fixed(r2 >> H, q, H) * isqrt(r2)) >> H
        bits = H
    else:
        def power(s):
            return modulus(log_sine(s))
        bits = F
    total = mp.make_mpf(scaled(sum(w * power(s) for w, s in terms), bits))
    return total, _raised(mp, total * rel)  # every term is positive


# --------------------------------------------------------------------------
# the large-n route: a cut-off Euler-Maclaurin sum anchored on n zeta_Z(s)

_LN2 = math.log(2)

#: Cut-off points k0 that :func:`_route_plan` weighs.
_K0_CHOICES = (16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024)
#: (m, t, c) of the route's cost, in units of one log/exp term of the plain
#: sum of the same kind of exponent, real or complex: m per product of the
#: derivative block, t per term of the series, c for the rest (zeta_Z, the
#: plan, the scalar work).  Measured with mpmath's pure-Python backend: one
#: plain term takes 10/22 us (real/complex) at 64 bits, 27/33 us at 256 and
#: 183/315 us at 1024; against it the block took 0.012-0.027 per product,
#: the series 0.02-0.04 per term and the rest 25-110, the most at 64 bits,
#: where Python overhead outweighs the arithmetic.  At the switch that
#: these constants place, the two paths timed within noise of each other:
#: s = 0.37 at n = 158, 210 and 722 for 64, 256 and 1024 bits took 1.3/1.4,
#: 3.5/3.1 and 39/33 ms (plain/route), s = 0.3 + 0.7i at n = 160, 210 and
#: 736 took 2.1/2.3, 5.8/5.4 and 105/60 ms.  The model leaves out
#: mpmath's one-time set-up of Gamma at a new precision, which the first
#: zeta_Z of a process pays: about 0.2 s at 1024 bits, 4.4 s at 3072.
_ROUTE_COST = (0.02, 0.03, 60.0)
#: (bits, w): one plain term of an integer or half-integer exponent (a
#: ratio, binary powering, ``math.isqrt``) in units of one log/exp term,
#: the unit of :data:`_ROUTE_COST`, from ``bits`` of precision up to the
#: next entry (:func:`_quarter_price`).  Measured per folded term: 1.6-2.5
#: us (integer) and 2.5-3.6 us (half-integer) against 8 us at 64 bits,
#: 2.8-3.8 and 4.4-7.3 against 17-19 us at 256, 16-27 and 23-31 against
#: 130 us at 1024, where the log/exp term grows fastest.  Each w places
#: the switch where the two paths cost the same: over s = -6, -3, -1, 1,
#: 2, 4, -9/2, -5/2 and -1/2, the plain sum at the switch against the
#: route's zeta_Z and :func:`_route` (its plan, which the plain sum pays
#: too, left out), warm, medians of 5-9 runs, the median plain/route ratio
#: read 1.12 (0.83-1.49) at n = 450-498 for 64 bits/1e-12, 1.05
#: (0.78-1.22) at n = 552-630 for 256 bits/1e-30, and 1.06 (0.93-1.21) at
#: n = 2108-2400 for 1024 bits/1e-120, 22-36 ms a path.  At 1024 bits w =
#: 0.3 read 0.75 (0.62-0.82) at n = 1604-1820, w = 0.25 0.91 and w = 0.22
#: 1.00.
_QUARTER_TERM = ((64, 0.3), (256, 0.3), (1024, 0.2))
#: Largest Euler-Maclaurin order the route takes; its rounding lemma
#: (:func:`_route`) asks for R = 2M - 1 < 1000.
_ROUTE_MAX_ORDER = 400


def _sinc_log(t: float) -> float:
    """-log(sin t / t) for 0 < t < pi, a series in t^2 with positive
    coefficients."""
    return -math.log(math.sin(t) / t)


def _remainder_bound(n: int, k0: int, pabs: float, rep: float):
    """M -> log2 of the bound on the Euler-Maclaurin remainder R_M of
    :func:`_route` at the cut-off k0, in floats; inf when 2M <= max(Re p,
    0) + 1.  What does not depend on M (th0, the three B(t), log2 k0 and
    Re p log2(2 sin th0)) is worked out once, before the function returns.

    With a = max(Re p, 0), lam = 2M / (2M + |p| + 1), d = a + 1 - 2M and
    H(t) = -log(1 - lam) + B((1 + lam) t) - B(t), B = :func:`_sinc_log`,
    the bound is

        4 zeta(2M) (2M)! / (2 pi lam)^(2M) |g(k0)| k0^(1-2M) / (2M - a - 1)
          * (e^(|p| H(2 th0)) + 2^d e^(|p| H(4 th0))
             + 2^(2d) e^(|p| H(pi/2)) / (1 - 2^d)),

    each H at an angle of at most pi/2 (see :func:`_route` for the proof).
    """
    a = max(rep, 0.0)
    th0 = math.pi * k0 / n
    angles = [(t, _sinc_log(t)) for t in (min(2 * th0, math.pi / 2),
                                          min(4 * th0, math.pi / 2), math.pi / 2)]
    g0 = rep * math.log2(2 * math.sin(th0))
    lk = math.log2(k0)

    def log2_bound(M: int) -> float:
        if 2 * M <= a + 1:
            return math.inf
        lam = 2 * M / (2 * M + pabs + 1)
        disc = -math.log1p(-lam)
        h2, h4, hp = (pabs * (disc + _sinc_log((1 + lam) * t) - b) / _LN2 for t, b in angles)
        d = a + 1 - 2 * M
        pieces = _log2_sum((h2, d + h4, 2 * d + hp - math.log2(1 - 2.0 ** d)))
        return (2 + math.log2(1 + 2.0 ** (2 - 2 * M)) + math.lgamma(2 * M + 1) / _LN2
                - 2 * M * math.log2(2 * math.pi * lam) + g0
                + (1 - 2 * M) * lk - math.log2(2 * M - a - 1) + pieces)

    return log2_bound


def _quarter_price(bits: int) -> float:
    """:data:`_QUARTER_TERM` at ``bits`` of precision: the entry of the
    largest listed precision at most ``bits``."""
    return next(w for b, w in reversed(_QUARTER_TERM) if bits >= b)


def _route_plan(n: int, p, tol, count: int, max_terms: int, bits: int):
    """(k0, M, J, log2 R_M, log2 of the tail of S) for the cheapest route
    (:func:`_route`) that meets tol with work k0 + 2M + J <= max_terms, or
    None when the plain sum of ``count`` terms costs no more (and fits
    max_terms) or no cut-off serves.  ``bits`` is the precision of the sum,
    which prices its plain term.

    R_M is held to tol/4 and J, the length of the series in u0 = sin(pi
    k0/n), is the first with its tail below tol/16 (for Re p + 2J + 1 >= 1),
    both bounds in floats by the one rule for remainder bounds of
    :mod:`zetakit.numerics`.  The cost, in units of one term of the plain
    sum at p, is k0 + (m R^2 + t J + c) / w, R = 2M - 1, with (m, t, c)
    from :data:`_ROUTE_COST` and w the price of that term in log/exp terms:
    :data:`_QUARTER_TERM` at ``bits`` for an integer or half-integer p,
    else 1.

    The cut-offs of :data:`_K0_CHOICES` with n >= 4 k0 are weighed in
    increasing order, each against the cheapest plan so far, and the search
    stops at the first k0 whose k0 + c / w alone costs as much.  J does not
    depend on M, so J, the best cost and max_terms cap the largest order
    that could still win at k0; one bound at that cap rules k0 out, and
    otherwise the least order below it is found.  The plan is the one
    that weighing every k0 and every order would pick: the least-cost
    plan, the first k0 among equals."""
    unit = _quarter_price(bits) if not p.imag and _quarter(p.real) else 1
    per_mul, per_term, fixed = (x / unit for x in _ROUTE_COST)
    best, plan = (count if count <= max_terms else math.inf), None
    if _K0_CHOICES[0] + fixed >= best:  # the plain sum is cheaper, whatever M
        return None
    pabs, rep = float(abs(p)), float(p.real)
    if pabs >= 2 ** 20:  # outside the rounding lemma of _route
        return None
    tlog = math.log2(tol.man) + tol.exp
    lo = int(max(rep, 0.0) + 1) // 2 + 1
    for k0 in _K0_CHOICES:
        if 4 * k0 > n or k0 + fixed >= best:
            break
        th0 = math.pi * k0 / n
        lu = math.log2(math.sin(th0))
        # log2 of (2n/pi) |g(k0)| u0 / (1 - u0^2): the tail is this times
        # u0^(2J) / (Re p + 2J + 1)
        scale = (math.log2(2 * n / math.pi) + rep * (1 + lu) + lu
                 - math.log2(1 - math.sin(th0) ** 2))
        J = max(1, math.ceil((tlog - 4 - scale) / (2 * lu)), math.ceil(-rep / 2) + 1)

        def cost(M):
            return k0 + per_mul * (2 * M - 1) ** 2 + per_term * J + fixed

        # the largest order that could win: within 0.8 pi k0 (the bound turns
        # upward past it), within max_terms, and costing less than best
        cap = min(int(0.8 * math.pi * k0), _ROUTE_MAX_ORDER, (max_terms - k0 - J) // 2)
        if best < math.inf and cap >= lo:
            room = (best - k0 - per_term * J - fixed) / per_mul
            cap = min(cap, int((math.sqrt(max(room, 0.0)) + 1) / 2) + 1)
            while cap >= lo and cost(cap) >= best:
                cap -= 1
        found = _least_order(_remainder_bound(n, k0, pabs, rep), lo, cap, tlog - 2)
        if found is not None:
            M, rlog = found
            slog = scale + 2 * J * lu - math.log2(rep + 2 * J + 1)
            best, plan = cost(M), (k0, M, J, rlog, slog)
    return plan


def _route(mp, n: int, p, dp, plan, zz, zz_err):
    """(value, err) of the folded sum zeta_n(s) = sum_k g(k), g(x) =
    (2 sin(pi x/n))^p with p = -2s, in work independent of n, from a plan
    (k0, M, J, log2 R_M, log2 of the tail of S) of :func:`_route_plan`, both
    bounds certified by :func:`numerics._bound_from_log2`, and zeta_Z(s) =
    zz within zz_err.  ``dp`` bounds the rounding of p, as in :func:`_power_sum`.

    The identity.  With th0 = pi k0/n, u0 = sin th0 and n >= 4 k0,

        zeta_n(s) = 2 sum_{k<k0} g(k) + g(k0) + n zeta_Z(s)
                    - g(k0) [(2n u0/pi) S + T] + R_M + (tail of S),
        S = sum_{j<J} C(2j, j) 4^-j u0^(2j) / (p + 2j + 1),
        T = 2 sum_{j=1}^{M} B_2j/(2j) k0^(1-2j) E_(2j-1).

    Euler-Maclaurin on [k0, n-k0], where g is smooth, with g^(r)(n-x) =
    (-1)^r g^(r)(x), leaves the head, the integral of g over [k0, n-k0] and
    the corrections -2 sum_j B_2j/(2j)! g^(2j-1)(k0).  The integral over
    [0, n] is n zeta_Z(s), since zeta_Z(s) = (1/pi) integral_0^pi (2 sin
    t)^p dt, and the two ends cut off are (2n/pi) integral_0^th0 (2 sin
    t)^p dt, which u = sin t turns into 2^p u0^(p+1) times the series of
    S, 1/sqrt(1 - u^2) = sum C(2j, j) 4^-j u^(2j).  For Re p > -1 this is
    the split of a convergent integral; both sides are meromorphic in p,
    and the poles at p = -2j - 1 of zeta_Z and of S cancel.  The
    derivatives: g(k0 (1 + t)) = g(k0) exp(p l(t)), l(t) = log(sin(th0 (1 +
    t)) / sin th0), and l'(t) = y(t) = th0 cot(th0 (1 + t)) = sum y_r
    t^r with y_0 = th0 cot th0 and (r + 1) y_(r+1) = -th0^2 [r = 0] -
    sum_i y_i y_(r-i), since y' = -th0^2 - y^2.  Then exp(p l) = sum E_r
    t^r by Miller's recurrence r E_r = p sum_{k=1}^{r} y_(k-1) E_(r-k), and
    g^(r)(k0) = g(k0) r! k0^(-r) E_r.

    The remainder.  |R_M| <= 2 zeta(2M) (2 pi)^(-2M) integral |g^(2M)| over
    [k0, n-k0] (DLMF 2.10.1 with the B_2M term taken into the sum), twice
    the integral over [k0, n/2].  g is analytic off the multiples of n, and
    on the disc |z - x| <= lam x, 0 < lam < 1, x <= n/2, Re sin(pi z/n) >
    0, so |g^(2M)(x)| <= (2M)! (lam x)^(-2M) |g(x)| e^(|p| H) for any H >=
    |log(sin(pi z/n) / sin(pi x/n))| there.  Split that logarithm as
    log(1 + tau/t) + log sinc(t + tau) - log sinc(t), t = pi x/n and |tau|
    <= lam t: the first is at most -log(1 - lam), and since -log sinc has
    a Maclaurin series in w^2 with positive coefficients, the other two
    differ by at most B((1 + lam) t) - B(t), B = -log sinc; this bound grows
    with t.  |g(x)| <= |g(k0)| (x/k0)^a, a = max(Re p, 0), since sin is
    concave and increasing up to pi/2.  Integrating x^(a-2M) over [k0,
    2k0], [2k0, 4k0] and the rest, with H at each piece's largest angle
    (at most pi/2), gives :func:`_remainder_bound`.

    Fixed point, at F = prec + FIXED_GUARD fractional bits, u = 2^-F.
    th0, cos th0 and sin th0 come from ``mpf_cos_sin_pi`` at F + 10 bits,
    so y_0, th0^2 and u0 are within 2u.  Take |y_r| <= 3/2 from cot w =
    sum_k 1/(w - k pi) with th0 <= pi/4.

    * The y_r: each step floors a sum of exact products and a quotient, so
      the errors obey |dy_(r+1)| <= 3.5 sum_{i<=r} |dy_i| / (r + 1) + 4u
      while |y_r + dy_r| <= 2; by induction |dy_r| <= 32 C(r+3, 3) u, whose
      series (1 - t)^-4 has (r + 1) D_(r+1) = 4 sum D_i.
    * The E_r: |E_r| <= A_r = C(a' + r - 1, r), the series of (1 - t)^-a'
      with a' = max(3|p|/2, 1) >= |p y_(k-1)|.  Each step floors twice
      (within 3u of r E_r / r), and p is floored onto the grid; then the
      error series D(t) has D' majorised by 2 b u (1 - t)^(-a'-4) + a' D /
      (1 - t) + 3u (1 - t)^-2, b = 32 |p| + 3, so |dE_r| <= L_D C(a' + r +
      2, r) u with L_D = (2b + 3)/3, while that stays below A_r (it does
      for R < 1000, |p| < 2^20 and F >= 64).
    * T: each term c_j (2j-1)! E_(2j-1) / k0^(2j-1), c_j = B_2j/(2j)!
      within 2^-(F+1) (:func:`numerics._em_coefficients`), floored once, is
      within |B_2j|/(2j) k0^(1-2j) (L_D + 1) C(a' + 2j + 1, 2j - 1) u + u.
    * S: the coefficients x_j = C(2j, j) 4^-j u0^(2j) <= 1 run by one
      floored product each, within 5j u; a term x_j / q_j, q_j = p + 2j +
      1, floored per part and with p on the grid, is within (10 j / delta +
      3 / delta^2 + 2) u, delta = min |q_j|.  The tail past J is below (2n
      u0/pi) |g(k0)| u0^(2J) / ((1 - u0^2) (Re p + 2J + 1)), and the plan
      holds it to tol/16.  delta > 0: q_j = 0 is s = j + 1/2, a pole of
      zeta_Z, which :func:`_circle_sum` leaves to the plain sum, as it
      does every s within the snapping distance r of Z/2 but off it, so
      delta > 2r for s off Z/2.  For an integer or half-integer p, delta
      >= 1/2: q_j is odd for an integer s, at least p + 1 >= 2 for a
      negative half-integer s, and a half-integer for a quarter-integer s.

    g(k0) = exp(p log(2 u0)), the logarithm ``numerics._log_fixed`` of u0
    read exactly and the rest in mpmath, within (|p| (2L + 1) + 2)
    2^(1-prec) relatively, L = bitlen(n) + 1 >= |log(2 u0)|; the last
    combination is a dozen roundings, covered by 2^(4-prec) of its terms.
    The rounding dp of p moves every term by at most 2 dp L |g(k)| and
    |g(k)| <= max(|g(k0)|, 2^Re p) past k0: 2 dp L n max(|g(k0)|, 2^Re p).

    The terms that scale with |g(k0)|, the errors of S (times c = 2n
    u0/pi) and T, |V| times the rounding of g(k0), V = 1 + c S + T, and
    2^(5-prec) (c |S| + |T| + 1), are M + 8 float log2s, certified once by
    :func:`numerics._bound_from_log2` (T's lgamma may pass 2^24, but 1.73 >
    log2 3.3 + 0.007 leaves a margin).  The rest stays in mpf: its
    magnitudes can leave the float range, their log2s reach |p| log2 n.
    The total, summed in mpf rounded to nearest, takes one relative raise
    (``numerics._raised``) that covers those roundings.
    """
    k0, M, J, rlog, slog = plan
    prec = mp.prec
    F = prec + FIXED_GUARD
    W = F + 10
    cplx = isinstance(p, mp.mpc)
    head, head_err = _power_sum(mp, n, p, True, dp, k0)
    x = from_rational(k0, n, W)
    cos0, sin0 = mpf_cos_sin_pi(x, W)
    th = mpf_mul(mpf_pi(W), x, W)
    y0 = to_fixed(mpf_div(mpf_mul(th, cos0, W), sin0, W), F)
    th2 = to_fixed(mpf_mul(th, th, W), F)
    u2 = (to_fixed(sin0, F) ** 2) >> F
    pr, pi_, _ = _dyadic(p, -F)

    # S, the series of the cut-off ends
    sr = si = 0
    xj = 1 << F
    for j in range(J):
        qr = pr + ((2 * j + 1) << F)
        d = qr * qr + pi_ * pi_
        sr += ((xj * qr) << F) // d
        si -= ((xj * pi_) << F) // d
        xj = (xj * (2 * j + 1) * u2) // ((2 * j + 2) << F)

    # y_r, then E_r by Miller's recurrence, then T
    R = 2 * M - 1
    ys = [y0]
    for r in range(R - 1):
        acc = (sum(map(mul, ys, reversed(ys))) >> F) + (th2 if r == 0 else 0)
        ys.append(-acc // (r + 1))
    er, ei = [1 << F], [0]
    for r in range(1, R + 1):
        a = sum(map(mul, ys, reversed(er)))
        if cplx:
            b = sum(map(mul, ys, reversed(ei)))
            er.append(((pr * a - pi_ * b) >> 2 * F) // r)
            ei.append(((pr * b + pi_ * a) >> 2 * F) // r)
        else:
            er.append(((pr * a) >> 2 * F) // r)
            ei.append(0)
    coef = _em_coefficients(prec, M)
    tr = ti = 0
    fact = 1
    kpow = k0
    for j in range(1, M + 1):
        if j > 1:
            fact *= (2 * j - 2) * (2 * j - 1)
            kpow *= k0 * k0
        cm, ce = coef[j - 1]
        den = kpow << -ce
        tr += (cm * fact * er[2 * j - 1]) // den
        ti += (cm * fact * ei[2 * j - 1]) // den

    S = _to_mp(mp, sr, si, -F, cplx)
    T = _to_mp(mp, 2 * tr, 2 * ti, -F, cplx)
    u0 = mp.make_mpf(sin0)
    lb = W + n.bit_length()  # sin0 lies on the grid 2^-lb, since u0 > 2^-bitlen(n)
    g0 = mp.exp(p * mp.make_mpf(from_man_exp(_log_fixed(to_fixed(sin0, lb) << 1, lb), -lb)))
    c2 = 2 * n * u0 / mp.pi
    V = 1 + c2 * S + T
    v = head + n * zz - g0 * V

    # the error budget, term by term as in the docstring
    pabs = float(abs(p))
    lbits = n.bit_length() + 1
    jmin = min(max(int(-(p.real + 1) / 2), 0), J - 1)
    ld = min(_log2_abs(pr + ((2 * j + 1) << F), pi_)
             for j in {max(jmin - 1, 0), jmin, min(jmin + 1, J - 1)}) - F  # log2 delta
    lc, ls, lt = math.log2(c2), _log2_abs(sr, si) - F, _log2_abs(tr, ti) + 1 - F
    vr, vi, ve = _dyadic(V)
    # 2^-F times 2 |B_2j|/(2j) k0^(1-2j) (L_D + 1) C(a' + 2j + 1, 2j - 1),
    # with |B_2j|/(2j) <= 3.3 (2j-1)!/(2 pi)^(2j): T's terms
    fa = max(1.5 * pabs, 1.0)
    logs = [2.73 - F + (math.lgamma(fa + 2 * j + 2) - math.lgamma(fa + 3)) / _LN2
            - 2 * j * math.log2(2 * math.pi) - (2 * j - 1) * math.log2(k0)
            + math.log2((64 * pabs + 9) / 3 + 1) for j in range(1, M + 1)]
    logs += [lc - F + math.log2(5 * J * J) - ld,  # S: 5 J^2 / delta
             lc - F + math.log2(3 * J) - 2 * ld,  # 3 J / delta^2
             lc - F + math.log2(2 * J),  # and 2 J units
             1 - F + math.log2(M),  # T: a unit per term
             lc + ls + math.log2(40) - prec,  # S's rounding, in V and combined
             # g(k0)'s rounding times |V|, and the rest of the combination
             _log2_abs(vr, vi) + ve + math.log2(pabs * (2 * lbits + 1) + 2) + 1 - prec,
             lt + 5 - prec, 5 - prec]
    ag = abs(g0)
    err = (head_err + n * zz_err + ag * _bound_from_log2(mp, _log2_sum(logs))
           + _bound_from_log2(mp, rlog) + _bound_from_log2(mp, slog)
           + (abs(head) + n * abs(zz)) * mp.mpf(2) ** (4 - prec)
           + 2 * dp * lbits * n * max(ag, mp.mpf(2) ** p.real))
    return v, _raised(mp, err)


def _route_choice(c: PrecisionContext, n: int, z, tol):
    """The :func:`_route_plan` of the folded sum at z, at c's precision, or
    None (every term summed) at the poles 1/2 + N of zeta_Z and near Z/2
    off it, and at z = 0, where both public sums return n - 1 without
    asking."""
    q = snap(c, z)
    routable = q is None or z == q and (q < 0 or q > 0 and q.denominator == 1)
    return (_route_plan(n, -2 * z, tol, n // 2, c.max_terms, c.precision_bits)
            if routable else None)


def _circle_sum(c: PrecisionContext, n: int, z, dp, tol, fold: bool = True):
    """(value, err) of the sum of (2 sin(pi k/n))^p over k = 1..n-1, p =
    -2z, at c's precision; ``dp`` bounds the rounding of p, as in
    :func:`_power_sum`, and ``tol`` is the tolerance the err should meet.

    Folded and where :func:`_route_choice` gives a plan, the sum takes the
    large-n route (:func:`_route`) on zeta_Z(z) from the closed form before
    any tolerance check (:func:`zeta_z._closed`, exact on Z/2), whose err
    enters the sum's; otherwise every term is summed (:func:`_power_sum`).
    Only a path whose work fits ``max_terms`` is taken, and NoConvergence
    naming it is raised before any sine is rotated when none does."""
    p = -2 * z
    cplx = isinstance(p, c.mp.mpc)
    count = n // 2 if fold else n - 1
    plan = _route_choice(c, n, z, tol) if fold else None
    if plan is None:
        if count > c.max_terms:
            raise NoConvergence(f"discrete-circle sum: {count} terms exceed max_terms = "
                                f"{c.max_terms}")
        return _power_sum(c.mp, n, p, fold, dp)
    zz, zz_err = _closed(c, z)[:2]
    return _route(c.mp, n, p, dp, plan, zz if cplx else zz.real, zz_err)


def sine_power_sum(n: int, power, ctx: Optional[PrecisionContext] = None) -> HPComplex:
    """sum_{k=1}^{n-1} sin(pi k/n)^power for real power.

    At power 0 it is n - 1, returned with no sine rotated, its err the
    rounding of n - 1 at working precision (0 below 2^working_bits).
    Otherwise it is 2^-power times the folded sum of (2 sin(pi k/n))^power,
    which :func:`_circle_sum` evaluates at the tolerance scaled by 2^power:
    by the large-n route above its switch, else term by term (always at the
    negative odd powers, and near an integer power but off it), and never
    with more work than ``max_terms``.  The sines come from a
    fixed-point rotation with a proved drift bound (:func:`_rotated_sines`),
    never from a rounded pi*k/n product, so accuracy survives large n; err covers the
    rounding of a power that is not exact at working precision and of the
    factor 2^-power.  Like every kernel, it runs under :func:`core.certify`,
    at the context's precision and then with up to 1024 extra bits.
    """
    nn = _vertex_count(n)

    def compute(c: PrecisionContext) -> HPComplex:
        x = c.mpf(power)
        if x == 0:  # every term is 1
            v, err = rendering(c, nn - 1)
            return HPComplex(v.real, err)
        mp = c.mp
        dp = abs(x) * c.eps if _rounded(power, x) else 0
        scale = mp.power(2, -x)  # it and the product below round once each
        v, err = _circle_sum(c, nn, -x / 2, dp, c.tol / scale)
        v *= scale
        return HPComplex(v, err * scale + abs(v) * mp.mpf(2) ** (2 - mp.prec))

    return certify(get_context(ctx), compute, "sine_power_sum")


def zeta_zn_direct(n: int, s, ctx: Optional[PrecisionContext] = None, *,
                   fold: bool = True) -> EvalResult:
    """The defining finite sum (any complex s), as sum_k (2 sin(pi k/n))^(-2s);
    err covers the rounding of an s that is not exact at working precision.

    :func:`_circle_sum` chooses the path: the large-n route (folded, above
    its switch, s neither a pole 1/2, 3/2, ... of zeta_Z nor near Z/2 but
    off it) or the plain sum, within ``max_terms``.

    The sum runs at the context's precision and, should its err miss the
    tolerance there, again with more bits (:func:`core.certify`); its
    rendering back at the context's precision, at least (|v| - err) eps for
    the first sum's v and err, enters err in :func:`core.complex_result`:
    when it exceeds the tolerance, NoConvergence is raised at once."""
    nn = _vertex_count(n)
    ctx = get_context(ctx)
    z0 = ctx.mpc(s)
    if z0 == 0:
        return exact_result(ctx, Fraction(nn - 1), "direct-sum")

    def compute(c: PrecisionContext) -> HPComplex:
        z = z0 if c is ctx else c.mpc(s)
        if z.imag == 0:
            z = z.real
        dp = 2 * abs(z) * c.eps if _rounded(s, z) else 0
        v, err = _circle_sum(c, nn, z, dp, c.tol, fold)
        if c is ctx and err > ctx.tol and (abs(v) - err) * ctx.eps > ctx.tol:
            raise NoConvergence(
                f"zeta_zn_direct: precision too low: rounding the sum to "
                f"{ctx.precision_bits} bits alone exceeds the tolerance")
        return HPComplex(v, err)

    r = certify(ctx, compute, "zeta_zn_direct")
    return complex_result(ctx, r.value, r.err, False, "direct-sum")


def zeta_zn_negative_int(n: int, m: int) -> Fraction:
    """Exact zeta_n(-m) = n sum_k (-1)^{kn} C(2m, m+kn) over |k| <= m/n.

    The k = 0 term carries weight one; for m < n it is the only term,
    giving n C(2m, m).  The binomials are walked from C(2m, m) by the exact
    step C(2m, m+j) = C(2m, m+j-1) (m-j+1)/(m+j), work that grows as m^2;
    past 2m = ``zeta_z._EXACT_BITS``, the closed form's width for exact
    values, NoConvergence is raised before any binomial is built.
    """
    nn = _vertex_count(n)
    if m < 1:
        raise DomainError("m must be a positive integer")
    if 2 * m > _EXACT_BITS:
        raise NoConvergence(f"zeta_n(-{m}): 2m exceeds {_EXACT_BITS}, the width of "
                            f"exact values")
    c = acc = comb(2 * m, m)
    for j in range(1, m // nn * nn + 1):
        c = c * (m - j + 1) // (m + j)
        if j % nn == 0:
            acc += -2 * c if j % 2 else 2 * c
    return Fraction(nn * acc)


def sine_odd_power_sum(n: int, m: int, ctx: Optional[PrecisionContext] = None) -> EvalResult:
    """zeta_n(-1/2 - m) as the cotangent sum
    2 sum_{j=0}^{m} (-1)^{m-j} C(2m+1, j) cot((2m+1-2j) pi / 2n).

    Equals 2^(2m+1) sum_k sin(pi k/n)^(2m+1).  Cotangent arguments are odd
    multiples of pi/2n and so never land on a pole for n >= 2.
    """
    nn = _vertex_count(n)
    if m < 0:
        raise DomainError("m must be a nonnegative integer")
    ctx = get_context(ctx)
    mp = ctx.mp
    acc = mp.zero
    magnitude = mp.zero
    for j in range(m + 1):
        a = Fraction(2 * m + 1 - 2 * j, 2 * nn)
        a -= a.numerator // a.denominator  # exact reduction mod 1
        x = mp.mpf(a.numerator) / a.denominator
        cot = mp.cospi(x) / mp.sinpi(x)
        term = comb(2 * m + 1, j) * cot
        acc += -term if (m - j) % 2 else term
        magnitude += abs(term)
    v = 2 * acc
    err = 2 * magnitude * (m + 16) * mp.mpf(2) ** (4 - mp.prec)
    return complex_result(ctx, v, err, False, "cot-sum")


# --------------------------------------------------------------------------
# closed polynomials at positive integers

def zeta_zn_closed_poly(m: int, ctx: Optional[PrecisionContext] = None) -> RationalPolynomial:
    """The unique degree-2m polynomial P with P(n) = zeta_n(m) for all n >= 2.

    zeta_n(m) is 4^(-m) sum_k csc(pi k/n)^(2m), whose large-n expansion
    terminates; :func:`zetakit.asymptotics.csc_power_polynomial` assembles
    it exactly from Bernoulli numbers.  The result is exact, so ``ctx`` is
    not used.
    """
    if not 1 <= m <= POLY_CAP:
        raise DomainError(f"closed polynomials supported for 1 <= m <= {POLY_CAP}")
    from .asymptotics import csc_power_polynomial  # asymptotics imports this module
    return csc_power_polynomial(m)
