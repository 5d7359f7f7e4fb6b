"""The spectral zeta function of discrete circles (cycle graphs on n vertices):

    zeta_n(s) = 4^(-s) sum_{k=1}^{n-1} sin(pi k / n)^(-2s).

The direct sum, as sum_k (2 sin(pi k/n))^(-2s), and the sine-power sums that
extraction reads share one streaming kernel, :func:`_power_sum`.  It makes
sin(pi k/n) by rotating (cos, sin)(pi/n) in Python-integer fixed point at
wp = prec + 2 bitlen(n) + 4 bits; the rotation drifts by at most 3k units of
2^(-wp), and since sin(pi k/n) >= 2 min(k, n-k)/n every sine, past pi/2
too, stays within 2^(-prec-3) of the truth, relatively.  Integer and
half-integer powers then take no logarithm or exponential.

Negative integer values are exact alternating binomial sums, odd half-integer
values collapse to short cotangent sums (evaluated with mpmath's own sines,
independent of the rotation), and positive integer values are polynomials in
n, assembled exactly from Bernoulli numbers by
:func:`zetakit.asymptotics.csc_power_polynomial`.  The ``verify`` suite
checks them against an independent oracle that reconstructs them from direct
sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Optional, Union

from mpmath.libmp import (
    from_man_exp,
    from_rational,
    fzero,
    mpf_add,
    mpf_cos_sin,
    mpf_cos_sin_pi,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_pow_int,
    mpf_shift,
    mpf_sqrt,
    round_nearest,
    to_fixed,
    to_int,
)

from .core import (
    DomainError,
    EvalResult,
    HPReal,
    PrecisionContext,
    certify,
    complex_result,
    exact_result,
    get_context,
)
from .numerics import _rounded

__all__ = [
    "DiscreteCircle",
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


@dataclass(frozen=True)
class DiscreteCircle:
    """A cycle graph on n >= 2 vertices."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise DomainError("a discrete circle needs at least 2 vertices")


def _vertex_count(n: Union[int, DiscreteCircle]) -> int:
    if isinstance(n, DiscreteCircle):
        return n.n
    return DiscreteCircle(n).n


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


def _power_sum(mp, n: int, p, fold: bool, double: bool, dp=0):
    """(sum, err) of w_k x_k^p, x_k = 2 sin(pi k/n) if ``double`` else
    sin(pi k/n), over k = 1..n-1 (w_k = 1), or folded over k = 1..n//2 with
    w_k = 2 for k != n/2, since sin(pi k/n) = sin(pi (n-k)/n).  ``p`` is an
    mpf or mpc; ``dp`` bounds the rounding it carries from the caller's input.

    The sines come from :func:`_rotated_sines` at wp = prec + 2 bitlen(n) +
    4 bits, each within e_s = 2^(-prec-3) of the truth, relatively, on the
    folded and the unfolded range alike.  Powers go by the exponent's kind:
    ``mpf_pow_int`` for integers, ``mpf_pow_int`` times one ``mpf_sqrt`` for
    half-integers, and otherwise one ``mpf_log`` at prec + 8 plus the bits
    of |p| L, L = bitlen(n) + 1 >= |log x_k|, followed by ``mpf_exp`` (real
    p) or ``mpf_exp`` of the real part and ``mpf_cos_sin`` of the imaginary
    part (complex p), whose real exponential is the term's modulus.  The
    sum is accumulated in raw ``mpmath.libmp`` tuples at prec with rounding
    to nearest.

    With M the sum of the term moduli, err is M ((|p| + 1) e_s + (count +
    16) 2^(1-prec) + 2 dp L): the sine's relative error raised to the power
    p, the rounding of each term (at most 16 units of 2^(1-prec)) and of each
    addition (half a unit per part), and the caller's rounding of p, which
    moves a term by |dp log x_k| (doubled for the second order).
    """
    prec = mp.prec
    wp = prec + 2 * n.bit_length() + _ROTATION_GUARD
    rnd = round_nearest
    count = n // 2 if fold else n - 1
    lbits = n.bit_length() + 1
    wl = prec + 8 + int(abs(p) * lbits + 1).bit_length()
    exp0 = (1 if double else 0) - wp
    sines = enumerate(_rotated_sines(n, count, wp), 1)
    if isinstance(p, mp.mpc):
        a, b = p._mpc_
        re = im = mass = fzero
        for k, s in sines:
            log_x = mpf_log(from_man_exp(s, exp0), wl)
            r = mpf_exp(mpf_mul(a, log_x, wl), prec, rnd)
            if fold and 2 * k != n:
                r = mpf_shift(r, 1)
            cos_t, sin_t = mpf_cos_sin(mpf_mul(b, log_x, wl), prec, rnd)
            re = mpf_add(re, mpf_mul(r, cos_t, prec, rnd), prec, rnd)
            im = mpf_add(im, mpf_mul(r, sin_t, prec, rnd), prec, rnd)
            mass = mpf_add(mass, r, prec, rnd)
        total, mass = mp.make_mpc((re, im)), mp.make_mpf(mass)
    else:
        # a raw mpf (sign, odd mantissa, exponent, bits) is an integer when
        # the mantissa is 0 or the exponent >= 0, a half-integer at -1
        a = p._mpf_
        if not a[1] or a[2] >= 0:
            q = to_int(a)
            power = lambda x: mpf_pow_int(x, q, prec, rnd)
        elif a[2] == -1:
            q = (to_int(mpf_shift(a, 1)) - 1) // 2
            power = lambda x: mpf_mul(mpf_pow_int(x, q, prec, rnd),
                                      mpf_sqrt(x, prec, rnd), prec, rnd)
        else:
            power = lambda x: mpf_exp(mpf_mul(a, mpf_log(x, wl), wl), prec, rnd)
        acc = fzero
        for k, s in sines:
            t = power(from_man_exp(s, exp0))
            if fold and 2 * k != n:
                t = mpf_shift(t, 1)
            acc = mpf_add(acc, t, prec, rnd)
        total = mass = mp.make_mpf(acc)  # every term is positive
    two = mp.mpf(2)
    rel = ((abs(p) + 1) * two ** (-prec - 3) + (count + 16) * two ** (1 - prec)
           + 2 * dp * lbits)
    return total, mass * rel


def sine_power_sum(n: Union[int, DiscreteCircle], power,
                   ctx: Optional[PrecisionContext] = None) -> HPReal:
    """sum_{k=1}^{n-1} sin(pi k/n)^power for real power.

    The sines come from a fixed-point rotation with a proved drift bound
    (:func:`_rotated_sines`), never from a rounded pi*k/n product, so accuracy
    survives large n; err covers the rounding of a power that is not exact
    at working precision.
    """
    nn = _vertex_count(n)

    def compute(c: PrecisionContext) -> HPReal:
        x = c.mpf(power)
        dp = abs(x) * c.eps if _rounded(power, x) else 0
        return HPReal(*_power_sum(c.mp, nn, x, True, False, dp))

    return certify(get_context(ctx), compute, "sine_power_sum")


def zeta_zn_direct(n: Union[int, DiscreteCircle], s,
                   ctx: Optional[PrecisionContext] = None, *,
                   fold: bool = True) -> EvalResult:
    """The defining finite sum at working precision (any complex s), as
    sum_k (2 sin(pi k/n))^(-2s); err covers the rounding of an s that is not
    exact at working precision."""
    nn = _vertex_count(n)
    ctx = get_context(ctx)
    z = ctx.mpc(s)
    if z.imag == 0:
        z = z.real
    if z == 0:
        return exact_result(ctx, Fraction(nn - 1), "direct-sum")
    dp = 2 * abs(z) * ctx.eps if _rounded(s, z) else 0
    v, err = _power_sum(ctx.mp, nn, -2 * z, fold, True, dp)
    return complex_result(ctx, v, err, False, "direct-sum")


def zeta_zn_negative_int(n: Union[int, DiscreteCircle], m: int) -> Fraction:
    """Exact zeta_n(-m) = n sum_k (-1)^{kn} C(2m, m+kn) over |k| <= m/n.

    The k = 0 term carries weight one; for m < n it is the only term,
    giving n C(2m, m).
    """
    nn = _vertex_count(n)
    if m < 1:
        raise DomainError("m must be a positive integer")
    acc = 0
    for k in range(-(m // nn), m // nn + 1):
        sign = -1 if (k * nn) % 2 else 1
        acc += sign * comb(2 * m, m + k * nn)
    return Fraction(nn * acc)


def sine_odd_power_sum(n: Union[int, DiscreteCircle], m: int,
                       ctx: Optional[PrecisionContext] = None) -> EvalResult:
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
