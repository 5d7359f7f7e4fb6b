"""The spectral zeta function of discrete circles (cycle graphs on n vertices):

    zeta_n(s) = 4^(-s) sum_{k=1}^{n-1} sin(pi k / n)^(-2s).

The direct sum, as sum_k (2 sin(pi k/n))^(-2s), and the sine-power sums that
extraction reads share one streaming kernel, :func:`_power_sum`, which runs
in Python-integer fixed point from the sines to the sum.  It makes
sin(pi k/n) by rotating (cos, sin)(pi/n) at wp = prec + 2 bitlen(n) + 4
bits; the rotation drifts by at most 3k units of 2^(-wp), and since
sin(pi k/n) >= 2 min(k, n-k)/n every sine, past pi/2 too, stays within
2^(-prec-3) of the truth, relatively.  Every term is then formed relative to
one block scale, the largest term, which is known before the loop (k = 1
for a negative power, n//2 otherwise), at prec + 20 fractional bits or
more: integer and half-integer powers by a ratio of two sines, binary
powering and ``math.isqrt``, other powers by the fixed-point logarithm and
exponential of :mod:`zetakit.numerics`.  The terms are summed exactly as
integers and scaled once, and each carries at most 2^13 units of
2^(-prec-20) relative to the scale, inside the rounding budget of the err.

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
from math import comb, isqrt, lcm
from typing import Optional

from mpmath.libmp import (
    from_man_exp,
    from_rational,
    ln2_fixed,
    mpf_cos_sin_pi,
    mpf_exp,
    mpf_mul,
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
)
from .numerics import (
    FIXED_GUARD,
    _cos_sin_fixed,
    _exp_fixed,
    _log_fixed,
    _pow_fixed,
    _rounded,
)

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


def _power_sum(mp, n: int, p, fold: bool, double: bool, dp=0):
    """(sum, err) of w_k x_k^p, x_k = 2 sin(pi k/n) if ``double`` else
    sin(pi k/n), over k = 1..n-1 (w_k = 1), or folded over k = 1..n//2 with
    w_k = 2 for k != n/2, since sin(pi k/n) = sin(pi (n-k)/n).  ``p`` is an
    mpf or mpc; ``dp`` bounds the rounding it carries from the caller's input.

    The sines come from :func:`_rotated_sines` at wp = prec + 2 bitlen(n) +
    4 bits, each within e_s = 2^(-prec-3) of the truth, relatively, on the
    folded and the unfolded range alike.  The terms are summed in
    Python-integer fixed point under one block scale S = x_m^Re(p), the
    largest term modulus, known before the loop: m = 1 for Re p < 0 and m =
    n//2 otherwise.  Each term is t_k = (x_k /
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
    second order).
    """
    prec = mp.prec
    wp = prec + 2 * n.bit_length() + _ROTATION_GUARD
    F = prec + FIXED_GUARD
    H = max(F, wp) + int(abs(p)).bit_length() + 1
    count = n // 2 if fold else n - 1
    lbits = n.bit_length() + 1
    a, b = p._mpc_ if isinstance(p, mp.mpc) else (p._mpf_, None)
    neg = a[0]  # the sign bit of Re p

    def log_sine(s):  # log(s 2^-wp) at H bits
        return _log_fixed(s << (H - wp), H)

    # the block: the sine s_m of the largest term, m = 1 or n//2
    m = 1 if neg else n // 2
    top = to_fixed(mpf_sin_pi(from_rational(m, n, wp + 8), wp + 8), wp)
    log_top = log_sine(top)
    ln2 = ln2_fixed(H) if double else 0
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
        return total, mp.make_mpf(scaled(mass, F)) * _rel(mp, p, count, dp, lbits)
    # a raw mpf (sign, odd mantissa, exponent, bits) is an integer when
    # the mantissa is 0 or the exponent >= 0, a half-integer at -1
    if not a[1] or a[2] >= -1:
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
    return total, total * _rel(mp, p, count, dp, lbits)  # every term is positive


def _rel(mp, p, count: int, dp, lbits: int):
    """The relative error bound of a power sum (:func:`_power_sum`)."""
    two = mp.mpf(2)
    return ((abs(p) + 1) * two ** (-mp.prec - 3) + (count + 16) * two ** (1 - mp.prec)
            + 2 * dp * lbits)


def _first_bits(c: PrecisionContext, n: int, x, dp) -> int:
    """Precision bits at which the folded sum of sin(pi k/n)^x meets the
    tolerance on its first run.  Its mass is M <= 2 count S (1 +
    2^-prec)^|x| < 3 count S, S the block scale of :func:`_power_sum`, and
    its err is M times :func:`_rel`, which halves with each added bit (dp,
    the rounding of x, halves with it)."""
    mp = c.mp
    count = n // 2
    top = mp.sinpi(mp.mpf(1 if x < 0 else count) / n)
    bound = 3 * count * top ** x * _rel(mp, x, count, dp, n.bit_length() + 1)
    return c.precision_bits + max(0, int(mp.ceil(mp.log(bound / c.tol, 2))))


def sine_power_sum(n: int, power, ctx: Optional[PrecisionContext] = None) -> HPComplex:
    """sum_{k=1}^{n-1} sin(pi k/n)^power for real power.

    The sines come from a fixed-point rotation with a proved drift bound
    (:func:`_rotated_sines`), never from a rounded pi*k/n product, so accuracy
    survives large n; err covers the rounding of a power that is not exact
    at working precision.  The sum runs once, at the precision that the
    largest term shows it needs (:func:`_first_bits`) if that is above the
    context's, so that :func:`core.certify` never discards a full sum.
    """
    nn = _vertex_count(n)

    def compute(c: PrecisionContext) -> HPComplex:
        x = c.mpf(power)
        rounded = _rounded(power, x)  # an input exact at c stays exact above
        bits = _first_bits(c, nn, x, abs(x) * c.eps if rounded else 0)
        if bits > c.precision_bits:
            c = c.with_bits(bits)
            x = c.mpf(power)
        dp = abs(x) * c.eps if rounded else 0
        return HPComplex(*_power_sum(c.mp, nn, x, True, False, dp))

    return certify(get_context(ctx), compute, "sine_power_sum")


def zeta_zn_direct(n: int, s, ctx: Optional[PrecisionContext] = None, *,
                   fold: bool = True) -> EvalResult:
    """The defining finite sum (any complex s), as sum_k (2 sin(pi k/n))^(-2s);
    err covers the rounding of an s that is not exact at working precision.

    The sum runs at the context's precision and, should its err miss the
    tolerance there, again with more bits (:func:`core.certify`); a sum run
    above the context's precision adds to err its rounding to it, at least
    (|v| - err) eps for the first sum's v and err; when that exceeds the
    tolerance, NoConvergence naming the precision is raised at once."""
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
        v, err = _power_sum(c.mp, nn, -2 * z, fold, True, dp)
        if c is not ctx:
            err += abs(v) * ctx.eps
        elif err > ctx.tol and (abs(v) - err) * ctx.eps > ctx.tol:
            raise NoConvergence(
                f"zeta_zn_direct: precision too low: rounding the sum to "
                f"{ctx.precision_bits} bits alone exceeds the tolerance")
        return HPComplex(v, err)

    r = certify(ctx, compute, "zeta_zn_direct")
    return complex_result(ctx, r.value, r.err, False, "direct-sum")


def zeta_zn_negative_int(n: int, m: int) -> Fraction:
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
