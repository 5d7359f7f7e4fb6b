"""The spectral zeta function of discrete circles (cycle graphs on n vertices):

    zeta_n(s) = 4^(-s) sum_{k=1}^{n-1} sin(pi k / n)^(-2s).

Negative integer values are exact alternating binomial sums, odd half-integer
values collapse to short cotangent sums, and positive integer values are
polynomials in n, assembled exactly from Bernoulli numbers by
:func:`zetakit.asymptotics.csc_power_polynomial`.  The ``verify`` suite
checks them against an independent oracle that reconstructs them from direct
sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Optional, Union

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


def _sine_terms(mp, n: int, power, fold: bool):
    """weight * sin(pi k/n)^power for k = 1..n-1, each fraction k/n taken
    exactly reduced as min(k, n-k)/n.  Folding merges k with n-k, on which
    sin(pi k/n) agrees, into one term of weight two."""
    for k in range(1, n // 2 + 1 if fold else n):
        frac = Fraction(min(k, n - k), n)
        weight = 2 if fold and 2 * k != n else 1
        yield weight * mp.power(mp.sinpi(mp.mpf(frac.numerator) / frac.denominator), power)


def sine_power_sum(n: Union[int, DiscreteCircle], power,
                   ctx: Optional[PrecisionContext] = None) -> HPReal:
    """sum_{k=1}^{n-1} sin(pi k/n)^power for real power.

    Sines are taken of exactly reduced rational multiples of pi (never of a
    rounded pi*k/n product), so accuracy survives large n.
    """
    nn = _vertex_count(n)

    def compute(c: PrecisionContext) -> HPReal:
        acc = sum(_sine_terms(c.mp, nn, c.mpf(power), True), c.mp.zero)
        return HPReal(acc, abs(acc) * (nn + 16) * c.mp.mpf(2) ** (4 - c.mp.prec))

    return certify(get_context(ctx), compute, "sine_power_sum")


def zeta_zn_direct(n: Union[int, DiscreteCircle], s,
                   ctx: Optional[PrecisionContext] = None, *,
                   fold: bool = True) -> EvalResult:
    """The defining finite sum at working precision (any complex s)."""
    nn = _vertex_count(n)
    ctx = get_context(ctx)
    mp = ctx.mp
    z = ctx.mpc(s)
    if z.imag == 0:
        z = z.real
    if z == 0:
        return exact_result(ctx, Fraction(nn - 1), "direct-sum")
    acc = mp.zero
    magnitude = mp.zero  # phases can cancel for complex s; bound on term mass
    for term in _sine_terms(mp, nn, -2 * z, fold):
        acc += term
        magnitude += abs(term)
    scale = abs(mp.power(4, -z))
    v = mp.power(4, -z) * acc
    err = scale * magnitude * (nn + 16) * mp.mpf(2) ** (4 - mp.prec)
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
    it exactly from Bernoulli numbers and caches it.  The result is exact,
    so ``ctx`` is not used.
    """
    if not 1 <= m <= POLY_CAP:
        raise DomainError(f"closed polynomials supported for 1 <= m <= {POLY_CAP}")
    from .asymptotics import csc_power_polynomial  # asymptotics imports this module
    return csc_power_polynomial(m)
