"""Large-n behavior of sine-power sums and the zeta values it encodes.

As n grows,

    sum_{k=1}^{n-1} sin(pi k/n)^(-s)
        ~  pi^(-1/2) Gamma(1/2-s/2)/Gamma(1-s/2) n
         + 2 pi^(-s) zeta(s) n^s
         + (s/3) pi^(2-s) zeta(s-2) n^(s-2) + ...

The leading coefficient is 2^s zeta_Z(s/2), from the lattice closed form.
This module evaluates those three terms, fits the subleading behavior on an
n-grid to pull zeta(0), zeta(-1), zeta(-3), ... out of pure trigonometric
data, and bridges the negative-integer Bernoulli values to the
positive even ones through the classical functional equation.  For positive
integer exponents the expansion terminates (every further term carries a
zeta value at a negative even integer) and reproduces the closed polynomials
of the discrete-circle zeta exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import List, Optional, Sequence

from .core import (
    DomainError,
    EvalResult,
    HPComplex,
    IllConditioned,
    PrecisionContext,
    complex_result,
    get_context,
)
from . import numerics, zeta_z
from .zeta_zn import RationalPolynomial, sine_power_sum

__all__ = [
    "ExpansionTerm",
    "ZetaExtraction",
    "expansion_terms",
    "evaluate_expansion",
    "extract_zeta",
    "euler_zeta_negative",
    "zeta_even_from_functional_eq",
    "csc_power_polynomial",
]


@dataclass(frozen=True)
class ExpansionTerm:
    """One term coefficient * n^power_of_n of the large-n expansion."""

    coefficient: HPComplex
    power_of_n: object
    description: str


@dataclass(frozen=True)
class ZetaExtraction:
    """A zeta value recovered from sine-sum data on an n-grid: ``estimate``
    with the fit's rms residual as err, and ``s`` and ``reference`` plain
    mpf, the latter Euler's rational or the Euler-Maclaurin value."""

    s: object
    estimate: HPComplex
    reference: object
    abs_error: object
    n_grid: List[int]


def _lead(z, ctx: PrecisionContext):
    """(value, err) of the leading coefficient 2^z zeta_Z(z/2), the closed
    form's value unchecked (:func:`zeta_z._closed`).  Raises PoleError at
    positive odd z and near, but off, a positive even z, which given
    exactly gives an exact zero."""
    mp = ctx.mp
    r, r_err = zeta_z._closed(ctx, z / 2)[:2]
    p = mp.power(2, z)
    v = p * mp.mpc(r)
    return v, abs(p) * r_err + abs(v) * mp.mpf(2) ** (6 - mp.prec)


def expansion_terms(s, ctx: Optional[PrecisionContext] = None) -> List[ExpansionTerm]:
    """The three displayed terms of the expansion at exponent s; the leading
    coefficient is 2^s zeta_Z(s/2) (:func:`_lead`).

    Raises PoleError at positive odd integers (poles of zeta_Z(s/2), which
    include the zeta pole at s = 1 and the third-term pole at s = 3).
    """
    ctx = get_context(ctx)
    mp = ctx.mp
    z = ctx.mpc(s)
    if z.imag == 0:
        z = z.real
    eps = mp.mpf(2) ** (8 - mp.prec)
    lead, lead_err = _lead(z, ctx)
    z1 = numerics.riemann_zeta_numeric(z, ctx)
    c2 = 2 * mp.power(mp.pi, -z) * z1.value
    c2_err = 2 * abs(mp.power(mp.pi, -z)) * z1.err + abs(c2) * eps
    z2 = numerics.riemann_zeta_numeric(z - 2, ctx)
    c3 = z / 3 * mp.power(mp.pi, 2 - z) * z2.value
    c3_err = abs(z / 3 * mp.power(mp.pi, 2 - z)) * z2.err + abs(c3) * eps
    return [
        ExpansionTerm(HPComplex(lead, lead_err), mp.mpc(1), "leading"),
        ExpansionTerm(HPComplex(mp.mpc(c2), c2_err), mp.mpc(z), "zeta(s)"),
        ExpansionTerm(HPComplex(mp.mpc(c3), c3_err), mp.mpc(z - 2), "zeta(s-2)"),
    ]


def evaluate_expansion(terms: Sequence[ExpansionTerm], n,
                       ctx: Optional[PrecisionContext] = None) -> HPComplex:
    """Sum coefficient * n^power over the given terms at integer n."""
    ctx = get_context(ctx)
    mp = ctx.mp
    acc = mp.mpc(0)
    err = mp.zero
    for t in terms:
        if t.coefficient.value == 0:
            continue
        p = mp.power(n, t.power_of_n)
        acc += t.coefficient.value * p
        err += (t.coefficient.err or mp.zero) * abs(p)
    err += abs(acc) * mp.mpf(2) ** (6 - mp.prec)
    return HPComplex(acc, err)


def _log_spaced_grid(n_min: int, n_max: int, points: int) -> List[int]:
    from math import exp, log
    if points < 4:
        raise DomainError("grid needs at least 4 points")
    raw = {
        int(round(exp(log(n_min) + i * (log(n_max) - log(n_min)) / (points - 1))))
        for i in range(points)
    }
    grid = sorted(x for x in raw if n_min <= x <= n_max)
    if len(grid) < 4:
        raise DomainError(f"grid needs at least 4 distinct n, {n_min}..{n_max} has {len(grid)}")
    return grid


def _fit_line(mp, xs, ys):
    """Least-squares coefficients (c1, c2) of y = c1 + c2 * x."""
    N = len(xs)
    sx = mp.fsum(xs)
    sxx = mp.fsum(v * v for v in xs)
    sy = mp.fsum(ys)
    sxy = mp.fsum(u * v for u, v in zip(xs, ys))
    det = N * sxx - sx * sx
    c2 = (N * sxy - sx * sy) / det
    c1 = (sy - c2 * sx) / N
    return c1, c2


def extract_zeta(s, n_min: int, n_max: int,
                 ctx: Optional[PrecisionContext] = None, *,
                 points: int = 16) -> ZetaExtraction:
    """Recover zeta(s), s <= 0, from finite sine-power sums.

    Subtracts the leading term from sum_k sin(pi k/n)^(-s) on a log-spaced
    grid, fits c1 n^s + c2 n^(s-2) (matched powers, rescaled so the design
    is well conditioned), and reads zeta(s) = c1 / (2 pi^(-s)).  The
    reference value is Euler's Bernoulli formula at the integers and the
    Euler-Maclaurin evaluation elsewhere.
    """
    ctx = get_context(ctx)
    mp = ctx.mp
    x = ctx.mpf(s)
    if x > 0:
        raise DomainError("extraction regime is s <= 0")
    if not n_max > n_min >= 4:
        raise DomainError("need n_max > n_min >= 4")
    grid = _log_spaced_grid(n_min, n_max, points)
    lead = _lead(x, ctx)[0].real
    ys = []
    xs = []
    noise = mp.zero  # the largest certified error of a rescaled data point
    for n in grid:
        total = sine_power_sum(n, -x, ctx)
        w = mp.power(n, -x)  # rescale by the leading model power
        ys.append((total.value - lead * n) * w)
        xs.append(mp.mpf(n) ** -2)
        noise = max(noise, total.err * w)
    c1, c2 = _fit_line(mp, xs, ys)
    residuals = [y - c1 - c2 * v for y, v in zip(ys, xs)]
    rms = mp.sqrt(mp.fsum(r * r for r in residuals) / len(grid))
    # a least-squares residual is at most the data's own error, so a
    # residual within it is noise in the sums, not a failure of the model
    # (at s = -2 the data is exactly 0 and the residual is only that noise)
    scale = (abs(c1) + abs(c2) * max(xs) + 100 * noise
             + mp.mpf(2) ** (-ctx.precision_bits // 2))
    if rms > scale / 100:
        raise IllConditioned(f"fit residual {rms} too large for scale {scale}")
    estimate = c1 * mp.power(mp.pi, x) / 2
    if x == int(x):
        m = -int(x)
        ref = Fraction(-1, 2) if m == 0 else euler_zeta_negative(m)
        reference = mp.mpf(ref.numerator) / ref.denominator
    else:
        reference = numerics.riemann_zeta_numeric(x, ctx).value.real
    return ZetaExtraction(
        s=x,
        estimate=HPComplex(estimate, rms),
        reference=reference,
        abs_error=abs(estimate - reference),
        n_grid=grid,
    )


def euler_zeta_negative(m: int) -> Fraction:
    """Exact zeta(-m) = (-1)^m B_{m+1} / (m+1) for integer m >= 1."""
    if m < 1:
        raise DomainError("m must be a positive integer")
    return (-1) ** m * numerics.bernoulli(m + 1) / (m + 1)


def _zeta_even_over_pi_power(m: int) -> Fraction:
    """zeta(2m) / pi^(2m) as an exact rational, reached from zeta(1-2m)
    through the functional equation zeta(s) = 2^s pi^(s-1) sin(pi s/2)
    Gamma(1-s) zeta(1-s) solved at s = 1-2m (where every factor is regular)."""
    if m < 1:
        raise DomainError("m must be a positive integer")
    return (
        (-1) ** m * Fraction(2 ** (2 * m - 1), factorial(2 * m - 1))
        * euler_zeta_negative(2 * m - 1)
    )


def zeta_even_from_functional_eq(m: int, ctx: Optional[PrecisionContext] = None) -> EvalResult:
    """zeta(2m) = (rational) * pi^(2m), the rational part exact."""
    ctx = get_context(ctx)
    mp = ctx.mp
    q = _zeta_even_over_pi_power(m)
    v = mp.mpf(q.numerator) / q.denominator * mp.pi ** (2 * m)
    err = abs(v) * mp.mpf(2) ** (4 - mp.prec)
    return complex_result(ctx, v, err, True, "functional-equation")


# --------------------------------------------------------------------------
# terminating expansion at positive integer exponents


def _x_csc_series(jmax: int) -> List[Fraction]:
    """Coefficients d_j of x csc(x) = sum d_j x^(2j) (exact, Bernoulli)."""
    out = [Fraction(1)]
    for j in range(1, jmax + 1):
        d = (
            (-1) ** (j + 1) * 2 * (2 ** (2 * j - 1) - 1)
            * numerics.bernoulli(2 * j) / factorial(2 * j)
        )
        out.append(d)
    return out


def csc_power_polynomial(m: int) -> RationalPolynomial:
    """The exact polynomial equal to 4^(-m) sum_k csc(pi k/n)^(2m) for n >= 2.

    The expansion at exponent 2m terminates: beyond the n^0 term every
    contribution carries a zeta value at a negative even integer.  The term
    coefficients come from powering the x csc(x) series, the even zeta
    values from the Bernoulli route through the functional equation.
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    d = _x_csc_series(m)
    # e_j = [x^(2j)] (x csc x)^(2m), truncated beyond j = m
    e = [Fraction(0)] * (m + 1)
    e[0] = Fraction(1)
    for _ in range(2 * m):
        nxt = [Fraction(0)] * (m + 1)
        for i in range(m + 1):
            if e[i] == 0:
                continue
            for j in range(0, m + 1 - i):
                nxt[i + j] += e[i] * d[j]
        e = nxt
    coeffs = [Fraction(0)] * (2 * m + 1)
    q4 = Fraction(1, 4 ** m)
    for j in range(m):
        coeffs[2 * m - 2 * j] = q4 * 2 * e[j] * _zeta_even_over_pi_power(m - j)
    coeffs[0] = q4 * 2 * e[m] * Fraction(-1, 2)
    return RationalPolynomial(tuple(coeffs))
