"""Unit-sphere hypersurface volumes and their zeta-value factorizations.

vol(S^n) = 2 pi^((n+1)/2) / Gamma((n+1)/2) factors as 2 Z(0) Z(-1) ... Z(-n+1),
with the single ratio vol(S^n)/vol(S^(n-1)) = Z(-n+1).  Catalan numbers show
up as zeta_Z(-m)/(m+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .core import (
    DomainError,
    EvalResult,
    PrecisionContext,
    complex_result,
    exact_result,
    get_context,
)
from . import numerics
from .zeta_z import big_z

__all__ = [
    "SphereRatio",
    "sphere_volume_gamma",
    "sphere_volume_zproduct",
    "sphere_ratio",
    "catalan",
]


@dataclass(frozen=True)
class SphereRatio:
    """Both sides of vol(S^n)/vol(S^(n-1)) = Z(-n+1)."""

    n: int
    gamma_route: EvalResult
    z_value: EvalResult


def sphere_volume_gamma(n: int, ctx: Optional[PrecisionContext] = None) -> EvalResult:
    """vol(S^n) = 2 pi^((n+1)/2) / Gamma((n+1)/2) for n >= 0, its Gamma
    factor unchecked; err covers the rounding of pi, (n+1)/2-fold in the power."""
    if n < 0:
        raise DomainError("dimension must be nonnegative")
    ctx = get_context(ctx)
    mp = ctx.mp
    g = numerics._gamma_raw(mp.mpf(n + 1) / 2, ctx)
    v = 2 * mp.power(mp.pi, mp.mpf(n + 1) / 2) / g.value
    rel = g.err / abs(g.value) + (n + 1 + 2 ** 6) * mp.ldexp(1, -mp.prec)
    return complex_result(ctx, v, abs(v) * rel, False, "gamma-closed-form")


def sphere_volume_zproduct(n: int, ctx: Optional[PrecisionContext] = None) -> EvalResult:
    """vol(S^n) = 2 Z(0) Z(-1) ... Z(-n+1); the empty product at n = 0 gives
    the two-point sphere S^0 its volume 2 exactly."""
    if n < 0:
        raise DomainError("dimension must be nonnegative")
    ctx = get_context(ctx)
    mp = ctx.mp
    if n == 0:
        return exact_result(ctx, Fraction(2), "z-product")
    v = mp.mpf(2)
    rel = mp.zero
    for j in range(n):
        zj = big_z(-j, ctx)
        v *= zj.value.value.real
        rel += zj.err / abs(zj.value.value) + mp.mpf(2) ** (4 - mp.prec)
    return complex_result(ctx, v, abs(v) * rel, False, "z-product")


def sphere_ratio(n: int, ctx: Optional[PrecisionContext] = None) -> SphereRatio:
    """vol(S^n)/vol(S^(n-1)) computed both ways, as the Gamma quotient
    sqrt(pi) Gamma(n/2) / Gamma((n+1)/2), its factors unchecked, and as
    Z(-n+1); the contract is that they agree within summed error bounds."""
    if n < 1:
        raise DomainError("ratio needs n >= 1")
    ctx = get_context(ctx)
    mp = ctx.mp
    g1, g2 = (numerics._gamma_raw(mp.mpf(k) / 2, ctx) for k in (n, n + 1))
    ratio = mp.sqrt(mp.pi) * g1.value / g2.value
    rel = g1.err / abs(g1.value) + g2.err / abs(g2.value) + mp.mpf(2) ** (4 - mp.prec)
    gamma_route = complex_result(ctx, ratio, abs(ratio) * rel, False, "gamma-closed-form")
    return SphereRatio(n, gamma_route, big_z(-(n - 1), ctx))


def catalan(m: int) -> int:
    """Exact Catalan number C(2m, m) / (m+1)."""
    if m < 0:
        raise DomainError("Catalan index must be nonnegative")
    return comb(2 * m, m) // (m + 1)
