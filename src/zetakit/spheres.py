"""Unit-sphere hypersurface volumes and their zeta-value factorizations.

vol(S^n) = 2 pi^((n+1)/2) / Gamma((n+1)/2) factors as 2 Z(0) Z(-1) ... Z(-n+1),
with the single ratio vol(S^n)/vol(S^(n-1)) = Z(-n+1).  Catalan numbers show
up as zeta_Z(-m)/(m+1), and the classical arithmetic-volume products
zeta(2)...zeta(n) and zeta(2) zeta(4)...zeta(2n) are provided as composed
demonstrations of the same special values.
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
from .asymptotics import zeta_even_from_functional_eq
from .zeta_z import big_z

__all__ = [
    "SphereRatio",
    "sphere_volume_gamma",
    "sphere_volume_zproduct",
    "sphere_ratio",
    "catalan",
    "arithmetic_volume_demo",
]


@dataclass(frozen=True)
class SphereRatio:
    """Both sides of vol(S^n)/vol(S^(n-1)) = Z(-n+1)."""

    n: int
    gamma_route: EvalResult
    z_value: EvalResult


def sphere_volume_gamma(n: int, ctx: Optional[PrecisionContext] = None) -> EvalResult:
    """vol(S^n) = 2 pi^((n+1)/2) / Gamma((n+1)/2) for n >= 0."""
    if n < 0:
        raise DomainError("dimension must be nonnegative")
    ctx = get_context(ctx)
    mp = ctx.mp
    g = numerics.gamma(mp.mpf(n + 1) / 2, ctx)
    v = 2 * mp.power(mp.pi, mp.mpf(n + 1) / 2) / g.value
    rel = g.err / abs(g.value) + mp.mpf(2) ** (6 - mp.prec)
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
    """vol(S^n)/vol(S^(n-1)) computed both ways; the contract is that the
    Gamma-quotient route and Z(-n+1) agree within summed error bounds."""
    if n < 1:
        raise DomainError("ratio needs n >= 1")
    ctx = get_context(ctx)
    mp = ctx.mp
    va = sphere_volume_gamma(n, ctx)
    vb = sphere_volume_gamma(n - 1, ctx)
    ratio = va.value.value.real / vb.value.value.real
    rel = (va.err / abs(va.value.value) + vb.err / abs(vb.value.value)
           + mp.mpf(2) ** (4 - mp.prec))
    gamma_route = complex_result(ctx, ratio, abs(ratio) * rel, False,
                                 "gamma-closed-form")
    return SphereRatio(n, gamma_route, big_z(-(n - 1), ctx))


def catalan(m: int) -> int:
    """Exact Catalan number C(2m, m) / (m+1)."""
    if m < 0:
        raise DomainError("Catalan index must be nonnegative")
    return comb(2 * m, m) // (m + 1)


def arithmetic_volume_demo(group: str, n: int,
                           ctx: Optional[PrecisionContext] = None) -> EvalResult:
    """Classical zeta-product volumes: 'SL' gives zeta(2) zeta(3) ... zeta(n)
    (n >= 2), 'Sp' gives zeta(2) zeta(4) ... zeta(2n) (n >= 1).

    A pedagogical composition of zeta values only; no measure normalization
    is modeled.  Even arguments route through the exact functional-equation
    bridge, odd ones through Euler-Maclaurin summation.
    """
    ctx = get_context(ctx)
    mp = ctx.mp
    if group == "SL":
        if n < 2:
            raise DomainError("SL demo needs n >= 2")
        args = range(2, n + 1)
    elif group == "Sp":
        if n < 1:
            raise DomainError("Sp demo needs n >= 1")
        args = range(2, 2 * n + 1, 2)
    else:
        raise DomainError("group must be 'SL' or 'Sp'")
    v = mp.one
    err_rel = mp.zero
    for k in args:
        if k % 2 == 0:
            zk = zeta_even_from_functional_eq(k // 2, ctx)
            v *= zk.value.value.real
            err_rel += zk.err / abs(zk.value.value)
        else:
            zk = numerics.riemann_zeta_numeric(k, ctx)
            v *= zk.value.real
            err_rel += zk.err / abs(zk.value)
        err_rel += mp.mpf(2) ** (4 - mp.prec)
    return complex_result(ctx, v, abs(v) * err_rel, False, "zeta-product-demo")
