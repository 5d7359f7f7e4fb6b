"""Precision plumbing shared by every module: evaluation contexts, value
carriers with error bounds, the precision policy, and the library's
exception hierarchy.

A :class:`PrecisionContext` owns a private mpmath context so that concurrent
evaluations never race on global mpmath state.  Values are immutable; every
numeric result carries an absolute error bound, and results that are known
exactly carry the exact rational alongside the rounded rendering.

The precision policy lives here: kernels that miss ``target_tol`` retry at
up to 1024 extra bits (:func:`certify`), packaged results refuse
(:func:`complex_result`), and arguments near the integer and half-integer
lattice snap to it (:func:`snap`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf
from typing import Any, Callable, Optional

from mpmath.ctx_mp import MPContext

#: Extra working bits on top of the requested precision.  Heuristic error
#: bounds assume results are accurate to roughly this guard margin.
GUARD_BITS = 30


class ZetaKitError(Exception):
    """Base class for all library errors."""


class DomainError(ZetaKitError):
    """Argument outside an operation's domain of validity."""


class PoleError(ZetaKitError):
    """Evaluation requested at (or within snapping distance of) a pole."""


class NoConvergence(ZetaKitError):
    """The requested tolerance cannot be certified within the term budget."""


class NeedsLimitInterpretation(ZetaKitError):
    """The infinite product degenerates here and needs a limit reading."""


class IllConditioned(ZetaKitError):
    """A fit residual too large for the extracted coefficient to be trusted."""


class ReconstructionError(ZetaKitError):
    """Rational reconstruction failed its verification points."""


@dataclass(frozen=True)
class PrecisionContext:
    """Evaluation settings: working precision, target tolerance, term budget.

    ``precision_bits`` is the binary precision of returned values,
    ``target_tol`` the absolute error, positive and finite, that every
    operation must certify (or raise :class:`NoConvergence`), and
    ``max_terms`` caps series/product/quadrature subdivisions.  Kernels that
    miss the tolerance retry at up to 1024 extra bits (:func:`certify`);
    packaged results refuse (:func:`complex_result`).
    The attached mpmath context is created once and never mutated
    afterwards, which keeps concurrent use safe.
    """

    precision_bits: int = 256
    target_tol: float = 1e-30
    max_terms: int = 1_000_000

    def __post_init__(self) -> None:
        if self.precision_bits < 64:
            raise DomainError("precision_bits must be >= 64")
        if not self.target_tol > 0:
            raise DomainError("target_tol must be positive")
        if not self.target_tol < inf:
            raise DomainError("target_tol must be finite")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")
        mp = MPContext()
        mp.prec = self.precision_bits + GUARD_BITS
        object.__setattr__(self, "_mp", mp)

    @property
    def mp(self) -> MPContext:
        """The private mpmath context (do not mutate its precision)."""
        return self._mp  # type: ignore[attr-defined]

    @property
    def working_bits(self) -> int:
        return self.precision_bits + GUARD_BITS

    def mpf(self, x: Any):
        """Convert ``x`` to mpf at working precision (Fractions included)."""
        if isinstance(x, HPReal):
            return self.mp.convert(x.value)
        return self.mp.convert(x)

    def mpc(self, x: Any):
        """Convert ``x`` to mpc at working precision."""
        mp = self.mp
        if isinstance(x, HPComplex):
            return mp.mpc(x.value)
        if isinstance(x, HPReal):
            return mp.mpc(mp.convert(x.value))
        return mp.mpc(mp.convert(x))

    @cached_property
    def tol(self):
        return self.mp.convert(self.target_tol)

    @cached_property
    def pole_radius(self):
        """Arguments this close to a pole/zero lattice point are snapped."""
        return self.mp.mpf(2) ** (-self.precision_bits // 2)

    @property
    def eps(self):
        """Unit roundoff at working precision."""
        return self.mp.mpf(2) ** (1 - self.working_bits)

    def with_bits(self, precision_bits: int) -> "PrecisionContext":
        return PrecisionContext(precision_bits, self.target_tol, self.max_terms)


#: Shared default: 256 bits of working precision, 1e-30 absolute tolerance.
DEFAULT_CONTEXT = PrecisionContext()


def get_context(ctx: Optional[PrecisionContext]) -> PrecisionContext:
    return DEFAULT_CONTEXT if ctx is None else ctx


#: Extra bits tried, in order, after a kernel misses the tolerance at the
#: context's own precision.
_BOOST_BITS = (64, 128, 256, 512, 1024)


def certify(ctx: PrecisionContext, compute: Callable[[PrecisionContext], Any], what: str):
    """Run ``compute(c)`` at ``ctx``, then with 64, 128, ..., 1024 extra bits,
    until its ``err`` meets ``target_tol`` (Ziv's strategy); else raise
    NoConvergence naming ``what``.

    ``compute`` converts its inputs into ``c`` (mpmath runs mixed arithmetic
    at the left operand's precision) and returns an unrounded HPReal or
    HPComplex: a result rounded by :func:`complex_result` carries a rounding
    that its ``err`` does not cover, so routes refuse instead of escalating.
    """
    tol = ctx.tol
    for extra in (0,) + _BOOST_BITS:
        out = compute(ctx.with_bits(ctx.precision_bits + extra) if extra else ctx)
        if out.err <= tol:
            return out
    raise NoConvergence(f"{what}: tolerance not met at {_BOOST_BITS[-1]} extra bits")


def snap(ctx: PrecisionContext, z) -> Optional[Fraction]:
    """The integer or half-integer within ``pole_radius`` of z, or None."""
    r = ctx.pole_radius
    if abs(z.imag) > r:
        return None
    x2 = 2 * z.real
    k = int(ctx.mp.nint(x2))
    if abs(x2 - k) <= 2 * r:
        return Fraction(k, 2)
    return None


@dataclass(frozen=True)
class HPReal:
    """A real scalar with an absolute error bound.

    ``exact=True`` asserts the value is known exactly (then ``err == 0``).
    """

    value: Any
    err: Any = 0
    exact: bool = False

    def __post_init__(self) -> None:
        if self.err < 0:
            raise DomainError("error bound must be nonnegative")
        if self.exact and self.err != 0:
            raise DomainError("exact values must carry a zero error bound")

    def __float__(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class HPComplex:
    """A complex scalar with a single absolute error bound on |value|."""

    value: Any
    err: Any = 0

    def __post_init__(self) -> None:
        if self.err < 0:
            raise DomainError("error bound must be nonnegative")

    @property
    def re(self):
        return self.value.real

    @property
    def im(self):
        return self.value.imag

    def __complex__(self) -> complex:
        return complex(self.value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class EvalResult:
    """A numeric result with error bound, certification status, and method tag.

    ``certified`` is True only when ``err`` comes from a proved remainder
    bound (product tail, series remainder), never from a heuristic estimate.
    ``exact`` carries the exact rational when one is known, in which case the
    mpc ``value`` is merely its rendering at context precision.
    """

    value: HPComplex
    err: Any
    certified: bool
    method: str
    exact: Optional[Fraction] = None
    note: Optional[str] = None

    @property
    def re(self):
        return self.value.re

    @property
    def im(self):
        return self.value.im

    def __float__(self) -> float:
        return float(self.value.re)


def complex_result(ctx: PrecisionContext, value, err, certified: bool, method: str,
                   exact: Optional[Fraction] = None, note: Optional[str] = None) -> EvalResult:
    """Package a real or complex value as an EvalResult, rounded to context
    precision; raise NoConvergence when ``err`` exceeds ``target_tol``."""
    mp = ctx.mp
    e = mp.convert(err)
    if e > ctx.tol:
        raise NoConvergence(f"{method}: error bound {mp.nstr(e, 3)} exceeds the "
                            f"tolerance {ctx.target_tol:g}")
    v = mp.mpc(value)
    return EvalResult(HPComplex(v, e), e, certified, method, exact, note)


def exact_result(ctx: PrecisionContext, q: Fraction, method: str,
                 note: Optional[str] = None) -> EvalResult:
    """Package an exact rational as an EvalResult (zero error, certified)."""
    mp = ctx.mp
    v = mp.mpc(mp.convert(q))
    return EvalResult(HPComplex(v, mp.zero), mp.zero, True, method, Fraction(q), note)


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpf (mpfs are dyadic rationals)."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if x == 0:
            return Fraction(0)
        raise DomainError("cannot convert a non-finite value to a rational")
    m = -man if sign else man
    if exp >= 0:
        return Fraction(m * (1 << exp))
    return Fraction(m, 1 << (-exp))
